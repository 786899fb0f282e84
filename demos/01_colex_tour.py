#!/usr/bin/env python3
"""A tour of colex order, initial segments, and left compression."""

from hylag import (
    Hypergraph,
    colex_rank,
    colex_segment,
    colex_unrank,
    is_left_compressed,
    left_compress,
)


def show(H):
    print(f"  {H!r}   edges={len(H)} support={H.support}")


print("The first eight 3-sets in colex order:")
for k in range(8):
    edge = colex_unrank(k, 3)
    print(f"  rank {k}: {edge}   (rank round-trips: {colex_rank(edge)})")

print()
print("Initial segments H^{m,3} stack those prefixes:")
for m in (1, 2, 4, 5, 10):
    show(colex_segment(m, 3))

print()
print("Left compression pushes any hypergraph toward such segments.")
H = Hypergraph(3, [(2, 3, 5), (1, 4, 5), (2, 4, 5)])
show(H)
print(f"  left-compressed? {is_left_compressed(H)}")
C = left_compress(H)
print("after compressing to a fixpoint:")
show(C)
print(f"  left-compressed? {is_left_compressed(C)}")
print()
print("Compression never lowers the Lagrangian, which is why the search")
print("for extremal m-edge graphs only needs compressed candidates.")
