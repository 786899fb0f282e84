"""hylag: Lagrangians of uniform hypergraphs — exact combinatorics, a
certified numeric maximizer, and an exhaustive small-case verifier for the
conjecture that colex segments maximize the Lagrangian at every edge count.

The package exports every name in its library modules' __all__ lists.
"""

from . import hypergraph, lagrangian, suites, verifier
from .hypergraph import *  # noqa: F403
from .lagrangian import *  # noqa: F403
from .suites import *  # noqa: F403
from .verifier import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (hypergraph, lagrangian, suites, verifier)
    for name in module.__all__
)
