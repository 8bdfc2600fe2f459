"""Exact power domination solver: minimum PMU placements for undirected
networks via contraction, preferred-node detection, redundancy elimination,
qualitative ordering, and parallel exhaustive search."""

from . import errors, graph, library, propagation, reduction, search
from .errors import *
from .graph import *
from .library import *
from .propagation import *
from .reduction import *
from .search import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += graph.__all__
__all__ += library.__all__
__all__ += propagation.__all__
__all__ += reduction.__all__
__all__ += search.__all__
