"""Heisenberg group geometry: grids, PL simplexes, chains, triangulations.

The package exports each module's __all__."""

from .core import *
from .grid import *
from .horizontal import *
from .simplex import *
from .triangulation import *

__version__ = "0.1.0"
