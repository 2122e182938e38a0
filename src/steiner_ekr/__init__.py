"""Steiner systems, their maximal intersecting block families, and exact bounds."""

from . import bounds, canon, designs, ekr, errors, exactnum, geometry
from .bounds import *
from .canon import *
from .designs import *
from .ekr import *
from .errors import *
from .exactnum import *
from .geometry import *

__version__ = "0.1.0"

__all__ = sorted(
    name for mod in (bounds, canon, designs, ekr, errors, exactnum, geometry) for name in mod.__all__
)
