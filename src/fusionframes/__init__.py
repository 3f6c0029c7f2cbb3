"""Fusion-frame duality, erasure error analysis, and optimal-dual certificates."""

from .linalg import *
from .fusion import *
from .discrete import *
from .duality import *
from .erasures import *
from .optimality import *

__version__ = "0.1.0"
