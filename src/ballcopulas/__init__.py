"""Copulas on the centered cube generated by uniform laws on disks, balls
and spheres: closed-form densities, CDFs, survival functions and exact
samplers, cross-checked by quadrature and Monte-Carlo oracles."""

from . import copulas, errors, oracle, special_math
from .copulas import *
from .errors import *
from .oracle import *
from .special_math import *

__version__ = "0.1.0"

__all__ = copulas.__all__ + errors.__all__ + oracle.__all__ + special_math.__all__
