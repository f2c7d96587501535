"""Spin-character combinatorics and basic-set verification for the double covers."""

from . import algnum, barcomb, blocks, isometry, spinchar, zverify
from .algnum import *
from .barcomb import *
from .blocks import *
from .isometry import *
from .spinchar import *
from .zverify import *

__all__ = []
__all__ += algnum.__all__
__all__ += barcomb.__all__
__all__ += blocks.__all__
__all__ += isometry.__all__
__all__ += spinchar.__all__
__all__ += zverify.__all__
