"""Desk-scale commutative unital C*-algebras, computably.

Two concrete models (functions on a finite space, the algebra generated by
one normal matrix), their characters and Gelfand transform, spectral
calculus through honest truncated series, the contravariant functors to
and from finite spaces with verified naturality, and the ideal/quotient
correspondence with its Zariski topology.
"""

from .algebra import *
from .duality import *
from .errors import *
from .gelfand import *
from .ideals import *
from .interchange import *
from .spaces import *
from .spectra import *
from .spectral import *

__version__ = "0.1.0"
