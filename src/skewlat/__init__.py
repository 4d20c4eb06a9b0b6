"""Finite skew lattices: axioms, class structure, completeness, frames.

A skew lattice carries two idempotent associative operations tied
together by four absorption laws; dropping commutativity is the whole
point.  This package stores finite ones as explicit operation tables
(`FiniteSkewLattice`), decides the usual identities with printable
witnesses, computes the maximal commutative image, checks the
completeness properties of commuting subsets, tests the frame
equivalence, and enumerates all small structures up to isomorphism.
Worked infinite examples (partial-function algebras, a chain with two
incomparable tops, finite-image functions on the naturals) live in
:mod:`skewlat.models` together with finite windows of them.
"""

from .core import *
from .core import Table
from .models import *
from .completeness import *
from .frames import *
from .census import *
from .cli import ParseError, StructureFile, emit, parse

from . import census, cli, completeness, core, frames, models

__version__ = "0.1.0"

__all__ = (
    core.__all__
    + models.__all__
    + completeness.__all__
    + frames.__all__
    + census.__all__
    + ["ParseError", "StructureFile", "emit", "parse"]
)
