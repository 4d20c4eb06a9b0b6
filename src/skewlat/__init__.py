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

from .core import (
    CapExceededError,
    Certificate,
    DPartition,
    FiniteSkewLattice,
    Homomorphism,
    InternalConsistencyError,
    PreconditionError,
    QuotientLattice,
    SkewLatticeError,
    StructureError,
    Table,
    IDENTITY_NAMES,
    check_identity,
    check_lemma_reg,
    check_symmetric,
    detect_zero,
    down_set,
    green_d,
    is_commutative,
    is_homomorphism,
    lattice_from_order,
    natural_leq,
    quotient,
    restriction,
    subalgebra,
    validate_skew_axioms,
)
from .models import (
    FinCofinSet,
    FiniteImageFunction,
    INF_A,
    INF_B,
    Inf,
    OmegaElement,
    PartialFunction,
    boolean_lattice,
    build_pfn_algebra,
    chain_lattice,
    diamond_m3,
    fi_join,
    fi_meet,
    fi_one_point_chain,
    is_boolean_lattice,
    om_join,
    om_leq,
    om_meet,
    om_verify_no_infimum_of_infs,
    om_verify_no_join_of_naturals,
    om_window,
    pfn_carrier,
    product,
)
from .completeness import (
    check_bounded_above,
    check_implication_chain,
    check_join_complete,
    check_prop_joins,
    check_section_exists,
    check_section_extension,
    commutation_graph,
    commuting_subset,
    enumerate_commuting_subsets,
    inf_natural,
    join_fold,
    lattice_sections,
    meet_fold,
    sup_natural,
)
from .frames import check_theorem_ncframes, is_frame, is_ncframe
from .census import (
    CanonicalForm,
    CensusFilter,
    PREDICATES,
    canonicalize,
    enumerate_by_quotient_construction,
    enumerate_skew_lattices,
    search_counterexample,
)
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
