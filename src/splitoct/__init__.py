"""Split octonions, the Cl(4,4) matrix representation and their triality."""

from .octonion import (
    SplitOctonion,
    StructureConstants,
    ConstructionError,
    UNIT_NAMES,
    mul,
    conj,
    norm_sq,
    inner,
    commutator,
    associator,
    jacobiator,
    malcev_jacobiator,
    is_timelike_vector_part,
    generate_basis_from_J,
    verify_table,
    verify_moufang,
    verify_malcev,
    verify_associators,
)
from .clifford import (
    METRIC,
    ChiralityError,
    alpha,
    gamma,
    b_matrix,
    verify_clifford,
    quadratic_form,
    rotor,
    Rotor,
    rotate_vector,
    rotate_spinor,
    spinor_invariant,
    trilinear_matrix,
)
from .triality import (
    PINNED_CONVENTION,
    oct_from_components,
    trilinear_oct,
    trilinear_equivalence_oracle,
    equivalence_map,
    CorrespondenceMap,
    OracleError,
    correspondence_check,
    boost_table_check,
    infinitesimal_table_check,
    role_swap_check,
    double_cover_check,
    rotor_invariance_check,
    trilinear_invariance_check,
    dictionary_random_check,
)
from .report import VerificationReport

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
