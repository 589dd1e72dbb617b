"""burchlab: Burch ideal and Burch ring decision procedures over F_p."""

from .artinian import (
    AlgebraElement,
    QuotientAlgebra,
    annihilator,
    fibre_product,
    find_exact_pairs,
)
from .burch import (
    BurchReport,
    InternalConsistencyError,
    burch_criteria_crosscheck,
    burch_ideal_test,
    burch_invariant,
    burch_ring_depth_zero,
    choi_invariant,
    cube_zero_test,
    cut_down,
    depth_zero_ideal,
    fibre_burch_test,
    gorenstein_burch_classifier,
    mu_growth_test,
    m_full_test,
)
from .groebner import (
    Ideal,
    PreconditionError,
    SyzygyMatrix,
    entry_ideal,
    ideal_colon,
    ideal_intersection,
    max_ideal,
    syzygy_matrix,
)
from .linalg import DEFAULT_PRIME
from .monomial import (
    MonomialIdeal,
    enumerate_m_primary,
    hilbert_burch_matrix,
    mono_colon_m,
    monomial_burch_test,
    staircase_burch_test,
)
from .poly import GREVLEX, Block, ParseError, Polynomial, RingContext, parse_polynomial
from .resolution import (
    AlgebraModule,
    Resolution,
    free_module,
    k_summand_test,
    koszul_h1,
    module_from_cyclic,
    residue_field,
    tor,
)

__version__ = "0.1.0"
