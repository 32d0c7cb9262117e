"""hilbcomp: exact commutative algebra for pairs of codimension-two linear
subspaces of projective space.

The kernel is exact throughout (arbitrary-precision rationals): multivariate
polynomials with pluggable monomial orders, Buchberger's algorithm with
syzygies, ideal arithmetic (intersection, quotient, saturation), Hilbert
series and polynomials, flat limits of one-parameter families, tangent-space
dimensions of Hilbert-scheme points, a four-type classifier for the saturated
ideals with the reference Hilbert polynomial, and the integer Picard-lattice
chamber decomposition of the two components involved.
"""

from .errors import (
    BudgetExceededError,
    CertificateError,
    ClassificationError,
    HomogeneityError,
    KernelError,
    LatticeDataError,
    MonomialOverflowError,
    ParseError,
    RetriesExhaustedError,
    RingMismatchError,
)
from .rings import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    PolyRing,
    elimination_order,
    format_polynomial,
    monomials_of_degree,
    parse,
)
from .groebner import (
    GroebnerBasis,
    SyzygyModule,
    buchberger,
    eliminate_generators,
    syzygies,
)
from .ideals import (
    Ideal,
    dumps_ideal,
    eliminate,
    intersect,
    irrelevant_ideal,
    load_ideal,
    loads_ideal,
    quotient,
    random_linear_change,
    saturate,
)
from .hilbert import (
    HilbertData,
    UniPoly,
    binomial_polynomial,
    double_structure_hilbert_count,
    hilbert_function,
    hilbert_series,
    pair_hilbert_polynomial,
)
from .flat_limit import Family, FlatnessReport, fiber, flatness_probe, limit_ideal
from .tangent import TangentReport, explicit_basis_check, hom_degree_zero, minimal_generators
from .classify import (
    SchemeType,
    classify,
    equidimensional_hull,
    generic_slice_reduced,
    normal_form_ideal,
)
from .picard import (
    HN,
    WN,
    ChamberReport,
    CurveClass,
    DimensionTable,
    DivisorClass,
    PicLattice,
    canonical_class,
    chamber_of,
    dimension_table,
    hn_lattice,
    is_fano,
    pairing,
    solve_relations,
    wn_lattice,
)
from . import fixtures
from .verify import VerifyReport, run_battery

__version__ = "0.1.0"
