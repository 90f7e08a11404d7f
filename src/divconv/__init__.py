"""Exact evaluation of divisor-function convolution sums.

W_(a,b)(n) = sum of sigma(l) sigma(m) over nonnegative solutions of
a*l + b*m = n is evaluated in closed form for coprime (a, b) whose product
is 2^nu * m with nu <= 3 and m odd squarefree, by expanding
(a L(q^a) - b L(q^b))^2 in a weight-4 modular form basis built from
Eisenstein series and eta quotients.  The closed forms feed representation
counts for two families of octonary quadratic forms.
"""

from .arith import (
    LevelClass,
    classify_level,
    divisors,
    euler_phi,
    num_divisors,
    sigma,
    sigma_scaled,
)
from .convolution import (
    BasisNotSpanningError,
    ConvolutionFormula,
    DerivationError,
    FormulaIntegrityError,
    FormulaProvider,
    UnderdeterminedBasisError,
    UnsupportedLevelError,
    VerificationError,
    brute_force_W,
    derive_formula,
    diagonal_W,
    dispatch_W,
    evaluate_W,
    reduce_by_gcd,
    sturm_bound,
)
from .eta import (
    EtaQuotient,
    LigozatReport,
    SearchCeilingError,
    ligozat_check,
    order_at_infinity,
    search_cusp_forms,
)
from .qseries import (
    QSeries,
    eisenstein_L,
    eisenstein_M,
    eta_quotient_series,
    squared_difference,
)
from .representation import (
    PairSet,
    count_N,
    count_R,
    omega3,
    omega4,
    r4,
    rep_oracle,
    s4,
)
from .spaces import (
    CuspGenerator,
    ModularBasis,
    SpaceProfile,
    load_fixture_basis,
    profile,
    repair_basis,
    search_basis,
    select_cusp_basis,
)

__version__ = "0.1.0"
