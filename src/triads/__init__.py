"""Exact duality-triad tables, generalized weighted binomial coefficients,
and their deformed and operator-valued extensions, over Q(q)."""

from .scalar import (
    ONE,
    ParseError,
    PoleError,
    Q,
    QPoly,
    Rational,
    Scalar,
    ZERO,
    as_scalar,
    parse_scalar,
    q_factorial,
    q_integer,
    qpow,
)
from .poly import DegreeLimitError, Poly, X, parse_poly, x_power
from .triad import (
    SingularTriadError,
    SuiteResult,
    TriadSpec,
    TriadTable,
    coefficient_table,
    dual_polynomials,
    gauss_spec,
    load_spec,
    pascal_spec,
    stirling2_spec,
    verify_connection,
    verify_degrees,
)
from .konvalina import (
    WeightVector,
    first_kind,
    first_kind_oracle,
    first_kind_table,
    last_box_identity,
    naturals,
    ones,
    oracle_table,
    qpowers,
    second_kind,
    second_kind_oracle,
    second_kind_triangle_table,
    split_identity,
)
from .families import FAMILIES, cross_check, family_table, family_value
from .psi import PsiSequence, classical_psi, fibonacci_psi, get_psi, n_psi, qfact_psi
from .psi_extensions import psi_stirling_table, psi_weights
from .operators import (
    DepthExceededError,
    DiagOp,
    OpWeightVector,
    binomial_operator,
    konkwa_first_kind,
    konkwa_second_kind,
    n_qhat_entries,
    qhat,
    qhat_power_entries,
    stirling1_operator,
    stirling2_operator,
)
from .genfun import NonUnitError, OrderMismatchError, Series, check_stirling1_polynomial, check_stirling2_series

__version__ = "0.1.0"
