"""Coherent states of a particle on a circle.

Numerical library for the shift/weight operator algebra [J, U] = U, its
non-unitary factorization X = U exp(-J - 1/2), and the coherent states
that X generates: overlaps through lattice Gaussian sums, expectation
values with closed-form approximations, a functional representation
with reproducing kernels, and a verification CLI that checks every
identity the library claims.
"""

from __future__ import annotations

from .errors import (
    CircleError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ParityError,
    RangeOverflowError,
    SingularityError,
    TruncationError,
    WindowError,
)
from .theta import (
    DEFAULT_CONTROL,
    SeriesControl,
    ThetaArg,
    gaussian_lattice_sum,
    modular_image_theta2,
    modular_image_theta3,
    theta,
    theta2_via_half_period_shift,
    theta_log_derivative,
)
from .hilbert import (
    N_CONST,
    OPERATOR_KINDS,
    Sector,
    StateVector,
    Truncation,
    apply_exp_j,
    apply_operator,
    apply_time_reversal,
    basis_state,
    inner,
    make_state,
    operator_matrix,
    state_from_json,
    state_to_json,
)
from .coherent import (
    FreeRotor,
    J_DEVIATION_AMPLITUDE,
    Linear,
    PhasePoint,
    approx_expect_J,
    approx_expect_U,
    approx_expJ,
    coherent_state,
    energy_distribution,
    evolve,
    expect_expJ,
    expect_J,
    expect_U,
    gaussian_energy_profile,
    heisenberg_approximation,
    heisenberg_expectations,
    norm_sq,
    overlap_closed,
    relative_expect_U,
    required_two_jmax,
    uncertainty_QP,
)
from .bargmann import (
    Quadrature,
    covariant_symbol,
    evaluate,
    inner_quadrature,
    kernel_identity_check,
    reproducing_apply,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CircleError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "ParityError",
    "RangeOverflowError",
    "SingularityError",
    "TruncationError",
    "WindowError",
    # theta
    "DEFAULT_CONTROL",
    "SeriesControl",
    "ThetaArg",
    "gaussian_lattice_sum",
    "modular_image_theta2",
    "modular_image_theta3",
    "theta",
    "theta2_via_half_period_shift",
    "theta_log_derivative",
    # hilbert
    "N_CONST",
    "OPERATOR_KINDS",
    "Sector",
    "StateVector",
    "Truncation",
    "apply_exp_j",
    "apply_operator",
    "apply_time_reversal",
    "basis_state",
    "inner",
    "make_state",
    "operator_matrix",
    "state_from_json",
    "state_to_json",
    # coherent
    "FreeRotor",
    "J_DEVIATION_AMPLITUDE",
    "Linear",
    "PhasePoint",
    "approx_expect_J",
    "approx_expect_U",
    "approx_expJ",
    "coherent_state",
    "energy_distribution",
    "evolve",
    "expect_expJ",
    "expect_J",
    "expect_U",
    "gaussian_energy_profile",
    "heisenberg_approximation",
    "heisenberg_expectations",
    "norm_sq",
    "overlap_closed",
    "relative_expect_U",
    "required_two_jmax",
    "uncertainty_QP",
    # bargmann
    "Quadrature",
    "covariant_symbol",
    "evaluate",
    "inner_quadrature",
    "kernel_identity_check",
    "reproducing_apply",
]
