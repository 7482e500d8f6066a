"""Lattice theta engine: values, transformation laws, failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from circle_cs.errors import (
    ConvergenceError,
    DomainError,
    RangeOverflowError,
    SingularityError,
)
from circle_cs.theta import (
    SeriesControl,
    ThetaArg,
    gaussian_lattice_sum,
    modular_image_theta2,
    modular_image_theta3,
    theta,
    theta2_via_half_period_shift,
    theta_log_derivative,
)

I_PI = 1j * math.pi
I_OVER_PI = 1j / math.pi


def test_theta3_narrow_lattice_value():
    # sum over exp(-pi^2 n^2) = 1 + 2 exp(-pi^2) + ...
    val = theta(3, ThetaArg(0.0, I_PI))
    assert val.imag == 0.0
    assert val.real == pytest.approx(1.0001034463724077, rel=1e-15)


def test_theta3_wide_lattice_value():
    val = theta(3, ThetaArg(0.0, I_OVER_PI))
    assert val.real == pytest.approx(1.772637204826652, rel=1e-15)


def test_theta2_wide_lattice_value():
    val = theta(2, ThetaArg(0.0, I_OVER_PI))
    assert val.real == pytest.approx(1.7722704969843799, rel=1e-15)


def test_theta4_is_theta3_shifted_by_half():
    a = theta(4, ThetaArg(0.3, I_PI))
    b = theta(3, ThetaArg(0.8, I_PI))
    assert abs(a - b) <= 1e-15 * abs(a)


def test_theta2_half_period_shift_identity():
    for v in (0.0, 0.17, 0.4 - 0.2j, -0.8 + 0.3j):
        direct = theta(2, ThetaArg(v, I_PI))
        shifted = theta2_via_half_period_shift(v, I_PI)
        assert abs(direct - shifted) <= 1e-13 * abs(direct)


def test_modular_inversion_theta3():
    # tau -> -1/tau maps the wide lattice onto the narrow one
    for l in (-1.5, -0.25, 0.0, 0.6, 2.0):
        lhs = theta(3, ThetaArg(1j * l / math.pi, I_OVER_PI))
        rhs = modular_image_theta3(l, I_PI)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_modular_inversion_theta2_picks_up_theta4():
    for l in (-1.0, 0.3, 1.7):
        lhs = theta(2, ThetaArg(1j * l / math.pi, I_OVER_PI))
        rhs = modular_image_theta2(l, I_PI)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_gaussian_lattice_matches_theta3():
    # sum exp(w m - m^2) is the wide-lattice theta at v = -i w / (2 pi)
    for w in (0.0, 0.7, -1.2 + 0.5j, 2.0 + 3.0j):
        direct = complex(gaussian_lattice_sum(w))
        via_theta = theta(3, ThetaArg(w / (2j * math.pi), I_OVER_PI))
        assert abs(direct - via_theta) <= 1e-14 * abs(direct)


def test_gaussian_lattice_half_matches_theta2():
    for w in (0.0, 1.1, -0.4 + 1.3j):
        direct = complex(gaussian_lattice_sum(w, half=True))
        via_theta = theta(2, ThetaArg(w / (2j * math.pi), I_OVER_PI))
        assert abs(direct - via_theta) <= 1e-14 * abs(direct)


def test_gaussian_lattice_even_bitwise():
    for w in (0.9, -2.3 + 1.1j, 4.0 - 0.7j):
        for half in (False, True):
            assert complex(gaussian_lattice_sum(w, half=half)) == complex(
                gaussian_lattice_sum(-w, half=half)
            )


def test_gaussian_lattice_real_input_exactly_real():
    for w in (-3.0, 0.0, 0.4, 2.5):
        val = complex(gaussian_lattice_sum(w))
        assert val.imag == 0.0
        val = complex(gaussian_lattice_sum(w, half=True))
        assert val.imag == 0.0


def test_gaussian_lattice_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    w = rng.normal(size=7) + 1j * rng.normal(size=7)
    batch = gaussian_lattice_sum(w)
    assert batch.shape == (7,)
    for i in range(7):
        assert batch[i] == complex(gaussian_lattice_sum(w[i]))


def test_log_derivative_wide_lattice_leading_term():
    # exact value at v = 1/4 on the narrow lattice is -4 pi exp(-pi^2)
    # up to corrections of order exp(-4 pi^2), below double precision
    val = theta_log_derivative(3, ThetaArg(0.25, I_PI))
    assert val.imag == pytest.approx(0.0, abs=1e-16)
    assert val.real == pytest.approx(-4.0 * math.pi * math.exp(-math.pi**2), rel=1e-10)


def test_log_derivative_theta4_mirror():
    a = theta_log_derivative(3, ThetaArg(0.25, I_PI))
    b = theta_log_derivative(4, ThetaArg(0.25, I_PI))
    assert b == pytest.approx(-a, rel=1e-12)


def test_log_derivative_finite_difference():
    h = 1e-6
    for kind in (3, 4):
        for v in (-0.3, 0.1, 0.45):
            analytic = theta_log_derivative(kind, ThetaArg(v, I_OVER_PI))
            up = theta(kind, ThetaArg(v + h, I_OVER_PI))
            down = theta(kind, ThetaArg(v - h, I_OVER_PI))
            mid = theta(kind, ThetaArg(v, I_OVER_PI))
            fd = (up - down) / (2.0 * h * mid)
            assert abs(analytic - fd) < 1e-8


def test_log_derivative_rejects_zero_neighborhood():
    # theta3 vanishes at v = 1/2 + tau/2
    with pytest.raises(SingularityError):
        theta_log_derivative(3, ThetaArg(0.5 + 0.5j * math.pi, I_PI))


def test_log_derivative_supported_kinds_only():
    with pytest.raises(DomainError):
        theta_log_derivative(2, ThetaArg(0.1, I_PI))


def test_theta_rejects_bad_kind():
    with pytest.raises(DomainError):
        theta(5, ThetaArg(0.0, I_PI))


def test_theta_rejects_nonpositive_im_tau():
    with pytest.raises(DomainError):
        ThetaArg(0.0, 1.0 + 0.0j)
    with pytest.raises(DomainError):
        ThetaArg(0.0, 0.3 - 2.0j)


def test_theta_rejects_nonfinite_argument():
    with pytest.raises(DomainError):
        ThetaArg(float("nan"), I_PI)
    with pytest.raises(DomainError):
        ThetaArg(complex(0.0, float("inf")), I_PI)


def test_peak_overflow_raises():
    # drift^2 / (4 decay) beyond exp range must refuse, not return inf
    with pytest.raises(RangeOverflowError):
        theta(3, ThetaArg(30.0j, I_OVER_PI))
    with pytest.raises(RangeOverflowError):
        gaussian_lattice_sum(1700.0)


def test_truncation_budget_exhaustion_raises():
    ctl = SeriesControl(tol=1e-14, n_max=3)
    with pytest.raises(ConvergenceError):
        gaussian_lattice_sum(12.0, ctl=ctl)


def test_series_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(tol=0.0)
    with pytest.raises(DomainError):
        SeriesControl(tol=1e-14, n_max=0)


def test_tight_tolerance_still_converges():
    loose = complex(gaussian_lattice_sum(3.0))
    tight = complex(gaussian_lattice_sum(3.0, ctl=SeriesControl(tol=1e-30, n_max=100)))
    assert abs(loose - tight) <= 1e-14 * abs(tight)


# ---------------------------------------------------------------- arrays


def _within_ulps(batch, scalars, ulps=2.0):
    """Every element within `ulps` units in the last place of its scalar value's modulus."""
    batch, scalars = np.asarray(batch), np.asarray(scalars)
    return bool(np.all(np.abs(batch - scalars) <= ulps * np.spacing(np.abs(scalars))))


LOG_DERIVATIVE_GRIDS = {
    # the v = l grids of expect_J: scan narrow and wide, the verify deviation grid
    "scan-narrow": np.linspace(-2.0, 2.0, 101),
    "scan-wide": np.linspace(-20.0, 20.0, 101),
    "verify-deviation": np.linspace(0.0, 1.0, 101),
    # the theta-logderiv-fd grid
    "verify-fd": np.linspace(-0.45, 0.45, 19),
}


@pytest.mark.parametrize("grid", sorted(LOG_DERIVATIVE_GRIDS))
@pytest.mark.parametrize("tau", [I_PI, I_OVER_PI], ids=["i*pi", "i/pi"])
@pytest.mark.parametrize("kind", [3, 4])
def test_log_derivative_array_matches_scalar_calls(kind, tau, grid):
    v = LOG_DERIVATIVE_GRIDS[grid]
    batch = theta_log_derivative(kind, ThetaArg(v, tau))
    assert isinstance(batch, np.ndarray) and batch.shape == v.shape
    scalars = np.array([theta_log_derivative(kind, ThetaArg(x, tau)) for x in v.ravel()])
    assert _within_ulps(batch, scalars.reshape(v.shape))


@pytest.mark.parametrize("tau", [I_PI, I_OVER_PI], ids=["i*pi", "i/pi"])
def test_log_derivative_complex_array_within_series_tolerance(tau):
    # off the real line |x| varies, and the batch runs until the element
    # with the largest |x| converges: it may keep terms a scalar call drops
    v = np.linspace(-0.4, 0.4, 9)[:, None] + 1j * np.linspace(-0.2, 0.2, 5)
    batch = theta_log_derivative(3, ThetaArg(v, tau))
    scalars = np.array([theta_log_derivative(3, ThetaArg(x, tau)) for x in v.ravel()])
    assert np.max(np.abs(batch - scalars.reshape(v.shape))) <= 1e-13


def test_theta_array_matches_scalar_calls():
    v = np.linspace(-1.0, 1.0, 21) + 0.3j
    batch = theta(3, ThetaArg(v, I_PI))
    assert _within_ulps(batch, [theta(3, ThetaArg(x, I_PI)) for x in v])


def test_scalar_calls_return_python_numbers():
    assert type(theta_log_derivative(3, ThetaArg(0.2, I_PI))) is complex
    assert type(theta(3, ThetaArg(0.2, I_PI))) is complex
    assert type(ThetaArg(0.2, I_PI).v) is complex


def test_log_derivative_empty_and_single_element_grids():
    empty = theta_log_derivative(3, ThetaArg(np.array([]), I_PI))
    assert empty.shape == (0,)
    single = theta_log_derivative(4, ThetaArg(np.array([0.3]), I_PI))
    assert single.shape == (1,)
    assert single[0] == theta_log_derivative(4, ThetaArg(0.3, I_PI))


def test_log_derivative_array_with_one_singular_element():
    v = np.array([0.1, 0.5 + 0.5j * math.pi, 0.2])
    with pytest.raises(SingularityError, match="1.5707963267948966"):
        theta_log_derivative(3, ThetaArg(v, I_PI))


def test_one_non_finite_element_is_domain_error():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ThetaArg(np.array([0.1, bad, 0.3]), I_PI)
        with pytest.raises(DomainError):
            gaussian_lattice_sum(np.array([0.1j, complex(0.0, bad), 0.3j]))
    with pytest.raises(DomainError):
        gaussian_lattice_sum(np.array([0.1, math.nan]))
    # an infinite real part is still an overflow
    with pytest.raises(RangeOverflowError):
        gaussian_lattice_sum(np.array([0.1, math.inf]))
    # 2*pi*v overflows: a typed error, not a NaN value
    with pytest.raises(DomainError, match="overflowed"):
        theta(3, ThetaArg(1e308, I_PI))
