"""Lattice theta engine: values, transformation laws, failure modes."""

from __future__ import annotations

import cmath
import importlib
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from circle_cs._reference import _unpaired_lattice_sum
from circle_cs.bargmann import Quadrature
from circle_cs.errors import (
    ConvergenceError,
    DomainError,
    RangeOverflowError,
    SingularityError,
)
from circle_cs.hilbert import Truncation
from circle_cs.theta import (
    ThetaArg,
    _recentre,
    gaussian_lattice_sum,
    theta,
    theta_log_derivative,
)

I_PI = 1j * math.pi
I_OVER_PI = 1j / math.pi
EPS = np.finfo(float).eps
# the package binds the name `theta` to the function of that name
theta_module = importlib.import_module("circle_cs.theta")


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


@pytest.mark.parametrize(
    "v", [0.0, 0.1, np.array([0.3, 0.1]), 0.1 + 0.3j, 0.1 + 0.4j, np.array([0.1, 0.1 + 0.3j])]
)
def test_log_derivative_where_the_terms_cancel_to_rounding(v):
    # theta_4(0.1 | 0.01i) is about 1e-21 while its terms sum to about 10 in
    # modulus; at v = 0.1 + 0.3i theta_4 is about 1e-9, its terms sum to about 2e13
    with pytest.raises(SingularityError, match="within 1e-10 of a zero"):
        theta_log_derivative(4, ThetaArg(v, 0.01j))


def test_log_derivative_supported_kinds_only():
    with pytest.raises(DomainError):
        theta_log_derivative(2, ThetaArg(0.1, I_PI))


def test_theta_rejects_bad_kind():
    with pytest.raises(DomainError):
        theta(5, ThetaArg(0.0, I_PI))


@pytest.mark.parametrize("kind", [np.array([3, 4]), np.array([3]), np.array(3)], ids=repr)
@pytest.mark.parametrize(
    "call, message",
    [
        (theta, r"^theta kind must be 2, 3 or 4, got array\("),
        (theta_log_derivative, r"^log-derivative is provided for kinds 3 and 4, got array\("),
    ],
    ids=["theta", "theta_log_derivative"],
)
def test_an_array_kind_is_a_typed_refusal(call, message, kind):
    # == on an array gives an array, which numpy refuses to take as one truth value
    with pytest.raises(DomainError, match=message):
        call(kind, ThetaArg(0.1, I_PI))


@pytest.mark.parametrize("half", [2, 0, 1.0, "no", -1e308, None, np.array(True), [True]], ids=repr)
def test_gaussian_lattice_sum_half_is_a_bool(half):
    with pytest.raises(DomainError, match=r"^half must be True or False, got "):
        gaussian_lattice_sum(0.3, half=half)
    for flag in (False, True):
        assert complex(gaussian_lattice_sum(0.3, half=np.bool_(flag))) == complex(
            gaussian_lattice_sum(0.3, half=flag)
        )


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


@pytest.mark.parametrize("v, tau, what", [
    (10**400, I_PI, "argument v"), ([0.1, -10**400], I_PI, "argument v"),
    (0.1, 10**400, "modulus tau"),
    ("0.1", I_PI, "argument v"), (None, I_PI, "argument v"), (["0.1"], I_PI, "argument v"),
    (object(), I_PI, "argument v"), (0.1, "1j", "modulus tau"), (0.1, None, "modulus tau"),
    (0.1, [1j], "modulus tau"), (0.1, np.array([1j, 2j]), "modulus tau"),
], ids=["v", "v-list", "tau", "v-str", "v-none", "v-str-list", "v-object", "tau-str",
        "tau-none", "tau-list", "tau-array"])
def test_theta_rejects_ints_past_the_double_range(v, tau, what):
    # and anything else that is not a number; tau is one number, v may be an array
    with pytest.raises(DomainError, match=f"theta {what} must be finite"):
        ThetaArg(v, tau)


@pytest.mark.parametrize("v", [
    0.3, -0.0, 5e-324, -5e-324, 1e308, -1e308, complex(-0.0, -0.0), complex(1e308, -5e-324),
    3, -7, True, 2**60 + 1, np.float32(0.1), np.float16(-0.5), np.int64(-3), np.uint8(200),
    np.longdouble(0.1), np.complex64(0.1 - 0.2j), np.clongdouble(0.1 + 0.3j),
], ids=repr)
def test_scalar_argument_stores_the_bits_of_the_array_route(v):
    scalar, array = ThetaArg(v, I_PI).v, ThetaArg(np.asarray(v), I_PI).v
    assert type(scalar) is complex and type(array) is complex
    assert np.asarray(scalar).tobytes() == np.asarray(array).tobytes()
    # a 0-d tau is one number, stored as a Python complex like tau itself
    tau = ThetaArg(v, np.asarray(I_PI)).tau
    assert type(tau) is complex and tau == I_PI


def test_peak_overflow_raises():
    # drift^2 / (4 decay) beyond exp range must refuse, not return inf
    with pytest.raises(RangeOverflowError):
        theta(3, ThetaArg(30.0j, I_OVER_PI))
    with pytest.raises(RangeOverflowError):
        gaussian_lattice_sum(1700.0)


def test_truncation_budget_exhaustion_raises():
    # theta_3(0 | 1e-4 i) needs about 321 term pairs
    arg = ThetaArg(0.0, 1e-4j)
    for function in (theta, theta_log_derivative):
        with pytest.raises(ConvergenceError, match="past the cap 200$"):
            function(3, arg)


def test_series_pair_cap_is_the_block_size():
    # a block of _lattice_sum always holds a point
    assert theta_module._MAX_PAIRS <= theta_module._BLOCK_TERMS


# each integer a type holds, and how to read it back
INTEGER_FIELDS = {
    "two_jmax": lambda n: Truncation(n).two_jmax,
    "n_l": lambda n: Quadrature(n, 64).n_l,
    "n_phi": lambda n: Quadrature(40, n).n_phi,
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_take_numpy_integers_and_refuse_the_rest(field):
    build = INTEGER_FIELDS[field]
    for accepted in (40, np.int64(40), np.uint16(40)):
        stored = build(accepted)
        assert type(stored) is int and stored == 40
    message = rf"^{field} must be an (even )?integer in \[\d+, \d+\], got "
    for refused in (40.0, True, "40", 200.5, None, np.float64(40), np.bool_(True)):
        with pytest.raises(DomainError, match=message):
            build(refused)


def test_a_numpy_window_equals_the_python_one():
    assert Truncation(np.int64(40)) == Truncation(40)
    assert hash(Truncation(np.int64(40))) == hash(Truncation(40))


def test_tight_tolerance_still_converges():
    # the direct series at 30 digits: |n| <= 60 leaves out terms below e^-560
    v, tau = 0.3 + 0.01j, 0.05j
    with mp.workdps(30):
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        want = complex(mp.fsum(
            q ** (n * n) * mp.exp(2j * mp.pi * mp.mpc(v) * n) for n in range(-60, 61)
        ))
    assert abs(theta(3, ThetaArg(v, tau)) - want) <= 1e-14 * abs(want)


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
    # one lattice-sum pass for the batch and for each scalar call, off the real line too
    v = np.linspace(-0.4, 0.4, 9)[:, None] + 1j * np.linspace(-0.2, 0.2, 5)
    batch = theta_log_derivative(3, ThetaArg(v, tau))
    scalars = np.array([theta_log_derivative(3, ThetaArg(x, tau)) for x in v.ravel()])
    assert _within_ulps(batch, scalars.reshape(v.shape))


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
    # the number gate refuses a NaN or infinite w, and a string
    for bad in (np.array([0.1, math.nan]), np.array([0.1, math.inf]), "1"):
        with pytest.raises(DomainError, match="^lattice-sum argument w must be finite"):
            gaussian_lattice_sum(bad)
    # a finite w whose multiples m * Im w would overflow
    for bad in (1e308j, np.array([0.3, 5.0 - 1.1e300j])):
        with pytest.raises(DomainError, match="imaginary part past 1e300"):
            gaussian_lattice_sum(bad)
    assert np.isfinite(gaussian_lattice_sum(3.0 + 1e300j))
    # 2*pi*v would overflow, but v is an even integer, which the reduction takes off exactly
    assert theta(3, ThetaArg(1e308, I_PI)) == theta(3, ThetaArg(0.0, I_PI))


# ------------------------------------------------------ re-centred sums


@pytest.mark.parametrize("half", [False, True])
def test_centred_sum_reproduces_the_raw_sum(half):
    w = np.array([-20.3, -7.0, -1.2 + 0.4j, 0.0, 0.9, 3.5 - 2.0j, 11.0, 25.0 + 1.0j])
    c, r = _recentre(w)
    assert np.array_equal(c, np.round(w.real / 2.0))
    assert np.array_equal(r, w - 2.0 * c) and np.all(np.abs(r.real) <= 1.0)
    rebuilt = np.exp(c * w - c * c) * gaussian_lattice_sum(r, half=half)
    # the direct sum at the unreduced w, which the library no longer takes
    raw = theta_module._lattice_sum(-1.0 + 0.0j, w, half, False)
    assert np.all(np.abs(rebuilt - raw) <= 1e-13 * np.abs(raw))
    assert np.all(np.abs(gaussian_lattice_sum(w, half=half) - raw) <= 1e-13 * np.abs(raw))


def test_centred_sum_is_plain_sum_near_the_origin():
    w = np.linspace(-0.9, 0.9, 7)
    c, r = _recentre(w)
    assert not c.any() and np.array_equal(r, w)
    raw = theta_module._lattice_sum(-1.0 + 0.0j, w, True, False)
    assert np.array_equal(gaussian_lattice_sum(w, half=True), raw)
    c, r = _recentre(0.3)
    assert type(c) is float and r == 0.3
    assert type(gaussian_lattice_sum(0.3)) is complex


def test_centred_sum_takes_the_same_pairs_far_out():
    # the raw sum would overflow here; the reduced one is of order one
    c, r = _recentre(np.array([2e4 + 0.5, -3e6]))
    assert np.array_equal(c, [1e4, -1.5e6])
    assert np.array_equal(r, [0.5, 0.0])
    # theta takes v's even part off the same way and exactly (2^52 + 0.25 is not a double)
    for k in (20, 40, 50):
        for tau in (1j, I_PI, 0.3 + 0.8j):
            for kind in (2, 3, 4):
                assert theta(kind, ThetaArg(2.0**k + 0.25, tau)) == theta(kind, ThetaArg(0.25, tau))
        for kind in (3, 4):
            far, near = (2.0**k + 0.25, 0.25)
            assert theta_log_derivative(kind, ThetaArg(far, I_PI)) == theta_log_derivative(
                kind, ThetaArg(near, I_PI)
            )
    # and k tau to rounding: theta(v + k tau) = e^(-i pi k^2 tau - 2 pi i k v) theta(v),
    # times (-1)^k for theta_4
    v = 0.3 + 0.1j
    for tau in (I_OVER_PI, I_PI, 0.3 + 0.8j):
        for k in (-2, 1, 3):
            exponent = -1j * math.pi * k * (k * tau + 2.0 * v)
            for kind in (2, 3, 4):
                shifted = theta(kind, ThetaArg(v + k * tau, tau))
                sign = (-1) ** k if kind == 4 else 1
                expected = sign * cmath.exp(exponent) * theta(kind, ThetaArg(v, tau))
                assert abs(shifted - expected) <= 1e-14 * (1.0 + abs(exponent)) * abs(expected)
            assert theta_log_derivative(3, ThetaArg(v + k * tau, tau)) == pytest.approx(
                theta_log_derivative(3, ThetaArg(v, tau)) - 2j * math.pi * k, rel=1e-14, abs=1e-14
            )


@pytest.mark.parametrize("k", [1, 20, 40, 52])
def test_theta_has_period_two_in_tau_bit_for_bit(k):
    # tau = i + 2^k is reduced by c = 2^(k-1) periods of 2 exactly: theta_3,
    # theta_4 and both log-derivatives keep their bits, theta_2 gains i^c
    rng = np.random.default_rng(k)
    v = rng.uniform(-3.0, 3.0, 301) + 1j * rng.uniform(-1.0, 1.0, 301)
    far, near = ThetaArg(v, 1j + 2.0**k), ThetaArg(v, 1j)
    turn = (1, 1j, -1, -1j)[2 ** (k - 1) % 4]
    assert np.array_equal(theta(2, far), theta(2, near) * turn)
    for kind in (3, 4):
        assert np.array_equal(theta(kind, far), theta(kind, near))
        assert np.array_equal(theta_log_derivative(kind, far), theta_log_derivative(kind, near))


def test_log_derivative_at_the_top_of_the_double_range():
    # k = 2, where Im v - Im r would overflow; at r only the m = 0 term survives
    for kind in (3, 4):
        for sign in (1.0, -1.0):
            value = theta_log_derivative(kind, ThetaArg(sign * 1.79e308j, 1e308j))
            assert value == -sign * 4j * math.pi


# Each v below is an even integer, so every value is the one at r = 0: real and
# imaginary part as float.hex, or the message of the refusal (formatted with v)
HUGE_REAL_V = {
    (theta, 2, I_PI): ("0x1.5b5c75846aafbp-3", "0x0.0p+0"),
    (theta, 3, I_PI): ("0x1.0006c78ac9504p+0", "0x0.0p+0"),
    (theta, 4, I_PI): ("0x1.fff270ea6d5f9p-1", "0x0.0p+0"),
    (theta_log_derivative, 3, I_PI): ("0x0.0p+0", "0x0.0p+0"),
    (theta_log_derivative, 4, I_PI): ("0x0.0p+0", "0x0.0p+0"),
    (theta, 2, 3 + 1e-3j): ("-0x1.65c55827df246p+4", "0x1.65c55827df155p+4"),
    (theta, 3, 3 + 1e-3j): ("0x1.6000000000000p-48", "-0x1.84e043b3372ddp-44"),
    (theta, 4, 3 + 1e-3j): ("0x1.f9f6e4990f225p+4", "0x1.a63c1af690fc6p-41"),
    (theta_log_derivative, 3, 3 + 1e-3j): "theta_3({v!r} | (3+0.001j)) is within 1e-10 of a zero",
    (theta_log_derivative, 4, 3 + 1e-3j): ("0x0.0p+0", "0x0.0p+0"),
    (theta, 2, 2e306j): ("0x0.0p+0", "0x0.0p+0"),
    (theta, 3, 2e306j): ("0x1.0000000000000p+0", "0x0.0p+0"),
    (theta, 4, 2e306j): ("0x1.0000000000000p+0", "0x0.0p+0"),
    (theta_log_derivative, 3, 2e306j): ("0x0.0p+0", "0x0.0p+0"),
    (theta_log_derivative, 4, 2e306j): ("0x0.0p+0", "0x0.0p+0"),
}


@pytest.mark.parametrize("v", [1.7e308, -1.7e308, 1e300, -1e300])
def test_a_huge_real_v_reduces_without_a_warning(v):
    # a real v takes _reduce's route without np.errstate: nothing may overflow there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (f, kind, tau), expected in HUGE_REAL_V.items():
            if isinstance(expected, str):
                with pytest.raises(SingularityError) as caught:
                    f(kind, ThetaArg(v, tau))
                assert str(caught.value) == expected.format(v=complex(v))
            else:
                value = f(kind, ThetaArg(v, tau))
                assert (value.real.hex(), value.imag.hex()) == expected, (f, kind, tau)


def test_overflow_past_im_tau_1e306_reports_the_true_exponent():
    # _reduce sums there at 1/64 of every exponent; the figure is 64 times the
    # computed one, 25 pi Im tau here, or, past the double range, marked as scaled
    for kind in (3, 4):
        with pytest.raises(RangeOverflowError) as caught:
            theta(kind, ThetaArg(1e307j, 2e306j))
        assert str(caught.value) == f"theta_{kind} = exp(1.57e+308) exceeds the floating-point range"
        with pytest.raises(RangeOverflowError) as caught:
            theta(kind, ThetaArg(1.79e308j, 1e308j))
        assert str(caught.value) == (
            f"theta_{kind} = exp(1.55e+307) exceeds the floating-point range;"
            " the exponent shown is 1/64 of the true one"
        )


def test_log_derivative_makes_one_lattice_sum_pass(monkeypatch):
    # the sum, its moment and the moduli of its terms all come from one pass
    calls = []

    def counted(name, function):
        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return call

    for name in ("_lattice_sum", "theta"):
        monkeypatch.setattr(theta_module, name, counted(name, getattr(theta_module, name)))
    points = (0.3, 0.3 + 0.2j, np.array([0.1, 0.3]), np.array([0.1, 0.3 + 0.2j]))
    for kind in (3, 4):
        for v in points:
            calls.clear()
            theta_log_derivative(kind, ThetaArg(v, I_PI))
            assert calls == ["_lattice_sum"], (kind, v)
    # a grid of real v keeps its scalar calls' bits
    first = theta_log_derivative(4, ThetaArg(np.array([0.1, 0.3]), I_PI))
    again = theta_log_derivative(4, ThetaArg(0.3, I_PI))
    assert again == first[1]


@pytest.mark.parametrize("tau", [I_PI, I_OVER_PI, 0.3 + 0.8j], ids=["i*pi", "i/pi", "0.3+0.8i"])
def test_log_derivative_moduli_match_the_unpaired_sum(tau):
    # the in-pass sum of |t_m|, against every term of the lattice by one exp
    rng = np.random.default_rng(5)
    grid = np.linspace(-3.0, 3.0, 101)
    for v in (0.3, -1.7, 0.3 + 0.2j, 2.5 - 1.1j, grid, grid + 0.4j * rng.standard_normal(101)):
        for kind in (3, 4):
            _, _, curv, lin, _ = theta_module._reduce(ThetaArg(v, tau))
            got = theta_module._lattice_sum(curv, lin, False, kind == 4, moment=True)[2]
            want = _unpaired_lattice_sum(curv.real, lin.real, False).real
            assert np.shape(got) == np.shape(v)
            assert np.all(np.abs(got - want) <= 4.0 * EPS * want), (kind, v)


# ------------------------------------------------------ the broadcast kernel


def _pair_loop(curv, lin, half, alternating, pairs):
    """The lattice sum as one numpy pass per term pair, largest |m| first (the reference)."""
    lin_arr = np.asarray(lin, dtype=np.complex128)
    acc = np.zeros_like(lin_arr)
    for k in range(pairs, 0, -1):
        m = (k - 0.5) if half else float(k)
        sign = -1.0 if (alternating and not half and k % 2 == 1) else 1.0
        base = curv * (m * m)
        pair = np.exp(base + lin_arr * m) + np.exp(base - lin_arr * m)
        acc = acc + sign * pair
    if not half:
        acc = acc + 1.0
    return complex(acc) if acc.ndim == 0 else acc


def _same_bits(got, want):
    return (
        type(got) is type(want)
        and np.shape(got) == np.shape(want)
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    )


def _kernel_case(rng, shape):
    curv = complex(-rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0)) if rng.integers(2) else -1.0 + 0j
    lin = rng.choice([0.1, 1.0, 5.0]) * rng.standard_normal(shape)
    if rng.integers(2):
        lin = lin + 1j * rng.standard_normal(shape)
    # a 0-d lin is handed over as a Python number, as theta hands a scalar v
    return curv, (complex(lin) if shape == () else lin), bool(rng.integers(2)), bool(rng.integers(2))


def _pairs_of(curv, lin, half):
    return theta_module._pair_count(
        -curv.real, float(np.abs(np.asarray(lin).real).max(initial=0.0)), half
    )


@pytest.mark.parametrize("seed, shape", enumerate([(), (0,), (1,), (101,), (7, 3)]))
def test_kernel_matches_the_pair_loop_bitwise(seed, shape, monkeypatch):
    rng = np.random.default_rng(seed)
    # a raised cap, and a tolerance drawn per case, spread the pair counts
    monkeypatch.setattr(theta_module, "_MAX_PAIRS", 1000)
    for _ in range(160):
        curv, lin, half, alternating = _kernel_case(rng, shape)
        monkeypatch.setattr(theta_module, "_SERIES_TOL", float(10.0 ** -rng.uniform(3.0, 15.0)))
        try:
            pairs = _pairs_of(curv, lin, half)
        except RangeOverflowError:
            continue
        got = theta_module._lattice_sum(curv, lin, half, alternating)
        assert _same_bits(got, _pair_loop(curv, lin, half, alternating, pairs))


def test_kernel_matches_the_pair_loop_across_blocks():
    # 7 pairs a point: 9362 points a block, so three blocks, the last one short
    rng = np.random.default_rng(11)
    lin = 1.5 * rng.standard_normal(20_000) + 0.5j * rng.standard_normal(20_000)
    for half in (False, True):
        pairs = _pairs_of(-1.0 + 0j, lin, half)
        assert pairs * lin.size > 2 * theta_module._BLOCK_TERMS
        got = theta_module._lattice_sum(-1.0 + 0j, lin, half, False)
        assert _same_bits(got, _pair_loop(-1.0 + 0j, lin, half, False, pairs))


def test_a_pair_count_is_at_least_one_or_a_refusal():
    # _lattice_sum divides its block budget by the count, with no guard
    for decay in np.geomspace(5e-324, 1.7e308, 61).tolist():
        for drift in [0.0, *np.geomspace(1e-300, 1e300, 31).tolist()]:
            for half in (False, True):
                try:
                    assert theta_module._pair_count(decay, drift, half) >= 1
                except (RangeOverflowError, ConvergenceError):
                    pass


@pytest.mark.parametrize("pairs", range(1, 33))
def test_kernel_matches_the_pair_loop_at_every_pair_count(pairs, monkeypatch):
    rng = np.random.default_rng(pairs)
    monkeypatch.setattr(theta_module, "_pair_count", lambda *args: pairs)
    # a block of 3 points at most, so the 7 points take several blocks
    monkeypatch.setattr(theta_module, "_BLOCK_TERMS", 3 * pairs)
    curv = complex(-0.02, 0.7)
    for half, alternating in ((False, False), (False, True), (True, False)):
        lin = 0.3 * rng.standard_normal(7) + 0.3j * rng.standard_normal(7)
        got = theta_module._lattice_sum(curv, lin, half, alternating)
        assert _same_bits(got, _pair_loop(curv, lin, half, alternating, pairs))


def _two_exp_kernel(curv, lin, half, alternating, moment):
    """The kernel as it was before the stacked buffer, on every point at once (the reference).

    Two exps (the + and the - terms), sign multiplied on every lattice,
    a zero start row and a sequential np.add.accumulate over the pairs.
    """
    lin_arr = np.asarray(lin, dtype=np.complex128)
    drift = float(np.abs(lin_arr.real).max(initial=0.0))
    pairs = theta_module._pair_count(-complex(curv).real, drift, half)
    k = np.arange(pairs, 0, -1, dtype=np.float64)
    index = k - 0.5 if half else k
    odd = (k % 2.0 == 1.0) & (alternating and not half)
    m, m_sq, sign = (
        column.astype(np.complex128)[:, None]
        for column in (index, index * index, np.where(odd, -1.0, 1.0))
    )
    flat = lin_arr.reshape(-1)
    step = m * flat
    base = np.multiply(curv, m_sq)
    terms = np.zeros((pairs + 1, flat.size), dtype=np.complex128)
    terms[1:] = np.exp(base + step)
    minus = np.exp(base - step)
    moments = np.zeros_like(terms)
    moments[1:] = (terms[1:] - minus) * (m * sign)
    moduli = np.abs(terms)
    moduli[1:] += np.abs(minus)
    terms[1:] = (terms[1:] + minus) * sign
    value = np.add.accumulate(terms, axis=0)[-1]
    if not half:
        value += 1.0
    value = value.reshape(lin_arr.shape)
    if not moment:
        return value
    moment_sum = np.add.accumulate(moments, axis=0)[-1].reshape(lin_arr.shape)
    moduli_sum = np.add.accumulate(moduli, axis=0)[-1].reshape(lin_arr.shape) + (not half)
    return value, moment_sum, moduli_sum


@pytest.mark.parametrize("moment", [False, True], ids=["value", "moment"])
@pytest.mark.parametrize(
    "half, alternating", [(False, False), (False, True), (True, False), (True, True)]
)
@pytest.mark.parametrize("tau", [I_OVER_PI, I_PI, 0.3 + 0.8j], ids=["i/pi", "i*pi", "0.3+0.8i"])
def test_stacked_kernel_has_the_two_exp_kernels_bits(tau, half, alternating, moment):
    rng = np.random.default_rng(17)
    curv = 1j * math.pi * tau
    # the fewest pairs any lin below takes, so the largest grid spans two blocks for each
    fewest = theta_module._pair_count(-curv.real, 0.0, half)
    # real, imaginary (theta at real v) and complex lin, from one point to past one block
    for size in (1, 101, theta_module._BLOCK_TERMS // fewest + 5):
        re, im = rng.uniform(-1.0, 1.0, size), rng.uniform(-3.0, 3.0, size)
        for lin in (re, 1j * im, re + 1j * im):
            got = theta_module._lattice_sum(curv, lin, half, alternating, moment)
            want = _two_exp_kernel(curv, lin, half, alternating, moment)
            for part, reference in zip(got, want) if moment else [(got, want)]:
                assert np.array_equal(part, reference), (size, lin.dtype)
                assert part.tobytes() == reference.tobytes(), (size, lin.dtype)


def test_block_sums_add_row_after_row():
    # _sum_rows takes np.add.reduce for the order of np.add.accumulate: a
    # property of numpy's loops, not of its documented API, pinned here on
    # the (pairs + 1, points) blocks _lattice_sum forms, complex and float
    rng = np.random.default_rng(36)
    most = theta_module._MAX_PAIRS
    shapes = [(pairs, points) for pairs in (1, 2, 7, most) for points in (1, 2, 3, 101)]
    shapes += [(1, theta_module._BLOCK_TERMS), (most, theta_module._BLOCK_TERMS // most)]
    shapes += zip(rng.integers(1, most, 40).tolist(), rng.integers(1, 400, 40).tolist())
    for pairs, points in shapes:
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (2 * pairs + 1, points))
        buffer = scale * (rng.normal(size=scale.shape) + 1j * rng.normal(size=scale.shape))
        for block in (buffer[: pairs + 1], np.abs(buffer)[: pairs + 1]):
            want = np.add.accumulate(block, axis=0)[-1]
            got = np.empty(points + 1, block.dtype)
            theta_module._sum_rows(block.copy(), got, 1)
            got = got[1:]
            assert got.tobytes() == want.tobytes(), (pairs, points, block.dtype)


# Real parts with -0 and every re-centring integer 0 (|Re v| < 1); imaginary
# parts in units of Im tau, inside Im tau / 2, so _reduce moves no quasi-period
ZERO_SIGN_RE = np.array([-0.0, 0.0, -0.25, 0.5, -0.75, 0.9, -5e-324, 5e-324])
ZERO_SIGN_IM = np.array([0.3, -0.0, 0.0, -0.45, 0.1, -0.2, 0.45, -0.3])
ZERO_SIGN_TAUS = {"i/pi": I_OVER_PI, "i*pi": I_PI, "0.3+0.8i": 0.3 + 0.8j}
# each call with the scale of its imaginary parts
ZERO_SIGN_CALLS = {
    **{
        f"theta{kind}-{name}": (lambda v, kind=kind, tau=tau: theta(kind, ThetaArg(v, tau)), tau.imag)
        for kind in (2, 3, 4)
        for name, tau in ZERO_SIGN_TAUS.items()
    },
    **{
        f"log-derivative{kind}-{name}": (
            lambda v, kind=kind, tau=tau: theta_log_derivative(kind, ThetaArg(v, tau)),
            tau.imag,
        )
        for kind in (3, 4)
        for name, tau in ZERO_SIGN_TAUS.items()
    },
    **{
        f"S-{lattice}": (lambda w, half=half: gaussian_lattice_sum(w, half=half), 2.0)
        for lattice, half in (("integer", False), ("half-integer", True))
    },
}


@pytest.mark.parametrize("call", ZERO_SIGN_CALLS.values(), ids=ZERO_SIGN_CALLS.keys())
def test_lattice_sums_are_blind_to_the_sign_of_zero(call):
    # _recentre hands back an array whose every c is 0 as it is, -0 real parts
    # and all, where x - c*period would make them +0: no sum may see the sign
    f, im_scale = call
    longer_than_a_block = theta_module._BLOCK_TERMS + 7
    complex_v = ZERO_SIGN_RE.astype(np.complex128)  # a sum would make each -0 real part +0
    complex_v.imag = im_scale * ZERO_SIGN_IM
    for v in (ZERO_SIGN_RE, complex_v):
        for grid in (v[:1], np.resize(v, longer_than_a_block)):
            signless = grid + 0.0  # every zero part +0
            assert np.signbit(grid.real).any()
            assert not np.signbit(signless.real[grid.real == 0]).any()
            got, want = f(grid), f(signless)
            assert got.shape == want.shape == grid.shape
            assert got.tobytes() == want.tobytes(), grid.size


def test_kernel_ladder_is_cached_and_read_only():
    m, m_sq, sign = theta_module._ladder(4, False, True)
    assert theta_module._ladder(4, False, True)[0] is m
    assert m.ravel().tolist() == [4, 3, 2, 1]
    assert m_sq.ravel().tolist() == [16, 9, 4, 1]
    assert sign.ravel().tolist() == [1, -1, 1, -1]
    assert theta_module._ladder(2, True, True)[0].ravel().tolist() == [1.5, 0.5]
    assert theta_module._ladder(2, True, True)[2].ravel().tolist() == [1, 1]
    for column in (m, m_sq, sign):
        assert column.shape == (4, 1) and not column.flags.writeable


def test_kernel_memory_stays_bounded_on_a_long_grid():
    # one numpy pass per pair peaked at 19.8 MiB here; unblocked, the broadcast
    # temporaries would grow as the pair count times the input
    w = np.linspace(-40.0, 40.0, 200_000) + 0j
    gaussian_lattice_sum(w[:10])
    tracemalloc.start()
    try:
        gaussian_lattice_sum(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19.8 * 2**20
