"""Lattice theta engine: values, transformation laws, failure modes."""

from __future__ import annotations

import cmath
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from circle_cs.bargmann import Quadrature
from circle_cs.errors import (
    ConvergenceError,
    DomainError,
    RangeOverflowError,
    SingularityError,
)
from circle_cs.hilbert import Truncation
from circle_cs.theta import (
    DEFAULT_CONTROL,
    SeriesControl,
    ThetaArg,
    _recentre,
    gaussian_lattice_sum,
    modular_image_theta2,
    modular_image_theta3,
    theta,
    theta2_via_half_period_shift,
    theta_log_derivative,
)

I_PI = 1j * math.pi
I_OVER_PI = 1j / math.pi
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
    ctl = SeriesControl(tol=1e-14, n_max=3)
    with pytest.raises(ConvergenceError):
        gaussian_lattice_sum(12.0, ctl=ctl)


def test_series_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(tol=0.0)
    with pytest.raises(DomainError):
        SeriesControl(tol=1e-14, n_max=0)


def test_series_pair_cap_is_the_block_size():
    cap = theta_module._BLOCK_TERMS
    assert SeriesControl(n_max=cap).n_max == cap == 65536
    for n_max in (0, cap + 1, 10**6, math.nan):
        with pytest.raises(DomainError, match=r"^series_n_max must be an integer in \[1, 65536\]"):
            SeriesControl(n_max=n_max)


# each integer a type holds, and how to read it back
INTEGER_FIELDS = {
    "two_jmax": lambda n: Truncation(n).two_jmax,
    "series_n_max": lambda n: SeriesControl(n_max=n).n_max,
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


@pytest.mark.parametrize("tol", ["1e-14", None, [1e-14], 1e-14j, np.array([1e-14])], ids=repr)
def test_series_tol_refuses_what_is_not_one_real_number(tol):
    with pytest.raises(DomainError, match=r"^series_tol must lie in \(0, 1\), got "):
        SeriesControl(tol=tol)


def test_sum_at_the_pair_cap_keeps_to_its_block():
    # 56 627 term pairs: the ladder's three columns and the block's
    # temporaries, about 1 MiB each, whatever the number of points
    ctl = SeriesControl(n_max=theta_module._BLOCK_TERMS)
    tracemalloc.start()
    try:
        theta(3, ThetaArg(np.linspace(0.0, 0.5, 4), 3.2e-9j), ctl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert theta_module._ladder.cache_info().maxsize == 32


def test_long_ladders_stay_out_of_the_cache():
    # 40 pair counts near 56 000, 2.7 MB a ladder: the entry-bounded cache
    # held 80 MB of them; ladders past _CACHED_PAIRS are built per call
    ctl = SeriesControl(n_max=theta_module._BLOCK_TERMS)
    tracemalloc.start()
    try:
        for k in range(40):
            theta(3, ThetaArg(0.25, 3.2e-9j * (1.0 + k / 100.0)), ctl)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 2**20


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


@pytest.mark.parametrize(
    "image", [modular_image_theta3, modular_image_theta2, theta2_via_half_period_shift]
)
def test_transformation_helpers_take_arrays(image):
    # the batch may keep terms below the tolerance that a scalar call drops
    v = np.linspace(-2.0, 2.0, 9)[:, None] + 1j * np.array([0.0, 0.3, -0.5])
    batch = image(v, I_PI)
    assert isinstance(batch, np.ndarray) and batch.shape == v.shape
    scalars = np.array([image(x, I_PI) for x in v.ravel()]).reshape(v.shape)
    assert np.all(np.abs(batch - scalars) <= 1e-14 * np.abs(scalars))
    assert type(image(0.3, I_PI)) is complex
    assert type(image(0.3 + 0.1j, I_OVER_PI)) is complex
    assert image(np.array([]), I_PI).shape == (0,)


# ------------------------------------------------------ re-centred sums


@pytest.mark.parametrize("half", [False, True])
def test_centred_sum_reproduces_the_raw_sum(half):
    w = np.array([-20.3, -7.0, -1.2 + 0.4j, 0.0, 0.9, 3.5 - 2.0j, 11.0, 25.0 + 1.0j])
    c, r = _recentre(w)
    assert np.array_equal(c, np.round(w.real / 2.0))
    assert np.array_equal(r, w - 2.0 * c) and np.all(np.abs(r.real) <= 1.0)
    rebuilt = np.exp(c * w - c * c) * gaussian_lattice_sum(r, half=half)
    # the direct sum at the unreduced w, which the library no longer takes
    raw = theta_module._lattice_sum(-1.0 + 0.0j, w, half, False, DEFAULT_CONTROL)
    assert np.all(np.abs(rebuilt - raw) <= 1e-13 * np.abs(raw))
    assert np.all(np.abs(gaussian_lattice_sum(w, half=half) - raw) <= 1e-13 * np.abs(raw))


def test_centred_sum_is_plain_sum_near_the_origin():
    w = np.linspace(-0.9, 0.9, 7)
    c, r = _recentre(w)
    assert not c.any() and np.array_equal(r, w)
    raw = theta_module._lattice_sum(-1.0 + 0.0j, w, True, False, DEFAULT_CONTROL)
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


def test_log_derivative_computes_the_origin_value_once():
    theta_module._origin_modulus.cache_clear()
    ctl = SeriesControl(tol=1e-13)
    first = theta_log_derivative(4, ThetaArg(np.array([0.1, 0.3]), I_PI), ctl)
    again = theta_log_derivative(4, ThetaArg(0.3, I_PI), ctl)
    assert again == first[1]
    info = theta_module._origin_modulus.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert theta_module._origin_modulus(math.pi, ctl) == abs(theta(3, ThetaArg(0.0, I_PI), ctl))


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


def _pairs_of(curv, lin, half, ctl):
    return theta_module._pair_count(
        -curv.real, float(np.abs(np.asarray(lin).real).max(initial=0.0)), ctl, half
    )


@pytest.mark.parametrize("seed, shape", enumerate([(), (0,), (1,), (101,), (7, 3)]))
def test_kernel_matches_the_pair_loop_bitwise(seed, shape):
    rng = np.random.default_rng(seed)
    for _ in range(160):
        curv, lin, half, alternating = _kernel_case(rng, shape)
        ctl = SeriesControl(tol=float(10.0 ** -rng.uniform(3.0, 15.0)), n_max=1000)
        try:
            pairs = _pairs_of(curv, lin, half, ctl)
        except RangeOverflowError:
            continue
        got = theta_module._lattice_sum(curv, lin, half, alternating, ctl)
        assert _same_bits(got, _pair_loop(curv, lin, half, alternating, pairs))


def test_kernel_matches_the_pair_loop_across_blocks():
    # 7 pairs a point: 9362 points a block, so three blocks, the last one short
    rng = np.random.default_rng(11)
    lin = 1.5 * rng.standard_normal(20_000) + 0.5j * rng.standard_normal(20_000)
    ctl = SeriesControl()
    for half in (False, True):
        pairs = _pairs_of(-1.0 + 0j, lin, half, ctl)
        assert pairs * lin.size > 2 * theta_module._BLOCK_TERMS
        got = theta_module._lattice_sum(-1.0 + 0j, lin, half, False, ctl)
        assert _same_bits(got, _pair_loop(-1.0 + 0j, lin, half, False, pairs))


@pytest.mark.parametrize("pairs", range(0, 33))
def test_kernel_matches_the_pair_loop_at_every_pair_count(pairs, monkeypatch):
    rng = np.random.default_rng(pairs)
    ctl = SeriesControl()  # built before _BLOCK_TERMS, which caps its n_max, shrinks
    monkeypatch.setattr(theta_module, "_pair_count", lambda *args: pairs)
    # a block of 3 points at most, so the 7 points take several blocks
    monkeypatch.setattr(theta_module, "_BLOCK_TERMS", 3 * max(pairs, 1))
    curv = complex(-0.02, 0.7)
    for half, alternating in ((False, False), (False, True), (True, False)):
        lin = 0.3 * rng.standard_normal(7) + 0.3j * rng.standard_normal(7)
        got = theta_module._lattice_sum(curv, lin, half, alternating, ctl)
        assert _same_bits(got, _pair_loop(curv, lin, half, alternating, pairs))


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
