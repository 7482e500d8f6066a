"""One overflow rule: a value past e^700 raises RangeOverflowError.

Every exponential of the theta, hilbert, coherent and bargmann layers
whose real part can pass 700 goes through theta._exp.  Its unit tests
pin the bits it returns; the probes below are inputs at which an
unguarded exponential gives a numpy warning, an inf or a wrong value;
and one derandomized property draws inputs up to the edge of the double
range and asks of every guarded function a finite value or a
CircleError, with no warning of any kind.
"""

from __future__ import annotations

import cmath
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from circle_cs import (
    OPERATOR_KINDS,
    CircleError,
    DomainError,
    FreeRotor,
    Linear,
    PhasePoint,
    Quadrature,
    RangeOverflowError,
    Sector,
    StateVector,
    ThetaArg,
    Truncation,
    apply_exp_j,
    apply_operator,
    apply_time_reversal,
    approx_expect_J,
    basis_state,
    coherent_state,
    covariant_symbol,
    energy_distribution,
    evaluate,
    evolve,
    expect_expJ,
    gaussian_lattice_sum,
    heisenberg_approximation,
    heisenberg_expectations,
    inner,
    inner_quadrature,
    norm_sq,
    operator_matrix,
    overlap_closed,
    reproducing_apply,
    required_two_jmax,
    theta,
    theta_log_derivative,
    uncertainty_QP,
)
from circle_cs import cli
from circle_cs.hilbert import MAX_TWO_JMAX
from circle_cs.theta import _exp

# as in test_properties: keep hypothesis's constant cache out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "circle-cs-hypothesis")

BOSON, FERMION = Sector.BOSON, Sector.FERMION
I_PI = 1j * math.pi


@pytest.fixture(autouse=True)
def every_warning_is_an_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


# ------------------------------------------------------------ the guard


def test_guard_keeps_the_bits_of_the_plain_exponential():
    rng = np.random.default_rng(12)
    real = rng.uniform(-745.0, 700.0, 4000)
    exponent = real + 1j * rng.uniform(-50.0, 50.0, real.size)
    scale = rng.normal(size=real.size) * np.exp(rng.uniform(-300.0, 0.0, real.size))
    for e in (real, exponent):
        assert _exp(e, "m").tobytes() == np.exp(e).tobytes()
        assert _exp(e, "m", scale).tobytes() == (scale * np.exp(e)).tobytes()
    for x in real[:200].tolist():
        assert _exp(x, "m") == np.exp(x)


def test_guard_raises_past_the_limit_with_the_peak():
    assert _exp(700.0, "m") == np.exp(700.0)
    for exponent in (700.5, math.inf, math.nan, np.array([0.0, 700.5 + 3j])):
        with pytest.raises(RangeOverflowError):
            _exp(exponent, "m")
    with pytest.raises(RangeOverflowError, match=r"^peak 701\.5 at l = 2$"):
        _exp(np.array([1.0, 701.5]), f"peak {{peak:.4g}} at l = {2}")
    # the scale counts: 2 e^699.5 is past e^700, 0 e^2000 is not
    with pytest.raises(RangeOverflowError):
        _exp(699.5, "m", 2.0)


def test_guard_gives_zero_where_only_a_zero_scale_meets_an_overflowing_factor():
    value = _exp(np.array([2000.0, 1.0, -3.0]), "m", np.array([0.0, 2.0, -1.0j]))
    assert value[0] == 0.0
    # the others through log space: e^(x + log|c|) times the phase of c
    assert np.allclose(value[1:], [2.0 * math.e, -1j * math.exp(-3.0)], rtol=1e-15, atol=0.0)


def test_guard_takes_a_small_scale_through_log_space():
    # the factor e^750 overflows alone; the product e^59.2 does not
    for scale in (1e-300, -1e-300, 1e-300j, complex(3e-301, -4e-301)):
        value = _exp(750.0, "m", scale)
        expected = cmath.exp(750.0 + cmath.log(scale))
        assert abs(value - expected) <= 1e-13 * abs(expected)


# ------------------------------------------------------------ the probes


def test_xi_past_the_range_is_typed():
    with pytest.raises(RangeOverflowError, match="xi"):
        PhasePoint(-1000.0, 0.0).xi
    with pytest.raises(RangeOverflowError):
        PhasePoint(np.array([0.0, -701.0]), 0.0).xi
    assert PhasePoint(-699.0, 0.5).xi == cmath.exp(complex(699.0, 0.5))


def test_heisenberg_approximation_raises_where_the_exact_values_do():
    with pytest.raises(RangeOverflowError):
        heisenberg_approximation(PhasePoint(-1000.0, 0.0), 1.0)
    # the reach of heisenberg_expectations: t*l and t*t stay finite
    for p, t in ((PhasePoint(1e301, 0.0), 0.0), (PhasePoint(1.0, 0.0), np.array([0.0, 1e200]))):
        with pytest.raises(RangeOverflowError):
            heisenberg_approximation(p, t)
        with pytest.raises(RangeOverflowError):
            heisenberg_expectations(p, t, BOSON)
    approx = heisenberg_approximation(PhasePoint(-699.0, 0.3), 0.5)
    assert approx["X_t"] == cmath.exp(complex(-0.0625 + 699.0, 0.3 + 0.5 * (-699.5)))


@pytest.mark.parametrize("function", [theta, theta_log_derivative])
def test_phase_past_the_range_is_typed_without_a_warning(function):
    # 2 pi i v would overflow at 3e307, and m times it at 2e307; each v
    # is an even integer, which the reduction takes off exactly first
    reduced = function(3, ThetaArg(np.array([0.1, 0.0]), I_PI))
    for v in (3e307, 2e307, 1.6e300):
        assert np.array_equal(function(3, ThetaArg(np.array([0.1, v]), I_PI)), reduced)
    # the quasi-period factor (theta) or the shift 2 pi i k (its log-derivative) overflows
    with pytest.raises(RangeOverflowError):
        function(3, ThetaArg(np.array([0.1, 1e308j]), I_PI))


def test_scan_whose_phase_overflows_exits_2():
    argv = ["scan", "--obs", "J", "--l-min", "1e307", "--l-max", "1e308", "--n", "3", "--out", "-"]
    assert cli.main(argv) == 2


def test_evaluate_ignores_monomials_of_empty_slots():
    f = basis_state(BOSON, 1.0, Truncation(40))
    # the empty slot j = -20 carries e^15800; the occupied one e^(-800.5)
    assert evaluate(f, PhasePoint(-800.0, 0.0)) == 0.0
    value = evaluate(f, PhasePoint(-700.0, 0.3))
    expected = cmath.exp(complex(-700.5, 0.3))
    assert abs(value - expected) <= 1e-13 * abs(expected)
    with pytest.raises(RangeOverflowError):
        evaluate(f, PhasePoint(701.0, 0.0))
    with pytest.raises(RangeOverflowError):
        evaluate(f, PhasePoint(-1e301, 0.0))
    # a grid takes the same log-space route point by point
    grid = evaluate(f, PhasePoint(np.array([-800.0, -700.0]), 0.3))
    assert grid.tolist() == [evaluate(f, PhasePoint(l, 0.3)) for l in (-800.0, -700.0)]


@pytest.mark.parametrize(
    "coeffs",
    [
        [1.7e308 * (1 + 1j), 0.0, 0.0],  # both parts finite, the modulus past the range
        [1e200, 0.0, 0.0],  # the square passes the range
    ],
)
def test_inner_product_past_the_range_is_typed(coeffs):
    s = StateVector(BOSON, Truncation(2), coeffs)
    with pytest.raises(RangeOverflowError, match="^inner product leaves the floating-point range$"):
        inner(s, s)


def test_exp_j_gives_the_coefficient_when_only_the_factor_overflows():
    trunc = Truncation(600)
    coeffs = np.zeros(trunc.size(BOSON), dtype=complex)
    coeffs[trunc.index_of(BOSON, 0)] = 2.0
    coeffs[trunc.index_of(BOSON, 600)] = 1e-300
    out = apply_exp_j(StateVector(BOSON, trunc, coeffs), 2.5)
    expected = math.exp(750.0 + math.log(1e-300))  # about e^60
    assert abs(out.coeffs[-1] - expected) <= 1e-13 * expected
    assert out.coeffs[trunc.index_of(BOSON, 0)] == 2.0
    assert np.count_nonzero(out.coeffs) == 2


@pytest.mark.parametrize("kind", ["X", "Xdag"])
def test_wide_weight_matrix_raises_before_it_is_allocated(kind, no_window):
    # 2001 x 2001 complex entries would take 64 MB; Truncation refuses the window first
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"^two_jmax must be an integer in \[2, 600\]"):
            operator_matrix(kind, BOSON, Truncation(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _spike(sector: Sector, j: float, value: complex, trunc: Truncation) -> StateVector:
    """value * |j>."""
    return StateVector(sector, trunc, value * basis_state(sector, j, trunc).coeffs)


def test_quadrature_inner_product_past_the_range_is_typed():
    message = "^quadrature sum leaves the floating-point range$"
    # <s|s> is about 1e614
    s = _spike(BOSON, 0.0, 1e307, Truncation(40))
    with pytest.raises(RangeOverflowError, match=message):
        inner_quadrature(s, s, Quadrature(40, 64))
    # G b itself overflows: at n_phi = 4 the slots j = 0, +-2 share one angular
    # bin, so the j = 0 entry of G b is 1.2e308 (1 + 2 e^-1)
    g = StateVector(BOSON, Truncation(4), [1.2e308, 0.0, 1.2e308, 0.0, 1.2e308])
    with pytest.raises(RangeOverflowError, match=message):
        inner_quadrature(basis_state(BOSON, 0.0, Truncation(4)), g, Quadrature(40, 4))


def test_quadrature_inner_product_near_the_top_of_the_range_is_finite():
    # <f|3> = 1e307 is finite, though f's node values pass the double range
    # (the radial factor e^(3 l - 9/2)): the sum runs over coefficients
    f = _spike(BOSON, 3.0, 1e307, Truncation(40))
    g = basis_state(BOSON, 3.0, Truncation(40))
    value = inner_quadrature(f, g, Quadrature(40, 64))
    # measured 6.2e-16 from inner (G[3, 3] - 1 is 6.7e-16); bound 3x that
    assert value == pytest.approx(inner(f, g), rel=2e-15, abs=0.0)


def test_reproducing_apply_near_the_top_of_the_range_is_finite():
    # f(eta*) is 3.6e268, though the products of f's node values with the
    # kernel at l = 18 pass the double range: the sum runs over coefficients
    s = _spike(FERMION, 0.5, 5e264, Truncation(40))
    p = PhasePoint(18.0, 0.0)
    value = reproducing_apply(s, p, FERMION, Quadrature(40, 64))
    # measured equal to evaluate
    assert value == pytest.approx(evaluate(s, p), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("sector", [BOSON, FERMION])
def test_approx_expect_J_keeps_the_reach_of_expect_expJ(sector):
    for l in (1e308, -1e301, np.array([0.0, 1e301])):
        with pytest.raises(RangeOverflowError):
            approx_expect_J(l, sector)
    assert math.isfinite(approx_expect_J(1e300, sector))


def test_uncertainty_keeps_the_bits_of_math_exp():
    # a single point is the 0-d case of its grid: np.exp's bits, as its one-element grid has
    for l in np.random.default_rng(4).uniform(-350.0, 400.0, 200).tolist():
        vals = uncertainty_QP(PhasePoint(l, 0.0), FERMION)
        grid = uncertainty_QP(PhasePoint(np.array([l]), 0.0), FERMION)
        assert vals["bound"] == 0.25 * (math.exp(2.0) - 1.0) * float(np.exp(-2.0 * l))
        assert vals["dQ"] == 0.5 * float(np.exp(-l)) * math.sqrt(math.exp(2.0) - 1.0)
        for key in ("dQ", "dP", "bound"):
            assert type(vals[key]) is float and vals[key] == grid[key][0]


@pytest.mark.parametrize("sector, onset", [(BOSON, 1384.5 / 37.0), (FERMION, 1403.125 / 37.5)])
def test_coherent_coefficients_overflow_where_the_largest_one_passes_e700(sector, onset):
    # the largest coefficient is at the lattice j next to l: 37 (boson) or 37.5 (fermion)
    for sign in (1.0, -1.0):
        below = PhasePoint(sign * np.nextafter(onset, 0.0), 0.0)
        state = coherent_state(below, sector, Truncation(required_two_jmax(below.l)))
        assert np.isfinite(state.coeffs).all()
        above = PhasePoint(sign * np.nextafter(onset, 99.0), 0.0)
        with pytest.raises(RangeOverflowError, match="coherent coefficients"):
            coherent_state(above, sector, Truncation(required_two_jmax(above.l)))


# ------------------------------------------------------------ the property

# every finite double, the signed zeros and subnormals, and a band where the values live
reals = st.one_of(
    st.floats(-1e308, 1e308, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 700.0, -700.0, 37.42]),
    st.floats(-60.0, 60.0),
)
SMALL = Truncation(20)
# the battery's moduli, then Re tau far past 1 and Im tau at the ends of the double range
TAUS = [I_PI, 1j / math.pi, 0.3 + 0.8j, 1000j, 2.0**52 + 1j, 1e308 + 0.5j, -1e308 + 0.5j]
TAUS += [1e300j, 1.7e308j, 1e-320j]


def _two_slot_state(sector: Sector, a: float, b: complex) -> StateVector:
    """a at the lowest slot, b at the middle one, 0 elsewhere."""
    coeffs = np.zeros(SMALL.size(sector), dtype=complex)
    coeffs[0], coeffs[coeffs.size // 2] = a, b
    return StateVector(sector, SMALL, coeffs)


def _point(x) -> PhasePoint:
    return PhasePoint(x.l, x.phi)


CALLS = {
    "xi": lambda x: _point(x).xi,
    "heisenberg_expectations": lambda x: heisenberg_expectations(_point(x), x.eta, x.sector),
    "heisenberg_approximation": lambda x: heisenberg_approximation(_point(x), x.eta),
    "uncertainty_QP": lambda x: uncertainty_QP(_point(x), x.sector),
    "expect_expJ": lambda x: expect_expJ(x.eta, _point(x), x.sector),
    "approx_expect_J": lambda x: approx_expect_J(x.l, x.sector),
    "coherent_state": lambda x: coherent_state(
        _point(x), x.sector, Truncation(min(required_two_jmax(x.l), MAX_TWO_JMAX))
    ),
    "covariant_symbol": lambda x: covariant_symbol(
        operator_matrix("X", x.sector, SMALL), _point(x), x.sector
    ),
    "evaluate": lambda x: evaluate(_two_slot_state(x.sector, x.eta, x.v), _point(x)),
    "reproducing_apply": lambda x: reproducing_apply(
        _two_slot_state(x.sector, x.eta, x.v), _point(x), x.sector, Quadrature(8, 8)
    ),
    "inner_quadrature": lambda x: inner_quadrature(
        _two_slot_state(x.sector, x.l, x.v), _two_slot_state(x.sector, x.eta, x.v), Quadrature(8, 8)
    ),
    "X": lambda x: apply_operator("X", _two_slot_state(x.sector, x.l, x.v)),
    "Xdag": lambda x: apply_operator("Xdag", _two_slot_state(x.sector, x.l, x.v)),
    "exp_j": lambda x: apply_exp_j(_two_slot_state(x.sector, x.l, x.phi), complex(x.eta, x.v.imag)),
    "gaussian_lattice_sum": lambda x: gaussian_lattice_sum(x.v, half=x.sector is FERMION),
    "overlap_closed": lambda x: overlap_closed(_point(x), PhasePoint(x.eta, x.v.real), x.sector),
    "norm_sq": lambda x: norm_sq(_point(x), x.sector),
    "energy_distribution": lambda x: energy_distribution(_point(x), x.sector),
    "evolve_free": lambda x: evolve(_two_slot_state(x.sector, x.l, x.v), FreeRotor(), x.eta),
    "evolve_linear": lambda x: evolve(_two_slot_state(x.sector, x.l, x.v), Linear(x.phi), x.eta),
    **{
        f"theta{kind}": (lambda x, kind=kind: theta(kind, ThetaArg(x.v, x.tau)))
        for kind in (2, 3, 4)
    },
    "theta_log_derivative": lambda x: theta_log_derivative(
        3 if x.sector is BOSON else 4, ThetaArg(x.v, x.tau)
    ),
}


def _parts(result):
    """The numbers of a result: dict values, a state's coefficients and leakage, or itself."""
    if isinstance(result, dict):
        return [part for value in result.values() for part in _parts(value)]
    if isinstance(result, StateVector):
        return [result.coeffs, result.leakage]
    return [result]


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    x=st.builds(
        SimpleNamespace,
        l=reals,
        phi=reals,
        v=st.builds(complex, reals, reals),
        eta=reals,
        sector=st.sampled_from([BOSON, FERMION]),
        tau=st.sampled_from(TAUS),
    )
)
def test_finite_inputs_give_finite_values_or_typed_errors(name, x):
    try:
        result = CALLS[name](x)
    except CircleError:
        return
    flat = np.concatenate([np.ravel(np.asarray(part, dtype=complex)) for part in _parts(result)])
    assert np.isfinite(flat).all()


# each part up to 1.7e308, so a modulus (up to 1.7e308 sqrt(2)) can pass the double range
huge = st.one_of(
    st.floats(-1.7e308, 1.7e308, allow_subnormal=True),
    st.sampled_from([0.0, 1.7e308, -1.7e308, 1e308]),
    st.floats(-10.0, 10.0),
)

# every function that builds its state through hilbert._adopt from a finite state
PRODUCERS = {
    **{kind: lambda s, x, kind=kind: apply_operator(kind, s) for kind in OPERATOR_KINDS},
    "exp_j": lambda s, x: apply_exp_j(s, x.eta),
    "time_reversal": lambda s, x: apply_time_reversal(s),
    "evolve_free": lambda s, x: evolve(s, FreeRotor(), x.t),
    "evolve_linear": lambda s, x: evolve(s, Linear(1.3), x.t),
    "coherent_state": lambda s, x: coherent_state(
        PhasePoint(x.t, x.t), s.sector, Truncation(min(required_two_jmax(x.t), MAX_TWO_JMAX))
    ),
}


@st.composite
def huge_states(draw):
    sector = draw(st.sampled_from([BOSON, FERMION]))
    trunc = Truncation(draw(st.integers(2, 12)))
    size = trunc.size(sector)
    re, im = (np.array(draw(st.lists(huge, min_size=size, max_size=size))) for _ in "ri")
    leakage = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.7e308)))
    return StateVector(sector, trunc, re + 1j * im, leakage)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    s=huge_states(),
    x=st.builds(SimpleNamespace, eta=st.builds(complex, reals, reals), t=reals),
)
def test_a_state_the_library_builds_from_a_finite_state_is_finite(s, x):
    # _adopt checks only the leakage: J, N and evolve check their products, and every
    # other producer must be finite by construction
    for make in PRODUCERS.values():
        try:
            out = make(s, x)
        except CircleError:
            continue
        assert np.count_nonzero(np.isfinite(out.coeffs)) == out.coeffs.size
        assert math.isfinite(out.leakage)
