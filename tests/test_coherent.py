"""Coherent states: overlaps, expectations, dynamics, uncertainty."""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest

from circle_cs.coherent import (
    FreeRotor,
    J_DEVIATION_AMPLITUDE,
    Linear,
    PhasePoint,
    approx_expect_J,
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
from circle_cs.errors import DomainError, RangeOverflowError, TruncationError
from circle_cs.hilbert import (
    Sector,
    Truncation,
    apply_exp_j,
    apply_operator,
    apply_time_reversal,
    inner,
)

TR = Truncation(40)


def test_phase_point_normalizes_phi():
    p = PhasePoint(0.5, 7.0)
    assert p.phi == pytest.approx(7.0 - 2.0 * math.pi, rel=1e-15)
    assert PhasePoint(0.0, -0.5).phi == pytest.approx(2.0 * math.pi - 0.5, rel=1e-15)


def test_phase_point_label():
    p = PhasePoint(0.25, 1.5)
    assert p.xi == pytest.approx(cmath.exp(complex(-0.25, 1.5)), rel=1e-15)
    assert p.log_xi == complex(-0.25, 1.5)


def test_phase_point_rejects_nonfinite():
    with pytest.raises(DomainError):
        PhasePoint(float("inf"), 0.0)


_TWO_PI = 2.0 * math.pi
SCALAR_COORDINATES = [
    -0.0, 0.0, -1e-300, 1e-300, 5e-324, 1e300, -1e300, 1e308, -1e308, 0.3, -2.75, 7.0,
    *(k * _TWO_PI for k in (-3, -1, 1, 2, 7)),
    0, 3, -5, 10**15, True,
    np.float64(-0.0), np.float64(1.1), np.float32(0.1), np.float16(-2.5),
    np.int64(-4), np.longdouble(0.1),
]


@pytest.mark.parametrize("value", SCALAR_COORDINATES, ids=repr)
def test_scalar_phase_point_matches_the_0d_array_route(value):
    """A scalar stores bit for bit what the same value as a 0-d array stores."""
    # the 0-d array path is the reference; it stores floats too
    for l, phi in ((value, 0.5), (0.5, value), (value, value)):
        scalar = PhasePoint(l, phi)
        array = PhasePoint(np.asarray(l, dtype=float), np.asarray(phi, dtype=float))
        assert type(scalar.l) is float and type(scalar.phi) is float
        assert scalar.shape == array.shape == ()
        assert np.float64(scalar.l).tobytes() == np.float64(array.l).tobytes()
        assert np.float64(scalar.phi).tobytes() == np.float64(array.phi).tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.nan)])
def test_scalar_phase_point_rejects_nonfinite_with_the_array_message(bad):
    for l, phi in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(DomainError, match="phase-space coordinates must be finite"):
            PhasePoint(l, phi)
        with pytest.raises(DomainError, match="phase-space coordinates must be finite"):
            PhasePoint(np.asarray(l), np.asarray(phi))


@pytest.mark.parametrize("l, phi", [
    (10**400, 0.0), (0.0, -10**400), ([10**400], 0.0), (0.0, [1.0, -10**400]),
    (np.array([10**400], dtype=object), 0.0),
    ("1", 0.0), (0.0, "0"), (None, 0.0), (object(), 0.0), (1j, 0.0), (np.complex128(1), 0.0),
    (0.0, [1j]), (np.array(["1"]), 0.0), (0.0, [[0.0], [1.0, 2.0]]),
    (np.array(["1"], dtype=object), 0.0),
], ids=["l", "phi", "l-list", "phi-list", "object-array", "str", "phi-str", "none", "object",
        "complex", "np-complex", "complex-list", "str-array", "ragged", "object-str-array"])
def test_ints_past_the_double_range_are_domain_errors(l, phi):
    # and anything else that is not a real number: a complex value is not cut to its real part
    with pytest.raises(DomainError, match="phase-space coordinates must be finite"):
        PhasePoint(l, phi)


def test_ints_inside_the_double_range_convert_in_a_list():
    p = PhasePoint([10**30, -3], 0)
    assert p.l.dtype == np.float64 and p.l.tolist() == [1e30, -3.0] and p.phi == 0.0


@pytest.mark.parametrize("call", [
    lambda: required_two_jmax(math.nan),
    lambda: required_two_jmax(math.inf),
    lambda: required_two_jmax("1"),
    lambda: approx_expect_J(math.nan, Sector.BOSON),
    lambda: approx_expect_J([0.1, math.inf], Sector.FERMION),
    lambda: expect_expJ(math.nan, PhasePoint(0.3, 0.0), Sector.BOSON),
    lambda: expect_expJ(np.array(["1"]), PhasePoint(0.3, 0.0), Sector.FERMION),
    lambda: expect_expJ("1", PhasePoint(0.3, 0.0), Sector.BOSON),
    lambda: expect_expJ(1j, PhasePoint(0.3, 0.0), Sector.BOSON),
    lambda: heisenberg_expectations(PhasePoint(0.3, 0.0), math.nan, Sector.BOSON),
    lambda: heisenberg_approximation(PhasePoint(0.3, 0.0), math.nan),
    lambda: heisenberg_approximation(PhasePoint(0.3, 0.0), None),
    lambda: Linear("1"),
    lambda: Linear(math.inf),
    lambda: gaussian_energy_profile("1", 0),
    lambda: gaussian_energy_profile(0.0, None),
], ids=["window-nan", "window-inf", "window-str", "approxJ-nan", "approxJ-inf", "expJ-nan",
        "expJ-str-array", "expJ-str", "expJ-complex", "heisenberg-nan", "approx-nan", "approx-none",
        "linear-str", "linear-inf", "profile-str", "profile-none"])
def test_raw_arguments_are_domain_errors(call):
    with pytest.raises(DomainError, match="must be finite real numbers$"):
        call()


@pytest.mark.parametrize("value", [1e308, -1e308, 5e-324, -0.0])
def test_extreme_finite_coordinates_keep_their_bits(value):
    # l is stored as given; phi is its remainder, which lies in [0, 2*pi) already
    remainder = np.remainder(value, _TWO_PI)
    assert 0.0 <= remainder < _TWO_PI
    for p in (PhasePoint(value, value), PhasePoint(np.array([value]), np.array([value]))):
        assert np.float64(np.ravel(p.l)[0]).tobytes() == np.float64(value).tobytes()
        assert np.float64(np.ravel(p.phi)[0]).tobytes() == remainder.tobytes()


@pytest.mark.parametrize("phi", [-1e-300, -4e-16, -5e-324])
def test_phi_just_below_zero_maps_into_the_half_open_range(phi):
    # 2*pi - abs(phi) rounds up to 2*pi itself; the nearest angle in range is 0
    assert np.remainder(phi, _TWO_PI) == _TWO_PI
    assert PhasePoint(0.0, phi).phi == 0.0
    assert PhasePoint(0.0, np.array(phi)).phi == 0.0
    grid = PhasePoint(0.0, np.array([phi, -0.5, 1.0])).phi
    assert grid.tolist() == [0.0, np.remainder(-0.5, _TWO_PI), 1.0]


def test_coefficients_center_slot_is_one():
    s = coherent_state(PhasePoint(0.7, 2.0), Sector.BOSON, TR)
    mid = TR.index_of(Sector.BOSON, 0)
    assert s.coeffs[mid] == 1.0


def test_coefficient_formula():
    p = PhasePoint(0.4, 1.1)
    s = coherent_state(p, Sector.FERMION, TR)
    j = TR.j_values(Sector.FERMION)
    expected = np.exp(j * complex(0.4, -1.1) - 0.5 * j * j)
    assert np.max(np.abs(s.coeffs - expected)) == 0.0


def test_window_too_small_raises():
    with pytest.raises(TruncationError):
        coherent_state(PhasePoint(3.0, 0.0), Sector.BOSON, Truncation(12))


def test_required_two_jmax_is_monotone():
    assert required_two_jmax(0.0) <= required_two_jmax(1.0) <= required_two_jmax(2.5)
    assert required_two_jmax(1.0) <= 40


def test_norm_sq_at_origin():
    assert norm_sq(PhasePoint(0.0, 0.0), Sector.BOSON) == pytest.approx(
        1.772637204826652, rel=1e-14
    )
    assert norm_sq(PhasePoint(0.0, 0.0), Sector.FERMION) == pytest.approx(
        1.7722704969843799, rel=1e-14
    )


def test_overlap_closed_opposite_phases():
    val = overlap_closed(PhasePoint(0.0, 0.0), PhasePoint(0.0, math.pi), Sector.BOSON)
    assert val.real == pytest.approx(0.3006258008689844, rel=1e-13)
    assert val.imag == pytest.approx(0.0, abs=1e-16)


def test_overlap_matches_windowed_inner_product():
    rng = np.random.default_rng(21)
    for sector in (Sector.BOSON, Sector.FERMION):
        for _ in range(8):
            p1 = PhasePoint(rng.uniform(-1.5, 1.5), rng.uniform(0, 2 * math.pi))
            p2 = PhasePoint(rng.uniform(-1.5, 1.5), rng.uniform(0, 2 * math.pi))
            closed = overlap_closed(p1, p2, sector)
            direct = inner(coherent_state(p1, sector, TR), coherent_state(p2, sector, TR))
            assert abs(closed - direct) < 1e-12 * abs(closed)


def test_expect_J_on_lattice_points_is_exact():
    for l in (-2.0, -1.0, 0.0, 1.0, 2.0):
        assert expect_J(PhasePoint(l, 0.0), Sector.BOSON) == pytest.approx(l, abs=1e-13)
    for l in (-1.5, -0.5, 0.5, 1.5):
        assert expect_J(PhasePoint(l, 0.0), Sector.FERMION) == pytest.approx(l, abs=1e-13)


def test_expect_J_quarter_point():
    val = expect_J(PhasePoint(0.25, 0.0), Sector.BOSON)
    assert val == pytest.approx(0.24967501363640368, rel=1e-13)


def test_expect_J_deviation_amplitude_constant():
    assert J_DEVIATION_AMPLITUDE == pytest.approx(
        2.0 * math.pi * math.exp(-math.pi**2), rel=1e-15
    )
    assert J_DEVIATION_AMPLITUDE == pytest.approx(3.2498636359630756e-4, rel=1e-15)


def test_approx_expect_J_signs_mirror_between_sectors():
    # boson dips below l where the fermion value rises above it
    l = 0.25
    b = approx_expect_J(l, Sector.BOSON)
    f = approx_expect_J(l, Sector.FERMION)
    assert b == pytest.approx(l - J_DEVIATION_AMPLITUDE, rel=1e-12)
    assert f == pytest.approx(l + J_DEVIATION_AMPLITUDE, rel=1e-12)


def test_expect_J_is_independent_of_phi():
    a = expect_J(PhasePoint(0.3, 0.0), Sector.BOSON)
    b = expect_J(PhasePoint(0.3, 2.5), Sector.BOSON)
    assert a == b


def test_expect_U_at_origin():
    val = expect_U(PhasePoint(0.0, 0.0), Sector.BOSON)
    assert val.imag == 0.0
    assert val.real == pytest.approx(0.778639671506138, rel=1e-13)


def test_expect_U_carries_the_phase_exactly():
    for phi in (0.4, 2.0, 5.5):
        val = expect_U(PhasePoint(0.6, phi), Sector.FERMION)
        assert cmath.phase(val) == pytest.approx(cmath.phase(cmath.exp(1j * phi)), abs=1e-14)


def test_expect_U_series_agreement():
    for sector in (Sector.BOSON, Sector.FERMION):
        p = PhasePoint(0.8, 1.7)
        state = coherent_state(p, sector, TR)
        series = inner(state, apply_operator("U", state)) / inner(state, state)
        assert abs(series - expect_U(p, sector)) < 1e-12


def test_relative_expect_U_reference_cancels():
    p = PhasePoint(0.5, 1.0)
    rel = relative_expect_U(p, p, Sector.BOSON)
    assert rel == pytest.approx(1.0, rel=1e-15)


def test_relative_expect_U_modulus_near_one():
    rel = relative_expect_U(PhasePoint(0.5, 1.0), PhasePoint(0.0, 0.0), Sector.BOSON)
    assert abs(abs(rel) - 1.0) < 5e-4
    assert cmath.phase(rel) == pytest.approx(1.0, abs=1e-13)


def test_expect_expJ_at_s_minus_two():
    for sector in (Sector.BOSON, Sector.FERMION):
        for l in (-1.0, 0.0, 0.4, 2.0):
            exact, _ = expect_expJ(-2.0, PhasePoint(l, 0.0), sector)
            assert exact == pytest.approx(math.exp(1.0 - 2.0 * l), rel=1e-13)


def test_expect_expJ_zero_is_identity():
    exact, approx = expect_expJ(0.0, PhasePoint(0.7, 0.0), Sector.BOSON)
    assert exact == pytest.approx(1.0, rel=1e-14)
    assert approx == 1.0


def test_approx_expJ_formula():
    # the approximation is the second value of expect_expJ
    _, approx = expect_expJ(1.2, PhasePoint(0.3, 0.0), Sector.BOSON)
    assert approx == pytest.approx(math.exp(1.2**2 / 4.0 + 1.2 * 0.3), rel=1e-15)


def test_expect_expJ_ratio_is_close_to_one():
    exact, approx = expect_expJ(1.0, PhasePoint(-0.6, 0.0), Sector.FERMION)
    assert abs(exact / approx - 1.0) < 1e-3


def test_linear_evolution_rotates_phi():
    p = PhasePoint(0.5, 1.0)
    for sector in (Sector.BOSON, Sector.FERMION):
        state = coherent_state(p, sector, TR)
        evolved = evolve(state, Linear(0.7), 1.5)
        target = coherent_state(PhasePoint(0.5, 1.0 + 0.7 * 1.5), sector, TR)
        assert np.max(np.abs(evolved.coeffs - target.coeffs)) < 1e-14


def test_free_rotor_phases():
    s = coherent_state(PhasePoint(0.0, 0.0), Sector.BOSON, TR)
    evolved = evolve(s, FreeRotor(), 2.0)
    j = TR.j_values(Sector.BOSON)
    expected = s.coeffs * np.exp(-1j * j * j)
    assert np.max(np.abs(evolved.coeffs - expected)) == 0.0


def test_free_rotor_preserves_energy_content():
    s = coherent_state(PhasePoint(0.9, 0.3), Sector.FERMION, TR)
    evolved = evolve(s, FreeRotor(), 3.7)
    assert np.max(np.abs(np.abs(evolved.coeffs) - np.abs(s.coeffs))) <= 1e-15


def test_evolve_rejects_unknown_hamiltonian():
    s = coherent_state(PhasePoint(0.0, 0.0), Sector.BOSON, TR)
    with pytest.raises(DomainError):
        evolve(s, "free", 1.0)


@pytest.mark.parametrize(
    "hamiltonian, t",
    [
        (FreeRotor(), 1e308),
        (FreeRotor(), math.inf),
        (FreeRotor(), math.nan),
        (Linear(0.1), 1e308),
        (Linear(0.1), -math.inf),
        (Linear(0.0), math.inf),
        (FreeRotor(), "1"),
        (Linear(0.1), None),
    ],
    ids=repr,
)
def test_evolve_rejects_non_finite_phase(hamiltonian, t):
    s = coherent_state(PhasePoint(0.1, 0.0), Sector.BOSON, TR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="t = "):
            evolve(s, hamiltonian, t)


def test_eigenstate_relation_on_interior():
    p = PhasePoint(0.5, 1.3)
    for sector in (Sector.BOSON, Sector.FERMION):
        s = coherent_state(p, sector, TR)
        moved = apply_operator("X", s)
        delta = moved.coeffs[1:-1] - p.xi * s.coeffs[1:-1]
        assert np.max(np.abs(delta)) < 1e-13


def test_udag_shift_relation_on_interior():
    # Udag |xi> = xi^(-1) e^(-J - 1/2) |xi>: the bounded stand-in for
    # the inverse-eigenvalue relation of the (unbounded) inverse ladder
    p = PhasePoint(-0.3, 2.6)
    for sector in (Sector.BOSON, Sector.FERMION):
        s = coherent_state(p, sector, TR)
        lhs = apply_operator("Udag", s)
        rhs = apply_exp_j(s, -1.0)
        scale = math.exp(-0.5) / p.xi
        delta = lhs.coeffs[1:-1] - scale * rhs.coeffs[1:-1]
        assert np.max(np.abs(delta)) < 1e-13


def test_heisenberg_at_t_zero_reduces_to_statics():
    p = PhasePoint(0.4, 2.1)
    for sector in (Sector.BOSON, Sector.FERMION):
        vals = heisenberg_expectations(p, 0.0, sector)
        assert vals["U_t"] == pytest.approx(expect_U(p, sector), rel=1e-14)
        assert vals["X_t"] == pytest.approx(p.xi, rel=1e-13)


def test_heisenberg_single_point_gap():
    # frozen value of |exact - approx| for the shift observable
    p = PhasePoint(0.5, 0.0)
    exact = heisenberg_expectations(p, 1.0, Sector.BOSON)["U_t"]
    approx = heisenberg_approximation(p, 1.0)["U_t"]
    assert abs(exact - approx) == pytest.approx(7.901436545885164e-4, rel=1e-10)
    assert abs(exact - approx) < 1e-3


def test_heisenberg_free_relation():
    # conjugated annihilator acting on |l, phi> lands on |l, phi - t|
    p = PhasePoint(0.5, 3.0)
    t = 1.25
    for sector in (Sector.BOSON, Sector.FERMION):
        state = coherent_state(p, sector, TR)
        moved = evolve(apply_operator("X", evolve(state, FreeRotor(), t)), FreeRotor(), -t)
        factor = cmath.exp(complex(-p.l, p.phi - 0.5 * t))
        target = coherent_state(PhasePoint(p.l, p.phi - t), sector, TR)
        delta = moved.coeffs[1:-1] - factor * target.coeffs[1:-1]
        assert np.max(np.abs(delta)) < 1e-12


def test_uncertainty_saturates_for_all_points():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = PhasePoint(rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi))
        sector = Sector.BOSON if rng.uniform() < 0.5 else Sector.FERMION
        vals = uncertainty_QP(p, sector)
        assert vals["dQ"] == vals["dP"]
        assert vals["dQ"] * vals["dP"] == pytest.approx(vals["bound"], abs=1e-13)


def test_uncertainty_at_origin_values():
    vals = uncertainty_QP(PhasePoint(0.0, 0.0), Sector.BOSON)
    assert vals["bound"] == pytest.approx(1.5972640247326624, rel=1e-14)
    assert vals["dQ"] == pytest.approx(0.5 * math.sqrt(math.e**2 - 1.0), rel=1e-14)


def test_uncertainty_is_phase_independent():
    a = uncertainty_QP(PhasePoint(0.8, 0.0), Sector.FERMION)
    b = uncertainty_QP(PhasePoint(0.8, 2.9), Sector.FERMION)
    assert a == b


def test_energy_distribution_center_weight():
    dist = energy_distribution(PhasePoint(0.0, 0.0), Sector.BOSON, jmax=12)
    weights = dict(dist)
    assert weights[0.0] == pytest.approx(0.564131226218842, rel=1e-13)
    assert sum(prob for _, prob in dist) == pytest.approx(1.0, abs=1e-12)


def test_energy_distribution_tracks_gaussian_profile():
    dist = energy_distribution(PhasePoint(0.6, 0.0), Sector.BOSON, jmax=12)
    for j, prob in dist:
        assert abs(prob - gaussian_energy_profile(j, 0.6)) < 5e-4


def test_energy_distribution_fermion_gate():
    with pytest.raises(DomainError):
        energy_distribution(PhasePoint(0.0, 0.0), Sector.FERMION)
    dist = energy_distribution(PhasePoint(0.0, 0.0), Sector.FERMION, allow_fermion=True)
    js = [j for j, _ in dist]
    assert 0.5 in js and 0.0 not in js


@pytest.mark.parametrize("jmax, message", [
    (0.5, "^jmax must be finite and at least 1"),
    (math.inf, "^jmax must be finite and at least 1"),
    (math.nan, "^jmax must be finite and at least 1"),
    (301, r"^two_jmax must be an integer in \[2, 600\], got 602$"),
    (1e300, r"^two_jmax must be an integer in \[2, 600\]"),
    (10**400, "^jmax must be finite and at least 1"),
    ("3", "^jmax must be finite and at least 1"),
    (None, "^jmax must be finite and at least 1"),
])
def test_energy_distribution_refuses_a_window_it_cannot_build(jmax, message, no_window):
    with pytest.raises(DomainError, match=message):
        energy_distribution(PhasePoint(0.0, 0.0), Sector.BOSON, jmax=jmax)


def test_energy_distribution_at_the_window_cap():
    dist = energy_distribution(PhasePoint(0.0, 0.0), Sector.BOSON, jmax=300)
    assert len(dist) == 601 and dist[0][0] == -300.0


def test_gaussian_energy_profile_normalization():
    # unit-width Gaussian scaled by 1/sqrt(pi)
    assert gaussian_energy_profile(0.3, 0.3) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)


def test_time_reversal_flips_l():
    rng = np.random.default_rng(33)
    for sector in (Sector.BOSON, Sector.FERMION):
        l = rng.uniform(-1, 1)
        phi = rng.uniform(0, 2 * math.pi)
        state = coherent_state(PhasePoint(l, phi), sector, TR)
        flipped = apply_time_reversal(state)
        target = coherent_state(PhasePoint(-l, phi), sector, TR)
        assert np.max(np.abs(flipped.coeffs - target.coeffs)) == 0.0


# ------------------------------------------------------- batched evaluation


def _within_ulps(batch, scalars, ulps=2.0):
    """Every element within `ulps` units in the last place of its scalar value's modulus."""
    batch, scalars = np.asarray(batch), np.asarray(scalars)
    return bool(np.all(np.abs(batch - scalars) <= ulps * np.spacing(np.abs(scalars))))


SCAN_NARROW = np.linspace(-2.0, 2.0, 101)
SCAN_WIDE = np.linspace(-20.0, 20.0, 101)
PHIS = np.array([0.0, 1.234, math.pi, 5.0])
VERIFY_L = np.linspace(-1.0, 1.0, 21)
MOMENT_GRID = np.linspace(-2.0, 2.0, 21)

# name -> (batched call, l, phi, extra argument s or t); the verify
# grids are those of the expectU, momentgen and heisenberg checks
BATCHED = {
    "J-scan-narrow": (expect_J, SCAN_NARROW, 0.0, None),
    "J-scan-wide": (expect_J, SCAN_WIDE, 0.0, None),
    "J-verify-deviation": (expect_J, np.linspace(0.0, 1.0, 101), 0.0, None),
    "U-scan-narrow": (expect_U, SCAN_NARROW, 0.0, None),
    "U-scan-wide": (expect_U, SCAN_WIDE, 0.0, None),
    "U-verify-phase": (expect_U, VERIFY_L[:, None], PHIS, None),
    "U-verify-modulus": (expect_U, np.linspace(-1.0, 1.0, 81), 0.0, None),
    "expJ-verify-s-minus-2": (expect_expJ, np.linspace(-2.0, 2.0, 41), 0.0, -2.0),
    "expJ-verify-ratio": (expect_expJ, MOMENT_GRID, 0.0, MOMENT_GRID[:, None]),
    "heisenberg-verify": (
        heisenberg_expectations, VERIFY_L[:, None], 0.7, np.linspace(-2.0, 2.0, 21)
    ),
}


def _call(fn, p, extra, sector):
    if fn is expect_expJ:
        return fn(extra, p, sector)
    if fn is heisenberg_expectations:
        return fn(p, extra, sector)
    return fn(p, sector)


def _parts(result):
    """The numbers of one result, in a fixed order."""
    if isinstance(result, dict):
        return [result["U_t"], result["X_t"]]
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("name", sorted(BATCHED))
@pytest.mark.parametrize("sector", [Sector.BOSON, Sector.FERMION])
def test_batched_expectations_match_scalar_calls(name, sector):
    fn, l, phi, extra = BATCHED[name]
    batch = _parts(_call(fn, PhasePoint(l, phi), extra, sector))
    shape = np.broadcast_shapes(np.shape(l), np.shape(phi), np.shape(extra))
    cases = np.broadcast(l, phi, np.zeros(()) if extra is None else extra)
    scalars = [
        _parts(_call(fn, PhasePoint(float(a), float(b)), float(c), sector)) for a, b, c in cases
    ]
    for k, part in enumerate(batch):
        assert isinstance(part, np.ndarray) and part.shape == shape
        assert _within_ulps(part, np.reshape([s[k] for s in scalars], shape))


def test_scalar_expectations_return_python_numbers():
    p = PhasePoint(0.3, 1.2)
    assert type(p.l) is float and type(p.phi) is float
    assert type(expect_J(p, Sector.BOSON)) is float
    assert type(expect_U(p, Sector.FERMION)) is complex
    assert [type(v) for v in expect_expJ(0.5, p, Sector.BOSON)] == [float, float]
    assert {type(v) for v in heisenberg_expectations(p, 0.4, Sector.BOSON).values()} == {complex}
    assert type(p.xi) is complex and type(approx_expect_J(0.3, Sector.BOSON)) is float


def test_phase_point_grid_is_validated_and_normalized():
    p = PhasePoint(np.linspace(-1.0, 1.0, 3)[:, None], np.array([7.0, -0.5]))
    assert p.shape == (3, 2)
    assert np.array_equal(p.phi, [7.0 - 2.0 * math.pi, 2.0 * math.pi - 0.5])
    assert np.array_equal(p.xi, np.exp(-p.l + 1j * p.phi))
    with pytest.raises(DomainError, match="broadcast"):
        PhasePoint(np.zeros(3), np.zeros(4))


def test_one_non_finite_element_is_domain_error():
    grid = np.array([0.1, 0.2, math.nan])
    with pytest.raises(DomainError):
        PhasePoint(grid, 0.0)
    with pytest.raises(DomainError):
        PhasePoint(0.1, np.array([0.0, math.inf]))
    p = PhasePoint(np.array([0.1, 0.2, 0.3]), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError):
            heisenberg_expectations(p, grid, Sector.BOSON)
        with pytest.raises(DomainError):
            expect_expJ(grid, p, Sector.FERMION)


def test_wide_grid_overflows_only_where_the_value_does():
    # the sums S(2l) peak at e^(l^2), past the double range once
    # |l| > 26.45; the ratio observables and the probabilities cancel
    # that peak, norm_sq and overlap_closed carry it in their values
    p = PhasePoint(np.linspace(-27.0, 27.0, 101), 0.0)
    edge = PhasePoint(27.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sector in (Sector.BOSON, Sector.FERMION):
            assert np.all(np.isfinite(expect_U(p, sector)))
            assert np.all(np.isfinite(expect_expJ(0.5, p, sector)[0]))
            moments = heisenberg_expectations(p, 1.0, sector)
            assert all(np.all(np.isfinite(v)) for v in moments.values())
            # <J> goes through theta_3/theta_4 at v = l, which stay in range
            assert np.all(np.isfinite(expect_J(p, sector)))
            probs = [prob for _, prob in energy_distribution(edge, sector, allow_fermion=True)]
            assert all(0.0 <= prob < 1.0 for prob in probs)
            for call in (
                lambda: norm_sq(edge, sector),
                lambda: overlap_closed(edge, edge, sector),
            ):
                with pytest.raises(RangeOverflowError):
                    call()


@pytest.mark.parametrize("sector", [Sector.BOSON, Sector.FERMION])
def test_expect_expJ_overflows_where_its_value_does(sector):
    # <e^(sJ)> is about e^(s*l + s^2/4); the typed limit is e^700
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        edge = PhasePoint(np.array([699.0, -699.0]), 0.0)
        inside, _ = expect_expJ(np.array([1.0, -1.0]), edge, sector)
        assert np.all(np.isfinite(inside)) and np.all(inside > 1e303)
        for s, l in ((1.0, 1000.0), (-1.0, -1000.0), (30.0, 27.0), ([0.5, 1e200], 0.0)):
            with pytest.raises(RangeOverflowError):
                expect_expJ(np.array(s), PhasePoint(np.array([l]), 0.0), sector)
        # far below the range the value underflows to zero, as e^(s*l) does
        tiny, approx = expect_expJ(-1.0, PhasePoint(1000.0, 0.0), sector)
        assert tiny == 0.0 and approx == 0.0


@pytest.mark.parametrize("sector", [Sector.BOSON, Sector.FERMION])
def test_heisenberg_overflows_only_with_xi(sector):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = heisenberg_expectations(PhasePoint(-699.0, 0.3), 0.5, sector)
        assert all(cmath.isfinite(v) for v in values.values())
        with pytest.raises(RangeOverflowError, match="xi"):
            heisenberg_expectations(PhasePoint(np.array([0.0, -701.0]), 0.3), 0.5, sector)
        far = heisenberg_expectations(PhasePoint(1e6, 0.3), 0.5, sector)
        assert abs(far["U_t"]) > 0.5 and far["X_t"] == 0.0
        # the phase c*t would overflow
        with pytest.raises(RangeOverflowError):
            heisenberg_expectations(PhasePoint(np.array([1e299]), 0.3), np.array([1e10]), sector)


def test_ratio_observables_at_the_largest_l():
    # l is an integer this far out, so the ratio is that at l = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sector in (Sector.BOSON, Sector.FERMION):
            far = expect_U(PhasePoint(np.array([-1e300, 1e300]), 0.0), sector)
            assert np.array_equal(far, np.full(2, expect_U(PhasePoint(0.0, 0.0), sector)))
            for call in (
                lambda: expect_U(PhasePoint(np.array([1e308]), 0.0), sector),
                lambda: expect_expJ(0.0, PhasePoint(np.array([-1e308]), 0.0), sector),
                lambda: heisenberg_expectations(PhasePoint(np.array([1e308]), 0.0), 0.0, sector),
            ):
                with pytest.raises(RangeOverflowError):
                    call()


def test_empty_and_single_point_grids():
    empty = PhasePoint(np.array([]), 0.0)
    assert expect_J(empty, Sector.BOSON).shape == (0,)
    assert expect_U(empty, Sector.FERMION).shape == (0,)
    assert heisenberg_expectations(empty, 0.5, Sector.BOSON)["X_t"].shape == (0,)
    single = PhasePoint(np.array([0.4]), 1.0)
    assert expect_J(single, Sector.FERMION)[0] == expect_J(PhasePoint(0.4, 1.0), Sector.FERMION)
    assert expect_U(single, Sector.BOSON)[0] == expect_U(PhasePoint(0.4, 1.0), Sector.BOSON)


def test_single_point_functions_reject_grids():
    grid = PhasePoint(np.array([0.1, 0.2]), 0.0)
    for call in (
        lambda: coherent_state(grid, Sector.BOSON, TR),
        lambda: norm_sq(grid, Sector.BOSON),
        lambda: overlap_closed(grid, PhasePoint(0.0, 0.0), Sector.BOSON),
        lambda: uncertainty_QP(grid, Sector.BOSON),
        lambda: energy_distribution(grid, Sector.BOSON),
        lambda: relative_expect_U(PhasePoint(0.0, 0.0), grid, Sector.BOSON),
    ):
        with pytest.raises(DomainError, match="single phase-space point"):
            call()


# ------------------------------------------------ finite inputs, typed overflow


def test_uncertainty_overflows_only_where_its_bound_does():
    # e^(-2l) passes e^700 below l = -350; no bare OverflowError from math.exp
    for l in (-351.0, -1000.0, -1e300):
        with pytest.raises(RangeOverflowError, match="uncertainty bound"):
            uncertainty_QP(PhasePoint(l, 0.0), Sector.BOSON)
    vals = uncertainty_QP(PhasePoint(-350.0, 0.0), Sector.FERMION)
    assert math.isfinite(vals["bound"]) and math.isfinite(vals["dQ"] * vals["dP"])
    assert uncertainty_QP(PhasePoint(1e300, 0.0), Sector.BOSON)["bound"] == 0.0


@pytest.mark.parametrize("j, l", [(1e300, 0.0), (0.0, -1e300), (1e308, -1e308), (-1e200, 1e200)])
def test_energy_profile_underflows_where_the_square_overflows(j, l):
    assert gaussian_energy_profile(j, l) == 0.0


@pytest.mark.parametrize("s, l", [
    (1e200, 1e200),
    (30.0, 700.0),
    (np.array([1.0, 30.0]), 700.0),
    (1.0, np.array([0.0, 1e301])),
])
def test_approx_expJ_overflow_is_typed(s, l):
    # expect_expJ and its approximation share the reach and the e^700 limit: no inf, no warning
    for sector in (Sector.BOSON, Sector.FERMION):
        with pytest.raises(RangeOverflowError):
            expect_expJ(s, PhasePoint(l, 0.0), sector)


def test_approx_expJ_keeps_its_bits_inside_the_range():
    s = np.array([-2.0, 0.5, 1.2, 3.0])
    l = np.array([0.3, -20.0, 699.0 / 1.2, 2.5])
    _, approx = expect_expJ(s, PhasePoint(l, 0.0), Sector.FERMION)
    assert np.array_equal(approx, np.exp(0.25 * s * s + s * l))
    assert expect_expJ(-1.0, PhasePoint(1000.0, 0.0), Sector.BOSON)[1] == 0.0
