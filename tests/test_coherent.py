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
from circle_cs.errors import DomainError, TruncationError
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
    assert approx_expJ(1.2, 0.3) == pytest.approx(math.exp(1.2**2 / 4.0 + 1.2 * 0.3), rel=1e-15)


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
