"""Functional representation: evaluation, quadrature, reproducing kernels."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from circle_cs.bargmann import (
    MAX_N_L,
    MAX_N_PHI,
    Quadrature,
    covariant_symbol,
    evaluate,
    inner_quadrature,
    kernel_identity_check,
    reproducing_apply,
)
from circle_cs.coherent import PhasePoint, coherent_state
from circle_cs.errors import DomainError, ParityError
from circle_cs.hilbert import (
    Sector,
    Truncation,
    apply_operator,
    basis_state,
    inner,
    make_state,
    operator_matrix,
)

TR = Truncation(40)
QUAD = Quadrature(40, 64)


def _random_state(sector, seed):
    rng = np.random.default_rng(seed)
    size = TR.size(sector)
    return make_state(sector, TR, rng.normal(size=size) + 1j * rng.normal(size=size))


def test_basis_function_point_value():
    s = basis_state(Sector.BOSON, 1.0, Truncation(8))
    val = evaluate(s, PhasePoint(0.3, 0.9))
    assert val == pytest.approx(cmath.exp(complex(0.3, 0.9) - 0.5), rel=1e-14)


def test_evaluate_agrees_with_coherent_overlap():
    for sector in (Sector.BOSON, Sector.FERMION):
        s = _random_state(sector, 2)
        p = PhasePoint(-0.4, 2.2)
        assert abs(evaluate(s, p) - inner(coherent_state(p, sector, TR), s)) < 1e-12


def test_quadrature_validation():
    with pytest.raises(DomainError):
        Quadrature(1, 64)
    with pytest.raises(DomainError):
        Quadrature(40, 63)
    with pytest.raises(DomainError):
        Quadrature(40, 2)
    with pytest.raises(DomainError):
        Quadrature(MAX_N_L + 1, 64)
    with pytest.raises(DomainError):
        Quadrature(40, MAX_N_PHI + 2)
    assert (MAX_N_L, MAX_N_PHI) == (300, 1024)
    Quadrature(MAX_N_L, MAX_N_PHI)  # construction is lazy: no nodes are built
    with pytest.raises(DomainError):
        QUAD.grid_values(Sector.BOSON, 40, np.ones(40))
    with pytest.raises(DomainError):
        QUAD.factors(Sector.BOSON, 1)


@pytest.mark.parametrize(
    "quad", [QUAD] + [Quadrature(n_l, 8) for n_l in (2, 4, 8, 16)], ids=str
)
@pytest.mark.parametrize("sector", [Sector.BOSON, Sector.FERMION])
def test_engine_grid_values_match_direct_tensor(quad, sector):
    rng = np.random.default_rng([quad.n_l, quad.n_phi, sector.parity])
    j = TR.j_values(sector)
    coeffs = rng.normal(size=j.size) + 1j * rng.normal(size=j.size)
    lv, _ = np.polynomial.hermite.hermgauss(quad.n_l)
    phi = 4.0 * math.pi * np.arange(quad.n_phi) / quad.n_phi
    z = lv[:, None] + 1j * phi[None, :]
    monomials = np.exp(np.multiply.outer(j, z) - 0.5 * (j * j)[:, None, None])
    direct = np.tensordot(coeffs, monomials, axes=(0, 0))
    got = quad.grid_values(sector, TR.two_jmax, coeffs)
    assert got.shape == (quad.n_l, quad.n_phi)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_nodes_are_cached_read_only_hermite_rule():
    lv, phi, weights = QUAD.nodes()
    ref_l, ref_w = np.polynomial.hermite.hermgauss(QUAD.n_l)
    assert np.array_equal(lv, ref_l)
    assert np.array_equal(phi, 4.0 * math.pi * np.arange(QUAD.n_phi) / QUAD.n_phi)
    assert np.array_equal(weights, np.outer(ref_w, np.full(64, 1.0 / (64 * math.sqrt(math.pi)))))
    assert Quadrature(40, 64).nodes() is QUAD.nodes()
    for array in (lv, phi, weights, *QUAD.factors(Sector.FERMION, TR.two_jmax)):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_orthonormality_small_indices():
    for sector in (Sector.BOSON, Sector.FERMION):
        js = (-1.0, 0.0, 1.0) if sector is Sector.BOSON else (-0.5, 0.5, 1.5)
        for j in js:
            for k in js:
                val = inner_quadrature(
                    basis_state(sector, j, TR), basis_state(sector, k, TR), QUAD
                )
                target = 1.0 if j == k else 0.0
                assert abs(val - target) < 1e-8


def test_inner_quadrature_requires_matching_sector():
    f = basis_state(Sector.BOSON, 0.0, TR)
    g = basis_state(Sector.FERMION, 0.5, TR)
    with pytest.raises(DomainError):
        inner_quadrature(f, g, QUAD)


def test_functional_form_of_U():
    # (U f)(xi*) = f(xi* / e) / (sqrt(e) xi*)
    f = _random_state(Sector.BOSON, 4)
    p = PhasePoint(0.2, 1.0)
    lhs = evaluate(apply_operator("U", f), p)
    rhs = (
        evaluate(f, PhasePoint(p.l - 1.0, p.phi))
        * cmath.exp(complex(p.l, p.phi))
        * math.exp(-0.5)
    )
    assert abs(lhs - rhs) < 1e-12


def test_functional_form_of_Xdag_is_multiplication():
    f = _random_state(Sector.FERMION, 5)
    p = PhasePoint(-0.3, 2.6)
    lhs = evaluate(apply_operator("Xdag", f), p)
    rhs = evaluate(f, p) * cmath.exp(complex(-p.l, -p.phi))
    assert abs(lhs - rhs) < 1e-12


def test_kernel_identity_at_origin():
    res = kernel_identity_check(PhasePoint(0, 0), PhasePoint(0, 0), Sector.BOSON, QUAD)
    assert res["lhs"].real == pytest.approx(1.772637204826652, rel=1e-13)
    assert abs(res["rhs"] - res["lhs"]) < 1e-6
    res = kernel_identity_check(PhasePoint(0, 0), PhasePoint(0, 0), Sector.FERMION, QUAD)
    assert res["lhs"].real == pytest.approx(1.7722704969843799, rel=1e-13)
    assert abs(res["rhs"] - res["lhs"]) < 1e-6


def test_kernel_identity_generic_points():
    rng = np.random.default_rng(17)
    for sector in (Sector.BOSON, Sector.FERMION):
        for _ in range(5):
            p1 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            p2 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            res = kernel_identity_check(p1, p2, sector, QUAD)
            assert abs(res["rhs"] - res["lhs"]) < 1e-5


def test_reproducing_property_on_basis_functions():
    for sector in (Sector.BOSON, Sector.FERMION):
        j = 1.0 if sector is Sector.BOSON else 1.5
        f = basis_state(sector, j, TR)
        p = PhasePoint(0.3, 1.1)
        got = reproducing_apply(f, p, sector, QUAD)
        assert abs(got - evaluate(f, p)) < 1e-7


def test_kernel_annihilates_the_opposite_sector():
    f = basis_state(Sector.FERMION, 0.5, TR)
    val = reproducing_apply(f, PhasePoint(0.2, 0.9), Sector.BOSON, QUAD)
    assert abs(val) < 1e-7
    g = basis_state(Sector.BOSON, 1.0, TR)
    val = reproducing_apply(g, PhasePoint(0.2, 0.9), Sector.FERMION, QUAD)
    assert abs(val) < 1e-7


def test_covariant_symbol_of_identity_is_one():
    for sector in (Sector.BOSON, Sector.FERMION):
        n = TR.size(sector)
        res = covariant_symbol(np.eye(n), PhasePoint(0.4, 1.3), sector)
        assert abs(res["symbol"] - 1.0) < 1e-12


def test_covariant_symbol_of_X_is_the_label():
    p = PhasePoint(-0.6, 2.0)
    for sector in (Sector.BOSON, Sector.FERMION):
        x = operator_matrix("X", sector, TR)
        res = covariant_symbol(x, p, sector)
        assert abs(res["symbol"] - p.xi) < 1e-12


def test_covariant_symbol_of_J_at_unit_radius():
    jmat = operator_matrix("J", Sector.BOSON, TR)
    res = covariant_symbol(jmat, PhasePoint(1.0, 0.0), Sector.BOSON)
    assert abs(res["symbol"] - 1.0) < 1e-12


def test_covariant_symbol_window_parity():
    # boson windows have odd size; an even matrix cannot be boson
    with pytest.raises(ParityError):
        covariant_symbol(np.eye(4), PhasePoint(0, 0), Sector.BOSON)
    with pytest.raises(ParityError):
        covariant_symbol(np.eye(5), PhasePoint(0, 0), Sector.FERMION)
    with pytest.raises(DomainError):
        covariant_symbol(np.ones((3, 4)), PhasePoint(0, 0), Sector.BOSON)


def test_kernel_symmetry_under_argument_swap():
    from circle_cs.theta import gaussian_lattice_sum

    p1 = PhasePoint(0.7, 1.9)
    p2 = PhasePoint(-0.2, 5.1)
    for half in (False, True):
        k12 = complex(gaussian_lattice_sum(complex(-(p1.l + p2.l), p2.phi - p1.phi), half=half))
        k21 = complex(gaussian_lattice_sum(complex(-(p1.l + p2.l), p1.phi - p2.phi), half=half))
        assert k12 == k21.conjugate()


def test_point_functions_reject_grids():
    grid = PhasePoint(np.array([0.1, 0.2]), 0.0)
    origin = PhasePoint(0.0, 0.0)
    s = basis_state(Sector.BOSON, 0.0, TR)
    for call in (
        lambda: evaluate(s, grid),
        lambda: reproducing_apply(s, grid, Sector.BOSON, QUAD),
        lambda: kernel_identity_check(origin, grid, Sector.BOSON, QUAD),
        lambda: covariant_symbol(operator_matrix("X", Sector.BOSON, TR), grid, Sector.BOSON),
    ):
        with pytest.raises(DomainError, match="single phase-space point"):
            call()
