"""Functional representation: evaluation, quadrature, reproducing kernels."""

from __future__ import annotations

import cmath
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from circle_cs._reference import _kernel_identity, _node_values
from circle_cs.bargmann import (
    MAX_N_L,
    MAX_N_PHI,
    Quadrature,
    _factors,
    _kernel_coeffs,
    covariant_symbol,
    evaluate,
    inner_quadrature,
    reproducing_apply,
)
from circle_cs.coherent import PhasePoint, coherent_state, required_two_jmax
from circle_cs.errors import DomainError, ParityError, RangeOverflowError
from circle_cs.hilbert import (
    MAX_TWO_JMAX,
    Sector,
    StateVector,
    Truncation,
    apply_operator,
    basis_state,
    inner,
    operator_matrix,
)
from circle_cs.theta import _pair_count, gaussian_lattice_sum

TR = Truncation(40)
QUAD = Quadrature(40, 64)


def _random_state(sector, seed):
    rng = np.random.default_rng(seed)
    size = TR.size(sector)
    return StateVector(sector, TR, rng.normal(size=size) + 1j * rng.normal(size=size))


def test_basis_function_point_value():
    s = basis_state(Sector.BOSON, 1.0, Truncation(8))
    val = evaluate(s, PhasePoint(0.3, 0.9))
    assert val == pytest.approx(cmath.exp(complex(0.3, 0.9) - 0.5), rel=1e-14)


def test_evaluate_agrees_with_coherent_overlap():
    for sector in (Sector.BOSON, Sector.FERMION):
        s = _random_state(sector, 2)
        p = PhasePoint(-0.4, 2.2)
        assert abs(evaluate(s, p) - inner(coherent_state(p, sector, TR), s)) < 1e-12


@pytest.mark.parametrize("sector", [Sector.BOSON, Sector.FERMION])
def test_evaluate_on_a_grid_has_the_bits_of_the_scalar_calls(sector):
    s = _random_state(sector, 3)
    rng = np.random.default_rng(4)
    l = rng.uniform(-3.0, 3.0, size=(6, 1))
    phi = rng.uniform(-7.0, 7.0, size=(1, 5))
    values = evaluate(s, PhasePoint(l, phi))
    assert values.shape == (6, 5) and values.dtype == np.complex128
    for (a, b), value in np.ndenumerate(values):
        scalar = evaluate(s, PhasePoint(float(l[a, 0]), float(phi[0, b])))
        assert type(scalar) is complex
        assert complex(value) == scalar


def test_evaluate_on_an_empty_grid():
    values = evaluate(_random_state(Sector.FERMION, 5), PhasePoint(np.zeros((0, 3)), 0.0))
    assert values.shape == (0, 3) and values.dtype == np.complex128


def test_evaluate_refuses_a_grid_with_a_nan():
    with pytest.raises(DomainError, match="finite real numbers"):
        evaluate(_random_state(Sector.BOSON, 6), PhasePoint(np.array([0.1, math.nan]), 0.0))


def test_evaluate_raises_for_a_whole_grid_with_one_point_past_the_range():
    # the monomial j = 20 at l = 60 is e^(20 * 60 - 200) = e^1000
    s = _random_state(Sector.BOSON, 7)
    grid = PhasePoint(np.array([[0.0, 0.5], [60.0, -0.5]]), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeOverflowError, match=r"^evaluation on a grid overflows"):
            evaluate(s, grid)
        with pytest.raises(
            RangeOverflowError, match=r"^evaluation at l = 60.0 overflows the basis monomials$"
        ):
            evaluate(s, PhasePoint(60.0, 1.0))


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
    got = _node_values(quad, sector, TR.two_jmax, coeffs)
    assert got.shape == (quad.n_l, quad.n_phi)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_nodes_are_cached_read_only_hermite_rule():
    lv, phi, weights = QUAD.nodes()
    ref_l, ref_w = np.polynomial.hermite.hermgauss(QUAD.n_l)
    assert np.array_equal(lv, ref_l)
    assert np.array_equal(phi, 4.0 * math.pi * np.arange(QUAD.n_phi) / QUAD.n_phi)
    assert np.array_equal(weights, np.outer(ref_w, np.full(64, 1.0 / (64 * math.sqrt(math.pi)))))
    assert Quadrature(40, 64).nodes() is QUAD.nodes()
    for array in (lv, phi, weights, *_factors(QUAD.n_l, QUAD.n_phi, Sector.FERMION, TR.two_jmax)):
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


def _node_route(quad, sector_a, two_a, a, sector_b, two_b, b):
    """The same quadrature over node values, sum W conj(grid of a) grid of b,
    and its rounding scale, the same sum over |grid of a| |grid of b|."""
    va, vb = _node_values(quad, sector_a, two_a, a), _node_values(quad, sector_b, two_b, b)
    _, _, weights = quad.nodes()
    return np.sum(weights * np.conj(va) * vb), np.sum(weights * np.abs(va) * np.abs(vb))


@pytest.mark.parametrize("n_l, n_phi, two_jmax", [(40, 64, 40), (100, 128, 40), (8, 8, 60)])
@pytest.mark.parametrize("sector", [Sector.BOSON, Sector.FERMION])
def test_gram_route_matches_node_route(n_l, n_phi, two_jmax, sector):
    # the gap over the rounding scale measured at most 4.8e-16 (20 seeds of
    # these draws); the bound is 4x that
    quad, trunc = Quadrature(n_l, n_phi), Truncation(two_jmax)
    other = Sector.FERMION if sector is Sector.BOSON else Sector.BOSON
    rng = np.random.default_rng([n_l, n_phi, sector.parity])

    def state(s):
        size = trunc.size(s)
        return StateVector(s, trunc, rng.normal(size=size) + 1j * rng.normal(size=size))

    for _ in range(5):
        f, g = state(sector), state(sector)
        p1, p2 = (PhasePoint(rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0 * math.pi)) for _ in "12")
        k1 = (sector, *_kernel_coeffs(p1, sector, quad))
        k2 = (sector, *_kernel_coeffs(p2, sector, quad))
        sf, sg = (sector, two_jmax, f.coeffs), (sector, two_jmax, g.coeffs)
        pairs = [
            (inner_quadrature(f, g, quad), _node_route(quad, *sf, *sg)),
            (reproducing_apply(f, p1, sector, quad), _node_route(quad, *k1, *sf)),
            (_kernel_identity(p1, p2, sector, quad)[1], _node_route(quad, *k1, *k2)),
        ]
        for got, (ref, scale) in pairs:
            assert abs(got - ref) <= 2e-15 * scale
        # the Gram mask, not a sector test, makes the cross-sector sum vanish
        assert reproducing_apply(state(other), p1, sector, quad) == 0j


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
    lhs, rhs = _kernel_identity(PhasePoint(0, 0), PhasePoint(0, 0), Sector.BOSON, QUAD)
    assert lhs.real == pytest.approx(1.772637204826652, rel=1e-13)
    assert abs(rhs - lhs) < 1e-6
    lhs, rhs = _kernel_identity(PhasePoint(0, 0), PhasePoint(0, 0), Sector.FERMION, QUAD)
    assert lhs.real == pytest.approx(1.7722704969843799, rel=1e-13)
    assert abs(rhs - lhs) < 1e-6


def test_kernel_identity_generic_points():
    rng = np.random.default_rng(17)
    for sector in (Sector.BOSON, Sector.FERMION):
        for _ in range(5):
            p1 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            p2 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            lhs, rhs = _kernel_identity(p1, p2, sector, QUAD)
            assert abs(rhs - lhs) < 1e-5


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
    # the smallest fermion window, j = +-1/2: the kernel is 2 e^(-1/4) at the origin
    res = covariant_symbol(np.eye(2), PhasePoint(0.0, 0.0), Sector.FERMION)
    assert abs(res["kernel"] - 2.0 * math.exp(-0.25)) < 1e-15


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


def test_kernel_window_stays_within_the_window_cap():
    # _pair_count refuses a drift past 52.9 (peak term e^700); below it the
    # kernel window 2P stays at 110 or less at the series tolerance
    for half in (False, True):
        assert 2 * _pair_count(1.0, 52.9, half) <= 110 < MAX_TWO_JMAX
        with pytest.raises(RangeOverflowError):
            _pair_count(1.0, 53.0, half)


@pytest.mark.parametrize("n, sector", [
    (1, Sector.BOSON), (0, Sector.FERMION), (603, Sector.BOSON), (602, Sector.FERMION),
])
def test_covariant_symbol_refuses_a_window_truncation_cannot_hold(n, sector):
    # no window of a sector has 1 boson or 0 fermion slots, and none passes the cap
    with pytest.raises(DomainError, match=r"^two_jmax must be an integer in \[2, 600\], got "):
        covariant_symbol(np.eye(n), PhasePoint(0.0, 0.0), sector)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)], ids=repr)
def test_covariant_symbol_refuses_a_non_finite_matrix(bad):
    # an all-NaN matrix used to give NaN kernel and symbol without an error
    for matrix in (np.full((41, 41), bad), np.where(np.eye(41) == 1.0, bad, 0.0)):
        with pytest.raises(DomainError, match="^operator matrix entries must be finite$"):
            covariant_symbol(matrix, PhasePoint(0.4, 1.3), Sector.BOSON)


def test_covariant_symbol_refuses_a_wide_matrix_before_copying_it():
    a = np.zeros((1001, 1001))  # its complex copy would take 16 MB
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="got 1000$"):
            covariant_symbol(a, PhasePoint(0.0, 0.0), Sector.BOSON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_covariant_symbol_window_parity():
    # boson windows have odd size; an even matrix cannot be boson
    with pytest.raises(ParityError, match="^boson windows have odd size, got 4$"):
        covariant_symbol(np.eye(4), PhasePoint(0, 0), Sector.BOSON)
    with pytest.raises(ParityError, match="^fermion windows have even size, got 5$"):
        covariant_symbol(np.eye(5), PhasePoint(0, 0), Sector.FERMION)
    with pytest.raises(DomainError):
        covariant_symbol(np.ones((3, 4)), PhasePoint(0, 0), Sector.BOSON)


def test_kernel_symmetry_under_argument_swap():
    p1 = PhasePoint(0.7, 1.9)
    p2 = PhasePoint(-0.2, 5.1)
    for half in (False, True):
        k12 = complex(gaussian_lattice_sum(complex(-(p1.l + p2.l), p2.phi - p1.phi), half=half))
        k21 = complex(gaussian_lattice_sum(complex(-(p1.l + p2.l), p1.phi - p2.phi), half=half))
        assert k12 == k21.conjugate()


def test_point_functions_reject_grids():
    grid = PhasePoint(np.array([0.1, 0.2]), 0.0)
    s = basis_state(Sector.BOSON, 0.0, TR)
    for call in (
        lambda: reproducing_apply(s, grid, Sector.BOSON, QUAD),
        lambda: covariant_symbol(operator_matrix("X", Sector.BOSON, TR), grid, Sector.BOSON),
    ):
        with pytest.raises(DomainError, match="single phase-space point"):
            call()


def _kernel_on_grid_reference(p, quad, sector, conjugate_point):
    """The closed-form lattice sum at every node, independent of the engine.

    K(eta*, xi_grid) (conjugate_point=True) or K(xi_grid*, gamma); both
    reduce to S(w) with w = log of the conjugated product.
    """
    lv, phi, _ = quad.nodes()
    if conjugate_point:
        w = complex(-p.l, -p.phi) + (-lv[:, None] + 1j * phi[None, :])
    else:
        w = (-lv[:, None] - 1j * phi[None, :]) + complex(-p.l, p.phi)
    return gaussian_lattice_sum(w, half=(sector is Sector.FERMION))


def _engine_kernel(p, quad, sector, conjugate_point):
    values = _node_values(quad, sector, *_kernel_coeffs(p, sector, quad))
    return np.conj(values) if conjugate_point else values


@pytest.mark.parametrize("conjugate_point", [True, False])
@pytest.mark.parametrize("sector", [Sector.BOSON, Sector.FERMION])
def test_engine_kernel_matches_per_node_lattice_sum(sector, conjugate_point):
    for p in (PhasePoint(0.7, 1.9), PhasePoint(-1.0, 5.1)):
        ref = _kernel_on_grid_reference(p, QUAD, sector, conjugate_point)
        got = _engine_kernel(p, QUAD, sector, conjugate_point)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "sector, conjugate_point", [(Sector.BOSON, True), (Sector.FERMION, False)]
)
def test_engine_kernel_matches_per_node_lattice_sum_at_largest_quadrature(
    sector, conjugate_point
):
    # one per-node grid costs about 0.8 s here, so each sector takes one direction
    quad = Quadrature(MAX_N_L, MAX_N_PHI)
    p = PhasePoint(0.4, 2.3)
    ref = _kernel_on_grid_reference(p, quad, sector, conjugate_point)
    got = _engine_kernel(p, quad, sector, conjugate_point)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("l", [38.0, 40.0, 45.0])
def test_overflowing_kernel_and_state_are_typed(l):
    # the pyproject filter turns any numpy RuntimeWarning into a failure
    s = basis_state(Sector.BOSON, 1.0, TR)
    with pytest.raises(RangeOverflowError):
        reproducing_apply(s, PhasePoint(l, 0.3), Sector.BOSON, QUAD)
    with pytest.raises(RangeOverflowError):
        coherent_state(PhasePoint(l, 0.0), Sector.BOSON, Truncation(required_two_jmax(l)))


def test_reproducing_accuracy_domain():
    # documented: relative error below 1e-11 for |l| <= 3 and |j| <= 3
    for sector in (Sector.BOSON, Sector.FERMION):
        for j in TR.j_values(sector)[np.abs(TR.j_values(sector)) <= 3.0]:
            f = basis_state(sector, float(j), TR)
            for l in np.linspace(-3.0, 3.0, 7):
                p = PhasePoint(l, 1.1)
                ref = evaluate(f, p)
                assert abs(reproducing_apply(f, p, sector, QUAD) - ref) <= 1e-11 * abs(ref)


def test_reproducing_apply_far_from_the_origin():
    # documented: below 5e-16 for j = 1 out to l = 15; measured at most 1.1e-15
    # over these cases (j = -3 at l = 8 and 15), the bound is 4.5x that
    for j, l in itertools.product((1.0, -3.0, 3.0), (6.0, 8.0, 10.0, 15.0)):
        f = basis_state(Sector.BOSON, j, TR)
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            ref = evaluate(f, PhasePoint(l, phi))
            got = reproducing_apply(f, PhasePoint(l, phi), Sector.BOSON, QUAD)
            assert abs(got - ref) <= 5e-15 * abs(ref)


def test_kernel_identity_accuracy_domain():
    # documented: relative gap below 1e-10 for |l_1|, |l_2| <= 2 at 40 x 64
    for sector in (Sector.BOSON, Sector.FERMION):
        for l1, l2 in ((2.0, 2.0), (-2.0, -2.0), (2.0, -2.0), (1.3, -0.4)):
            lhs, rhs = _kernel_identity(PhasePoint(l1, 0.3), PhasePoint(l2, 2.0), sector, QUAD)
            assert abs(rhs - lhs) <= 1e-10 * abs(lhs)
