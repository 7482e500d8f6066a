"""The verify battery as a table: names, case counts, failures, NaN handling."""

from __future__ import annotations

import importlib
import json
import math
import warnings

import numpy as np
import pytest

from circle_cs import _reference, verify
from circle_cs.bargmann import Quadrature
from circle_cs.errors import RangeOverflowError
from circle_cs.hilbert import Sector

EXPECTED_CASES = (
    ("theta3-inversion", 81),
    ("theta2-inversion", 81),
    ("theta2-half-period-shift", 200),
    ("theta3-general-inversion", 41),
    ("theta-evenness", 200),
    ("theta-logderiv-fd", 76),
    ("algebra-JU-commutator", 79),
    ("X-factorization", 79),
    ("XXdag-ratio", 77),
    ("deformed-algebra", 231),
    ("q-boson-relation", 77),
    ("time-reversal-conjugation", 77),
    ("U-unitarity-interior", 10),
    ("expectJ-lattice-exact", 9),
    ("expectJ-series-agreement", 50),
    ("expectJ-approx-residual", 202),
    ("expectJ-amplitude-window", 202),
    ("expectU-phase", 168),
    ("expectU-modulus-approx", 162),
    ("expectU-series-agreement", 40),
    ("relative-expectU-modulus", 6),
    ("uncertainty-equality", 50),
    ("uncertainty-basis-gap", 77),
    ("momentgen-s-minus-2", 82),
    ("momentgen-ratio", 882),
    ("energy-distribution-gaussian", 525),
    ("energy-distribution-normalization", 21),
    ("linear-evolution-stability", 20),
    ("free-evolution-X", 18),
    ("heisenberg-approx-U", 882),
    ("heisenberg-approx-X", 882),
    ("heisenberg-relative-phase", 882),
    ("coherent-eigenstate-residual", 6),
    ("time-reversal-coherent", 20),
    ("freerotor-conservation", 10),
    ("quadrature-orthonormality", 85),
    ("bargmann-eval-vs-inner", 20),
    ("bargmann-intertwining", 60),
    ("bargmann-functional-actions", 100),
    ("kernel-identity-fixed", 2),
    ("kernel-identity-random", 20),
    ("kernel-reproducing", 26),
    ("kernel-cross-sector", 22),
    ("kernel-idempotency", 5120),
    ("kernel-parity-projection", 2560),
    ("kernel-symmetry", 20),
    ("covariant-symbol", 5),
    ("quadrature-refinement", 4),
)

DOCUMENTED_GAPS = {
    "expectJ-approx-residual",
    "heisenberg-approx-U",
    "heisenberg-approx-X",
    "heisenberg-relative-phase",
}


def test_default_battery_cases_and_failures():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verify.run_verify(verify.load_config(None))
    assert tuple((c.name, c.n_cases) for c in report.checks) == EXPECTED_CASES
    assert {c.name for c in report.checks if not c.passed} == DOCUMENTED_GAPS
    for check in report.checks:
        assert check.passed == (check.max_abs_error <= check.tolerance)


def test_nan_case_fails_its_check_wherever_it_sits(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (
        ("nan-last", 1e-12, lambda ctx: [1e-16, math.nan]),
        ("nan-first", 1e-12, lambda ctx: [math.nan, 1e-16]),
    ))
    report = verify.run_verify(verify.load_config(None))
    assert [c.name for c in report.checks] == ["nan-last", "nan-first"]
    for check in report.checks:
        assert not check.passed
        assert math.isnan(check.max_abs_error)
        assert check.n_cases == 2


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_nan_error_is_written_as_null(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (
        ("nan-last", 1e-12, lambda ctx: [1e-16, math.nan]),
        ("finite", 1e-12, lambda ctx: [1e-16, 2e-16]),
    ))
    text = verify.run_verify(verify.load_config(None)).to_json()
    checks = json.loads(text, parse_constant=_reject_constant)["checks"]
    assert checks[0]["max_abs_error"] is None and checks[0]["passed"] is False
    assert checks[1]["max_abs_error"] == 2e-16 and checks[1]["passed"] is True


def test_batched_theta_checks_draw_the_scalar_sample():
    # theta2-half-period-shift and theta-evenness draw their v in one call;
    # the points must be those of the per-case draws, real part first
    for index, re_max, im_max in ((3, 1.0, 0.5), (5, 2.0, 1.0)):
        rng = np.random.default_rng([20260817, index])
        scalar = [
            complex(rng.uniform(-re_max, re_max), rng.uniform(-im_max, im_max))
            for _ in range(200)
        ]
        batch = verify._random_v(np.random.default_rng([20260817, index]), re_max, im_max)
        assert batch.shape == (2, 100)
        assert batch.ravel().tolist() == scalar


# The battery's two modules: the checks, and the reference routes they import
BATTERY_MODULES = (verify, _reference)


def _recorder(monkeypatch, name):
    """Wrap name in each battery module that binds it; the list of the calls' arguments.

    A call the battery makes counts, whichever of its modules makes it; a
    call the library makes inside its own layers does not.
    """
    calls = []
    [function] = {getattr(module, name) for module in BATTERY_MODULES if hasattr(module, name)}

    def record(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in BATTERY_MODULES:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, record)
    return calls


def _only_check(name):
    [fn] = [fn for check, _, fn in verify._CHECKS if check == name]
    return fn


def test_batched_point_checks_draw_the_per_case_sample(monkeypatch):
    # expectJ-series-agreement, expectU-series-agreement and
    # bargmann-functional-actions draw each sector's points in one call; they
    # must be the points of the per-case draws, boson sector first
    seed = verify.DEFAULT_CONFIG["seed"]
    ctx = verify._Context(verify.load_config(None))

    calls = _recorder(monkeypatch, "expect_J")
    _only_check("expectJ-series-agreement")(ctx)
    rng = np.random.default_rng([seed, 15])
    assert [p.l.tolist() for p, _ in calls] == [
        [rng.uniform(-2.0, 2.0) for _ in range(25)] for _ in range(2)
    ]

    calls = _recorder(monkeypatch, "expect_U")
    _only_check("expectU-series-agreement")(ctx)
    rng = np.random.default_rng([seed, 20])
    for p, _ in calls:
        scalar = [verify._random_point(rng, 1.5) for _ in range(20)]
        assert p.l.tolist() == [q.l for q in scalar] and p.phi.tolist() == [q.phi for q in scalar]

    calls = _recorder(monkeypatch, "evaluate")
    _only_check("bargmann-functional-actions")(ctx)
    rng = np.random.default_rng([seed, 39])
    assert len(calls) == 12
    for sector, sector_calls in zip(verify.SECTORS, (calls[:6], calls[6:])):
        state = verify._random_state(ctx, sector, rng)
        scalar = [verify._random_point(rng, 0.5) for _ in range(10)]
        l = [q.l for q in scalar]
        (f, grid), *images = sector_calls
        assert np.array_equal(f.coeffs, state.coeffs)
        # rows l + dl for dl = 0, -1, 1, -2, then -l
        assert grid.l.tolist() == [[x + dl for x in l] for dl in (0.0, -1.0, 1.0, -2.0)] + [
            [-x for x in l]
        ]
        points = [p for _, p in images]
        assert all(p.l.tolist() == l for p in points)
        assert all(p.phi.tolist() == [q.phi for q in scalar] for p in [grid, *points])

    # uncertainty-equality draws a point, then its sector, per case; it makes
    # one call per sector with that sector's points in the order drawn
    calls = _recorder(monkeypatch, "uncertainty_QP")
    _only_check("uncertainty-equality")(ctx)
    rng = np.random.default_rng([seed, 22])
    drawn = {sector: [] for sector in verify.SECTORS}
    for _ in range(ctx.cases):
        p = verify._random_point(rng, 2.0)
        drawn[verify.Sector.BOSON if rng.uniform() < 0.5 else verify.Sector.FERMION].append(p)
    assert [sector for _, sector in calls] == list(verify.SECTORS)
    for p, sector in calls:
        assert p.l.tolist() == [q.l for q in drawn[sector]]
        assert p.phi.tolist() == [q.phi for q in drawn[sector]]

    # kernel-identity-random and kernel-symmetry draw ten pairs of points a
    # sector; each sum then takes all ten pairs in one call
    def scalar_pairs(index):
        rng = np.random.default_rng([seed, index])
        return [
            [(verify._random_point(rng, 1.0), verify._random_point(rng, 1.0)) for _ in range(10)]
            for _ in verify.SECTORS
        ]

    calls = _recorder(monkeypatch, "overlap_closed")
    _only_check("kernel-identity-random")(ctx)
    assert len(calls) == 2
    for (p1, p2, sector), pairs, expected in zip(calls, scalar_pairs(41), verify.SECTORS):
        assert sector is expected
        for grid, k in ((p1, 0), (p2, 1)):
            assert grid.l.tolist() == [pair[k].l for pair in pairs]
            assert grid.phi.tolist() == [pair[k].phi for pair in pairs]

    library = _recorder(monkeypatch, "gaussian_lattice_sum")
    reference = _recorder(monkeypatch, "_unpaired_lattice_sum")
    _only_check("kernel-symmetry")(ctx)
    assert len(library) == len(reference) == 2
    for (w12,), (_, w21, _), pairs in zip(library, reference, scalar_pairs(46)):
        assert w12.tolist() == [complex(-(a.l + b.l), b.phi - a.phi) for a, b in pairs]
        assert w21.tolist() == [complex(-(a.l + b.l), a.phi - b.phi) for a, b in pairs]


# Library calls of one default battery.  The heisenberg grid per sector
# serves three checks (plus one reference point per sector), the one grid of 21
# energy distributions two checks, and the window basis, 41 boson and 40 fermion
# states, every operator loop and small basis.  The pointwise closed forms
# take one grid call per check and sector; gaussian_lattice_sum counts the
# calls verify makes itself, all of them in kernel-symmetry.  operator_matrix:
# X and Xdag once per sector for four checks, N for deformed-algebra, the five
# window matrices of bargmann-intertwining and the three of covariant-symbol.
BATTERY_CALLS = {
    "heisenberg_expectations": 4,
    "energy_distribution": 1,
    "basis_state": 81,
    "gaussian_energy_profile": 1,
    "uncertainty_QP": 2,
    "relative_expect_U": 2,
    "gaussian_lattice_sum": 2,
    "overlap_closed": 4,
    "operator_matrix": 2 * 2 + 2 + 2 * 5 + 3,
}


def test_a_battery_builds_each_shared_fixture_once(monkeypatch):
    calls = {name: _recorder(monkeypatch, name) for name in BATTERY_CALLS}
    verify.run_verify(verify.load_config(None))
    assert {name: len(args) for name, args in calls.items()} == BATTERY_CALLS


CHANGED_CHECKS = (
    "algebra-JU-commutator",
    "X-factorization",
    "XXdag-ratio",
    "deformed-algebra",
    "q-boson-relation",
    "time-reversal-conjugation",
    "expectJ-lattice-exact",
    "expectJ-series-agreement",
    "expectJ-approx-residual",
    "expectJ-amplitude-window",
    "expectU-series-agreement",
    "relative-expectU-modulus",
    "uncertainty-equality",
    "uncertainty-basis-gap",
    "energy-distribution-gaussian",
    "energy-distribution-normalization",
    "heisenberg-approx-U",
    "heisenberg-approx-X",
    "heisenberg-relative-phase",
    "quadrature-orthonormality",
    "bargmann-intertwining",
    "bargmann-functional-actions",
    "kernel-identity-fixed",
    "kernel-identity-random",
    "kernel-reproducing",
    "kernel-cross-sector",
    "kernel-symmetry",
    "quadrature-refinement",
)


def test_a_check_alone_gives_what_it_gives_in_the_battery():
    config = verify.load_config(None)
    report = {c.name: (c.max_abs_error, c.n_cases) for c in verify.run_verify(config).checks}
    for name in CHANGED_CHECKS:
        alone = verify._tally(_only_check(name)(verify._Context(config)))
        assert alone == report[name], name


def test_a_context_keeps_one_generator_per_index():
    # a per-sector check asks twice; its fermion cases continue the boson stream
    ctx = verify._Context(verify.load_config(None))
    stream = ctx.rng(13)
    assert ctx.rng(13) is stream and ctx.rng(15) is not stream
    drawn = [stream.uniform() for _ in range(3)]
    assert drawn == np.random.default_rng([20260817, 13]).uniform(size=3).tolist()
    fresh = verify._Context(verify.load_config(None)).rng(13)
    assert fresh.uniform() == drawn[0]


def test_evenness_and_symmetry_checks_see_a_wrong_lattice_sum(monkeypatch):
    # theta._lattice_sum pairs +-m, so it stays exactly even and conjugate
    # symmetric even when its terms are wrong; both checks must still fail
    theta_module = importlib.import_module("circle_cs.theta")  # the package exports theta()
    lattice_sum = theta_module._lattice_sum

    def skewed(curv, lin, half, alternating):
        return lattice_sum(0.9 * curv, lin, half, alternating)

    monkeypatch.setattr(theta_module, "_lattice_sum", skewed)
    ctx = verify._Context(verify.load_config(None))
    for name, tolerance, fn in verify._CHECKS:
        if name in ("theta-evenness", "kernel-symmetry"):
            max_err, _ = verify._tally(fn(ctx))
            assert max_err > tolerance, name


# Each reference route of verify, with the checks that use it
ROUTE_CHECKS = {
    "_inversion_image": ("theta3-inversion", "theta2-inversion", "theta3-general-inversion"),
    "_theta2_half_period": ("theta2-half-period-shift",),
    "_kernel_identity": ("kernel-identity-fixed", "kernel-identity-random"),
}


def _skewed(route, factor):
    """route with its value times factor; the kernel route's rhs alone."""

    def skewed(*args):
        value = route(*args)
        return (value[0], value[1] * factor) if isinstance(value, tuple) else value * factor

    return skewed


@pytest.mark.parametrize("route", ROUTE_CHECKS)
def test_each_reference_route_decides_its_checks(monkeypatch, route):
    # every check passes on its route and fails once the route is off by 100x its tolerance
    checks = [check for check in verify._CHECKS if check[0] in ROUTE_CHECKS[route]]
    assert tuple(name for name, _, _ in checks) == ROUTE_CHECKS[route]
    exact = getattr(verify, route)
    for name, tolerance, fn in checks:
        for patched, passes in ((exact, True), (_skewed(exact, 1.0 + 100.0 * tolerance), False)):
            monkeypatch.setattr(verify, route, patched)
            max_err, _ = verify._tally(fn(verify._Context(verify.load_config(None))))
            assert (max_err <= tolerance) is passes, name


# At n_phi = 64 both projector checks pass from n_l = 27, where the node
# range first resolves the band-limited states, until the outer l nodes
# reach far enough that the weight e^(n l - n^2/2) of _apply_kernel_grid's
# outer monomials lifts rounding noise past the tolerance: idempotency
# from n_l = 83, parity projection from n_l = 91.  It is not aliasing in
# phi: at n_l = 83 idempotency reads 1.3e-6, 1.2e-6 and 1.3e-6 at n_phi
# 64, 256 and 1024 (README, verify).
@pytest.mark.parametrize(
    "name, onset", [("kernel-idempotency", 83), ("kernel-parity-projection", 91)]
)
def test_kernel_projector_checks_alias_from_a_pinned_n_l(name, onset):
    [(tolerance, fn)] = [(tol, fn) for check, tol, fn in verify._CHECKS if check == name]

    def passes(n_l):
        ctx = verify._Context(verify.validate_config({"n_l": n_l, "n_phi": 64}))
        max_err, _ = verify._tally(fn(ctx))
        return max_err <= tolerance

    assert [passes(n_l) for n_l in (26, 27, onset - 1, onset)] == [False, True, True, False]


def test_node_values_past_the_range_are_typed():
    # |10> at 1e308: E_l reaches e^31 at the outer nodes of 40 x 64, so the
    # scatter overflows; typed, with no numpy RuntimeWarning first
    coeffs = np.zeros(41, np.complex128)
    coeffs[30] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeOverflowError, match="quadrature node values leave the"):
            _reference._node_values(Quadrature(40, 64), Sector.BOSON, 40, coeffs)
