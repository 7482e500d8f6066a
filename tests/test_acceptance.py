"""Acceptance battery: one test per release criterion.

Each test prints a single `[criterion NN] PASS/FAIL` line with the
measured figure before asserting, so a verbose run reads as a
checklist (use `pytest -rA` to see the lines for passing tests too).

Criteria 03 and 10 assert ambitious tolerances on closed-form
approximations whose intrinsic gaps are larger; they fail by a fixed,
documented margin (see README, "Known approximation gaps").  The
companion `test_documented_gap_*` tests pin the measured gaps so a
regression in either direction is caught.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from circle_cs._reference import (
    _apply_kernel_grid,
    _inversion_image,
    _kernel_identity,
    _theta2_half_period,
)
from circle_cs.bargmann import (
    Quadrature,
    inner_quadrature,
    reproducing_apply,
)
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
    uncertainty_QP,
)
from circle_cs.hilbert import (
    N_CONST,
    Sector,
    Truncation,
    apply_operator,
    apply_time_reversal,
    basis_state,
    inner,
    operator_matrix,
)
from circle_cs.theta import ThetaArg, theta

TR = Truncation(40)
QUAD = Quadrature(40, 64)
SECTORS = (Sector.BOSON, Sector.FERMION)
I_PI = 1j * math.pi
I_OVER_PI = 1j / math.pi


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


# --------------------------------------------------------------------------


def test_criterion_01_theta_transformation_laws():
    worst = 0.0
    for l in np.linspace(-2.0, 2.0, 81):
        # wide-lattice values against their narrow-lattice modular images
        lhs = theta(3, ThetaArg(1j * l / math.pi, I_OVER_PI))
        rhs = _inversion_image(3, l, I_PI)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
        lhs = theta(2, ThetaArg(1j * l / math.pi, I_OVER_PI))
        rhs = _inversion_image(2, l, I_PI)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
        # half-period shift expressing theta2 through theta3
        v = l / 4.0
        direct = theta(2, ThetaArg(v, I_PI))
        shifted = _theta2_half_period(v, I_PI)
        worst = max(worst, abs(direct - shifted) / abs(direct))
        # general inversion at complex argument
        v = l / 2.0
        lhs = theta(3, ThetaArg(v / I_PI, -1.0 / I_PI))
        rhs = _inversion_image(3, v, I_PI)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst < 1e-12
    _report(1, ok, f"theta transformation laws: max rel err {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_02_lattice_exactness():
    worst = 0.0
    for l in (-2.0, -1.0, 0.0, 1.0, 2.0):
        worst = max(worst, abs(expect_J(PhasePoint(l, 0.0), Sector.BOSON) - l))
    for l in (-1.5, -0.5, 0.5, 1.5):
        worst = max(worst, abs(expect_J(PhasePoint(l, 0.0), Sector.FERMION) - l))
    ok = worst < 1e-12
    _report(2, ok, f"<J> = l on lattice points: max err {worst:.3e} (tol 1e-12)")
    assert ok


def _expectJ_gaps():
    grid = np.linspace(0.0, 1.0, 101)
    residual = 0.0
    amplitude = 0.0
    for sector in SECTORS:
        exact = np.array([expect_J(PhasePoint(float(l), 0.0), sector) for l in grid])
        approx = np.array([approx_expect_J(float(l), sector) for l in grid])
        residual = max(residual, float(np.max(np.abs(exact - approx))))
        amplitude = max(amplitude, float(np.max(np.abs(exact - grid))))
    return residual, amplitude


def test_criterion_03_expectJ_approximation():
    residual, amplitude = _expectJ_gaps()
    ok_residual = residual < 1e-8
    ok_amplitude = 3.2e-4 <= amplitude <= 3.3e-4
    ok = ok_residual and ok_amplitude
    _report(
        3,
        ok,
        f"<J> sinusoid residual {residual:.3e} (tol 1e-8), "
        f"amplitude {amplitude:.6e} (window [3.2e-4, 3.3e-4])",
    )
    assert ok


def test_documented_gap_expectJ_residual():
    # the sinusoidal formula misses second-order lattice corrections of
    # size 2 pi exp(-2 pi^2); the measured gap sits in this bracket
    residual, _ = _expectJ_gaps()
    assert 1.5e-8 < residual < 1.8e-8


def test_criterion_04_expectU_structure():
    worst_phase = 0.0
    worst_modulus = 0.0
    worst_series = 0.0
    for sector in SECTORS:
        for l in np.linspace(-1.0, 1.0, 81):
            val = expect_U(PhasePoint(float(l), 1.3), sector)
            worst_phase = max(worst_phase, abs(cmath.phase(val * cmath.exp(-1.3j))))
            worst_modulus = max(worst_modulus, abs(abs(val) * math.exp(0.25) - 1.0))
        for l, phi in ((0.0, 0.0), (0.7, 2.1), (-1.2, 4.4)):
            p = PhasePoint(l, phi)
            state = coherent_state(p, sector, TR)
            series = inner(state, apply_operator("U", state)) / inner(state, state)
            worst_series = max(worst_series, abs(series - expect_U(p, sector)))
    ok = worst_phase < 1e-14 and worst_modulus < 5e-4 and worst_series < 1e-10
    _report(
        4,
        ok,
        f"<U> phase err {worst_phase:.3e} (tol 1e-14), modulus dev {worst_modulus:.3e} "
        f"(tol 5e-4), series err {worst_series:.3e} (tol 1e-10)",
    )
    assert ok


def test_criterion_05_uncertainty():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        l = rng.uniform(-2.0, 2.0)
        p = PhasePoint(l, rng.uniform(0.0, 2.0 * math.pi))
        sector = Sector.BOSON if rng.uniform() < 0.5 else Sector.FERMION
        vals = uncertainty_QP(p, sector)
        target = 0.25 * (math.e**2 - 1.0) * math.exp(-2.0 * l)
        worst = max(worst, abs(vals["dQ"] * vals["dP"] - target))
    strict = True
    margin = math.inf
    for sector in SECTORS:
        x = operator_matrix("X", sector, TR)
        xd = operator_matrix("Xdag", sector, TR)
        qq = 0.25 * np.diag(x @ xd + xd @ x).real[1:-1]
        bound = 0.25 * np.abs(np.diag(x @ xd - xd @ x).real[1:-1])
        product = np.sqrt(qq) * np.sqrt(qq)
        strict = strict and bool(np.all(product > bound))
        margin = min(margin, float(np.min(product - bound)))
    ok = worst < 1e-12 and strict
    _report(
        5,
        ok,
        f"coherent saturation err {worst:.3e} (tol 1e-12); basis states strictly "
        f"above bound: {strict} (min gap {margin:.3e})",
    )
    assert ok


def test_criterion_06_exponential_moments():
    worst_exact = 0.0
    worst_ratio = 0.0
    for sector in SECTORS:
        for l in np.linspace(-2.0, 2.0, 41):
            exact, _ = expect_expJ(-2.0, PhasePoint(float(l), 0.0), sector)
            worst_exact = max(worst_exact, abs(exact / math.exp(1.0 - 2.0 * l) - 1.0))
        for s in np.linspace(-2.0, 2.0, 21):
            for l in np.linspace(-2.0, 2.0, 21):
                exact, approx = expect_expJ(float(s), PhasePoint(float(l), 0.0), sector)
                worst_ratio = max(worst_ratio, abs(exact / approx - 1.0))
    ok = worst_exact < 1e-13 and worst_ratio < 1e-3
    _report(
        6,
        ok,
        f"moment at s=-2 rel err {worst_exact:.3e} (tol 1e-13); Gaussian-moment "
        f"ratio dev {worst_ratio:.3e} (tol 1e-3)",
    )
    assert ok


def test_criterion_07_quadrature_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    pairs = 0
    for sector in SECTORS:
        js = np.arange(-3.0, 3.5, 1.0) if sector is Sector.BOSON else np.arange(-2.5, 3.0, 1.0)
        funcs = [basis_state(sector, float(j), TR) for j in js]
        for a, ja in zip(funcs, js):
            for b, jb in zip(funcs, js):
                val = inner_quadrature(a, b, QUAD)
                worst = max(worst, abs(val - (1.0 if ja == jb else 0.0)))
                pairs += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    _report(
        7,
        ok,
        f"orthonormality over {pairs} pairs: max dev {worst:.3e} (tol 1e-8), "
        f"elapsed {elapsed:.2f}s (limit 1s)",
    )
    assert ok


def _band_limited_values(sector: Sector, rng) -> np.ndarray:
    j = TR.j_values(sector)
    coeffs = rng.normal(size=j.size) + 1j * rng.normal(size=j.size)
    coeffs[np.abs(j) > 4.0] = 0.0
    lv, phi, _ = QUAD.nodes()
    z = lv[:, None] + 1j * phi[None, :]
    monomials = np.exp(np.multiply.outer(j, z) - 0.5 * (j * j)[:, None, None])
    return np.tensordot(coeffs, monomials, axes=(0, 0))


def test_criterion_08_reproducing_kernel():
    rng = np.random.default_rng(808)
    worst_pairs = 0.0
    for sector in SECTORS:
        for _ in range(10):
            p1 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            p2 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            lhs, rhs = _kernel_identity(p1, p2, sector, QUAD)
            worst_pairs = max(worst_pairs, abs(rhs - lhs))
    worst_idem = 0.0
    for sector in SECTORS:
        values = _band_limited_values(sector, rng)
        once = _apply_kernel_grid(QUAD, sector, values)
        twice = _apply_kernel_grid(QUAD, sector, once)
        worst_idem = max(worst_idem, float(np.max(np.abs(twice - once)) / np.max(np.abs(once))))
    worst_cross = 0.0
    for sector, other in ((Sector.BOSON, Sector.FERMION), (Sector.FERMION, Sector.BOSON)):
        j0 = 0.5 if other is Sector.FERMION else 1.0
        f = basis_state(other, j0, TR)
        for p in (PhasePoint(0.2, 0.9), PhasePoint(-0.5, 3.7)):
            worst_cross = max(worst_cross, abs(reproducing_apply(f, p, sector, QUAD)))
    ok = worst_pairs < 1e-5 and worst_idem < 1e-6 and worst_cross < 1e-6
    _report(
        8,
        ok,
        f"kernel composition err {worst_pairs:.3e} (tol 1e-5), idempotency "
        f"{worst_idem:.3e} (tol 1e-6), cross-sector leak {worst_cross:.3e} (tol 1e-6)",
    )
    assert ok


def test_criterion_09_energy_distribution():
    worst_profile = 0.0
    worst_norm = 0.0
    for l in np.linspace(0.0, 1.0, 21):
        dist = energy_distribution(PhasePoint(float(l), 0.0), Sector.BOSON, jmax=12)
        for j, prob in dist:
            worst_profile = max(worst_profile, abs(prob - gaussian_energy_profile(j, float(l))))
        worst_norm = max(worst_norm, abs(sum(p for _, p in dist) - 1.0))
    ok = worst_profile < 5e-4 and worst_norm < 1e-12
    _report(
        9,
        ok,
        f"level probabilities vs Gaussian profile {worst_profile:.3e} (tol 5e-4), "
        f"normalization err {worst_norm:.3e} (tol 1e-12)",
    )
    assert ok


def _heisenberg_gap():
    worst = 0.0
    for sector in SECTORS:
        for l in np.linspace(-1.0, 1.0, 21):
            for t in np.linspace(-2.0, 2.0, 21):
                p = PhasePoint(float(l), 0.7)
                exact = heisenberg_expectations(p, float(t), sector)
                approx = heisenberg_approximation(p, float(t))
                worst = max(worst, abs(exact["U_t"] - approx["U_t"]))
                worst = max(worst, abs(exact["X_t"] - approx["X_t"]))
    return worst


def test_criterion_10_dynamics():
    rng = np.random.default_rng(1010)
    worst_linear = 0.0
    for sector in SECTORS:
        for _ in range(10):
            l = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(0.0, 1.0)
            omega = rng.uniform(0.1, 1.0)
            t = rng.uniform(0.0, 2.0)
            state = coherent_state(PhasePoint(l, phi), sector, TR)
            evolved = evolve(state, Linear(omega), t)
            target = coherent_state(PhasePoint(l, phi + omega * t), sector, TR)
            worst_linear = max(worst_linear, float(np.max(np.abs(evolved.coeffs - target.coeffs))))
    worst_free = 0.0
    for sector in SECTORS:
        for l, phi in ((0.0, 2.5), (0.5, 3.0), (-0.7, 2.2)):
            for t in (0.5, 1.0, 2.0):
                state = coherent_state(PhasePoint(l, phi), sector, TR)
                moved = evolve(apply_operator("X", evolve(state, FreeRotor(), t)), FreeRotor(), -t)
                factor = cmath.exp(complex(-l, phi - 0.5 * t))
                target = coherent_state(PhasePoint(l, phi - t), sector, TR)
                delta = moved.coeffs[1:-1] - factor * target.coeffs[1:-1]
                worst_free = max(worst_free, float(np.max(np.abs(delta))))
    worst_heis = _heisenberg_gap()
    ok = worst_linear < 1e-14 and worst_free < 1e-10 and worst_heis < 1e-3
    _report(
        10,
        ok,
        f"linear-drive stability {worst_linear:.3e} (tol 1e-14), conjugated-shift "
        f"relation {worst_free:.3e} (tol 1e-10), Heisenberg approximations "
        f"{worst_heis:.3e} (tol 1e-3)",
    )
    assert ok


def test_documented_gap_heisenberg():
    # the Gaussian-envelope approximations omit lattice corrections that
    # grow like cosh(pi t); at |t| = 2 the measured gap is a few percent
    worst = _heisenberg_gap()
    assert 1e-2 < worst < 5e-2


def test_criterion_11_algebra_suite():
    worst = 0.0
    q = math.exp(-2.0)
    for sector in SECTORS:
        j = TR.j_values(sector)[1:-1]
        u = operator_matrix("U", sector, TR)
        x = operator_matrix("X", sector, TR)
        xd = operator_matrix("Xdag", sector, TR)
        jm = operator_matrix("J", sector, TR)
        nm = operator_matrix("N", sector, TR)

        comm = (jm @ u - u @ jm - u)[1:-1, 1:-1]
        worst = max(worst, float(np.max(np.abs(comm))))

        factor = u @ np.diag(np.exp(-TR.j_values(sector) - 0.5))
        worst = max(worst, float(np.max(np.abs((x - factor)[1:-1, 1:-1]))) / np.max(np.abs(x)))

        lhs = np.diag(x @ xd).real[1:-1]
        rhs = math.exp(2.0) * np.diag(xd @ x).real[1:-1]
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / lhs)))

        comm = np.diag(x @ xd - xd @ x).real[1:-1]
        target = 2.0 * math.sinh(1.0) * np.exp(-2.0 * j)
        worst = max(worst, float(np.max(np.abs(comm - target) / target)))

        lhs = np.diag(x @ xd - q * (xd @ x)).real[1:-1] / (1.0 + q)
        target = np.exp(2.0 * (-j + N_CONST))
        worst = max(worst, float(np.max(np.abs(lhs - target) / target)))

        nx = (nm @ x - x @ nm + x)[1:-1, 1:-1]
        nxd = (nm @ xd - xd @ nm - xd)[1:-1, 1:-1]
        worst = max(worst, float(np.max(np.abs(nx))) / np.max(np.abs(x)))
        worst = max(worst, float(np.max(np.abs(nxd))) / np.max(np.abs(xd)))

        for jj in TR.j_values(sector)[1:-1]:
            s = basis_state(sector, float(jj), TR)
            lhs_state = apply_time_reversal(apply_operator("U", apply_time_reversal(s)))
            rhs_state = apply_operator("Udag", s)
            worst = max(worst, float(np.max(np.abs(lhs_state.coeffs - rhs_state.coeffs))))
    ok = worst < 1e-12
    _report(11, ok, f"operator algebra suite: max rel err {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_12_verify_determinism():
    env = os.environ.copy()
    env.pop("CIRCLE_CS_CONFIG", None)
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "circle_cs", "verify"],
            capture_output=True,
            text=True,
            env=env,
        )
        elapsed = time.perf_counter() - start
        assert res.returncode in (0, 1)
        runs.append((res.stdout, elapsed))
    identical = runs[0][0] == runs[1][0]
    slowest = max(e for _, e in runs)
    report = json.loads(runs[0][0])
    failed = sorted(c["name"] for c in report["checks"] if not c["passed"])
    expected_failures = [
        "expectJ-approx-residual",
        "heisenberg-approx-U",
        "heisenberg-approx-X",
        "heisenberg-relative-phase",
    ]
    ok = identical and slowest < 60.0 and failed == expected_failures
    _report(
        12,
        ok,
        f"verify reports byte-identical: {identical}, slowest run {slowest:.1f}s "
        f"(limit 60s), failing checks are exactly the documented gaps: "
        f"{failed == expected_failures}",
    )
    assert ok
