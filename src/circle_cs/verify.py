"""Verification suite: every library identity as a named, tolerated check.

run_verify(config) executes the full battery of property checks against
a single flat configuration (window size, quadrature orders, series
control, RNG seed) and returns a VerifyReport.  Checks are grouped by
module: theta transformation laws, window-operator algebra, coherent
state expectations with their closed-form approximations, and the
functional-representation quadrature identities.

All randomness is drawn from generators seeded by (config seed, check
index), so reports are deterministic for a given configuration.

Four checks measure the gap between exact expectation values and their
closed-form approximations against ambitious tolerances:
expectJ-approx-residual (1e-8) and the three heisenberg-approx checks
(1e-3).  The gaps are intrinsic properties of the approximated
functions, with observed maxima near 1.7e-8, 8e-3, 2.8e-2 and 2.8e-2
respectively, so these checks fail by a fixed margin under any
configuration; the report records the measured values.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bargmann import (
    Quadrature,
    apply_op_bargmann,
    basis_function,
    evaluate,
    inner_quadrature,
    kernel_identity_check,
    covariant_symbol,
    reproducing_apply,
    to_bargmann,
)
from .coherent import (
    FreeRotor,
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
    relative_expect_U,
    uncertainty_QP,
)
from .errors import ConfigError
from .hilbert import (
    N_CONST,
    Sector,
    StateVector,
    Truncation,
    apply_exp_j,
    apply_operator,
    apply_time_reversal,
    basis_state,
    inner,
    operator_matrix,
)
from .theta import (
    SeriesControl,
    ThetaArg,
    gaussian_lattice_sum,
    modular_image_theta2,
    modular_image_theta3,
    theta,
    theta2_via_half_period_shift,
    theta_log_derivative,
)

__all__ = ["DEFAULT_CONFIG", "CheckResult", "VerifyReport", "load_config", "run_verify"]

DEFAULT_CONFIG = {
    "two_jmax": 40,
    "n_l": 40,
    "n_phi": 64,
    "series_tol": 1e-14,
    "series_n_max": 200,
    "seed": 20260817,
    "random_cases": 50,
}

# Upper bounds on the config.  Dense window matrices grow as two_jmax^2
# and their products overflow double range past two_jmax ~ 700;
# Gauss-Hermite weights turn to NaN past n_l ~ 370; node grids grow as
# n_l * n_phi.  The largest allowed battery peaks near 85 MB.
CONFIG_CAPS = {"two_jmax": 600, "n_l": 300, "n_phi": 1024, "random_cases": 10_000}

SECTORS = (Sector.BOSON, Sector.FERMION)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_abs_error: float
    tolerance: float
    passed: bool
    n_cases: int


@dataclass(frozen=True)
class VerifyReport:
    version: str
    config: dict
    checks: tuple
    notes: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "config": self.config,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "max_abs_error": c.max_abs_error,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "n_cases": c.n_cases,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def validate_config(overrides: dict) -> dict:
    """Merge overrides into DEFAULT_CONFIG with strict key/value checks."""
    if not isinstance(overrides, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(overrides) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    config = dict(DEFAULT_CONFIG)
    config.update(overrides)
    for key in ("two_jmax", "n_l", "n_phi", "series_n_max", "seed", "random_cases"):
        value = config[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    # the battery draws coherent states with |l| <= 1.5, which needs a
    # window of 24; smaller quadrature orders are allowed and simply
    # fail the resolution-sensitive checks honestly
    if config["two_jmax"] < 24:
        raise ConfigError("two_jmax must be >= 24")
    if config["n_l"] < 2:
        raise ConfigError("n_l must be >= 2")
    if config["n_phi"] < 4 or config["n_phi"] % 2:
        raise ConfigError("n_phi must be an even integer >= 4")
    if config["series_n_max"] < 1:
        raise ConfigError("series_n_max must be >= 1")
    if config["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    if config["random_cases"] < 1:
        raise ConfigError("random_cases must be >= 1")
    for key, cap in CONFIG_CAPS.items():
        if config[key] > cap:
            raise ConfigError(f"{key} must be <= {cap}, got {config[key]}")
    tol = config["series_tol"]
    if not isinstance(tol, (int, float)) or not 0.0 < float(tol) < 1.0:
        raise ConfigError("series_tol must lie in (0, 1)")
    config["series_tol"] = float(tol)
    return config


def load_config(path: str | None) -> dict:
    """Read a flat JSON config file; None means pure defaults."""
    if path is None:
        return validate_config({})
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


class _Context:
    """Shared fixtures for the check battery."""

    def __init__(self, config: dict):
        self.config = config
        self.ctl = SeriesControl(config["series_tol"], config["series_n_max"])
        self.trunc = Truncation(config["two_jmax"])
        self.quad = Quadrature(config["n_l"], config["n_phi"])
        self.seed = config["seed"]
        self.cases = config["random_cases"]

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def interior_j(self, sector: Sector) -> np.ndarray:
        return self.trunc.j_values(sector)[1:-1]


def _rel(delta, scale) -> float:
    return float(np.max(np.abs(delta) / np.maximum(np.abs(scale), 1e-300)))


# --------------------------------------------------------------------------
# theta checks


def _check_theta3_inversion(ctx: _Context):
    errs = []
    for l in np.linspace(-2.0, 2.0, 81):
        lhs = theta(3, ThetaArg(1j * l / math.pi, 1j / math.pi), ctx.ctl)
        rhs = modular_image_theta3(l, 1j * math.pi, ctx.ctl)
        errs.append(abs(lhs - rhs) / abs(rhs))
    return max(errs), len(errs)


def _check_theta2_inversion(ctx: _Context):
    errs = []
    for l in np.linspace(-2.0, 2.0, 81):
        lhs = theta(2, ThetaArg(1j * l / math.pi, 1j / math.pi), ctx.ctl)
        rhs = modular_image_theta2(l, 1j * math.pi, ctx.ctl)
        errs.append(abs(lhs - rhs) / abs(rhs))
    return max(errs), len(errs)


def _check_theta2_shift(ctx: _Context):
    rng = ctx.rng(3)
    errs = []
    for tau in (1j * math.pi, 1j / math.pi):
        for _ in range(100):
            v = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            direct = theta(2, ThetaArg(v, tau), ctx.ctl)
            shifted = theta2_via_half_period_shift(v, tau, ctx.ctl)
            errs.append(abs(direct - shifted) / abs(direct))
    return max(errs), len(errs)


def _check_theta3_general_inversion(ctx: _Context):
    tau = 1j * math.pi
    errs = []
    for v in np.linspace(-1.0, 1.0, 41):
        lhs = theta(3, ThetaArg(v / tau, -1.0 / tau), ctx.ctl)
        rhs = modular_image_theta3(v, tau, ctx.ctl)
        errs.append(abs(lhs - rhs) / abs(rhs))
    return max(errs), len(errs)


def _check_theta_evenness(ctx: _Context):
    rng = ctx.rng(5)
    errs = []
    for kind in (2, 3):
        for _ in range(100):
            v = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            plus = theta(kind, ThetaArg(v, 1j * math.pi), ctx.ctl)
            minus = theta(kind, ThetaArg(-v, 1j * math.pi), ctx.ctl)
            errs.append(abs(plus - minus) / abs(plus))
    return max(errs), len(errs)


def _check_logderiv_fd(ctx: _Context):
    h = 1e-5
    errs = []
    for kind in (3, 4):
        for tau in (1j * math.pi, 1j / math.pi):
            for v in np.linspace(-0.45, 0.45, 19):
                analytic = theta_log_derivative(kind, ThetaArg(v, tau), ctx.ctl)
                up = theta(kind, ThetaArg(v + h, tau), ctx.ctl)
                down = theta(kind, ThetaArg(v - h, tau), ctx.ctl)
                mid = theta(kind, ThetaArg(v, tau), ctx.ctl)
                errs.append(abs(analytic - (up - down) / (2.0 * h * mid)))
    return max(errs), len(errs)


# --------------------------------------------------------------------------
# window-operator checks


def _check_ju_commutator(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for j in ctx.trunc.j_values(sector)[:-1]:
            s = basis_state(sector, float(j), ctx.trunc)
            ju = apply_operator("J", apply_operator("U", s))
            uj = apply_operator("U", apply_operator("J", s))
            u = apply_operator("U", s)
            errs.append(float(np.max(np.abs(ju.coeffs - uj.coeffs - u.coeffs))))
            count += 1
    return max(errs), count


def _check_x_factorization(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for j in ctx.trunc.j_values(sector)[:-1]:
            s = basis_state(sector, float(j), ctx.trunc)
            direct = apply_operator("X", s)
            factored = apply_operator("U", apply_exp_j(s, -1.0))
            factored = StateVector(
                sector, ctx.trunc, factored.coeffs * math.exp(-0.5), factored.leakage
            )
            errs.append(_rel(direct.coeffs - factored.coeffs, math.exp(-float(j) - 0.5)))
            count += 1
    return max(errs), count


def _matrices(ctx: _Context, sector: Sector):
    x = operator_matrix("X", sector, ctx.trunc)
    xd = operator_matrix("Xdag", sector, ctx.trunc)
    return x, xd


def _check_xxdag_ratio(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        x, xd = _matrices(ctx, sector)
        lhs = np.diag(x @ xd)[1:-1]
        rhs = math.exp(2.0) * np.diag(xd @ x)[1:-1]
        errs.append(_rel(lhs - rhs, lhs))
        count += len(lhs)
    return max(errs), count


def _check_deformed_algebra(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        j = ctx.interior_j(sector)
        x, xd = _matrices(ctx, sector)
        n = operator_matrix("N", sector, ctx.trunc)
        comm = np.diag(x @ xd - xd @ x)[1:-1]
        target = 2.0 * math.sinh(1.0) * np.exp(-2.0 * j)
        errs.append(_rel(comm - target, target))
        nx = (n @ x - x @ n + x)[1:-1, 1:-1]
        nxd = (n @ xd - xd @ n - xd)[1:-1, 1:-1]
        scale = max(np.max(np.abs(x)), np.max(np.abs(xd)))
        errs.append(float(np.max(np.abs(nx)) / scale))
        errs.append(float(np.max(np.abs(nxd)) / scale))
        count += 3 * len(j)
    return max(errs), count


def _check_qboson_relation(ctx: _Context):
    q = math.exp(-2.0)
    errs = []
    count = 0
    for sector in SECTORS:
        j = ctx.interior_j(sector)
        x, xd = _matrices(ctx, sector)
        a = x / math.sqrt(1.0 + q)
        ad = xd / math.sqrt(1.0 + q)
        lhs = np.diag(a @ ad - q * (ad @ a))[1:-1]
        rhs = np.exp(2.0 * (-j + N_CONST))
        errs.append(_rel(lhs - rhs, rhs))
        count += len(j)
    return max(errs), count


def _check_time_reversal_conjugation(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for j in ctx.trunc.j_values(sector)[1:-1]:
            s = basis_state(sector, float(j), ctx.trunc)
            lhs = apply_time_reversal(apply_operator("U", apply_time_reversal(s)))
            rhs = apply_operator("Udag", s)
            errs.append(float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
            count += 1
    return max(errs), count


def _check_u_unitarity(ctx: _Context):
    rng = ctx.rng(13)
    errs = []
    count = 0
    for sector in SECTORS:
        size = ctx.trunc.size(sector)
        for _ in range(5):
            a = rng.normal(size=size) + 1j * rng.normal(size=size)
            b = rng.normal(size=size) + 1j * rng.normal(size=size)
            a[-1] = 0.0
            b[-1] = 0.0
            sa = StateVector(sector, ctx.trunc, a)
            sb = StateVector(sector, ctx.trunc, b)
            lhs = inner(apply_operator("U", sa), apply_operator("U", sb))
            rhs = inner(sa, sb)
            errs.append(abs(lhs - rhs) / abs(rhs))
            count += 1
    return max(errs), count


# --------------------------------------------------------------------------
# coherent-state checks


def _check_expectJ_lattice(ctx: _Context):
    errs = []
    count = 0
    for sector, points in (
        (Sector.BOSON, (-2.0, -1.0, 0.0, 1.0, 2.0)),
        (Sector.FERMION, (-1.5, -0.5, 0.5, 1.5)),
    ):
        for l in points:
            errs.append(abs(expect_J(PhasePoint(l, 0.0), sector, ctx.ctl) - l))
            count += 1
    return max(errs), count


def _series_expect_J(l: float, sector: Sector) -> float:
    j = Truncation(60).j_values(sector)
    weights = np.exp(2.0 * l * j - j * j)
    return float(np.sum(j * weights) / np.sum(weights))


def _check_expectJ_series(ctx: _Context):
    rng = ctx.rng(15)
    errs = []
    count = 0
    for sector in SECTORS:
        for _ in range(25):
            l = rng.uniform(-2.0, 2.0)
            errs.append(abs(expect_J(PhasePoint(l, 0.0), sector, ctx.ctl) - _series_expect_J(l, sector)))
            count += 1
    return max(errs), count


def _expectJ_deviation_grid(ctx: _Context, sector: Sector):
    grid = np.linspace(0.0, 1.0, 101)
    exact = np.array([expect_J(PhasePoint(l, 0.0), sector, ctx.ctl) for l in grid])
    return grid, exact


def _check_expectJ_approx_residual(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        grid, exact = _expectJ_deviation_grid(ctx, sector)
        approx = np.array([approx_expect_J(l, sector) for l in grid])
        errs.append(float(np.max(np.abs(exact - approx))))
        count += len(grid)
    return max(errs), count


def _check_expectJ_amplitude_window(ctx: _Context):
    mid, half = 3.25e-4, 0.05e-4
    errs = []
    count = 0
    for sector in SECTORS:
        grid, exact = _expectJ_deviation_grid(ctx, sector)
        observed = float(np.max(np.abs(exact - grid)))
        errs.append(abs(observed - mid))
        count += len(grid)
    return max(errs), count


def _check_expectU_phase(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for l in np.linspace(-1.0, 1.0, 21):
            for phi in (0.0, 1.234, math.pi, 5.0):
                val = expect_U(PhasePoint(l, phi), sector, ctx.ctl)
                errs.append(abs(val / abs(val) - cmath.exp(1j * phi)))
                count += 1
    return max(errs), count


def _check_expectU_modulus(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for l in np.linspace(-1.0, 1.0, 81):
            val = abs(expect_U(PhasePoint(l, 0.0), sector, ctx.ctl))
            errs.append(abs(val * math.exp(0.25) - 1.0))
            count += 1
    return max(errs), count


def _check_expectU_series(ctx: _Context):
    rng = ctx.rng(20)
    errs = []
    count = 0
    for sector in SECTORS:
        for _ in range(20):
            p = PhasePoint(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2.0 * math.pi))
            state = coherent_state(p, sector, ctx.trunc)
            series = inner(state, apply_operator("U", state)) / inner(state, state)
            errs.append(abs(series - expect_U(p, sector, ctx.ctl)))
            count += 1
    return max(errs), count


def _check_relative_expectU(ctx: _Context):
    ref = PhasePoint(0.0, 0.0)
    errs = []
    count = 0
    for sector in SECTORS:
        for l, phi in ((0.5, 1.0), (-0.8, 2.2), (1.0, 4.0)):
            rel = relative_expect_U(PhasePoint(l, phi), ref, sector, ctx.ctl)
            errs.append(abs(abs(rel) - 1.0))
            count += 1
    return max(errs), count


def _check_uncertainty_equality(ctx: _Context):
    rng = ctx.rng(22)
    errs = []
    for _ in range(ctx.cases):
        p = PhasePoint(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
        sector = Sector.BOSON if rng.uniform() < 0.5 else Sector.FERMION
        result = uncertainty_QP(p, sector)
        errs.append(abs(result["dQ"] * result["dP"] - result["bound"]))
    return max(errs), ctx.cases


def _check_uncertainty_basis_gap(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        j = ctx.interior_j(sector)
        x, xd = _matrices(ctx, sector)
        qq = 0.25 * np.diag(x @ xd + xd @ x)[1:-1]
        pp = qq  # <j|P^2|j> has the same diagonal; cross terms vanish
        # [Q, P] = (i/2) [X, Xdag], so the bound is |<[X, Xdag]>| / 4
        comm = np.diag(x @ xd - xd @ x)[1:-1]
        product = np.sqrt(qq) * np.sqrt(pp)
        bound = 0.25 * np.abs(comm)
        target = 0.5 * np.exp(-2.0 * j - 1.0)
        errs.append(_rel(product - bound - target, target))
        count += len(j)
    return max(errs), count


def _check_momentgen_exact(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for l in np.linspace(-2.0, 2.0, 41):
            exact, _ = expect_expJ(-2.0, PhasePoint(l, 0.0), sector, ctx.ctl)
            target = math.exp(1.0 - 2.0 * l)
            errs.append(abs(exact / target - 1.0))
            count += 1
    return max(errs), count


def _check_momentgen_ratio(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for s in np.linspace(-2.0, 2.0, 21):
            for l in np.linspace(-2.0, 2.0, 21):
                exact, approx = expect_expJ(float(s), PhasePoint(float(l), 0.0), sector, ctx.ctl)
                errs.append(abs(exact / approx - 1.0))
                count += 1
    return max(errs), count


def _check_energy_distribution_gaussian(ctx: _Context):
    errs = []
    count = 0
    for l in np.linspace(0.0, 1.0, 21):
        dist = energy_distribution(PhasePoint(float(l), 0.0), Sector.BOSON, jmax=12, ctl=ctx.ctl)
        for j, prob in dist:
            errs.append(abs(prob - gaussian_energy_profile(j, float(l))))
            count += 1
    return max(errs), count


def _check_energy_distribution_normalization(ctx: _Context):
    errs = []
    count = 0
    for l in np.linspace(0.0, 1.0, 21):
        dist = energy_distribution(PhasePoint(float(l), 0.0), Sector.BOSON, jmax=12, ctl=ctx.ctl)
        errs.append(abs(sum(prob for _, prob in dist) - 1.0))
        count += 1
    return max(errs), count


def _check_linear_evolution(ctx: _Context):
    rng = ctx.rng(27)
    errs = []
    count = 0
    for sector in SECTORS:
        for _ in range(10):
            l = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(0.0, 1.0)
            omega = rng.uniform(0.1, 1.0)
            t = rng.uniform(0.0, 2.0)
            state = coherent_state(PhasePoint(l, phi), sector, ctx.trunc)
            evolved = evolve(state, Linear(omega), t)
            target = coherent_state(PhasePoint(l, phi + omega * t), sector, ctx.trunc)
            errs.append(float(np.max(np.abs(evolved.coeffs - target.coeffs))))
            count += 1
    return max(errs), count


def _check_free_evolution_X(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for l, phi in ((0.0, 2.5), (0.5, 3.0), (-0.7, 2.2)):
            for t in (0.5, 1.0, 2.0):
                state = coherent_state(PhasePoint(l, phi), sector, ctx.trunc)
                moved = evolve(
                    apply_operator("X", evolve(state, FreeRotor(), t)), FreeRotor(), -t
                )
                factor = cmath.exp(complex(-l, phi - 0.5 * t))
                target = coherent_state(PhasePoint(l, phi - t), sector, ctx.trunc)
                delta = moved.coeffs[1:-1] - factor * target.coeffs[1:-1]
                errs.append(float(np.max(np.abs(delta))))
                count += 1
    return max(errs), count


def _heisenberg_grid(ctx: _Context, which: str):
    phi = 0.7
    worst = 0.0
    count = 0
    for sector in SECTORS:
        for l in np.linspace(-1.0, 1.0, 21):
            for t in np.linspace(-2.0, 2.0, 21):
                p = PhasePoint(float(l), phi)
                exact = heisenberg_expectations(p, float(t), sector, ctx.ctl)[which]
                approx = heisenberg_approximation(p, float(t))[which]
                worst = max(worst, abs(exact - approx))
                count += 1
    return worst, count


def _check_heisenberg_U(ctx: _Context):
    return _heisenberg_grid(ctx, "U_t")


def _check_heisenberg_X(ctx: _Context):
    return _heisenberg_grid(ctx, "X_t")


def _check_heisenberg_relative_phase(ctx: _Context):
    phi = 0.7
    ref = PhasePoint(0.0, 0.0)
    worst = 0.0
    count = 0
    for sector in SECTORS:
        for l in np.linspace(-1.0, 1.0, 21):
            for t in np.linspace(-2.0, 2.0, 21):
                p = PhasePoint(float(l), phi)
                num = heisenberg_expectations(p, float(t), sector, ctx.ctl)["U_t"]
                den = heisenberg_expectations(ref, float(t), sector, ctx.ctl)["U_t"]
                phase = cmath.phase((num / den) * cmath.exp(-1j * (phi + t * l)))
                worst = max(worst, abs(phase))
                count += 1
    return worst, count


def _check_eigenstate_residual(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for l, phi in ((0.0, 0.0), (0.5, 1.0), (-1.0, 4.2)):
            p = PhasePoint(l, phi)
            state = coherent_state(p, sector, ctx.trunc)
            moved = apply_operator("X", state)
            delta = moved.coeffs[1:-1] - p.xi * state.coeffs[1:-1]
            errs.append(float(np.linalg.norm(delta)) / state.norm())
            count += 1
    return max(errs), count


def _check_time_reversal_coherent(ctx: _Context):
    rng = ctx.rng(34)
    errs = []
    count = 0
    for sector in SECTORS:
        for _ in range(10):
            l = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            state = coherent_state(PhasePoint(l, phi), sector, ctx.trunc)
            flipped = apply_time_reversal(state)
            target = coherent_state(PhasePoint(-l, phi), sector, ctx.trunc)
            errs.append(float(np.max(np.abs(flipped.coeffs - target.coeffs))))
            count += 1
    return max(errs), count


def _check_freerotor_conservation(ctx: _Context):
    rng = ctx.rng(35)
    errs = []
    count = 0
    for sector in SECTORS:
        size = ctx.trunc.size(sector)
        j = ctx.trunc.j_values(sector)
        for _ in range(5):
            c = rng.normal(size=size) + 1j * rng.normal(size=size)
            state = StateVector(sector, ctx.trunc, c)
            evolved = evolve(state, FreeRotor(), 1.7)
            errs.append(float(np.max(np.abs(np.abs(evolved.coeffs) - np.abs(c)))))
            before = float(np.sum(j * np.abs(c) ** 2) / np.sum(np.abs(c) ** 2))
            after = float(
                np.sum(j * np.abs(evolved.coeffs) ** 2) / np.sum(np.abs(evolved.coeffs) ** 2)
            )
            errs.append(abs(before - after))
            count += 1
    return max(errs), count


# --------------------------------------------------------------------------
# functional-representation checks


def _small_j_range(sector: Sector, bound: float):
    start = sector.j0 if sector.j0 else 0.0
    vals = []
    j = start
    while j <= bound:
        vals.append(j)
        if j > 0:
            vals.append(-j)
        j += 1.0
    return sorted(vals)


def _check_quadrature_orthonormality(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        js = _small_j_range(sector, 3.0)
        funcs = {j: basis_function(sector, j, ctx.trunc) for j in js}
        for j in js:
            for k in js:
                val = inner_quadrature(funcs[j], funcs[k], ctx.quad)
                errs.append(abs(val - (1.0 if j == k else 0.0)))
                count += 1
    return max(errs), count


def _check_bargmann_eval(ctx: _Context):
    rng = ctx.rng(37)
    errs = []
    count = 0
    for sector in SECTORS:
        size = ctx.trunc.size(sector)
        for _ in range(10):
            a = rng.normal(size=size) + 1j * rng.normal(size=size)
            f = to_bargmann(StateVector(sector, ctx.trunc, a))
            p = PhasePoint(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
            direct = evaluate(f, p)
            overlap = inner(coherent_state(p, sector, ctx.trunc), StateVector(sector, ctx.trunc, a))
            errs.append(abs(direct - overlap))
            count += 1
    return max(errs), count


def _check_bargmann_intertwining(ctx: _Context):
    rng = ctx.rng(38)
    errs = []
    count = 0
    for sector in SECTORS:
        size = ctx.trunc.size(sector)
        for _ in range(5):
            a = rng.normal(size=size) + 1j * rng.normal(size=size)
            state = StateVector(sector, ctx.trunc, a)
            for kind in ("J", "U", "Udag", "X", "Xdag", "T"):
                if kind == "T":
                    via_state = to_bargmann(apply_time_reversal(state))
                else:
                    via_state = to_bargmann(apply_operator(kind, state))
                via_function = apply_op_bargmann(kind, to_bargmann(state))
                errs.append(float(np.max(np.abs(via_state.coeffs - via_function.coeffs))))
                count += 1
    return max(errs), count


def _check_bargmann_functional_actions(ctx: _Context):
    rng = ctx.rng(39)
    errs = []
    count = 0
    for sector in SECTORS:
        size = ctx.trunc.size(sector)
        a = rng.normal(size=size) + 1j * rng.normal(size=size)
        f = to_bargmann(StateVector(sector, ctx.trunc, a))
        for _ in range(10):
            l = rng.uniform(-0.5, 0.5)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            p = PhasePoint(l, phi)
            inv_xistar = cmath.exp(complex(l, phi))
            # (U f)(xi*) = f(e xi*)/(sqrt(e) xi*)
            lhs = evaluate(apply_op_bargmann("U", f), p)
            rhs = evaluate(f, PhasePoint(l - 1.0, phi)) * inv_xistar * math.exp(-0.5)
            errs.append(abs(lhs - rhs))
            # (Udag f)(xi*) = e^(-1/2) xi* f(xi*/e)
            lhs = evaluate(apply_op_bargmann("Udag", f), p)
            rhs = evaluate(f, PhasePoint(l + 1.0, phi)) / inv_xistar * math.exp(-0.5)
            errs.append(abs(lhs - rhs))
            # (X f)(xi*) = f(e^2 xi*)/(e xi*)
            lhs = evaluate(apply_op_bargmann("X", f), p)
            rhs = evaluate(f, PhasePoint(l - 2.0, phi)) * inv_xistar * math.exp(-1.0)
            errs.append(abs(lhs - rhs))
            # (Xdag f)(xi*) = xi* f(xi*)
            lhs = evaluate(apply_op_bargmann("Xdag", f), p)
            rhs = evaluate(f, p) / inv_xistar
            errs.append(abs(lhs - rhs))
            # (T f)(xi*) = conj(f at the time-reversed point)
            lhs = evaluate(apply_op_bargmann("T", f), p)
            rhs = evaluate(f, PhasePoint(-l, phi)).conjugate()
            errs.append(abs(lhs - rhs))
            count += 5
    return max(errs), count


def _check_kernel_identity_fixed(ctx: _Context):
    errs = []
    for sector in SECTORS:
        res = kernel_identity_check(PhasePoint(0, 0), PhasePoint(0, 0), sector, ctx.quad, ctx.ctl)
        errs.append(abs(res["rhs"] - res["lhs"]))
    return max(errs), 2


def _check_kernel_identity_random(ctx: _Context):
    rng = ctx.rng(41)
    errs = []
    count = 0
    for sector in SECTORS:
        for _ in range(10):
            p1 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            p2 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            res = kernel_identity_check(p1, p2, sector, ctx.quad, ctx.ctl)
            errs.append(abs(res["rhs"] - res["lhs"]))
            count += 1
    return max(errs), count


def _check_kernel_reproducing(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        for j in _small_j_range(sector, 3.0):
            f = basis_function(sector, j, ctx.trunc)
            for p in (PhasePoint(0.3, 1.1), PhasePoint(-0.5, 4.0)):
                got = reproducing_apply(f, p, sector, ctx.quad, ctx.ctl)
                errs.append(abs(got - evaluate(f, p)))
                count += 1
    return max(errs), count


def _check_kernel_cross_sector(ctx: _Context):
    errs = []
    count = 0
    for sector, other in ((Sector.BOSON, Sector.FERMION), (Sector.FERMION, Sector.BOSON)):
        for j in _small_j_range(other, 2.5):
            f = basis_function(other, j, ctx.trunc)
            for p in (PhasePoint(0.2, 0.9), PhasePoint(-0.4, 3.3)):
                errs.append(abs(reproducing_apply(f, p, sector, ctx.quad, ctx.ctl)))
                count += 1
    return max(errs), count


def _node_values(ctx: _Context, sector: Sector, coeffs: np.ndarray):
    return ctx.quad.grid_values(sector, ctx.trunc.two_jmax, coeffs)


def _apply_kernel_grid(quad: Quadrature, sector: Sector, values: np.ndarray) -> np.ndarray:
    """Kernel action on node values through its lattice expansion.

    K(eta*, xi) = sum_n e^(-n^2) (eta* xi)^(-n) splits into monomials n
    over the lattice |n| <= n_cut, so the action projects the weighted
    values onto each monomial (a forward DFT in phi, then a sum over the
    l nodes) and evaluates the projections on the grid: exactly the
    same quadrature.
    """
    lv, _, weights = quad.nodes()
    two_cut = 2 * (int(math.ceil(float(np.max(np.abs(lv))))) + 12)
    e_l, bins = quad.factors(sector, two_cut)
    projected = np.sum(e_l * np.fft.fft(weights * values, axis=1)[:, bins], axis=0)
    return quad.grid_values(sector, two_cut, projected)


def _band_limited(ctx: _Context, sector: Sector, rng, j_bound: float) -> np.ndarray:
    """Random coefficients supported on |j| <= j_bound, zero elsewhere.

    The quadrature resolves monomials only while their Gaussian weight
    peaks inside the node range, so projector identities are stated on
    that span.
    """
    j = ctx.trunc.j_values(sector)
    coeffs = rng.normal(size=j.size) + 1j * rng.normal(size=j.size)
    coeffs[np.abs(j) > j_bound] = 0.0
    return coeffs


def _check_kernel_idempotency(ctx: _Context):
    rng = ctx.rng(44)
    errs = []
    count = 0
    for sector in SECTORS:
        coeffs = _band_limited(ctx, sector, rng, 4.0)
        values = _node_values(ctx, sector, coeffs)
        once = _apply_kernel_grid(ctx.quad, sector, values)
        twice = _apply_kernel_grid(ctx.quad, sector, once)
        scale = float(np.max(np.abs(once)))
        errs.append(float(np.max(np.abs(twice - once))) / scale)
        count += once.size
    return max(errs), count


def _check_kernel_parity_projection(ctx: _Context):
    rng = ctx.rng(45)
    cb = _band_limited(ctx, Sector.BOSON, rng, 4.0)
    cf = _band_limited(ctx, Sector.FERMION, rng, 4.0)
    vb = _node_values(ctx, Sector.BOSON, cb)
    vf = _node_values(ctx, Sector.FERMION, cf)
    mixed = vb + vf
    even = _apply_kernel_grid(ctx.quad, Sector.BOSON, mixed)
    odd = _apply_kernel_grid(ctx.quad, Sector.FERMION, mixed)
    scale = float(np.max(np.abs(mixed)))
    errs = [
        float(np.max(np.abs(even - vb))) / scale,
        float(np.max(np.abs(odd - vf))) / scale,
        float(np.max(np.abs(even + odd - mixed))) / scale,
    ]
    return max(errs), mixed.size


def _check_kernel_symmetry(ctx: _Context):
    rng = ctx.rng(46)
    errs = []
    count = 0
    for sector in SECTORS:
        half = sector is Sector.FERMION
        for _ in range(10):
            p1 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            p2 = PhasePoint(rng.uniform(-1, 1), rng.uniform(0, 2 * math.pi))
            w12 = complex(-(p1.l + p2.l), p2.phi - p1.phi)
            w21 = complex(-(p1.l + p2.l), p1.phi - p2.phi)
            k12 = complex(gaussian_lattice_sum(w12, half=half, ctl=ctx.ctl))
            k21 = complex(gaussian_lattice_sum(w21, half=half, ctl=ctx.ctl))
            errs.append(abs(k12 - k21.conjugate()) / abs(k12))
            count += 1
    return max(errs), count


def _check_covariant_symbol(ctx: _Context):
    errs = []
    count = 0
    for sector in SECTORS:
        n = ctx.trunc.size(sector)
        p = PhasePoint(0.4, 1.3)
        identity = np.eye(n)
        errs.append(abs(covariant_symbol(identity, p, sector, ctx.ctl)["symbol"] - 1.0))
        x = operator_matrix("X", sector, ctx.trunc)
        errs.append(abs(covariant_symbol(x, p, sector, ctx.ctl)["symbol"] - p.xi))
        count += 2
    jmat = operator_matrix("J", Sector.BOSON, ctx.trunc)
    sym = covariant_symbol(jmat, PhasePoint(1.0, 0.0), Sector.BOSON, ctx.ctl)["symbol"]
    errs.append(abs(sym - 1.0))
    count += 1
    return max(errs), count


def _check_quadrature_refinement(ctx: _Context):
    f = basis_function(Sector.BOSON, 0.0, ctx.trunc)
    errors = []
    for n_l in (2, 4, 8, 16):
        quad = Quadrature(n_l, 8)
        errors.append(abs(inner_quadrature(f, f, quad) - 1.0))
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    worst = errors[-1] if monotone else max(errors)
    return worst, len(errors)


# --------------------------------------------------------------------------

_CHECKS = (
    ("theta3-inversion", 1e-12, _check_theta3_inversion),
    ("theta2-inversion", 1e-12, _check_theta2_inversion),
    ("theta2-half-period-shift", 1e-12, _check_theta2_shift),
    ("theta3-general-inversion", 1e-12, _check_theta3_general_inversion),
    ("theta-evenness", 1e-12, _check_theta_evenness),
    ("theta-logderiv-fd", 1e-8, _check_logderiv_fd),
    ("algebra-JU-commutator", 1e-12, _check_ju_commutator),
    ("X-factorization", 1e-14, _check_x_factorization),
    ("XXdag-ratio", 1e-13, _check_xxdag_ratio),
    ("deformed-algebra", 1e-13, _check_deformed_algebra),
    ("q-boson-relation", 1e-12, _check_qboson_relation),
    ("time-reversal-conjugation", 1e-14, _check_time_reversal_conjugation),
    ("U-unitarity-interior", 1e-13, _check_u_unitarity),
    ("expectJ-lattice-exact", 1e-12, _check_expectJ_lattice),
    ("expectJ-series-agreement", 1e-12, _check_expectJ_series),
    ("expectJ-approx-residual", 1e-8, _check_expectJ_approx_residual),
    ("expectJ-amplitude-window", 5e-6, _check_expectJ_amplitude_window),
    ("expectU-phase", 1e-12, _check_expectU_phase),
    ("expectU-modulus-approx", 5e-4, _check_expectU_modulus),
    ("expectU-series-agreement", 1e-10, _check_expectU_series),
    ("relative-expectU-modulus", 5e-4, _check_relative_expectU),
    ("uncertainty-equality", 1e-12, _check_uncertainty_equality),
    ("uncertainty-basis-gap", 1e-12, _check_uncertainty_basis_gap),
    ("momentgen-s-minus-2", 1e-13, _check_momentgen_exact),
    ("momentgen-ratio", 1e-3, _check_momentgen_ratio),
    ("energy-distribution-gaussian", 5e-4, _check_energy_distribution_gaussian),
    ("energy-distribution-normalization", 1e-12, _check_energy_distribution_normalization),
    ("linear-evolution-stability", 1e-14, _check_linear_evolution),
    ("free-evolution-X", 1e-10, _check_free_evolution_X),
    ("heisenberg-approx-U", 1e-3, _check_heisenberg_U),
    ("heisenberg-approx-X", 1e-3, _check_heisenberg_X),
    ("heisenberg-relative-phase", 1e-3, _check_heisenberg_relative_phase),
    ("coherent-eigenstate-residual", 1e-12, _check_eigenstate_residual),
    ("time-reversal-coherent", 1e-14, _check_time_reversal_coherent),
    ("freerotor-conservation", 1e-14, _check_freerotor_conservation),
    ("quadrature-orthonormality", 1e-8, _check_quadrature_orthonormality),
    ("bargmann-eval-vs-inner", 1e-12, _check_bargmann_eval),
    ("bargmann-intertwining", 1e-12, _check_bargmann_intertwining),
    ("bargmann-functional-actions", 1e-12, _check_bargmann_functional_actions),
    ("kernel-identity-fixed", 1e-6, _check_kernel_identity_fixed),
    ("kernel-identity-random", 1e-5, _check_kernel_identity_random),
    ("kernel-reproducing", 1e-7, _check_kernel_reproducing),
    ("kernel-cross-sector", 1e-7, _check_kernel_cross_sector),
    ("kernel-idempotency", 1e-6, _check_kernel_idempotency),
    ("kernel-parity-projection", 1e-6, _check_kernel_parity_projection),
    ("kernel-symmetry", 1e-13, _check_kernel_symmetry),
    ("covariant-symbol", 1e-10, _check_covariant_symbol),
    ("quadrature-refinement", 1e-8, _check_quadrature_refinement),
)

_NOTES = (
    "expectJ deviation from l: the relative deviation at small l approaches "
    "4*pi^2*exp(-pi^2) ~ 0.204%; the absolute amplitude 2*pi*exp(-pi^2) "
    "~ 3.2499e-4 is what expectJ-amplitude-window pins down.",
    "expectJ-approx-residual, heisenberg-approx-U, heisenberg-approx-X and "
    "heisenberg-relative-phase compare exact values against closed-form "
    "approximations whose intrinsic gaps (~1.7e-8, ~8e-3, ~2.8e-2, ~2.8e-2) "
    "exceed the stated tolerances; they fail by construction and are "
    "documented in the README.",
)


def run_verify(config: dict) -> VerifyReport:
    """Execute the full check battery under `config` (already validated)."""
    ctx = _Context(config)
    results = []
    for name, tolerance, fn in _CHECKS:
        max_err, n_cases = fn(ctx)
        results.append(
            CheckResult(
                name=name,
                max_abs_error=float(max_err),
                tolerance=tolerance,
                passed=bool(max_err <= tolerance),
                n_cases=n_cases,
            )
        )
    return VerifyReport(
        version=__version__,
        config=dict(sorted(config.items())),
        checks=tuple(results),
        notes=_NOTES,
    )
