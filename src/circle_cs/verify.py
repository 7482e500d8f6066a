"""Verification suite: every library identity as a named, tolerated check.

run_verify(config) executes the full battery of property checks against
a single flat configuration (window size, quadrature orders, RNG seed,
number of random cases) and returns a VerifyReport.  Checks are grouped by
module: theta transformation laws, window-operator algebra, coherent
state expectations with their closed-form approximations, and the
functional-representation quadrature identities.

Each check is a function of the shared context that does all its work
when called and returns its per-case errors: a float is one case, an
array (or list of floats) one case per element, and a list of such
parts concatenates them.  A fixture that several checks read is built
once per context by _Context.shared, by whichever check asks first.  A check whose case count differs from its
error count returns (errors, n_cases).  An identity stated once per
sector is written as check(ctx, sector), and _each_sector makes it a
table entry that runs the boson sector, then the fermion sector.
run_verify alone reduces the errors, with a NaN-propagating maximum,
and counts the cases.

All randomness is drawn from generators seeded by (config seed, check
index), one generator per index for the whole battery, so reports are
deterministic for a given configuration.

The independent routes the checks compare against (_unpaired_lattice_sum,
_inversion_image, _theta2_half_period, _kernel_identity, _series_expect_J,
_node_values, _apply_kernel_grid) live in circle_cs._reference, which
says what each shares no code with; this module imports them by name.
They sit apart so that each module stays below the 8192 tokens past which
CPython 3.11's parser doubles its buffers, and every process that imports
the battery compiles it with a smaller peak.

quadrature-orthonormality, kernel-idempotency and kernel-parity-projection
certify the quadrature rule, Quadrature.nodes() and bargmann._factors, on
node values: _node_values forms them with one inverse FFT per l node, a
route that shares no code with the Gram matrix (bargmann._gram) behind
every library quadrature sum.

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
from functools import partial

import numpy as np

from . import __version__
from ._reference import (
    _apply_kernel_grid,
    _inversion_image,
    _kernel_identity,
    _node_values,
    _series_expect_J,
    _theta2_half_period,
    _unpaired_lattice_sum,
)
from .bargmann import (
    Quadrature,
    evaluate,
    inner_quadrature,
    covariant_symbol,
    reproducing_apply,
)
from .coherent import (
    FreeRotor,
    Linear,
    PhasePoint,
    _complex,
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
from .errors import ConfigError, DomainError
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
    ThetaArg,
    _integer,
    gaussian_lattice_sum,
    theta,
    theta_log_derivative,
)

__all__ = ["DEFAULT_CONFIG", "CheckResult", "VerifyReport", "load_config", "run_verify"]

DEFAULT_CONFIG = {
    "two_jmax": 40,
    "n_l": 40,
    "n_phi": 64,
    "seed": 20260817,
    "random_cases": 50,
}

# The battery's own upper bound on the config; the window and quadrature
# bounds are those of Truncation and Quadrature.  The largest allowed
# battery peaks near 120 MB, the shared window basis (11.5 MB) included.
CONFIG_CAPS = {"random_cases": 10_000}

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
                    # strict JSON has no NaN or Infinity: such an error is written as null
                    "max_abs_error": c.max_abs_error if math.isfinite(c.max_abs_error) else None,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "n_cases": c.n_cases,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def validate_config(overrides: dict) -> dict:
    """Merge overrides into DEFAULT_CONFIG with strict key/value checks."""
    if not isinstance(overrides, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(overrides) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    config = dict(DEFAULT_CONFIG)
    config.update(overrides)
    try:
        _integer(config["seed"], 0, math.inf, "seed must be an integer >= {low}, got {value!r}")
        message = "random_cases must be an integer in [{low}, {high}], got {value!r}"
        _integer(config["random_cases"], 1, CONFIG_CAPS["random_cases"], message)
        _Context(config)  # its window and quadrature check their own values
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    # the battery draws coherent states with |l| <= 1.5, which needs a
    # window of 24; smaller quadrature orders are allowed and simply
    # fail the resolution-sensitive checks honestly
    if config["two_jmax"] < 24:
        raise ConfigError(f"two_jmax must be >= 24, got {config['two_jmax']}")
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
    # ValueError: bad JSON, bytes that are not UTF-8, an int past the digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


class _Context:
    """Shared fixtures for the check battery."""

    def __init__(self, config: dict):
        self.trunc = Truncation(config["two_jmax"])
        self.quad = Quadrature(config["n_l"], config["n_phi"])
        self.seed = config["seed"]
        self.cases = config["random_cases"]
        self._rngs: dict[int, np.random.Generator] = {}
        self._shared: dict[tuple, object] = {}

    def shared(self, build, *args):
        """build(self, *args), built once for the context's life: a fixture several checks read.

        A check reads a shared fixture and never writes to it, so each
        check gives the same errors alone as within the battery.
        """
        key = (build, *args)
        if key not in self._shared:
            self._shared[key] = build(self, *args)
        return self._shared[key]

    def rng(self, index: int) -> np.random.Generator:
        """The generator seeded by (seed, index), one per index for the context's life.

        A per-sector check asks for its index once per sector, so its
        fermion cases continue the stream its boson cases drew from.
        """
        if index not in self._rngs:
            self._rngs[index] = np.random.default_rng([self.seed, index])
        return self._rngs[index]

    def interior_j(self, sector: Sector) -> np.ndarray:
        return self.trunc.j_values(sector)[1:-1]


def _each_sector(check):
    """The table entry of a per-sector check(ctx, sector): boson cases, then fermion cases."""

    def each(ctx: _Context):
        return [check(ctx, sector) for sector in SECTORS]

    return each


def _rel(delta, scale) -> np.ndarray:
    return np.abs(delta) / np.maximum(np.abs(scale), 1e-300)


def _rel_gap(value, reference) -> float:
    return abs(value - reference) / abs(reference)


def _modulus(z) -> np.ndarray:
    """|z| elementwise by hypot, with the bits of Python's abs(complex); np.abs rounds otherwise."""
    return np.hypot(np.real(z), np.imag(z))


def _sup(delta) -> float:
    return float(np.max(np.abs(delta)))


def _random_coeffs(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _random_point(rng: np.random.Generator, l_max: float) -> PhasePoint:
    return PhasePoint(rng.uniform(-l_max, l_max), rng.uniform(0.0, 2.0 * math.pi))


def _random_points(rng: np.random.Generator, l_max: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(l, phi) arrays of the n points that n calls of _random_point draw, in one draw."""
    parts = rng.uniform([-l_max, 0.0], [l_max, 2.0 * math.pi], size=(n, 2))
    return parts[:, 0], parts[:, 1]


def _random_pairs(rng: np.random.Generator, l_max: float, n: int) -> tuple[PhasePoint, PhasePoint]:
    """Grids (p1, p2) of the n pairs that n rounds of two _random_point calls draw, in one draw."""
    l, phi = _random_points(rng, l_max, 2 * n)
    return PhasePoint(l[0::2], phi[0::2]), PhasePoint(l[1::2], phi[1::2])


# --------------------------------------------------------------------------
# theta checks


def _inversion_gaps(ctx: _Context, kind: int):
    ls = np.linspace(-2.0, 2.0, 81)
    direct = theta(kind, ThetaArg(1j * ls / math.pi, 1j / math.pi))
    return _rel_gap(direct, _inversion_image(kind, ls, 1j * math.pi))


def _random_v(rng: np.random.Generator, re_max: float, im_max: float) -> np.ndarray:
    """Two rows of 100 complex v, real and imaginary parts drawn alternately."""
    parts = rng.uniform([-re_max, -im_max], [re_max, im_max], size=(2, 100, 2))
    return parts[..., 0] + 1j * parts[..., 1]


def _check_theta2_shift(ctx: _Context):
    v = _random_v(ctx.rng(3), 1.0, 0.5)

    def gaps(tau, vs):
        direct = _unpaired_lattice_sum(1j * math.pi * tau, 2j * math.pi * vs, True)
        return _rel_gap(_theta2_half_period(vs, tau), direct)

    return [gaps(tau, vs) for tau, vs in zip((1j * math.pi, 1j / math.pi), v)]


def _check_theta3_general_inversion(ctx: _Context):
    tau = 1j * math.pi
    v = np.linspace(-1.0, 1.0, 41)
    return _rel_gap(theta(3, ThetaArg(v / tau, -1.0 / tau)), _inversion_image(3, v, tau))


def _check_theta_evenness(ctx: _Context):
    v = _random_v(ctx.rng(5), 2.0, 1.0)
    tau = 1j * math.pi

    def gaps(kind, vs):
        # theta(-v) by the unpaired sum against theta(v) from the library
        minus = _unpaired_lattice_sum(1j * math.pi * tau, -2j * math.pi * vs, kind == 2)
        return _rel_gap(minus, theta(kind, ThetaArg(vs, tau)))

    return [gaps(kind, vs) for kind, vs in zip((2, 3), v)]


def _check_logderiv_fd(ctx: _Context):
    h = 1e-5
    vs = np.linspace(-0.45, 0.45, 19)
    stencil = vs + np.array([[h], [-h], [0.0]])

    def gaps(kind, tau):
        analytic = theta_log_derivative(kind, ThetaArg(vs, tau))
        # theta by the unpaired sum; i pi in lin gives theta_4 its (-1)^m
        lin = 2j * math.pi * stencil + (1j * math.pi if kind == 4 else 0.0)
        up, down, mid = _unpaired_lattice_sum(1j * math.pi * tau, lin, False)
        return np.abs(analytic - (up - down) / (2.0 * h * mid))

    return [gaps(kind, tau) for kind in (3, 4) for tau in (1j * math.pi, 1j / math.pi)]


# --------------------------------------------------------------------------
# window-operator checks


def _basis(ctx: _Context, sector: Sector) -> list[StateVector]:
    """|j> for every j of the window, in ascending j; a shared fixture."""
    return [basis_state(sector, j, ctx.trunc) for j in ctx.trunc.j_values(sector).tolist()]


def _row_sups(rows) -> np.ndarray:
    """The largest modulus of each residual row, from one reduction over the stacked rows."""
    return np.max(np.abs(rows), axis=1)


def _check_ju_commutator(ctx: _Context, sector: Sector):
    rows = []
    for s in ctx.shared(_basis, sector)[:-1]:
        u = apply_operator("U", s)
        uj = apply_operator("U", apply_operator("J", s))
        rows.append(apply_operator("J", u).coeffs - uj.coeffs - u.coeffs)
    return _row_sups(rows)


def _check_x_factorization(ctx: _Context, sector: Sector):
    rows = [
        apply_operator("X", s).coeffs
        - apply_operator("U", apply_exp_j(s, -1.0)).coeffs * math.exp(-0.5)
        for s in ctx.shared(_basis, sector)[:-1]
    ]
    scale = [math.exp(-j - 0.5) for j in ctx.trunc.j_values(sector)[:-1].tolist()]
    return _row_sups(_rel(np.array(rows), np.array(scale)[:, None]))


def _matrices(ctx: _Context, sector: Sector):
    """The window matrices of X and Xdag; a shared fixture."""
    return operator_matrix("X", sector, ctx.trunc), operator_matrix("Xdag", sector, ctx.trunc)


def _check_xxdag_ratio(ctx: _Context, sector: Sector):
    x, xd = ctx.shared(_matrices, sector)
    lhs = np.diag(x @ xd)[1:-1]
    rhs = math.exp(2.0) * np.diag(xd @ x)[1:-1]
    return _rel(lhs - rhs, lhs)


def _check_deformed_algebra(ctx: _Context, sector: Sector):
    j = ctx.interior_j(sector)
    x, xd = ctx.shared(_matrices, sector)
    n = operator_matrix("N", sector, ctx.trunc)
    comm = np.diag(x @ xd - xd @ x)[1:-1]
    target = 2.0 * math.sinh(1.0) * np.exp(-2.0 * j)
    nx = (n @ x - x @ n + x)[1:-1, 1:-1]
    nxd = (n @ xd - xd @ n - xd)[1:-1, 1:-1]
    scale = max(np.max(np.abs(x)), np.max(np.abs(xd)))
    # one case per interior row of each of the three relations
    rows = [np.max(np.abs(m), axis=1) / scale for m in (nx, nxd)]
    return np.concatenate([_rel(comm - target, target), *rows])


def _check_qboson_relation(ctx: _Context, sector: Sector):
    q = math.exp(-2.0)
    x, xd = ctx.shared(_matrices, sector)
    a = x / math.sqrt(1.0 + q)
    ad = xd / math.sqrt(1.0 + q)
    lhs = np.diag(a @ ad - q * (ad @ a))[1:-1]
    rhs = np.exp(2.0 * (-ctx.interior_j(sector) + N_CONST))
    return _rel(lhs - rhs, rhs)


def _check_time_reversal_conjugation(ctx: _Context, sector: Sector):
    return _row_sups([
        apply_time_reversal(apply_operator("U", apply_time_reversal(s))).coeffs
        - apply_operator("Udag", s).coeffs
        for s in ctx.shared(_basis, sector)[1:-1]
    ])


def _check_u_unitarity(ctx: _Context, sector: Sector):
    rng = ctx.rng(13)
    size = ctx.trunc.size(sector)
    errors = []
    for _ in range(5):
        a = _random_coeffs(rng, size)
        b = _random_coeffs(rng, size)
        a[-1] = b[-1] = 0.0
        sa = StateVector(sector, ctx.trunc, a)
        sb = StateVector(sector, ctx.trunc, b)
        errors.append(
            _rel_gap(inner(apply_operator("U", sa), apply_operator("U", sb)), inner(sa, sb))
        )
    return errors


# --------------------------------------------------------------------------
# coherent-state checks

_LATTICE_L = {Sector.BOSON: (-2.0, -1.0, 0.0, 1.0, 2.0), Sector.FERMION: (-1.5, -0.5, 0.5, 1.5)}


def _check_expectJ_lattice(ctx: _Context, sector: Sector):
    ls = np.array(_LATTICE_L[sector])
    return np.abs(expect_J(PhasePoint(ls, 0.0), sector) - ls)


def _check_expectJ_series(ctx: _Context, sector: Sector):
    ls = ctx.rng(15).uniform(-2.0, 2.0, size=25)
    return np.abs(expect_J(PhasePoint(ls, 0.0), sector) - _series_expect_J(ls, sector))


def _expectJ_deviation_grid(ctx: _Context, sector: Sector):
    """(l, <J>) on 101 points l in [0, 1]; a shared fixture."""
    grid = np.linspace(0.0, 1.0, 101)
    return grid, expect_J(PhasePoint(grid, 0.0), sector)


def _check_expectJ_approx_residual(ctx: _Context, sector: Sector):
    grid, exact = ctx.shared(_expectJ_deviation_grid, sector)
    return np.abs(exact - approx_expect_J(grid, sector))


def _check_expectJ_amplitude_window(ctx: _Context):
    # one error per sector (its deviation amplitude); each grid point is a case
    mid = 3.25e-4
    grids = [ctx.shared(_expectJ_deviation_grid, sector) for sector in SECTORS]
    errors = [abs(float(np.max(np.abs(exact - grid))) - mid) for grid, exact in grids]
    return errors, sum(grid.size for grid, _ in grids)


def _check_expectU_phase(ctx: _Context, sector: Sector):
    phis = np.array([0.0, 1.234, math.pi, 5.0])
    val = expect_U(PhasePoint(np.linspace(-1.0, 1.0, 21)[:, None], phis), sector)
    return np.abs(val / np.abs(val) - np.exp(1j * phis))


def _check_expectU_modulus(ctx: _Context, sector: Sector):
    grid = PhasePoint(np.linspace(-1.0, 1.0, 81), 0.0)
    return np.abs(np.abs(expect_U(grid, sector)) * math.exp(0.25) - 1.0)


def _check_expectU_series(ctx: _Context, sector: Sector):
    ls, phis = _random_points(ctx.rng(20), 1.5, 20)
    exact = expect_U(PhasePoint(ls, phis), sector).tolist()
    errors = []
    for l, phi, value in zip(ls.tolist(), phis.tolist(), exact):
        state = coherent_state(PhasePoint(l, phi), sector, ctx.trunc)
        series = inner(state, apply_operator("U", state)) / inner(state, state)
        errors.append(abs(series - value))
    return errors


def _check_relative_expectU(ctx: _Context, sector: Sector):
    p = PhasePoint(np.array([0.5, -0.8, 1.0]), np.array([1.0, 2.2, 4.0]))
    return np.abs(_modulus(relative_expect_U(p, PhasePoint(0.0, 0.0), sector)) - 1.0)


def _check_uncertainty_equality(ctx: _Context):
    # per case: l and phi as _random_point(rng, 2.0) draws them, then the
    # uniform draw that puts the case in the boson sector below 0.5
    draws = ctx.rng(22).uniform([-2.0, 0.0, 0.0], [2.0, 2.0 * math.pi, 1.0], size=(ctx.cases, 3))
    l, phi, pick = draws.T
    errors = []
    for sector, drawn in zip(SECTORS, (pick < 0.5, pick >= 0.5)):
        result = uncertainty_QP(PhasePoint(l[drawn], phi[drawn]), sector)
        errors.append(np.abs(result["dQ"] * result["dP"] - result["bound"]))
    return errors


def _check_uncertainty_basis_gap(ctx: _Context, sector: Sector):
    j = ctx.interior_j(sector)
    x, xd = ctx.shared(_matrices, sector)
    qq = 0.25 * np.diag(x @ xd + xd @ x)[1:-1]
    pp = qq  # <j|P^2|j> has the same diagonal; cross terms vanish
    # [Q, P] = (i/2) [X, Xdag], so the bound is |<[X, Xdag]>| / 4
    comm = np.diag(x @ xd - xd @ x)[1:-1]
    product = np.sqrt(qq) * np.sqrt(pp)
    bound = 0.25 * np.abs(comm)
    target = 0.5 * np.exp(-2.0 * j - 1.0)
    return _rel(product - bound - target, target)


def _check_momentgen_exact(ctx: _Context, sector: Sector):
    ls = np.linspace(-2.0, 2.0, 41)
    exact, _ = expect_expJ(-2.0, PhasePoint(ls, 0.0), sector)
    return np.abs(exact / np.exp(1.0 - 2.0 * ls) - 1.0)


def _check_momentgen_ratio(ctx: _Context, sector: Sector):
    grid = np.linspace(-2.0, 2.0, 21)
    # s down the rows, l across the columns
    exact, approx = expect_expJ(grid[:, None], PhasePoint(grid, 0.0), sector)
    return np.abs(exact / approx - 1.0)


def _boson_distributions(ctx: _Context):
    """(l, table) for 21 boson points l in [0, 1] from one energy_distribution grid; shared.

    The table's axes are (point, level, (j, prob)).
    """
    l = np.linspace(0.0, 1.0, 21)
    return l, energy_distribution(PhasePoint(l, 0.0), Sector.BOSON, jmax=12)


def _check_energy_distribution_gaussian(ctx: _Context):
    l, table = ctx.shared(_boson_distributions)
    return np.abs(table[..., 1] - gaussian_energy_profile(table[..., 0], l[:, None]))


def _check_energy_distribution_normalization(ctx: _Context):
    _, table = ctx.shared(_boson_distributions)
    return np.abs(np.sum(table[..., 1], axis=-1) - 1.0)


def _check_linear_evolution(ctx: _Context, sector: Sector):
    rng = ctx.rng(27)
    errors = []
    for _ in range(10):
        l = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 1.0)
        omega = rng.uniform(0.1, 1.0)
        t = rng.uniform(0.0, 2.0)
        state = coherent_state(PhasePoint(l, phi), sector, ctx.trunc)
        target = coherent_state(PhasePoint(l, phi + omega * t), sector, ctx.trunc)
        errors.append(_sup(evolve(state, Linear(omega), t).coeffs - target.coeffs))
    return errors


def _check_free_evolution_X(ctx: _Context, sector: Sector):
    errors = []
    for l, phi in ((0.0, 2.5), (0.5, 3.0), (-0.7, 2.2)):
        state = coherent_state(PhasePoint(l, phi), sector, ctx.trunc)
        for t in (0.5, 1.0, 2.0):
            moved = evolve(apply_operator("X", evolve(state, FreeRotor(), t)), FreeRotor(), -t)
            factor = cmath.exp(complex(-l, phi - 0.5 * t))
            target = coherent_state(PhasePoint(l, phi - t), sector, ctx.trunc)
            errors.append(_sup(moved.coeffs[1:-1] - factor * target.coeffs[1:-1]))
    return errors


def _heisenberg_grid(ctx: _Context):
    """(p, t): phi = 0.7, l in [-1, 1] (rows) by t in [-2, 2] (columns); a shared fixture."""
    return PhasePoint(np.linspace(-1.0, 1.0, 21)[:, None], 0.7), np.linspace(-2.0, 2.0, 21)


def _heisenberg_exact(ctx: _Context, sector: Sector):
    """heisenberg_expectations on the shared grid; a shared fixture."""
    return heisenberg_expectations(*ctx.shared(_heisenberg_grid), sector)


def _heisenberg_approx(ctx: _Context):
    """heisenberg_approximation on the shared grid; a shared fixture."""
    return heisenberg_approximation(*ctx.shared(_heisenberg_grid))


def _heisenberg_approx_gaps(ctx: _Context, sector: Sector, which: str):
    exact = ctx.shared(_heisenberg_exact, sector)[which]
    return np.abs(exact - ctx.shared(_heisenberg_approx)[which])


def _check_heisenberg_relative_phase(ctx: _Context, sector: Sector):
    p, t = ctx.shared(_heisenberg_grid)
    num = ctx.shared(_heisenberg_exact, sector)["U_t"]
    den = heisenberg_expectations(PhasePoint(0.0, 0.0), t, sector)["U_t"]
    return np.abs(np.angle((num / den) * np.exp(-1j * (p.phi + t * p.l))))


def _check_eigenstate_residual(ctx: _Context, sector: Sector):
    errors = []
    for p in (PhasePoint(0.0, 0.0), PhasePoint(0.5, 1.0), PhasePoint(-1.0, 4.2)):
        state = coherent_state(p, sector, ctx.trunc)
        delta = apply_operator("X", state).coeffs[1:-1] - p.xi * state.coeffs[1:-1]
        errors.append(float(np.linalg.norm(delta)) / state.norm())
    return errors


def _check_time_reversal_coherent(ctx: _Context, sector: Sector):
    rng = ctx.rng(34)
    errors = []
    for _ in range(10):
        l = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        flipped = apply_time_reversal(coherent_state(PhasePoint(l, phi), sector, ctx.trunc))
        target = coherent_state(PhasePoint(-l, phi), sector, ctx.trunc)
        errors.append(_sup(flipped.coeffs - target.coeffs))
    return errors


def _mean_j(j: np.ndarray, coeffs: np.ndarray) -> float:
    return float(np.sum(j * np.abs(coeffs) ** 2) / np.sum(np.abs(coeffs) ** 2))


def _check_freerotor_conservation(ctx: _Context, sector: Sector):
    rng = ctx.rng(35)
    j = ctx.trunc.j_values(sector)
    errors = []
    for _ in range(5):
        c = _random_coeffs(rng, j.size)
        evolved = evolve(StateVector(sector, ctx.trunc, c), FreeRotor(), 1.7).coeffs
        # one case: the worse of the modulus drift and the <J> drift
        drifts = [_sup(np.abs(evolved) - np.abs(c)), abs(_mean_j(j, c) - _mean_j(j, evolved))]
        errors.append(np.max(drifts))
    return errors


# --------------------------------------------------------------------------
# functional-representation checks


def _small_basis(ctx: _Context, sector: Sector, bound: float) -> list[StateVector]:
    """|j> for |j| <= bound, in ascending j, from the shared basis."""
    j = ctx.trunc.j_values(sector).tolist()
    return [s for jv, s in zip(j, ctx.shared(_basis, sector)) if abs(jv) <= bound]


def _check_quadrature_orthonormality(ctx: _Context, sector: Sector):
    # each basis state's node values once, then every pair against the exact delta;
    # |j| <= 3 keeps every node value below e^68 (300 nodes), so the sums need no range guard
    _, _, weights = ctx.quad.nodes()
    values = [
        _node_values(ctx.quad, sector, ctx.trunc.two_jmax, s.coeffs)
        for s in _small_basis(ctx, sector, 3.0)
    ]
    # weights * conj(a) * b multiplies left to right, so weights * conj(a) is formed once
    # per state; np.add.reduce is np.sum without its wrapper
    return [
        abs(complex(np.add.reduce(weighted * b, axis=None)) - (1.0 if a is b else 0.0))
        for a, weighted in zip(values, [weights * np.conj(a) for a in values])
        for b in values
    ]


def _random_state(ctx: _Context, sector: Sector, rng: np.random.Generator) -> StateVector:
    return StateVector(sector, ctx.trunc, _random_coeffs(rng, ctx.trunc.size(sector)))


def _check_bargmann_eval(ctx: _Context, sector: Sector):
    rng = ctx.rng(37)
    errors = []
    for _ in range(10):
        s = _random_state(ctx, sector, rng)
        p = _random_point(rng, 1.0)
        errors.append(abs(evaluate(s, p) - inner(coherent_state(p, sector, ctx.trunc), s)))
    return errors


def _check_bargmann_intertwining(ctx: _Context, sector: Sector):
    """apply_operator and apply_time_reversal against the dense route.

    J, U, Udag, X and Xdag act as their window matrices; T as the
    exchange matrix c_j -> c_{-j} followed by complex conjugation.
    """
    rng = ctx.rng(38)
    kinds = ("J", "U", "Udag", "X", "Xdag")
    dense = [operator_matrix(kind, sector, ctx.trunc) for kind in kinds]
    exchange = np.eye(ctx.trunc.size(sector))[::-1]
    errors = []
    for _ in range(5):
        s = _random_state(ctx, sector, rng)
        errors += [_sup(apply_operator(k, s).coeffs - m @ s.coeffs) for k, m in zip(kinds, dense)]
        errors.append(_sup(apply_time_reversal(s).coeffs - np.conj(exchange @ s.coeffs)))
    return errors


def _check_bargmann_functional_actions(ctx: _Context, sector: Sector):
    rng = ctx.rng(39)
    s = _random_state(ctx, sector, rng)
    l, phi = _random_points(rng, 0.5, 10)
    p = PhasePoint(l, phi)
    # f at the points (l + dl, phi) for dl = 0, -1, 1, -2, and at (-l, phi): one row each
    rows = np.stack([l, l - 1.0, l + 1.0, l - 2.0, -l])
    f, f_m1, f_p1, f_m2, f_reversed = evaluate(s, PhasePoint(rows, phi)).tolist()
    images = [apply_operator(kind, s) for kind in ("U", "Udag", "X", "Xdag")]
    u, udag, x, xdag, t = (evaluate(a, p).tolist() for a in [*images, apply_time_reversal(s)])
    # Python complex arithmetic: numpy rounds complex products of arrays differently
    errors = []
    for k, (lk, phik) in enumerate(zip(l.tolist(), phi.tolist())):
        inv_xistar = cmath.exp(complex(lk, phik))
        errors += [
            # (U f)(xi*) = f(e xi*)/(sqrt(e) xi*)
            abs(u[k] - f_m1[k] * inv_xistar * math.exp(-0.5)),
            # (Udag f)(xi*) = e^(-1/2) xi* f(xi*/e)
            abs(udag[k] - f_p1[k] / inv_xistar * math.exp(-0.5)),
            # (X f)(xi*) = f(e^2 xi*)/(e xi*)
            abs(x[k] - f_m2[k] * inv_xistar * math.exp(-1.0)),
            # (Xdag f)(xi*) = xi* f(xi*)
            abs(xdag[k] - f[k] / inv_xistar),
            # (T f)(xi*) = conj(f at the time-reversed point)
            abs(t[k] - f_reversed[k].conjugate()),
        ]
    return errors


def _check_kernel_identity_fixed(ctx: _Context, sector: Sector):
    lhs, rhs = _kernel_identity(PhasePoint(0, 0), PhasePoint(0, 0), sector, ctx.quad)
    return abs(rhs - lhs)


def _check_kernel_identity_random(ctx: _Context, sector: Sector):
    lhs, rhs = _kernel_identity(*_random_pairs(ctx.rng(41), 1.0, 10), sector, ctx.quad)
    return _modulus(rhs - lhs)


def _check_kernel_reproducing(ctx: _Context, sector: Sector):
    return [
        abs(reproducing_apply(s, p, sector, ctx.quad) - evaluate(s, p))
        for s in _small_basis(ctx, sector, 3.0)
        for p in (PhasePoint(0.3, 1.1), PhasePoint(-0.5, 4.0))
    ]


def _check_kernel_cross_sector(ctx: _Context, sector: Sector):
    other = Sector.FERMION if sector is Sector.BOSON else Sector.BOSON
    return [
        abs(reproducing_apply(s, p, sector, ctx.quad))
        for s in _small_basis(ctx, other, 2.5)
        for p in (PhasePoint(0.2, 0.9), PhasePoint(-0.4, 3.3))
    ]


def _band_limited_values(ctx: _Context, sector: Sector, rng, j_bound: float) -> np.ndarray:
    """Node values of random coefficients supported on |j| <= j_bound.

    The quadrature resolves monomials only while their Gaussian weight
    peaks inside the node range, so projector identities are stated on
    that span.
    """
    j = ctx.trunc.j_values(sector)
    coeffs = _random_coeffs(rng, j.size)
    coeffs[np.abs(j) > j_bound] = 0.0
    return _node_values(ctx.quad, sector, ctx.trunc.two_jmax, coeffs)


def _check_kernel_idempotency(ctx: _Context, sector: Sector):
    once = _apply_kernel_grid(ctx.quad, sector, _band_limited_values(ctx, sector, ctx.rng(44), 4.0))
    twice = _apply_kernel_grid(ctx.quad, sector, once)
    return np.abs(twice - once) / float(np.max(np.abs(once)))


def _check_kernel_parity_projection(ctx: _Context):
    rng = ctx.rng(45)
    vb = _band_limited_values(ctx, Sector.BOSON, rng, 4.0)
    vf = _band_limited_values(ctx, Sector.FERMION, rng, 4.0)
    mixed = vb + vf
    even = _apply_kernel_grid(ctx.quad, Sector.BOSON, mixed)
    odd = _apply_kernel_grid(ctx.quad, Sector.FERMION, mixed)
    # one case per node: the largest of the three projector identities there
    gaps = np.maximum.reduce([np.abs(even - vb), np.abs(odd - vf), np.abs(even + odd - mixed)])
    return gaps / float(np.max(np.abs(mixed)))


def _check_kernel_symmetry(ctx: _Context, sector: Sector):
    p1, p2 = _random_pairs(ctx.rng(46), 1.0, 10)
    half = sector is Sector.FERMION
    w12 = _complex(-(p1.l + p2.l), p2.phi - p1.phi)
    w21 = _complex(-(p1.l + p2.l), p1.phi - p2.phi)
    k12 = gaussian_lattice_sum(w12, half=half)
    k21 = _unpaired_lattice_sum(-1.0 + 0.0j, w21, half)
    return _modulus(np.conj(k21) - k12) / _modulus(k12)


def _check_covariant_symbol(ctx: _Context):
    def symbol(matrix, p, sector):
        return covariant_symbol(matrix, p, sector)["symbol"]

    p = PhasePoint(0.4, 1.3)
    gaps = [
        [
            abs(symbol(np.eye(ctx.trunc.size(sector)), p, sector) - 1.0),
            abs(symbol(operator_matrix("X", sector, ctx.trunc), p, sector) - p.xi),
        ]
        for sector in SECTORS
    ]
    jmat = operator_matrix("J", Sector.BOSON, ctx.trunc)
    return gaps + [abs(symbol(jmat, PhasePoint(1.0, 0.0), Sector.BOSON) - 1.0)]


def _check_quadrature_refinement(ctx: _Context):
    # the finest order counts while the errors shrink monotonically in n_l
    [s] = _small_basis(ctx, Sector.BOSON, 0.0)
    errors = [abs(inner_quadrature(s, s, Quadrature(n_l, 8)) - 1.0) for n_l in (2, 4, 8, 16)]
    monotone = all(finer < coarser for coarser, finer in zip(errors, errors[1:]))
    return (errors[-1] if monotone else errors), len(errors)


# --------------------------------------------------------------------------

_CHECKS = (
    ("theta3-inversion", 1e-12, lambda ctx: _inversion_gaps(ctx, 3)),
    ("theta2-inversion", 1e-12, lambda ctx: _inversion_gaps(ctx, 2)),
    ("theta2-half-period-shift", 1e-12, _check_theta2_shift),
    ("theta3-general-inversion", 1e-12, _check_theta3_general_inversion),
    ("theta-evenness", 1e-12, _check_theta_evenness),
    ("theta-logderiv-fd", 1e-8, _check_logderiv_fd),
    ("algebra-JU-commutator", 1e-12, _each_sector(_check_ju_commutator)),
    ("X-factorization", 1e-14, _each_sector(_check_x_factorization)),
    ("XXdag-ratio", 1e-13, _each_sector(_check_xxdag_ratio)),
    ("deformed-algebra", 1e-13, _each_sector(_check_deformed_algebra)),
    ("q-boson-relation", 1e-12, _each_sector(_check_qboson_relation)),
    ("time-reversal-conjugation", 1e-14, _each_sector(_check_time_reversal_conjugation)),
    ("U-unitarity-interior", 1e-13, _each_sector(_check_u_unitarity)),
    ("expectJ-lattice-exact", 1e-12, _each_sector(_check_expectJ_lattice)),
    ("expectJ-series-agreement", 1e-12, _each_sector(_check_expectJ_series)),
    ("expectJ-approx-residual", 1e-8, _each_sector(_check_expectJ_approx_residual)),
    ("expectJ-amplitude-window", 5e-6, _check_expectJ_amplitude_window),
    ("expectU-phase", 1e-12, _each_sector(_check_expectU_phase)),
    ("expectU-modulus-approx", 5e-4, _each_sector(_check_expectU_modulus)),
    ("expectU-series-agreement", 1e-10, _each_sector(_check_expectU_series)),
    ("relative-expectU-modulus", 5e-4, _each_sector(_check_relative_expectU)),
    ("uncertainty-equality", 1e-12, _check_uncertainty_equality),
    ("uncertainty-basis-gap", 1e-12, _each_sector(_check_uncertainty_basis_gap)),
    ("momentgen-s-minus-2", 1e-13, _each_sector(_check_momentgen_exact)),
    ("momentgen-ratio", 1e-3, _each_sector(_check_momentgen_ratio)),
    ("energy-distribution-gaussian", 5e-4, _check_energy_distribution_gaussian),
    ("energy-distribution-normalization", 1e-12, _check_energy_distribution_normalization),
    ("linear-evolution-stability", 1e-14, _each_sector(_check_linear_evolution)),
    ("free-evolution-X", 1e-10, _each_sector(_check_free_evolution_X)),
    ("heisenberg-approx-U", 1e-3, _each_sector(partial(_heisenberg_approx_gaps, which="U_t"))),
    ("heisenberg-approx-X", 1e-3, _each_sector(partial(_heisenberg_approx_gaps, which="X_t"))),
    ("heisenberg-relative-phase", 1e-3, _each_sector(_check_heisenberg_relative_phase)),
    ("coherent-eigenstate-residual", 1e-12, _each_sector(_check_eigenstate_residual)),
    ("time-reversal-coherent", 1e-14, _each_sector(_check_time_reversal_coherent)),
    ("freerotor-conservation", 1e-14, _each_sector(_check_freerotor_conservation)),
    ("quadrature-orthonormality", 1e-8, _each_sector(_check_quadrature_orthonormality)),
    ("bargmann-eval-vs-inner", 1e-12, _each_sector(_check_bargmann_eval)),
    ("bargmann-intertwining", 1e-12, _each_sector(_check_bargmann_intertwining)),
    ("bargmann-functional-actions", 1e-12, _each_sector(_check_bargmann_functional_actions)),
    ("kernel-identity-fixed", 1e-6, _each_sector(_check_kernel_identity_fixed)),
    ("kernel-identity-random", 1e-5, _each_sector(_check_kernel_identity_random)),
    ("kernel-reproducing", 1e-7, _each_sector(_check_kernel_reproducing)),
    ("kernel-cross-sector", 1e-7, _each_sector(_check_kernel_cross_sector)),
    ("kernel-idempotency", 1e-6, _each_sector(_check_kernel_idempotency)),
    ("kernel-parity-projection", 1e-6, _check_kernel_parity_projection),
    ("kernel-symmetry", 1e-13, _each_sector(_check_kernel_symmetry)),
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


def _tally(result) -> tuple[float, int]:
    """(NaN-propagating maximum, case count) of one check's return value."""
    errors, n_cases = result if isinstance(result, tuple) else (result, None)
    parts = errors if isinstance(errors, list) else [errors]
    flat = np.concatenate([np.ravel(part) for part in parts])
    return float(np.max(flat)), flat.size if n_cases is None else n_cases


def run_verify(config: dict) -> VerifyReport:
    """Execute the full check battery under `config` (already validated)."""
    ctx = _Context(config)
    results = []
    for name, tolerance, fn in _CHECKS:
        max_err, n_cases = _tally(fn(ctx))
        results.append(CheckResult(name, max_err, tolerance, bool(max_err <= tolerance), n_cases))
    return VerifyReport(
        version=__version__,
        config=dict(sorted(config.items())),
        checks=tuple(results),
        notes=_NOTES,
    )
