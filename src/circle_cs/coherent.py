"""Coherent states |l, phi> on the circle and their expectation calculus.

A phase-space point (l, phi) labels the state with coefficients

    c_j = exp(l*j - i*j*phi - j^2/2),      xi = exp(-l + i*phi),

which is an eigenvector of X = U e^(-J-1/2) with eigenvalue xi.  Every
overlap and expectation value reduces to Gaussian lattice sums

    S(w) = sum_m exp(w*m - m^2)

over the integer (boson) or half-integer (fermion) lattice, evaluated
in closed form by theta.gaussian_lattice_sum.  Alongside each exact
value this module exposes the standard closed-form approximation so
their deviation is measurable rather than assumed:

    <J>   ~ l -+ 2 pi e^(-pi^2) sin(2 pi l)     (boson -, fermion +)
    <U>   ~ e^(-1/4) e^(i phi)
    <e^(sJ)> ~ e^(s^2/4 + s l)
    U(t)  ~ e^(-t^2/4) e^(-1/4) e^(i(phi + t l))
    X(t)  ~ e^(-t^2/4) e^(-l) e^(i(phi + t(l - 1/2)))
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, SingularityError, TruncationError
from .hilbert import Sector, StateVector, Truncation
from .theta import (
    DEFAULT_CONTROL,
    SeriesControl,
    ThetaArg,
    gaussian_lattice_sum,
    theta_log_derivative,
)

__all__ = [
    "PhasePoint",
    "FreeRotor",
    "Linear",
    "required_two_jmax",
    "coherent_state",
    "overlap_closed",
    "norm_sq",
    "expect_J",
    "approx_expect_J",
    "expect_U",
    "approx_expect_U",
    "relative_expect_U",
    "expect_expJ",
    "approx_expJ",
    "evolve",
    "heisenberg_expectations",
    "heisenberg_approximation",
    "uncertainty_QP",
    "energy_distribution",
    "gaussian_energy_profile",
]

# Amplitude of the sinusoidal deviation of <J> from l.
J_DEVIATION_AMPLITUDE = 2.0 * math.pi * math.exp(-math.pi * math.pi)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhasePoint:
    """Cylinder coordinates (l, phi) with phi normalized into [0, 2*pi).

    xi and log(xi) = -l + i*phi are always derived from the stored
    pair, so half-integer powers xi^(-j) never hit a branch ambiguity.

    l and phi may be arrays that broadcast together; the point then
    stands for a grid of points of the broadcast shape, and expect_J,
    expect_U, expect_expJ and heisenberg_expectations evaluate all of
    it in one call.  Scalars are stored as floats, arrays as float
    ndarrays.
    """

    l: float | np.ndarray
    phi: float | np.ndarray
    # broadcast shape of l and phi; () for a single point
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        l = np.asarray(self.l, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        try:
            shape = np.broadcast(l, phi).shape
        except ValueError:
            raise DomainError(
                f"l of shape {l.shape} and phi of shape {phi.shape} do not broadcast"
            ) from None
        if not (np.isfinite(l).all() and np.isfinite(phi).all()):
            raise DomainError("phase-space coordinates must be finite")
        phi = phi % _TWO_PI
        object.__setattr__(self, "l", float(l) if l.ndim == 0 else l)
        object.__setattr__(self, "phi", float(phi) if phi.ndim == 0 else phi)
        object.__setattr__(self, "shape", shape)

    @property
    def xi(self) -> complex | np.ndarray:
        return _shaped(np.exp(self.log_xi), self.shape, complex)

    @property
    def log_xi(self) -> complex | np.ndarray:
        return _shaped(-self.l + 1j * self.phi, self.shape, complex)


@dataclass(frozen=True)
class FreeRotor:
    """Hamiltonian J^2/2 (free motion on the circle)."""


@dataclass(frozen=True)
class Linear:
    """Hamiltonian omega*J (uniform rotation)."""

    omega: float


def _half(sector: Sector) -> bool:
    return sector is Sector.FERMION


def _shaped(value, shape: tuple[int, ...], kind: type):
    """value as a Python kind for shape (), else broadcast to shape as a new array."""
    return kind(value) if shape == () else np.broadcast_to(value, shape).astype(kind)


def _single(*points: PhasePoint) -> None:
    """Raise DomainError unless every point is one point, not a grid."""
    for p in points:
        if p.shape != ():
            raise DomainError(
                f"expected a single phase-space point, got a grid of shape {p.shape}"
            )


def required_two_jmax(l: float, tol: float = 1e-12) -> int:
    """Smallest window bound 2*j_max keeping coherent-state tails < tol.

    |c_j| = e^(l*j - j^2/2) falls below tol once |j| exceeds
    |l| + sqrt(2 ln(1/tol)); two extra slots pad the edge-sentinel
    region that tail_mass() inspects.
    """
    j_max = abs(l) + math.sqrt(2.0 * math.log(1.0 / tol)) + 2.0
    return 2 * math.ceil(j_max)


def coherent_state(
    p: PhasePoint,
    sector: Sector,
    trunc: Truncation,
    window_tol: float = 1e-12,
) -> StateVector:
    """State with c_j = exp(l*j - i*j*phi - j^2/2) over the window.

    Normalization follows c_0 = 1 (the state is not unit-norm).  Raises
    TruncationError when the window cannot hold the Gaussian envelope
    down to window_tol.
    """
    _single(p)
    needed = required_two_jmax(p.l, window_tol)
    if trunc.two_jmax < needed:
        raise TruncationError(
            f"two_jmax = {trunc.two_jmax} too small for l = {p.l}: "
            f"tails exceed {window_tol} (need two_jmax >= {needed})"
        )
    return StateVector(sector, trunc, _coherent_coeffs(trunc.j_values(sector), p))


def _coherent_coeffs(j: np.ndarray, p: PhasePoint) -> np.ndarray:
    """c_j = exp(j*(l - i*phi) - j^2/2), unguarded and unnormalized."""
    return np.exp(j * complex(p.l, -p.phi) - 0.5 * j * j)


def overlap_closed(
    p1: PhasePoint, p2: PhasePoint, sector: Sector, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """<xi_1|xi_2> = S(w) with w = log(conj(xi_1)*xi_2), lattice per sector.

    Equivalently theta_3 (boson) or theta_2 (fermion) at argument
    (i/2pi)*w with modulus i/pi; w is assembled from the stored (l, phi)
    pairs, never from a recomputed complex logarithm.
    """
    _single(p1, p2)
    w = complex(-(p1.l + p2.l), p2.phi - p1.phi)
    return complex(gaussian_lattice_sum(w, half=_half(sector), ctl=ctl))


def norm_sq(p: PhasePoint, sector: Sector, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """<xi|xi> = S(2l); positive, independent of phi."""
    _single(p)
    return complex(gaussian_lattice_sum(2.0 * p.l, half=_half(sector), ctl=ctl)).real


def expect_J(
    p: PhasePoint, sector: Sector, ctl: SeriesControl = DEFAULT_CONTROL
) -> float | np.ndarray:
    """<J> = l + (1/2) (d/dv) ln theta_{3|4}(v|i*pi) at v = l.

    Exactly l when 2l is an even (boson) or odd (fermion) integer.  A
    grid point gives an array of its shape in one log-derivative call.
    """
    kind = 3 if sector is Sector.BOSON else 4
    derivative = theta_log_derivative(kind, ThetaArg(p.l, 1j * math.pi), ctl)
    return _shaped(p.l + 0.5 * np.real(derivative), p.shape, float)


def approx_expect_J(l: float | np.ndarray, sector: Sector) -> float | np.ndarray:
    """l -+ 2 pi e^(-pi^2) sin(2 pi l): boson minus, fermion plus; elementwise in l."""
    sign = -1.0 if sector is Sector.BOSON else 1.0
    return _shaped(l + sign * J_DEVIATION_AMPLITUDE * np.sin(_TWO_PI * l), np.shape(l), float)


def expect_U(
    p: PhasePoint, sector: Sector, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex | np.ndarray:
    """<U> = e^(-1/4) e^(i phi) S_opp(2l)/S(2l).

    S_opp runs over the opposite lattice (half-integers for bosons and
    vice versa); the ratio is a positive theta quotient, so the phase
    of <U> is exactly phi.  A grid point takes one lattice-sum call per
    lattice and gives an array of its shape.
    """
    num = np.real(gaussian_lattice_sum(2.0 * p.l, half=not _half(sector), ctl=ctl))
    den = np.real(gaussian_lattice_sum(2.0 * p.l, half=_half(sector), ctl=ctl))
    return _shaped(math.exp(-0.25) * (num / den) * np.exp(1j * p.phi), p.shape, complex)


def approx_expect_U(p: PhasePoint) -> complex:
    """e^(-1/4) e^(i phi), the flat-modulus approximation of <U>."""
    _single(p)
    return cmath.exp(complex(-0.25, p.phi))


def relative_expect_U(
    p: PhasePoint, ref: PhasePoint, sector: Sector, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """expect_U(p)/expect_U(ref); with ref = (0, 0) approximately e^(i phi)."""
    _single(ref)
    reference = expect_U(ref, sector, ctl)
    if abs(reference) < 1e-12:
        raise SingularityError("reference expectation of U is too close to zero")
    return expect_U(p, sector, ctl) / reference


def expect_expJ(
    s: float | np.ndarray, p: PhasePoint, sector: Sector, ctl: SeriesControl = DEFAULT_CONTROL
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(exact, approx) for <e^(sJ)> = S(2l+s)/S(2l) vs e^(s^2/4 + s*l).

    The case s = -2 is exact in closed form: e^(1-2l), which is
    <Xdag X>/<xi|xi> times e.  s may be an array broadcasting with the
    point; both results then have the broadcast shape.
    """
    half = _half(sector)
    shape = np.broadcast_shapes(np.shape(s), p.shape)
    exact = (
        np.real(gaussian_lattice_sum(2.0 * p.l + s, half=half, ctl=ctl))
        / np.real(gaussian_lattice_sum(2.0 * p.l, half=half, ctl=ctl))
    )
    return _shaped(exact, shape, float), _shaped(approx_expJ(s, p.l), shape, float)


def approx_expJ(s: float | np.ndarray, l: float | np.ndarray) -> float | np.ndarray:
    """e^(s^2/4 + s*l), elementwise over broadcasting s and l."""
    value = np.exp(0.25 * s * s + s * l)
    return _shaped(value, np.shape(value), float)


def evolve(state: StateVector, hamiltonian, t: float) -> StateVector:
    """Schroedinger evolution e^(-iHt) for H = J^2/2 or H = omega*J.

    Pure phases per basis slot: every |c_j| and hence the norm is
    preserved exactly; leakage is carried through unchanged.  The
    largest phase, at the window edge, must be finite.
    """
    j = state.j_values()
    j_edge = float(j[-1])  # the window is symmetric, so this is the largest |j|
    if isinstance(hamiltonian, FreeRotor):
        _require_finite_phase(t, 0.5 * t * j_edge * j_edge, j_edge)
        phases = np.exp(-0.5j * t * j * j)
    elif isinstance(hamiltonian, Linear):
        _require_finite_phase(t, t * hamiltonian.omega * j_edge, j_edge)
        phases = np.exp(-1j * t * hamiltonian.omega * j)
    else:
        raise DomainError(f"unsupported hamiltonian {hamiltonian!r}")
    return replace(state, coeffs=state.coeffs * phases)


def _require_finite_phase(t: float, edge_phase: float, j_edge: float) -> None:
    if not math.isfinite(edge_phase):
        raise DomainError(
            f"evolution time t = {t} gives a non-finite phase at the window edge |j| = {j_edge}"
        )


def heisenberg_expectations(
    p: PhasePoint, t: float | np.ndarray, sector: Sector, ctl: SeriesControl = DEFAULT_CONTROL
) -> dict[str, complex | np.ndarray]:
    """Exact <U(t)> and <X(t)> under free motion, normalized by <xi|xi>.

    With U(t) = U e^(it(J+1/2)) and X(t) = e^(it(J-1/2)) X, the series
    collapse to lattice-sum ratios at shifted argument w = 2l + it:

        <U(t)> = e^(-1/4) e^(i phi) S_opp(w) / S(2l)
        <X(t)> = xi e^(-it/2) S(w) / S(2l)

    t may be an array broadcasting with the point; both values then
    have the broadcast shape, from three lattice-sum calls in all.
    """
    half = _half(sector)
    shape = np.broadcast_shapes(np.shape(t), p.shape)
    w = 2.0 * p.l + 1j * t
    den = np.real(gaussian_lattice_sum(2.0 * p.l, half=half, ctl=ctl))
    num_u = gaussian_lattice_sum(w, half=not half, ctl=ctl)
    num_x = gaussian_lattice_sum(w, half=half, ctl=ctl)
    # real factors first, so each value takes one complex product: numpy
    # rounds complex products of arrays and of scalars differently
    u_t = (math.exp(-0.25) / den) * np.exp(1j * p.phi) * num_u
    x_t = (np.exp(-p.l) / den) * np.exp(1j * (p.phi - 0.5 * t)) * num_x
    return {"U_t": _shaped(u_t, shape, complex), "X_t": _shaped(x_t, shape, complex)}


def heisenberg_approximation(
    p: PhasePoint, t: float | np.ndarray
) -> dict[str, complex | np.ndarray]:
    """Gaussian-envelope approximations of <U(t)> and <X(t)>, elementwise in p and t."""
    shape = np.broadcast_shapes(np.shape(t), p.shape)
    damp = -0.25 * t * t
    u_t = np.exp((damp - 0.25) + 1j * (p.phi + t * p.l))
    x_t = np.exp((damp - p.l) + 1j * (p.phi + t * (p.l - 0.5)))
    return {"U_t": _shaped(u_t, shape, complex), "X_t": _shaped(x_t, shape, complex)}


def uncertainty_QP(p: PhasePoint, sector: Sector) -> dict[str, float]:
    """Spreads of Q = (X + Xdag)/2 and P = (X - Xdag)/2i, plus the bound.

    Both spreads equal (1/2) e^(-l) sqrt(e^2 - 1); the commutator bound
    (1/2)|<[Q,P]>|/<xi|xi> equals (1/4)(e^2 - 1) e^(-2l), so the
    product Delta Q * Delta P sits exactly on the bound --- for every
    (l, phi) and in both sectors.
    """
    _single(p)
    spread = 0.5 * math.exp(-p.l) * math.sqrt(math.exp(2.0) - 1.0)
    bound = 0.25 * (math.exp(2.0) - 1.0) * math.exp(-2.0 * p.l)
    return {"dQ": spread, "dP": spread, "bound": bound}


def energy_distribution(
    p: PhasePoint,
    sector: Sector,
    jmax: float = 12,
    allow_fermion: bool = False,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> list[tuple[float, float]]:
    """Occupation probabilities prob(j) = e^(2lj - j^2)/S(2l), |j| <= jmax.

    Defined for the boson sector; pass allow_fermion=True to evaluate
    the same formula on the half-integer lattice.  The returned
    probabilities sum to 1 up to the mass beyond |j| > jmax.
    """
    if sector is Sector.FERMION and not allow_fermion:
        raise DomainError("energy_distribution defaults to bosons; pass allow_fermion=True")
    if jmax < 1:
        raise DomainError("jmax must be at least 1")
    _single(p)
    norm = complex(gaussian_lattice_sum(2.0 * p.l, half=_half(sector), ctl=ctl)).real
    trunc = Truncation(max(2, int(math.floor(2.0 * jmax))))
    j = trunc.j_values(sector)
    probs = np.exp(2.0 * p.l * j - j * j) / norm
    return [(float(jv), float(pv)) for jv, pv in zip(j, probs)]


def gaussian_energy_profile(j: float, l: float) -> float:
    """Continuous companion pi^(-1/2) e^(-(j-l)^2) of the distribution."""
    return math.exp(-((j - l) ** 2)) / math.sqrt(math.pi)
