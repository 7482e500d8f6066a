"""Coherent states |l, phi> on the circle and their expectation calculus.

A phase-space point (l, phi) labels the state with coefficients

    c_j = exp(l*j - i*j*phi - j^2/2),      xi = exp(-l + i*phi),

which is an eigenvector of X = U e^(-J-1/2) with eigenvalue xi.  Every
overlap and expectation value reduces to Gaussian lattice sums

    S(w) = sum_m exp(w*m - m^2)

over the integer (boson) or half-integer (fermion) lattice.  Each is
summed at a reduced argument r = w - 2c, c = round(Re w / 2), and
S(w) = e^(c*w - c^2) S(r) (theta.gaussian_lattice_sum); a ratio of sums
cancels the prefactors as exponents.  Alongside each exact value this
module exposes the standard closed-form approximation so their
deviation is measurable rather than assumed:

    <J>   ~ l -+ 2 pi e^(-pi^2) sin(2 pi l)     (boson -, fermion +)
    <U>   ~ e^(-1/4) e^(i phi)
    <e^(sJ)> ~ e^(s^2/4 + s l)
    U(t)  ~ e^(-t^2/4) e^(-1/4) e^(i(phi + t l))
    X(t)  ~ e^(-t^2/4) e^(-l) e^(i(phi + t(l - 1/2)))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeOverflowError, TruncationError
from .hilbert import Sector, StateVector, Truncation, _adopt, _product, _window
from .theta import (
    _SLACK,
    ThetaArg,
    _amax,
    _exp,
    _number,
    _recentre,
    gaussian_lattice_sum,
    theta_log_derivative,
)

__all__ = [
    "J_DEVIATION_AMPLITUDE",
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
    "relative_expect_U",
    "expect_expJ",
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

_NOT_FINITE = "phase-space coordinates must be finite real numbers"
# coherent_state's windows keep every dropped coefficient below this
_WINDOW_TOL = 1e-12


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
        l = _number(self.l, float, _NOT_FINITE)
        phi = _number(self.phi, float, _NOT_FINITE)
        shape = () if type(l) is float and type(phi) is float else _grid_shape(l=l, phi=phi)
        # float % and np.remainder round alike.  The remainder of a negative phi
        # above -4.4e-16 rounds up to 2*pi; the second maps it to 0, the nearest
        # angle in [0, 2*pi), and keeps every other remainder bit for bit
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "phi", phi % _TWO_PI % _TWO_PI)
        object.__setattr__(self, "shape", shape)

    @property
    def xi(self) -> complex | np.ndarray:
        """e^(-l + i*phi); RangeOverflowError where l < -700."""
        xi = _exp(self.log_xi, "xi = exp({peak:.3g}) exceeds the floating-point range")
        return _shaped(xi, self.shape, complex)

    @property
    def log_xi(self) -> complex | np.ndarray:
        return _shaped(-self.l + 1j * self.phi, self.shape, complex)


@dataclass(frozen=True)
class FreeRotor:
    """Hamiltonian J^2/2 (free motion on the circle)."""


@dataclass(frozen=True)
class Linear:
    """Hamiltonian omega*J (uniform rotation); omega is stored as a Python float."""

    omega: float

    def __post_init__(self) -> None:
        message = "omega and t must be finite real numbers"
        object.__setattr__(self, "omega", _number(self.omega, float, message, arrays=False))


def _half(sector: Sector) -> bool:
    return sector.parity == 1


def _shaped(value, shape: tuple[int, ...], kind: type):
    """value as a Python kind for shape (), else an array of shape and kind that no caller shares.

    value is a fresh result of its caller's arithmetic, never an input or
    another result: a C-contiguous array of that shape and kind is returned
    as it is, anything else (a scalar, a smaller shape, a strided view such
    as np.real of a complex array) is broadcast to shape and copied.
    """
    if shape == ():
        return kind(value)
    if (
        type(value) is np.ndarray
        and value.shape == shape
        and value.dtype == kind
        and value.flags.c_contiguous
    ):
        return value
    return np.broadcast_to(value, shape).astype(kind)


def _complex(re, im) -> np.ndarray:
    """re + i im as an array of their broadcast shape, each element as complex(re, im) makes it."""
    z = np.empty(np.broadcast(re, im).shape, np.complex128)
    z.real, z.imag = re, im
    return z


def _grid_shape(**operands) -> tuple[int, ...]:
    """Broadcast shape of the named floats, arrays and PhasePoints; else DomainError naming each."""
    arrays = []
    for x in operands.values():
        arrays += (x.l, x.phi) if isinstance(x, PhasePoint) else (x,)
    try:
        return np.broadcast(*arrays).shape
    except ValueError:
        shapes = (f"{name} of shape {getattr(x, 'shape', ())}" for name, x in operands.items())
        raise DomainError(" and ".join(shapes) + " do not broadcast") from None


def _single(*points: PhasePoint) -> None:
    """Raise DomainError unless every point is one point, not a grid."""
    for p in points:
        if p.shape != ():
            raise DomainError(
                f"expected a single phase-space point, got a grid of shape {p.shape}"
            )


def required_two_jmax(l: float) -> int:
    """Smallest window bound 2*j_max keeping coherent-state tails < 1e-12.

    |c_j| = e^(l*j - j^2/2) falls below tol = 1e-12 once |j| exceeds
    |l| + sqrt(2 ln(1/tol)); two extra slots pad the edge-sentinel
    region that tail_mass() inspects.
    """
    l = _number(l, float, _NOT_FINITE, arrays=False)
    j_max = abs(l) + math.sqrt(2.0 * math.log(1.0 / _WINDOW_TOL)) + 2.0
    return 2 * math.ceil(j_max)


def coherent_state(p: PhasePoint, sector: Sector, trunc: Truncation) -> StateVector:
    """State with c_j = exp(l*j - i*j*phi - j^2/2) over the window.

    Normalization follows c_0 = 1 (the state is not unit-norm).  Raises
    TruncationError when the window cannot hold the Gaussian envelope
    down to 1e-12.
    """
    _single(p)
    needed = required_two_jmax(p.l)
    if trunc.two_jmax < needed:
        raise TruncationError(
            f"two_jmax = {trunc.two_jmax} too small for l = {p.l}: "
            f"tails exceed {_WINDOW_TOL} (need two_jmax >= {needed})"
        )
    # every |c_j| <= e^(l^2/2), as lj - j^2/2 <= l^2/2; past e^709, _exp has held them to e^700
    bound = math.exp(min(0.5 * p.l * p.l, 709.0)) * _SLACK
    return _adopt(sector, trunc, _coherent_coeffs(p, sector, trunc), 0.0, bound)


def _coherent_coeffs(p: PhasePoint, sector: Sector, trunc: Truncation) -> np.ndarray:
    """c_j = exp(j*(l - i*phi) - j^2/2) over the sector's window, unnormalized.

    RangeOverflowError where a coefficient passes e^700, from |l| of
    about 37.42 on; j*l must be finite.
    """
    window = _window(trunc.two_jmax, sector.parity)
    message = "coherent coefficients overflow: the largest is exp({peak:.3g})"
    return _exp(window.j * complex(p.l, -p.phi) - window.gauss, message)


def overlap_closed(p1: PhasePoint, p2: PhasePoint, sector: Sector) -> complex | np.ndarray:
    """<xi_1|xi_2> = S(w) with w = log(conj(xi_1)*xi_2), lattice per sector.

    Equivalently theta_3 (boson) or theta_2 (fermion) at argument
    (i/2pi)*w with modulus i/pi, and as accurate as gaussian_lattice_sum
    states; w is assembled from the stored (l, phi) pairs, never from a
    recomputed complex logarithm.  p1 and p2 may be grids that broadcast
    together: one lattice-sum call then gives a complex array of the
    broadcast shape.  RangeOverflowError where a value passes e^700
    (from |l_1 + l_2| of about 52.9), or where |l_1| or |l_2| exceeds
    1e300.
    """
    _require_reach(p1.l)
    _require_reach(p2.l)
    shape = _grid_shape(p1=p1, p2=p2)
    w = _complex(-(p1.l + p2.l), p2.phi - p1.phi)
    return _shaped(gaussian_lattice_sum(w, half=_half(sector)), shape, complex)


def norm_sq(p: PhasePoint, sector: Sector) -> float | np.ndarray:
    """<xi|xi> = S(2l); positive, independent of phi.

    A grid point takes one lattice-sum call and gives a float array of
    its shape.  RangeOverflowError past |l| of about 26.45, where S(2l)
    ~ e^(l^2) passes e^700.
    """
    _require_reach(p.l)
    return _shaped(np.real(gaussian_lattice_sum(2.0 * p.l, half=_half(sector))), p.shape, float)


def expect_J(p: PhasePoint, sector: Sector) -> float | np.ndarray:
    """<J> = l + (1/2) (d/dv) ln theta_{3|4}(v|i*pi) at v = l.

    The log-derivative is 2 pi i M / Theta from one theta lattice-sum pass
    (M its first moment).  Exactly l when 2l is an even (boson) or odd
    (fermion) integer; elsewhere within half the theta_log_derivative bound,
    plus one rounding of <J>.  A grid point gives an array of its shape.
    """
    kind = 3 + sector.parity
    derivative = theta_log_derivative(kind, ThetaArg(p.l, 1j * math.pi))
    return _shaped(p.l + 0.5 * np.real(derivative), p.shape, float)


def approx_expect_J(l: float | np.ndarray, sector: Sector) -> float | np.ndarray:
    """l -+ 2 pi e^(-pi^2) sin(2 pi l): boson minus, fermion plus; elementwise in l.

    Raises RangeOverflowError when |l| exceeds 1e300, as expect_expJ does.
    """
    l = _number(l, float, _NOT_FINITE)
    _require_reach(l)
    sign = (-1.0, 1.0)[sector.parity]
    return _shaped(l + sign * J_DEVIATION_AMPLITUDE * np.sin(_TWO_PI * l), np.shape(l), float)


def _require_reach(l, shift=0.0):
    """shift through the number gate, if |l| and |shift|(|l| + |shift| + 1) <= 1e300.

    l is a finite float or float array already.  Inside that reach 2l and
    every product the ratio observables form from l and s (or t) are
    finite doubles, so no numpy overflow occurs; RangeOverflowError outside it.
    """
    shift = _number(shift, float, "the shift s or t must be finite real numbers")
    # a Python float skips numpy's reduction, several µs a call
    l_max, shift_max = (
        abs(x) if type(x) is float else float(_amax(np.abs(x), None, initial=0.0))
        for x in (l, shift)
    )
    if l_max > 1e300 or shift_max * (l_max + shift_max + 1.0) > 1e300:
        raise RangeOverflowError(
            f"|l| up to {l_max:.3g} with a shift up to {shift_max:.3g} is out of range"
        )
    return shift


def expect_U(p: PhasePoint, sector: Sector) -> complex | np.ndarray:
    """<U> = e^(-1/4) e^(i phi) S_opp(2l)/S(2l).

    S_opp runs over the opposite lattice (half-integers for bosons and
    vice versa); the ratio is a positive theta quotient, so the phase
    of <U> is exactly phi.  Both sums are re-centred by the same integer
    c = round(l), so their prefactors e^(2cl - c^2) cancel and every l
    takes the same few term pairs: |<U>| is within 4 ulp of its exact
    value for every |l| <= 1e300 (RangeOverflowError beyond).  A grid
    point takes one lattice-sum call per lattice and gives an array of
    its shape.
    """
    _require_reach(p.l)
    half = _half(sector)
    _, r = _recentre(2.0 * p.l)
    num = gaussian_lattice_sum(r, half=not half)
    den = gaussian_lattice_sum(r, half=half)
    ratio = np.real(num) / np.real(den)
    return _shaped(math.exp(-0.25) * ratio * np.exp(1j * p.phi), p.shape, complex)


def relative_expect_U(p: PhasePoint, ref: PhasePoint, sector: Sector) -> complex | np.ndarray:
    """expect_U(p)/expect_U(ref); with ref = (0, 0) approximately e^(i phi).

    p may be a grid, which gives a complex array of its shape; ref is
    one point.  The reference cannot vanish: expect_U re-centres, so
    |expect_U| = e^(-1/4) S_opp(r)/S(r) with |r| <= 1, which stays
    within 2.1e-4 relative of e^(-1/4) (0.778640 to 0.778962) at every l.
    """
    _grid_shape(p=p, ref=ref)
    _single(ref)
    return expect_U(p, sector) / expect_U(ref, sector)


def expect_expJ(
    s: float | np.ndarray, p: PhasePoint, sector: Sector
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(exact, approx) for <e^(sJ)> = S(2l+s)/S(2l) vs e^(s^2/4 + s*l).

    The case s = -2 is exact in closed form: e^(1-2l), which is
    <Xdag X>/<xi|xi> times e.  s may be an array broadcasting with the
    point; both results then have the broadcast shape.

    Each sum is re-centred (theta._recentre), S(w) =
    e^(w^2/4 - r^2/4) S(r), so the ratio is exp(g - (r1^2 - r0^2)/4)
    S(r1)/S(r0) with g = s*l + s^2/4: no two e^(l^2)-sized numbers
    meet.  The relative error stays below 1e-15 (1 + |s*l| + s^2/4),
    the conditioning of e^g itself.  Raises RangeOverflowError when
    the exact value exceeds e^700, or when |l| or |s|(|l| + |s| + 1)
    exceeds 1e300.
    """
    s = _require_reach(p.l, s)
    half = _half(sector)
    shape = _grid_shape(s=s, p=p)
    w0 = 2.0 * p.l
    w1 = w0 + s
    r0, r1 = (_recentre(w)[1].real for w in (w0, w1))
    den = gaussian_lattice_sum(r0, half=half)
    num = gaussian_lattice_sum(r1, half=half)
    exponent = 0.25 * s * s + s * p.l
    log_scale = exponent - 0.25 * (r1 * r1 - r0 * r0)
    growth = _exp(log_scale, "<e^(sJ)> = exp({peak:.3g}) exceeds the floating-point range")
    exact = growth * (np.real(num) / np.real(den))
    return _shaped(exact, shape, float), _shaped(np.exp(exponent), shape, float)


def evolve(state: StateVector, hamiltonian, t: float) -> StateVector:
    """Schroedinger evolution e^(-iHt) for H = J^2/2 or H = omega*J.

    Pure phases per basis slot: every |c_j| and hence the norm is
    preserved exactly; leakage is carried through unchanged.  t must
    be a finite real number, and so must the largest phase, at the
    window edge.
    """
    t = _number(t, float, "evolution time t = {value!r} is not a finite real number", arrays=False)
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
    coeffs, bound = _product(state.coeffs, phases, 1.0, state._bound)  # unit phases
    return _adopt(state.sector, state.trunc, coeffs, state.leakage, bound)


def _require_finite_phase(t: float, edge_phase: float, j_edge: float) -> None:
    if not math.isfinite(edge_phase):
        raise DomainError(
            f"evolution time t = {t} gives a non-finite phase at the window edge |j| = {j_edge}"
        )


def heisenberg_expectations(
    p: PhasePoint, t: float | np.ndarray, sector: Sector
) -> dict[str, complex | np.ndarray]:
    """Exact <U(t)> and <X(t)> under free motion, normalized by <xi|xi>.

    With U(t) = U e^(it(J+1/2)) and X(t) = e^(it(J-1/2)) X, the series
    collapse to lattice-sum ratios at shifted argument w = 2l + it:

        <U(t)> = e^(-1/4) e^(i phi) S_opp(w) / S(2l)
        <X(t)> = xi e^(-it/2) S(w) / S(2l)

    w and 2l share the re-centring integer c = round(l), so each ratio
    is the pure phase e^(ict) times a ratio of reduced sums, for any l.
    t may be an array broadcasting with the point; both values then
    have the broadcast shape, from three lattice-sum calls in all.
    Raises RangeOverflowError when l < -700, where |xi| = e^(-l)
    exceeds the floating-point range, or when |l| or |t|(|l| + |t| + 1)
    exceeds 1e300.
    """
    t = _require_reach(p.l, t)
    half = _half(sector)
    shape = _grid_shape(p=p, t=t)
    w = 2.0 * p.l + 1j * t
    c, r = _recentre(2.0 * p.l)
    _, r_t = _recentre(w)
    den = np.real(gaussian_lattice_sum(r, half=half))
    num_u = gaussian_lattice_sum(r_t, half=not half)
    num_x = gaussian_lattice_sum(r_t, half=half)
    # real factors first, so each value takes one complex product: numpy
    # rounds complex products of arrays and of scalars differently
    u_t = (math.exp(-0.25) / den) * np.exp(1j * (p.phi + c * t)) * num_u
    xi_size = _exp(-p.l, "<X(t)> overflows: |xi| = exp({peak:.6g})")
    x_t = (xi_size / den) * np.exp(1j * (p.phi + (c - 0.5) * t)) * num_x
    return {"U_t": _shaped(u_t, shape, complex), "X_t": _shaped(x_t, shape, complex)}


def heisenberg_approximation(
    p: PhasePoint, t: float | np.ndarray
) -> dict[str, complex | np.ndarray]:
    """Gaussian-envelope approximations of <U(t)> and <X(t)>, elementwise in p and t.

    Raises RangeOverflowError where heisenberg_expectations does: when
    |l| or |t|(|l| + |t| + 1) exceeds 1e300, or <X(t)> passes e^700.
    """
    t = _require_reach(p.l, t)
    shape = _grid_shape(p=p, t=t)
    damp = -0.25 * t * t
    u_t = np.exp((damp - 0.25) + 1j * (p.phi + t * p.l))
    message = "X(t) approximation exp({peak:.3g}) exceeds the floating-point range"
    x_t = _exp((damp - p.l) + 1j * (p.phi + t * (p.l - 0.5)), message)
    return {"U_t": _shaped(u_t, shape, complex), "X_t": _shaped(x_t, shape, complex)}


def uncertainty_QP(p: PhasePoint, sector: Sector) -> dict[str, float | np.ndarray]:
    """Spreads of Q = (X + Xdag)/2 and P = (X - Xdag)/2i, plus the bound.

    Both spreads equal (1/2) e^(-l) sqrt(e^2 - 1); the commutator bound
    (1/2)|<[Q,P]>|/<xi|xi> equals (1/4)(e^2 - 1) e^(-2l), so the
    product Delta Q * Delta P sits exactly on the bound --- for every
    (l, phi) and in both sectors.  A single point gives Python floats, a
    grid float arrays of its shape; a single point is the 0-d case of
    the grid and has its bits.  Raises RangeOverflowError for l < -350,
    where e^(-2l) passes e^700.
    """
    if p.shape == ():
        message = f"uncertainty bound at l = {p.l} exceeds the floating-point range"
    else:
        message = "uncertainty bound exp({peak:.3g}) on a grid exceeds the floating-point range"
    # clipped, so -2l stays finite; past 1e300 the bound is 0 or out of range either way
    l = np.clip(p.l, -1e300, 1e300)
    growth = _exp(-2.0 * l, message)
    spread = 0.5 * np.exp(-l) * math.sqrt(math.exp(2.0) - 1.0)
    bound = 0.25 * (math.exp(2.0) - 1.0) * growth
    return {
        "dQ": _shaped(spread, p.shape, float),
        "dP": _shaped(np.copy(spread), p.shape, float),  # its own array, not dQ's
        "bound": _shaped(bound, p.shape, float),
    }


def energy_distribution(p: PhasePoint, sector: Sector, jmax: float = 12) -> np.ndarray:
    """Occupation probabilities prob(j) = e^(2lj - j^2)/S(2l), |j| <= jmax, as a table.

    j runs over the sector's lattice: integers for bosons, half-integers
    for fermions.  The probabilities sum to 1 up to the mass beyond
    |j| > jmax.  The n levels form the window |2j| <= floor(2 jmax), so
    Truncation caps jmax (n <= 601).  The result is a float array of
    shape (*p.shape, n, 2) whose last axis is (j, prob(j)): a single
    point gives n rows that iterate as (j, prob) pairs, and a grid point
    holds p.size * n * 16 bytes, from one lattice-sum call and one exp
    over (*p.shape, n); each row has the bits of the single-point call
    at its point.  Each probability is
    computed re-centred, as exp(d (r - d)) / S(r) with c = round(l),
    d = j - c and r = 2l - 2c, so no term of size e^(l^2) is formed:
    within 2 eps (1 + |d (r - d)|) relative for every |l| <= 1e300
    (RangeOverflowError beyond).
    """
    message = "jmax must be finite and at least 1, got {value!r}"
    jmax = _number(jmax, float, message, arrays=False)
    if jmax < 1.0:
        raise DomainError(message.format(value=jmax))
    two_jmax = 2 * jmax  # inf past jmax = 8.9e307, which Truncation refuses as it is
    trunc = Truncation(math.floor(two_jmax) if two_jmax < math.inf else two_jmax)
    _require_reach(p.l)
    c, r = _recentre(2.0 * p.l)
    norm = np.real(gaussian_lattice_sum(r, half=_half(sector)))
    c, r, norm = (np.asarray(x)[..., None] for x in (c, r, norm))  # a level axis last
    j = trunc.j_values(sector)
    d = j - c
    table = np.empty((*p.shape, j.size, 2))
    table[..., 0] = j
    # d (r - d) <= r^2/4; a product past the range is -inf, whose exp is the underflowed 0
    with np.errstate(over="ignore"):
        table[..., 1] = np.exp(d * (r - d)) / norm
    return table


def gaussian_energy_profile(
    j: float | np.ndarray, l: float | np.ndarray
) -> float | np.ndarray:
    """Continuous companion pi^(-1/2) e^(-(j-l)^2) of the distribution.

    j and l must be finite real numbers, or arrays of them that
    broadcast together.  Two scalars give a Python float, an array a
    float array of the broadcast shape from one np.exp; a single point
    is the 0-d case of the grid and has its bits.  (j - l)^2 overflows
    only where the profile underflows to 0.0.
    """
    message = "j and l must be finite real numbers"
    j, l = (_number(x, float, message) for x in (j, l))
    shape = _grid_shape(j=j, l=l)
    with np.errstate(over="ignore"):  # an overflowed square is inf, whose profile is 0
        square = np.square(np.subtract(j, l))
    return _shaped(np.exp(-square) / math.sqrt(math.pi), shape, float)
