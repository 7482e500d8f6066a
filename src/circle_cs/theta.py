"""Jacobi theta functions with a-priori truncation control.

Evaluates theta_2, theta_3, theta_4 as two-sided Gaussian lattice sums,
the logarithmic v-derivatives of theta_3 / theta_4 as the ratio of the
first moment of the same sum to the sum, and the modular
transformations that exchange a slowly converging nome for a fast one.

Conventions (q = exp(i pi tau), Im tau > 0):

    theta_3(v|tau) = sum_{n in Z}       q^(n^2) exp(2 i pi v n)
    theta_2(v|tau) = sum_{m in Z+1/2}   q^(m^2) exp(2 i pi v m)
    theta_4(v|tau) = sum_{n in Z} (-1)^n q^(n^2) exp(2 i pi v n)

All three are even in v.  Series are truncated symmetrically at an index
chosen from the closed-form Gaussian tail bound so that every omitted
term is smaller in modulus than the requested tolerance, and terms are
accumulated from the largest index inward (smallest magnitudes first) in
a fixed order, so repeated evaluations are bit-for-bit reproducible.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, RangeOverflowError, SingularityError

__all__ = [
    "ThetaArg",
    "SeriesControl",
    "DEFAULT_CONTROL",
    "theta",
    "theta_log_derivative",
    "gaussian_lattice_sum",
    "modular_image_theta3",
    "modular_image_theta2",
    "theta2_via_half_period_shift",
]

# Largest log-magnitude of a computed exponential, with headroom below the
# double range (e^709.78): _exp checks it, _pair_count bounds lattice terms by it.
_EXP_LIMIT = 700.0

# Python and NumPy numbers, which _number checks with cmath.isfinite
_SCALARS = (complex, float, int, np.number)
# the dtype kinds _number converts: bool, integers, reals, Python objects, complex
_KINDS = {float: "biufO", complex: "biufOc"}


def _number(value, kind: type, message: str, arrays: bool = True):
    """value as a finite Python kind (float or complex), or, if arrays, a finite ndarray of kind.

    The package's one test of a number from outside.  A Python or NumPy
    scalar converts directly, anything else through numpy once (no copy
    where the dtype fits); bools count as 0 and 1.  DomainError(message
    with {value!r} filled in) for NaN, inf, an int past the double range,
    a string, None or another object (in an object array too), and a
    complex value for a float.
    """
    if type(value) is kind and cmath.isfinite(value):  # a finite Python float (or complex) as it is
        return value
    try:
        if isinstance(value, _SCALARS):
            if kind is complex or not isinstance(value, (complex, np.complexfloating)):
                number = kind(value)
                if cmath.isfinite(number):
                    return number
        else:
            array = np.asarray(value)
            # astype would call float() on each object, which parses a string
            numbers = array.dtype.kind != "O" or all(isinstance(x, _SCALARS) for x in array.flat)
            if numbers and array.dtype.kind in _KINDS[kind]:
                array = array.astype(kind, copy=False)
                if np.isfinite(array).all() and (arrays or array.ndim == 0):
                    return kind(array) if array.ndim == 0 else array
    # an int past the double range, or an object numpy cannot convert
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(message.format(value=value))


def _integer(value, low: float, high: float, message: str, multiple: int = 1) -> int:
    """value as a Python int, if a Python or NumPy integer (not a bool) in [low, high].

    It must also divide by multiple.  Else DomainError(message with
    {value!r}, {low} and {high} filled in).
    """
    integer = type(value) is int or isinstance(value, np.integer)
    if integer and low <= value <= high and value % multiple == 0:
        return int(value)
    raise DomainError(message.format(value=value, low=low, high=high))


@dataclass(frozen=True)
class ThetaArg:
    """Argument pair (v, tau) with tau restricted to the upper half-plane.

    v may be an array of arguments sharing one tau; it is stored as a
    complex scalar, or as a complex ndarray when it has dimensions.  tau
    is stored as a complex scalar.
    """

    v: complex | np.ndarray
    tau: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _number(self.v, complex, "theta argument v must be finite"))
        tau = _number(self.tau, complex, "theta modulus tau must be finite", arrays=False)
        if tau.imag <= 0.0:
            raise DomainError(f"tau = {tau} is not in the upper half-plane")
        object.__setattr__(self, "tau", tau)


# Points per block of _lattice_sum times its term pairs stays at or
# below this, so one block's temporaries (two arrays of terms, three with
# the moment, 16 bytes a term) take 2 to 3 MB whatever the input's size.
# It caps SeriesControl.n_max, so a block always holds a point.
_BLOCK_TERMS = 1 << 16


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy: absolute bound on every omitted term, term-pair cap."""

    tol: float = 1e-14
    n_max: int = 200

    def __post_init__(self) -> None:
        message = "series_tol must lie in (0, 1), got {value!r}"
        tol = _number(self.tol, float, message, arrays=False)
        if not 0.0 < tol < 1.0:
            raise DomainError(message.format(value=self.tol))
        object.__setattr__(self, "tol", tol)
        message = "series_n_max must be an integer in [{low}, {high}], got {value!r}"
        object.__setattr__(self, "n_max", _integer(self.n_max, 1, _BLOCK_TERMS, message))


DEFAULT_CONTROL = SeriesControl()


def _exp(exponent, message: str, scale=None, exp=np.exp):
    """scale * exp(exponent) elementwise, or exp(exponent): the package's one overflow check.

    RangeOverflowError(message.format(peak=...)) where the result's largest
    log-magnitude, Re(exponent) + log|scale| over nonzero scale, passes
    _EXP_LIMIT or is NaN.  Else the bits of scale * exp(exponent), unless a
    factor overflows alone: 0 where its scale is 0, log space elsewhere.
    exp is np.exp, or math.exp for a caller that has always used it.
    """
    real = exponent.real
    top = float(real.max(initial=-math.inf)) if isinstance(real, np.ndarray) else float(real)
    peak = top
    if scale is not None:
        size = np.abs(scale)
        largest = float(size.max(initial=0.0))
        peak = -math.inf if largest == 0.0 else top + math.log(largest)
        if not peak <= _EXP_LIMIT:  # that bound fails: the exact peak
            log_size = np.log(size, out=np.full(size.shape, -math.inf), where=size > 0.0)
            peak = float((real + log_size).max(initial=-math.inf))
    if not peak <= _EXP_LIMIT:
        raise RangeOverflowError(message.format(peak=peak))
    if top <= _EXP_LIMIT:
        return exp(exponent) if scale is None else scale * exp(exponent)
    exponent, scale = np.broadcast_arrays(exponent, scale)
    size = np.abs(scale)
    kept = size > 0.0
    value = np.zeros(exponent.shape, np.result_type(exponent, scale))
    value[kept] = scale[kept] / size[kept] * np.exp(exponent[kept] + np.log(size[kept]))
    return value


def _as_complex(value) -> complex | np.ndarray:
    """A 0-d result as a Python complex; an array result unchanged."""
    return complex(value) if np.ndim(value) == 0 else value


def _pair_count(decay: float, drift: float, ctl: SeriesControl, half: bool) -> int:
    """Number of symmetric term pairs needed so every omitted term <= tol.

    Terms have modulus exp(-decay*m^2 + drift*|m|) over the index lattice,
    decay > 0; the largest is at the index nearest drift/(2*decay).  The
    positive root m* of decay*m^2 - drift*m + ln(1/tol) = 0 marks the
    point past which every term is below tol (the exponent is decreasing
    there because m* >= drift/decay).  Everything with |m| <= m* is kept.
    """
    centre = drift / (2.0 * decay)
    gap = math.remainder(centre - 0.5 * half, 1.0) if math.isfinite(centre) else 0.0
    peak = 0.5 * drift * centre - decay * gap * gap
    if not peak <= _EXP_LIMIT:  # NaN and inf too
        raise RangeOverflowError(
            f"largest series term exp({peak:.3g}) exceeds the floating-point range"
        )
    ln_tol = math.log(ctl.tol)
    m_star = (drift + math.sqrt(drift * drift - 4.0 * decay * ln_tol)) / (2.0 * decay)
    pairs = math.ceil(m_star + 0.5) if half else math.ceil(m_star)
    if pairs > ctl.n_max:
        raise ConvergenceError(
            f"series needs {pairs} term pairs, above the cap {ctl.n_max}"
        )
    return max(pairs, 0)


def _drift(lin_arr: np.ndarray) -> float:
    """Largest |Re lin|; DomainError if some element is NaN or has |Im lin| past 1e300.

    m * lin then stays finite for every m up to the pair cap.
    """
    drift = float(np.abs(lin_arr.real).max(initial=0.0))
    if math.isnan(drift) or not (np.abs(lin_arr.imag) <= 1e300).all():
        raise DomainError(
            "lattice-sum argument is not finite (NaN, or overflowed from a huge input)"
            " or has an imaginary part past 1e300"
        )
    return drift


# Longest ladder _lattice_sum takes from _ladder's cache.  A ladder holds
# 48 bytes a pair, so the 32 entries stay within 6 MiB; the longer ones,
# which only a raised SeriesControl.n_max reaches, are built per call.
_CACHED_PAIRS = 4096


@functools.lru_cache(maxsize=32)
def _ladder(pairs: int, half: bool, alternating: bool):
    """Read-only columns (m, m^2, sign) over the term pairs, largest |m| first.

    Each is complex with imaginary part 0, the operand numpy makes of a
    float in a complex product, and has shape (pairs, 1), to broadcast
    against a row of points.  _ladder.__wrapped__ builds one uncached.
    """
    k = np.arange(pairs, 0, -1, dtype=np.float64)
    m = k - 0.5 if half else k
    odd = (k % 2.0 == 1.0) & (alternating and not half)
    columns = tuple(
        column.astype(np.complex128)[:, None] for column in (m, m * m, np.where(odd, -1.0, 1.0))
    )
    for column in columns:
        column.flags.writeable = False
    return columns


def _lattice_sum(curv, lin, half: bool, alternating: bool, ctl: SeriesControl, moment=False):
    """sum over the index lattice of sign(m) * exp(curv*m^2 + lin*m).

    The lattice is Z (half=False) or Z+1/2 (half=True); alternating
    applies (-1)^m on the integer lattice.  ``lin`` may be a complex
    scalar or an ndarray; the return type matches.  moment=True returns
    (sum, first moment), the moment being the sum of sign(m) * m *
    exp(curv*m^2 + lin*m); the sum keeps its bits.

    Each term pair is sign * (exp(curv*m^2 + lin*m) + exp(curv*m^2 -
    lin*m)), its moment sign * m * (their difference), formed for all
    pairs of a block of points by one broadcast over the _ladder
    columns.  The pairs are added in a fixed order: from 0, then from
    the largest |m| inward.  np.add.accumulate along the pair axis is
    sequential (np.sum would add pairwise, in another order).  1, the
    m = 0 term, is added last to the sum on Z.  The points go through in
    blocks of _BLOCK_TERMS // pairs, so the temporaries stay bounded
    whatever the size of ``lin``.
    """
    lin_arr = np.asarray(lin, dtype=np.complex128)
    decay = -complex(curv).real
    # an infinite real part is an overflow, caught by the pair count
    pairs = _pair_count(decay, _drift(lin_arr), ctl, half)

    ladder = _ladder if pairs <= _CACHED_PAIRS else _ladder.__wrapped__
    m, m_sq, sign = ladder(pairs, half, alternating)
    base = np.multiply(curv, m_sq)
    flat = lin_arr.reshape(-1)
    acc = np.empty(flat.shape, dtype=np.complex128)
    acc_moment = np.empty_like(acc) if moment else None
    block = _BLOCK_TERMS // max(pairs, 1)
    for start in range(0, flat.size, block):
        step = np.multiply(m, flat[start : start + block])
        # row 0 stays 0, where the sum starts
        terms = np.zeros((pairs + 1, step.shape[1]), dtype=np.complex128)
        pair = terms[1:]
        np.exp(np.add(base, step, out=pair), out=pair)
        np.exp(np.subtract(base, step, out=step), out=step)
        if moment:
            moments = np.zeros_like(terms)
            np.multiply(np.subtract(pair, step, out=moments[1:]), m * sign, out=moments[1:])
            acc_moment[start : start + block] = np.add.accumulate(moments, axis=0, out=moments)[-1]
        pair += step
        pair *= sign
        acc[start : start + block] = np.add.accumulate(terms, axis=0, out=terms)[-1]
    if not half:
        acc += 1.0
    value = _as_complex(acc.reshape(lin_arr.shape))
    return (value, _as_complex(acc_moment.reshape(lin_arr.shape))) if moment else value


def theta(
    kind: int, arg: ThetaArg, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex | np.ndarray:
    """Evaluate theta_kind(v | tau) for kind in {2, 3, 4}.

    Returns a complex, or an array of v's shape when arg.v is an array.
    The series is summed at r, v = r + k*tau + 2j (_reduce), and taken
    back by the quasi-period factor F = +-e^E (_shift_back).  Every term
    omitted at r is bounded in modulus by ctl.tol, so the omitted tail
    stays below 3*tol; with the rounding of each term's exponent E_m, of
    the sum and of E, the result is within |F| (B_0(r) + 8*eps*(1 + |E|)
    |theta_kind(r | tau)|), B_0(r) = 3*tol + 32*eps*sum_m |t_m| (1 + |E_m|)
    (t_m the terms at r, |E_m| taken as |curv| m^2 + |lin m|).  Raises
    DomainError for tau outside the upper half-plane, ConvergenceError if
    the tolerance needs more than ctl.n_max term pairs, and
    RangeOverflowError where a term at r or the value passes e^700.
    """
    if kind not in (2, 3, 4):
        raise DomainError(f"theta kind must be 2, 3 or 4, got {kind!r}")
    k, curv, lin = _reduce(arg)
    value = _lattice_sum(curv, lin, half=(kind == 2), alternating=(kind == 4), ctl=ctl)
    message = f"theta_{kind} = exp({{peak:.3g}}) exceeds the floating-point range"
    return _shift_back(-k, curv, lin, value, message, alternating=(kind == 4))


def gaussian_lattice_sum(w, half: bool = False, ctl: SeriesControl = DEFAULT_CONTROL):
    """S(w) = sum over m in Z (or Z+1/2) of exp(w*m - m^2), vectorized in w.

    This is theta_3 (resp. theta_2) at v = -i*w/(2*pi), tau = i/pi; the
    overlap calculus of the coherent-state modules is built on it.  It
    is summed at r = w - 2c (_recentre) and scaled back by exp(c*w - c^2)
    (_shift_back), so every w takes the same few term pairs; where every
    c is 0 the sum at r = w is the value.  With B_0(r) the theta bound
    on S(r), the result is within |exp(c*w - c^2)| (B_0(r) + 2*eps*(1 +
    |c*w - c^2|) |S(r)|): the prefactor's exponent rounds twice.  Raises
    DomainError unless w is a finite complex number or array of them
    with |Im w| <= 1e300, RangeOverflowError where S(w) passes e^700, and
    ConvergenceError as theta does.
    """
    w = _number(w, complex, "lattice-sum argument w must be finite complex numbers, got {value!r}")
    c, r = _recentre(w)
    reduced = _lattice_sum(-1.0 + 0.0j, r, half=half, alternating=False, ctl=ctl)
    message = "lattice sum S(w) = exp({peak:.3g}) exceeds the floating-point range"
    return _shift_back(c, -1.0, r, reduced, message)


def _recentre(x, period=2.0, t=None):
    """(c, x - c*period), c = round(t) half to even per element, t = Re x / period by default.

    The package's one shift of a lattice-sum argument (_reduce shifts
    theta's v).  By default it re-centres a w of S: the shift m -> m + c
    maps Z and Z + 1/2 onto themselves, so

        S(w) = exp(c*w - c^2) * S(r) = exp(w^2/4 - r^2/4) * S(r),

    and |Re r| <= 1 exactly (Sterbenz): S(r) takes the same few term
    pairs and stays of order one whatever Re w is, while S(w) itself
    peaks near e^(w^2/4).  Ratios of sums can then cancel their
    prefactors as exponents before any exp (Deconinck et al., "Computing
    Riemann theta functions", Math. Comp. 73 (2004); DLMF 20.2).  c is
    an integer-valued float, or float array of x's shape.
    """
    c = np.rint(x.real / period if t is None else t)  # rint: np.round's bare ufunc, µs faster
    c = c if isinstance(c, np.ndarray) else float(c)  # a scalar leaves numpy's types, µs a call
    return c, x - c * period


def _reduce(arg: ThetaArg):
    """(k, curv = i pi tau, lin = 2 pi i r), v = r + k*tau + 2j per element, j and k integers.

    k = round(Im v / Im tau), so |Im r| <= Im tau / 2 up to the rounding
    of k*tau.  The even shift 2j, which no theta_kind sees (DLMF
    20.2(iii)), comes off exactly before and after k*tau: |Re r| <= 1.
    Where k = 0 and |Re v| <= 1, lin has the bits of 2 pi i v.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _lattice_sum types an overflowed r
        _, r = _recentre(arg.v)
        k, r = _recentre(r, arg.tau, r.imag / arg.tau.imag)
        return k, 1j * math.pi * arg.tau, 2j * math.pi * _recentre(r)[1]


def _shift_back(c, curv, lin, reduced, message: str, alternating: bool = False):
    """The lattice sum at lin - 2c*curv, (-1)^c e^(c*(lin - c*curv)) times reduced, the one at lin.

    The shift m -> m + c maps Z and Z + 1/2 onto themselves and (-1)^m,
    if alternating, to (-1)^(m+c).  _exp judges the value; reduced, bits
    and all, where every c is 0.
    """
    if not np.count_nonzero(c):
        return reduced
    with np.errstate(over="ignore", invalid="ignore"):  # _exp rejects an overflowed exponent
        exponent = c * (lin - c * curv)
    # a 0-d operand takes numpy's array product, which rounds as an array's elements do
    scale = np.where(c % 2.0, -reduced, reduced) if alternating else np.asarray(reduced)
    return _as_complex(_exp(exponent, message, scale))


@functools.lru_cache(maxsize=32)
def _origin_modulus(imag_tau: float, ctl: SeriesControl) -> float:
    """theta_3(0 | i Im tau), the sum of the theta terms' moduli at a real reduced argument."""
    return abs(theta(3, ThetaArg(0.0 + 0.0j, 1j * imag_tau), ctl))


def theta_log_derivative(
    kind: int, arg: ThetaArg, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex | np.ndarray:
    """(d/dv) log theta_kind(v | tau) for kind in {3, 4}, as R - 2 pi i k, R = 2 pi i M / Theta.

    Theta = sum_m s_m exp(curv m^2 + lin m), s_m = 1 or (-1)^m (kind 4),
    is the sum theta takes at r, v = r + k*tau + 2j, lin = 2 pi i r; M =
    sum_m s_m m exp(...) is its first moment, from the same lattice-sum
    pass.  The factor of theta adds -2 pi i k and is not formed.  An
    array v gives its scalar calls' bits where it keeps their term pairs
    (always on real v; the pairs follow the largest |Im r|).  With
    theta's bound B_0 on Theta and the same bound weighted by |m| on M,
    B_1 = 3*(m* + 2)*tol + 32*eps*sum_m |m t_m| (1 + |E_m|), every term
    past m* = (x + sqrt(x^2 + 4 d ln(1/tol))) / (2 d) being below tol
    (x = 2 pi |Im r|, d = pi Im tau), R is within

        (2*pi*B_1 + |R|*B_0) / (|Theta| - B_0) + 8*eps*|R|   where |Theta| > B_0:

    the conditioning 1/|Theta| of the ratio, plus the rounding of product
    and quotient; 2 pi k adds its own.  Raises SingularityError where
    |Theta| < 1e-10 theta_3(i Im r | i Im tau), the sum of the terms'
    moduli: near a zero, where the derivative diverges, or where the
    terms cancel to rounding (theta_4 at small Im tau).  Otherwise what
    theta raises, and RangeOverflowError where 2 pi k passes the range.
    """
    if kind not in (3, 4):
        raise DomainError(f"log-derivative is provided for kinds 3 and 4, got {kind!r}")
    k, curv, lin = _reduce(arg)
    value, moment = _lattice_sum(
        curv, lin, half=False, alternating=(kind == 4), ctl=ctl, moment=True
    )
    # below 1e-10 of theta_3(i Im r | i Im tau), the sum of the moduli of
    # Theta's terms, Theta is near a zero or lost to cancellation
    if np.any(lin.real):
        moduli = _lattice_sum(curv.real, lin.real, False, False, ctl).real
    else:
        moduli = _origin_modulus(arg.tau.imag, ctl)
    near_zero = np.abs(value) < 1e-10 * moduli
    if near_zero.any():
        v = complex(np.ravel(arg.v)[np.argmax(near_zero)])
        raise SingularityError(f"theta_{kind}({v!r} | {arg.tau!r}) is within 1e-10 of a zero")
    # numpy divides a scalar as it divides an array (Python's complex division differs)
    ratio = np.divide(2j * math.pi * moment, value)
    if np.count_nonzero(k):
        with np.errstate(over="ignore"):
            ratio = ratio - 2j * math.pi * k
        if not np.isfinite(ratio).all():
            raise RangeOverflowError(f"(d/dv) log theta_{kind} passes the floating-point range")
    return _as_complex(ratio)


def _inversion_image(kind: int, v, tau, ctl: SeriesControl) -> complex | np.ndarray:
    """sqrt(tau/i) * exp(i pi v^2 / tau) * theta_kind(v | tau), principal branch."""
    arg = ThetaArg(v, tau)
    value = theta(kind, arg, ctl)
    with np.errstate(over="ignore", invalid="ignore"):  # _exp rejects an overflowed v^2
        exponent = 1j * math.pi * arg.v * arg.v / arg.tau
    message = "theta inversion prefactor exp({peak:.3g}) exceeds the floating-point range"
    return _as_complex(_exp(exponent, message, cmath.sqrt(arg.tau / 1j)) * value)


def modular_image_theta3(
    v: complex | np.ndarray, tau: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex | np.ndarray:
    """theta_3(v/tau | -1/tau) computed through the tau -> -1/tau law.

    Equals sqrt(tau/i) * exp(i pi v^2 / tau) * theta_3(v | tau); useful
    when -1/tau has a much larger imaginary part than tau or vice versa.
    v may be an array; the result then has its shape.  RangeOverflowError
    where the prefactor passes e^700.
    """
    return _inversion_image(3, v, tau, ctl)


def modular_image_theta2(
    v: complex | np.ndarray, tau: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex | np.ndarray:
    """theta_2(v/tau | -1/tau) via the inversion law, which lands on theta_4:

    theta_2(v/tau | -1/tau) = sqrt(tau/i) * exp(i pi v^2 / tau) * theta_4(v | tau).

    v may be an array; the result then has its shape.  RangeOverflowError
    where the prefactor passes e^700.
    """
    return _inversion_image(4, v, tau, ctl)


def theta2_via_half_period_shift(
    v: complex | np.ndarray, tau: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex | np.ndarray:
    """theta_2(v | tau) computed as exp(i pi (tau/4 + v)) * theta_3(v + tau/2 | tau).

    v may be an array; the result then has its shape.  RangeOverflowError
    where the factor exp(i pi (tau/4 + v)) passes e^700.
    """
    arg = ThetaArg(v, tau)
    shifted = theta(3, ThetaArg(arg.v + arg.tau / 2.0, arg.tau), ctl)
    message = "theta_2 half-period factor exp({peak:.3g}) exceeds the floating-point range"
    return _as_complex(_exp(1j * math.pi * (arg.tau / 4.0 + np.asarray(arg.v)), message) * shifted)
