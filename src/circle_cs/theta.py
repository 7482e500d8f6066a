"""Jacobi theta functions with a-priori truncation control.

Evaluates theta_2, theta_3, theta_4 as two-sided Gaussian lattice sums,
and the logarithmic v-derivatives of theta_3 / theta_4 as the ratio of
the first moment of the same sum to the sum.

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
    "theta",
    "theta_log_derivative",
    "gaussian_lattice_sum",
]

# Largest log-magnitude of a computed exponential, with headroom below the
# double range (e^709.78): _exp checks it, _pair_count bounds lattice terms by it.
_EXP_LIMIT = 700.0
_LN2 = math.log(2.0)

# _amax(a, None, initial=x) is a.max(initial=x) without numpy's Python-level wrapper
_amax = np.maximum.reduce

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
                # count_nonzero: the cheapest "every entry is finite", µs below .all()
                finite = np.count_nonzero(np.isfinite(array)) == array.size
                if finite and (arrays or array.ndim == 0):
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
# below this, so one block's temporaries take 2 to 4 MiB whatever the
# input's size: the stacked buffer of 2*pairs + 1 complex rows (16 bytes a
# term); with the moment, pairs + 1 complex rows more and the buffer's
# float moduli (8 bytes a term).
_BLOCK_TERMS = 1 << 16

# The series policy: every omitted term of a lattice sum is below
# _SERIES_TOL in modulus, and a sum that needs more than _MAX_PAIRS term
# pairs raises ConvergenceError.  _MAX_PAIRS <= _BLOCK_TERMS, so a block
# always holds a point.
_SERIES_TOL = 1e-14
_MAX_PAIRS = 200


def _exp(exponent, message: str, scale=None, unit=1.0):
    """scale * np.exp(exponent) elementwise, or np.exp(exponent): the package's one overflow check.

    RangeOverflowError(message.format(peak=...)) where the result's largest
    log-magnitude, Re(exponent) + log|scale| over nonzero scale, passes
    _EXP_LIMIT or is NaN; its figure is unit * peak for an exponent at
    1/unit of its size (_reduce), or peak, said to be scaled, past the
    range.  Else the bits of scale * np.exp(exponent), unless a factor
    overflows alone: 0 where its scale is 0, log space elsewhere.  A
    complex scale whose modulus alone passes the range counts at its true
    log-magnitude (_unwiden).  A scalar exponent gives the bits of its
    one-element array.
    """
    real = exponent.real
    top = float(_amax(real, None, initial=-math.inf) if isinstance(real, np.ndarray) else real)
    peak = top
    if scale is not None:
        size = np.abs(scale)
        largest = float(_amax(size, None, initial=0.0))
        peak = -math.inf if largest == 0.0 else top + math.log(largest)
        if not peak <= _EXP_LIMIT:  # that bound fails: the exact peak
            real, _, size = _unwiden(real, scale)
            log_size = np.log(size, out=np.full(size.shape, -math.inf), where=size > 0.0)
            peak = float(_amax(real + log_size, None, initial=-math.inf))
    if not peak <= _EXP_LIMIT:
        if math.isinf(unit * peak) and not math.isinf(peak):
            scaled = f"; the exponent shown is 1/{unit:g} of the true one"
            raise RangeOverflowError(message.format(peak=peak) + scaled)
        raise RangeOverflowError(message.format(peak=unit * peak))
    if top <= _EXP_LIMIT:
        return np.exp(exponent) if scale is None else scale * np.exp(exponent)
    exponent, scale, size = _unwiden(*np.broadcast_arrays(exponent, scale))
    kept = size > 0.0
    value = np.zeros(exponent.shape, np.result_type(exponent, scale))
    value[kept] = scale[kept] / size[kept] * np.exp(exponent[kept] + np.log(size[kept]))
    return value


def _exp_column(column, message: str, scale):
    """_exp(exponent, message, scale), column = (exponent, np.exp(exponent), its largest Re, top).

    A column built once for many scales: where _exp's first test passes,
    top <= _EXP_LIMIT and top + log(max|scale|) <= _EXP_LIMIT (or scale
    is 0), its product with the stored exponentials has the bits _exp
    gives; every other scale goes to _exp unchanged, for its exact peak,
    its message or its log-space value.
    """
    exponent, weight, top = column
    largest = float(_amax(np.abs(scale), None, initial=0.0))
    if top <= _EXP_LIMIT and (largest == 0.0 or top + math.log(largest) <= _EXP_LIMIT):
        return scale * weight
    return _exp(exponent, message, scale)


def _unwiden(exponent, scale):
    """(exponent, scale, |scale|) with scale * exp(exponent) kept and each |scale| finite.

    A complex scale with finite parts can have a modulus past the double
    range (1.7e308 (1 + i)), which np.abs reads as inf.  Such an entry
    is halved, exactly, and ln 2 added to its exponent, so that
    scale * exp(exponent) and Re(exponent) + log|scale| keep their values
    while the modulus and its log come out finite.  Every other entry
    keeps its bits.
    """
    size = np.abs(scale)
    wide = np.isinf(size) & np.isfinite(scale)
    if wide.any():
        exponent = np.where(wide, exponent + _LN2, exponent)
        scale = np.where(wide, scale * 0.5, scale)
        size = np.abs(scale)
    return exponent, scale, size


def _as_complex(value) -> complex | np.ndarray:
    """A 0-d result as a Python complex; an array result unchanged."""
    return complex(value) if np.ndim(value) == 0 else value


def _pair_count(decay: float, drift: float, half: bool) -> int:
    """Number of symmetric term pairs needed so every omitted term <= _SERIES_TOL.

    Terms have modulus exp(-decay*m^2 + drift*|m|) over the index lattice,
    decay > 0; the largest is at the index nearest c = drift/(2*decay).
    The positive root m* = c + sqrt(c^2 + ln(1/tol)/decay) of decay*m^2 -
    drift*m + ln(1/tol) = 0 marks the point past which every term is
    below tol (the exponent is decreasing there because m* >= 2c), in a
    form that overflows nowhere.  Everything with |m| <= m* is kept.
    """
    centre = drift / (2.0 * decay)
    gap = math.remainder(centre - 0.5 * half, 1.0) if math.isfinite(centre) else 0.0
    peak = 0.5 * drift * centre - decay * gap * gap
    if not peak <= _EXP_LIMIT:  # NaN and inf too
        raise RangeOverflowError(
            f"largest series term exp({peak:.3g}) exceeds the floating-point range"
        )
    # m* (+ 1/2 on Z + 1/2) term pairs; inf where 1/decay overflows
    reach = centre + math.sqrt(centre * centre - math.log(_SERIES_TOL) / decay) + 0.5 * half
    if not reach <= _MAX_PAIRS:
        raise ConvergenceError(f"series needs {reach:.4g} term pairs, past the cap {_MAX_PAIRS}")
    return math.ceil(reach)


def _drift(lin) -> float:
    """Largest |Re lin|; DomainError if some element is NaN or has |Im lin| past 1e300.

    m * lin then stays finite for every m up to the pair cap.
    """
    drift = float(_amax(np.abs(lin.real), None, initial=0.0))
    if math.isnan(drift) or not _amax(np.abs(lin.imag), None, initial=0.0) <= 1e300:
        raise DomainError(
            "lattice-sum argument is not finite (NaN, or overflowed from a huge input)"
            " or has an imaginary part past 1e300"
        )
    return drift


@functools.lru_cache(maxsize=32)
def _ladder(pairs: int, half: bool, alternating: bool):
    """Read-only columns (m, m^2, sign) over the term pairs, largest |m| first.

    Each is complex with imaginary part 0, the operand numpy makes of a
    float in a complex product, and has shape (pairs, 1), to broadcast
    against a row of points.  A ladder holds 48 bytes a pair, so the 32
    entries of at most _MAX_PAIRS pairs stay within 300 KiB.
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


def _sum_rows(rows, acc, start: int) -> None:
    """acc[start : start + n] = rows[0] + rows[1] + ... + rows[-1], added in that order.

    rows is a C-contiguous block of n columns.  Across two or more
    columns np.add.reduce along axis 0 adds row after row, as
    np.add.accumulate does, in one inner loop per row rather than one
    per column; on one column the axis is contiguous and reduce adds
    pairwise, so that column is accumulated (overwriting rows).
    tests/test_theta.py::test_block_sums_add_row_after_row pins the two
    to the same bits, so a numpy whose reduce order differs fails there.
    """
    n = rows.shape[1]
    if n > 1:
        np.add.reduce(rows, axis=0, out=acc[start : start + n])
    else:
        acc[start] = np.add.accumulate(rows, axis=0, out=rows)[-1, 0]


def _lattice_sum(curv, lin, half: bool, alternating: bool, moment=False):
    """sum over the index lattice of sign(m) * exp(curv*m^2 + lin*m).

    The lattice is Z (half=False) or Z+1/2 (half=True); alternating
    applies (-1)^m on the integer lattice.  ``lin`` may be a complex
    scalar or an ndarray; the return type matches.  moment=True returns
    (sum, first moment, moduli), the moment being the sum of sign(m) *
    m * exp(curv*m^2 + lin*m) and moduli (float) the sum of the terms'
    moduli |t_m|, all three from one pass; the sum keeps its bits.

    A block of points fills one stacked buffer of 2*pairs + 1 rows: a
    row of zeros, then curv*m^2 + lin*m and curv*m^2 - lin*m for each
    _ladder m, largest |m| first; one broadcast exp turns the last
    2*pairs rows into terms.  Each term pair is sign * (the sum of its
    two terms), sign applied only on the alternating integer lattice, its
    moment sign * m * (their difference), its moduli the sum of their
    moduli, taken by one abs of the buffer.  The pairs are added in a
    fixed order: from the zero row, then from the largest |m| inward
    (_sum_rows).  1, the m = 0 term, is added last on Z.  The points go
    through in blocks of _BLOCK_TERMS // pairs, so the temporaries stay
    bounded whatever the size of ``lin``.
    """
    lin_arr = np.asarray(lin, dtype=np.complex128)
    decay = -complex(curv).real
    # an infinite real part is an overflow, caught by the pair count
    pairs = _pair_count(decay, _drift(lin_arr), half)

    m, m_sq, sign = _ladder(pairs, half, alternating)
    signed = alternating and not half
    base = np.multiply(curv, m_sq)
    flat = lin_arr.reshape(-1)
    acc = np.empty(flat.shape, dtype=np.complex128)
    if moment:
        acc_moment, acc_moduli = np.empty_like(acc), np.empty(flat.shape)
        weight = m * sign
    block = _BLOCK_TERMS // pairs
    for start in range(0, flat.size, block):
        points = flat[start : start + block]
        # row 0 stays 0, where each sum starts; then the + and the - terms
        terms = np.zeros((2 * pairs + 1, points.size), dtype=np.complex128)
        pair, minus = terms[1 : pairs + 1], terms[pairs + 1 :]
        np.multiply(m, points, out=minus)
        np.add(base, minus, out=pair)
        np.subtract(base, minus, out=minus)
        np.exp(terms[1:], out=terms[1:])
        if moment:
            moments = np.zeros((pairs + 1, points.size), dtype=np.complex128)
            np.multiply(np.subtract(pair, minus, out=moments[1:]), weight, out=moments[1:])
            _sum_rows(moments, acc_moment, start)
            moduli = np.abs(terms)
            summed = moduli[: pairs + 1]
            summed[1:] += moduli[pairs + 1 :]
            _sum_rows(summed, acc_moduli, start)
        pair += minus
        if signed:
            pair *= sign
        _sum_rows(terms[: pairs + 1], acc, start)
    if not half:
        acc += 1.0
    value = _as_complex(acc.reshape(lin_arr.shape))
    if not moment:
        return value
    # on Z the m = 0 term's modulus, 1, comes last, as the sum's 1 does
    moduli = acc_moduli.reshape(lin_arr.shape) + (not half)
    return value, _as_complex(acc_moment.reshape(lin_arr.shape)), moduli


def theta(kind: int, arg: ThetaArg) -> complex | np.ndarray:
    """Evaluate theta_kind(v | tau) for kind in {2, 3, 4}.

    Returns a complex, or an array of v's shape when arg.v is an array.
    tau is reduced mod 2 first (theta_2 then gains i^c, _reduce).  The
    series is summed at r, v = r + k*tau + 2j (_reduce), and taken back
    by the quasi-period factor F = +-e^E (_shift_back).  Every term
    omitted at r is bounded in modulus by tol = _SERIES_TOL (1e-14), so
    the omitted tail stays below 3*tol; with the rounding of each term's
    exponent E_m, of the sum and of E, the result is within |F| (B_0(r) +
    8*eps*(1 + |E|) |theta_kind(r | tau)|), B_0(r) = 3*tol + 32*eps*sum_m
    |t_m| (1 + |E_m|) (t_m the terms at r, |E_m| taken as |curv| m^2 +
    |lin m|).  Raises DomainError for tau outside the upper half-plane,
    ConvergenceError if the tolerance needs more than _MAX_PAIRS (200)
    term pairs (below Im tau of about 2.6e-4 at real v), and
    RangeOverflowError where a term at r or the value passes e^700.
    """
    if isinstance(kind, np.ndarray) or kind not in (2, 3, 4):
        raise DomainError(f"theta kind must be 2, 3 or 4, got {kind!r}")
    c, k, curv, lin, unit = _reduce(arg)
    value = _lattice_sum(curv, lin, half=(kind == 2), alternating=(kind == 4))
    message = f"theta_{kind} = exp({{peak:.3g}}) exceeds the floating-point range"
    value = _shift_back(-k, curv, lin, value, message, alternating=(kind == 4), unit=unit)
    return _quarter_turns(c, value) if kind == 2 else value


def gaussian_lattice_sum(w, half: bool = False):
    """S(w) = sum over m in Z (or Z+1/2) of exp(w*m - m^2), vectorized in w.

    This is theta_3 (resp. theta_2) at v = -i*w/(2*pi), tau = i/pi; the
    overlap calculus of the coherent-state modules is built on it.  It
    is summed at r = w - 2c (_recentre) and scaled back by exp(c*w - c^2)
    (_shift_back), so every w takes at most 7 term pairs (|Re r| <= 1,
    at the series tolerance); where every c is 0 the sum at r = w is the
    value.  With B_0(r) the theta bound on S(r), the result is within
    |exp(c*w - c^2)| (B_0(r) + 2*eps*(1 + |c*w - c^2|) |S(r)|): the
    prefactor's exponent rounds twice.  Raises DomainError unless w is a
    finite complex number or array of them with |Im w| <= 1e300, and
    RangeOverflowError where S(w) passes e^700.
    """
    w = _number(w, complex, "lattice-sum argument w must be finite complex numbers, got {value!r}")
    if not isinstance(half, (bool, np.bool_)):
        raise DomainError(f"half must be True or False, got {half!r}")
    c, r = _recentre(w)
    reduced = _lattice_sum(-1.0 + 0.0j, r, half=bool(half), alternating=False)
    message = "lattice sum S(w) = exp({peak:.3g}) exceeds the floating-point range"
    return _shift_back(c, -1.0, r, reduced, message)


def _recentre(x, period=2.0):
    """(c, x - c*period), c = round(Re x / period) half to even per element.

    The package's one shift of a lattice-sum argument (_reduce shifts
    theta's v and tau).  By default it re-centres a w of S: the shift
    m -> m + c maps Z and Z + 1/2 onto themselves, so

        S(w) = exp(c*w - c^2) * S(r) = exp(w^2/4 - r^2/4) * S(r),

    and |Re r| <= 1 exactly (Sterbenz): S(r) takes the same few term
    pairs and stays of order one whatever Re w is, while S(w) itself
    peaks near e^(w^2/4).  Ratios of sums can then cancel their
    prefactors as exponents before any exp (Deconinck et al., "Computing
    Riemann theta functions", Math. Comp. 73 (2004); DLMF 20.2).  c is
    an integer-valued float, or float array of x's shape.

    An array x whose every c is 0 comes back as itself, -0 real parts that
    x - c*period would make +0 and all: no lattice sum sees the sign of a
    zero (tests/test_theta.py::test_lattice_sums_are_blind_to_the_sign_of_zero).
    A scalar's subtraction costs less than the test.
    """
    c = np.rint(x.real / period)  # rint: np.round's bare ufunc, µs faster
    if not isinstance(c, np.ndarray):
        c = float(c)  # a scalar leaves numpy's types, µs a call
    elif not np.count_nonzero(c):
        return c, x
    return c, x - c * period


def _reduce(arg: ThetaArg):
    """(c, k, curv = i pi t, lin = 2 pi i r, unit): tau = t + 2c, v = r + k*t + 2j per element.

    c, j and k are integers.  c = round(Re tau / 2), so |Re t| <= 1
    exactly; theta_3 and theta_4 have period 2 in tau and theta_2 gains
    i^c.  Im r is the remainder of Im v mod Im tau, exact (fmod), moved
    exactly into [-Im tau / 2, Im tau / 2], and k the quotient that goes
    with it, exact while |k| < 2^51.  The even shift 2j, which no
    theta_kind sees (DLMF 20.2(iii)), comes off exactly before and after
    k*t: |Re r| <= 1, up to the rounding of k Re t.  Where c = k = 0 and
    |Re v| <= 1, curv and lin have the bits of i pi tau and 2 pi i v.
    Past Im tau = 1e306, where i pi t or a kept term could pass the
    double range, Im t and Im r are divided by unit = 64 (else 1).  The
    real part of each term's exponent, and of F's, is 0 or past +-1e287 in
    exact arithmetic there, before and after the division, so every term
    keeps its modulus (0, 1 or an overflow): the value stays the same.
    """
    c, t = _recentre(arg.tau)
    with np.errstate(over="ignore", invalid="ignore"):  # _lattice_sum types an overflowed r
        _, r = _recentre(arg.v)
        k, unit = 0.0, 1.0
        moved = np.count_nonzero(r.imag)  # a real v needs no k, and skips µs of array steps
        if moved:
            rem = np.fmod(r.imag, t.imag)
            turn, im_r = _recentre(rem, t.imag)
            k = _recentre(r.imag - rem, t.imag)[0] + turn  # rem has Im v's sign: no overflow
            r = r.real - k * t.real + 1j * im_r
        if t.imag > 1e306:
            moved, unit = True, 64.0
            t, r = complex(t.real, t.imag / unit), r.real + 1j * (r.imag / unit)
        # a real v stays as the first _recentre left it, where the second is the identity
        return c, k, 1j * math.pi * t, 2j * math.pi * (_recentre(r)[1] if moved else r), unit


def _quarter_turns(c: float, value):
    """value * i^c for an integer-valued c, value itself where c % 4 is 0."""
    return value * (1, 1j, -1, -1j)[int(c % 4.0)] if c % 4.0 else value


def _shift_back(c, curv, lin, reduced, message: str, alternating: bool = False, unit=1.0):
    """The lattice sum at lin - 2c*curv, (-1)^c e^(c*(lin - c*curv)) times reduced, the one at lin.

    The shift m -> m + c maps Z and Z + 1/2 onto themselves and (-1)^m,
    if alternating, to (-1)^(m+c).  _exp judges the value, for exponents
    at 1/unit of their size; reduced, bits and all, where every c is 0.
    """
    if not np.count_nonzero(c):
        return reduced
    with np.errstate(over="ignore", invalid="ignore"):  # _exp rejects an overflowed exponent
        exponent = c * (lin - c * curv)
    # a 0-d operand takes numpy's array product, which rounds as an array's elements do
    scale = np.where(c % 2.0, -reduced, reduced) if alternating else np.asarray(reduced)
    return _as_complex(_exp(exponent, message, scale, unit))


def theta_log_derivative(kind: int, arg: ThetaArg) -> complex | np.ndarray:
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
    and quotient.  Im r is exact (_reduce) at every |Im v|; -2 pi i k adds
    at most 8*eps*2*pi*|k|, the rounding of 2 pi k and, past 2^53, of k
    itself.  Where Re tau != 0, Re r also carries the rounding of k Re
    tau, up to eps |k Re tau|.  Raises SingularityError where
    |Theta| < 1e-10 sum_m |t_m|, the moduli of the terms that same pass
    sums: near a zero, where the derivative diverges, or where the
    terms cancel to rounding (theta_4 at small Im tau).  Otherwise what
    theta raises, and RangeOverflowError where 2 pi k passes the range.
    """
    if isinstance(kind, np.ndarray) or kind not in (3, 4):
        raise DomainError(f"log-derivative is provided for kinds 3 and 4, got {kind!r}")
    _, k, curv, lin, _ = _reduce(arg)
    value, moment, moduli = _lattice_sum(curv, lin, False, alternating=(kind == 4), moment=True)
    # below 1e-10 of the sum of its terms' moduli, Theta is near a zero or lost to cancellation
    near_zero = np.abs(value) < 1e-10 * moduli
    if np.count_nonzero(near_zero):
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
