"""Jacobi theta functions with a-priori truncation control.

Evaluates theta_2, theta_3, theta_4 as two-sided Gaussian lattice sums,
together with the logarithmic v-derivatives of theta_3 / theta_4 in
product-series form and the modular transformations that exchange a
slowly converging nome for a fast one.

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

# Largest exponent handed to exp(); beyond this a double overflows.
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class ThetaArg:
    """Argument pair (v, tau) with tau restricted to the upper half-plane.

    v may be an array of arguments sharing one tau; it is stored as a
    complex scalar, or as a complex ndarray when it has dimensions.
    """

    v: complex | np.ndarray
    tau: complex

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=np.complex128)
        if not np.isfinite(v).all():
            raise DomainError("theta argument v must be finite")
        object.__setattr__(self, "v", complex(v) if v.ndim == 0 else v)
        tau = complex(self.tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise DomainError("theta modulus tau must be finite")
        if tau.imag <= 0.0:
            raise DomainError(f"tau = {tau} is not in the upper half-plane")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy: absolute bound on every omitted term, term cap."""

    tol: float = 1e-14
    n_max: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1.0):
            raise DomainError("series tolerance must lie in (0, 1)")
        if self.n_max < 1:
            raise DomainError("series term cap must be at least 1")


DEFAULT_CONTROL = SeriesControl()


def _pair_count(decay: float, drift: float, ctl: SeriesControl, half: bool) -> int:
    """Number of symmetric term pairs needed so every omitted term <= tol.

    Terms have modulus exp(-decay*m^2 + drift*|m|) over the index lattice.
    The positive root m* of decay*m^2 - drift*m + ln(1/tol) = 0 marks the
    point past which every term is below tol (the exponent is decreasing
    there because m* >= drift/decay).  Everything with |m| <= m* is kept.
    """
    if decay <= 0.0:
        raise DomainError("tau is not in the upper half-plane")
    peak = drift * drift / (4.0 * decay)
    if peak > _EXP_LIMIT:
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


def _lattice_sum(curv: complex, lin, half: bool, alternating: bool, ctl: SeriesControl):
    """sum over the index lattice of sign(m) * exp(curv*m^2 + lin*m).

    The lattice is Z (half=False) or Z+1/2 (half=True); alternating
    applies (-1)^m on the integer lattice.  ``lin`` may be a complex
    scalar or an ndarray; the return type matches.  Accumulation runs
    from the largest |m| inward, adding each +-m pair together first.
    """
    lin_arr = np.asarray(lin, dtype=np.complex128)
    scalar = lin_arr.ndim == 0
    decay = -complex(curv).real
    drift = float(np.abs(lin_arr.real).max(initial=0.0))
    # an infinite real part is an overflow, caught by the pair count
    if math.isnan(drift) or not np.isfinite(lin_arr.imag).all():
        raise DomainError(
            "lattice-sum argument is not finite (NaN, or overflowed from a huge input)"
        )
    pairs = _pair_count(decay, drift, ctl, half)

    acc = np.zeros_like(lin_arr)
    for k in range(pairs, 0, -1):
        m = (k - 0.5) if half else float(k)
        sign = -1.0 if (alternating and not half and k % 2 == 1) else 1.0
        base = curv * (m * m)
        pair = np.exp(base + lin_arr * m) + np.exp(base - lin_arr * m)
        acc = acc + sign * pair
    if not half:
        acc = acc + 1.0
    return complex(acc) if scalar else acc


def theta(
    kind: int, arg: ThetaArg, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex | np.ndarray:
    """Evaluate theta_kind(v | tau) for kind in {2, 3, 4}.

    Returns a complex, or an array of v's shape when arg.v is an array.
    Every term omitted from the defining series is bounded in modulus by
    ctl.tol.  Raises DomainError for tau outside the upper half-plane,
    ConvergenceError if the tolerance needs more than ctl.n_max term
    pairs, and RangeOverflowError if the peak term overflows a double.
    """
    if kind not in (2, 3, 4):
        raise DomainError(f"theta kind must be 2, 3 or 4, got {kind!r}")
    tau = complex(arg.tau)
    if tau.imag <= 0.0:
        raise DomainError(f"tau = {tau} is not in the upper half-plane")
    curv = 1j * math.pi * tau
    lin = 2j * math.pi * arg.v
    return _lattice_sum(curv, lin, half=(kind == 2), alternating=(kind == 4), ctl=ctl)


def gaussian_lattice_sum(w, half: bool = False, ctl: SeriesControl = DEFAULT_CONTROL):
    """sum over m in Z (or Z+1/2) of exp(w*m - m^2), vectorized in w.

    This is theta_3 (resp. theta_2) at v = -i*w/(2*pi), tau = i/pi; the
    overlap calculus of the coherent-state modules is built on it.
    """
    return _lattice_sum(-1.0 + 0.0j, w, half=half, alternating=False, ctl=ctl)


def theta_log_derivative(
    kind: int, arg: ThetaArg, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex | np.ndarray:
    """(d/dv) log theta_kind(v | tau) for kind in {3, 4}.

    Uses the product form of the theta function (DLMF 20.5), whose
    v-derivative is a rapidly converging series in q^(2n-1):

        kind 3:  pi * sum_{n>=1} [ 2i y x / (1 + y x) - 2i y / x / (1 + y / x) ]
        kind 4:  pi * sum_{n>=1} [ 2i y / x / (1 - y / x) - 2i y x / (1 - y x) ]

    with y = q^(2n-1) and x = exp(2 i pi v).  arg.v may be an array: the
    series then runs over all of it at once, until the omitted tail is
    below ctl.tol at every element, and the result has v's shape (a
    complex for a scalar v).  Raises SingularityError when some v is
    too close to a zero of theta_kind, where the derivative diverges.
    """
    if kind not in (3, 4):
        raise DomainError(f"log-derivative is provided for kinds 3 and 4, got {kind!r}")
    value = theta(kind, arg, ctl)
    origin = theta(kind, ThetaArg(0.0 + 0.0j, arg.tau), ctl)
    near_zero = np.abs(value) < 1e-10 * abs(origin)
    if near_zero.any():
        v = complex(np.ravel(arg.v)[np.argmax(near_zero)])
        raise SingularityError(
            f"theta_{kind}({v!r} | {arg.tau!r}) is within 1e-10 of a zero"
        )

    tau = complex(arg.tau)
    q = cmath.exp(1j * math.pi * tau)
    x_plus = np.exp(2j * math.pi * arg.v)
    x_minus = np.exp(-2j * math.pi * arg.v)
    # the tail bound of the largest |x| bounds the tail of every element
    size_plus, size_minus = np.abs(x_plus), np.abs(x_minus)
    x_norm = float(np.maximum(size_plus, size_minus).max(initial=0.0))
    x_reach = float((size_plus + size_minus).max(initial=0.0))

    total = np.zeros_like(x_plus)
    for n in range(1, ctl.n_max + 1):
        y = q ** (2 * n - 1)
        yn = abs(y)
        if yn * x_norm >= 1.0:
            # Terms do not decay yet; the product form still converges
            # once yn*x_norm < 1, so just keep going.
            bound = math.inf
        else:
            bound = 2.0 * math.pi * yn * x_reach / (1.0 - yn * x_norm)
        tp = y * x_plus
        tm = y * x_minus
        if kind == 3:
            term = 2j * (tp / (1.0 + tp) - tm / (1.0 + tm))
        else:
            term = 2j * (tm / (1.0 - tm) - tp / (1.0 - tp))
        total = total + term
        if bound <= ctl.tol:
            result = math.pi * total
            return complex(result) if result.ndim == 0 else result
    raise ConvergenceError(
        f"log-derivative series did not reach tol={ctl.tol} within {ctl.n_max} terms"
    )


def _inversion_prefactor(v: complex, tau: complex) -> complex:
    """sqrt(tau/i) * exp(i pi v^2 / tau) on the principal branch."""
    return cmath.sqrt(tau / 1j) * cmath.exp(1j * math.pi * v * v / tau)


def modular_image_theta3(
    v: complex, tau: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """theta_3(v/tau | -1/tau) computed through the tau -> -1/tau law.

    Equals sqrt(tau/i) * exp(i pi v^2 / tau) * theta_3(v | tau); useful
    when -1/tau has a much larger imaginary part than tau or vice versa.
    """
    return _inversion_prefactor(complex(v), complex(tau)) * theta(3, ThetaArg(v, tau), ctl)


def modular_image_theta2(
    v: complex, tau: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """theta_2(v/tau | -1/tau) via the inversion law, which lands on theta_4:

    theta_2(v/tau | -1/tau) = sqrt(tau/i) * exp(i pi v^2 / tau) * theta_4(v | tau).
    """
    return _inversion_prefactor(complex(v), complex(tau)) * theta(4, ThetaArg(v, tau), ctl)


def theta2_via_half_period_shift(
    v: complex, tau: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """theta_2(v | tau) computed as exp(i pi (tau/4 + v)) * theta_3(v + tau/2 | tau)."""
    v = complex(v)
    tau = complex(tau)
    shift = cmath.exp(1j * math.pi * (tau / 4.0 + v))
    return shift * theta(3, ThetaArg(v + tau / 2.0, tau), ctl)
