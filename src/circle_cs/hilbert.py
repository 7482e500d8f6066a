"""Finite-window angular-momentum basis and the operators acting on it.

States live on a symmetric window of the basis {|j>} with j integer
(boson sector) or half-integer (fermion sector).  Indices are stored as
2j so both sectors share one integer code path.  The operators

    J |j> = j |j>
    U |j> = |j+1>            Udag |j> = |j-1>
    X |j> = e^(-j-1/2)|j+1>  Xdag |j> = e^(-j+1/2)|j-1>
    N |j> = (-j + N_CONST)|j>,   N_CONST = ln(2 sinh 1)/2
    T (antiunitary):  c_j -> conj(c_{-j})

satisfy [J,U] = U, X = U e^(-J-1/2), X Xdag = e^2 Xdag X and
[X, Xdag] = 2 sinh(1) e^(-2J) on the interior of the window.  Shifts
drop amplitude off the window edges; the dropped magnitude accumulates
in StateVector.leakage so truncation artifacts stay auditable.
"""

from __future__ import annotations

import cmath
import enum
import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParityError, RangeOverflowError, WindowError
from .theta import _SLACK, _exp, _exp_column, _integer, _modulus, _number

__all__ = [
    "Sector",
    "Truncation",
    "StateVector",
    "N_CONST",
    "OPERATOR_KINDS",
    "basis_state",
    "apply_operator",
    "apply_exp_j",
    "apply_time_reversal",
    "inner",
    "operator_matrix",
    "state_to_json",
    "state_from_json",
]

# Constant in N = -J + N_CONST, fixed by [X, Xdag] = e^(2 N_CONST) e^(-2J).
N_CONST = 0.5 * math.log(2.0 * math.sinh(1.0))

OPERATOR_KINDS = ("J", "U", "Udag", "X", "Xdag", "N")
# row - col of each kind's one nonzero band: the shift kinds move a slot up or down
_BAND_OFFSETS = dict(zip(OPERATOR_KINDS, (0, 1, -1, 1, -1, 0)))


class Sector(enum.Enum):
    """Boson (j integer) or fermion (j half-integer) representation.

    parity is the residue of 2j mod 2 for the sector: 0 or 1.
    """

    BOSON = "boson"
    FERMION = "fermion"

    parity: int

    def __init__(self, value: str) -> None:
        # a plain attribute, not a property: the state operations read it on every call
        self.parity = int(value == "fermion")

    @classmethod
    def from_name(cls, name: str) -> "Sector":
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):  # not a string, or no sector's name
            raise DomainError(f"unknown sector {name!r}; expected 'boson' or 'fermion'") from None


def _lowest_two_j(two_jmax: int, parity: int) -> int:
    """The lowest 2j of a window; the highest is its negative."""
    return -two_jmax + ((two_jmax + parity) % 2)


class _Window(NamedTuple):
    """What depends on a window alone, built once by _window and handed to every caller."""

    two_j: np.ndarray  # ascending
    j: np.ndarray
    j_top: float  # the largest |j|, which bounds _product's J column
    gauss: np.ndarray  # 0.5 * j * j, the Gaussian of the coherent coefficients
    keys: list[int]  # 2j as a list, which state_from_json compares a document's keys against
    x: tuple  # (exponent, e^exponent, their largest) for theta._exp_column: X's, -j - 1/2
    xdag: tuple  # and Xdag's, -j + 1/2
    n_band: np.ndarray  # -j + N_CONST
    n_top: float  # its largest modulus
    json: str  # state_to_json's text, with a %r for each im, re and the leakage


# json.dumps with sorted keys writes each float with float.__repr__, as %r does
_JSON_SLOT = '{"im": %%r, "re": %%r, "two_j": %d}'
_JSON_TAIL = '], "leakage": %%r, "sector": "%s", "two_jmax": %d}'


def _column(exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    weight = np.exp(exponent)
    exponent.flags.writeable = weight.flags.writeable = False
    return exponent, weight, float(exponent.max()), float(weight.max())


@functools.lru_cache(maxsize=32)
def _window(two_jmax: int, parity: int) -> _Window:
    """One window's _Window: every array read-only, the list never mutated.

    An entry of the widest window, 601 slots, holds 8 arrays of 4.9 KB,
    the 2j list (22 KB) and the JSON text (22 KB): 83 KB in all
    (sys.getsizeof), so the 32 entries stay within 2.7 MB.
    """
    two_j = np.arange(_lowest_two_j(two_jmax, parity), two_jmax + 1, 2)
    j = two_j / 2.0
    gauss = 0.5 * j * j
    n_band = -j + N_CONST
    for column in (two_j, j, gauss, n_band):
        column.flags.writeable = False
    keys = two_j.tolist()
    sector = (Sector.BOSON, Sector.FERMION)[parity].value
    slots = ", ".join([_JSON_SLOT % key for key in keys])
    json_text = '{"coeffs": [' + slots + _JSON_TAIL % (sector, two_jmax)
    x, xdag = _column(-j - 0.5), _column(-j + 0.5)
    n_top = float(np.abs(n_band).max())
    return _Window(two_j, j, float(j[-1]), gauss, keys, x, xdag, n_band, n_top, json_text)


# Largest window.  Dense window matrices grow as two_jmax^2 and their
# products overflow double range past two_jmax ~ 700.
MAX_TWO_JMAX = 600


@dataclass(frozen=True)
class Truncation:
    """Symmetric window |2j| <= two_jmax, 2 <= two_jmax <= MAX_TWO_JMAX (2j keeps the parity)."""

    two_jmax: int

    def __post_init__(self) -> None:
        message = "two_jmax must be an integer in [{low}, {high}], got {value!r}"
        object.__setattr__(self, "two_jmax", _integer(self.two_jmax, 2, MAX_TWO_JMAX, message))

    def two_j_values(self, sector: Sector) -> np.ndarray:
        """The 2j of the window in ascending order: a shared, read-only array."""
        return _window(self.two_jmax, sector.parity).two_j

    def j_values(self, sector: Sector) -> np.ndarray:
        """The j of the window in ascending order: a shared, read-only array."""
        return _window(self.two_jmax, sector.parity).j

    def size(self, sector: Sector) -> int:
        return len(self.two_j_values(sector))

    def index_of(self, sector: Sector, two_j) -> int:
        """Slot of 2j in the window; two_j is one Python or NumPy integer.

        Raises DomainError for anything else (a bool, a float, an array),
        then ParityError or WindowError, the parity test first.
        """
        two_j = _integer(two_j, -math.inf, math.inf, "2j must be an integer, got {value!r}")
        if two_j % 2 != sector.parity:
            raise ParityError(f"2j = {two_j} does not match the {sector.value} sector")
        start = _lowest_two_j(self.two_jmax, sector.parity)
        if not start <= two_j <= -start:
            raise WindowError(f"2j = {two_j} outside window |2j| <= {self.two_jmax}")
        return (two_j - start) // 2


_COEFFS_MESSAGE = "state coefficients must be finite"
_LEAKAGE_MESSAGE = "leakage must be a finite real number >= 0, got {value!r}"


def _leakage(value) -> float:
    """value as a Python float >= 0, or DomainError in StateVector's words."""
    leakage = _number(value, float, _LEAKAGE_MESSAGE, arrays=False)
    if leakage < 0.0:
        raise DomainError(_LEAKAGE_MESSAGE.format(value=value))
    return leakage


# The least bound a state carries, the smallest normal double: below it a product rounds
# by an absolute step (2^-1074) that theta._SLACK, a relative slack, would not cover
_BOUND_FLOOR = 2.0**-1022


@dataclass(frozen=True)
class StateVector:
    """Immutable coefficient vector c_j over a sector window.

    leakage accumulates the magnitude (sum of |c_j|) dropped off the
    window by shift operators applied anywhere in the state's history.

    Every state also holds _bound, not a field: an upper bound B on
    max|c_j| as np.abs reads it, which the overflow guards of the
    operations read in place of a scan of the coefficients; it is never
    below the smallest normal double.  A state the library builds carries
    the bound its producer passed to _adopt; one built here, or read by
    state_from_json, takes the exact max|c_j| when an operation first
    reads it.
    """

    sector: Sector
    trunc: Truncation
    coeffs: np.ndarray
    leakage: float = 0.0

    def __post_init__(self) -> None:
        size = self.trunc.size(self.sector)
        coeffs = np.array(_number(self.coeffs, complex, _COEFFS_MESSAGE), np.complex128)  # a copy
        if coeffs.shape != (size,):
            raise DomainError(f"expected {size} coefficients, got shape {coeffs.shape}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "leakage", _leakage(self.leakage))

    @functools.cached_property
    def _bound(self) -> float:
        return max(_modulus(self.coeffs), _BOUND_FLOOR)

    def two_j_values(self) -> np.ndarray:
        return self.trunc.two_j_values(self.sector)

    def j_values(self) -> np.ndarray:
        return self.trunc.j_values(self.sector)

    def norm(self) -> float:
        """sqrt(sum |c_j|^2); RangeOverflowError where it passes the floating-point range."""
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.coeffs))
        if norm == math.inf:  # some |c_j|^2 overflowed: again at the scale of the largest part
            scale = float(np.abs(self.coeffs.view(np.float64)).max())
            norm = scale * float(np.linalg.norm(self.coeffs / scale))
            if norm == math.inf:
                raise RangeOverflowError("state norm passes the floating-point range")
        return norm

    def tail_mass(self) -> float:
        """Largest |c_j| among the outermost two slots on each side.

        RangeOverflowError where that modulus passes the floating-point range.
        """
        c = np.abs(self.coeffs)  # Truncation gives every window at least 2 slots
        mass = float(max(c[:2].max(), c[-2:].max()))
        if mass == math.inf:
            raise RangeOverflowError("state tail mass passes the floating-point range")
        return mass


def _require_finite(coeffs: np.ndarray) -> None:
    """DomainError unless every coefficient is finite, as StateVector says."""
    # count_nonzero: the cheapest "every entry is finite" on a window-sized array
    if np.count_nonzero(np.isfinite(coeffs)) != len(coeffs):
        raise DomainError(_COEFFS_MESSAGE)


def _adopt(
    sector: Sector, trunc: Truncation, coeffs: np.ndarray, leakage: float, bound: float | None
) -> StateVector:
    """A StateVector around the library's own result; only the leakage is checked here.

    coeffs is frozen in place, not copied: a complex128 array of the window's
    shape that the caller has just made, never a caller's array or a view of
    one, and already finite.  leakage is a Python float, a sum that can pass
    the range.  A producer whose product can overflow without raising (J, N,
    evolve) forms it through _product, which types it.  The others are
    finite by construction: U, Udag and time reversal move or conjugate
    the entries of a finite state; exp_j and coherent_state take their
    values from theta._exp, and X and Xdag theirs from theta._exp_column,
    which passes _exp's first test or hands the state to _exp: either
    bounds every modulus by e^700, on the log-space path too; basis_state
    writes 0 and 1; state_from_json checks what it read.

    bound is the state's _bound: B >= max|c_j| as np.abs reads it (inf
    allowed), carried from the input by one scalar update.  basis_state
    gives 1 and coherent_state e^(l^2/2) (max_j lj - j^2/2 <= l^2/2);
    U, Udag and time reversal keep B; X and Xdag multiply it by their
    column's largest weight, J and N by the window's j_top and n_top,
    exp_j by e^(|Re eta| j_max) and evolve by 1, each product by
    theta._SLACK, which covers its rounding.  The bound kept is at least
    _BOUND_FLOOR, so that a subnormal modulus, whose rounding is absolute,
    stays covered.  None (state_from_json) leaves the exact max|c_j| to
    the first operation that reads it.
    """
    if not 0.0 <= leakage < math.inf:
        raise DomainError(_LEAKAGE_MESSAGE.format(value=leakage))
    coeffs.setflags(write=False)
    state = object.__new__(StateVector)
    # item by item into the instance dict, the cheapest write past the frozen __setattr__
    fields = state.__dict__
    fields["sector"] = sector
    fields["trunc"] = trunc
    fields["coeffs"] = coeffs
    fields["leakage"] = leakage
    if bound is not None:
        fields["_bound"] = bound if bound > _BOUND_FLOOR else _BOUND_FLOOR
    return state


def basis_state(sector: Sector, j: float, trunc: Truncation) -> StateVector:
    """Unit vector |j>.  Raises if 2j is off-parity or outside the window."""
    j = _number(j, float, "j must be a finite real number, got {value!r}", arrays=False)
    # j is whole from 2^52 on, where 2.0 * j can overflow
    two_j = round(2.0 * j) if abs(j) < 2.0**52 else 2 * int(j)
    if abs(j - two_j / 2) > 0.5e-12:
        raise ParityError(f"j = {j} is not a half-integer")
    idx = trunc.index_of(sector, two_j)
    coeffs = np.zeros(trunc.size(sector), dtype=np.complex128)
    coeffs[idx] = 1.0
    return _adopt(sector, trunc, coeffs, 0.0, 1.0)


# _exp's message, after the operator's name
_COEFF_OVERFLOW = (
    " produces a coefficient of magnitude exp({peak:.3g}), outside the floating-point range"
)
_X_OVERFLOW = "X" + _COEFF_OVERFLOW
_XDAG_OVERFLOW = "Xdag" + _COEFF_OVERFLOW


def _band_offset(kind) -> int:
    """row - col of kind's one nonzero band; DomainError unless kind is one of OPERATOR_KINDS."""
    try:
        return _BAND_OFFSETS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind, such as an array
        raise DomainError(
            f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}"
        ) from None


def _shift(coeffs: np.ndarray, offset: int) -> tuple[np.ndarray, float]:
    """coeffs moved one slot up (offset 1) or down (-1), and |the coefficient pushed off|."""
    out = np.zeros(coeffs.shape, coeffs.dtype)
    if offset > 0:
        out[1:], edge = coeffs[:-1], coeffs[-1]
    else:
        out[:-1], edge = coeffs[1:], coeffs[0]
    return out, float(abs(edge))


# Moduli whose product stays below this leave every part of a complex product finite,
# with a factor 2 to spare for the rounding of each part
_PRODUCT_LIMIT = 2.0**1022


def _product(coeffs: np.ndarray, column: np.ndarray, top: float, bound: float):
    """(coeffs * column, a bound on its largest modulus), typed as StateVector types it.

    top bounds |column| and bound max|coeffs|.  Where bound * top <=
    _PRODUCT_LIMIT the product is finite as it stands, and bound * top *
    _SLACK bounds it; any other state (a modulus np.abs reads as inf
    included) is multiplied under np.errstate and checked entry by entry,
    to the same bits, and its product's bound is exact.
    """
    if bound * top <= _PRODUCT_LIMIT:
        return coeffs * column, bound * top * _SLACK
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the range is not finite
        out = coeffs * column
    _require_finite(out)
    return out, _modulus(out)


def apply_operator(kind: str, s: StateVector) -> StateVector:
    """Apply one of J, U, Udag, X, Xdag, N to the state.

    Shift operators (U, Udag, X, Xdag) drop the coefficient pushed past
    the window edge and add its magnitude to the returned state's
    leakage.  J, N, X and Xdag multiply by a column the window built once:
    j, -j + N_CONST, e^(-j-1/2) and e^(-j+1/2).  X and Xdag go through
    theta._exp_column, so they give the bits of c * np.exp(-j -+ 1/2)
    and raise RangeOverflowError where a weighted coefficient would pass
    e^700, as theta._exp does.
    """
    offset = _band_offset(kind)
    c, bound = s.coeffs, s._bound
    if kind != "U" and kind != "Udag":  # the weighted kinds read the window's columns
        window = _window(s.trunc.two_jmax, s.sector.parity)
        if kind == "X":
            c, bound = _exp_column(window.x, _X_OVERFLOW, c, bound)
        elif kind == "Xdag":
            c, bound = _exp_column(window.xdag, _XDAG_OVERFLOW, c, bound)
        elif kind == "J":
            c, bound = _product(c, window.j, window.j_top, bound)
        else:
            c, bound = _product(c, window.n_band, window.n_top, bound)
    dropped = 0.0
    if offset:
        c, dropped = _shift(c, offset)
    return _adopt(s.sector, s.trunc, c, s.leakage + dropped, bound)


def apply_exp_j(s: StateVector, eta: complex) -> StateVector:
    """Apply e^(eta*J): c_j -> e^(eta*j) c_j.  eta may be complex.

    Acting on a coherent state at (l, phi) with real eta moves it to
    (l + eta, phi); purely imaginary eta = -i*omega*t rotates phi.
    Raises DomainError for a non-finite eta, and RangeOverflowError when
    eta*j leaves the double range at the window edge or a coefficient
    would pass e^700.  A factor e^(eta*j) past the range still gives the
    right coefficient when c_j is small enough, and 0 when c_j is 0.
    """
    j = s.j_values()
    # checked with scalar math, so _exp sees finite exponents
    checked = _number(eta, complex, "eta must be finite, got {value!r}", arrays=False)
    edge = checked * float(j[-1])
    if not cmath.isfinite(edge):
        raise RangeOverflowError(
            f"exp_j with eta = {eta!r} leaves the floating-point range at |j| = {j[-1]}"
        )
    bound = s._bound
    out = _exp(np.asarray(eta) * j, "exp_j" + _COEFF_OVERFLOW, s.coeffs, bound=bound)
    # every |e^(eta j)| <= e^(|Re eta| j_max); past e^709 the bound is left to a scan
    reach = abs(edge.real)
    bound = bound * math.exp(reach) * _SLACK if reach < 709.0 else math.inf
    # a long double eta gives a wider product, rounded as StateVector rounds it
    return _adopt(s.sector, s.trunc, out.astype(np.complex128, copy=False), s.leakage, bound)


def apply_time_reversal(s: StateVector) -> StateVector:
    """Antiunitary time reversal: c_j -> conj(c_{-j})."""
    return _adopt(s.sector, s.trunc, np.conj(s.coeffs[::-1]), s.leakage, s._bound)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum_j conj(a_j) b_j (conjugate-linear in the first slot).

    RangeOverflowError where the sum leaves the floating-point range.
    """
    if a.sector is not b.sector or (a.trunc is not b.trunc and a.trunc != b.trunc):
        raise DomainError("inner product requires matching sector and window")
    value = complex(np.vdot(a.coeffs, b.coeffs))
    if not cmath.isfinite(value):
        raise RangeOverflowError("inner product leaves the floating-point range")
    return value


def operator_matrix(kind: str, sector: Sector, trunc: Truncation) -> np.ndarray:
    """Dense window matrix M with M[row, col] = <j_row| Op |j_col>."""
    offset = _band_offset(kind)
    j = trunc.j_values(sector)
    n = len(j)
    # the one nonzero band: row - col = offset
    if kind == "J":
        band = j
    elif kind == "N":
        band = -j + N_CONST
    elif kind == "X":  # weights at most e^300.5 inside MAX_TWO_JMAX
        band = np.exp(-j[:-1] - 0.5)
    elif kind == "Xdag":
        band = np.exp(-j[1:] + 0.5)
    else:  # U, Udag
        band = 1.0
    m = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(n - abs(offset))
    m[k + max(offset, 0), k + max(-offset, 0)] = band
    return m


def state_to_json(s: StateVector) -> str:
    """Serialize to JSON: sector tag, window, leakage, {two_j, re, im} array.

    The text is that of json.dumps with sorted keys: the window's
    template, every 2j, the sector and two_jmax written in, takes each
    im, re and the leakage through one %.
    """
    c = s.coeffs
    # im and re of each slot, then the leakage
    values = [s.leakage] * (2 * len(c) + 1)
    values[0:-1:2] = c.imag.tolist()
    values[1:-1:2] = c.real.tolist()
    return _window(s.trunc.two_jmax, s.sector.parity).json % tuple(values)


def state_from_json(text: str) -> StateVector:
    """The state a JSON document describes, gated as StateVector gates its arguments.

    A document whose two_j run through the window in ascending order, as
    state_to_json writes them, is read straight into the window; any other
    is scattered one index_of call per entry, in document order, so the
    first offending 2j raises and a repeated 2j keeps its last value.
    DomainError("malformed state JSON: ...") for text that is not such a
    document, nesting too deep to parse included.
    """
    try:
        payload = json.loads(text)
        sector = Sector.from_name(payload["sector"])
        two_jmax = payload["two_jmax"]
        leakage = payload.get("leakage", 0.0)  # checked below, as StateVector checks it
        entries = payload["coeffs"]
        keys = [e["two_j"] for e in entries]
        # JSON gives an int only for an integer literal: 2.0, 1e3 and true are refused
        if not {*map(type, keys)} <= {int}:
            raise DomainError("two_j must be an integer")
        values = [complex(e["re"], e["im"]) for e in entries]
    # ValueError covers JSONDecodeError; RecursionError is nesting past the parser's depth
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DomainError(f"malformed state JSON: {exc}") from exc
    trunc = Truncation(two_jmax)
    if keys == _window(trunc.two_jmax, sector.parity).keys:
        coeffs = np.array(values, dtype=np.complex128)
    else:
        coeffs = np.zeros(trunc.size(sector), dtype=np.complex128)
        for key, value in zip(keys, values):
            coeffs[trunc.index_of(sector, key)] = value
    _require_finite(coeffs)
    return _adopt(sector, trunc, coeffs, _leakage(leakage), None)
