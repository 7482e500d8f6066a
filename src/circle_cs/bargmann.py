"""Functional (Bargmann-type) representation over the cylinder.

A StateVector with coefficients c_j is represented by the function

    f(xi*) = sum_j c_j e^(-j^2/2) xi*^(-j) = <xi|f>,

a finite Laurent-type sum with integer (boson) or half-integer
(fermion) exponents.  Powers xi*^(-j) = e^((l + i*phi)*j) are always
taken through the canonical (l, phi) chart, which makes the
half-integer case single-valued: the angular coordinate lives on the
double cover [0, 4*pi) as far as the quadrature is concerned.

The inner product is the Gaussian-weighted integral

    <f|g> = (1/(2 pi^(3/2))) Int dphi Int dl e^(-l^2) conj(f) g,

realized by Gauss-Hermite nodes in l and a uniform trapezoid rule in
phi.  The trapezoid nodes span the double cover: products of two
half-integer-exponent monomials carry half-integer angular harmonics,
which integrate to zero over 4*pi but not over 2*pi.  On the double
cover every harmonic e^(i*k*phi/2) with k != 0 cancels pairwise, so
sector orthogonality and the cross-sector projector identities hold to
quadrature precision.  Weights carry a factor 1/2 so integer-harmonic
integrands keep their single-cover value.

The radial factor of the monomial j at the Hermite node l_i is

    E_l[i, j] = e^(j*l_i - j^2/2),

and its angular factor e^(i*j*phi_k) on the uniform double-cover nodes
depends on j only through the bin 2j mod n_phi.  The nodes, weights,
E_l, the bins and G (below) are built on first use and held read-only in
bounded caches keyed by the quadrature orders (and sectors and windows
for the rest).

Operators act on f through the state: hilbert.apply_operator and
apply_time_reversal realize J, U, Udag, X, Xdag and T, whose functional
forms (D_s the dilation (D_s f)(xi*) = f(e^s xi*)) are

    J     -xi* d/dxi* f
    U     (D_1 f)/(sqrt(e) xi*)
    Udag  e^(-1/2) xi* (D_{-1} f)
    X     (D_2 f)/(e xi*)
    Xdag  multiplication by xi*
    T     f -> conj(f) at the time-reversed point (-l, phi)

The reproducing kernel K(eta*, xi) = sum_n e^(-n^2) (eta* xi)^(-n) over
the sector lattice is cut at the pair count P (theta._pair_count with
drift |l_eta| + the outermost node) that bounds every omitted term by the
series tolerance at every node.  The kept terms are the function of the
coherent state at eta, c_j = e^(j*(l - i*phi) - j^2/2) on |2j| <= 2P.

A quadrature sum of two such functions needs no node grid: over the
double cover the angular sum is n_phi where 2j = 2j' (mod n_phi) and 0
elsewhere, so sum W conj(f) g = c_f^H G c_g with the real Gram matrix
G[j, j'] = sum_i n_phi W[i, 0] E_l[i, j] E_l[i, j'] on those pairs, cached
per pair of windows and exactly 0 between sectors.  inner_quadrature and
reproducing_apply are each one such sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParityError, RangeOverflowError
from .hilbert import Sector, StateVector, Truncation
from .coherent import (
    PhasePoint,
    _coherent_coeffs,
    _complex,
    _half,
    _require_reach,
    _single,
    norm_sq,
)
from .theta import _as_complex, _exp, _integer, _pair_count

__all__ = [
    "Quadrature",
    "evaluate",
    "inner_quadrature",
    "reproducing_apply",
    "covariant_symbol",
]

# Largest quadrature orders: numpy's hermgauss gives NaN weights from 371
# nodes on, and the weights and the battery's node grids grow as n_l * n_phi.
MAX_N_L = 300
MAX_N_PHI = 1024


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Hermite x double-cover trapezoid node set.

    n_l Hermite nodes handle Int dl e^(-l^2) exactly up to polynomial
    degree 2*n_l - 1 (and to ~1e-15 for the Gaussian-times-exponential
    integrands that arise here once n_l >= 16).  n_phi uniform angles
    cover [0, 4*pi); angular products with |j - k| < n_phi/2 integrate
    exactly, aliased pairs beyond that are crushed by e^(-(j^2+k^2)/2).
    """

    n_l: int = 40
    n_phi: int = 64

    def __post_init__(self) -> None:
        message = "n_l must be an integer in [{low}, {high}], got {value!r}"
        object.__setattr__(self, "n_l", _integer(self.n_l, 2, MAX_N_L, message))
        message = "n_phi must be an even integer in [{low}, {high}], got {value!r}"
        object.__setattr__(self, "n_phi", _integer(self.n_phi, 4, MAX_N_PHI, message, 2))

    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(l nodes, phi nodes, combined weights W[i, k]), cached and read-only.

        sum_{i,k} W[i,k] h(l_i, phi_k) approximates the inner-product
        measure (1/(2 pi^(3/2))) Int_0^{2pi} dphi Int dl e^(-l^2) h.
        """
        return _rule(self.n_l, self.n_phi)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def _rule(n_l: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lv, lw = np.polynomial.hermite.hermgauss(n_l)
    phi = 4.0 * math.pi * np.arange(n_phi) / n_phi
    weights = np.outer(lw, np.full(n_phi, 1.0 / (n_phi * math.sqrt(math.pi))))
    return _read_only(lv, phi, weights)


@functools.lru_cache(maxsize=16)
def _factors(
    n_l: int, n_phi: int, sector: Sector, two_jmax: int
) -> tuple[np.ndarray, np.ndarray]:
    lv, _, _ = _rule(n_l, n_phi)
    two_j = Truncation(two_jmax).two_j_values(sector)
    j = two_j / 2.0
    e_l = np.exp(np.multiply.outer(lv, j) - 0.5 * j * j)
    return _read_only(e_l, two_j % n_phi)


# At most 16 Gram matrices of up to 601 x 601 doubles (two_jmax 600): 46 MB at
# worst; the default battery's 13 take 0.11 MB.
@functools.lru_cache(maxsize=16)
def _gram(
    n_l: int, n_phi: int, sector_a: Sector, two_a: int, sector_b: Sector, two_b: int
) -> np.ndarray:
    _, _, weights = _rule(n_l, n_phi)
    e_a, bins_a = _factors(n_l, n_phi, sector_a, two_a)
    e_b, bins_b = _factors(n_l, n_phi, sector_b, two_b)
    gram = (n_phi * weights[:, 0] * e_a.T) @ e_b
    gram[bins_a[:, None] != bins_b] = 0.0
    return _read_only(gram)[0]


def evaluate(f: StateVector, p: PhasePoint) -> complex | np.ndarray:
    """f(xi*) at xi = e^(-l + i*phi); equals <xi|f> as a state overlap.

    The monomials e^(-j^2/2) xi*^(-j) are taken through the canonical
    chart and built here, independently of coherent_state.  A grid point
    gives a complex array of its shape from one exp over the exponents of
    shape (*p.shape, n_j) and one sum along the window axis; every element
    has the bits of the scalar call at its point, which is the 0-d case and
    returns a Python complex.  Raises RangeOverflowError where a term
    c_j e^(-j^2/2) xi*^(-j) passes e^700 at some point (an unoccupied slot
    gives 0, whatever its monomial), or where |l| exceeds 1e300.
    """
    _require_reach(p.l)
    j = f.j_values()
    exponents = j * _complex(p.l, p.phi)[..., None] - 0.5 * j * j
    if p.shape == ():
        message = f"evaluation at l = {p.l} overflows the basis monomials"
    else:  # printing the array of l would cost more than the evaluation
        message = "evaluation on a grid overflows the basis monomials: a term is exp({peak:.3g})"
    return _as_complex(np.sum(_exp(exponents, message, f.coeffs), axis=-1))


def _quadrature_sum(quad: Quadrature, sector_a, two_a, a, sector_b, two_b, b) -> complex:
    """The quadrature of conj(grid of a) * grid of b as a^H G b; RangeOverflowError off range."""
    gram = _gram(quad.n_l, quad.n_phi, sector_a, two_a, sector_b, two_b)
    with np.errstate(over="ignore", invalid="ignore"):  # typed below
        total = np.vdot(a, gram @ b)
    if not np.isfinite(total):
        raise RangeOverflowError("quadrature sum leaves the floating-point range")
    return complex(total)


def inner_quadrature(f: StateVector, g: StateVector, quad: Quadrature) -> complex:
    """Quadrature realization of <f|g> (conjugate-linear in f)."""
    if f.sector is not g.sector:
        raise DomainError("inner product requires matching sectors")
    return _quadrature_sum(
        quad, f.sector, f.trunc.two_jmax, f.coeffs, g.sector, g.trunc.two_jmax, g.coeffs
    )


def _kernel_coeffs(p: PhasePoint, sector: Sector, quad: Quadrature) -> tuple[int, np.ndarray]:
    """(2P, c): K(xi*, gamma) = sum_j c_j e^(-j^2/2) xi*^(-j) on |2j| <= 2P, gamma = p.

    P bounds every omitted term by the series tolerance over the whole node
    span; c are the coherent coefficients at p on |2j| <= 2P.
    """
    lv, _, _ = quad.nodes()
    drift = abs(p.l) + float(lv[-1])
    trunc = Truncation(2 * _pair_count(1.0, drift, _half(sector)))
    return trunc.two_jmax, _coherent_coeffs(p, sector, trunc)


def reproducing_apply(f: StateVector, p: PhasePoint, sector: Sector, quad: Quadrature) -> complex:
    """Integral of K_sector(eta*, xi) f(xi*) over the measure, eta = p.

    Reproduces f(eta*) when f lies in the kernel's sector and yields
    exactly 0 when f lies in the opposite sector: the kernel acts as the
    projector onto its own sector.

    Accuracy domain: no node values are formed, so the error is the Hermite
    rule's on f's slots (G[j, j] - 1 at 40 nodes: 4e-15 at |j| = 4, 3e-9 at
    5, 3e-5 at 6) plus rounding.  For j = 1 at 40 x 64 it is below 5e-16 at
    l = 6, 8, 10 and 15.  RangeOverflowError past |l| ~ 37.42.
    """
    _single(p)
    two_k, kernel = _kernel_coeffs(p, sector, quad)
    return _quadrature_sum(quad, sector, two_k, kernel, f.sector, f.trunc.two_jmax, f.coeffs)


def _window_for_matrix(shape: tuple[int, ...], sector: Sector) -> Truncation:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DomainError(f"operator matrix must be square, got shape {shape}")
    n = shape[0]
    parity = sector.parity
    if (n + parity) % 2 == 0:  # a window of 2j_max + 1 - parity slots
        raise ParityError(f"{sector.value} windows have {('odd', 'even')[parity]} size, got {n}")
    return Truncation(n - 1 + parity)


def covariant_symbol(op_matrix: np.ndarray, p: PhasePoint, sector: Sector) -> dict[str, complex]:
    """kernel = sum_{jk} A_jk xi*^(-j) xi^(-k) e^(-(j^2+k^2)/2); symbol = kernel/<xi|xi>.

    The symbol is the normalized diagonal matrix element of A between
    coherent states; for A the matrix of X it equals the eigenvalue xi.
    DomainError for a matrix with a NaN or infinite entry.
    """
    _single(p)
    trunc = _window_for_matrix(np.shape(op_matrix), sector)  # before the complex copy
    norm = norm_sq(p, sector)  # raises past |l| ~ 26.45, so j*l below stays finite
    a = np.asarray(op_matrix, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise DomainError("operator matrix entries must be finite")
    c = _coherent_coeffs(p, sector, trunc)
    kernel = complex(np.vdot(c, a @ c))
    return {"kernel": kernel, "symbol": kernel / norm}
