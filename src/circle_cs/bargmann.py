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

Function values on the node grid factor as

    f(l_i, phi_k) = sum_j c_j E_l[i, j] e^(i*j*phi_k),
    E_l[i, j] = e^(j*l_i - j^2/2),

and on the uniform double-cover nodes e^(i*j*phi_k) =
e^(2*pi*i*(2j mod n_phi)*k/n_phi) is an exact DFT, so the angular sum is
one inverse FFT per l node.  The nodes, weights, E_l and the DFT bins
are built on first use and held read-only in bounded caches keyed by
the quadrature orders (and sector and window for the factors).

Operators act on f through the state: hilbert.apply_operator and
apply_time_reversal realize J, U, Udag, X, Xdag and T, whose functional
forms (D_s the dilation (D_s f)(xi*) = f(e^s xi*)) are

    J     -xi* d/dxi* f
    U     (D_1 f)/(sqrt(e) xi*)
    Udag  e^(-1/2) xi* (D_{-1} f)
    X     (D_2 f)/(e xi*)
    Xdag  multiplication by xi*
    T     f -> conj(f) at the time-reversed point (-l, phi)

Reproducing kernels are evaluated in closed form as Gaussian lattice
sums K(eta*, xi) = sum_n e^(-n^2) (eta* xi)^(-n) over the sector
lattice, never as truncated sums of basis products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParityError, RangeOverflowError
from .hilbert import Sector, StateVector, Truncation
from .coherent import PhasePoint, _coherent_coeffs, _single, norm_sq
from .theta import _EXP_LIMIT, DEFAULT_CONTROL, SeriesControl, gaussian_lattice_sum

__all__ = [
    "Quadrature",
    "evaluate",
    "inner_quadrature",
    "reproducing_apply",
    "kernel_identity_check",
    "covariant_symbol",
]

# Largest quadrature orders: numpy's hermgauss gives NaN weights from 371
# nodes on, and node grids and their kernel sums grow as n_l * n_phi.
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
        if not 2 <= self.n_l <= MAX_N_L:
            raise DomainError(f"n_l must lie in [2, {MAX_N_L}], got {self.n_l}")
        if not 4 <= self.n_phi <= MAX_N_PHI or self.n_phi % 2 != 0:
            raise DomainError(f"n_phi must be even and in [4, {MAX_N_PHI}], got {self.n_phi}")

    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(l nodes, phi nodes, combined weights W[i, k]), cached and read-only.

        sum_{i,k} W[i,k] h(l_i, phi_k) approximates the inner-product
        measure (1/(2 pi^(3/2))) Int_0^{2pi} dphi Int dl e^(-l^2) h.
        """
        return _rule(self.n_l, self.n_phi)

    def factors(self, sector: Sector, two_jmax: int) -> tuple[np.ndarray, np.ndarray]:
        """(E_l, bins) for the window |2j| <= two_jmax, cached and read-only.

        E_l[i, j] = e^(j*l_i - j^2/2) is the radial factor of the monomial
        j; its angular factor e^(i*j*phi_k) is DFT bin (2j mod n_phi).
        """
        return _factors(self.n_l, self.n_phi, sector, two_jmax)

    def grid_values(self, sector: Sector, two_jmax: int, coeffs: np.ndarray) -> np.ndarray:
        """sum_j c_j e^(-j^2/2) xi*^(-j) on the node grid, shape (n_l, n_phi)."""
        e_l, bins = self.factors(sector, two_jmax)
        coeffs = np.asarray(coeffs)
        if coeffs.shape != e_l.shape[1:]:
            raise DomainError(f"expected {e_l.shape[1]} coefficients, got shape {coeffs.shape}")
        spectrum = np.zeros((self.n_l, self.n_phi), dtype=np.complex128)
        np.add.at(spectrum, (slice(None), bins), e_l * coeffs)
        return self.n_phi * np.fft.ifft(spectrum, axis=1)


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


def evaluate(f: StateVector, p: PhasePoint) -> complex:
    """f(xi*) at xi = e^(-l + i*phi); equals <xi|f> as a state overlap.

    The monomials e^(-j^2/2) xi*^(-j) are taken through the canonical
    chart and built here, independently of coherent_state.
    """
    _single(p)
    j = f.j_values()
    exponents = j * complex(p.l, p.phi) - 0.5 * j * j
    occupied = np.abs(f.coeffs) > 0.0
    if np.any(occupied) and float(np.max(exponents.real[occupied])) > _EXP_LIMIT:
        raise RangeOverflowError(f"evaluation at l = {p.l} overflows the basis monomials")
    return complex(np.sum(f.coeffs * np.exp(exponents)))


def inner_quadrature(f: StateVector, g: StateVector, quad: Quadrature) -> complex:
    """Quadrature realization of <f|g> (conjugate-linear in f)."""
    if f.sector is not g.sector:
        raise DomainError("inner product requires matching sectors")
    _, _, weights = quad.nodes()
    vf = quad.grid_values(f.sector, f.trunc.two_jmax, f.coeffs)
    vg = quad.grid_values(g.sector, g.trunc.two_jmax, g.coeffs)
    return complex(np.sum(weights * np.conj(vf) * vg))


def _kernel_on_grid(
    p: PhasePoint,
    lv: np.ndarray,
    phi: np.ndarray,
    sector: Sector,
    conjugate_point: bool,
    ctl: SeriesControl,
) -> np.ndarray:
    """K(eta*, xi_grid) (conjugate_point=True) or K(xi_grid*, gamma).

    Both reduce to S(w) with w = log of the conjugated product; the
    lattice sum is even in w, so only the argument assembly differs.
    """
    if conjugate_point:
        w = complex(-p.l, -p.phi) + (-lv[:, None] + 1j * phi[None, :])
    else:
        w = (-lv[:, None] - 1j * phi[None, :]) + complex(-p.l, p.phi)
    return gaussian_lattice_sum(w, half=(sector is Sector.FERMION), ctl=ctl)


def reproducing_apply(
    f: StateVector,
    p: PhasePoint,
    sector: Sector,
    quad: Quadrature,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> complex:
    """Integral of K_sector(eta*, xi) f(xi*) over the measure, eta = p.

    Reproduces f(eta*) when f lies in the kernel's sector and yields 0
    (to quadrature accuracy) when f lies in the opposite sector: the
    kernel acts as the projector onto its own sector.
    """
    _single(p)
    lv, phi, weights = quad.nodes()
    kernel = _kernel_on_grid(p, lv, phi, sector, conjugate_point=True, ctl=ctl)
    values = quad.grid_values(f.sector, f.trunc.two_jmax, f.coeffs)
    return complex(np.sum(weights * kernel * values))


def kernel_identity_check(
    p1: PhasePoint,
    p2: PhasePoint,
    sector: Sector,
    quad: Quadrature,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> dict[str, complex]:
    """Self-consistency of the kernel under its own integral action.

    lhs = K(xi_1*, xi_2) in closed form; rhs = the quadrature of
    K(xi_1*, xi) K(xi*, xi_2) over xi.  The two agree to quadrature
    accuracy because the kernel reproduces itself.
    """
    _single(p1, p2)
    w = complex(-(p1.l + p2.l), p2.phi - p1.phi)
    lhs = complex(gaussian_lattice_sum(w, half=(sector is Sector.FERMION), ctl=ctl))
    lv, phi, weights = quad.nodes()
    k1 = _kernel_on_grid(p1, lv, phi, sector, conjugate_point=True, ctl=ctl)
    k2 = _kernel_on_grid(p2, lv, phi, sector, conjugate_point=False, ctl=ctl)
    rhs = complex(np.sum(weights * k1 * k2))
    return {"lhs": lhs, "rhs": rhs}


def _window_for_matrix(a: np.ndarray, sector: Sector) -> Truncation:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"operator matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if sector is Sector.BOSON and n % 2 == 0:
        raise ParityError(f"boson windows have odd size, got {n}")
    if sector is Sector.FERMION and n % 2 == 1:
        raise ParityError(f"fermion windows have even size, got {n}")
    return Truncation(max(2, n - 1))


def covariant_symbol(
    op_matrix: np.ndarray, p: PhasePoint, sector: Sector, ctl: SeriesControl = DEFAULT_CONTROL
) -> dict[str, complex]:
    """kernel = sum_{jk} A_jk xi*^(-j) xi^(-k) e^(-(j^2+k^2)/2); symbol = kernel/<xi|xi>.

    The symbol is the normalized diagonal matrix element of A between
    coherent states; for A the matrix of X it equals the eigenvalue xi.
    """
    _single(p)
    a = np.asarray(op_matrix, dtype=np.complex128)
    trunc = _window_for_matrix(a, sector)
    j = trunc.j_values(sector)
    c = _coherent_coeffs(j, p)
    kernel = complex(np.vdot(c, a @ c))
    return {"kernel": kernel, "symbol": kernel / norm_sq(p, sector, ctl)}
