"""Functional (Bargmann-type) representation over the cylinder.

A state with coefficients a_j is represented by the function

    f(xi*) = sum_j a_j e^(-j^2/2) xi*^(-j),

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

    f(l_i, phi_k) = sum_j a_j E_l[i, j] e^(i*j*phi_k),
    E_l[i, j] = e^(j*l_i - j^2/2),

and on the uniform double-cover nodes e^(i*j*phi_k) =
e^(2*pi*i*(2j mod n_phi)*k/n_phi) is an exact DFT, so the angular sum is
one inverse FFT per l node.  The nodes, weights, E_l and the DFT bins
are built on first use and held read-only in bounded caches keyed by
the quadrature orders (and sector and window for the factors).

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
from .coherent import PhasePoint, norm_sq
from .theta import DEFAULT_CONTROL, SeriesControl, gaussian_lattice_sum

__all__ = [
    "BargmannFunction",
    "Quadrature",
    "BARGMANN_OPERATOR_KINDS",
    "to_bargmann",
    "from_bargmann",
    "basis_function",
    "evaluate",
    "apply_op_bargmann",
    "inner_quadrature",
    "reproducing_apply",
    "kernel_identity_check",
    "covariant_symbol",
]

BARGMANN_OPERATOR_KINDS = ("J", "U", "Udag", "X", "Xdag", "T")

_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class BargmannFunction:
    """Coefficients a_j of f(xi*) = sum a_j e^(-j^2/2) xi*^(-j)."""

    sector: Sector
    trunc: Truncation
    coeffs: np.ndarray
    leakage: float = 0.0

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1 or len(coeffs) != self.trunc.size(self.sector):
            raise DomainError(
                f"expected {self.trunc.size(self.sector)} coefficients, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("function coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def j_values(self) -> np.ndarray:
        return self.trunc.j_values(self.sector)


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
        if self.n_l < 2:
            raise DomainError("n_l must be at least 2")
        if self.n_phi < 4 or self.n_phi % 2 != 0:
            raise DomainError("n_phi must be an even integer >= 4")

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
        """sum_j a_j e^(-j^2/2) xi*^(-j) on the node grid, shape (n_l, n_phi)."""
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


def to_bargmann(s: StateVector) -> BargmannFunction:
    """Identify state coefficients c_j with function coefficients a_j."""
    return BargmannFunction(s.sector, s.trunc, s.coeffs, s.leakage)


def from_bargmann(f: BargmannFunction) -> StateVector:
    return StateVector(f.sector, f.trunc, f.coeffs, f.leakage)


def basis_function(sector: Sector, j: float, trunc: Truncation) -> BargmannFunction:
    """e_j(xi*) = e^(-j^2/2) xi*^(-j), the image of the basis vector |j>."""
    two_j = int(round(2.0 * j))
    idx = trunc.index_of(sector, two_j)
    coeffs = np.zeros(trunc.size(sector), dtype=np.complex128)
    coeffs[idx] = 1.0
    return BargmannFunction(sector, trunc, coeffs)


def _power_exponents(j: np.ndarray, p: PhasePoint) -> np.ndarray:
    """Exponents of e^(-j^2/2) xi*^(-j) through the canonical chart."""
    return j * complex(p.l, p.phi) - 0.5 * j * j


def evaluate(f: BargmannFunction, p: PhasePoint) -> complex:
    """f(xi*) at xi = e^(-l + i*phi); equals <xi|f> as a state overlap."""
    j = f.j_values()
    exponents = _power_exponents(j, p)
    occupied = np.abs(f.coeffs) > 0.0
    if np.any(occupied) and float(np.max(exponents.real[occupied])) > _EXP_LIMIT:
        raise RangeOverflowError(f"evaluation at l = {p.l} overflows the basis monomials")
    return complex(np.sum(f.coeffs * np.exp(exponents)))


def apply_op_bargmann(kind: str, f: BargmannFunction) -> BargmannFunction:
    """Operator action on the function side, as coefficient arithmetic.

    Functional forms (D_s is the dilation (D_s f)(xi*) = f(e^s xi*)):

        J     -xi* d/dxi* f          ->  a_j -> j a_j
        U     (D_1 f)/(sqrt(e) xi*)  ->  a_j -> a_{j-1}
        Udag  e^(-1/2) xi* (D_{-1} f) -> a_j -> a_{j+1}
        X     (D_2 f)/(e xi*)        ->  a_j -> e^(1/2-j) a_{j-1}
        Xdag  multiplication by xi*  ->  a_j -> e^(-1/2-j) a_{j+1}
        T     antiunitary reversal   ->  a_j -> conj(a_{-j})

    Shifted-off coefficients accumulate in leakage, as in hilbert.
    """
    if kind not in BARGMANN_OPERATOR_KINDS:
        raise DomainError(
            f"unknown operator kind {kind!r}; expected one of {BARGMANN_OPERATOR_KINDS}"
        )
    j = f.j_values()
    a = f.coeffs
    dropped = 0.0
    if kind == "J":
        out = a * j
    elif kind == "T":
        out = np.conj(a[::-1])
    elif kind in ("U", "X"):
        dropped = float(abs(a[-1]))
        out = np.zeros_like(a)
        out[1:] = a[:-1]
        if kind == "X":
            out = out * np.exp(0.5 - j)
    else:  # Udag, Xdag
        dropped = float(abs(a[0]))
        out = np.zeros_like(a)
        out[:-1] = a[1:]
        if kind == "Xdag":
            out = out * np.exp(-0.5 - j)
    return BargmannFunction(f.sector, f.trunc, out, f.leakage + dropped)


def _grid_values(f: BargmannFunction, quad: Quadrature) -> np.ndarray:
    """Function values on the (l, phi) node grid, shape (n_l, n_phi)."""
    return quad.grid_values(f.sector, f.trunc.two_jmax, f.coeffs)


def inner_quadrature(
    f: BargmannFunction, g: BargmannFunction, quad: Quadrature
) -> complex:
    """Quadrature realization of <f|g> (conjugate-linear in f)."""
    if f.sector is not g.sector:
        raise DomainError("inner product requires matching sectors")
    _, _, weights = quad.nodes()
    vf = _grid_values(f, quad)
    vg = _grid_values(g, quad)
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
    f: BargmannFunction,
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
    lv, phi, weights = quad.nodes()
    kernel = _kernel_on_grid(p, lv, phi, sector, conjugate_point=True, ctl=ctl)
    values = _grid_values(f, quad)
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
    a = np.asarray(op_matrix, dtype=np.complex128)
    trunc = _window_for_matrix(a, sector)
    j = trunc.j_values(sector)
    c = np.exp(j * complex(p.l, -p.phi) - 0.5 * j * j)
    kernel = complex(np.vdot(c, a @ c))
    return {"kernel": kernel, "symbol": kernel / norm_sq(p, sector, ctl)}
