"""The verify battery's independent reference routes.

Each check of the battery compares a library result with the same
quantity formed another way.  The other ways live here: a lattice sum
that pairs no terms, the theta inversion and half-period images, the
Bargmann kernel identity's two sides, a direct <J> series, and node
values on the quadrature grid with the kernel's action on them.  None
of them shares a code path with the route it certifies:

- _unpaired_lattice_sum sums every term of the lattice at once, where
  theta._lattice_sum adds each +-m pair first;
- _inversion_image and _theta2_half_period evaluate theta at another
  argument and modulus, and multiply by the law's prefactor;
- _kernel_identity compares overlap_closed with a Gram sum of kernel
  coefficients;
- _series_expect_J sums the series over a window, where expect_J uses
  the theta log-derivative;
- _node_values and _apply_kernel_grid scatter coefficients into DFT
  bins and transform them, where every library quadrature sum goes
  through the Gram matrix (bargmann._gram).

They are a module of their own so that the battery's module stays small
enough to compile cheaply: CPython 3.11's parser doubles its token
buffer once a module passes 8192 tokens, and the compile peak of every
process that imports the battery grows with it (tests/test_exports.py
holds each module below that step).  Private: nothing here is exported.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bargmann import Quadrature, _factors, _kernel_coeffs, _quadrature_sum
from .coherent import PhasePoint, overlap_closed
from .errors import RangeOverflowError
from .hilbert import Sector, Truncation
from .theta import ThetaArg, _pair_count, theta


def _unpaired_lattice_sum(curv: complex, lin, half: bool) -> np.ndarray:
    """sum of exp(curv*m^2 + lin*m) over m in [-M, M] on Z (or Z+1/2), by one exp.

    theta._lattice_sum adds each +-m pair before summing, which makes it
    bitwise even in lin and bitwise conjugate-symmetric whether or not
    its terms are right; this sum pairs nothing, takes lin as given (theta
    reduces v first) and shares no code with it.  M is the same a-priori
    pair count.
    """
    lin = np.asarray(lin, dtype=np.complex128)
    pairs = _pair_count(-curv.real, float(np.abs(lin.real).max()), half)
    m = np.arange(-pairs, pairs) + 0.5 if half else np.arange(-pairs, pairs + 1.0)
    return np.exp(curv * m * m + lin[..., None] * m).sum(axis=-1)


def _inversion_image(kind: int, v, tau) -> complex | np.ndarray:
    """theta_kind(v/tau | -1/tau), kind 2 or 3, as sqrt(tau/i) e^(i pi v^2/tau) theta_k(v | tau).

    k is 3 for kind 3 and 4 for kind 2 (DLMF 20.7(viii)), principal
    branch.  Domain: a prefactor inside the double range, which
    nothing guards; the battery takes |v| <= 2 at tau = i pi.
    """
    arg = ThetaArg(v, tau)
    prefactor = cmath.sqrt(arg.tau / 1j) * np.exp(1j * math.pi * arg.v * arg.v / arg.tau)
    return prefactor * theta(3 if kind == 3 else 4, arg)


def _theta2_half_period(v, tau) -> complex | np.ndarray:
    """theta_2(v | tau) as e^(i pi (tau/4 + v)) theta_3(v + tau/2 | tau), tau and v unreduced.

    Domain: |Re tau| <= 1 and small |Re v|, where the factor keeps its
    digits; the battery takes tau in {i pi, i/pi} and |Re v| <= 1.
    """
    return np.exp(1j * math.pi * (tau / 4 + v)) * theta(3, ThetaArg(v + tau / 2, tau))


def _kernel_identity(p1: PhasePoint, p2: PhasePoint, sector: Sector, quad: Quadrature):
    """(K(xi_1*, xi_2) by overlap_closed, the Gram sum of K(xi_1*, xi) K(xi*, xi_2) over xi).

    p1 and p2 are two points, or 1-d grids of the pairs' points with l and
    phi of one length; each side then holds one value per pair, the left
    from one overlap_closed call, the right from one Gram sum a pair.  The
    two agree to the Hermite rule's accuracy, and no error marks its loss.
    Domain: at 40 x 64 the relative gap is below 1e-10 for |l_1|, |l_2|
    <= 2, about 1.4e-8 at 3 and 6e-6 at 4 (at 100 x 128 below 2e-14 up to
    4); the battery draws |l| <= 1.
    """
    lhs = overlap_closed(p1, p2, sector)
    if p1.shape == ():
        pairs = [(p1, p2)]
    else:
        coords = zip(p1.l.tolist(), p1.phi.tolist(), p2.l.tolist(), p2.phi.tolist())
        pairs = [(PhasePoint(l1, phi1), PhasePoint(l2, phi2)) for l1, phi1, l2, phi2 in coords]
    rhs = []
    for q1, q2 in pairs:
        two_1, k1 = _kernel_coeffs(q1, sector, quad)
        two_2, k2 = _kernel_coeffs(q2, sector, quad)
        rhs.append(_quadrature_sum(quad, sector, two_1, k1, sector, two_2, k2))
    return lhs, (rhs[0] if p1.shape == () else np.array(rhs))


def _series_expect_J(ls: np.ndarray, sector: Sector) -> np.ndarray:
    """<J> at each l by the direct series over |2j| <= 60, one row of terms per l."""
    j = Truncation(60).j_values(sector)
    weights = np.exp(2.0 * ls[:, None] * j - j * j)
    return np.sum(j * weights, axis=-1) / np.sum(weights, axis=-1)


def _node_values(quad: Quadrature, sector: Sector, two_jmax: int, coeffs) -> np.ndarray:
    """sum_j c_j e^(-j^2/2) xi*^(-j) on the node grid, shape (n_l, n_phi).

    The values factor as f(l_i, phi_k) = sum_j c_j E_l[i, j] e^(i*j*phi_k),
    and on the uniform double-cover nodes e^(i*j*phi_k) =
    e^(2*pi*i*(2j mod n_phi)*k/n_phi) is an exact DFT: the terms
    c_j E_l[:, j] are scattered into their bins in slot order and the
    angular sum is one inverse FFT per l node.  The scatter is two
    np.bincount over the flat bin row * n_phi + bin, one per part: the
    sums of np.add.at, in its order, bit for bit.  RangeOverflowError
    where a node value leaves the double range.
    """
    e_l, bins = _factors(quad.n_l, quad.n_phi, sector, two_jmax)
    flat = (np.arange(0, quad.n_l * quad.n_phi, quad.n_phi)[:, None] + bins).ravel()
    spectrum = np.empty((quad.n_l, quad.n_phi), np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # typed below
        terms = (e_l * coeffs).ravel()
        spectrum.real = np.bincount(flat, terms.real, spectrum.size).reshape(spectrum.shape)
        spectrum.imag = np.bincount(flat, terms.imag, spectrum.size).reshape(spectrum.shape)
        values = quad.n_phi * np.fft.ifft(spectrum, axis=1)
    if not np.isfinite(values).all():
        raise RangeOverflowError("quadrature node values leave the floating-point range")
    return values


def _apply_kernel_grid(quad: Quadrature, sector: Sector, values: np.ndarray) -> np.ndarray:
    """Kernel action on node values through its lattice expansion.

    K(eta*, xi) = sum_n e^(-n^2) (eta* xi)^(-n) splits into monomials n
    over the lattice |n| <= n_cut, so the action projects the weighted
    values onto each monomial (a forward DFT in phi, then a sum over the
    l nodes) and evaluates the projections on the grid: exactly the
    same quadrature.
    """
    lv, _, weights = quad.nodes()
    two_cut = 2 * (int(math.ceil(float(np.max(np.abs(lv))))) + 12)
    e_l, bins = _factors(quad.n_l, quad.n_phi, sector, two_cut)
    projected = np.sum(e_l * np.fft.fft(weights * values, axis=1)[:, bins], axis=0)
    return _node_values(quad, sector, two_cut, projected)
