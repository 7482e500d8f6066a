"""Theta functions and the observables built on them against 50-digit mpmath.

The ratio observables are checked against sums of S(w) = sum_m
exp(w*m - m^2) taken term by term with mpmath at 50 digits over the
window |m - Re(w)/2| <= 12 (the omitted terms are below e^(-144) of the
largest), at the exact double inputs.  The theta functions, their log
derivative and overlap_closed are checked against mpmath's own
mp.jtheta; far out (|Re v| to 2^52, |Im v| to 50 Im tau) the theta
functions and their log derivative are checked against 50-digit sums
over the window |m - m0| <= 30 around the peak index m0 instead, since
jtheta returns 1.0 for theta_3(500i | 1000i), whose value is 2.  <J> is
checked against its defining lattice average, and reproducing kernel
node values against mp.nsum over the whole lattice.  The sum S(w)
itself and the energy distribution are checked against the same
50-digit window sums.  No reference calls circle_cs.theta.  Each test
asserts the accuracy the docstring of the function under test, or the
README, claims."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from circle_cs import cli
from circle_cs._reference import _node_values
from circle_cs.bargmann import Quadrature, _kernel_coeffs
from circle_cs.errors import RangeOverflowError, SingularityError
from circle_cs.coherent import (
    PhasePoint,
    energy_distribution,
    expect_expJ,
    expect_J,
    expect_U,
    heisenberg_expectations,
    overlap_closed,
)
from circle_cs.hilbert import Sector
from circle_cs.theta import (
    _SERIES_TOL,
    ThetaArg,
    gaussian_lattice_sum,
    theta,
    theta_log_derivative,
)

mp.mp.dps = 50

SECTORS = (Sector.BOSON, Sector.FERMION)
# |l| up to 10^3, with the old 26.45 limit, half-integers and generic values
L_GRID = np.concatenate([
    np.linspace(-1000.0, 1000.0, 21),
    np.linspace(-3.0, 3.0, 13),
    [-999.5, -123.456, -26.5, 26.7, 0.25, 999.75],
])
_WINDOW = 12


def lattice_sum(w, half: bool) -> mp.mpc:
    """S(w) over Z (or Z + 1/2), summed directly at 50 digits."""
    w = mp.mpmathify(w)
    centre = int(mp.nint(mp.re(w) / 2))
    offset = mp.mpf(0.5) if half else mp.mpf(0)
    return mp.fsum(
        mp.exp(w * (m + offset) - (m + offset) ** 2)
        for m in range(centre - _WINDOW, centre + _WINDOW + 1)
    )


def u_modulus(l: float, sector: Sector) -> mp.mpf:
    """|<U>| = e^(-1/4) S_opp(2l) / S(2l)."""
    half = sector is Sector.FERMION
    w = 2 * mp.mpf(l)
    return mp.exp(mp.mpf(-0.25)) * mp.re(lattice_sum(w, not half) / lattice_sum(w, half))


def ulps(value: float, reference) -> float:
    """|value - reference| in units in the last place of the reference."""
    return float(abs(mp.mpf(value) - reference) / mp.mpf(np.spacing(float(reference))))


@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_expect_U_modulus_within_4_ulp(sector):
    values = expect_U(PhasePoint(L_GRID, 0.0), sector)
    assert max(ulps(abs(v), u_modulus(l, sector)) for v, l in zip(values, L_GRID)) <= 4.0


@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_expect_expJ_within_its_conditioning(sector):
    half = sector is Sector.FERMION
    s = np.array([-2.0, -0.3, 0.01, 1.0 / 3.0, 0.5])[:, None]
    # keep the points whose value lies well inside the double range
    l = L_GRID[None, :]
    exponent = s * l + 0.25 * s * s
    s_ok, l_ok = np.broadcast_arrays(s, l)
    inside = np.abs(exponent) < 690.0
    s_ok, l_ok = s_ok[inside], l_ok[inside]
    assert s_ok.size > 100
    exact, _ = expect_expJ(s_ok, PhasePoint(l_ok, 0.0), sector)
    for value, sv, lv in zip(exact, s_ok, l_ok):
        w = 2 * mp.mpf(lv)
        reference = mp.re(lattice_sum(w + mp.mpf(sv), half) / lattice_sum(w, half))
        bound = 1e-15 * (1.0 + abs(sv * lv) + 0.25 * sv * sv)
        assert float(abs(mp.mpf(value) - reference) / reference) <= bound


@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_heisenberg_expectations_within_their_conditioning(sector):
    half = sector is Sector.FERMION
    phi = 1.1
    l = L_GRID[L_GRID >= -700.0][:, None]  # |xi| = e^(-l) overflows below
    t = np.array([-2.0, -0.7, 0.0, 0.3, math.pi, 5.0])[None, :]
    values = heisenberg_expectations(PhasePoint(l, phi), t, sector)
    for (i, j), u_t in np.ndenumerate(values["U_t"]):
        lv, tv = float(l[i, 0]), float(t[0, j])
        big_l, big_t = mp.mpf(lv), mp.mpf(tv)
        w = 2 * big_l + 1j * big_t
        den = lattice_sum(2 * big_l, half)
        phase = mp.exp(1j * mp.mpf(phi))
        ref_u = mp.exp(mp.mpf(-0.25)) * phase * lattice_sum(w, not half) / den
        ref_x = mp.exp(-big_l) * phase * mp.exp(-0.5j * big_t) * lattice_sum(w, half) / den
        # relative to the bounds 1 of <U(t)> and |xi| = e^(-l) of <X(t)>
        bound = 1e-15 * (1.0 + abs(lv * tv))
        assert float(abs(mp.mpc(u_t) - ref_u)) <= bound
        if lv <= 700.0:  # e^(-l) underflows above
            x_t = values["X_t"][i, j]
            assert float(abs(mp.mpc(x_t) - ref_x) / mp.exp(-big_l)) <= bound


def scan_u_rows(sector: str, l_min: str, l_max: str, capsys) -> list[list[float]]:
    """Rows (l, exact, approx, deviation) of an in-process 17-digit U scan."""
    argv = ["scan", "--obs", "U", "--l-min", l_min, "--l-max", l_max, "--n", "101",
            "--sector", sector, "--digits", "17", "--out", "-"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "l,exact,approx,deviation" and len(lines) == 102
    return [[float(field) for field in line.split(",")] for line in lines[1:]]


def assert_scan_rows_match_reference(rows, sector: Sector) -> None:
    """exact within 4 ulp of the reference, approx e^(-1/4), deviation their difference."""
    flat = math.exp(-0.25)
    for l, exact, approx, deviation in rows:
        reference = u_modulus(l, sector)
        assert ulps(exact, reference) <= 4.0, (l, exact)
        assert approx == flat
        assert deviation == abs(exact - flat)


def test_wide_fermion_u_golden_rows_match_mpmath(capsys):
    rows = scan_u_rows("fermion", "-20", "20", capsys)
    assert_scan_rows_match_reference(rows, Sector.FERMION)


@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_scan_past_the_old_range_matches_mpmath(sector, capsys):
    # the raw sums S(2l) overflowed past |l| = 26.45; the ratio never did
    for bound in ("27", "1000"):
        rows = scan_u_rows(sector.name.lower(), f"-{bound}", bound, capsys)
        assert_scan_rows_match_reference(rows, sector)


# ---------------------------------------------------------------------------
# theta functions, their log derivative, <J> and overlap_closed (mp.jtheta)

EPS = float(np.finfo(float).eps)
TOL = _SERIES_TOL
TAUS = [1j / math.pi, 1j * math.pi, 0.3 + 0.8j]
# real and complex arguments, a few periods out and off the real line
V_GRID = np.array([
    0.0, 0.1, 0.25, -0.37, 0.5, 1.3, -2.2, 7.9,
    0.2 + 0.1j, -0.3 - 0.25j, 0.45 + 0.6j, 3.7 - 0.4j, -1.1 + 0.9j,
])


def nome(tau: complex) -> mp.mpc:
    return mp.exp(1j * mp.pi * mp.mpc(tau))


def theta_terms(kind: int, v: complex, tau: complex) -> list[tuple[mp.mpf, mp.mpc, mp.mpf]]:
    """(m, t_m, |E_m|) for the terms t_m = +-exp(E_m), E_m = curv m^2 + lin m, of theta_kind.

    |E_m| is taken as |curv| m^2 + |lin| |m|.
    """
    curv, lin = 1j * mp.pi * mp.mpc(tau), 2j * mp.pi * mp.mpc(v)
    offset = mp.mpf(0.5) if kind == 2 else 0
    out = []
    for n in range(-40, 41):  # every point here has its terms below e^(-1000) by |m| = 40
        m = n + offset
        sign = -1 if kind == 4 and n % 2 else 1
        size = abs(curv) * m * m + abs(lin) * abs(m)
        out.append((m, sign * mp.exp(curv * m * m + lin * m), size))
    return out


def lattice_sum_bound(kind: int, v: complex, tau: complex) -> float:
    """3 tol + 32 eps sum_m |t_m| (1 + |E_m|), the claim of the README accuracy table."""
    weighted = mp.fsum(abs(t) * (1 + size) for _, t, size in theta_terms(kind, v, tau))
    return 3.0 * TOL + 32.0 * EPS * float(weighted)


def moment_ratio_bound(kind: int, v: complex, tau: complex) -> float:
    """(2 pi B_1 + |R| B_0) / (|Theta| - B_0) + 8 eps |R|, the theta_log_derivative claim."""
    terms = theta_terms(kind, v, tau)
    value = mp.fsum(t for _, t, _ in terms)
    ratio = abs(2 * mp.pi * mp.fsum(m * t for m, t, _ in terms) / value)
    x, d = 2.0 * math.pi * abs(complex(v).imag), math.pi * complex(tau).imag
    m_star = (x + math.sqrt(x * x + 4.0 * d * math.log(1.0 / TOL))) / (2.0 * d)
    b_0 = lattice_sum_bound(kind, v, tau)
    b_1 = 3.0 * (m_star + 2.0) * TOL + 32.0 * EPS * float(
        mp.fsum(abs(m * t) * (1 + size) for m, t, size in terms)
    )
    return float((2 * mp.pi * b_1 + ratio * b_0) / (abs(value) - b_0) + 8 * EPS * ratio)


def jtheta_log_derivative(kind: int, v: complex, tau: complex) -> mp.mpc:
    """(d/dv) log theta_kind(v | tau) = pi jtheta'(pi v) / jtheta(pi v)."""
    z, q = mp.pi * mp.mpc(v), nome(tau)
    return mp.pi * mp.jtheta(kind, z, q, 1) / mp.jtheta(kind, z, q)


def log_derivative_bound(kind: int, v: complex, tau: complex) -> float:
    """tol + 32 eps (1 + 2 pi |v|) pi sum_n |term_n| over the product series.

    The claim of the product-series route (DLMF 20.5) that the moment
    ratio replaced, kept as a non-regression bound.
    """
    q, x = nome(tau), mp.exp(2j * mp.pi * mp.mpc(v))
    total, n = mp.mpf(0), 0
    while True:
        n += 1
        y = q ** (2 * n - 1)
        tp, tm = y * x, y / x
        if abs(tp) + abs(tm) < mp.mpf(10) ** -40:  # the rest is far below the doubles
            break
        if kind == 3:
            total += abs(2j * (tp / (1 + tp) - tm / (1 + tm)))
        else:
            total += abs(2j * (tm / (1 - tm) - tp / (1 - tp)))
    return TOL + 32.0 * EPS * (1.0 + 2.0 * math.pi * abs(v)) * float(mp.pi * total)


@pytest.mark.parametrize("tau", TAUS, ids=["i/pi", "i*pi", "0.3+0.8i"])
@pytest.mark.parametrize("kind", [2, 3, 4])
def test_theta_matches_jtheta(kind, tau):
    # theta_kind(v | tau) = jtheta(kind, pi v, e^(i pi tau)), q^(1/4) on the principal branch
    values = theta(kind, ThetaArg(V_GRID, tau))
    for v, value in zip(V_GRID, values):
        reference = mp.jtheta(kind, mp.pi * mp.mpc(v), nome(tau))
        assert float(abs(mp.mpc(value) - reference)) <= lattice_sum_bound(kind, v, tau), v


@pytest.mark.parametrize("tau", TAUS, ids=["i/pi", "i*pi", "0.3+0.8i"])
@pytest.mark.parametrize("kind", [3, 4])
def test_theta_log_derivative_matches_jtheta(kind, tau):
    values = theta_log_derivative(kind, ThetaArg(V_GRID, tau))
    for v, value in zip(V_GRID, values):
        z, q = mp.pi * mp.mpc(v), nome(tau)
        reference = mp.pi * mp.jtheta(kind, z, q, 1) / mp.jtheta(kind, z, q)
        assert float(abs(mp.mpc(value) - reference)) <= log_derivative_bound(kind, v, tau), v


@pytest.mark.parametrize("tau", TAUS, ids=["i/pi", "i*pi", "0.3+0.8i"])
@pytest.mark.parametrize("kind", [3, 4])
def test_theta_log_derivative_within_the_moment_ratio_bound(kind, tau):
    values = theta_log_derivative(kind, ThetaArg(V_GRID, tau))
    for v, value in zip(V_GRID, values):
        error = abs(mp.mpc(value) - jtheta_log_derivative(kind, v, tau))
        assert float(error) <= moment_ratio_bound(kind, v, tau), v


@pytest.mark.parametrize("tau", TAUS, ids=["i/pi", "i*pi", "0.3+0.8i"])
def test_theta_log_derivative_near_a_zero_within_the_moment_ratio_bound(tau):
    # theta_3 vanishes at 1/2 + tau/2, where 1/|Theta| conditions the ratio
    offsets = np.array([10.0 ** -k for k in range(1, 10)])
    v = 0.5 + 0.5 * tau + np.concatenate([offsets, -offsets])
    values = theta_log_derivative(3, ThetaArg(v, tau))
    for vk, value in zip(v, values):
        error = abs(mp.mpc(value) - jtheta_log_derivative(3, vk, tau))
        assert float(error) <= moment_ratio_bound(3, vk, tau), vk


def test_log_derivative_where_exp_2_pi_i_v_passes_the_range():
    # exp(2 i pi v) = e^(240 pi) is past the double range, theta_3 about 1
    v, tau = -120j, 1000j
    value = theta_log_derivative(3, ThetaArg(v, tau))
    assert type(value) is complex and cmath.isfinite(value)
    error = abs(mp.mpc(value) - jtheta_log_derivative(3, v, tau))
    assert float(error) <= moment_ratio_bound(3, v, tau)


# Far arguments: |Re v| up to 2^50 and integers near 2^52, |Im v| up to
# 50 Im tau, at which theta itself passes e^700 and raises
FAR_RE = [-0.37, 2.0**50 + 0.25, -(2.0**40) - 0.3, 2.0**52 + 1.0, -(2.0**52)]
FAR_IM = [0.0, 0.37, -2.6, 7.9, 50.0]  # in units of Im tau


def far_arguments(tau: complex) -> list[complex]:
    return [complex(x, y * tau.imag) for x in FAR_RE for y in FAR_IM]


def direct_theta_terms(kind: int, v: complex, tau: complex) -> list[tuple[mp.mpf, mp.mpc]]:
    """(m, t_m) of theta_kind(v | tau) at 50 digits over |m - m0| <= 30, m0 the peak index.

    The omitted terms are below e^(-900) of the largest at Im tau >= 1/pi.
    """
    curv, lin = 1j * mp.pi * mp.mpc(tau), 2j * mp.pi * mp.mpc(v)
    offset = mp.mpf(0.5) if kind == 2 else 0
    centre = int(round(-complex(v).imag / complex(tau).imag))
    out = []
    for n in range(centre - 30, centre + 31):
        m = n + offset
        sign = -1 if kind == 4 and n % 2 else 1
        out.append((m, sign * mp.exp(curv * m * m + lin * m)))
    return out


def reduce(v: complex, tau: complex) -> tuple[int, complex]:
    """(k, r) with v = r + k tau + 2j, in doubles as theta forms them."""
    r = v - 2.0 * round(v.real / 2.0)
    k = round(r.imag / tau.imag)
    r = r - k * tau
    return k, r - 2.0 * round(r.real / 2.0)


def reduced_theta_bound(kind: int, v: complex, tau: complex) -> float:
    """|F| (B_0(r) + 8 eps (1 + |E|) |theta(r)|), F = +-e^E the quasi-period factor.

    The claim of theta, with B_0 the lattice-sum bound at r.
    """
    k, r = reduce(v, tau)
    exponent = -k * (k * 1j * mp.pi * mp.mpc(tau) + 2j * mp.pi * mp.mpc(r))
    reduced = abs(mp.fsum(t for _, t, _ in theta_terms(kind, r, tau)))
    b_0 = lattice_sum_bound(kind, r, tau)
    return float(abs(mp.exp(exponent)) * (b_0 + 8.0 * EPS * (1 + abs(exponent)) * reduced))


# at tau = 1000i, theta_3(500i) = 2 from two unit terms and theta_2 passes e^700
FAR_CASES = [(tau, far_arguments(tau)) for tau in TAUS] + [(1000j, [499j, 500j, 0.3 + 450j])]
FAR_IDS = ["i/pi", "i*pi", "0.3+0.8i", "1000i"]


@pytest.mark.parametrize("tau, vs", FAR_CASES, ids=FAR_IDS)
@pytest.mark.parametrize("kind", [2, 3, 4])
def test_theta_far_out_within_the_reduced_bound(kind, tau, vs):
    finite = []
    for v in vs:
        reference = mp.fsum(t for _, t in direct_theta_terms(kind, v, tau))
        if mp.log(abs(reference)) > 700:
            with pytest.raises(RangeOverflowError):
                theta(kind, ThetaArg(v, tau))
            continue
        finite.append((v, reference, reduced_theta_bound(kind, v, tau)))
    values = theta(kind, ThetaArg(np.array([v for v, _, _ in finite]), tau))
    for (v, reference, bound), value in zip(finite, values):
        for result in (value, theta(kind, ThetaArg(v, tau))):
            assert float(abs(mp.mpc(result) - reference)) <= bound, v


@pytest.mark.parametrize("tau, vs", FAR_CASES, ids=FAR_IDS)
@pytest.mark.parametrize("kind", [3, 4])
def test_theta_log_derivative_far_out_within_the_reduced_bound(kind, tau, vs):
    # theta_4 vanishes at tau/2: that point raises, the others take its term pairs
    if kind == 4 and 500j in vs:
        with pytest.raises(SingularityError):
            theta_log_derivative(kind, ThetaArg(500j, tau))
        vs = [v for v in vs if v != 500j]
    values = theta_log_derivative(kind, ThetaArg(np.array(vs), tau))
    for v, value in zip(vs, values):
        terms = direct_theta_terms(kind, v, tau)
        reference = 2j * mp.pi * mp.fsum(m * t for m, t in terms) / mp.fsum(t for _, t in terms)
        k, r = reduce(v, tau)
        bound = moment_ratio_bound(kind, r, tau) + 8.0 * EPS * 2.0 * math.pi * abs(k)
        for result in (value, theta_log_derivative(kind, ThetaArg(v, tau))):
            assert float(abs(mp.mpc(result) - reference)) <= bound, v



def exact_reduce(v: complex, tau: complex) -> tuple[int, mp.mpc]:
    """(k, r) with v = r + k tau + 2j exactly and |Im r| <= Im tau / 2.

    k is a Python int and r is rounded to 50 digits only at the end.
    """
    im_v, im_tau = Fraction(v.imag), Fraction(tau.imag)
    k = math.floor(im_v / im_tau + Fraction(1, 2))
    re_r = Fraction(v.real) - k * Fraction(tau.real)
    re_r -= 2 * math.floor(re_r / 2 + Fraction(1, 2))
    im_r = im_v - k * im_tau
    re_r, im_r = (mp.mpf(x.numerator) / x.denominator for x in (re_r, im_r))
    return k, mp.mpc(re_r, im_r)


@pytest.mark.parametrize("tau", [1j * math.pi, 1j, 0.3 + 0.8j], ids=["i*pi", "i", "0.3+0.8i"])
@pytest.mark.parametrize("kind", [3, 4])
def test_log_derivative_far_off_the_real_line_keeps_the_quasi_period_law(kind, tau):
    # |Im v| / Im tau past 2^53, where k Im tau rounded once left |Im r| far above
    # Im tau / 2: L(v) = L(r) - 2 pi i k with k and r exact, within the reduced bound
    vs = [complex(0.2, y) for y in (1e10, 1e16, 1e17, 1e18, 1e20, 1e50, 1e100, 1e300)]
    values = theta_log_derivative(kind, ThetaArg(np.array(vs), tau))
    for v, value in zip(vs, values):
        k, r = exact_reduce(v, tau)
        reference = jtheta_log_derivative(kind, r, tau) - 2j * mp.pi * k
        bound = moment_ratio_bound(kind, complex(r), tau) + 8.0 * EPS * 2.0 * math.pi * abs(k)
        for result in (value, theta_log_derivative(kind, ThetaArg(v, tau))):
            assert cmath.isfinite(result)
            assert float(abs(mp.mpc(result) - reference)) <= bound, v


J_GRID = np.concatenate([np.linspace(-20.0, 20.0, 81), [1e-3, 0.25, -0.37, 3.3, -7.77]])


@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_expect_J_matches_the_lattice_average(sector):
    """<J> = sum_j j e^(2lj - j^2) / sum_j e^(2lj - j^2), within half the log-derivative claim."""
    offset = mp.mpf(0.5) if sector is Sector.FERMION else 0
    kind = 3 if sector is Sector.BOSON else 4
    values = expect_J(PhasePoint(J_GRID, 0.0), sector)
    for l, value in zip(J_GRID, values):
        big_l, centre = mp.mpf(l), int(round(l))
        j = [n + offset for n in range(centre - 15, centre + 16)]
        weights = [mp.exp(2 * big_l * jv - jv * jv) for jv in j]
        reference = mp.fsum(jv * wv for jv, wv in zip(j, weights)) / mp.fsum(weights)
        # the derivative enters halved; adding it to l rounds once more
        bound = 0.5 * log_derivative_bound(kind, l, 1j * math.pi) + EPS * float(abs(reference))
        assert float(abs(value - reference)) <= bound, l


@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_expect_J_is_exactly_l_on_the_lattice(sector):
    # the docstring's exactness claim: 2l an even (boson) or odd (fermion) integer
    l = np.arange(-20.0, 21.0) + (0.5 if sector is Sector.FERMION else 0.0)
    assert np.array_equal(expect_J(PhasePoint(l, 0.0), sector), l)


@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_overlap_closed_matches_jtheta(sector):
    # <xi_1|xi_2> = S(w) = theta_{3|2}(w / (2 pi i) | i/pi) = jtheta(3|2, -i w/2, e^(-1))
    kind = 3 if sector is Sector.BOSON else 2
    rng = np.random.default_rng(17)
    for _ in range(30):
        p1 = PhasePoint(rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0 * math.pi))
        p2 = PhasePoint(rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0 * math.pi))
        value = overlap_closed(p1, p2, sector)
        w = complex(-(p1.l + p2.l), p2.phi - p1.phi)
        reference = mp.jtheta(kind, -0.5j * mp.mpc(w), mp.exp(-1))
        bound = lattice_sum_bound(kind, w / (2j * math.pi), 1j / math.pi)
        assert float(abs(mp.mpc(value) - reference)) <= bound, (p1, p2)


@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_kernel_node_values_match_nsum(sector):
    # K(xi*, gamma) = sum_j exp(j w - j^2), w = l_gamma + l_xi + i (phi_xi - phi_gamma)
    quad, p = Quadrature(40, 64), PhasePoint(0.4, 1.1)
    offset = mp.mpf(0.5) if sector is Sector.FERMION else 0
    values = _node_values(quad, sector, *_kernel_coeffs(p, sector, quad))
    l_nodes, phi_nodes, _ = quad.nodes()
    for i, k in ((27, 13), (39, 3)):  # an inner node and the outermost one, l = 8.1
        w = mp.mpf(p.l) + mp.mpf(l_nodes[i]) + 1j * (mp.mpf(phi_nodes[k]) - mp.mpf(p.phi))

        def term(n, w=w):
            return mp.exp((n + offset) * w - (n + offset) ** 2)

        reference = mp.nsum(term, [-mp.inf, mp.inf])
        # the lattice-sum claim, 3 tol + 32 eps sum_j |t_j| (1 + |E_j|)
        weighted = mp.nsum(
            lambda n: abs(term(n)) * (1 + abs((n + offset) * w) + (n + offset) ** 2),
            [-mp.inf, mp.inf],
        )
        bound = 3.0 * TOL + 32.0 * EPS * float(weighted)
        assert float(abs(mp.mpc(values[i, k]) - reference)) <= bound, (i, k)


# ---------------------------------------------------------------------------
# S(w) through its reduced argument, and the energy distribution


def reduced_sum_bound(w: complex, half: bool) -> float:
    """|e^(cw - c^2)| (B_0(r) + 2 eps (1 + |cw - c^2|) |S(r)|), the gaussian_lattice_sum claim.

    c = round(Re w / 2) and r = w - 2c, which is exact in doubles; B_0(r)
    is the lattice-sum bound 3 tol + 32 eps sum_m |t_m| (1 + |E_m|) at r,
    with |E_m| taken as m^2 + |r m|.
    """
    c = float(np.round(0.5 * w.real))
    r = mp.mpc(w - 2.0 * c)
    offset = mp.mpf(0.5) if half else 0
    terms = [(n + offset, mp.exp(r * (n + offset) - (n + offset) ** 2)) for n in range(-40, 41)]
    b_0 = 3.0 * TOL + 32.0 * EPS * mp.fsum(abs(t) * (1 + m * m + abs(r * m)) for m, t in terms)
    exponent = c * mp.mpc(w) - c * c
    reduced = abs(mp.fsum(t for _, t in terms))
    return float(abs(mp.exp(exponent)) * (b_0 + 2.0 * EPS * (1 + abs(exponent)) * reduced))


W_GRID = np.concatenate([
    np.linspace(-52.0, 52.0, 27),
    [0.5, -1.0, 1.0, 3.0, -2.999, 51.99],
    np.random.default_rng(23).uniform(-52.0, 52.0, 24)
    + 1j * np.random.default_rng(29).uniform(-7.0, 7.0, 24),
])


@pytest.mark.parametrize("half", [False, True], ids=["integers", "half-integers"])
def test_gaussian_lattice_sum_within_its_reduced_bound(half):
    values = gaussian_lattice_sum(W_GRID, half=half)
    for w, value in zip(W_GRID, values):
        w = complex(w)
        reference, bound = lattice_sum(w, half), reduced_sum_bound(w, half)
        for result in (value, gaussian_lattice_sum(w, half=half)):
            assert float(abs(mp.mpc(result) - reference)) <= bound, w


@pytest.mark.parametrize("l", [0.7, 26.9, 30.0, -30.0, 1000.3])
@pytest.mark.parametrize("sector", SECTORS, ids=["boson", "fermion"])
def test_energy_distribution_within_its_exponent_conditioning(sector, l):
    half = sector is Sector.FERMION
    dist = energy_distribution(PhasePoint(l, 0.0), sector, jmax=40)
    norm = lattice_sum(2 * mp.mpf(l), half)
    c = round(l)
    for j, prob in dist:
        reference = mp.exp(2 * mp.mpf(l) * j - mp.mpf(j) ** 2) / norm
        if reference < 1e-300:  # underflowed, or close to it
            assert prob <= 1e-299, j
            continue
        d = j - c
        exponent = d * ((2.0 * l - 2.0 * c) - d)
        bound = 2.0 * EPS * (1.0 + abs(exponent))
        assert float(abs(mp.mpf(prob) - reference) / reference) <= bound, j
    if abs(l) < 40.0:
        assert abs(math.fsum(prob for _, prob in dist) - 1.0) <= 1e-12
