"""Ratio observables against an independent 50-digit reference.

The reference sums S(w) = sum_m exp(w*m - m^2) term by term with
mpmath at 50 digits over the window |m - Re(w)/2| <= 12 (the omitted
terms are below e^(-144) of the largest), at the exact double inputs.
It never calls circle_cs.theta.  Each test asserts the accuracy the
docstring of the function under test claims.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from circle_cs import cli
from circle_cs.coherent import PhasePoint, expect_expJ, expect_U, heisenberg_expectations
from circle_cs.hilbert import Sector

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
