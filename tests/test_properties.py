"""Property tests of the hilbert layer, with hypothesis.

Each property compares the library against a route that shares no code
with it: dense operator_matrix products for apply_operator, a window
padded by one slot on each side for the leakage, a plain list of the
integers of the sector parity for the window grids.  Runs are
derandomized and keep no example database, so the suite is
deterministic and writes nothing to the checkout.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from circle_cs.hilbert import (
    OPERATOR_KINDS,
    Sector,
    StateVector,
    Truncation,
    apply_operator,
    operator_matrix,
    state_from_json,
    state_to_json,
)

# Hypothesis caches the constants of local modules under its home directory
# (./.hypothesis by default) even with database=None; this module sets it
# at import, before the pytest plugin fills that cache during collection.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "circle-cs-hypothesis")

EPS = np.finfo(float).eps
CACHED = 32  # windows the hilbert window cache holds
GRID_TWO_JMAX = 300

PROPERTY = settings(derandomize=True, database=None, max_examples=20, deadline=None)

sectors = st.sampled_from([Sector.BOSON, Sector.FERMION])
# small windows keep the coefficient draws, and so the suite, fast
windows = st.integers(2, 30).map(Truncation)
# about half the parts are 0.0, so X and Xdag meet log 0 in their range check
# (a numpy warning there fails the test under the pyproject filter); subnormals
# and -0.0 included; moderate magnitudes keep X's e^(|j|) factors finite
parts = st.one_of(
    st.just(0.0),
    st.floats(-1e3, 1e3, allow_subnormal=True),
)


@st.composite
def states(draw, part=parts):
    sector = draw(sectors)
    trunc = draw(windows)
    size = trunc.size(sector)
    re = draw(st.lists(part, min_size=size, max_size=size))
    im = draw(st.lists(part, min_size=size, max_size=size))
    leakage = draw(st.floats(0.0, 1e3))
    return StateVector(sector, trunc, np.array(re) + 1j * np.array(im), leakage)


def window_by_enumeration(two_jmax: int, sector: Sector) -> list[int]:
    return [k for k in range(-two_jmax, two_jmax + 1) if k % 2 == sector.parity]


@settings(PROPERTY, max_examples=5)  # each example covers 40 windows twice
@given(
    two_jmaxes=st.lists(
        st.integers(2, GRID_TWO_JMAX), min_size=CACHED + 8, max_size=CACHED + 8, unique=True
    ),
    sector=sectors,
)
def test_window_grids_are_the_parity_integers_and_read_only(two_jmaxes, sector):
    # two passes over more windows than the cache holds: the second rebuilds evicted ones
    for two_jmax in two_jmaxes * 2:
        trunc = Truncation(two_jmax)
        two_j, j = trunc.two_j_values(sector), trunc.j_values(sector)
        assert two_j.tolist() == window_by_enumeration(two_jmax, sector)
        assert j.tolist() == [k / 2 for k in two_j.tolist()]
        assert trunc.size(sector) == len(two_j)
        for grid in (two_j, j):
            with pytest.raises(ValueError):
                grid[0] = 0


@PROPERTY
@given(s=states(), kind=st.sampled_from(OPERATOR_KINDS))
def test_apply_operator_matches_the_dense_matrix(s, kind):
    m = operator_matrix(kind, s.sector, s.trunc)
    direct = apply_operator(kind, s).coeffs
    dense = m @ s.coeffs
    # one product per entry on both routes: at most a few roundings apart
    scale = np.abs(m) @ np.abs(s.coeffs)
    assert np.all(np.abs(direct - dense) <= 4.0 * EPS * scale)


@PROPERTY
@given(s=states(), kind=st.sampled_from(["U", "Udag", "X", "Xdag"]))
def test_leakage_is_the_magnitude_pushed_past_the_edge(s, kind):
    # the same state on a window one slot wider on each side keeps what the shift drops
    wide = Truncation(s.trunc.two_jmax + 2)
    padded = np.concatenate([[0.0], s.coeffs, [0.0]])
    on_wide = operator_matrix(kind, s.sector, wide) @ padded
    out = apply_operator(kind, s)
    edge = on_wide[-1] if kind in ("U", "X") else on_wide[0]
    assert abs(out.leakage - (s.leakage + abs(edge))) <= 4.0 * EPS * (s.leakage + abs(edge))
    scale = np.abs(operator_matrix(kind, s.sector, wide)) @ np.abs(padded)
    assert np.all(np.abs(out.coeffs - on_wide[1:-1]) <= 4.0 * EPS * scale[1:-1])


@PROPERTY
@given(
    s=states(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)),
)
def test_json_round_trip_is_bit_exact_and_sorted(s):
    text = state_to_json(s)
    back = state_from_json(text)
    assert back.sector is s.sector and back.trunc == s.trunc
    assert back.coeffs.tobytes() == s.coeffs.tobytes()
    assert repr(back.leakage) == repr(s.leakage)
    # the text is what json.dumps(..., sort_keys=True) writes
    assert text == json.dumps(json.loads(text), sort_keys=True)

