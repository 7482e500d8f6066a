"""Window states and the shift/weight operator algebra."""

from __future__ import annotations

import importlib
import json
import math
import pathlib
import re
import tempfile
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from circle_cs import hilbert
from circle_cs.bargmann import evaluate
from circle_cs.coherent import (
    FreeRotor,
    Linear,
    PhasePoint,
    coherent_state,
    evolve,
    required_two_jmax,
)
from circle_cs.errors import (
    CircleError,
    DomainError,
    ParityError,
    RangeOverflowError,
    WindowError,
)
from circle_cs.hilbert import (
    MAX_TWO_JMAX,
    N_CONST,
    OPERATOR_KINDS,
    Sector,
    StateVector,
    Truncation,
    apply_exp_j,
    apply_operator,
    apply_time_reversal,
    basis_state,
    inner,
    operator_matrix,
    state_from_json,
    state_to_json,
)
from circle_cs.theta import _modulus

# as in test_properties: keep hypothesis's constant cache out of the checkout
set_hypothesis_home_dir(pathlib.Path(tempfile.gettempdir()) / "circle-cs-hypothesis")

TR = Truncation(10)
# the package binds the name `theta` to the function of that name
theta_module = importlib.import_module("circle_cs.theta")


def test_sector_from_name():
    assert Sector.from_name("boson") is Sector.BOSON
    assert Sector.from_name("fermion") is Sector.FERMION
    for name in ("anyon", 5, None):
        with pytest.raises(DomainError, match="^unknown sector"):
            Sector.from_name(name)


def test_window_grids():
    t = Truncation(5)
    assert list(t.two_j_values(Sector.BOSON)) == [-4, -2, 0, 2, 4]
    assert list(t.two_j_values(Sector.FERMION)) == [-5, -3, -1, 1, 3, 5]
    assert t.size(Sector.BOSON) == 5
    assert t.size(Sector.FERMION) == 6
    assert list(t.j_values(Sector.FERMION)) == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]


def test_window_minimum():
    with pytest.raises(DomainError):
        Truncation(1)


@pytest.mark.parametrize("two_jmax", [MAX_TWO_JMAX + 1, 10**12, 2**62])
def test_window_past_the_cap_is_refused_before_it_is_built(two_jmax, no_window):
    with pytest.raises(DomainError, match=r"^two_jmax must be an integer in \[2, 600\]"):
        Truncation(two_jmax)


def test_index_parity_and_window_errors():
    t = Truncation(6)
    assert t.index_of(Sector.FERMION, 1) == t.index_of(Sector.FERMION, np.uint8(1)) == 3
    for key in (np.array([0, 2]), np.array(0), 0.0, 2.0, True, np.bool_(False)):
        with pytest.raises(DomainError, match="^2j must be an integer"):
            t.index_of(Sector.BOSON, key)
    with pytest.raises(ParityError):
        basis_state(Sector.BOSON, 0.25, t)


@pytest.mark.parametrize("sector", list(Sector), ids=lambda s: s.value)
@pytest.mark.parametrize("two_jmax", [6, 7])
def test_index_of_a_python_int_matches_the_array_path(sector, two_jmax):
    # a Python int and a NumPy integer key give the same slot or the same
    # typed refusal, and the parity test comes before the window test
    t = Truncation(two_jmax)
    window = t.two_j_values(sector).tolist()
    edges = (two_jmax + 1, 2**63 + 1, 10**30)
    for key in [*range(-two_jmax, two_jmax + 1), *edges, *(-k for k in edges)]:
        if key % 2 != sector.parity:
            with pytest.raises(ParityError, match=rf"^2j = {key} does not match"):
                t.index_of(sector, key)
        elif key not in window:
            with pytest.raises(WindowError, match=rf"^2j = {key} outside"):
                t.index_of(sector, key)
        else:
            slot = t.index_of(sector, key)
            assert type(slot) is int and slot == window.index(key)
            assert t.index_of(sector, np.int64(key)) == slot


def test_basis_state_is_unit():
    s = basis_state(Sector.FERMION, 1.5, TR)
    assert s.norm() == 1.0
    assert s.coeffs[TR.index_of(Sector.FERMION, 3)] == 1.0


@pytest.mark.parametrize("j", [math.nan, math.inf, "1", None, [1.0], 1j, 10**400])
def test_basis_state_refuses_what_is_not_a_finite_real(j):
    with pytest.raises(DomainError, match="^j must be a finite real number"):
        basis_state(Sector.BOSON, j, TR)


@pytest.mark.parametrize("sector, j, error", [
    (Sector.BOSON, 1e300, WindowError), (Sector.BOSON, 1e308, WindowError),
    (Sector.BOSON, -(2.0**70), WindowError), (Sector.FERMION, 1e308, ParityError),
    (Sector.FERMION, 700.5, WindowError), (Sector.FERMION, 0.5 + 1e-9, ParityError),
])
def test_basis_state_far_outside_the_window_is_typed(sector, j, error):
    # 2j of 1e308 is past the double range; every j from 2^52 on is whole
    with pytest.raises(error):
        basis_state(sector, j, TR)


def test_state_vector_validates_length():
    with pytest.raises(DomainError):
        StateVector(Sector.BOSON, Truncation(4), [1.0, 2.0])
    with pytest.raises(DomainError):
        StateVector(Sector.BOSON, Truncation(4), [1.0, float("nan"), 0.0, 0.0, 0.0])


def test_coeffs_are_frozen():
    s = basis_state(Sector.BOSON, 0.0, TR)
    with pytest.raises(ValueError):
        s.coeffs[0] = 1.0


def test_state_vector_errors_keep_their_messages():
    with pytest.raises(DomainError, match=r"^expected 5 coefficients, got shape \(2,\)$"):
        StateVector(Sector.BOSON, Truncation(4), np.ones(2))
    with pytest.raises(DomainError, match=r"^expected 5 coefficients, got shape \(5, 1\)$"):
        StateVector(Sector.BOSON, Truncation(4), np.ones((5, 1)))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(DomainError, match="^state coefficients must be finite$"):
            StateVector(Sector.BOSON, Truncation(4), [1.0, bad, 0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "leakage",
    [math.nan, math.inf, -math.inf, "0.5", None, 0.5j, np.complex128(0.5), [0.5], -1.0, -5e-324],
    ids=repr,
)
def test_leakage_is_one_finite_real_number(leakage):
    # a sum of magnitudes: a negative value is refused as well
    with pytest.raises(DomainError, match=r"^leakage must be a finite real number >= 0, got "):
        StateVector(Sector.BOSON, TR, np.zeros(TR.size(Sector.BOSON)), leakage)


def test_leakage_is_stored_as_a_python_float():
    for leakage in (1, np.float64(0.25), np.float32(0.5), True):
        s = StateVector(Sector.BOSON, TR, np.zeros(TR.size(Sector.BOSON)), leakage)
        assert type(s.leakage) is float and s.leakage == float(leakage)


@pytest.mark.parametrize("leakage", ["NaN", "Infinity", '"0.5"', "[0.5]", "-1.0"])
def test_json_leakage_goes_through_the_gate(leakage):
    good = state_to_json(basis_state(Sector.BOSON, 0.0, TR))
    assert '"leakage": 0.0' in good
    with pytest.raises(DomainError, match=r"^leakage must be a finite real number >= 0, got "):
        state_from_json(good.replace('"leakage": 0.0', f'"leakage": {leakage}'))


@pytest.mark.parametrize(
    "coeffs",
    [[10**400, 0, 0], {0: 1}, ["a", "b", "c"], "abc", None],
    ids=["int-past-the-range", "dict", "strings", "string", "None"],
)
def test_state_vector_coefficients_go_through_the_gate(coeffs):
    # what is not finite complex numbers is refused before the shape is looked at
    with pytest.raises(DomainError, match="^state coefficients must be finite$"):
        StateVector(Sector.BOSON, Truncation(2), coeffs)


def test_state_vector_keeps_a_private_copy():
    c = np.arange(5, dtype=np.complex128)
    s = StateVector(Sector.BOSON, Truncation(4), c)
    c[0] = 9.0
    assert s.coeffs[0] == 0.0
    # a shared read-only window array as input is copied too, and stays untouched
    j = Truncation(4).j_values(Sector.BOSON)
    from_window = StateVector(Sector.BOSON, Truncation(4), j)
    assert from_window.coeffs is not j and not from_window.coeffs.flags.writeable
    assert j.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_window_grids_are_shared():
    # read-only and right for any window: tests/test_properties.py
    t = Truncation(7)
    assert t.j_values(Sector.FERMION) is Truncation(7).j_values(Sector.FERMION)
    assert t.two_j_values(Sector.BOSON) is Truncation(7).two_j_values(Sector.BOSON)


def test_u_shifts_up():
    s = basis_state(Sector.BOSON, 2.0, TR)
    up = apply_operator("U", s)
    assert up.coeffs[TR.index_of(Sector.BOSON, 6)] == 1.0
    assert up.leakage == 0.0


def test_u_leaks_at_top_edge():
    top = float(TR.j_values(Sector.BOSON)[-1])
    s = basis_state(Sector.BOSON, top, TR)
    up = apply_operator("U", s)
    assert up.norm() == 0.0
    assert up.leakage == 1.0


def test_udag_inverts_u_in_the_interior():
    s = basis_state(Sector.FERMION, 0.5, TR)
    back = apply_operator("Udag", apply_operator("U", s))
    assert np.array_equal(back.coeffs, s.coeffs)


def test_j_and_n_are_diagonal():
    s = basis_state(Sector.FERMION, -1.5, TR)
    assert apply_operator("J", s).coeffs[TR.index_of(Sector.FERMION, -3)] == -1.5
    n_val = apply_operator("N", s).coeffs[TR.index_of(Sector.FERMION, -3)]
    assert n_val == pytest.approx(1.5 + N_CONST, rel=1e-15)


def test_n_const_value():
    assert N_CONST == pytest.approx(0.4272932710655704, rel=1e-15)
    assert N_CONST == pytest.approx(0.5 * math.log(2.0 * math.sinh(1.0)), rel=1e-15)


def test_x_matrix_elements():
    m = operator_matrix("X", Sector.BOSON, Truncation(6))
    j = Truncation(6).j_values(Sector.BOSON)
    for col in range(len(j) - 1):
        assert m[col + 1, col] == pytest.approx(math.exp(-j[col] - 0.5), rel=1e-15)
    assert np.count_nonzero(m) == len(j) - 1


@pytest.mark.parametrize("sector", [Sector.BOSON, Sector.FERMION])
def test_weight_bands_at_the_window_cap_are_plain_exponentials(sector):
    # the largest weight inside MAX_TWO_JMAX is e^300.5, so no overflow check is needed
    trunc = Truncation(MAX_TWO_JMAX)
    j = trunc.j_values(sector)
    x = operator_matrix("X", sector, trunc)
    xdag = operator_matrix("Xdag", sector, trunc)
    assert np.diagonal(x, -1).tobytes() == np.exp(-j[:-1] - 0.5).astype(complex).tobytes()
    assert np.diagonal(xdag, 1).tobytes() == np.exp(-j[1:] + 0.5).astype(complex).tobytes()
    assert np.isfinite(x).all() and np.isfinite(xdag).all()


def test_xdag_matrix_is_adjoint_of_x():
    for sector in (Sector.BOSON, Sector.FERMION):
        x = operator_matrix("X", sector, TR)
        xd = operator_matrix("Xdag", sector, TR)
        assert np.array_equal(xd, x.conj().T)


def test_xxdag_eigenvalues():
    x = operator_matrix("X", Sector.BOSON, TR)
    xd = operator_matrix("Xdag", Sector.BOSON, TR)
    j = TR.j_values(Sector.BOSON)
    diag = np.diag(x @ xd)
    for i in range(1, len(j) - 1):
        assert diag[i] == pytest.approx(math.exp(-2.0 * j[i] + 1.0), rel=1e-14)


def test_commutator_is_weighted_sinh():
    # [X, Xdag] |j> = 2 sinh(1) exp(-2j) |j> away from the window edges
    x = operator_matrix("X", Sector.FERMION, TR)
    xd = operator_matrix("Xdag", Sector.FERMION, TR)
    j = TR.j_values(Sector.FERMION)
    comm = np.diag(x @ xd - xd @ x)
    for i in range(1, len(j) - 1):
        expected = 2.3504023872876028 * math.exp(-2.0 * j[i])
        assert comm[i] == pytest.approx(expected, rel=1e-13)


def test_apply_operator_matches_matrix():
    rng = np.random.default_rng(3)
    for sector in (Sector.BOSON, Sector.FERMION):
        size = TR.size(sector)
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        s = StateVector(sector, TR, c)
        for kind in OPERATOR_KINDS:
            m = operator_matrix(kind, sector, TR)
            direct = apply_operator(kind, s).coeffs
            assert np.max(np.abs(direct - m @ c)) < 1e-12


def test_apply_exp_j_scales():
    s = basis_state(Sector.BOSON, 3.0, TR)
    scaled = apply_exp_j(s, -0.7)
    assert scaled.coeffs[TR.index_of(Sector.BOSON, 6)] == pytest.approx(
        math.exp(-2.1), rel=1e-15
    )


def test_apply_exp_j_imaginary_is_phase():
    rng = np.random.default_rng(5)
    c = rng.normal(size=TR.size(Sector.BOSON))
    s = StateVector(Sector.BOSON, TR, c)
    rotated = apply_exp_j(s, 0.9j)
    assert np.max(np.abs(np.abs(rotated.coeffs) - np.abs(c))) < 1e-15


def test_apply_exp_j_overflow_guard():
    s = basis_state(Sector.BOSON, 10.0, Truncation(20))
    with pytest.raises(RangeOverflowError):
        apply_exp_j(s, 80.0)


def _spike(sector: Sector, j: float, value: float) -> StateVector:
    """value * |j> on the widest window."""
    t = Truncation(MAX_TWO_JMAX)
    return StateVector(sector, t, value * basis_state(sector, j, t).coeffs)


def test_x_overflow_guard():
    # X multiplies by exp(-j - 1/2): at j = -300 a coefficient of 1e300 becomes about e^990
    s = _spike(Sector.BOSON, -300.0, 1e300)
    with pytest.raises(RangeOverflowError):
        apply_operator("X", s)


@pytest.mark.parametrize("kind, j", [("Xdag", -299.5), ("exp_j", 299.5), ("exp_j", -299.5)])
def test_weight_overflow_on_a_state_with_zeros_is_typed(kind, j):
    # a weight of about e^300 on a coefficient of 1e300; every other coefficient
    # is 0 (log 0 = -inf); pyproject turns numpy warnings into errors
    s = _spike(Sector.FERMION, j, 1e300)
    with pytest.raises(RangeOverflowError, match="outside the floating-point range"):
        if kind == "exp_j":
            apply_exp_j(s, math.copysign(1.0, j))
        else:
            apply_operator(kind, s)


@pytest.mark.parametrize("eta", [1e308, -1e308, complex(0.0, 1e308), 1e200 + 1e200j])
def test_apply_exp_j_past_the_double_range_is_typed(eta):
    # eta*j or the coefficient overflows; pyproject turns numpy warnings into errors
    s = basis_state(Sector.BOSON, 2.0, TR)
    with pytest.raises(RangeOverflowError, match="floating-point range"):
        apply_exp_j(s, eta)


@pytest.mark.parametrize("eta", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_apply_exp_j_rejects_a_non_finite_eta(eta):
    with pytest.raises(DomainError, match="eta must be finite"):
        apply_exp_j(basis_state(Sector.BOSON, 2.0, TR), eta)


def test_weights_of_the_zero_state_stay_zero():
    zero = StateVector(Sector.BOSON, TR, np.zeros(TR.size(Sector.BOSON)))
    for out in (apply_operator("X", zero), apply_operator("Xdag", zero), apply_exp_j(zero, 3.0)):
        assert not out.coeffs.any() and out.leakage == 0.0


def test_time_reversal_swaps_sign_of_j():
    s = basis_state(Sector.FERMION, 2.5, TR)
    flipped = apply_time_reversal(s)
    assert flipped.coeffs[TR.index_of(Sector.FERMION, -5)] == 1.0


def test_time_reversal_is_an_involution():
    rng = np.random.default_rng(7)
    c = rng.normal(size=TR.size(Sector.BOSON)) + 1j * rng.normal(size=TR.size(Sector.BOSON))
    s = StateVector(Sector.BOSON, TR, c)
    twice = apply_time_reversal(apply_time_reversal(s))
    assert np.array_equal(twice.coeffs, s.coeffs)


def test_time_reversal_conjugates_u():
    # T U T = Udag on interior basis states
    for j in (-2.0, 0.0, 3.0):
        s = basis_state(Sector.BOSON, j, TR)
        lhs = apply_time_reversal(apply_operator("U", apply_time_reversal(s)))
        rhs = apply_operator("Udag", s)
        assert np.array_equal(lhs.coeffs, rhs.coeffs)


def test_unknown_operator_kind():
    s = basis_state(Sector.BOSON, 0.0, TR)
    with pytest.raises(DomainError):
        apply_operator("Y", s)


@pytest.mark.parametrize("kind", [np.array(["J", "U"]), np.array(["J"]), np.array("J")], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda kind: apply_operator(kind, basis_state(Sector.BOSON, 0.0, TR)),
        lambda kind: operator_matrix(kind, Sector.BOSON, TR),
    ],
    ids=["apply_operator", "operator_matrix"],
)
def test_an_array_operator_kind_is_a_typed_refusal(call, kind):
    # == on an array gives an array, which numpy refuses to take as one truth value
    with pytest.raises(DomainError, match=r"^unknown operator kind array\("):
        call(kind)


def test_inner_requires_matching_window():
    a = basis_state(Sector.BOSON, 0.0, TR)
    b = basis_state(Sector.FERMION, 0.5, TR)
    with pytest.raises(DomainError):
        inner(a, b)
    c = basis_state(Sector.BOSON, 0.0, Truncation(12))
    with pytest.raises(DomainError):
        inner(a, c)


def test_inner_is_conjugate_linear_on_the_left():
    a = StateVector(Sector.BOSON, Truncation(2), [1j, 0.0, 0.0])
    b = StateVector(Sector.BOSON, Truncation(2), [1.0, 0.0, 0.0])
    assert inner(a, b) == -1j


def test_leakage_accumulates():
    top = float(TR.j_values(Sector.BOSON)[-1])
    s = StateVector(Sector.BOSON, TR, np.ones(TR.size(Sector.BOSON)))
    once = apply_operator("U", s)
    twice = apply_operator("U", once)
    assert once.leakage == 1.0
    assert twice.leakage == 2.0
    assert top == 5.0


def test_json_round_trip():
    rng = np.random.default_rng(9)
    c = rng.normal(size=TR.size(Sector.FERMION)) + 1j * rng.normal(size=TR.size(Sector.FERMION))
    s = StateVector(Sector.FERMION, TR, c, leakage=0.25)
    back = state_from_json(state_to_json(s))
    assert back.sector is Sector.FERMION
    assert back.leakage == 0.25
    assert np.array_equal(back.coeffs, s.coeffs)


def test_json_rejects_malformed_payloads():
    with pytest.raises(DomainError):
        state_from_json("not json")
    with pytest.raises(DomainError):
        state_from_json('{"sector": "boson"}')
    good = state_to_json(basis_state(Sector.BOSON, 0.0, Truncation(2)))
    with pytest.raises(DomainError):
        state_from_json(good.replace('"boson"', '"anyon"'))
    # a sector that is not a string once left a bare AttributeError
    for sector in ("5", "null", "[]"):
        with pytest.raises(DomainError, match="^malformed state JSON: unknown sector"):
            state_from_json(good.replace('"boson"', sector))
    # nesting past the parser's depth once left a bare RecursionError
    with pytest.raises(DomainError, match="^malformed state JSON: maximum recursion depth"):
        state_from_json("[" * 100_000 + "]" * 100_000)


def _loop_from_json(text: str) -> StateVector:
    """The per-entry decoder state_from_json replaced: a dict, then index_of per 2j."""
    payload = json.loads(text)
    sector = Sector.from_name(payload["sector"])
    trunc = Truncation(int(payload["two_jmax"]))
    entries = {int(e["two_j"]): complex(e["re"], e["im"]) for e in payload["coeffs"]}
    coeffs = np.zeros(trunc.size(sector), dtype=np.complex128)
    for two_j, value in entries.items():
        coeffs[trunc.index_of(sector, two_j)] = value
    # the leakage as the document holds it, so StateVector words any refusal
    return StateVector(sector, trunc, coeffs, payload.get("leakage", 0.0))


def _state_text(sector: str, two_jmax: int, entries, **leakage) -> str:
    coeffs = [{"two_j": t, "re": re, "im": im} for t, re, im in entries]
    return json.dumps({"sector": sector, "two_jmax": two_jmax, "coeffs": coeffs, **leakage})


def _window_order(sector: str, two_jmax: int, **leakage) -> str:
    """A document with every 2j of the window, ascending, as state_to_json writes it."""
    two_j = Truncation(two_jmax).two_j_values(Sector.from_name(sector)).tolist()
    rng = np.random.default_rng(two_jmax)
    entries = [(k, float(rng.normal()), float(rng.normal())) for k in two_j]
    return _state_text(sector, two_jmax, entries, **leakage)


@pytest.mark.parametrize("text", [
    _state_text("boson", 4, [(2, 0.5, -1.0), (0, 1.0, 0.0)]),
    _state_text("boson", 4, [(0, 1.0, 0.0), (2, 0.5, 0.0), (0, 2.0, 3.0)]),
    _state_text("fermion", 5, [(-5, 1.0, 0.0), (5, 2.0, 2.0), (5, 3.0, 3.0), (-5, 9.0, 9.0)]),
    _state_text("boson", 4, []),
    _state_text("boson", 4, [(0, 1.0, 0.0), (3, 2.0, 3.0), (6, 1.0, 1.0)]),
    _state_text("boson", 4, [(0, 1.0, 0.0), (6, 2.0, 3.0), (3, 1.0, 1.0)]),
    _state_text("boson", 4, [(1, 1.0, 0.0), (-6, 2.0, 3.0)]),
    _state_text("fermion", 4, [(-5, 1.0, 0.0), (4, 1.0, 0.0)]),
    _state_text("boson", 4, [(2, 1.0, 0.0), (2**63 + 1, 1.0, 0.0), (-1, 1.0, 1.0)]),
    _state_text("boson", 4, [(-1, 1.0, 1.0), (10**30, 1.0, 0.0)]),
    _window_order("boson", 12, leakage=0.375),
    _window_order("fermion", 11, leakage=2.5e-7),
    '{"sector": "boson", "two_jmax": 2, "coeffs": [{"two_j": -2, "re": 1e400, "im": 0}, '
    '{"two_j": 0, "re": 1, "im": 0}, {"two_j": 2, "re": 1, "im": 0}]}',
    _window_order("boson", 4, leakage=-1),
    _window_order("fermion", 5, leakage=math.nan),
    _window_order("boson", 4, leakage="x"),
], ids=["plain", "repeat-boson", "repeat-fermion", "empty", "parity-first", "window-first",
        "parity-then-window", "fermion-window", "beyond-int64", "parity-before-huge",
        "window-order-boson", "window-order-fermion", "window-order-overflow",
        "window-order-negative-leakage", "window-order-nan-leakage", "window-order-text-leakage"])
def test_json_decoding_matches_the_per_entry_loop(text):
    try:
        expected = _loop_from_json(text)
    except (ParityError, WindowError, DomainError) as exc:
        with pytest.raises(type(exc)) as info:
            state_from_json(text)
        assert str(info.value) == str(exc)
    else:
        back = state_from_json(text)
        assert back.sector is expected.sector and back.trunc == expected.trunc
        assert back.coeffs.tobytes() == expected.coeffs.tobytes()
        assert repr(back.leakage) == repr(expected.leakage)


def test_a_document_in_window_order_is_read_without_index_of(monkeypatch):
    # what state_to_json writes never takes the scatter, which would call index_of
    rng = np.random.default_rng(28)
    states = []
    for sector in Sector:
        size = TR.size(sector)
        coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
        states.append(StateVector(sector, TR, coeffs, 0.125))

    def refuse(*args):
        raise AssertionError("index_of was called")

    monkeypatch.setattr(Truncation, "index_of", refuse)
    for s in states:
        back = state_from_json(state_to_json(s))
        assert back.coeffs.tobytes() == s.coeffs.tobytes() and back.leakage == s.leakage


def test_json_non_finite_index_is_domain_error():
    for token in ("Infinity", "NaN", "1.9", "2.0", '"2"', "true"):
        text = '{"sector": "boson", "two_jmax": 4, "coeffs": [{"two_j": %s, "re": 1, "im": 0}]}'
        with pytest.raises(DomainError, match="malformed state JSON"):
            state_from_json(text % token)


@pytest.mark.parametrize("two_jmax", [MAX_TWO_JMAX + 1, 10**12, 2**62, 5.9, 40.0, "40", True])
def test_json_window_past_the_cap_is_domain_error(two_jmax, no_window):
    # or not an integer: Truncation refuses it, where int() cut 5.9 to 5
    text = _state_text("boson", two_jmax, [(0, 1.0, 0.0)])
    message = rf"^two_jmax must be an integer in \[2, 600\], got {re.escape(repr(two_jmax))}$"
    with pytest.raises(DomainError, match=message):
        state_from_json(text)


def test_json_window_at_the_cap_round_trips():
    s = basis_state(Sector.FERMION, 0.5, Truncation(MAX_TWO_JMAX))
    back = state_from_json(state_to_json(s))
    assert back.trunc == s.trunc and np.array_equal(back.coeffs, s.coeffs)


def test_tail_mass_sees_outermost_slots():
    c = np.zeros(TR.size(Sector.BOSON))
    c[1] = 0.125
    s = StateVector(Sector.BOSON, TR, c)
    assert s.tail_mass() == 0.125


# every function that hands StateVector an array it has just made, as the state it returns
ADOPTING = {
    **{kind: lambda s, kind=kind: apply_operator(kind, s) for kind in OPERATOR_KINDS},
    "exp_j": lambda s: apply_exp_j(s, 0.3 - 0.2j),
    # a wider eta gives a wider product, which the state rounds to complex128
    "exp_j_long_double": lambda s: apply_exp_j(s, np.clongdouble(0.3 - 0.2j)),
    "time_reversal": apply_time_reversal,
    "basis_state": lambda s: basis_state(s.sector, float(s.j_values()[1]), s.trunc),
    "coherent_state": lambda s: coherent_state(PhasePoint(0.4, 1.1), s.sector, s.trunc),
    "evolve_free": lambda s: evolve(s, FreeRotor(), 0.37),
    "evolve_linear": lambda s: evolve(s, Linear(1.3), 0.37),
}


@pytest.mark.parametrize("sector", list(Sector), ids=lambda sector: sector.value)
@pytest.mark.parametrize("make", ADOPTING.values(), ids=ADOPTING.keys())
def test_library_states_own_a_fresh_read_only_array(make, sector):
    trunc = Truncation(20)  # what coherent_state needs at l = 0.4
    size = trunc.size(sector)
    rng = np.random.default_rng(22)
    s = StateVector(sector, trunc, rng.normal(size=size) + 1j * rng.normal(size=size), 0.25)
    result = make(s)
    assert result.sector is sector and result.trunc == trunc
    assert type(result.leakage) is float
    c = result.coeffs
    assert c.dtype == np.complex128 and c.shape == (size,)
    assert c.flags.owndata and not c.flags.writeable
    assert not np.shares_memory(c, s.coeffs)
    assert not np.shares_memory(c, trunc.j_values(sector))


def _top(sector, value, trunc=Truncation(4)):
    """A state with value in its highest slot and 1 in every other."""
    c = np.ones(trunc.size(sector), dtype=np.complex128)
    c[-1] = value
    return StateVector(sector, trunc, c)


@pytest.mark.parametrize(
    "make, error, message",
    [
        # 1e308 * j = 2e308 at j = 2
        (
            lambda: apply_operator("J", _top(Sector.BOSON, 1e308)),
            DomainError,
            "^state coefficients must be finite$",
        ),
        # 1.7e308 * (-2 + N_CONST) = -2.7e308 at j = 2
        (
            lambda: apply_operator("N", _top(Sector.BOSON, 1.7e308)),
            DomainError,
            "^state coefficients must be finite$",
        ),
        # |c| = 1.7e308 sqrt(2) passes the range while both parts are finite; the phase
        # e^(-i pi/4) at j = 2 makes the real part 2.4e308
        (
            lambda: evolve(_top(Sector.BOSON, 1.7e308 * (1 + 1j)), Linear(1.0), math.pi / 8),
            DomainError,
            "^state coefficients must be finite$",
        ),
        # leakage 1.7e308 plus the 1e308 dropped off the top edge
        (
            lambda: apply_operator("U", replace(_top(Sector.BOSON, 1e308), leakage=1.7e308)),
            DomainError,
            r"^leakage must be a finite real number >= 0, got inf$",
        ),
        (
            lambda: _top(Sector.BOSON, 1.7e308 * (1 + 1j)).norm(),
            RangeOverflowError,
            "^state norm passes the floating-point range$",
        ),
        (
            lambda: _top(Sector.BOSON, 1.7e308 * (1 + 1j)).tail_mass(),
            RangeOverflowError,
            "^state tail mass passes the floating-point range$",
        ),
    ],
    ids=["J", "N", "evolve", "leakage", "norm", "tail_mass"],
)
def test_a_library_state_past_the_double_range_is_typed(make, error, message):
    # pyproject turns numpy's overflow warnings into errors: none may come first
    with pytest.raises(error, match=message):
        make()


def _products(kind, sector, trunc):
    """(the call, its column as the caller forms it, the column's largest modulus)."""
    window = hilbert._window(trunc.two_jmax, sector.parity)
    j, t, omega = window.j, 0.7, 1.3
    return {
        "J": (lambda s: apply_operator("J", s), window.j, window.j_top),
        "N": (lambda s: apply_operator("N", s), window.n_band, window.n_top),
        "FreeRotor": (lambda s: evolve(s, FreeRotor(), t), np.exp(-0.5j * t * j * j), 1.0),
        "Linear": (lambda s: evolve(s, Linear(omega), t), np.exp(-1j * t * omega * j), 1.0),
    }[kind]


@pytest.mark.parametrize("sector", list(Sector), ids=lambda sector: sector.value)
@pytest.mark.parametrize("kind", ["J", "N", "FreeRotor", "Linear"])
def test_a_product_gives_its_bits_or_the_finite_error_either_side_of_its_bound(kind, sector):
    # _product skips np.errstate and the finite check where max|c| * top <= 2**1022:
    # moduli a few ulps either side of that edge, up to where the product passes the
    # range, and a 1.7e308 (1 + i) whose np.abs is inf, in every slot, give the bits
    # of c * column where those are finite and DomainError where they are not
    trunc = Truncation(12)
    make, column, top = _products(kind, sector, trunc)
    # a computed unit phase can pass 1 by an ulp, which the bound's factor 2 absorbs
    assert top <= float(np.abs(column).max()) <= top * (1.0 + 2.0**-50)
    edge = 2.0**1022 / top
    # and 2**1022 itself, which passes the range times any top above 4 unless the bound sees top
    moduli = [edge * (1.0 + k * 2.0**-52) for k in range(-4, 5)] + [2.0 * edge, 2.0**1022, 1.7e308]
    rng = np.random.default_rng(38)
    outcomes = set()
    for slot in range(column.size):
        for value in [*moduli, 1.7e308 * (1 + 1j)]:
            c = rng.normal(size=column.size) + 1j * rng.normal(size=column.size)
            c[slot] = value
            with np.errstate(over="ignore", invalid="ignore"):
                want = c * column
            state = StateVector(sector, trunc, c, 0.25)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if np.isfinite(want).all():
                    got = make(state)
                    assert got.coeffs.tobytes() == want.tobytes() and got.leakage == 0.25
                    outcomes.add("finite")
                else:
                    with pytest.raises(DomainError, match="^state coefficients must be finite$"):
                        make(state)
                    outcomes.add("past the range")
    assert outcomes == {"finite", "past the range"}


# each producer of a state from a state, with a drawn complex number x
_STEPS = {
    **{kind: lambda s, x, kind=kind: apply_operator(kind, s) for kind in OPERATOR_KINDS},
    "exp_j": lambda s, x: apply_exp_j(s, x),
    "time_reversal": lambda s, x: apply_time_reversal(s),
    "FreeRotor": lambda s, x: evolve(s, FreeRotor(), x.imag),
    "Linear": lambda s, x: evolve(s, Linear(1.3), x.real),
    "json": lambda s, x: state_from_json(state_to_json(s)),
}


@st.composite
def _first_states(draw):
    """A state from basis_state, coherent_state or StateVector(...): moderate
    entries, one entry alone (its bound then meets it, which shows an ulp of
    rounding past it), one tiny or subnormal entry alone (there rounding is
    absolute), a wide 1.7e308 (1 + i), or a modulus within ulps of
    2**1022 / top for the top of J, N or evolve's unit phases."""
    sector = draw(st.sampled_from(list(Sector)))
    trunc = Truncation(draw(st.integers(2, 12)))
    size = trunc.size(sector)
    # a lone entry most often: there an ulp of rounding shows
    how = draw(
        st.sampled_from(["basis", "coherent", "moderate", "wide", "edge", "tiny", *["alone"] * 3])
    )
    # full-mantissa values, whose products round
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if how == "basis":
        return basis_state(sector, draw(st.sampled_from(trunc.j_values(sector).tolist())), trunc)
    if how == "coherent":
        # at l on the sector's lattice the largest |c_j| meets e^(l^2/2) but for rounding
        on_lattice = draw(st.integers(-37, 36)) + 0.5 * sector.parity
        l = draw(st.sampled_from([on_lattice, float(rng.uniform(-37.0, 37.0))]))
        trunc = Truncation(min(required_two_jmax(l), MAX_TWO_JMAX))
        return coherent_state(PhasePoint(l, rng.uniform(0.0, 2.0 * math.pi)), sector, trunc)
    c = rng.normal(size=size) + 1j * rng.normal(size=size)
    slot = draw(st.integers(0, size - 1))
    if how in ("alone", "tiny"):  # at an end, where each column has its largest modulus
        c[:] = 0.0
        value = complex(*rng.normal(size=2))
        if how == "tiny":  # from a few ulps of 0 to just past the smallest normal double
            small = [(3 + 3j) * 5e-324, value * 2.0 ** draw(st.integers(-1080, -1018))]
            value = draw(st.sampled_from(small))
        c[draw(st.sampled_from([0, size - 1]))] = value
    elif how == "wide":
        c[slot] = 1.7e308 * (1 + 1j)
    elif how == "edge":
        window = hilbert._window(trunc.two_jmax, sector.parity)
        top = draw(st.sampled_from([window.j_top, window.n_top, 1.0]))
        unit = draw(st.sampled_from([1.0, -1j, (1 + 1j) * math.sqrt(0.5)]))
        c[slot] = unit * 2.0**1022 / top * (1.0 + draw(st.integers(-4, 4)) * 2.0**-52)
    return StateVector(sector, trunc, c)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    first=_first_states(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(sorted(_STEPS)),
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_every_state_carries_a_bound_on_its_largest_modulus(first, steps):
    # B >= max|c_j| as np.abs reads it, for what every producer makes of each state
    # of a drawn chain; a library state carries B, a JSON one scans it on first use
    assert first._bound >= float(np.abs(first.coeffs).max())
    s = first
    for name, x in steps:
        made = {}
        for step, make in _STEPS.items():
            try:
                made[step] = make(s, x)
            except CircleError:
                continue
            assert ("_bound" in vars(made[step])) is (step != "json")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert made[step]._bound >= float(np.abs(made[step].coeffs).max()), step
        s = made.get(name, s)


def test_a_subnormal_state_keeps_a_bound_and_its_overflow_error():
    # |c| reads 4.24 ulps of 0 as 4; J halves it and rounds each part up, to 3 ulps.
    # A relative slack on 4 ulps would give J's result a bound of 2 ulps, and exp_j
    # would pass a peak of 700.16 as 699.75: the floor at the smallest normal double
    # keeps the bound above it, and exp_j raises where the exact peak says
    s = apply_operator("J", StateVector(Sector.FERMION, Truncation(2), [0, (3 + 3j) * 5e-324]))
    assert float(np.abs(s.coeffs).max()) == 3 * 5e-324 <= s._bound
    with pytest.raises(RangeOverflowError) as error:
        apply_exp_j(s, 2887.0)
    assert str(error.value) == (
        "exp_j produces a coefficient of magnitude exp(700), outside the floating-point range"
    )


def _outcome(make, state):
    """The coefficient bytes and leakage of make(state), or its error's type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = make(state)
        except CircleError as error:
            return type(error), str(error)
    if isinstance(out, StateVector):
        return out.coeffs.tobytes(), out.leakage
    return repr(out)


@pytest.mark.parametrize(
    "make",
    [
        *(lambda s, kind=kind: apply_operator(kind, s) for kind in OPERATOR_KINDS),
        lambda s: apply_exp_j(s, 0.75 - 0.5j),
        lambda s: evolve(s, FreeRotor(), 0.7),
        lambda s: evolve(s, Linear(1.3), 0.7),
        lambda s: evaluate(s, PhasePoint(-2.5, 0.3)),
    ],
    ids=[*OPERATOR_KINDS, "exp_j", "FreeRotor", "Linear", "evaluate"],
)
def test_a_loose_bound_moves_no_bit_and_no_message(make):
    # a carried bound decides only where it passes; where it fails, the exact max|c|
    # decides.  So a state whose bound is exact, 2**8 or 2**1000 times too large, or
    # inf gives the bits or the error of the state StateVector(...) builds, with
    # moduli either side of the X and Xdag limit e^(700 - 19.5) and of J's 2**1022 / 20
    trunc = Truncation(40)
    rng = np.random.default_rng(39)
    moduli = [1.0, 1.7e308, 1.7e308 * (1 + 1j)]
    for edge in (math.exp(680.5), 2.0**1022 / 20.0):
        moduli += [edge * (1.0 + k * 2.0**-44) for k in (-8, 0, 8)]
    for slot in (0, 20, 40):
        for value in moduli:
            c = rng.normal(size=41) + 1j * rng.normal(size=41)
            c[slot] = value
            want = _outcome(make, StateVector(Sector.BOSON, trunc, c, 0.25))
            exact = _modulus(c)
            for bound in (exact, exact * 2.0**8, exact * 2.0**1000, math.inf):
                loose = hilbert._adopt(Sector.BOSON, trunc, c.copy(), 0.25, bound)
                assert _outcome(make, loose) == want


def test_the_norm_of_a_state_past_the_square_range_is_finite():
    # each |c_j|^2 passes the double range, the norm does not
    state = _top(Sector.BOSON, 1e200)
    assert state.norm() == pytest.approx(1e200) and state.tail_mass() == 1e200


# one coefficient 1.7e308 (1 + i) at j = 19 of a boson window of 40: its
# modulus passes the double range while both parts are finite
WIDE = 1.7e308 * (1 + 1j)


def _wide_state(j):
    trunc = Truncation(40)
    c = np.zeros(trunc.size(Sector.BOSON), np.complex128)
    c[trunc.index_of(Sector.BOSON, round(2 * j))] = WIDE
    return StateVector(Sector.BOSON, trunc, c)


@pytest.mark.parametrize(
    "make, j_out, log_factor, ulps",
    [
        # the fast path: scale * exp(exponent), a few ulps of the exact value
        (lambda s: apply_operator("X", s), 20, -19.5, 4),
        (lambda s: apply_operator("Xdag", s), 18, -18.5, 4),
        (lambda s: apply_exp_j(s, -30.0), 19, -570.0, 4),
        # the log-space path (e^(-40 j) passes the range at j = -20): the
        # exponent -760 + log|c| rounds at eps * 760 absolute, up to about
        # 1520 ulps of the value (366 here; 192 for a real 1.7e308)
        (lambda s: apply_exp_j(s, -40.0), 19, -760.0, 2000),
    ],
    ids=["X", "Xdag", "exp_j", "exp_j-log-space"],
)
def test_a_coefficient_past_the_modulus_range_gives_its_representable_image(
    make, j_out, log_factor, ulps
):
    # the true value is 1.7e308 e^log_factor (1 + i) at j_out, with no warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = make(_wide_state(19))
    trunc = out.trunc
    got = out.coeffs[trunc.index_of(Sector.BOSON, 2 * j_out)]
    want = float(mp.mpf(WIDE.real) * mp.exp(log_factor))
    for part in (got.real, got.imag):
        assert abs(part - want) <= ulps * np.spacing(want)
    assert np.count_nonzero(out.coeffs) == 1


@pytest.mark.parametrize(
    "make, j, re_exponent",
    [
        (lambda s: apply_exp_j(s, 1j), 19, 0.0),  # a pure phase
        (lambda s: apply_exp_j(s, 0.5), 19, 9.5),
        (lambda s: apply_operator("X", s), -20, 19.5),
        (lambda s: apply_operator("Xdag", s), -20, 20.5),
    ],
    ids=["exp_j-phase", "exp_j", "X", "Xdag"],
)
def test_a_coefficient_past_the_modulus_range_reports_a_finite_peak(make, j, re_exponent):
    # the figure is log|c| = 710.07 plus Re of the exponent, where numpy's |c| reads inf
    peak = float(mp.log(abs(mp.mpc(WIDE.real, WIDE.imag)))) + re_exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeOverflowError, match="magnitude exp") as caught:
            make(_wide_state(j))
    figure = re.search(r"magnitude exp\(([^)]*)\)", str(caught.value)).group(1)
    assert figure == f"{peak:.3g}"


def _payload(s: StateVector) -> dict:
    """What state_to_json writes, as json.dumps would take it."""
    coeffs = [
        {"im": z.imag, "re": z.real, "two_j": k}
        for z, k in zip(s.coeffs.tolist(), s.two_j_values().tolist())
    ]
    window = {"sector": s.sector.value, "two_jmax": s.trunc.two_jmax}
    return {"coeffs": coeffs, "leakage": s.leakage, **window}


def test_every_window_caches_its_operator_columns_and_json_text():
    # X, Xdag and N multiply by columns _window builds once, and state_to_json
    # fills its template: each keeps the bits of the product it replaced
    rng = np.random.default_rng(36)
    parts = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.0]
    for two_jmax in range(2, MAX_TWO_JMAX + 1):
        trunc = Truncation(two_jmax)
        for sector in Sector:
            j = trunc.j_values(sector)
            c = rng.normal(size=j.size) + 1j * rng.normal(size=j.size)
            s = StateVector(sector, trunc, c, 0.125)
            up, down = c * np.exp(-j - 0.5), c * np.exp(-j + 0.5)
            x, xdag = apply_operator("X", s), apply_operator("Xdag", s)
            assert x.coeffs[1:].tobytes() == up[:-1].tobytes() and x.coeffs[0] == 0.0
            assert xdag.coeffs[:-1].tobytes() == down[1:].tobytes() and xdag.coeffs[-1] == 0.0
            assert (x.leakage, xdag.leakage) == (0.125 + abs(up[-1]), 0.125 + abs(down[0]))
            assert apply_operator("N", s).coeffs.tobytes() == (c * (-j + N_CONST)).tobytes()
            # parts of few digits keep json.dumps quick; the template is what varies
            c = [1.0, 1j] @ (rng.integers(-99, 99, (2, j.size)) / 8.0)
            c[0], c[-1] = complex(*rng.choice(parts, 2)), complex(*rng.choice(parts, 2))
            c[j.size // 2] = complex(*rng.normal(size=2))
            s = StateVector(sector, trunc, c, float(rng.uniform(1e-9, 1.0)))
            assert state_to_json(s) == json.dumps(_payload(s), sort_keys=True)
            window = hilbert._window(two_jmax, sector.parity)
            for column in (window.two_j, window.j, window.n_band, *window.x[:2], *window.xdag[:2]):
                assert not column.flags.writeable


@pytest.mark.parametrize("sector", list(Sector), ids=lambda sector: sector.value)
@pytest.mark.parametrize(
    "kind, sign, slot", [("X", -1, 0), ("X", -1, 9), ("Xdag", 1, 0), ("Xdag", 1, 9)]
)
def test_the_cached_columns_raise_exactly_where_exp_does(kind, sign, slot, sector):
    # moduli a few ulps of 700 either side of the one where top + log|c| = 700,
    # in the slot of the largest weight (0) and elsewhere, where _exp's exact peak passes
    trunc = Truncation(40)
    j = trunc.j_values(sector)
    exponent = -j + 0.5 * sign
    message = f"{kind}{hilbert._COEFF_OVERFLOW}"
    edge = math.exp(700.0 - float(exponent.max()))
    raised = []
    for k in range(-12, 13):
        c = np.ones(j.size, np.complex128)
        c[slot] = edge * (1.0 + k * 2.0**-44)
        try:
            want = theta_module._exp(exponent, message, c)
        except RangeOverflowError as error:
            with pytest.raises(RangeOverflowError, match=f"^{re.escape(str(error))}$"):
                apply_operator(kind, StateVector(sector, trunc, c))
            raised.append(k)
            continue
        got = apply_operator(kind, StateVector(sector, trunc, c)).coeffs
        shifted = got[1:] if kind == "X" else got[:-1]
        assert shifted.tobytes() == (want[:-1] if kind == "X" else want[1:]).tobytes()
    # the moduli cross the limit in the largest weight's slot, and nowhere else
    assert (0 < len(raised) < 25) if slot == 0 else raised == []


def test_a_state_pipeline_on_warm_windows_builds_no_window_constant(monkeypatch):
    # work counts, not clocks: coherent_state makes one theta._exp call, and
    # X, Xdag, N and the JSON round trip read what the window built, so a
    # change that rebuilds a window constant per call fails here
    rng = np.random.default_rng(36)
    points = [
        (PhasePoint(rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0 * math.pi)), sector)
        for sector in Sector
        for _ in range(3)
    ]

    def pipelines():
        for p, sector in points:
            state = coherent_state(p, sector, Truncation(required_two_jmax(p.l)))
            for kind in ("X", "Xdag", "N"):
                state = apply_operator(kind, state)
            state_from_json(state_to_json(state))

    pipelines()  # warm the windows
    exp, calls = theta_module._exp, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return exp(*args, **kwargs)

    for name in ("theta", "hilbert", "coherent"):
        monkeypatch.setattr(importlib.import_module(f"circle_cs.{name}"), "_exp", counted)
    misses = hilbert._window.cache_info().misses
    pipelines()
    assert len(calls) == len(points)
    assert hilbert._window.cache_info().misses == misses
