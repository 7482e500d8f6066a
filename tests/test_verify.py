"""The verify battery as a table: names, case counts, failures, NaN handling."""

from __future__ import annotations

import json
import math
import warnings

from circle_cs import verify

EXPECTED_CASES = (
    ("theta3-inversion", 81),
    ("theta2-inversion", 81),
    ("theta2-half-period-shift", 200),
    ("theta3-general-inversion", 41),
    ("theta-evenness", 200),
    ("theta-logderiv-fd", 76),
    ("algebra-JU-commutator", 79),
    ("X-factorization", 79),
    ("XXdag-ratio", 77),
    ("deformed-algebra", 231),
    ("q-boson-relation", 77),
    ("time-reversal-conjugation", 77),
    ("U-unitarity-interior", 10),
    ("expectJ-lattice-exact", 9),
    ("expectJ-series-agreement", 50),
    ("expectJ-approx-residual", 202),
    ("expectJ-amplitude-window", 202),
    ("expectU-phase", 168),
    ("expectU-modulus-approx", 162),
    ("expectU-series-agreement", 40),
    ("relative-expectU-modulus", 6),
    ("uncertainty-equality", 50),
    ("uncertainty-basis-gap", 77),
    ("momentgen-s-minus-2", 82),
    ("momentgen-ratio", 882),
    ("energy-distribution-gaussian", 525),
    ("energy-distribution-normalization", 21),
    ("linear-evolution-stability", 20),
    ("free-evolution-X", 18),
    ("heisenberg-approx-U", 882),
    ("heisenberg-approx-X", 882),
    ("heisenberg-relative-phase", 882),
    ("coherent-eigenstate-residual", 6),
    ("time-reversal-coherent", 20),
    ("freerotor-conservation", 10),
    ("quadrature-orthonormality", 85),
    ("bargmann-eval-vs-inner", 20),
    ("bargmann-intertwining", 60),
    ("bargmann-functional-actions", 100),
    ("kernel-identity-fixed", 2),
    ("kernel-identity-random", 20),
    ("kernel-reproducing", 26),
    ("kernel-cross-sector", 22),
    ("kernel-idempotency", 5120),
    ("kernel-parity-projection", 2560),
    ("kernel-symmetry", 20),
    ("covariant-symbol", 5),
    ("quadrature-refinement", 4),
)

DOCUMENTED_GAPS = {
    "expectJ-approx-residual",
    "heisenberg-approx-U",
    "heisenberg-approx-X",
    "heisenberg-relative-phase",
}


def test_default_battery_cases_and_failures():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verify.run_verify(verify.load_config(None))
    assert tuple((c.name, c.n_cases) for c in report.checks) == EXPECTED_CASES
    assert {c.name for c in report.checks if not c.passed} == DOCUMENTED_GAPS
    for check in report.checks:
        assert check.passed == (check.max_abs_error <= check.tolerance)


def test_nan_case_fails_its_check_wherever_it_sits(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (
        ("nan-last", 1e-12, lambda ctx: [1e-16, math.nan]),
        ("nan-first", 1e-12, lambda ctx: [math.nan, 1e-16]),
    ))
    report = verify.run_verify(verify.load_config(None))
    assert [c.name for c in report.checks] == ["nan-last", "nan-first"]
    for check in report.checks:
        assert not check.passed
        assert math.isnan(check.max_abs_error)
        assert check.n_cases == 2


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_nan_error_is_written_as_null(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (
        ("nan-last", 1e-12, lambda ctx: [1e-16, math.nan]),
        ("finite", 1e-12, lambda ctx: [1e-16, 2e-16]),
    ))
    text = verify.run_verify(verify.load_config(None)).to_json()
    checks = json.loads(text, parse_constant=_reject_constant)["checks"]
    assert checks[0]["max_abs_error"] is None and checks[0]["passed"] is False
    assert checks[1]["max_abs_error"] == 2e-16 and checks[1]["passed"] is True
