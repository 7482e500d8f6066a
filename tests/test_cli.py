"""End-to-end CLI behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from circle_cs.errors import ConfigError
from circle_cs.hilbert import state_from_json
from circle_cs.verify import CONFIG_CAPS, validate_config


def run_cli(*args: str, env_extra: dict | None = None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "circle_cs", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_theta_prints_real_value():
    res = run_cli("theta", "--kind", "3")
    assert res.returncode == 0
    assert res.stdout == "1.00010345\n"


def test_theta_prints_complex_value():
    res = run_cli("theta", "--kind", "3", "--v", "0.25", "--v-im", "0.1", "--tau-im", "1.0")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("j")
    assert "+" in res.stdout or "-" in res.stdout


def test_theta_rejects_bad_lattice_width():
    res = run_cli("theta", "--kind", "3", "--tau-im", "-1.0")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_expect_j_json_fields():
    res = run_cli("expect", "--l", "0.25", "--obs", "J")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["exact"] == 0.249675014
    assert payload["deviation"] == 0.000324986364
    assert payload["sector"] == "boson"


def test_expect_output_is_deterministic():
    a = run_cli("expect", "--l", "0.8", "--phi", "2.0", "--obs", "U", "--sector", "fermion")
    b = run_cli("expect", "--l", "0.8", "--phi", "2.0", "--obs", "U", "--sector", "fermion")
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_expect_accepts_negative_exponent():
    res = run_cli("expect", "--l", "-2.5e-1", "--obs", "J")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["l"] == -0.25
    assert payload["exact"] == -0.249675014


def test_digits_outside_range_is_config_error():
    for digits in ("-1", "0", "18"):
        res = run_cli("expect", "--l", "0.25", "--obs", "J", "--digits", digits)
        assert res.returncode == 2
        assert "--digits" in res.stderr
        assert "Traceback" not in res.stderr
    res = run_cli("expect", "--l", "0.25", "--obs", "J", "--digits", "17")
    assert res.returncode == 0


def test_expect_qp_reports_saturation():
    res = run_cli("expect", "--l", "0.0", "--obs", "QP")
    payload = json.loads(res.stdout)
    assert payload["saturated"] is True
    assert payload["bound"] == 1.59726402


def test_expect_rejects_unknown_observable():
    res = run_cli("expect", "--l", "0.1", "--obs", "Z")
    assert res.returncode == 2


def test_scan_to_stdout():
    res = run_cli("scan", "--obs", "J", "--l-min", "0", "--l-max", "0.5", "--n", "3", "--out", "-")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "l,exact,approx,deviation"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] == "0"


def test_scan_needs_at_least_two_points():
    res = run_cli("scan", "--obs", "J", "--l-min", "0", "--l-max", "1", "--n", "1", "--out", "-")
    assert res.returncode == 2


def test_scan_rejects_inverted_range():
    res = run_cli("scan", "--obs", "U", "--l-min", "1", "--l-max", "0", "--n", "5", "--out", "-")
    assert res.returncode == 2


def test_scan_accepts_negative_exponent_bound():
    res = run_cli("scan", "--obs", "J", "--l-min", "-1", "--l-max", "-3.66e-05", "--n", "3",
                  "--out", "-")
    assert res.returncode == 0
    assert res.stdout.strip().split("\n")[-1].startswith("-3.66e-05,")


def test_scan_rejects_infinite_bound():
    res = run_cli("scan", "--obs", "J", "--l-min", "0", "--l-max", "inf", "--n", "3", "--out", "-")
    assert res.returncode == 2
    assert "finite" in res.stderr
    assert "Warning" not in res.stderr


def test_scan_writes_file(tmp_path):
    out = tmp_path / "scan.csv"
    res = run_cli("scan", "--obs", "U", "--l-min", "-1", "--l-max", "1", "--n", "9", "--out", str(out))
    assert res.returncode == 0
    assert f"wrote {out}" in res.stdout
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 10


def test_scan_unwritable_path_is_io_error():
    res = run_cli("scan", "--obs", "J", "--l-min", "0", "--l-max", "1", "--n", "3",
                  "--out", "/nonexistent-dir/scan.csv")
    assert res.returncode == 3


def test_evolve_linear_summary_and_state_file(tmp_path):
    out = tmp_path / "state.json"
    res = run_cli(
        "evolve", "--l", "0.5", "--phi", "1.0", "--hamiltonian", "linear",
        "--omega", "0.7", "--t", "1.5", "--out", str(out),
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["residual"] < 1e-14
    assert payload["leakage"] == 0.0
    state = state_from_json(out.read_text())
    assert state.norm() == payload["norm"] or abs(state.norm() - payload["norm"]) < 1e-8


def test_evolve_free_conserves_j():
    res = run_cli("evolve", "--l", "0.3", "--phi", "0.2", "--t", "2.5", "--sector", "fermion")
    payload = json.loads(res.stdout)
    assert payload["residual"] < 1e-13
    assert payload["hamiltonian"] == "free"


def test_evolve_window_too_small_is_domain_error():
    res = run_cli("evolve", "--l", "3.0", "--t", "1.0", "--two-jmax", "12")
    assert res.returncode == 2


@pytest.mark.parametrize("hamiltonian", ["free", "linear"])
def test_evolve_non_finite_phase_is_domain_error(hamiltonian):
    res = run_cli("evolve", "--l", "0.1", "--t", "1e308", "--hamiltonian", hamiltonian)
    assert res.returncode == 2
    assert "t = 1e+308" in res.stderr
    assert "Warning" not in res.stderr


def test_distribution_stdout():
    res = run_cli("distribution", "--l", "0.8", "--jmax", "3")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "j,prob,approx,deviation"
    assert len(lines) == 8


def test_distribution_fermion_needs_flag():
    res = run_cli("distribution", "--l", "0.0", "--sector", "fermion")
    assert res.returncode == 2
    res = run_cli("distribution", "--l", "0.0", "--sector", "fermion", "--allow-fermion", "--jmax", "4")
    assert res.returncode == 0
    assert res.stdout.splitlines()[1].startswith("-3.5,")


def test_verify_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"bogus": 1}')
    res = run_cli("verify", "--config", str(cfg))
    assert res.returncode == 2
    assert "unknown config keys" in res.stderr


def test_verify_rejects_oversized_window(tmp_path):
    # rejected while validating, before any matrix is built
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"two_jmax": 30000}')
    res = run_cli("verify", "--config", str(cfg))
    assert res.returncode == 2
    assert "two_jmax must be <= 600" in res.stderr


@pytest.mark.parametrize("key", sorted(CONFIG_CAPS))
def test_verify_config_caps(key):
    # validation only: the capped battery is never run here
    cap = CONFIG_CAPS[key]
    assert validate_config({key: cap})[key] == cap
    with pytest.raises(ConfigError, match=key):
        validate_config({key: cap + 2})


def test_verify_honors_environment_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"two_jmax": 4}')
    res = run_cli("verify", env_extra={"CIRCLE_CS_CONFIG": str(cfg)})
    assert res.returncode == 2
    assert "two_jmax" in res.stderr


def test_verify_small_config_report(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text('{"two_jmax": 24, "n_l": 12, "n_phi": 16, "random_cases": 3, "seed": 5}')
    out = tmp_path / "report.json"
    res = run_cli("verify", "--config", str(cfg), "--out", str(out))
    assert res.returncode in (0, 1)
    report = json.loads(res.stdout)
    assert report == json.loads(out.read_text())
    assert {"version", "config", "checks", "all_passed", "notes"} <= set(report)
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for check in report["checks"]:
        assert check["passed"] == (check["max_abs_error"] <= check["tolerance"])


def test_missing_subcommand_exits_2():
    res = run_cli()
    assert res.returncode == 2
