"""End-to-end CLI behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from circle_cs import cli
from circle_cs.bargmann import MAX_N_L, MAX_N_PHI
from circle_cs.coherent import PhasePoint, coherent_state
from circle_cs.errors import ConfigError
from circle_cs.hilbert import MAX_TWO_JMAX, Sector, Truncation, state_from_json, state_to_json
from circle_cs.theta import _BLOCK_TERMS
from circle_cs.verify import CONFIG_CAPS, validate_config

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*args: str):
    """`python -m circle_cs ARGS` in a fresh interpreter (the real entry point)."""
    return subprocess.run(
        [sys.executable, "-m", "circle_cs", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def run(capsys):
    """run(*args): cli.main in this process, with the result of a subprocess run.

    An argparse error leaves main through SystemExit; its code is the
    exit code.  pyproject turns any numpy RuntimeWarning into an error
    here, so a warning fails the test rather than reaching stderr.
    """

    def call(*args: str) -> subprocess.CompletedProcess:
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), code, captured.out, captured.err)

    return call


def test_theta_prints_real_value(run):
    res = run_cli("theta", "--kind", "3")
    assert res.returncode == 0
    assert res.stdout == "1.00010345\n"
    # v = 1e17 is an even integer, which the reduction takes off exactly
    assert run("theta", "--kind", "3", "--v", "1e17").stdout == "1.00010345\n"


def test_theta_prints_complex_value(run):
    res = run("theta", "--kind", "3", "--v", "0.25", "--v-im", "0.1", "--tau-im", "1.0")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("j")
    assert "+" in res.stdout or "-" in res.stdout


def test_theta_rejects_bad_lattice_width(run):
    # ThetaArg refuses the modulus, for a NaN as for a negative Im(tau)
    res = run("theta", "--kind", "3", "--tau-im", "-1.0")
    assert res.returncode == 2
    assert res.stderr == "error: tau = -1j is not in the upper half-plane\n"
    res = run("theta", "--kind", "3", "--tau-im", "nan")
    assert res.returncode == 2
    assert res.stderr == "error: theta modulus tau must be finite\n"


def test_expect_j_json_fields(run):
    res = run("expect", "--l", "0.25", "--obs", "J")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["exact"] == 0.249675014
    assert payload["deviation"] == 0.000324986364
    assert payload["sector"] == "boson"


def test_expect_output_is_deterministic(run):
    a = run("expect", "--l", "0.8", "--phi", "2.0", "--obs", "U", "--sector", "fermion")
    b = run("expect", "--l", "0.8", "--phi", "2.0", "--obs", "U", "--sector", "fermion")
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_expect_accepts_negative_exponent(run):
    res = run("expect", "--l", "-2.5e-1", "--obs", "J")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["l"] == -0.25
    assert payload["exact"] == -0.249675014


def test_digits_outside_range_is_config_error(run):
    for digits in ("-1", "0", "18"):
        res = run("expect", "--l", "0.25", "--obs", "J", "--digits", digits)
        assert res.returncode == 2
        assert "--digits" in res.stderr
        assert "Traceback" not in res.stderr
    res = run("expect", "--l", "0.25", "--obs", "J", "--digits", "17")
    assert res.returncode == 0


def test_config_error_exits_2_without_traceback_in_a_real_process():
    res = run_cli("expect", "--l", "0.25", "--obs", "J", "--digits", "18")
    assert res.returncode == 2
    assert res.stderr == "error: --digits must lie in 1..17, got 18\n"


def test_expect_qp_reports_saturation(run):
    res = run("expect", "--l", "0.0", "--obs", "QP")
    payload = json.loads(res.stdout)
    assert payload["saturated"] is True
    assert payload["bound"] == 1.59726402


@pytest.mark.parametrize("sector", ["boson", "fermion"])
@pytest.mark.parametrize("l", ["0", "-5", "-10", "-12", "-15", "-20"])
def test_expect_qp_is_saturated_at_every_scale(l, sector, run):
    # product and bound grow as e^(-2l) and sit one rounding apart, which passes 1e-12 from l = -5
    res = run("expect", f"--l={l}", "--obs", "QP", "--sector", sector)
    assert res.returncode == 0
    assert json.loads(res.stdout)["saturated"] is True


def test_expect_rejects_unknown_observable(run):
    res = run("expect", "--l", "0.1", "--obs", "Z")
    assert res.returncode == 2


def test_scan_to_stdout(run):
    res = run("scan", "--obs", "J", "--l-min", "0", "--l-max", "0.5", "--n", "3", "--out", "-")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "l,exact,approx,deviation"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] == "0"


def test_scan_needs_at_least_two_points(run):
    res = run("scan", "--obs", "J", "--l-min", "0", "--l-max", "1", "--n", "1", "--out", "-")
    assert res.returncode == 2


def test_scan_rejects_inverted_range(run):
    res = run("scan", "--obs", "U", "--l-min", "1", "--l-max", "0", "--n", "5", "--out", "-")
    assert res.returncode == 2


def test_scan_accepts_negative_exponent_bound(run):
    res = run("scan", "--obs", "J", "--l-min", "-1", "--l-max", "-3.66e-05", "--n", "3",
                  "--out", "-")
    assert res.returncode == 0
    assert res.stdout.strip().split("\n")[-1].startswith("-3.66e-05,")


def test_scan_rejects_infinite_bound(run):
    res = run("scan", "--obs", "J", "--l-min", "0", "--l-max", "inf", "--n", "3", "--out", "-")
    assert res.returncode == 2
    assert "finite" in res.stderr
    assert "Warning" not in res.stderr


@pytest.mark.parametrize("obs", ["J", "U"])
def test_scan_rejects_a_span_that_overflows(obs, run):
    # both bounds are finite, but l_max - l_min is not: linspace would warn
    res = run("scan", "--obs", obs, "--l-min=-1e308", "--l-max=1e308", "--n", "5", "--out", "-")
    assert res.returncode == 2
    assert "overflows" in res.stderr
    assert "Warning" not in res.stderr


def test_readme_scan_matches_golden_csv(run):
    # scan.csv of the README command, as written by the per-point scan loop
    res = run("scan", "--obs", "J", "--l-min", "0", "--l-max", "1", "--n", "101",
                  "--sector", "boson", "--out", "-")
    assert res.returncode == 0
    assert res.stdout == (DATA / "scan_J_boson_0_1_101.csv").read_text()


def main_stdout(capsys, *args: str) -> str:
    """Stdout of one in-process cli.main call, which must exit 0."""
    assert cli.main(list(args)) == 0
    return capsys.readouterr().out


def test_wide_fermion_u_scan_matches_golden_csv(capsys):
    out = main_stdout(capsys, "scan", "--obs", "U", "--l-min", "-20", "--l-max", "20",
                      "--n", "101", "--sector", "fermion", "--digits", "17", "--out", "-")
    assert out == (DATA / "scan_U_fermion_m20_20_101_digits17.csv").read_text()


def test_distribution_matches_golden_csv(capsys):
    out = main_stdout(capsys, "distribution", "--l", "0.7", "--digits", "17")
    assert out == (DATA / "distribution_l0.7_digits17.csv").read_text()


def test_state_json_matches_golden_text():
    state = coherent_state(PhasePoint(0.37, 1.1), Sector.FERMION, Truncation(21))
    golden = (DATA / "state_fermion_l0.37_phi1.1_w21.json").read_text()
    assert state_to_json(state) + "\n" == golden
    assert np.array_equal(state_from_json(golden).coeffs, state.coeffs)


# The behaviour oracle: verify stdout of four configs, whose goldens a
# change that moves a last digit updates (and says so).
VERIFY_GOLDENS = {
    "verify_default.json": {},
    "verify_seed7_cases20.json": {"seed": 7, "random_cases": 20},
    "verify_nl100_nphi32.json": {"n_l": 100, "n_phi": 32},
    "verify_jmax60_nl8_nphi8.json": {"two_jmax": 60, "n_l": 8, "n_phi": 8},
}


@pytest.mark.parametrize("golden", VERIFY_GOLDENS)
def test_verify_report_matches_golden(run, tmp_path, golden):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(VERIFY_GOLDENS[golden]))
    res = run("verify", "--config", str(config))
    # the four documented approximation gaps fail by construction
    assert res.returncode == 1
    assert res.stdout == (DATA / golden).read_text()


def test_wide_scans_match_golden_hashes(capsys):
    # 10 001 points a scan, too large to commit: one sha256 each
    golden = json.loads((DATA / "scan_m20_20_10001_digits17_sha256.json").read_text())
    for key, digest in golden.items():
        obs, sector = key.split()
        out = main_stdout(capsys, "scan", "--obs", obs, "--l-min", "-20", "--l-max", "20",
                          "--n", "10001", "--sector", sector, "--digits", "17", "--out", "-")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


def test_main_builds_its_parser_once():
    cli._shared_parser.cache_clear()
    for _ in range(2):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
    assert cli._shared_parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    res = subprocess.run(
        [sys.executable, "-c",
         "from circle_cs import cli; print(cli._shared_parser.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert res.stdout == "0\n"


def test_reused_parser_carries_no_sector_over(capsys):
    args = ("expect", "--l", "0.3", "--phi", "0.4", "--obs", "U")
    boson = main_stdout(capsys, *args)
    fermion = main_stdout(capsys, *args, "--sector", "fermion")
    assert json.loads(fermion)["sector"] == "fermion"
    assert main_stdout(capsys, *args) == boson
    assert json.loads(boson)["sector"] == "boson"


def test_reused_parser_carries_no_digits_over(capsys):
    assert main_stdout(capsys, "theta", "--kind", "3", "--digits", "17") == "1.0001034463724077\n"
    assert main_stdout(capsys, "theta", "--kind", "3") == "1.00010345\n"


def test_reused_parser_recovers_after_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["expect", "--l", "0.1", "--obs", "Z"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main_stdout(capsys, "theta", "--kind", "3") == "1.00010345\n"


def test_scan_writes_file(tmp_path, run):
    out = tmp_path / "scan.csv"
    res = run("scan", "--obs", "U", "--l-min", "-1", "--l-max", "1", "--n", "9", "--out", str(out))
    assert res.returncode == 0
    assert f"wrote {out}" in res.stdout
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 10


def test_scan_unwritable_path_is_io_error():
    res = run_cli("scan", "--obs", "J", "--l-min", "0", "--l-max", "1", "--n", "3",
                  "--out", "/nonexistent-dir/scan.csv")
    assert res.returncode == 3


def test_evolve_linear_summary_and_state_file(tmp_path, run):
    out = tmp_path / "state.json"
    res = run(
        "evolve", "--l", "0.5", "--phi", "1.0", "--hamiltonian", "linear",
        "--omega", "0.7", "--t", "1.5", "--out", str(out),
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["residual"] < 1e-14
    assert payload["leakage"] == 0.0
    state = state_from_json(out.read_text())
    assert state.norm() == payload["norm"] or abs(state.norm() - payload["norm"]) < 1e-8


def test_evolve_free_conserves_j(run):
    res = run("evolve", "--l", "0.3", "--phi", "0.2", "--t", "2.5", "--sector", "fermion")
    payload = json.loads(res.stdout)
    assert payload["residual"] < 1e-13
    assert payload["hamiltonian"] == "free"


@pytest.mark.parametrize("argv, expected", [
    (
        ["--l", "0.5", "--phi", "0.0", "--hamiltonian", "linear", "--omega", "0.3", "--t", "2.0"],
        '{"expect_J": 0.5, "expect_U_im": 0.439834989691203, "expect_U_re": 0.6429050218147704, '
        '"hamiltonian": "linear", "l": 0.5, "leakage": 0.0, "norm": 1.5085225763553423, '
        '"omega": 0.3, "phi": 0.0, "residual": 0.0, "sector": "boson", "t": 2.0, "two_jmax": 40}\n',
    ),
    (
        ["--l", "-0.7", "--phi", "2.5", "--sector", "fermion", "--t", "1.3"],
        '{"expect_J": -0.6996909294811552, "expect_U_im": 0.5098645670316452, '
        '"expect_U_re": -0.008301533935735956, "hamiltonian": "free", "l": -0.7, "leakage": 0.0, '
        '"norm": 1.700969622344789, "phi": 2.5, "residual": 0.0, "sector": "fermion", "t": 1.3, '
        '"two_jmax": 40}\n',
    ),
], ids=["linear", "free"])
def test_evolve_summary_is_pinned_to_17_digits(argv, expected, run):
    res = run("evolve", *argv, "--digits", "17")
    assert res.returncode == 0
    assert res.stdout == expected


def test_evolve_window_too_small_is_domain_error(run):
    res = run("evolve", "--l", "3.0", "--t", "1.0", "--two-jmax", "12")
    assert res.returncode == 2


@pytest.mark.parametrize("two_jmax", [MAX_TWO_JMAX + 1, 10**12])
def test_evolve_window_above_the_cap_is_config_error(two_jmax, run, no_window):
    # Truncation holds the cap; the command exits 2 with its one-line message
    res = run("evolve", "--l", "0.3", "--t", "1", "--two-jmax", str(two_jmax))
    assert res.returncode == 2
    assert res.stderr == f"error: two_jmax must be an integer in [2, 600], got {two_jmax}\n"


@pytest.mark.parametrize("jmax", [MAX_TWO_JMAX // 2 + 1, 10**12])
def test_distribution_window_above_the_cap_is_config_error(jmax, run, no_window):
    res = run("distribution", "--l", "0.3", "--jmax", str(jmax))
    assert res.returncode == 2
    # its levels form the window |2j| <= 2 jmax
    assert res.stderr == f"error: two_jmax must be an integer in [2, 600], got {2 * jmax}\n"


def test_windows_at_the_cap_are_accepted(run):
    assert run("evolve", "--l", "0.3", "--t", "1", "--two-jmax", "600").returncode == 0
    assert run("distribution", "--l", "0.3", "--jmax", "300").returncode == 0


@pytest.mark.parametrize("hamiltonian", ["free", "linear"])
def test_evolve_non_finite_phase_is_domain_error(hamiltonian, run):
    res = run("evolve", "--l", "0.1", "--t", "1e308", "--hamiltonian", hamiltonian)
    assert res.returncode == 2
    assert "t = 1e+308" in res.stderr
    assert "Warning" not in res.stderr


def test_distribution_past_the_old_overflow(capsys):
    # S(2l) passes e^700 from |l| of about 26.45; the probabilities never do
    main_stdout(capsys, "distribution", "--l", "27")
    out = main_stdout(capsys, "distribution", "--l", "30", "--jmax", "40", "--digits", "17")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 81
    assert abs(math.fsum(float(row[1]) for row in rows) - 1.0) <= 1e-12


def test_distribution_stdout(run):
    res = run("distribution", "--l", "0.8", "--jmax", "3")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "j,prob,approx,deviation"
    assert len(lines) == 8


def test_distribution_fermion_needs_flag(run):
    # energy_distribution owns the rule; the command reports its one-line error
    res = run("distribution", "--l", "0.0", "--sector", "fermion")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    res = run("distribution", "--l", "0.0", "--sector", "fermion", "--allow-fermion", "--jmax", "4")
    assert res.returncode == 0
    assert res.stdout.splitlines()[1].startswith("-3.5,")


def test_verify_rejects_unknown_config_key(tmp_path, run):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"bogus": 1}')
    res = run("verify", "--config", str(cfg))
    assert res.returncode == 2
    assert "unknown config keys" in res.stderr


def test_verify_rejects_oversized_window(tmp_path, run):
    # rejected while validating, before any matrix is built
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"two_jmax": 30000}')
    res = run("verify", "--config", str(cfg))
    assert res.returncode == 2
    assert "two_jmax must be an integer in [2, 600], got 30000" in res.stderr


# the window, series and quadrature caps are those of Truncation,
# SeriesControl and Quadrature, the rest the battery's CONFIG_CAPS
ALL_CAPS = {
    **CONFIG_CAPS,
    "two_jmax": MAX_TWO_JMAX,
    "series_n_max": _BLOCK_TERMS,
    "n_l": MAX_N_L,
    "n_phi": MAX_N_PHI,
}


@pytest.mark.parametrize("key", sorted(ALL_CAPS))
def test_verify_config_caps(key):
    # validation only: the capped battery is never run here
    cap = ALL_CAPS[key]
    assert validate_config({key: cap})[key] == cap
    with pytest.raises(ConfigError, match=key):
        validate_config({key: cap + 2})


@pytest.mark.parametrize(
    "tol", [0, 1.0, -1e-14, 10**400, float("nan"), True, "1e-14", None, [1e-14], {}]
)
def test_verify_config_series_tol_range(tol):
    # SeriesControl alone judges it: an int past the double range is refused, not
    # converted, and so is every JSON value that is not one number
    with pytest.raises(ConfigError, match=r"^series_tol must lie in \(0, 1\), got "):
        validate_config({"series_tol": tol})


@pytest.mark.parametrize("overrides, message", [
    ({"n_l": 1}, "n_l must be an integer in [2, 300], got 1"),
    ({"n_phi": 63}, "n_phi must be an even integer in [4, 1024], got 63"),
    ({"n_phi": 2}, "n_phi must be an even integer in [4, 1024], got 2"),
    ({"n_l": 40.0}, "n_l must be an integer in [2, 300], got 40.0"),
    ({"n_phi": "64"}, "n_phi must be an even integer in [4, 1024], got '64'"),
    ({"n_phi": True}, "n_phi must be an even integer in [4, 1024], got True"),
], ids=["n_l", "n_phi-odd", "n_phi-small", "n_l-float", "n_phi-str", "n_phi-bool"])
def test_verify_config_quadrature_orders(overrides, message):
    with pytest.raises(ConfigError) as info:
        validate_config(overrides)
    assert str(info.value) == message


@pytest.mark.parametrize("key, value, message", [
    ("two_jmax", 40.0, "two_jmax must be an integer in [2, 600], got 40.0"),
    ("series_n_max", 200.5, "series_n_max must be an integer in [1, 65536], got 200.5"),
    ("seed", 7.0, "seed must be an integer >= 0, got 7.0"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("random_cases", True, "random_cases must be an integer in [1, 10000], got True"),
])
def test_verify_config_integers_go_through_one_gate(key, value, message):
    # a JSON 40.0 is refused, with the range the value must lie in
    with pytest.raises(ConfigError) as info:
        validate_config({key: value})
    assert str(info.value) == message


def test_verify_honors_environment_config(tmp_path, run, monkeypatch):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"two_jmax": 4}')
    monkeypatch.setenv("CIRCLE_CS_CONFIG", str(cfg))
    res = run("verify")
    assert res.returncode == 2
    assert "two_jmax" in res.stderr


def test_verify_small_config_report(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text('{"two_jmax": 24, "n_l": 12, "n_phi": 16, "random_cases": 3, "seed": 5}')
    out = tmp_path / "report.json"
    res = run_cli("verify", "--config", str(cfg), "--out", str(out))
    assert res.returncode in (0, 1)
    report = json.loads(res.stdout)
    assert res.returncode == (0 if report["all_passed"] else 1)
    assert report == json.loads(out.read_text())
    assert {"version", "config", "checks", "all_passed", "notes"} <= set(report)
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for check in report["checks"]:
        assert check["passed"] == (check["max_abs_error"] <= check["tolerance"])


def test_missing_subcommand_exits_2(run):
    res = run()
    assert res.returncode == 2


# ------------------------------------------------------------ one % per table


def _per_value_csv(header, columns, digits):
    rows = (",".join(format(x, f".{digits}g") for x in row) for row in zip(*columns))
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("digits", range(1, 18))
def test_csv_matches_per_value_format(digits):
    rng = np.random.default_rng(digits)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 0.1, 1.0, -1.5]
    values = np.concatenate([special, rng.standard_normal(30) * 10.0 ** rng.integers(-300, 300, 30)])
    columns = (values, values[::-1], np.roll(values, 3), -values)
    expected = _per_value_csv("a,b,c,d", columns, digits)
    assert cli._csv("a,b,c,d", columns, digits) == expected
    assert cli._csv("a,b", columns[:2], digits) == _per_value_csv("a,b", columns[:2], digits)


class _Allocated(Exception):
    pass


@pytest.fixture
def no_grid(monkeypatch):
    """Make building the scan grid raise _Allocated, so --n is checked before allocation."""

    def refuse(*args, **kwargs):
        raise _Allocated

    monkeypatch.setattr(cli.np, "linspace", refuse)


@pytest.mark.parametrize("n", [cli.MAX_SCAN_POINTS + 1, 10**12, 1, -5])
def test_scan_points_outside_the_cap_are_config_error(n, run, no_grid):
    res = run("scan", "--obs", "U", "--l-min", "0", "--l-max", "1", "--n", str(n), "--out", "-")
    assert res.returncode == 2
    assert res.stderr == f"error: --n must lie in 2..1000000, got {n}\n"


@pytest.mark.parametrize("n", [2, cli.MAX_SCAN_POINTS])
def test_scan_points_inside_the_cap_reach_the_grid(n, run, no_grid):
    with pytest.raises(_Allocated):
        run("scan", "--obs", "J", "--l-min", "0", "--l-max", "1", "--n", str(n), "--out", "-")


def test_uncertainty_past_the_double_range_exits_2(run):
    res = run("expect", "--l", "-1000", "--obs", "QP")
    assert res.returncode == 2
    assert res.stderr == "error: uncertainty bound at l = -1000.0 exceeds the floating-point range\n"
