"""Tests of the benchmark itself: seeded inputs, oracles and tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tracing
import worker
import workloads
from circle_cs import cli, verify

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------- inputs


def test_scan_inputs_repeat_for_a_seed_and_differ_across_seeds():
    first = [workloads.scan_argv(7, i) for i in range(24)]
    assert first == [workloads.scan_argv(7, i) for i in range(24)]
    assert first != [workloads.scan_argv(8, i) for i in range(24)]


def test_states_inputs_repeat_for_a_seed_and_differ_across_seeds():
    first = [workloads.states_input(7, i) for i in range(24)]
    assert first == [workloads.states_input(7, i) for i in range(24)]
    assert first != [workloads.states_input(8, i) for i in range(24)]


def test_every_block_of_scan_commands_holds_the_whole_mix():
    for seed in (1, 2):
        for block in range(3):
            combos = set()
            for i in range(8 * block, 8 * block + 8):
                args = workloads.scan_options(workloads.scan_argv(seed, i))
                wide = float(args["--l-max"]) - float(args["--l-min"]) > 4.0
                combos.add((args["--obs"], args["--sector"], wide))
            assert len(combos) == 8


def test_every_scan_command_parses():
    parser = cli.build_parser()
    # seed 102, command 2102 has an upper end of -3.66e-05
    for seed in (1, 102):
        for i in range(2200):
            args = parser.parse_args(workloads.scan_argv(seed, i))
            assert args.l_min < args.l_max and args.n == workloads.SCAN_POINTS


def test_verify_inputs_are_the_default_battery_for_every_seed(tmp_path):
    a = workloads.Verify(1, str(tmp_path)).make_input(0)
    b = workloads.Verify(2, str(tmp_path)).make_input(5)
    assert a == b == ["verify", "--out", str(tmp_path / "verify-report.json")]


# --------------------------------------------------------------- oracles


def _scan_output(seed, index):
    argv = workloads.scan_argv(seed, index)
    return argv, workloads.run_cli(cli, argv)


@pytest.mark.parametrize("index", range(8))
def test_scan_oracle_accepts_the_library_output(index):
    argv, (code, text) = _scan_output(3, index)
    assert workloads.check_scan_csv(argv, code, text) == []


@pytest.mark.parametrize("column", [1, 2, 3])
def test_scan_oracle_flags_a_wrong_csv_value(column):
    argv, (code, text) = _scan_output(3, 1)
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[column] = f"{float(fields[column]) * (1 + 1e-7):.9g}"
    lines[5] = ",".join(fields)
    problems = workloads.check_scan_csv(argv, code, "\n".join(lines) + "\n")
    assert len(problems) == 1 and problems[0].startswith("row 4:")


def test_a_unit_whose_output_cannot_be_parsed_counts_as_failed():
    argv, (code, text) = _scan_output(3, 1)
    garbled = text.replace(text.splitlines()[3].split(",")[1], "abc", 1)

    class Garbled(workloads.Scan):
        def run(self, argv):
            return code, garbled

    tally = worker.Tally()
    tally.run_unit(Garbled(3, ""), 1)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "unreadable output" in tally.problems[0]


def test_scan_oracle_flags_a_missing_row():
    argv, (code, text) = _scan_output(3, 2)
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert workloads.check_scan_csv(argv, code, truncated)


def test_scan_reference_does_not_use_the_theta_module(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called circle_cs.theta")

    # the package re-binds the name `theta` to the function of that name
    monkeypatch.setattr(importlib.import_module("circle_cs.theta"), "_lattice_sum", forbidden)
    workloads.scan_reference("U", "fermion", np.linspace(-20.0, 20.0, 11))
    workloads.scan_reference("J", "boson", np.linspace(-20.0, 20.0, 11))


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "report.json"
    code, text = workloads.run_cli(cli, ["verify", "--out", str(path)])
    return code, text


def test_verify_oracle_accepts_the_default_battery(verify_report):
    code, text = verify_report
    assert workloads.check_verify_report(code, text, text) == []


def test_verify_oracle_flags_a_flipped_verdict(verify_report):
    code, text = verify_report
    report = json.loads(text)
    report["checks"][0]["passed"] = not report["checks"][0]["passed"]
    flipped = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert workloads.check_verify_report(code, flipped, flipped)


def test_verify_oracle_flags_changed_cases_and_exit_code(verify_report):
    code, text = verify_report
    report = json.loads(text)
    report["checks"][3]["n_cases"] += 1
    changed = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert workloads.check_verify_report(code, changed, changed)
    assert workloads.check_verify_report(0, text, text)
    assert workloads.check_verify_report(code, text, text + " ")


def test_verify_oracle_flags_a_report_that_differs_from_the_first(tmp_path, verify_report):
    code, text = verify_report
    unit = workloads.Verify(0, str(tmp_path))
    argv = unit.make_input(0)
    for body, expected in ((text, []), (text.replace("0.1.0", "0.1.1"), ["differs"])):
        with open(argv[-1], "w", encoding="utf-8") as handle:
            handle.write(body)
        problems = unit.check(argv, (code, body))
        assert all(any(word in p for p in problems) for word in expected)
        assert bool(problems) == bool(expected)


def test_a_battery_that_does_not_write_its_report_counts_as_failed(tmp_path, verify_report):
    code, text = verify_report

    class NoReport(workloads.Verify):
        def run(self, argv):
            return code, text

    unit = NoReport(0, str(tmp_path))
    # a correct report left behind by an earlier battery
    with open(unit.report_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    tally = worker.Tally()
    tally.run_unit(unit, 1)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "unreadable output" in tally.problems[0]


def _states_output(index=0):
    return workloads.States(5, "").pipeline(workloads.states_input(5, index))


def test_states_oracle_accepts_the_library_output():
    unit = workloads.States(5, "")
    specs = unit.make_input(1)
    assert len(specs) == workloads.STATES_PER_UNIT
    assert specs[0] == workloads.states_input(5, workloads.STATES_PER_UNIT)
    assert unit.check(specs, unit.run(specs)) == []


def test_states_oracle_flags_a_perturbed_eigenvector():
    out = _states_output()
    x_psi = out["x_psi"].copy()
    x_psi[len(x_psi) // 2] *= 1.0 + 1e-9
    out["x_psi"] = x_psi
    assert workloads.check_states(out)


def test_states_oracle_flags_a_modulus_changed_by_evolve():
    out = _states_output()
    coeffs = out["evolved"].coeffs.copy()
    coeffs[3] *= 1.0 + 1e-12
    out["evolved"] = dataclasses.replace(out["evolved"], coeffs=coeffs)
    assert workloads.check_states(out)


def test_states_oracle_flags_an_inexact_round_trip():
    out = _states_output()
    back = out["back"]
    coeffs = back.coeffs.copy()
    coeffs[2] = np.nextafter(coeffs[2].real, np.inf) + 1j * coeffs[2].imag
    assert workloads.check_states({**out, "back": dataclasses.replace(back, coeffs=coeffs)})
    leaky = dataclasses.replace(back, leakage=np.nextafter(back.leakage, np.inf))
    assert workloads.check_states({**out, "back": leaky})


# --------------------------------------------------------------- tracing


def test_traced_scan_gives_the_same_output_and_restores_the_library():
    import circle_cs.coherent

    original = circle_cs.coherent.gaussian_lattice_sum
    argv = workloads.scan_argv(4, 3)
    plain = workloads.run_cli(cli, argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run_cli(cli, argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert circle_cs.coherent.gaussian_lattice_sum is original
    metrics = tracer.layer_metrics([])
    assert metrics["cli.calls"]["value"] == 1
    assert metrics["theta.calls"]["value"] > 0
    assert metrics["bargmann.calls"]["value"] == 0
    root = [s for s in tracer.spans if s[4] == -1]
    assert len(root) == 1
    total_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    assert total_self == pytest.approx(root[0][3] - root[0][2])


def test_check_times_are_absent_when_the_check_table_changes_shape(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", {"renamed": "table"})
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics(["theta3-inversion"])
    assert not any(key.startswith("verify.check.") for key in metrics)
    assert verify._CHECKS == {"renamed": "table"}


def test_check_times_are_reported_for_the_current_table():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verify._CHECKS[0][2](verify._Context(verify.load_config(None)))
    finally:
        tracer.uninstall()
    names = [name for name, _ in workloads.VERIFY_CASES]
    metrics = tracer.layer_metrics(names)
    assert metrics["verify.check.theta3-inversion_s"]["value"] > 0.0
    assert sum(key.startswith("verify.check.") for key in metrics) == 48


# ------------------------------------------------------------ statistics


def test_tail_latency_reports_rank_and_samples_beyond():
    tail = worker.tail_latency([float(i) for i in range(1, 201)], 99.0)
    assert tail == {"value": 198.0, "percentile": 99.0, "beyond": 2, "samples": 200}
    assert worker.tail_latency([3.0, 1.0, 2.0], 100.0)["value"] == 3.0
    first = worker.tail_latency([3.0, 1.0, 2.0, 9.0], 100.0, units=3)
    assert first == {"value": 3.0, "percentile": 100.0, "beyond": 0, "samples": 3}


def test_speed_scales_by_the_mean_of_recent_samples():
    speed = worker.Speed()
    speed.recent.extend([2e-3] * worker.SPEED_WINDOW)
    assert speed.scale() == pytest.approx(0.5)
    speed.sample()
    assert len(speed.recent) == worker.SPEED_WINDOW
    assert speed.take_pending() > 0.0 and speed.take_pending() == 0.0


def test_speed_samples_between_verify_checks(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", verify._CHECKS)  # restored afterwards
    speed = worker.Speed()
    assert speed.sample_between_checks(verify)
    verify._CHECKS[0][2](verify._Context(verify.load_config(None)))
    assert speed.samples == 1


def test_speed_leaves_a_reshaped_check_table_alone(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", {"renamed": "table"})
    assert not worker.Speed().sample_between_checks(verify)
    assert verify._CHECKS == {"renamed": "table"}


def test_scan_commands_are_labelled_by_width():
    labels = [workloads.Scan(1, "").label(workloads.scan_argv(1, i)) for i in range(8)]
    assert labels.count("wide") == labels.count("narrow") == 4


def test_run_refuses_a_directory_without_the_library(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
