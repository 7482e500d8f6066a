"""One fresh process running one workload; started by run.py.

Modes:
    setup    cold start only: import circle_cs, load the verify config,
             run and check the first unit; report the elapsed time
    measure  cold start, then run units back to back (a closed loop with
             one client) for --seconds; every output is checked outside
             the timed region
    trace    cold start, then a fixed seeded set of units, each run
             untraced and then traced; report per-layer metrics

Setup and measure times are scaled to a reference host speed (see
Speed).  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import array
import collections
import functools
import json
import math
import os
import resource
import statistics
import sys
import time

# Tail percentile per workload, fixed so that commits compare like with
# like.  A 30 s run on a 2-core machine holds about 1600 scan commands
# or 2000 state batches.  Their p99 (15 to 25 samples beyond) swung from
# run to run with bursts of host slowness that the calibration does not
# see: over ten seeds its quartile spread was 0.11 on scan and 0.28 on
# states, whose units are alike, so its p99 measured the host.  p90
# (150 to 200 beyond) is the tail that held still.  A verify run holds
# about 12 batteries, so no percentile above the median has ten samples
# beyond it.  Its tail is taken over the first TAIL_UNITS batteries, a
# fixed sample count, so that a faster battery, which fits more
# batteries into a run, does not raise it; and it is the second highest
# of them (p87.5, one beyond), because about one battery in twenty
# meets such a burst, which made the maximum swing from run to run.
TAIL_PERCENTILE = {"verify": 87.5, "scan": 90.0, "states": 90.0}
TAIL_UNITS = {"verify": 8}
# Units in the traced pass per second of --seconds; a fixed count per
# (seed, seconds) makes the traced counts repeat exactly.
TRACE_UNITS_PER_SECOND = {"verify": 0.1, "scan": 10.0, "states": 10.0}
# Latency slots of a measuring run, about 50 times what a 30 s states
# run uses at this commit; a run that fills them stops early.
LATENCY_CAPACITY = 1 << 17
# Host speed calibration; see Speed.
CALIBRATION_REPS = 80
REF_SAMPLE_S = 1e-3
SPEED_WINDOW = 48
_MAX_PROBLEMS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", required=True, help="repository checkout holding src/circle_cs")
    parser.add_argument("--outdir", required=True, help="directory for reports and spans")
    return parser.parse_args(argv)


class Tally:
    """Attempted and failed units, with the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_input = None

    def run_unit(self, workload, index: int) -> float:
        """Run unit `index`, check its output and return its latency."""
        spec = self.last_input = workload.make_input(index)
        start = time.perf_counter()
        try:
            output = workload.run(spec)
        except (Exception, SystemExit) as exc:  # a failed unit is counted, not fatal
            latency = time.perf_counter() - start
            problems = [f"unit {index} raised {exc!r}"]
        else:
            latency = time.perf_counter() - start
            try:
                problems = [f"unit {index}: {p}" for p in workload.check(spec, output)]
            except (OSError, ValueError) as exc:  # output too malformed to check
                problems = [f"unit {index}: unreadable output: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: _MAX_PROBLEMS - len(self.problems)])
        return latency


class Speed:
    """Scales times to a reference host speed.

    The 2-core host this benchmark was built on shares its cores, and
    its speed drifts by up to 1.6x over tens of seconds; process CPU
    time drifts with wall time, so it does not help.  A calibration
    sample is a fixed kernel of small numpy operations that never calls
    circle_cs, timed between units, or between the checks of a verify
    battery.  A time is multiplied by REF_SAMPLE_S over the mean of the
    last SPEED_WINDOW samples, so it reads as the time on a host where
    one sample takes 1 ms.
    """

    def __init__(self):
        import numpy as np  # after circle_cs, whose import the cold start times

        self._x = np.linspace(-3.0, 3.0, 61)
        self._np = np
        self.recent = collections.deque(maxlen=SPEED_WINDOW)
        self.between_checks = False
        self.pending = 0.0
        self.samples = 0
        self.sampled_s = 0.0

    def sample(self) -> None:
        np, x = self._np, self._x
        start = time.perf_counter()
        total = 0.0
        for k in range(CALIBRATION_REPS):
            y = np.exp(-((x - 0.01 * k) ** 2))
            total += float(np.sum(y * x)) / float(np.sum(y))
        elapsed = time.perf_counter() - start
        self.recent.append(elapsed)
        self.pending += elapsed
        self.samples += 1
        self.sampled_s += elapsed

    def fill(self) -> None:
        for _ in range(SPEED_WINDOW):
            self.sample()
        self.take_pending()

    def take_pending(self) -> float:
        """Seconds spent sampling since the last call."""
        pending, self.pending = self.pending, 0.0
        return pending

    def scale(self) -> float:
        return REF_SAMPLE_S * len(self.recent) / sum(self.recent)

    def sample_between_checks(self, verify) -> bool:
        """Take a sample after each check of verify's table, if it has its shape."""
        import tracing

        table = tracing.check_table(verify)
        if table is None:
            return False

        def then_sample(fn):
            @functools.wraps(fn)
            def check(ctx):
                result = fn(ctx)
                self.sample()
                return result

            return check

        verify._CHECKS = tuple((name, tol, then_sample(fn)) for name, tol, fn in table)
        self.between_checks = True
        return True


def _cold_start(args, tally: Tally):
    """Import the library, load the config and run the first unit.

    Returns (workload, seconds, speed); speed is None in trace mode,
    which does not calibrate.
    """
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import circle_cs
    from circle_cs import verify

    if not os.path.abspath(circle_cs.__file__).startswith(src + os.sep):
        raise SystemExit(f"circle_cs imported from {circle_cs.__file__}, not from {src}")
    verify.load_config(None)
    import workloads

    workload = workloads.make(args.workload, args.seed, args.outdir)
    speed = None if args.mode == "trace" else Speed()
    if speed is not None and args.workload == "verify":
        speed.sample_between_checks(verify)
    tally.run_unit(workload, 0)
    elapsed = time.perf_counter() - start
    if speed is not None:
        elapsed -= speed.take_pending()
    return workload, elapsed, speed


def tail_latency(latencies, percentile: float, units: int | None = None) -> dict:
    """Nearest-rank `percentile` of the first `units` latencies (all if None),
    with the count beyond it."""
    ordered = sorted(latencies[:units])
    n = len(ordered)
    value = ordered[max(0, math.ceil(percentile / 100.0 * n) - 1)]
    beyond = sum(1 for x in ordered if x > value)
    return {"value": value, "percentile": percentile, "beyond": beyond, "samples": n}


def _measure(args, workload, tally: Tally, speed: Speed) -> dict:
    # allocated and touched up front, so that peak_rss_mb does not grow
    # with the number of units a faster program fits into the run
    scaled = array.array("d", bytes(8 * LATENCY_CAPACITY))
    wall = array.array("d", bytes(8 * LATENCY_CAPACITY))
    label = getattr(workload, "label", None)
    by_label: dict[str, float] = {}
    busy = busy_wall = 0.0
    units = 0
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end and units < LATENCY_CAPACITY:
        latency = tally.run_unit(workload, units + 1) - speed.take_pending()
        if not speed.between_checks:
            speed.sample()
            speed.take_pending()
        wall[units] = latency
        scaled[units] = latency * speed.scale()
        busy += scaled[units]
        busy_wall += latency
        if label is not None:
            key = label(tally.last_input)
            by_label[key] = by_label.get(key, 0.0) + scaled[units]
        units += 1
    scaled, wall = scaled[:units], wall[:units]
    return {
        "units": units,
        "busy_s": busy,
        "capacity_reached": units == LATENCY_CAPACITY,
        "p50_s": statistics.median(scaled),
        "tail": tail_latency(scaled, TAIL_PERCENTILE[args.workload], TAIL_UNITS.get(args.workload)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall": {"units_per_s": units / busy_wall, "latency_p50_ms": 1e3 * statistics.median(wall)},
        "time_share": {key: value / busy for key, value in sorted(by_label.items())},
        "calibration": {
            "between": "checks" if speed.between_checks else "units",
            "samples": speed.samples,
            "mean_sample_ms": 1e3 * speed.sampled_s / speed.samples,
        },
    }


def _trace(args, workload, tally: Tally) -> dict:
    import tracing
    import workloads

    count = max(1, int(TRACE_UNITS_PER_SECOND[args.workload] * args.seconds))
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    # each unit runs untraced and then traced, so drift in machine speed
    # falls on both sides of the overhead ratio alike
    for index in range(1, count + 1):
        untraced += tally.run_unit(workload, index)
        tracer.install()
        try:
            traced += tally.run_unit(workload, index)
        finally:
            tracer.uninstall()
    tracer.write_spans(os.path.join(args.outdir, f"spans-{args.workload}.jsonl"))
    metrics = tracer.layer_metrics([name for name, _ in workloads.VERIFY_CASES])
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "frac"}
    return {"traced_units": count, "spans": len(tracer.spans), "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    tally = Tally()
    workload, setup_s, speed = _cold_start(args, tally)
    import numpy

    result = {"numpy": numpy.__version__}
    if speed is None:
        result["setup_s"] = setup_s
    else:
        # a verify cold start has sampled between its checks already
        if len(speed.recent) < SPEED_WINDOW:
            speed.fill()
        result.update(setup_s=setup_s * speed.scale(), setup_wall_s=setup_s)
    if args.mode == "measure":
        result.update(_measure(args, workload, tally, speed))
    elif args.mode == "trace":
        result.update(_trace(args, workload, tally))
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
