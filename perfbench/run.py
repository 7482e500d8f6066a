"""circle-cs benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload {verify,scan,states} --seed N \
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics: SETUP_SAMPLES fresh processes
time the cold start (the median is setup_s), the last of them then runs
units back to back for S seconds.  Times are scaled to a reference host
speed by calibration samples taken between units (worker.Speed); the
summary line gives the wall-clock figures too.  --trace 1 runs a fixed
seeded set of units, each untraced and then traced, in one fresh
process and reports per-layer metrics.  Every unit's output is checked;
the last stdout line is the JSON result.  Worker processes get
BLAS_THREADS BLAS threads and all load comes from one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("verify", "scan", "states")
UNIT_OF_WORK = {
    "verify": "one default verify battery via cli.main(['verify', '--out', file])",
    "scan": "one cli.main(['scan', ...]) command of 101 points",
    "states": "one batch of 16 coherent-state pipelines through hilbert and coherent",
}
SETUP_SAMPLES = 3
BLAS_THREADS = 1
# Whole-run budget; each run must end within 180 s.
DEADLINE_S = 170.0
OUTDIR = ".perfbench_out"
_HERE = os.path.dirname(os.path.abspath(__file__))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, root: str, numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "unit": UNIT_OF_WORK[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Starts worker processes one after another under a shared deadline."""

    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.outdir = os.path.join(root, OUTDIR)
        self.deadline = time.monotonic() + DEADLINE_S
        threads = str(BLAS_THREADS)
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        )

    def worker(self, mode: str) -> dict:
        command = [
            sys.executable, os.path.join(_HERE, "worker.py"), "--mode", mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", repr(self.args.seconds), "--root", self.root, "--outdir", self.outdir,
        ]
        # subprocess.run kills and reaps the worker if it overruns
        done = subprocess.run(
            command, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise RuntimeError(f"{mode} worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    # a terminated run raises SystemExit, and subprocess.run then kills
    # and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "circle_cs", "__init__.py")):
        print("perfbench: src/circle_cs not found; run from the repository root", file=sys.stderr)
        return 2
    runner = Runner(args, root)
    os.makedirs(runner.outdir, exist_ok=True)
    try:
        if args.trace:
            runs = [runner.worker("trace")]
        else:
            runs = [runner.worker("setup") for _ in range(SETUP_SAMPLES - 1)]
            runs.append(runner.worker("measure"))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    last = runs[-1]
    summary = {"failed_frac": failed / attempted, "problems": problems[:10]}
    if args.trace:
        metrics = last["metrics"]
        summary.update(traced_units=last["traced_units"], spans=last["spans"])
    else:
        setup = [r["setup_s"] for r in runs]
        tail = last["tail"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "units_per_s": {"value": last["units"] / last["busy_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * last["p50_s"], "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * tail["value"], "unit": "ms"},
            "peak_rss_mb": {"value": last["peak_rss_mb"], "unit": "MB"},
        }
        summary.update(
            capacity_reached=last["capacity_reached"],
            setup_samples_s=setup,
            setup_wall_s=[r["setup_wall_s"] for r in runs],
            latency_tail={k: tail[k] for k in ("percentile", "beyond", "samples")},
            wall=last["wall"],
            time_share=last["time_share"],
            calibration=last["calibration"],
        )
    print(json.dumps({"env": _environment(args, root, last["numpy"])}))
    print(json.dumps({"summary": summary}))
    for name, metric in metrics.items():
        print(f"{args.workload:7s} {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload:7s} {'failed_frac':48s} {failed / attempted:.6g} frac")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
