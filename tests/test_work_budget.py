"""Counts, not clocks: the work a default battery, the seeded scans and a states batch do, pinned.

One fresh interpreter, so every cache starts cold, runs the default
verify battery, then one 101-point scan over l in [-20, 20] per
observable and sector, then one batch of 16 seeded coherent-state
pipelines (tests/test_state_pipelines.py's first 16).  Each count is
taken from outside, by wrapping a name wherever a circle_cs module
binds it:

- lattice_sum_calls, lattice_sum_elements and lattice_sum_pair_elements:
  theta._lattice_sum calls, the points they sum, and the sum over calls
  of the term pairs (theta._pair_count on the call's arguments) times
  the points;
- exp_calls: theta._exp calls, from any layer;
- states: StateVectors made through hilbert._adopt, and public_states
  those made through StateVector(...) (its __post_init__);
- errstate_entries: np.errstate calls;
- gram_misses and window_misses: bargmann._gram and hilbert._window
  cache misses.

A change that moves a count rewrites tests/data/work_budget.json
(PYTHONPATH=src python tests/test_work_budget.py) and says why.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

BUDGET = pathlib.Path(__file__).parent / "data" / "work_budget.json"

COUNT_WORK = """
import contextlib, importlib, io, json, sys
import numpy as np
from circle_cs import cli, verify  # verify now, so that its bindings are wrapped too
sys.path.insert(0, TESTS)
import test_state_pipelines as pipelines
# import_module, because the package binds the name theta to the function
bargmann, hilbert, theta = (
    importlib.import_module(f"circle_cs.{name}") for name in ("bargmann", "hilbert", "theta")
)
counts = dict.fromkeys(
    ("lattice_sum_calls", "lattice_sum_elements", "lattice_sum_pair_elements", "exp_calls",
     "states", "public_states", "errstate_entries"), 0)

def wrap(owner, name, count):
    original = getattr(owner, name)
    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        count(*args, **kwargs)
        return result
    for module in [m for key, m in sys.modules.items() if key.startswith("circle_cs")]:
        if getattr(module, name, None) is original:
            setattr(module, name, counted)

def lattice_sum(curv, lin, half, alternating, moment=False):
    lin = np.asarray(lin, dtype=np.complex128)
    pairs = theta._pair_count(-complex(curv).real, theta._drift(lin), half)
    counts["lattice_sum_calls"] += 1
    counts["lattice_sum_elements"] += lin.size
    counts["lattice_sum_pair_elements"] += pairs * lin.size

def tally(key):
    def count(*args, **kwargs):
        counts[key] += 1
    return count

wrap(theta, "_lattice_sum", lattice_sum)
wrap(theta, "_exp", tally("exp_calls"))
wrap(hilbert, "_adopt", tally("states"))
post_init = hilbert.StateVector.__post_init__
def counted_post_init(self):
    counts["public_states"] += 1
    post_init(self)
hilbert.StateVector.__post_init__ = counted_post_init
errstate = np.errstate
def counted_errstate(*args, **kwargs):
    counts["errstate_entries"] += 1
    return errstate(*args, **kwargs)
np.errstate = counted_errstate

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) in (0, 1), argv  # 1: a check of the battery fails

work = {"verify default battery": lambda: run(["verify"])}
for obs in ("J", "U"):
    for sector in ("boson", "fermion"):
        argv = [
            "scan", "--obs", obs, "--l-min", "-20", "--l-max", "20", "--n", "101",
            "--sector", sector, "--out", "-",
        ]
        work[f"scan {obs} {sector}"] = lambda argv=argv: run(argv)
work["states batch of 16"] = lambda: [pipelines._digest(pipelines._spec(i)) for i in range(16)]
budget = {}
for label, do in work.items():
    for key in counts:
        counts[key] = 0
    caches = (bargmann._gram, hilbert._window)
    misses = [cache.cache_info().misses for cache in caches]
    do()
    gram, window = (cache.cache_info().misses - m for cache, m in zip(caches, misses))
    budget[label] = {**counts, "gram_misses": gram, "window_misses": window}
print(json.dumps(budget, indent=1))
"""


def _count_work() -> dict:
    code = f"TESTS = {str(BUDGET.parent.parent)!r}\n" + COUNT_WORK
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    return json.loads(res.stdout)


def test_the_battery_and_the_scans_do_the_pinned_work():
    assert _count_work() == json.loads(BUDGET.read_text("utf-8"))


if __name__ == "__main__":
    BUDGET.write_text(json.dumps(_count_work(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {BUDGET}")
