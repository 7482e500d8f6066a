import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(_HERE)
ROOT = os.path.dirname(PERFBENCH)

# The benchmark's modules are top-level scripts beside run.py, and the
# library is imported from this checkout's sources.
for path in (PERFBENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
