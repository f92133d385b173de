"""Self-tests of the benchmark's own arithmetic: run them with
``python -m pytest benchmarks/perf/tests -q`` from the repository root."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[3]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
