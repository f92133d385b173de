"""``python benchmarks/perf/run.py``: the benchmark's one command (the
same as ``python -m benchmarks.perf`` from the repository root)."""

import pathlib
import sys

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))
    from benchmarks.perf.cli import main

    sys.exit(main())
