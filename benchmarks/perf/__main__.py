import sys

from benchmarks.perf.cli import main

sys.exit(main())
