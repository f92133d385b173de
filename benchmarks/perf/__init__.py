"""The repository's one benchmark: five workloads, measured from outside.

See ``README.md`` in this directory for the workload and metric
definitions and ``BENCHMARK.json`` at the repository root for the
contract the numbers are checked against.
"""
