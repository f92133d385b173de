"""The examples that read ``result.engine`` after ``run()`` returns —
its grids, its halo width and its communicator's message log, the parts
a finished run keeps — run to the end with the fewest steps."""

import importlib.util
import pathlib
import re

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, expected", [
    ("baroclinic_wave", [
        r"^grid: c\d+, \d+ levels, 6 ranks",
        r"^step  1  t=",
        r"^reference checks: passed$",
        r"^tile 0 temperature anomaly at level \d+",
        r"^communication: [1-9]\d* messages routed, \d+\.\d MB total$",
    ]),
    ("tracer_transport", [
        r"^step  1  t=.*tracer mass drift=",
        r"^final blob: peak=\d\.\d{3} at lon=",
        r"^expected drift ≈ \d+\.\d°",
        r"^minimum tracer value: ",
        r"^reference checks: passed$",
    ]),
])
def test_example_runs_and_prints(name, expected, capsys):
    _example(name).main(1)
    lines = capsys.readouterr().out.splitlines()
    for pattern in expected:
        assert any(re.search(pattern, line) for line in lines), pattern
