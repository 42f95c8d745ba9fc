"""What a cold start imports: the package and the CLI load each layer,
and numpy, only when a command first uses them.  Each probe runs in a
fresh interpreter, as the modules a test session already holds would
hide a load."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules that `import sadicsets, sadicsets.cli` alone must not load.
DEFERRED = {
    "numpy",
    "sadicsets.dimension",
    "sadicsets.normality",
    "sadicsets.measure",
    "sadicsets.cylinders",
    "sadicsets.acceptance",
}

_PROBE = """
import contextlib, io, json, sys
import sadicsets, sadicsets.cli

def loaded():
    return [m for m in sys.modules if m == "numpy" or m.startswith("sadicsets.")]

steps = [[0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = sadicsets.cli.main(argv)
    steps.append([code, loaded()])
print(json.dumps(steps))
"""


def cold(*commands: list[str]) -> list[tuple[int, set[str]]]:
    """In one fresh interpreter, import the package and the CLI, then run
    `cli.main` on each argv in turn.  Returns, for the import and then
    for each command, its exit code and the layers and numpy loaded."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return [(code, set(loaded)) for code, loaded in json.loads(proc.stdout)]


def test_import_defers_every_layer_and_numpy():
    [(_, loaded)] = cold()
    assert not loaded & DEFERRED, sorted(loaded & DEFERRED)


def test_commands_that_fit_no_slope_load_no_numpy():
    commands = [
        ["cylinder", "--s", "3", "--u", "0", "--base", "1,2"],
        ["gaps", "--s", "3", "--base", "1,2", "--p", "1"],
        ["generate", "--s", "3", "--u", "0", "--tail", "2", "--n", "12"],
        ["freq", "--s", "3", "--period", "021", "--k", "300", "--u", "0"],
        ["normal", "--s", "4"],
        ["measure", "--s", "3", "--u", "0", "--k", "4"],
    ]
    for argv, (code, loaded) in zip(commands, cold(*commands)[1:]):
        assert code == 0, argv
        assert "numpy" not in loaded, argv


def test_commands_that_need_dimension_still_run():
    for argv in (
        ["dim", "--s", "3", "--u", "0"],
        ["boxcount", "--s", "3", "--u", "0"],
        ["reproduce", "--only", "closed"],
    ):
        [_, (code, loaded)] = cold(argv)
        assert code == 0, argv
        assert {"numpy", "sadicsets.dimension"} <= loaded, argv
