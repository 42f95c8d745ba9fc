"""Smoke runs of the scripts README advertises, at tiny sizes."""

import csv
import importlib.util
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_decay(capsys):
    script = _load("measure_decay")
    assert script.main(["--pairs", "3:0", "--k-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# s=3 u=0 sigma=")
    assert lines[1] == "k,closed_num,closed_den,closed_approx,enumerated"
    rows = list(csv.reader(lines[2:]))
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert all(row[-1] == "match" for row in rows)


def test_boxcount_sweep(tmp_path):
    script = _load("boxcount_sweep")
    out = tmp_path / "sweep.csv"
    argv = ["--depths", "10", "--scales", "4..7", "--sets", "marker0-base3",
            "--output", str(out)]
    assert script.main(argv) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["set", "depth", "slope", "root", "gap"]
    assert [row[:2] for row in rows[1:]] == [["marker0-base3", "10"]]


def test_boxcount_sweep_past_the_frontier_budget(tmp_path):
    # every frontier at depth 60 is far over the frontier budget; box
    # counting reads none, and the slopes land on the roots
    script = _load("boxcount_sweep")
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    assert script.main(["--depths", "60", "--scales", "4..50", "--output", str(out)]) == 0
    assert time.perf_counter() - t0 < 1.0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [row[0] for row in rows] == list(script.SETS)
    assert all(float(row[4]) < 0.01 for row in rows)
