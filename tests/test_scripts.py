"""Smoke runs of the scripts README advertises, at tiny sizes."""

import csv
import importlib.util
import time
from pathlib import Path

import pytest

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
    argv = ["--fines", "10", "--lo", "4", "--sets", "marker0-base3", "--output", str(out)]
    assert script.main(argv) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["set", "fine", "slope", "root", "gap"]
    assert [row[:2] for row in rows[1:]] == [["marker0-base3", "10"]]
    # a fit needs 3 scales, lo..fine
    with pytest.raises(SystemExit, match="at least lo \\+ 2 = 6"):
        script.main(["--fines", "10,5", "--output", str(out)])


def test_boxcount_sweep_past_the_frontier_budget(tmp_path):
    # a frontier fine enough for 50 digits is far over the frontier
    # budget; box counting reads none, and the slopes land on the roots
    script = _load("boxcount_sweep")
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    assert script.main(["--fines", "50", "--output", str(out)]) == 0
    assert time.perf_counter() - t0 < 1.0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [row[0] for row in rows] == list(script.SETS)
    assert all(float(row[4]) < 0.01 for row in rows)


# the usage error of each option that is not an integer, for the value
# it names; the integer options say "expected an integer"
_REFUSALS = {
    "--pairs": "expected s:u pairs like 3:0,4:0, got {!r}",
    "--sets": "unknown set {!r}, expected a comma list of "
    "marker0-base3, marker0-base4, pooled-base3, interleaved-base3",
}


@pytest.mark.parametrize(
    "name,argv,flag,text",
    [
        ("measure_decay", ["--k-max", "+2"], "--k-max", "+2"),
        ("measure_decay", ["--k-max", "x"], "--k-max", "x"),
        ("boxcount_sweep", ["--lo", "1_0"], "--lo", "1_0"),
        ("boxcount_sweep", ["--lo", " 4"], "--lo", " 4"),
        ("measure_decay", ["--pairs", "3:x"], "--pairs", "3:x"),
        ("measure_decay", ["--pairs", "3"], "--pairs", "3"),
        ("measure_decay", ["--pairs", "3:0,+4:0"], "--pairs", "3:0,+4:0"),
        ("boxcount_sweep", ["--fines", "1_0"], "--fines", "1_0"),
        ("boxcount_sweep", ["--fines", "10,x"], "--fines", "x"),
        ("boxcount_sweep", ["--sets", "nope"], "--sets", "nope"),
    ],
)
def test_integer_options_take_ascii_digits_only(name, argv, flag, text, capsys):
    # the CLI's integer rule and usage exit: code 1, one error line and
    # no traceback, where int() would have read "+2", "1_0" and " 4",
    # and a bad pair or set name would have ended in a traceback
    script = _load(name)
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    message = _REFUSALS.get(flag, "expected an integer, got {!r}").format(text)
    assert err.splitlines()[-1].endswith(f": error: argument {flag}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name,argv,message",
    [
        ("measure_decay", ["--pairs", "1:0"], "error: s must be >= 3, got 1"),
        (
            "boxcount_sweep",
            ["--fines", "700", "--sets", "marker0-base3"],
            "error: finest scale 3**-700 rounds to 0.0 as a double, "
            "and the slope is fitted in doubles",
        ),
    ],
)
def test_library_refusals_exit_as_in_the_cli(name, argv, message, capsys):
    # a value the parser admits but the library refuses: exit 1 and one
    # stderr line, as `sadicsets` gives, not a traceback
    assert _load(name).main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [message]
