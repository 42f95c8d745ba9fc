"""Command-line surface: parsing, payload shapes, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sadicsets
from sadicsets import cli
from sadicsets.cli import (
    _COMMANDS,
    RunConfig,
    _dumps,
    build_parser,
    config_from_args,
    dispatch,
    main,
)
from sadicsets.errors import ResourceBudgetError, SadicError


def run_cli(*argv):
    parser = build_parser()
    config = config_from_args(parser.parse_args(list(argv)))
    return dispatch(config)


class TestParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["dim", "--s", "3", "--u", "0"])
        config = config_from_args(args)
        assert config.fmt == "json"

    def test_base_forms(self):
        for form in ("1,2", "12"):
            args = build_parser().parse_args(
                ["cylinder", "--s", "3", "--u", "0", "--base", form]
            )
            assert config_from_args(args).base == (1, 2)

    def test_one_table_drives_parser_and_config(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(_COMMANDS)
        for name, command in _COMMANDS.items():
            actions = [a for a in sub.choices[name]._actions if a.dest != "help"]
            options = {o for a in actions for o in a.option_strings}
            assert options == {f"--{flag}" for flag in command.flags} | {"--format", "--output"}
            required = {a.dest for a in actions if a.required}
            assert required == set(command.required), name
        with pytest.raises(SadicError):
            RunConfig(subcommand="frobnicate")

    @pytest.mark.parametrize(
        "name,missing",
        [(name, flag) for name, command in _COMMANDS.items() for flag in command.required],
    )
    def test_dispatch_refuses_missing_required_flag(self, name, missing):
        # library callers skip argparse; RunConfig names the flags instead
        given = {flag: 1 for flag in _COMMANDS[name].required if flag != missing}
        with pytest.raises(SadicError, match=f"{name} needs .*--{missing}\\b"):
            dispatch(RunConfig(subcommand=name, **given))

    def test_depth_below_one_is_a_plain_sadic_error(self):
        # perfbench's invalid cylinder query hashes the class name, so no
        # subclass, and for every subcommand, not only boxcount
        with pytest.raises(SadicError) as info:
            RunConfig(subcommand="cylinder", s=3, u=0, depth=0)
        assert type(info.value) is SadicError
        assert str(info.value) == "depth must be >= 1"

    def test_config_is_frozen(self):
        config = RunConfig(subcommand="normal", s=3)
        with pytest.raises(AttributeError):
            config.s = 4


class TestDim:
    def test_marker_form(self):
        code, text = run_cli("dim", "--s", "3", "--u", "0")
        payload = json.loads(text)
        assert code == 0
        phi = (math.sqrt(5.0) + 1.0) / 2.0
        assert abs(payload["alpha"] - math.log(phi) / math.log(3)) < 1e-9
        assert payload["closed_form"] == "log((sqrt(5)+1)/2)/log(3)"

    def test_named_alphabet(self):
        code, text = run_cli("dim", "--alphabet", "sprime3")
        payload = json.loads(text)
        assert code == 0
        assert abs(payload["alpha"] - math.log(2) / (3 * math.log(3))) < 1e-9
        assert payload["prefix_free"] is True

    def test_tilde_spec(self):
        code, text = run_cli("dim", "--alphabet", "tilde:3")
        assert code == 0
        assert abs(json.loads(text)["alpha"] - math.log(2) / math.log(3)) < 1e-9

    def test_alphabet_file(self, tmp_path):
        f = tmp_path / "alpha.json"
        f.write_text(json.dumps({"s": 3, "combos": ["021", "102"]}))
        code, text = run_cli("dim", "--alphabet", str(f))
        assert code == 0
        assert abs(json.loads(text)["alpha"] - math.log(2) / (3 * math.log(3))) < 1e-9

    def test_missing_file_is_domain_error(self, capsys):
        assert main(["dim", "--alphabet", "/nonexistent/alpha.json"]) == 1

    def test_malformed_file_is_domain_error(self, tmp_path, capsys):
        sources = ["tilde:x"]
        for i, text in enumerate([
            "{not json",
            '{"s": 3, "combos": "021"}',
            '{"s": 3.9, "combos": ["021", "102"]}',
            '{"s": 3, "combos": [[0, 2, 1], [1.5, 0, 2]]}',
            '{"s": 3, "combos": [[0, 2, 1], [true, 0, 2]]}',
            # str.isdigit() holds for both, int() reads the second as 12
            '{"s": 3, "combos": ["\u00b2"]}',
            '{"s": 3, "combos": ["\u0661\u0662"]}',
        ]):
            f = tmp_path / f"alpha{i}.json"
            f.write_text(text)
            sources.append(str(f))
        for source in sources:
            assert main(["dim", "--alphabet", source]) == 1
            assert main(["boxcount", "--alphabet", source]) == 1

    @pytest.mark.parametrize("text,problem", [
        ("[1, 2]", "got [1, 2]"),
        ('{"s": 3}', "missing 'combos'"),
    ])
    def test_wrong_file_shape_names_the_expected_object(self, tmp_path, capsys, text, problem):
        f = tmp_path / "alpha.json"
        f.write_text(text)
        assert main(["dim", "--alphabet", str(f)]) == 1
        err = capsys.readouterr().err
        assert f"bad alphabet structure in {str(f)!r}: " in err
        assert f"expected a JSON object with keys 's' and 'combos', {problem}" in err

    def test_needs_marker_or_alphabet(self, capsys):
        assert main(["dim", "--s", "3"]) == 1

    def test_tol_is_not_an_option(self, capsys):
        assert main(["dim", "--s", "3", "--u", "0", "--tol", "1e-9"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol" in err
        assert "Traceback" not in err


class TestSubcommands:
    def test_cylinder_payload(self):
        code, text = run_cli("cylinder", "--s", "3", "--u", "0", "--base", "1")
        payload = json.loads(text)
        assert code == 0
        assert payload["inf"] == {"num": "5", "den": "12", "approx": 5 / 12}
        assert payload["sup"]["num"] == "1"
        assert payload["diameter"]["den"] == "12"

    def test_gaps_payload(self):
        code, text = run_cli("gaps", "--s", "3", "--base", "", "--p", "1")
        payload = json.loads(text)
        assert code == 0
        assert payload["lower"]["num"] == "5"
        assert payload["lower"]["den"] == "18"
        assert payload["upper"]["den"] == "12"

    def test_generate_payload(self):
        code, text = run_cli(
            "generate", "--s", "3", "--u", "0", "--tail", "2", "--n", "6"
        )
        payload = json.loads(text)
        assert code == 0
        assert payload["digits"] == [0, 2, 0, 2, 0, 2]
        assert payload["value"] == {"num": "1", "den": "4", "approx": 0.25}

    def test_generate_rejects_marker_block(self):
        assert main(["generate", "--s", "3", "--u", "1", "--blocks", "1"]) == 1

    def test_boxcount_csv(self):
        code, text = run_cli(
            "boxcount", "--s", "3", "--u", "0", "--format", "csv"
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "eps_num,eps_den,eps_approx,boxes"
        assert lines[1].startswith("1,81,")
        assert lines[1].endswith(",8")

    def test_boxcount_json_slope(self):
        code, text = run_cli("boxcount", "--s", "3", "--u", "0")
        payload = json.loads(text)
        assert abs(payload["slope"] - 0.438) < 0.05

    def test_measure_csv_default(self):
        code, text = run_cli("measure", "--s", "3", "--u", "0", "--k", "3")
        lines = text.splitlines()
        assert lines[0] == "k,num,den,approx"
        assert lines[1] == "1,1,9," + repr(1 / 9)
        assert len(lines) == 4

    def test_measure_budget_exit(self):
        assert main(["measure", "--s", "4", "--u", "0", "--k", "12"]) == 2

    @pytest.mark.parametrize(
        "argv,shallow",
        [
            # 17 = J + L - 1, where every hull of tilde:9 fits 9**-10
            (["--alphabet", "tilde:9", "--depth", "40"], "17"),
            (["--s", "3", "--u", "0", "--depth", "100000"], "12"),
            (["--s", "3", "--u", "0", "--depth", "1000000"], "12"),
            # one word: the one point {1}
            (["--alphabet", "<point>", "--depth", "100000"], "12"),
        ],
    )
    def test_deep_boxcount_exits_zero(self, argv, shallow, tmp_path, capsys):
        # box counting walks no prefix frontier, and the depth changes
        # no count
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"s": 3, "combos": ["2"]}))
        argv = ["boxcount", *(str(point) if arg == "<point>" else arg for arg in argv)]
        assert main(argv) == 0  # the first call also warms up argparse
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - t0 < 1.0
        deep = json.loads(capsys.readouterr().out)
        assert main([*argv[:-1], shallow]) == 0
        want = json.loads(capsys.readouterr().out)
        assert deep["counts"] == want["counts"]
        assert deep["slope"] == want["slope"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["dim", "--alphabet", "tilde:129"],
            ["dim", "--alphabet", "tilde:2000"],
            ["boxcount", "--alphabet", "tilde:2000"],
            ["boxcount", "--s", "30000", "--u", "0"],
        ],
    )
    def test_oversized_alphabet_budget_exit(self, argv, capsys, monkeypatch):
        # the digit count comes from a closed form, before any word is
        # built: the refusal takes no word builder and little time
        message = f"digits, budget is {sadicsets.FRONTIER_BUDGET}"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        config = config_from_args(build_parser().parse_args(argv))

        def build_no_word(*args):
            raise AssertionError("a word was built before the refusal")

        monkeypatch.setattr(sadicsets.combos, "_block_words", build_no_word)
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match=message):
            dispatch(config)
        assert time.perf_counter() - t0 < 0.01

    @pytest.mark.parametrize(
        "argv,seconds,message",
        [
            # stage 1030 is checked before stages 1..1029 are built
            (["measure", "--s", "3", "--u", "0", "--k", "1030"], 0.05, "stage 1030 for (s=3, u=0)"),
            # the solve cost comes from s and u, before any block is listed
            (["dim", "--s", "1000000", "--u", "0"], 0.1, "bit-steps; budget is"),
            # a 4,761-digit denominator cannot be printed
            (["cylinder", "--s", "1500", "--u", "0", "--base", "1"], 1.0, "4761-digit integer"),
            # the stage's block count and sum come in closed form
            (["measure", "--s", "10000000", "--u", "0", "--k", "1"], 0.1,
             "stage 1 for (s=10000000, u=0)"),
            # the profile's size comes from s, before any digit is counted
            (["freq", "--s", "100000", "--preperiod", "1", "--k", "1"], 0.1,
             "would hold 100000 digit counts, budget is 65536"),
            # refused from s and u before s**(s-1) is built
            (["cylinder", "--s", "100000", "--u", "0", "--base", "1"], 0.1,
             "cylinder of s=100000, u=0 prints an integer of at least 399993 digits, "
             "over the 4300-digit limit"),
            (["gaps", "--s", "100000", "--p", "1"], 0.1, "gap of s=100000, u=0 prints"),
        ],
    )
    def test_refused_without_a_traceback(self, argv, seconds, message, capsys):
        assert main(argv) == 2  # the first call also warms up argparse
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < seconds
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["missing/d/x.json", "."])
    def test_unwritable_output_exit(self, target, tmp_path, capsys):
        # a path under a missing directory, and a directory
        output = tmp_path / target
        assert main(["normal", "--s", "3", "--output", str(output)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,admitted",
        [
            (["--s", "3", "--u", "0", "--scales", "4,5,1000000"], None),
            (["--s", "3", "--u", "0", "--scales", "4,5,1000000000"], None),
            (["--s", "3", "--u", "0", "--scales", "4,5,2000"], None),
            # the one point {1}: 3**-678 is the last power of 3 above 0.0
            (["--depth", "3", "--scales", "1,2,679"], "1,2,678"),
            # a span is refused from its last exponent, before it is listed
            (["--s", "3", "--u", "0", "--scales", "4..1000000"], None),
            (["--s", "3", "--u", "0", "--scales", "4..1000000000"], None),
        ],
    )
    def test_boxcount_underflowing_scale_exit(self, argv, admitted, tmp_path, capsys):
        # the slope is fitted in doubles, so a finest scale that rounds to
        # 0.0 is refused before any power of that size is built
        if admitted:
            point = tmp_path / "point.json"
            point.write_text(json.dumps({"s": 3, "combos": ["2"]}))
            argv = ["--alphabet", str(point), *argv]
            assert main(["boxcount", *argv[:-1], admitted]) == 0
            assert json.loads(capsys.readouterr().out)["slope"] == 0.0
        assert main(["boxcount", *argv]) == 1  # the first call also warms up argparse
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(["boxcount", *argv]) == 1
        assert time.perf_counter() - t0 < 0.1
        err = capsys.readouterr().err
        assert err.startswith("error: finest scale 3**-")
        assert "rounds to 0.0 as a double" in err
        assert "Traceback" not in err

    def test_boxcount_default_scales_count_the_set(self, capsys):
        # depth-12 hulls of these sets are wider than the default finest
        # scale 5**-10, but the counts are the boxes the set meets: the
        # counts of depth 13 = J + L - 1, where every hull fits a box
        for argv in (["--s", "5", "--u", "0"], ["--alphabet", "tilde:5"]):
            assert main(["boxcount", *argv]) == 0
            shallow = json.loads(capsys.readouterr().out)
            assert main(["boxcount", *argv, "--depth", "13"]) == 0
            deep = json.loads(capsys.readouterr().out)
            assert shallow["params"]["depth"] == 12
            shallow["params"]["depth"] = 13
            assert shallow == deep

    def test_dim_solve_budget_exit(self, tmp_path, capsys):
        f = tmp_path / "long.json"
        f.write_text(json.dumps({"s": 3, "combos": ["1", "2", "1" * 20000]}))
        assert main(["dim", "--alphabet", str(f)]) == 2
        err = capsys.readouterr().err
        assert "bit-steps; budget is" in err
        assert "Traceback" not in err

    def test_freq_payload(self):
        code, text = run_cli(
            "freq", "--s", "3", "--period", "021", "--k", "300", "--u", "0"
        )
        payload = json.loads(text)
        assert code == 0
        assert payload["profile"]["counts"] == [100, 100, 100]
        assert payload["residual"]["residual"] == 0
        assert payload["residual"]["at_boundary"] is True

    def test_normal_verdicts(self):
        _, text3 = run_cli("normal", "--s", "3")
        _, text4 = run_cli("normal", "--s", "4")
        assert json.loads(text3)["exists"] is True
        assert json.loads(text4)["exists"] is False


class TestReproduce:
    def test_filter_runs_single_row(self):
        code, text = run_cli(
            "reproduce", "--only", "closed-form", "--format", "table"
        )
        assert code == 0
        assert "PASS closed-form-dimensions" in text
        assert "1/1 criteria passed" in text

    def test_unmatched_filter_fails(self):
        assert main(["reproduce", "--only", "no-such-criterion"]) == 1

    def test_json_payload_has_no_runtimes(self):
        # closed-form-dimensions times its solvers; the times must stay
        # out of the payload, which is byte-identical run to run
        code, text = run_cli(
            "reproduce", "--only", "closed-form", "--format", "json"
        )
        payload = json.loads(text)
        assert code == 0
        rows = payload["results"]
        assert rows and all("runtime" not in row for row in rows)
        assert all(row["passed"] for row in rows)
        again = run_cli("reproduce", "--only", "closed-form", "--format", "json")
        assert again == (code, text)


class TestHarness:
    def test_exit_zero_and_stdout(self, capsys):
        assert main(["normal", "--s", "3"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["exists"] is True

    def test_bad_flag_exits_one(self, capsys):
        assert main(["dim", "--nonsense"]) == 1
        assert main(["cylinder", "--s", "3", "--u", "0", "--base", "x"]) == 1
        # int() reads Arabic-Indic digits, "\u0661,\u0662" as 1,2
        assert main(["cylinder", "--s", "3", "--u", "0", "--base", "\u0661,\u0662"]) == 1
        assert main(["boxcount", "--s", "3", "--u", "0", "--scales", "4..x"]) == 1
        err = capsys.readouterr().err
        assert "argument --base: expected digits" in err
        assert "argument --scales: expected scales" in err
        assert "_parse_" not in err
        # int() also reads underscores, signs and blanks in each part
        for argv in (
            ["cylinder", "--s", "12", "--u", "0", "--base", "1_0,+2"],
            ["cylinder", "--s", "12", "--u", "0", "--base", " 1, 2"],
            ["generate", "--s", "12", "--u", "0", "--blocks", "1,-2"],
            ["generate", "--s", "12", "--u", "0", "--tail", "1 ,2"],
            ["freq", "--s", "12", "--k", "3", "--preperiod", "+1"],
            ["freq", "--s", "12", "--k", "3", "--period", "0_1"],
        ):
            assert main(argv) == 1
            assert f"argument {argv[-2]}: expected digits" in capsys.readouterr().err
        # and in each end or item of --scales, which keeps one "-" for
        # the exponent check to name
        for scales in ("+4..1_0", "4_0..45", "4 ..10", "4, 5, 6", "--3..5"):
            assert main(["boxcount", "--s", "3", "--u", "0", "--depth", "60", f"--scales={scales}"]) == 1
            assert "argument --scales: expected scales" in capsys.readouterr().err
        assert main(["boxcount", "--s", "3", "--u", "0", "--scales=-3..5"]) == 1
        assert "scale exponent -3 must be an int >= 0" in capsys.readouterr().err
        # every integer flag: ASCII digits after at most one "-"
        for template in (
            ["measure", "--s={}", "--u=0", "--k=2"],
            ["measure", "--s=3", "--u={}", "--k=2"],
            ["gaps", "--s=3", "--p={}"],
            ["generate", "--s=3", "--u=0", "--n={}"],
            ["measure", "--s=3", "--u=0", "--k={}"],
            ["boxcount", "--s=3", "--u=0", "--depth={}"],
            ["reproduce", "--seed={}"],
        ):
            flag = next(arg for arg in template if "{}" in arg).split("=")[0]
            for form in ("+3", "1_2", " 3", "\u0663"):
                argv = [arg.format(form) for arg in template]
                assert main(argv) == 1, argv
                assert f"argument {flag}: expected an integer" in capsys.readouterr().err
        for spec in ("tilde:+5", "tilde:1_0", "tilde:\u0665"):
            assert main(["dim", "--alphabet", spec]) == 1
            assert "bad alphabet spec" in capsys.readouterr().err
        # a "-" still reaches the library's own messages
        assert main(["dim", "--alphabet", "tilde:-3"]) == 1
        assert "s must be an int >= 3, got -3" in capsys.readouterr().err
        assert main(["dim", "--s=-3", "--u", "0"]) == 1
        assert "s must be >= 3, got -3" in capsys.readouterr().err
        # past the interpreter's int-to-str limit
        assert main(["reproduce", "--seed", "1" * 5000]) == 1
        assert "argument --seed: 5000-digit integer is too long" in capsys.readouterr().err

    def test_bad_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_domain_error_exits_one(self, capsys):
        assert main(["cylinder", "--s", "3", "--u", "0", "--base", "7"]) == 1

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["normal", "--s", "3", "--output", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["exists"] is True
        assert capsys.readouterr().out == ""

    def test_byte_determinism(self):
        runs = {run_cli("boxcount", "--s", "3", "--u", "0")[1] for _ in range(3)}
        assert len(runs) == 1

    def test_installed_entry_point(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(sadicsets.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sadicsets.cli", "dim", "--s", "3", "--u", "1"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert json.loads(proc.stdout)["alpha"] == 0.0


# Every value kind a document may hold: strings with escapes, control
# characters and non-ASCII text, big ints, NaN and the infinities;
# lists, tuples and dicts, with dicts keyed by str and by each non-str
# kind json converts, one kind per dict so the keys sort.
_SCALAR = (
    st.text()
    | st.sampled_from(["", "\n", "a\nb", "\"\\", "\x00\x1f", "\u00e9", "\U0001f600"])
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.sampled_from([0.1, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308])
    | st.booleans()
    | st.none()
)
_DOCUMENT = st.recursive(
    _SCALAR,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
        | st.dictionaries(st.booleans(), children, max_size=2)
        | st.dictionaries(st.none(), children, max_size=1)
    ),
    max_leaves=30,
)


class TestDumps:
    """`cli._dumps` is ``json.dumps(doc, sort_keys=True, indent=2)``
    byte for byte; the goldens pin it on the CLI's own documents."""

    @given(_DOCUMENT)
    @example({"num": "1", "den": "3", "approx": 1 / 3})
    @example({"params": {"base": [1, 2], "s": 3}, "results": [{"a": [[]], "b": {}}]})
    @example({"counts": {1: [2, {"3": None}]}, "z": ()})
    @settings(deadline=None, max_examples=200)
    def test_matches_json_dumps(self, doc):
        assert _dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)

    def test_without_the_c_encoder(self, monkeypatch):
        # an interpreter without json's C accelerator writes flat
        # containers with json's pure-Python compact encoder
        docs = [
            json.loads(dispatch(RunConfig(subcommand=name, **params))[1])
            for name, params in [
                ("dim", {"s": 5, "u": 1}),
                ("cylinder", {"s": 3, "u": 0, "base": (1, 2)}),
                ("boxcount", {"s": 3, "u": 0}),
            ]
        ]
        docs.append({"x": [1.5, math.nan, -math.inf, None, True, "\u00e9\n"], "y": {2: ()}})
        monkeypatch.setattr(cli, "c_make_encoder", None)
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        cli._flat_writer.cache_clear()
        try:
            for doc in docs:
                assert _dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
        finally:
            cli._flat_writer.cache_clear()


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# int() also reads a sign, underscores, blanks and non-ASCII digits
_INT = st.integers(-3, 8).map(str) | st.sampled_from(["+3", "1_2", " 3", "\u0663"])
_BASE = st.integers(3, 8).map(str) | _INT  # a valid s reaches the library more often
_DIGITS = st.sampled_from(
    ["", ",", "x", "1.5", "-1", "1,,2", "\u0661\u0662", "\u00b2", "1_0,+2", " 1, 2", "+1"]
) | st.text("0123456789,", max_size=6)
# deep depths cost box counting nothing: the depth changes no count
# and builds no power
_DEPTH = _INT | st.integers(9, 10**9).map(str)
_EXPONENT = st.integers(-3, 8) | st.integers(9, 10**9)
_SCALES = (
    st.builds("{}..{}".format, st.integers(-3, 8), st.integers(-3, 8))
    # spans of huge exponents, short and long, and long spans from below 0
    | st.builds(lambda lo, n: f"{lo}..{lo + n}", st.integers(9, 10**9), st.integers(-3, 8))
    | st.builds("{}..{}".format, st.integers(-10**9, 8), st.integers(9, 10**9))
    | st.lists(_EXPONENT, max_size=5).map(lambda js: ",".join(map(str, js)))
    | st.sampled_from(["x", "4..x", "1.5", "..", "+4..1_0", "4_0..45", "4 ..10", "4, 5, 6"])
)
_ALPHABET = (
    st.sampled_from(["sprime3", "tilde:x", "tilde:", "tilde:+5", "tilde:1_0", "/nonexistent.json"])
    | _INT.map("tilde:{}".format)
)
# one strategy per flag of the command table, so a flag added there is
# fuzzed as soon as it has a strategy here
_STRATEGIES = {
    "s": _BASE, "u": _INT, "alphabet": _ALPHABET, "base": _DIGITS, "blocks": _DIGITS,
    "tail": _DIGITS, "p": _INT, "n": _INT, "depth": _DEPTH, "scales": _SCALES, "k": _INT,
    "preperiod": _DIGITS, "period": _DIGITS,
}
_FLAGS = {
    name: {f"--{flag}": _STRATEGIES[flag] for flag in command.flags}
    for name, command in _COMMANDS.items()
    if name != "reproduce"  # seconds a call: every acceptance row
}


# --output: absent, a file, an existing directory, or a file under a
# missing directory; the placeholder stands for a per-module temp dir
_OUTPUT_DIR = "<output-dir>"
_OUTPUT = st.sampled_from(
    [None, f"{_OUTPUT_DIR}/out.json", _OUTPUT_DIR, f"{_OUTPUT_DIR}/missing/out.json"]
)


@pytest.fixture(scope="module")
def output_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("output")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.integers(0, 3)):  # most flags are given
            argv.append(f"{flag}={draw(values)}")
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(['json', 'csv', 'table', 'xml']))}")
    output = draw(_OUTPUT)
    if output is not None:
        argv.append(f"--output={output}")
    return argv


_JSON_VALUE = st.sampled_from(
    [3, 5, 2, -1, 3.9, 1.5, True, None, "3", "021", [], [[]], [0, 2, 1], ["021", "102"],
     [[0, 2, 1], [1.5, 0, 2]], [[True, 0]], [[0, 3]], [["0"]], [[-1]], {"a": 1}]
)


class TestFuzz:
    """No argv and no alphabet file makes `main` raise: it returns 0, 1 or 2."""

    @given(_argv())
    @example(["boxcount", "--s=3", "--u=0", "--scales=-3..5"])  # a bare TypeError once
    # scales that round to 0.0 as doubles: a traceback, a hang, a
    # 955-digit error message once
    @example(["boxcount", "--s=3", "--u=0", "--scales=4,5,1000000"])
    @example(["boxcount", "--s=3", "--u=0", "--scales=4,5,1000000000"])
    @example(["boxcount", "--s=3", "--u=0", "--scales=4,5,2000"])
    @example(["boxcount", "--s=3", "--u=0", "--depth=1000000000", "--scales=4,5,600"])
    # hulls wider than the finest scale, refused once; now counted
    @example(["boxcount", "--s=5", "--u=0"])
    @example(["boxcount", "--alphabet=tilde:8", "--depth=7", "--scales=0..300"])
    @example(["boxcount", "--s=8", "--u=3", "--depth=7", "--scales=4..357"])
    # forms only int() reads, which exited 0 once
    @example(["boxcount", "--s=+3", "--u=0", "--depth=1_2"])
    @example(["dim", "--s=\u0663", "--u=0"])
    @example(["dim", "--alphabet=tilde:+5"])
    # every example ends in well under a second: a power of the depth
    # or a frontier walk would not
    @settings(deadline=5000, max_examples=400)
    def test_argv(self, output_dir, argv):
        argv = [arg.replace(_OUTPUT_DIR, str(output_dir)) for arg in argv]
        assert _quiet_main(argv) in (0, 1, 2), argv

    @given(
        st.sampled_from([("dim",), ("boxcount", "--depth=6")]),
        st.one_of(
            st.fixed_dictionaries({}, optional={"s": _JSON_VALUE, "combos": _JSON_VALUE}),
            _JSON_VALUE,
        ),
    )
    # the one point {1} reached the fit with 3**-679 == 0.0 once
    @example(("boxcount", "--depth=3", "--scales=1,2,679"), {"s": 3, "combos": ["2"]})
    @settings(deadline=None, max_examples=150)
    def test_alphabet_file(self, tmp_path_factory, command, doc):
        f = tmp_path_factory.mktemp("alphabet") / "alpha.json"
        f.write_text(json.dumps(doc))
        assert _quiet_main([*command, f"--alphabet={f}"]) in (0, 1, 2), doc
