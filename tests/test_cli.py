import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import defres
import defres.cli
from defres.cli import main
from defres.perms import with_cycle_type

BIG = "8,5,3,2,2,2/2,2,1,1,1"
EX = "6,5,3,2/3,1"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


class TestMn:
    def test_text(self, capsys):
        code, out, err = run(capsys, "mn", "--shape", BIG, "--gamma", "6,3,3,3")
        assert code == 0
        assert out == "-2\n"

    def test_json(self, capsys):
        code, payload = run_json(capsys, "mn", "--shape", BIG, "--gamma", "6,3,3,3")
        assert code == 0
        assert payload == {
            "command": "mn",
            "gamma": [6, 3, 3, 3],
            "shape": BIG,
            "value": -2,
        }

    def test_json_is_canonical(self, capsys):
        code, out, err = run(
            capsys, "mn", "--shape", "2,1", "--gamma", "1,1,1", "--format", "json"
        )
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_size_mismatch_exits_1(self, capsys):
        code, out, err = run(capsys, "mn", "--shape", "2,1", "--gamma", "2,2")
        assert code == 1
        assert err.startswith("error:")

    def test_bad_gamma_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mn", "--shape", "2,1", "--gamma", "0,3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (("mn", "--shape", "2,2/3", "--gamma", "1"),
             "--shape: inner 3 not contained in outer 2,2"),
            (("mn", "--shape", "2,1", "--gamma", "x"),
             "--gamma: cannot parse composition 'x'"),
            (("farahat", "--shape", "2,2", "--n", "2", "--alpha", "0,-1"),
             "--alpha: parts must be non-negative"),
            (("defres", "--shape", "4,2", "--m", "3", "--gamma", "2", "--theta", "x"),
             "--theta: cannot parse partition 'x'"),
            (("verify", "--theta", "x"), "--theta: cannot parse partition 'x'"),
            (("verify", "--theta", "2,x"), "--theta: cannot parse partition '2,x'"),
        ],
    )
    def test_parse_errors_keep_their_reason(self, capsys, argv, reason):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert reason in errors[0] and "invalid" not in errors[0]

    def test_values_starting_with_a_dash(self, capsys):
        # "-/-" is the empty skew shape, not an option
        code, out, err = run(capsys, "mn", "--shape", "-/-", "--gamma", "-")
        assert (code, out, err) == (0, "1\n", "")


class TestDefres:
    def test_worked_example(self, capsys):
        code, payload = run_json(
            capsys, "defres", "--shape", EX, "--m", "2", "--gamma", "1,2,3"
        )
        assert code == 0
        assert payload == {
            "command": "defres",
            "evaluator": "tableau",
            "gamma": [1, 2, 3],
            "m": 2,
            "n": 6,
            "shape": EX,
            "theta": [2],
            "value": 1,
        }

    def test_text_output(self, capsys):
        code, out, err = run(
            capsys, "defres", "--shape", EX, "--m", "2", "--gamma", "2,1,3"
        )
        assert code == 0
        assert out == "value: 1\nevaluator: tableau\n"

    def test_general_theta_routes_to_recursion(self, capsys):
        code, payload = run_json(
            capsys,
            "defres", "--shape", "6,4,2", "--m", "3",
            "--theta", "2,1", "--gamma", "2,1,1",
        )
        assert code == 0
        assert payload["evaluator"] == "recursive"
        assert payload["value"] == 1

    def test_sign_theta(self, capsys):
        code, payload = run_json(
            capsys,
            "defres", "--shape", "2,2", "--m", "2",
            "--theta", "sign", "--gamma", "2",
        )
        assert code == 0
        assert payload["theta"] == [1, 1]

    def test_evaluators_agree(self, capsys):
        values = {}
        for ev in ("tableau", "recursive", "oracle", "oracle-naive"):
            code, payload = run_json(
                capsys,
                "defres", "--shape", "3,2,1", "--m", "2",
                "--gamma", "2,1", "--evaluator", ev,
            )
            assert code == 0
            values[ev] = payload["value"]
        assert len(set(values.values())) == 1

    def test_naive_budget_exits_3(self, capsys):
        code, out, err = run(
            capsys,
            "defres", "--shape", "9,9,9", "--m", "9", "--gamma", "2,1",
            "--evaluator", "oracle-naive", "--budget", "10",
        )
        assert code == 3
        assert err.startswith("error:")

    def test_grouped_budget_exits_3(self, capsys):
        # multisets of 5 of the 5 classes of S_4: C(9, 5) = 126 terms
        code, out, err = run(
            capsys,
            "defres", "--shape", "4,4,4,4,4", "--m", "4", "--gamma", "1,1,1,1,1",
            "--theta", "2,1,1", "--evaluator", "oracle", "--budget", "10",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("budget", ["-5", "ten", "²"])
    def test_bad_budget_exits_2(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main([
                "defres", "--shape", "4,2", "--m", "2", "--gamma", "2,1",
                "--evaluator", "oracle", "--budget", budget,
            ])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        errors = [line for line in out.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"--budget: expected an integer >= 0, got '{budget}'" in errors[0]

    def test_indivisible_size_exits_1(self, capsys):
        code, out, err = run(
            capsys, "defres", "--shape", "3,2", "--m", "2", "--gamma", "2"
        )
        assert code == 1
        assert "does not divide" in err

    def test_theta_size_mismatch_exits_1(self, capsys):
        code, out, err = run(
            capsys,
            "defres", "--shape", "2,2", "--m", "2",
            "--theta", "3", "--gamma", "2",
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_non_positive_m_exits_1(self, capsys, m):
        code, out, err = run(
            capsys, "defres", "--shape", "4,2", "--m", m, "--gamma", "2"
        )
        assert code == 1
        assert out == ""
        assert err == f"error: m must be at least 1, got {m}\n"


class TestTableaux:
    def test_worked_example(self, capsys):
        code, payload = run_json(
            capsys, "tableaux", "--shape", EX, "--m", "2", "--gamma", "1,2,3"
        )
        assert code == 0
        assert payload["count"] == 3
        assert payload["signed_count"] == 1
        assert sorted(t["sign"] for t in payload["tableaux"]) == [-1, 1, 1]
        for t in payload["tableaux"]:
            assert t["labels"] == [1, 2, 3, 4, 5, 6]
            assert t["chain"][0] == [3, 1]
            assert t["chain"][-1] == [6, 5, 3, 2]

    def test_text_output_mentions_totals(self, capsys):
        code, out, err = run(
            capsys, "tableaux", "--shape", EX, "--m", "2", "--gamma", "2,1,3"
        )
        assert code == 0
        assert "tableaux: 1" in out
        assert "signed count: 1" in out
        assert "sign: +1" in out

    def test_default_m_matches_mn(self, capsys):
        code, payload = run_json(
            capsys, "tableaux", "--shape", BIG, "--gamma", "6,3,3,3"
        )
        assert code == 0
        assert payload["m"] == 1
        assert payload["count"] == 4
        assert payload["signed_count"] == -2

    def test_grid_renders(self, capsys):
        code, payload = run_json(
            capsys, "tableaux", "--shape", "2,2/1", "--gamma", "3"
        )
        assert code == 0
        assert payload["tableaux"][0]["grid"] == ": 1\n1 1"


class TestQuotient:
    def test_worked_example_json(self, capsys):
        code, payload = run_json(capsys, "quotient", "--shape", BIG, "--n", "3")
        assert code == 0
        assert payload == {
            "command": "quotient",
            "components": ["1,1,1/-", "3,1/1,1", "-/-"],
            "n": 3,
            "relabelling": [2, 1, 4, 3, 5, 6],
            "shape": BIG,
            "sign": 1,
        }

    def test_worked_example_text(self, capsys):
        code, out, err = run(capsys, "quotient", "--shape", BIG, "--n", "3")
        assert code == 0
        assert "outer display:" in out
        assert "o  o  ●1" in out
        assert "relabelling: (1 2)(3 4)" in out
        assert out.rstrip().endswith("sign: +1")

    def test_non_decomposable_exits_1(self, capsys):
        code, out, err = run(capsys, "quotient", "--shape", "3,1/2", "--n", "2")
        assert code == 1
        assert err.startswith("error:")


class TestRunnerLimit:
    # a shape without boxes passes the divisibility check for any n, so n
    # above max(|outer|, 1) is refused before n runners are drawn
    @pytest.mark.parametrize(
        "argv",
        [
            ("quotient", "--shape", "-", "--n", "100000000000"),
            ("farahat", "--shape", "-", "--n", "100000000000", "--alpha", "-"),
            ("quotient", "--shape", "-/-", "--n", "3000000"),
        ],
    )
    def test_too_many_runners_exits_1(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_one_runner_on_the_empty_shape(self, capsys):
        code, payload = run_json(capsys, "quotient", "--shape", "-", "--n", "1")
        assert code == 0
        assert payload["components"] == ["-/-"]


class TestFarahat:
    def test_worked_example(self, capsys):
        code, out, err = run(
            capsys, "farahat", "--shape", BIG, "--n", "3", "--alpha", "2,1,1,1"
        )
        assert code == 0
        assert out == "lhs: -2\nrhs: -2\nagree: true\n"

    def test_json(self, capsys):
        code, payload = run_json(
            capsys, "farahat", "--shape", "3,1/1,1", "--n", "2", "--alpha", "1"
        )
        assert code == 0
        assert payload == {
            "agree": True,
            "alpha": [1],
            "command": "farahat",
            "lhs": 1,
            "n": 2,
            "rhs": 1,
            "shape": "3,1/1,1",
        }

    def test_size_mismatch_exits_1(self, capsys):
        code, out, err = run(
            capsys, "farahat", "--shape", "3,1", "--n", "3", "--alpha", "2"
        )
        assert code == 1
        assert err.startswith("error:")


class TestVerify:
    def test_small_sweep_ok(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--max-size", "6", "--inner-max", "1"
        )
        assert code == 0
        assert payload["ok"] is True
        assert payload["failures"] == []
        cells = payload["cells"]
        assert {(c["m"], c["n"]) for c in cells} == {(2, 2), (2, 3), (3, 2)}
        assert {c["theta"] for c in cells} == {"trivial", "sign"}
        assert all(c["instances"] > 0 for c in cells)
        assert all(c["failures"] == 0 for c in cells)

    def test_single_mode(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--max-size", "4", "--inner-max", "1",
            "--theta", "sign",
        )
        assert code == 0
        assert [c["theta"] for c in payload["cells"]] == ["sign"]

    def test_general_theta_restricts_to_matching_m(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--max-size", "6", "--inner-max", "0",
            "--theta", "2,1",
        )
        assert code == 0
        assert [(c["m"], c["n"], c["theta"]) for c in payload["cells"]] == [
            (3, 2, "2,1")
        ]

    def test_text_reports_per_cell(self, capsys):
        code, out, err = run(capsys, "verify", "--max-size", "4", "--inner-max", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "verify: ok"
        assert all("failures" in line for line in lines[:-1])

    def test_every_cell_reports_seconds(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--max-size", "6", "--inner-max", "1"
        )
        assert code == 0
        assert all(c["seconds"] >= 0 for c in payload["cells"])
        code, out, err = run(capsys, "verify", "--max-size", "4", "--inner-max", "0")
        assert all(line.endswith(" s") for line in out.splitlines()[:-1])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-size", "-1"],
            ["--max-size", "3"],
            ["--max-size", "4", "--theta", "5"],
            ["--max-size", "12", "--theta", "1"],
            ["--max-size", "12", "--theta", "-"],
        ],
    )
    def test_empty_grid_exits_1(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: nothing to verify")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("binding", ["defres_theorem", "oracle_defres"])
    def test_one_wrong_value_fails(self, capsys, monkeypatch, binding):
        # the claimed route, or the oracle, off by one on the instance
        # shape 3,1 at gamma 1,1 of the one cell m = n = 2
        top = with_cycle_type((1, 1), 2)
        wrong = {  # the binding's arguments -> is it the instance?
            "defres_theorem": lambda q: (q.shape, q.gamma) == (((3, 1), ()), (1, 1)),
            "oracle_defres": lambda shape, theta, n, g: (shape, g) == (((3, 1), ()), top),
        }[binding]
        original = getattr(defres.cli, binding)
        monkeypatch.setattr(
            defres.cli, binding, lambda *args: original(*args) + wrong(*args)
        )
        argv = ("verify", "--max-size", "4", "--inner-max", "0", "--theta", "trivial")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert lines[-1] == "verify: FAILED"
        assert [line for line in lines if "shape=" in line] == [lines[-2]]
        assert lines[-2].startswith("m=2 n=2 theta=2 shape=3,1/- gamma=1,1: ")
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload["ok"] is False
        cells = [(c["m"], c["n"], c["failures"], c["instances"]) for c in payload["cells"]]
        assert cells == [(2, 2, 1, 10)]
        assert payload["failures"] == [lines[-2]]

    def test_empty_grid_at_large_max_size_is_fast(self, capsys):
        # only m * n <= max-size is visited, not every (m, n) up to it
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--max-size", "100000", "--theta", "99999")
        assert time.perf_counter() - start < 10
        assert code == 1
        assert err.startswith("error: nothing to verify")

    def test_general_theta_plans_only_its_own_m(self, capsys):
        # the cells are planned up front: a general theta visits m = |theta|
        # alone, so an empty sweep does not grow with max-size
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--max-size", "10000000", "--theta", "9999999"
        )
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ""
        assert err.startswith("error: nothing to verify")
        assert err.count("\n") == 1


ONES = ",".join(["1"] * 1200)


class TestDeepGamma:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mn", "--shape", "1200", "--gamma", ONES],
            ["tableaux", "--shape", "1200", "--gamma", ONES],
            ["defres", "--shape", "1200", "--m", "1", "--gamma", ONES],
            ["defres", "--shape", "1200", "--m", "1200", "--theta", "1199,1",
             "--gamma", "1"],
            ["defres", "--shape", "2800", "--m", "2", "--theta", "2",
             "--evaluator", "recursive", "--gamma", ",".join(["2"] * 700)],
        ],
        ids=["mn", "tableaux", "defres", "cells", "closing-run"],
    )
    def test_recursion_limit_exits_1(self, capsys, argv):
        # the strip recursions go one level deeper per part of gamma and the
        # LR fillings per cell; "cells" has no long gamma, and route 2 walks
        # a closing run of 700 2-cycles as 700 1-cycles on its 2-quotient
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (
            "error: input too deep for the recursion limit (one level per "
            "part or cell)\n"
        )

    def test_long_closing_run_evaluates(self, capsys):
        # 300 2-cycles read the 2-quotient of 1200 once, then walk 300
        # 1-cycles on its one-row component, one level each
        code, out, err = run(
            capsys, "defres", "--shape", "1200", "--m", "2", "--theta", "2",
            "--evaluator", "recursive", "--gamma", ",".join(["2"] * 300),
        )
        assert (code, out, err) == (0, "value: 1\nevaluator: recursive\n", "")

    def test_many_rows_evaluate(self, capsys):
        # the abacus is read in one loop over the 1200 rows, one level in
        # all; route 1 gives the same value (defres_sign)
        code, out, err = run(
            capsys, "defres", "--shape", ONES, "--m", "2", "--theta", "1,1",
            "--gamma", "600",
        )
        assert (code, out, err) == (0, "value: 1\nevaluator: recursive\n", "")

    def test_many_runners_evaluate(self, capsys):
        # the cut table loops over the 1200 runners, one level in all;
        # route 1 gives the same value (defres_sign)
        for evaluator in ("recursive", "auto"):
            code, out, err = run(
                capsys, "defres", "--shape", ",".join(["1"] * 4800), "--m", "2",
                "--theta", "1,1", "--gamma", "1200,1200", "--evaluator", evaluator,
            )
            assert (code, err) == (0, "")
            assert out.startswith("value: 1\n"), evaluator

    def test_many_quotient_components_evaluate(self, capsys):
        # induction loops over the 1200 quotient components, one level in all
        code, out, err = run(
            capsys, "farahat", "--shape", "1200", "--n", "1200", "--alpha", "1"
        )
        assert (code, out, err) == (0, "lhs: 1\nrhs: 1\nagree: true\n", "")


# argv fuzzing: small or garbled tokens for every command and option


def mostly(good, bad):
    # bad about one time in four, so that most argvs get past the parser
    return st.sampled_from((good, good, good, bad)).flatmap(lambda s: s)


LISTS = st.lists(st.integers(min_value=-1, max_value=6), max_size=4)
PARTS = mostly(LISTS.map(lambda parts: sorted(parts, reverse=True)), LISTS).map(
    lambda parts: ",".join(map(str, parts)) or "-"
)
GARBLED = st.sampled_from(["", " ", "-", ",", "x", "1,,2", "2,x", "/", "-/-", "1/2"])
TYPES = mostly(PARTS, GARBLED)
SHAPES = mostly(TYPES, st.tuples(PARTS, PARTS).map("/".join))
INTS = mostly(
    st.integers(min_value=-1, max_value=6).map(str),
    st.sampled_from(["", "x", "1.5", "--"]),
)
THETAS = mostly(TYPES, st.sampled_from(["trivial", "sign"]))
OPTIONS = {
    "defres": {
        "--shape": SHAPES,
        "--m": INTS,
        "--gamma": TYPES,
        "--theta": THETAS,
        "--evaluator": st.sampled_from(
            ["auto", "tableau", "recursive", "oracle", "oracle-naive", "bogus"]
        ),
    },
    "mn": {"--shape": SHAPES, "--gamma": TYPES},
    "tableaux": {"--shape": SHAPES, "--gamma": TYPES, "--m": INTS},
    "quotient": {"--shape": SHAPES, "--n": INTS},
    "farahat": {"--shape": SHAPES, "--n": INTS, "--alpha": TYPES},
    "verify": {"--inner-max": INTS, "--theta": THETAS},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["bogus"]))
    argv = [command]
    for flag, values in OPTIONS.get(command, {}).items():
        if draw(st.sampled_from((True,) * 7 + (False,))):  # at times omitted
            argv += [flag, draw(values)]
    # the defaults of these two allow seconds to minutes of work
    if command == "defres":
        argv += ["--budget", draw(INTS)]
    if command == "verify":
        argv += ["--max-size", draw(INTS)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "xml"]))]
    return argv


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argvs())
    def test_exit_code_and_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        err = err.getvalue()
        assert code in {0, 1, 2, 3}
        assert "Traceback" not in out.getvalue() + err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == (1 if code else 0), (argv, err)


def child_env():
    # the child imports the package under test, installed or not
    src = str(Path(defres.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestEntryPoints:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "defres.cli", "mn", "--shape", "2,1",
             "--gamma", "3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "-1\n"

    def test_reader_closing_stdout_exits_1_quietly(self):
        # 4,160 tableaux print about 4 MB of JSON, far more than a pipe holds
        proc = subprocess.Popen(
            [sys.executable, "-m", "defres.cli", "tableaux", "--shape",
             "6,5,4,3,2,1", "--m", "1", "--gamma", "3,3,3,3,3,2,2,1,1",
             "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# every "$ defres ..." line in a README.md code block, and the lines below it
# up to the next command or the end of the block
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
EXAMPLES = re.findall(r"^\$ defres (.*)\n((?:(?!\$ |```).*\n)*)", README, re.M)


class TestReadme:
    def test_every_subcommand_has_an_example(self):
        commands = {shlex.split(command)[0] for command, _ in EXAMPLES}
        assert commands == {"defres", "mn", "tableaux", "quotient", "farahat", "verify"}

    @pytest.mark.parametrize(
        "command, shown", EXAMPLES, ids=[command for command, _ in EXAMPLES]
    )
    def test_example_output_is_exact(self, capsys, command, shown):
        code, out, err = run(capsys, *shlex.split(command))
        assert (code, err) == (0, "")
        if command.startswith("verify"):  # per-cell wall time varies
            seconds = re.compile(r"\d+\.\d{3} s$", re.M)
            out, shown = seconds.sub("- s", out), seconds.sub("- s", shown)
        assert out == shown.rstrip("\n") + "\n"
