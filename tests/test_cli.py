import json
import subprocess
import sys

import pytest

from defres.cli import main

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-size", "-1"],
            ["--max-size", "3"],
            ["--max-size", "4", "--theta", "5"],
        ],
    )
    def test_empty_grid_exits_1(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
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
        ],
        ids=["mn", "tableaux", "defres"],
    )
    def test_recursion_limit_exits_1(self, capsys, argv):
        # the strip recursions go one level deeper per part of gamma
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: cycle type has too many parts for the recursion limit\n"


class TestEntryPoints:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "defres.cli", "mn", "--shape", "2,1",
             "--gamma", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "-1\n"

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
