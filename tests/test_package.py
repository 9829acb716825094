import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import defres
import defres.perms

SRC = Path(defres.__file__).resolve().parents[1]
README = (SRC.parent / "README.md").read_text()


def test_all_names_resolve():
    missing = [name for name in defres.__all__ if not hasattr(defres, name)]
    assert missing == []


def test_all_sorted_without_duplicates():
    assert list(defres.__all__) == sorted(set(defres.__all__))


@pytest.mark.parametrize(
    "name",
    [
        "contains",
        "conjugate",
        "enumerate_bst",
        "Box",
        "skew_restriction",
        "n_core",
        "is_horizontal_strip",
        "unique_cycle_tableau",
        "is_border_strip",
        "strip_meta",
        "cycle_type",
        "cycle_products",
    ],
)
def test_removed_aliases_are_gone(name):
    # containment and conjugation are Partition methods; plain border-strip
    # tableaux are enumerate_m_bst(shape, 1, gamma); the rest had no caller
    # outside their own tests: a one-strip BorderStripTableau validates a
    # strip and its metas() give the metadata
    assert name not in defres.__all__
    with pytest.raises(ImportError):
        exec(f"from defres import {name}", {})


def test_perms_has_no_parity():
    # the relabelling and wreath signs are tested against an inversion count
    assert not hasattr(defres.perms, "parity")


def test_import_loads_no_dataclasses():
    # the records are tuples, so a fresh `import defres` leaves it unloaded
    proc = subprocess.run(
        [sys.executable, "-c", "import defres, sys; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert proc.stdout == "False\n"


COLD_TWICE = """
import json
from conftest import defres_memos
from defres import (
    Composition, DeflationQuery, Partition, SkewPartition, defres_recursive, defres_theorem,
    irreducible_character, oracle_defres,
)
from defres.perms import with_cycle_type

shape = SkewPartition((12, 10, 8, 6, 4, 2), (4, 2))
gamma = Composition((4, 3, 2, 1, 1, 1))
theta = irreducible_character((2, 1))
routes = {
    "defres_recursive": lambda: defres_recursive(DeflationQuery(shape, 3, 12, Partition((2, 1)), gamma)),
    "defres_theorem": lambda: defres_theorem(DeflationQuery(shape, 3, 12, Partition((3,)), gamma)),
    "oracle_defres": lambda: oracle_defres(shape, theta, 12, with_cycle_type(gamma, 12)),
}
memos = defres_memos()
misses = {}
for name, route in routes.items():
    for _ in range(2):
        for memo in memos.values():
            memo.cache_clear()
        route()
        misses.setdefault(name, []).append({k: m.cache_info().misses for k, m in memos.items()})
print(json.dumps(misses))
"""


def test_cleared_memos_leave_no_work_behind():
    # cold means cold: in a fresh interpreter, one query of each route run
    # twice, every memo of the scan the benchmark clears emptied before each
    # run, misses every memo equally often both times; a cache outside that
    # scan would let the second run skip work
    proc = subprocess.run(
        [sys.executable, "-c", COLD_TWICE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])},
        check=True,
    )
    misses = json.loads(proc.stdout)
    assert set(misses) == {"defres_recursive", "defres_theorem", "oracle_defres"}
    for route, (first, second) in misses.items():
        assert sum(first.values()) > 0, route
        assert first == second, route


def test_readme_python_api_values():
    # run the README's Python API block; each expression statement shows its
    # value in the comment after it, up to any two-space gap
    block = re.search(r"^## Python API\n\n```python\n(.*?)^```", README, re.M | re.S)[1]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            value = lines[node.end_lineno - 1].split("#", 1)[1].strip().split("  ")[0]
            assert eval(code, namespace) == ast.literal_eval(value), code
            shown.append(value)
        else:
            exec(code, namespace)
    assert shown == [
        "1", "1", "1", "-2", "['1,1,1/-', '3,1/1,1', '-/-']", "(2, 1, 4, 3, 5, 6), 1"
    ]
