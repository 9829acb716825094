import ast
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
