import pytest

import defres


def test_all_names_resolve():
    missing = [name for name in defres.__all__ if not hasattr(defres, name)]
    assert missing == []


def test_all_sorted_without_duplicates():
    assert list(defres.__all__) == sorted(set(defres.__all__))


@pytest.mark.parametrize(
    "name", ["contains", "conjugate", "enumerate_bst", "Box", "skew_restriction"]
)
def test_removed_aliases_are_gone(name):
    # containment and conjugation are Partition methods; plain border-strip
    # tableaux are enumerate_m_bst(shape, 1, gamma); diagram cells and
    # restriction pairs had no caller outside their own tests
    assert name not in defres.__all__
    with pytest.raises(ImportError):
        exec(f"from defres import {name}", {})
