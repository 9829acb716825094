import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from defres import Partition
from defres.perms import (
    all_permutations,
    compose,
    cycle_notation,
    cycle_type_of,
    cycles,
    identity,
    with_cycle_type,
)

from conftest import parity

perms5 = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.permutations(list(range(n))).map(tuple)
)


class TestBasics:
    def test_identity(self):
        assert identity(4) == (0, 1, 2, 3)
        assert identity(0) == ()

    def test_compose_applies_right_factor_first(self):
        p = (1, 0, 2)  # swaps 0,1
        q = (0, 2, 1)  # swaps 1,2
        assert compose(p, q) == (1, 2, 0)
        assert compose(q, p) == (2, 0, 1)

    @given(perms5, perms5)
    @settings(max_examples=60, deadline=None)
    def test_compose_parity_multiplicative(self, p, q):
        if len(p) != len(q):
            return
        assert parity(compose(p, q)) == parity(p) * parity(q)


class TestCycles:
    def test_fixture(self):
        assert cycles((1, 0, 3, 2, 4)) == [(0, 1), (2, 3), (4,)]
        assert cycles((1, 2, 0)) == [(0, 1, 2)]
        assert cycles(()) == []

    @pytest.mark.parametrize(
        "p", [(1, 1, 0), (5, 0), (0, 0), (-1, 0)], ids=["repeat", "high", "fixed", "low"]
    )
    def test_not_a_permutation(self, p):
        # a repeated image closed no cycle and looped for ever; an image out
        # of range raised IndexError, or for a negative one read another point
        with pytest.raises(ValueError, match="not a permutation"):
            cycles(p)

    def test_cycle_type(self):
        assert cycle_type_of((1, 0, 3, 2, 4)) == Partition((2, 2, 1))
        assert cycle_type_of(identity(5)) == Partition((1,) * 5)

    @given(perms5)
    @settings(max_examples=60, deadline=None)
    def test_parity_matches_inversion_count(self, p):
        # -1 to the number of even-length cycles
        assert (-1) ** (len(p) - len(cycles(p))) == parity(p)

    def test_with_cycle_type(self):
        assert with_cycle_type((2, 1, 1), 4) == (1, 0, 2, 3)
        assert with_cycle_type((3, 2), 5) == (1, 2, 0, 4, 3)
        assert with_cycle_type((), 0) == ()
        with pytest.raises(ValueError):
            with_cycle_type((2,), 4)

    @pytest.mark.parametrize("parts", [(-1, 3), (0, 2)])
    def test_with_cycle_type_rejects_parts_below_one(self, parts):
        # both sum to 2, but a cycle has at least one element
        with pytest.raises(ValueError, match="not a composition of 2"):
            with_cycle_type(parts, 2)

    def test_with_cycle_type_round_trip(self):
        from defres import partitions_of

        for r in range(0, 6):
            for alpha in partitions_of(r):
                got = cycle_type_of(with_cycle_type(alpha.parts, r))
                assert got == alpha

    def test_all_permutations(self):
        ps = list(all_permutations(4))
        assert len(ps) == 24 == len(set(ps))
        assert all(sorted(p) == [0, 1, 2, 3] for p in ps)

    def test_class_sizes(self):
        from defres import centralizer_order
        from math import factorial

        counts: dict = {}
        for p in all_permutations(5):
            t = cycle_type_of(p)
            counts[t] = counts.get(t, 0) + 1
        for t, size in counts.items():
            assert size == factorial(5) // centralizer_order(t)


class TestCycleNotation:
    def test_fixtures(self):
        assert cycle_notation((1, 0, 3, 2)) == "(1 2)(3 4)"
        assert cycle_notation(identity(3)) == "()"
        assert cycle_notation((1, 2, 0, 3)) == "(1 2 3)"
