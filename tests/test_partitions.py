import copy
import itertools
import pickle
from math import factorial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from defres import (
    Box,
    Composition,
    Partition,
    SkewPartition,
    centralizer_order,
    conjugate,
    contains,
    intermediates,
    mn_value,
    partitions_of,
    repeat_parts,
    skew_shapes,
    stretch,
)

from defres.borderstrips import _mn

from conftest import partitions


class TestPartition:
    def test_trailing_zeros_stripped(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition((0, 0)) == Partition()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((3, -1))

    def test_size_and_indexing(self):
        p = Partition((6, 5, 3, 2))
        assert p.size == 16
        assert len(p) == 4
        assert p[0] == 6
        assert p.part(1) == 6
        assert p.part(5) == 0  # rows past the end are empty

    def test_parse_and_str_round_trip(self):
        for text in ("6,5,3,2", "-", "1", "4,4,4"):
            assert str(Partition.parse(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Partition.parse("3,x")
        with pytest.raises(ValueError):
            Partition.parse("")
        with pytest.raises(ValueError):
            Partition.parse("1,3")

    def test_boxes(self):
        assert list(Partition((2, 1)).boxes()) == [Box(1, 1), Box(1, 2), Box(2, 1)]

    def test_hashable(self):
        assert len({Partition((2, 1)), Partition((2, 1)), Partition((3,))}) == 2


class TestTupleSemantics:
    def test_equal_and_hashed_like_the_plain_tuple(self):
        p = Partition((2, 1))
        assert p == (2, 1)
        assert hash(p) == hash((2, 1))
        assert Partition((2, 1)) == Composition((2, 1)) == (2, 1)
        assert hash(Composition((1, 2))) == hash((1, 2))

    def test_construction_from_an_instance_returns_it(self):
        p = Partition((3, 1))
        assert Partition(p) is p
        gamma = Composition((1, 3))
        assert Composition(gamma) is gamma

    def test_immutable(self):
        p = Partition((3, 1))
        with pytest.raises(AttributeError):
            p.parts = (4,)
        with pytest.raises(AttributeError):
            p.extra = 1

    def test_pickle_and_deepcopy_round_trip(self):
        for x in (
            Partition((3, 1, 1)),
            Partition(),
            Composition((1, 3, 2)),
            Composition(),
        ):
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
                assert y == x
                assert type(y) is type(x)
                assert repr(y) == repr(x)

    def test_partition_and_tuple_share_a_memo_entry(self):
        shape = SkewPartition((3, 2), (1,))
        _mn.cache_clear()
        value = mn_value(shape, Partition((2, 2)))
        before = _mn.cache_info()
        assert mn_value(shape, (2, 2)) == value
        after = _mn.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


class TestSkewPartition:
    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            SkewPartition((2, 2), (3,))

    def test_size_and_boxes(self):
        shape = SkewPartition((2, 2), (1,))
        assert shape.size == 3
        assert list(shape.boxes()) == [Box(1, 2), Box(2, 1), Box(2, 2)]

    def test_parse_variants(self):
        assert SkewPartition.parse("6,5,3,2/3,1") == SkewPartition((6, 5, 3, 2), (3, 1))
        assert SkewPartition.parse("6,5,3,2") == SkewPartition((6, 5, 3, 2))
        assert SkewPartition.parse("2,2/-") == SkewPartition((2, 2))
        assert str(SkewPartition.parse("2,2/1")) == "2,2/1"
        assert str(SkewPartition.parse("-/-")) == "-/-"


class TestComposition:
    def test_order_significant(self):
        assert Composition((1, 2)) != Composition((2, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Composition((2, 0))

    def test_parse(self):
        assert Composition.parse("1,2,3") == Composition((1, 2, 3))
        assert Composition.parse("-") == Composition()


class TestContains:
    def test_fixtures(self):
        assert contains((6, 5, 3, 2), (3, 1))
        assert not contains((3, 1), (1, 1, 1))
        assert contains((1,), ())
        assert contains((), ())


class TestConjugate:
    def test_fixture(self):
        assert conjugate((6, 4, 2)) == Partition((3, 3, 2, 2, 1, 1))
        assert conjugate(()) == Partition()
        assert conjugate((5,)) == Partition((1, 1, 1, 1, 1))

    @given(partitions())
    def test_involution(self, p):
        assert p.conjugate().conjugate() == p

    @given(partitions())
    def test_column_counts(self, p):
        # independent transpose: count boxes per column directly
        q = p.conjugate()
        for c in range(1, (p[0] if len(p) else 0) + 1):
            assert q.part(c) == sum(1 for part in p if part >= c)


class TestPartitionsOf:
    def test_small_lists(self):
        assert [tuple(p) for p in partitions_of(0)] == [()]
        assert [tuple(p) for p in partitions_of(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_counts_match_recurrence(self):
        # independent count: p(n, k) = partitions of n with parts <= k
        def count(n, k):
            if n == 0:
                return 1
            if n < 0 or k == 0:
                return 0
            return count(n - k, k) + count(n, k - 1)

        for r in range(11):
            assert len(partitions_of(r)) == count(r, r if r else 1)
        assert len(partitions_of(10)) == 42

    def test_reverse_lexicographic(self):
        for r in range(9):
            ps = [tuple(p) for p in partitions_of(r)]
            assert ps == sorted(ps, reverse=True)


class TestIntermediates:
    def test_fixture(self):
        shape = SkewPartition((2, 2))
        assert [tuple(t) for t in intermediates(shape, 2)] == [(2,), (1, 1)]

    def test_endpoints(self):
        shape = SkewPartition((6, 5, 3, 2), (3, 1))
        assert intermediates(shape, 0) == [Partition((3, 1))]
        assert intermediates(shape, shape.size) == [Partition((6, 5, 3, 2))]

    def test_out_of_range_empty(self):
        shape = SkewPartition((2, 2), (1,))
        assert intermediates(shape, 7) == []

    @given(partitions(max_size=9, max_rows=4), st.integers(min_value=0, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_matches_filter(self, outer, c):
        # brute force: filter all partitions of the right size by containment
        inner_candidates = [q for q in partitions_of(max(outer.size - 3, 0)) if outer.contains(q)]
        inner = inner_candidates[0] if inner_candidates else Partition()
        shape = SkewPartition(outer, inner)
        got = intermediates(shape, c)
        want = [
            t
            for t in partitions_of(inner.size + c)
            if outer.contains(t) and t.contains(inner)
        ]
        assert sorted(tuple(t) for t in got) == sorted(tuple(t) for t in want)
        # descending lexicographic order
        assert [tuple(t) for t in got] == sorted(
            (tuple(t) for t in got), reverse=True
        )


class TestCentralizerOrder:
    def test_fixtures(self):
        assert centralizer_order((1, 1, 1)) == 6
        assert centralizer_order((3,)) == 3
        assert centralizer_order((2, 1)) == 2
        assert centralizer_order((2, 2)) == 8
        assert centralizer_order(()) == 1

    def test_counts_in_s4(self):
        # brute force in S_4: the centralizer order is 24 / class size
        def cycle_type(p):
            seen, lens = set(), []
            for s in range(4):
                if s in seen:
                    continue
                c, x = 0, s
                while x not in seen:
                    seen.add(x)
                    c += 1
                    x = p[x]
                lens.append(c)
            return tuple(sorted(lens, reverse=True))

        sizes = {}
        for p in itertools.permutations(range(4)):
            sizes[cycle_type(p)] = sizes.get(cycle_type(p), 0) + 1
        for alpha, size in sizes.items():
            assert centralizer_order(alpha) == 24 // size

    def test_class_equation(self):
        for r in range(1, 11):
            assert sum(factorial(r) // centralizer_order(a) for a in partitions_of(r)) == factorial(r)


class TestStretchRepeat:
    def test_fixtures(self):
        assert stretch((2, 1, 1, 1), 3) == Partition((6, 3, 3, 3))
        assert stretch((), 4) == Partition()
        assert repeat_parts(Composition((1, 2, 3)), 2) == Composition((1, 1, 2, 2, 3, 3))
        assert repeat_parts(Composition((3, 1)), 1) == Composition((3, 1))

    def test_rejects_bad_multipliers(self):
        with pytest.raises(ValueError):
            stretch((2, 1), 0)
        with pytest.raises(ValueError):
            repeat_parts(Composition((2, 1)), 0)

    @given(partitions(), st.integers(min_value=1, max_value=4))
    def test_sizes(self, p, n):
        assert stretch(p, n).size == n * p.size
        gamma = Composition(p.parts)
        assert repeat_parts(gamma, n).size == n * gamma.size


class TestSkewShapes:
    def test_inner_zero_is_straight_shapes(self):
        got = list(skew_shapes(4, 0))
        assert got == [SkewPartition(p) for p in partitions_of(4)]

    def test_counts_and_membership(self):
        got = list(skew_shapes(3, 2))
        assert len(got) == len(set(got))
        for shape in got:
            assert shape.size == 3
            assert shape.inner.size <= 2
        assert SkewPartition((2, 2), (1,)) in got
        assert SkewPartition((3, 2), (2,)) in got
