import copy
import itertools
import pickle
import time
from math import factorial

import pytest
from hypothesis import given
import hypothesis.strategies as st

from defres import (
    BorderStripTableau,
    ClassFunction,
    Composition,
    DeflationQuery,
    Partition,
    SkewPartition,
    WreathElement,
    centralizer_order,
    display,
    enumerate_m_bst,
    intermediates,
    irreducible_character,
    mn_value,
    n_quotient,
    partitions_of,
    repeat_parts,
    skew_shapes,
    stretch,
)

from defres.borderstrips import _mn

from conftest import boxes, partitions


class TestPartition:
    def test_trailing_zeros_stripped(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition((0, 0)) == Partition()

    def test_trailing_zeros_stripped_in_one_slice(self):
        start = time.perf_counter()
        assert Partition((1,) + (0,) * 100_000) == Partition((1,))
        assert time.perf_counter() - start < 1
        for parts in ((0, 1), (2, 0, 1)):  # zeros before a part stay and fail
            with pytest.raises(ValueError):
                Partition(parts)

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

    def test_hashable(self):
        assert len({Partition((2, 1)), Partition((2, 1)), Partition((3,))}) == 2

    def test_rejects_non_integer_parts(self):
        with pytest.raises(TypeError):
            Partition([2.9, 1.2])


class TestTupleSemantics:
    def test_equal_and_hashed_like_the_plain_tuple(self):
        p = Partition((2, 1))
        assert p == (2, 1)
        assert hash(p) == hash((2, 1))
        assert Partition((2, 1)) == Composition((2, 1)) == (2, 1)
        assert hash(Composition((1, 2))) == hash((1, 2))
        shape = SkewPartition((3, 2), (1,))
        assert shape == ((3, 2), (1,))
        assert hash(shape) == hash(((3, 2), (1,)))
        assert shape != SkewPartition((3, 2))
        chi = irreducible_character((2, 1))
        assert chi == (3, (-1, 0, 2))
        assert hash(chi) == hash((3, (-1, 0, 2)))
        assert chi != ClassFunction.trivial(3)
        t = BorderStripTableau([(1,), (2,), (2, 2)])
        assert t == (((1,), (2,), (2, 2)), (1, 2))
        assert hash(t) == hash((((1,), (2,), (2, 2)), (1, 2)))
        assert t != BorderStripTableau([(1,), (2,), (2, 2)], labels=(2, 3))

    def test_construction_from_an_instance_returns_it(self):
        p = Partition((3, 1))
        assert Partition(p) is p
        gamma = Composition((1, 3))
        assert Composition(gamma) is gamma
        # a partition is a composition
        assert Composition(p) is p

    def test_immutable(self):
        p = Partition((3, 1))
        with pytest.raises(AttributeError):
            p.parts = (4,)
        with pytest.raises(AttributeError):
            p.extra = 1
        with pytest.raises(AttributeError):
            SkewPartition((3, 1)).outer = Partition((4,))
        with pytest.raises(AttributeError):
            display((3, 1), 2).beads = frozenset()
        with pytest.raises(AttributeError):
            ClassFunction.trivial(2).degree = 3
        with pytest.raises(AttributeError):
            ClassFunction.trivial(2).extra = 1
        with pytest.raises(AttributeError):
            BorderStripTableau([(1,), (2,)]).chain = ()
        shape = SkewPartition((8, 5, 3, 2, 2, 2), (2, 2, 1, 1, 1))
        records = (
            (DeflationQuery(shape, 3, 5, Partition((2, 1)), Composition((3, 2))), "m", 4),
            (n_quotient(shape, 3), "sign", -1),
            (WreathElement(((1, 0), (0, 1)), (1, 0)), "top", (0, 1)),
        )
        for record, field, value in records:
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_replace_and_make_validate(self):
        # each validated record with one bad field: every way in raises the
        # constructor's error, and a valid _replace keeps the type
        shape = SkewPartition((8, 5, 3, 2, 2, 2), (2, 2, 1, 1, 1))
        cases = (
            (shape, "inner", (9,)),
            (display((3, 1), 2), "runners", 0),
            (BorderStripTableau([(1,), (2,), (2, 2)]), "labels", (2, 1)),
            (DeflationQuery(shape, 3, 5, Partition((2, 1)), Composition((3, 2))), "m", 0),
            (WreathElement(((0, 1),), (0,)), "top", (5,)),
        )
        for record, field, value in cases:
            cls = type(record)
            values = [value if f == field else getattr(record, f) for f in cls._fields]
            messages = set()
            for build in (
                lambda: cls(*values),
                lambda: record._replace(**{field: value}),
                lambda: cls._make(values),
            ):
                with pytest.raises(ValueError) as exc:
                    build()
                messages.add(str(exc.value))
            assert len(messages) == 1
            same = record._replace(**{field: getattr(record, field)})
            assert same == record and type(same) is cls
            assert cls._make(record) == record

    def test_pickle_and_deepcopy_round_trip(self):
        shape = SkewPartition((8, 5, 3, 2, 2, 2), (2, 2, 1, 1, 1))
        for x in (
            Partition((3, 1, 1)),
            Partition(),
            Composition((1, 3, 2)),
            Composition(),
            shape,
            SkewPartition(()),
            display((4, 2, 1), 3),
            n_quotient(shape, 3),
            DeflationQuery(shape, 3, 5, Partition((2, 1)), Composition((3, 2))),
            irreducible_character((2, 1)),
            ClassFunction.sign(0),
            BorderStripTableau([(1, 1), (2, 1), (3, 1)], labels=(3, 4)),
            *enumerate_m_bst(SkewPartition((4, 2)), 2, (2, 1)),
            WreathElement(((1, 0, 2), (0, 2, 1), (0, 1, 2)), (1, 2, 0)),
        ):
            for y in (
                pickle.loads(pickle.dumps(x)),
                copy.deepcopy(x),
                copy.copy(x),
            ):
                assert y == x
                assert type(y) is type(x)
                assert repr(y) == repr(x)

    def test_unequal_objects_print_differently(self):
        chain = [(1, 1), (2, 1), (3, 1)]
        tableaux = [BorderStripTableau(chain), BorderStripTableau(chain, (3, 4))]
        characters = [irreducible_character(lam) for lam in partitions_of(3)]
        for group in (tableaux, characters):
            assert len({repr(x) for x in group}) == len(set(group)) == len(group)

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

    def test_rejects_non_integer_parts(self):
        with pytest.raises(TypeError):
            SkewPartition([3.7], [1.1])

    def test_size_and_boxes(self):
        shape = SkewPartition((2, 2), (1,))
        assert shape.size == 3 == len(boxes(shape))

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

    def test_rejects_non_integer_parts(self):
        with pytest.raises(TypeError):
            Composition(["1", "2"])

    def test_parse(self):
        assert Composition.parse("1,2,3") == Composition((1, 2, 3))
        assert Composition.parse("-") == Composition()


class TestContains:
    def test_fixtures(self):
        assert Partition((6, 5, 3, 2)).contains((3, 1))
        assert not Partition((3, 1)).contains((1, 1, 1))
        assert Partition((1,)).contains(())
        assert Partition(()).contains(())


class TestConjugate:
    def test_fixture(self):
        assert Partition((6, 4, 2)).conjugate() == Partition((3, 3, 2, 2, 1, 1))
        assert Partition(()).conjugate() == Partition()
        assert Partition((5,)).conjugate() == Partition((1, 1, 1, 1, 1))

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

    def test_matches_filter(self):
        # exhaustive: every outer of at most 10 boxes, every inner inside it
        # and every c one past either end; then the regime of route 2, long
        # rows with small removals: outers of 11 to 14 boxes, inners of at
        # most 2 and c = |outer/inner| - m for m <= 4.  Against filtering
        # the partitions of the target size (reverse-lexicographic, so the
        # order is checked); the plain pair and an inner padded with zero
        # parts to outer's length give the same list
        inputs = [
            (shape, range(-1, size + 2))
            for size in range(11)
            for shape in skew_shapes(size, 10 - size)
        ] + [
            (SkewPartition(outer, inner), range(n - b - 4, n - b + 1))
            for n in range(11, 15)
            for outer in partitions_of(n)
            for b in range(3)
            for inner in partitions_of(b)
            if outer.contains(inner)
        ]
        cases = 0
        for shape, cs in inputs:
            outer, inner = shape
            for c in cs:
                got = intermediates(shape, c)
                want = [] if c < 0 else [
                    t
                    for t in partitions_of(inner.size + c)
                    if outer.contains(t) and t.contains(inner)
                ]
                assert got == want, (outer, inner, c)
                assert all(type(t) is Partition for t in got)
                assert intermediates((tuple(outer), tuple(inner)), c) == got
                padded = tuple(inner) + (0,) * (len(outer) - len(inner))
                assert intermediates((tuple(outer), padded), c) == got
                cases += 1
        assert cases == 20288 + 7340

    def test_many_rows(self):
        # one loop over the rows: 5000 of them need no recursion depth
        shape = SkewPartition((1,) * 5000)
        assert intermediates(shape, 2500) == [Partition((1,) * 2500)]


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
