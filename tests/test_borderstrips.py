import copy
import itertools
import pickle
import time
from functools import cache

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from defres import (
    BorderStripTableau,
    Composition,
    Partition,
    SkewPartition,
    a_coefficient,
    enumerate_m_bst,
    mn_value,
    partitions_of,
    repeat_parts,
    skew_shapes,
)

from defres import borderstrips
from defres.borderstrips import _a_count, _mn, _strip_additions, _strip_removals

from conftest import boxes, skews, strip_oracle

EX_SHAPE = SkewPartition((6, 5, 3, 2), (3, 1))  # 12 boxes
BIG = SkewPartition((8, 5, 3, 2, 2, 2), (2, 2, 1, 1, 1))  # 15 boxes
FIG1_CHAIN = (
    (2, 2, 1, 1, 1),
    (4, 3, 3, 2, 1),
    (5, 5, 3, 2, 1),
    (5, 5, 3, 2, 2, 2),
    (8, 5, 3, 2, 2, 2),
)


# --- independent oracles -----------------------------------------------------


def one_strip(shape):
    """The metadata of shape as a one-strip tableau, or None if it is no strip."""
    try:
        return BorderStripTableau([shape.inner, shape.outer]).metas()[0]
    except ValueError:
        return None


def strip_geometry(shape):
    """Size, occupied rows minus one and first occupied row, off the boxes."""
    rows = {r for r, _ in boxes(shape)}
    return (shape.size, len(rows) - 1, min(rows))


def syt_count(shape):
    """Standard tableaux counted by stripping one corner box at a time."""

    @cache
    def rec(rows):
        # rows: tuple of (inner_r, outer_r) column bounds per row
        if all(a == b for a, b in rows):
            return 1
        total = 0
        for r, (a, b) in enumerate(rows):
            if a == b:
                continue
            below = rows[r + 1][1] if r + 1 < len(rows) else 0
            if b - 1 >= below:  # box (r, b) has nothing below or right
                total += rec(rows[:r] + ((a, b - 1),) + rows[r + 1 :])
        return total

    return rec(
        tuple(
            (shape.inner.part(r), shape.outer.part(r))
            for r in range(1, len(shape.outer) + 1)
        )
    )


def hook_length_count(p):
    """Standard tableaux of a straight shape by the hook length formula."""
    p = Partition(p)
    q = p.conjugate()
    num = 1
    for k in range(2, p.size + 1):
        num *= k
    den = 1
    for r, c in boxes(p):
        den *= (p.part(r) - c) + (q.part(c) - r) + 1
    return num // den


def ssyt_count(shape, n, m):
    """Semistandard fillings with entries 1..n, each used exactly m times."""
    rows = [
        (shape.inner.part(r), shape.outer.part(r))
        for r in range(1, len(shape.outer) + 1)
    ]
    counts = [0] * (n + 1)
    grid = {}

    def fill(r, c):
        if r == len(rows):
            return 1
        a, b = rows[r]
        if c > b:
            return fill(r + 1, rows[r + 1][0] + 1 if r + 1 < len(rows) else 1)
        if c <= a:
            return fill(r, a + 1)
        lo = grid.get((r, c - 1), 1)
        up = grid.get((r - 1, c), 0) + 1
        total = 0
        for v in range(max(lo, up), n + 1):
            if counts[v] < m:
                counts[v] += 1
                grid[(r, c)] = v
                total += fill(r, c + 1)
                del grid[(r, c)]
                counts[v] -= 1
        return total

    return fill(0, rows[0][0] + 1 if rows else 1)


def render_oracle(t):
    """The grid of a tableau filled box by box off its strips."""
    fill = dict.fromkeys(boxes(t.chain[0]), ":")
    for label, lo, hi in zip(t.labels, t.chain, t.chain[1:]):
        fill.update(dict.fromkeys(boxes(SkewPartition(hi, lo)), str(label)))
    width = max(map(len, fill.values()), default=1)
    return "\n".join(
        " ".join(fill[r, c].rjust(width) for c in range(1, part + 1))
        for r, part in enumerate(t.chain[-1], start=1)
    )


# --- predicates and metadata -------------------------------------------------


class TestIsBorderStrip:
    def test_fixtures(self):
        assert one_strip(SkewPartition((2, 2), (1,)))
        assert not one_strip(SkewPartition((2, 2)))  # 2x2 square
        assert not one_strip(SkewPartition((3, 1), (2,)))  # disconnected
        assert one_strip(SkewPartition((3, 1), (1, 1)))
        assert one_strip(SkewPartition((1,)))
        assert one_strip(SkewPartition((2, 1)))
        assert not one_strip(SkewPartition((1,), (1,)))  # empty

    def test_matches_box_oracle_exhaustively(self):
        for size in range(0, 9):
            for shape in skew_shapes(size, 3):
                assert bool(one_strip(shape)) == strip_oracle(shape), shape


class TestStripMeta:
    def test_fixtures(self):
        assert one_strip(SkewPartition((2, 2), (1,))) == (3, 1, 1)
        assert one_strip(SkewPartition((3, 1), (1, 1))) == (2, 0, 1)
        assert one_strip(SkewPartition((1, 1, 1), (1,))) == (2, 1, 2)
        assert one_strip(SkewPartition((1,))) == (1, 0, 1)

    def test_matches_box_geometry_exhaustively(self):
        for size in range(1, 9):
            for shape in skew_shapes(size, 3):
                if strip_oracle(shape):
                    assert one_strip(shape) == strip_geometry(shape), shape

    def test_tables_match_box_geometry(self):
        # every entry of both strip tables, partitions of at most 12, c <= 7
        entries = []
        for size in range(13):
            for p in partitions_of(size):
                for c in range(1, 8):
                    for tau, height, top_row in _strip_removals(p, c):
                        entries.append((SkewPartition(p, tau), (c, height, top_row)))
                    for tau, height, top_row in _strip_additions(p, c):
                        entries.append((SkewPartition(tau, p), (c, height, top_row)))
        assert len(entries) == 12_442
        for strip, meta in entries:
            assert strip_oracle(strip), strip
            assert meta == strip_geometry(strip), strip

    def test_rejects_non_strips(self):
        with pytest.raises(ValueError, match="is not a border strip"):
            BorderStripTableau([(), (2, 2)])
        with pytest.raises(ValueError, match="is not a border strip"):
            BorderStripTableau([(3, 1), (3, 1)])


class TestStripTables:
    def test_each_key_lists_exactly_its_strips(self):
        # brute force over the partitions of the other size, for every
        # partition of at most 10 and c <= 6: each strip once, tau descending
        for size in range(11):
            for p in partitions_of(size):
                for c in range(1, 7):
                    smaller = partitions_of(size - c) if c <= size else []
                    expected = [
                        tau
                        for tau in smaller
                        if p.contains(tau) and strip_oracle(SkewPartition(p, tau))
                    ]
                    got = [tau for tau, _, _ in _strip_removals(p, c)]
                    assert got == sorted(set(expected), reverse=True), (p, c)
                    expected = [
                        tau
                        for tau in partitions_of(size + c)
                        if tau.contains(p) and strip_oracle(SkewPartition(tau, p))
                    ]
                    added = [tau for tau, _, _ in _strip_additions(p, c)]
                    assert added == sorted(set(expected), reverse=True), (p, c)
                    for tau in got + added:
                        assert type(tau) is Partition and 0 not in tau, (p, c, tau)

    def test_walk_order_and_changed_rows(self):
        # what the walks rely on: along a table the top rows strictly
        # descend (so a walk stops at its row floor), and tau differs from
        # the key in exactly rows top_row .. top_row + height (so tau holds
        # any inner shape of fewer than top_row rows)
        for size in range(13):
            for p in partitions_of(size):
                for c in range(1, 7):
                    strips = _strip_removals(p, c)
                    tops = [top_row for _, _, top_row in strips]
                    assert all(a > b for a, b in zip(tops, tops[1:])), (p, c)
                    for tau, height, top_row in strips:
                        changed = [r for r in range(1, len(p) + 1) if p.part(r) != tau.part(r)]
                        assert changed == list(range(top_row, top_row + height + 1)), (p, tau)


# --- tableaux ----------------------------------------------------------------


class TestBorderStripTableau:
    def test_validates_steps(self):
        with pytest.raises(ValueError):
            BorderStripTableau([(), (2, 2)])  # step is not a strip
        with pytest.raises(ValueError):
            BorderStripTableau([(2,), (1,)])  # not increasing
        with pytest.raises(ValueError):
            BorderStripTableau([])

    def test_labels_default_and_custom(self):
        t = BorderStripTableau([(1, 1), (2, 1), (3, 1)])
        assert t.labels == (1, 2)
        u = BorderStripTableau([(1, 1), (2, 1), (3, 1)], labels=(3, 4))
        assert u.labels == (3, 4)
        assert t != u
        with pytest.raises(ValueError):
            BorderStripTableau([(1, 1), (2, 1), (3, 1)], labels=(4, 3))

    def test_rejects_non_integer_labels(self):
        with pytest.raises(TypeError):
            BorderStripTableau([(1, 1), (2, 1), (3, 1)], labels=(1.5, 2))

    def test_fig_chain_metadata(self):
        t = BorderStripTableau(FIG1_CHAIN)
        assert t.shape == BIG
        assert tuple(t.type) == (6, 3, 3, 3)
        assert [m.height for m in t.metas()] == [3, 1, 1, 0]
        assert t.sign == -1

    def test_fig_render(self):
        t = BorderStripTableau(FIG1_CHAIN)
        assert t.render() == (
            ": : 1 1 2 4 4 4\n"
            ": : 1 2 2\n"
            ": 1 1\n"
            ": 1\n"
            ": 3\n"
            "3 3"
        )

    def test_render_wide_labels(self):
        chain = [()] + [(1,) * k for k in range(1, 12)]
        t = BorderStripTableau(chain)
        lines = t.render().splitlines()
        assert lines[0] == " 1"
        assert lines[10] == "11"

    def test_sign_and_type_match_box_geometry(self):
        # sign and type are read off the chain rows; the box oracle reads
        # each step's size and occupied rows off its boxes
        tableaux = [BorderStripTableau(FIG1_CHAIN), BorderStripTableau([(2, 1)])]
        tableaux += enumerate_m_bst(BIG, 1, Composition((6, 3, 3, 3)))
        tableaux += enumerate_m_bst(EX_SHAPE, 2, Composition((1, 2, 3)))
        tableaux += [t for args in TestEnumerateMBst.sweep() for t in enumerate_m_bst(*args)]
        assert len(tableaux) == 2 + 4 + 3 + 348
        for t in tableaux:
            steps = [strip_geometry(SkewPartition(hi, lo)) for lo, hi in zip(t.chain, t.chain[1:])]
            assert tuple(t.type) == tuple(size for size, _, _ in steps), t
            assert t.sign == (-1) ** sum(height for _, height, _ in steps), t

    def test_empty_tableau(self):
        t = BorderStripTableau([(2, 1)])
        assert t.sign == 1
        assert tuple(t.type) == ()
        assert t.render() == ": :\n:"


class TestEnumerateBst:
    def test_four_tableaux(self):
        ts = enumerate_m_bst(BIG, 1, Composition((6, 3, 3, 3)))
        assert len(ts) == 4
        assert sorted(t.sign for t in ts) == [-1, -1, -1, 1]
        assert BorderStripTableau(FIG1_CHAIN) in ts

    def test_empty_type_on_equal_shapes(self):
        ts = enumerate_m_bst(SkewPartition((3, 1), (3, 1)), 1, Composition(()))
        assert len(ts) == 1 and ts[0].sign == 1

    def test_no_tableaux(self):
        assert enumerate_m_bst(SkewPartition((2, 2)), 1, Composition((4,))) == []

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_m_bst(SkewPartition((2, 2)), 1, Composition((3,)))

    def test_sorted_lexicographically(self):
        ts = enumerate_m_bst(BIG, 1, Composition((6, 3, 3, 3)))
        chains = [tuple(p.parts for p in t.chain) for t in ts]
        assert chains == sorted(chains)

    def test_single_box_chains_are_standard_tableaux(self):
        for size in range(0, 9):
            for shape in skew_shapes(size, 3):
                got = len(enumerate_m_bst(shape, 1, Composition((1,) * size)))
                assert got == syt_count(shape), shape


class TestMnValue:
    def test_character_fixtures(self):
        chi21 = SkewPartition((2, 1))
        assert mn_value(chi21, Composition((1, 1, 1))) == 2
        assert mn_value(chi21, Composition((2, 1))) == 0
        assert mn_value(chi21, Composition((3,))) == -1
        assert mn_value(BIG, Composition((6, 3, 3, 3))) == -2
        assert mn_value(SkewPartition(()), Composition(())) == 1

    def test_trivial_row(self):
        for a in partitions_of(6):
            assert mn_value(SkewPartition((6,)), a) == 1

    def test_matches_enumeration(self):
        # two independent routes: cached inner recursion vs outer peeling
        for size in range(0, 8):
            for shape in skew_shapes(size, 2):
                for gamma in partitions_of(size):
                    assert mn_value(shape, gamma) == sum(
                        t.sign for t in enumerate_m_bst(shape, 1, gamma)
                    )

    def test_hook_length_regression(self):
        for r in range(1, 9):
            for lam in partitions_of(r):
                shape = SkewPartition(lam)
                assert mn_value(shape, Composition((1,) * r)) == hook_length_count(lam)

    def test_tall_inner_shapes(self):
        # inner shapes of up to five boxes, so up to five rows: the walk
        # tests containment only where a strip reaches the inner shape
        shapes = [shape for k in range(1, 9) for shape in skew_shapes(k, 5)]
        assert (len(shapes), sum(len(s.inner) >= 3 for s in shapes)) == (3445, 1466)
        for shape in shapes:
            assert mn_value(shape, (1,) * shape.size) == syt_count(shape), shape

    @given(skews(max_size=9, max_rows=5))
    @settings(max_examples=40, deadline=None)
    def test_reorder_invariance(self, shape):
        for gamma in partitions_of(shape.size):
            base = mn_value(shape, gamma)
            for perm in set(itertools.permutations(gamma.parts)):
                assert mn_value(shape, Composition(perm)) == base

    def test_single_long_strip(self):
        # one strip of 2,000 boxes, a row and a column, each from a cold table
        for shape, value in (((2000,), 1), ((1,) * 2000, -1)):
            _strip_removals.cache_clear()
            _mn.cache_clear()
            start = time.perf_counter()
            assert mn_value(SkewPartition(shape), (2000,)) == value
            assert time.perf_counter() - start < 10

    def test_peels_the_largest_part_first_in_any_order(self):
        # gamma is sorted before the walk, so any order fills the same memo
        shape = SkewPartition((12, 10, 8, 6, 4, 2), (4, 2))
        gamma = (5, 5, 4, 4, 4, 2, 2, 2, 2, 2, 1, 1, 1, 1)
        seen = []
        for order in (gamma, gamma[::-1]):
            _mn.cache_clear()
            seen.append((mn_value(shape, order), _mn.cache_info().currsize))
        assert seen[0] == seen[1]
        assert seen[0][0] == -2430

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mn_value(SkewPartition((3,)), Composition((2,)))

    def test_reads_only_the_removal_table(self):
        # the recursion peels strips off the outer shape: a single long strip
        # is one entry of one removal table, and no addition table is built
        for memo in (_strip_removals, _strip_additions, _mn, _a_count):
            memo.cache_clear()
        assert mn_value(SkewPartition((4000,)), (4000,)) == 1
        assert _strip_additions.cache_info().currsize == 0
        assert len(_strip_removals((4000,), 4000)) == 1
        for size in range(0, 9):
            for shape in skew_shapes(size, 2):
                for gamma in partitions_of(size):
                    mn_value(shape, gamma)
        assert _strip_additions.cache_info().currsize == 0


class TestEnumerateMBst:
    def test_worked_example(self):
        ts = enumerate_m_bst(EX_SHAPE, 2, Composition((1, 2, 3)))
        assert len(ts) == 3
        assert sorted(t.sign for t in ts) == [-1, 1, 1]
        for t in ts:
            assert tuple(t.type) == (1, 1, 2, 2, 3, 3)

    def test_reordered_type_unique(self):
        ts = enumerate_m_bst(EX_SHAPE, 2, Composition((2, 1, 3)))
        assert len(ts) == 1
        assert ts[0].sign == 1

    @staticmethod
    def sweep():
        for m, n in ((2, 2), (2, 3), (3, 2)):
            for shape in skew_shapes(m * n, 2):
                for gamma in partitions_of(n):
                    yield shape, m, gamma

    def test_matches_filtered_enumeration(self):
        # independent route: enumerate all tableaux of the repeated type and
        # filter on the block condition computed from the strip metadata
        for shape, m, gamma in self.sweep():
            full = enumerate_m_bst(shape, 1, repeat_parts(gamma, m))
            kept = []
            for t in full:
                rows = [meta.row_number for meta in t.metas()]
                ok = all(
                    rows[j - 1] >= rows[j]
                    for j in range(1, len(rows))
                    if (j % m) != 0
                )
                if ok:
                    kept.append(t)
            assert enumerate_m_bst(shape, m, gamma) == kept

    def test_listed_tableaux_are_validated_tableaux(self):
        # the listing skips the validating constructor: what it hands out
        # must be what that constructor builds from the same chain
        listed = 0
        for shape, m, gamma in self.sweep():
            for t in enumerate_m_bst(shape, m, gamma):
                assert type(t) is BorderStripTableau
                rebuilt = BorderStripTableau(t.chain, t.labels)
                assert rebuilt == t and hash(rebuilt) == hash(t)
                assert all(type(p) is Partition for p in t.chain)
                for u in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
                    assert type(u) is BorderStripTableau and u == t
                listed += 1
        assert listed == 348

    def test_render_matches_the_box_fill(self):
        for shape, m, gamma in self.sweep():
            for t in enumerate_m_bst(shape, m, gamma):
                assert t.render() == render_oracle(t)
                spaced = range(7, 7 + 9 * len(t.labels), 9)  # 7, 16, 25, ...
                u = BorderStripTableau(t.chain, spaced)
                assert u.render() == render_oracle(u)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_m_bst(EX_SHAPE, 3, Composition((1, 2, 3)))
        with pytest.raises(ValueError):
            enumerate_m_bst(EX_SHAPE, 0, Composition((1, 2, 3)))


class TestACoefficient:
    def test_worked_example(self):
        assert a_coefficient(EX_SHAPE, 2, Composition((1, 2, 3))) == 1
        assert a_coefficient(EX_SHAPE, 2, Composition((2, 1, 3))) == 1

    def test_matches_sign_sum(self):
        for m, n in ((2, 2), (2, 3), (3, 2), (4, 2)):
            for shape in skew_shapes(m * n, 2):
                for gamma in partitions_of(n):
                    assert a_coefficient(shape, m, gamma) == sum(
                        t.sign for t in enumerate_m_bst(shape, m, gamma)
                    )

    def test_semistandard_count(self):
        # with type (1^n) every tableau has sign +1 and the signed count
        # enumerates semistandard fillings of content (m^n)
        for m, n in ((2, 2), (3, 2), (2, 3), (4, 2)):
            for shape in skew_shapes(m * n, 2):
                got = a_coefficient(shape, m, Composition((1,) * n))
                assert got == ssyt_count(shape, n, m), (shape, m, n)

    def test_semistandard_count_on_tall_inner_shapes(self):
        # inner shapes of up to five boxes; the listing and the signed count
        # stop at the row floor and test containment near the inner shape
        shapes = 0
        for m, n in ((2, 2), (2, 3), (3, 2), (4, 2), (2, 4)):
            ones = Composition((1,) * n)
            for shape in skew_shapes(m * n, 5):
                expected = ssyt_count(shape, n, m)
                assert a_coefficient(shape, m, ones) == expected, (shape, m, n)
                assert len(enumerate_m_bst(shape, m, ones)) == expected, (shape, m, n)
                shapes += 1
        assert shapes == 3667

    @pytest.mark.parametrize("walk, query", [
        ("_mn", lambda shape, m, gamma: mn_value(shape, repeat_parts(gamma, m))),
        ("_a_count", a_coefficient),
        ("_iter_m_chains", enumerate_m_bst),
    ])
    def test_walks_recurse_only_on_shapes_holding_the_inner_shape(
        self, monkeypatch, walk, query
    ):
        # the containment rule skips the test only where it cannot fail, so
        # the walks prune every shape that misses the inner shape, as a test
        # on every strip would; no value shows it, as such a branch counts 0
        real, held = getattr(borderstrips, walk), []

        def spy(outer, inner, *rest):
            held.append(Partition(outer).contains(inner))
            return real(outer, inner, *rest)

        monkeypatch.setattr(borderstrips, walk, spy)
        _mn.cache_clear()
        _a_count.cache_clear()
        for m, n in ((1, 6), (2, 3), (3, 2)):
            for shape in skew_shapes(m * n, 5):
                for gamma in partitions_of(n):
                    query(shape, m, gamma)
        assert len(held) > 10_000 and all(held)
