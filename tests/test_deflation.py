import itertools
import operator
import random
import sys
from fractions import Fraction

import pytest

from defres import (
    ClassFunction,
    Composition,
    DeflationQuery,
    Partition,
    SkewPartition,
    centralizer_order,
    defres_degree,
    defres_recursive,
    defres_sign,
    defres_theorem,
    farahat_check,
    induced_value,
    intermediates,
    inner_product,
    irreducible_character,
    is_n_decomposable,
    mn_value,
    n_quotient,
    ncycle_vanishing,
    oracle_defres,
    partitions_of,
    skew_character,
    skew_shapes,
    stretch,
)
from defres import abacus, deflation
from defres.abacus import _cuts, _runner_cuts
from defres.characters import _induced
from defres.deflation import (
    _cycle_value, _recursive, _single_cycle, _skew_key, _stacked, _waistlines
)
from defres.perms import with_cycle_type

from conftest import defres_memos, sample_skews

EX_SHAPE = SkewPartition((6, 5, 3, 2), (3, 1))
BIG = SkewPartition((8, 5, 3, 2, 2, 2), (2, 2, 1, 1, 1))
SIX42 = SkewPartition((6, 4, 2))


def query(shape, m, theta, gamma):
    gamma = Composition(gamma)
    return DeflationQuery(shape, m, gamma.size, Partition(theta), gamma)


def small_grid():
    for m, n in ((2, 2), (2, 3), (3, 2)):
        for shape in skew_shapes(m * n, 2):
            yield m, n, shape


class TestDeflationQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeflationQuery(EX_SHAPE, 0, 6, Partition(()), Composition((6,)))
        with pytest.raises(ValueError):
            DeflationQuery(EX_SHAPE, 2, -1, Partition((2,)), Composition(()))
        with pytest.raises(ValueError):
            DeflationQuery(EX_SHAPE, 2, 6, Partition((3,)), Composition((6,)))
        with pytest.raises(ValueError):
            DeflationQuery(EX_SHAPE, 3, 6, Partition((3,)), Composition((6,)))
        with pytest.raises(ValueError):
            DeflationQuery(EX_SHAPE, 2, 6, Partition((2,)), Composition((5,)))

    def test_frozen(self):
        q = query(EX_SHAPE, 2, (2,), (1, 2, 3))
        with pytest.raises(AttributeError):
            q.m = 3


class TestDefresTheorem:
    def test_worked_example(self):
        assert defres_theorem(query(EX_SHAPE, 2, (2,), (1, 2, 3))) == 1
        assert defres_theorem(query(EX_SHAPE, 2, (2,), (2, 1, 3))) == 1

    def test_requires_trivial_theta(self):
        with pytest.raises(ValueError):
            defres_theorem(query(SkewPartition((2, 2)), 2, (1, 1), (2,)))

    def test_empty_evaluation_group(self):
        shape = SkewPartition((3, 1), (3, 1))
        assert defres_theorem(query(shape, 4, (4,), ())) == 1

    def test_matches_oracle(self):
        for m, n, shape in small_grid():
            theta = ClassFunction.trivial(m)
            for gamma in partitions_of(n):
                want = oracle_defres(shape, theta, n, with_cycle_type(gamma.parts, n))
                got = defres_theorem(query(shape, m, (m,), gamma))
                assert got == want, (shape, m, gamma)

    def test_gamma_order_immaterial(self):
        for gamma in partitions_of(6):
            base = defres_theorem(query(EX_SHAPE, 2, (2,), gamma))
            for perm in set(itertools.permutations(gamma.parts)):
                assert defres_theorem(query(EX_SHAPE, 2, (2,), perm)) == base


class TestDefresRecursive:
    def test_transpositions_fixture(self):
        q = query(SIX42, 3, (2, 1), (2, 1, 1))
        assert defres_recursive(q) == 1

    def test_double_transpositions_fixture(self):
        q = query(SIX42, 3, (2, 1), (2, 2))
        assert defres_recursive(q) == 5

    def test_single_cycle_contributions(self):
        # peeling one 2-cycle off (6,4,2): the nonzero lower and upper
        # factors across the waistlines tau, and their products
        taus, lowers, uppers = [], [], []
        for tau in intermediates(SkewPartition(SIX42.outer), 6):
            lo = defres_recursive(query(SkewPartition(tau), 3, (2, 1), (2,)))
            hi = defres_recursive(
                query(SkewPartition(SIX42.outer, tau), 3, (2, 1), (2,))
            )
            if lo:
                taus.append(tau)
                lowers.append(lo)
                uppers.append(hi)
        assert taus == [
            Partition((4, 2)),
            Partition((4, 1, 1)),
            Partition((3, 3)),
            Partition((2, 2, 2)),
        ]
        assert lowers == [1, -1, -1, 1]
        assert uppers == [2, -1, -1, 1]
        assert [l * u for l, u in zip(lowers, uppers)] == [2, 1, 1, 1]

    def test_matches_oracle_for_every_theta(self):
        for m, n, shape in small_grid():
            for label in partitions_of(m):
                theta = irreducible_character(label)
                for gamma in partitions_of(n):
                    want = oracle_defres(
                        shape, theta, n, with_cycle_type(gamma.parts, n)
                    )
                    got = defres_recursive(query(shape, m, label, gamma))
                    assert got == want, (shape, m, label, gamma)

    def test_agrees_with_tableau_rule_on_trivial_theta(self):
        for m, n, shape in small_grid():
            for gamma in partitions_of(n):
                assert defres_recursive(
                    query(shape, m, (m,), gamma)
                ) == defres_theorem(query(shape, m, (m,), gamma))

    def test_every_order_of_gamma_matches_oracle(self):
        for m, n, shape in small_grid():
            for label in partitions_of(m):
                theta = irreducible_character(label)
                for gamma in partitions_of(n):
                    want = oracle_defres(
                        shape, theta, n, with_cycle_type(gamma.parts, n)
                    )
                    for order in set(itertools.permutations(gamma.parts)):
                        got = defres_recursive(query(shape, m, label, order))
                        assert got == want, (shape, m, label, order)

    @staticmethod
    def closed_sweep(pairs):
        # route 2 against route 1: the tableau rule at trivial theta, the
        # sign closed form at sign
        checked = 0
        for m, n in pairs:
            for shape in skew_shapes(m * n, 1):
                for gamma in partitions_of(n):
                    for label, closed in (
                        ((m,), defres_theorem),
                        ((1,) * m, defres_sign),
                    ):
                        q = query(shape, m, label, gamma)
                        assert defres_recursive(q) == closed(q), (shape, label, gamma)
                        checked += 1
        return checked

    def test_agrees_with_closed_routes_to_m_n_16(self):
        pairs = ((2, 7), (7, 2), (2, 8), (8, 2), (4, 4))
        assert self.closed_sweep(pairs) == 41198

    def test_agrees_with_closed_routes_at_m_n_18(self):
        # (2, 9) gives 52,500 instances, (3, 6) 19,250, (6, 3) 5,250 and
        # (9, 2) 3,500
        assert self.closed_sweep(((2, 9), (3, 6), (6, 3), (9, 2))) == 80500

    @staticmethod
    def oracle_sweep(pairs):
        # general theta, every kappa but trivial and sign, against route 3
        checked = 0
        for m, n in pairs:
            tops = [(gamma, with_cycle_type(gamma, n)) for gamma in partitions_of(n)]
            for shape in skew_shapes(m * n, 1):
                for label in partitions_of(m)[1:-1]:
                    theta = irreducible_character(label)
                    for gamma, g in tops:
                        q = query(shape, m, label, gamma)
                        want = oracle_defres(shape, theta, n, g)
                        assert defres_recursive(q) == want, (shape, label, gamma)
                        checked += 1
        return checked

    def test_matches_oracle_at_m_n_15(self):
        assert self.oracle_sweep(((3, 5), (5, 3))) == 8954

    def test_matches_oracle_at_m_n_16(self):
        # (4, 4) gives 7,920 instances and (8, 2) 21,120
        assert self.oracle_sweep(((4, 4), (8, 2))) == 29040

    def test_matches_oracle_at_m_n_18(self):
        # (3, 6) gives 9,625 instances, (6, 3) 23,625 and (9, 2) 49,000
        assert self.oracle_sweep(((3, 6), (6, 3), (9, 2))) == 82250

    def test_closing_runs_match_oracle_past_exhaustive_sizes(self):
        # m * n in 20..24: a seeded sample of 50 shapes per cell, inner shape
        # of at most 4 boxes, at every gamma whose smallest part is above 1
        # and repeated, so the walk ends in one quotient read of a closing
        # run.  m = 2 has no kappa but trivial and sign, and no partition of
        # 5 has a repeated smallest part above 1, so the cells are (3, 7),
        # (3, 8) and (4, 6)
        rng = random.Random(1)
        checked = nonzero = negative = 0
        for m, n in ((3, 7), (3, 8), (4, 6)):
            gammas = [g for g in partitions_of(n) if g[-1] > 1 and g.count(g[-1]) > 1]
            shapes = sample_skews(rng, m * n, 50)
            for label in partitions_of(m)[1:-1]:
                theta = irreducible_character(label)
                for gamma in gammas:
                    g = with_cycle_type(gamma, n)
                    for shape in shapes:
                        want = oracle_defres(shape, theta, n, g)
                        got = defres_recursive(query(shape, m, label, gamma))
                        assert got == want, (shape, label, gamma)
                        checked += 1
                        nonzero += want != 0
                        negative += want < 0
        assert (checked, nonzero, negative) == (500, 206, 80)

    def test_mixed_cycles_match_oracle_past_exhaustive_sizes(self):
        # m * n in 20..24: a seeded sample of 10 shapes per cell, inner shape
        # of at most 4 boxes, at every gamma with a part above 1 and a
        # 1-cycle, so the walk reads a cut table and then walks 1-cycles;
        # every kappa but trivial and sign
        rng = random.Random(1)
        checked = nonzero = negative = 0
        for m, n in ((3, 7), (4, 5), (4, 6)):
            gammas = [g for g in partitions_of(n) if g[0] > 1 and g[-1] == 1]
            shapes = sample_skews(rng, m * n, 10)
            for label in partitions_of(m)[1:-1]:
                theta = irreducible_character(label)
                for gamma in gammas:
                    g = with_cycle_type(gamma, n)
                    for shape in shapes:
                        want = oracle_defres(shape, theta, n, g)
                        got = defres_recursive(query(shape, m, label, gamma))
                        assert got == want, (shape, label, gamma)
                        checked += 1
                        nonzero += want != 0
                        negative += want < 0
        assert (checked, nonzero, negative) == (400, 236, 109)

    def test_one_cycles_off_long_rows(self):
        # gamma = 1^4 at m = 7 on shapes with long rows, where the row bound
        # kappa_1 prunes the waistline walk
        for outer, kappa, value in (
            ((9, 7, 5, 4, 3), (3, 2, 2), 2872),
            ((10, 8, 6, 4), (4, 2, 1), 9168),
        ):
            shape = SkewPartition(outer)
            theta = irreducible_character(kappa)
            assert oracle_defres(shape, theta, 4, with_cycle_type((1,) * 4, 4)) == value
            assert defres_recursive(query(shape, 7, kappa, (1,) * 4)) == value

    def test_empty_evaluation_group(self):
        shape = SkewPartition((2, 1), (2, 1))
        assert defres_recursive(query(shape, 3, (2, 1), ())) == 1
        shape = SkewPartition((2, 1), (1, 1))
        with pytest.raises(ValueError):
            query(shape, 3, (2, 1), ())


def waistline_bounds(lam, mu, kappa, k):
    # row by row: floor_i = max(mu_i, lam_i - kappa_1, lam_(i + len kappa))
    # and ceil_i = min(lam_i, mu_i + k kappa_1, mu_(i - k len kappa))
    width, depth = kappa[0], len(kappa)
    part = lambda p, i: p[i] if 0 <= i < len(p) else 0
    floor = [max(part(mu, i), lam[i] - width, part(lam, i + depth)) for i in range(len(lam))]
    ceil = [
        min(lam[i], part(mu, i) + k * width, part(mu, i - k * depth) if i >= k * depth else lam[i])
        for i in range(len(lam))
    ]
    return floor, ceil


class TestWaistlineBound:
    def test_drops_only_zero_terms(self):
        # every lambda of at most 12 boxes, mu of at most 2, m <= 4, kappa of
        # m and k <= 3 with |lambda/mu| = m (k + 1): a waistline of the
        # unbounded walk outside floor..ceil adds 0, and _waistlines lists
        # the rest in the same order
        cases = dropped = kept = 0
        for size in range(13):
            for lam in partitions_of(size):
                for mu in itertools.chain.from_iterable(map(partitions_of, range(3))):
                    for m, k in itertools.product(range(1, 5), range(1, 4)):
                        if size != mu.size + m * (k + 1) or not lam.contains(mu):
                            continue
                        for kappa in partitions_of(m):
                            floor, ceil = waistline_bounds(lam, mu, kappa, k)
                            inside = []
                            for tau in intermediates(SkewPartition(lam, mu), m * k):
                                rows = tuple(tau) + (0,) * (len(lam) - len(tau))
                                if all(map(operator.le, floor, rows)) and all(
                                    map(operator.le, rows, ceil)
                                ):
                                    inside.append(tau)
                                    continue
                                term = _single_cycle(_skew_key(lam, tau), kappa)
                                term *= _recursive((tau, mu), m, kappa, (1,) * k)
                                assert term == 0, (lam, mu, kappa, k, tau)
                                dropped += 1
                            assert _waistlines(lam, mu, kappa, k) == inside, (lam, mu, kappa, k)
                            kept += len(inside)
                            cases += 1
        assert (cases, dropped, kept) == (2569, 7354, 4081)


def key_sweep():
    # every skew shape with at most 8 boxes and an inner size of at most 3
    for total in range(9):
        yield from skew_shapes(total, 3)


class TestSkewKey:
    def test_one_key_one_character(self):
        by_key = {}
        for shape in key_sweep():
            key = _skew_key(*shape)
            chi = skew_character(shape)
            assert by_key.setdefault(key, chi) == chi, shape
        # 898 shapes, 373 keys and 372 characters: 4,3,2,1/2 and
        # 4,3,2,1/1,1 share a character but no rotation relates them
        assert len(by_key) == 373

    def test_invariant_under_rotation_and_translation(self):
        for shape in key_sweep():
            outer, inner = shape
            rows, width = len(outer), outer.part(1)
            inner_rows = [inner.part(r) for r in range(1, rows + 1)]
            rotated = SkewPartition(
                [width - p for p in reversed(inner_rows)],
                [width - p for p in reversed(outer)],
            )
            moved = SkewPartition([p + 1 for p in outer], [p + 1 for p in inner_rows])
            key = _skew_key(*shape)
            assert _skew_key(*rotated) == key, shape
            assert _skew_key(*moved) == key, shape

    def test_components_and_rotations_share_a_key(self):
        # a vertical and a horizontal domino touching at a corner, in
        # either order, and a hook turned by 180 degrees
        dominoes = (((0, 1), (0, 1)), ((0, 2),))
        assert _skew_key((3, 1, 1), (1,)) == _skew_key((3, 3, 2), (2, 2)) == dominoes
        assert _skew_key((3, 3, 3), (2, 2)) == _skew_key((3, 1, 1), ())


class TestSingleCycleClassTable:
    def test_matches_the_induced_character(self):
        # the single-cycle value against the class-table formula: the
        # quotient sign times <chi^kappa, Ind(quotient characters)>; c = 1
        # pins the branch that reads LR fillings without the abacus
        count = 0
        for shape in key_sweep():
            for c in range(1, shape.size + 1):
                if shape.size % c:
                    continue
                r = shape.size // c
                want = dict.fromkeys(partitions_of(r), 0)
                if is_n_decomposable(shape, c):
                    quotient = n_quotient(shape, c)
                    thetas = [skew_character(comp) for comp in quotient.components]
                    induced = ClassFunction(
                        r, {a: induced_value(thetas, a) for a in partitions_of(r)}
                    )
                    for kappa in want:
                        chi = irreducible_character(kappa)
                        want[kappa] = quotient.sign * inner_product(chi, induced)
                for kappa, value in want.items():
                    assert _cycle_value(*shape, c, kappa) == value, (shape, c, kappa)
                    count += 1
        assert count == 16034


def components(size):
    # every connected skew shape of `size` boxes as its rows (start, end),
    # top to bottom, the last starting at column 0: built from the bottom
    # up, a row starts and ends no further left than the row below and
    # starts before that row ends
    def grow(rows, left):
        if not left:
            yield rows[::-1]
            return
        start, end = rows[-1]
        for s in range(start, end):
            for e in range(max(end, s + 1), s + left + 1):
                yield from grow(rows + [(s, e)], left - (e - s))

    for e in range(1, size + 1):
        yield from grow([(0, e)], size - e)


def every_key(total):
    # the _skew_key of every skew shape with at most `total` boxes: every
    # multiset of canonical connected components
    comps = [
        (size, _skew_key([e for _, e in rows], [s for s, _ in rows])[0])
        for size in range(1, total + 1)
        for rows in components(size)
    ]
    comps = sorted(set(comps))

    def pick(first, left, chosen):
        yield tuple(sorted(chosen))
        for i in range(first, len(comps)):
            size, comp = comps[i]
            if size <= left:
                yield from pick(i, left - size, chosen + [comp])

    return pick(0, total, [])


class TestClosingRun:
    def test_stacked_round_trip(self):
        # the components stacked corner to corner form a skew shape with
        # the same key
        count = 0
        for key in every_key(10):
            outer, inner = _stacked(key)
            SkewPartition(outer, inner)
            assert _skew_key(outer, inner) == key, key
            count += 1
        assert count == 4879

    def test_matches_the_induced_characters(self):
        # at gamma = (c^j), c and j above 1, the value is the quotient sign
        # times <s_Q, s_kappa^j>, Q the direct sum of the quotient
        # components: by characters, the inner product of the character
        # induced from the components with the one induced from j copies
        # of chi^kappa
        count = nonzero = 0
        for shape in key_sweep():
            for c, j in itertools.product(range(2, 5), range(2, 5)):
                if not shape.size or shape.size % (c * j):
                    continue
                m = shape.size // (c * j)
                if not is_n_decomposable(shape, c):
                    for kappa in partitions_of(m):
                        assert _cycle_value(*shape, c, kappa, j, m) == 0, (shape, c, kappa)
                    continue
                quotient = n_quotient(shape, c)
                thetas = [skew_character(comp) for comp in quotient.components]
                classes = partitions_of(m * j)
                induced = ClassFunction(m * j, {a: induced_value(thetas, a) for a in classes})
                for kappa in partitions_of(m):
                    power = [irreducible_character(kappa)] * j
                    chis = ClassFunction(m * j, {a: induced_value(power, a) for a in classes})
                    want = quotient.sign * inner_product(induced, chis)
                    assert _cycle_value(*shape, c, kappa, j, m) == want, (shape, c, kappa)
                    count += 1
                    nonzero += want != 0
        assert (count, nonzero) == (831, 739)


class TestSingleCycleMemo:
    def test_cold_query_computes_each_character_once(self):
        # 1,209 single-cycle values; keyed on the quotient components they
        # need 6 LR counts
        shape = SkewPartition((12, 10, 8, 6, 4, 2), (4, 2))
        gamma = (4, 3, 2, 1, 1, 1)
        _single_cycle.cache_clear()
        _recursive.cache_clear()
        _cuts.cache_clear()
        _runner_cuts.cache_clear()
        got = defres_recursive(query(shape, 3, (2, 1), gamma))
        assert _single_cycle.cache_info().misses <= 1000
        theta = irreducible_character((2, 1))
        assert got == oracle_defres(shape, theta, 12, with_cycle_type(gamma, 12))

    def test_only_the_last_cycle_reads_the_abacus(self, monkeypatch):
        # the cut table carries each waistline's sign and key, so the walk
        # reads quotients only for the closing run of gamma: none when it is
        # a 1-cycle
        callers = []
        read = abacus._quotient

        def spy(shape, n):
            callers.append(sys._getframe(2).f_code.co_name)
            return read(shape, n)

        monkeypatch.setattr(abacus, "_quotient", spy)
        for memo in (_single_cycle, _recursive, _cuts, _runner_cuts, read):
            memo.cache_clear()
        shape = SkewPartition((12, 10, 8, 6, 4, 2), (4, 2))
        defres_recursive(query(shape, 3, (2, 1), (4, 3, 2, 1, 1, 1)))
        assert set(callers) <= {"_cycle_value"}, set(callers)
        defres_recursive(query(shape, 3, (2, 1), (4, 4, 2, 2)))
        assert callers and set(callers) == {"_cycle_value"}, set(callers)

    def test_closing_run_reads_one_quotient(self):
        # gamma = (2, 2, 2) is one closing run: the shape's 2-quotient is read
        # once and the 1-cycle walk runs on its components stacked into one
        # shape, with no cut table
        shape = SkewPartition((6, 4, 4, 2, 2, 2, 1, 1), (2, 1, 1))
        for memo in (_single_cycle, _recursive, _cuts, _runner_cuts, abacus._quotient):
            memo.cache_clear()
        got = defres_recursive(query(shape, 3, (2, 1), (2, 2, 2)))
        assert _cuts.cache_info().misses == 0
        assert abacus._quotient.cache_info().misses == 1
        theta = irreducible_character((2, 1))
        assert got == oracle_defres(shape, theta, 6, with_cycle_type((2, 2, 2), 6)) == 138

    def test_non_zero_value_at_m_n_18(self):
        shape = SkewPartition((8, 6, 4, 2), (2,))
        theta = irreducible_character((2, 1))
        want = oracle_defres(shape, theta, 6, with_cycle_type((2, 2, 1, 1), 6))
        assert want == 18
        assert defres_recursive(query(shape, 3, (2, 1), (2, 2, 1, 1))) == want


class TestRouteIndependence:
    # Which memos one cold query fills, route by route: route 2 reads no
    # strip table, route 1 reads nothing of the abacus, and the oracle reads
    # neither the abacus, route 2's memos nor route 1's counting memo.
    SHAPE = SkewPartition((12, 10, 8, 6, 4, 2), (4, 2))
    GAMMA = Composition((4, 3, 2, 1, 1, 1))

    @staticmethod
    def filled(route) -> set[str]:
        memos = defres_memos()
        assert {"abacus._cuts", "borderstrips._a_count", "deflation._recursive"} <= set(memos)
        for memo in memos.values():
            memo.cache_clear()
        route()
        return {name for name, memo in memos.items() if memo.cache_info().currsize}

    def test_recursion_fills_only_abacus_and_deflation_memos(self):
        q = query(self.SHAPE, 3, (2, 1), self.GAMMA)
        filled = self.filled(lambda: defres_recursive(q))
        assert filled and all(
            name.startswith(("abacus.", "deflation.")) for name in filled
        ), filled

    def test_tableau_rule_fills_only_strip_memos(self):
        q = query(self.SHAPE, 3, (3,), self.GAMMA)
        filled = self.filled(lambda: defres_theorem(q))
        assert filled == {"borderstrips._a_count", "borderstrips._strip_removals"}

    def test_oracle_fills_no_abacus_deflation_or_counting_memo(self):
        theta = irreducible_character((2, 1))
        g = with_cycle_type(self.GAMMA, 12)
        filled = self.filled(lambda: oracle_defres(self.SHAPE, theta, 12, g))
        assert filled and not any(
            name.startswith(("abacus.", "deflation.")) for name in filled
        ), filled
        assert "borderstrips._a_count" not in filled

    def test_sign_fills_only_strip_memos_and_its_conjugation_memo(self):
        q = query(self.SHAPE, 3, (1, 1, 1), self.GAMMA)
        filled = self.filled(lambda: defres_sign(q))
        assert filled == {
            "borderstrips._a_count", "borderstrips._strip_removals", "deflation._conjugate"
        }


class TestFarahatCheck:
    def test_worked_example(self):
        assert farahat_check(BIG, 3, (2, 1, 1, 1)) == (-2, -2)

    def test_disconnected_domino(self):
        lhs, rhs = farahat_check(SkewPartition((3, 1), (2,)), 2, (1,))
        assert (lhs, rhs) == (0, 0)

    def test_horizontal_domino(self):
        # this shape is 2-decomposable: its two boxes form one strip
        lhs, rhs = farahat_check(SkewPartition((3, 1), (1, 1)), 2, (1,))
        assert (lhs, rhs) == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            farahat_check(BIG, 0, (2, 1, 1, 1))
        with pytest.raises(ValueError):
            farahat_check(BIG, 3, (2, 1))

    def test_sides_agree_everywhere(self):
        for n in (2, 3):
            for k in (0, 1, 2, 3):
                for shape in skew_shapes(n * k, 2):
                    for alpha in partitions_of(k):
                        lhs, rhs = farahat_check(shape, n, alpha)
                        assert lhs == rhs, (shape, n, alpha)

    def test_induces_only_from_components_with_boxes(self, monkeypatch):
        # a character of S_0 is 1 and takes no cycles, so a boxless
        # quotient component is left out of the induction
        factors = []

        def induced(thetas, alpha):
            factors.extend(thetas)
            return _induced(thetas, alpha)

        monkeypatch.setattr(deflation, "_induced", induced)
        assert farahat_check(SkewPartition((4,)), 4, (1,)) == (1, 1)
        assert farahat_check(BIG, 3, (2, 1, 1, 1)) == (-2, -2)
        assert factors and all(th.degree for th in factors)


class TestDefresSign:
    def test_requires_sign_theta(self):
        with pytest.raises(ValueError):
            defres_sign(query(SkewPartition((2, 2)), 2, (2,), (2,)))

    def test_matches_oracle(self):
        for m, n, shape in small_grid():
            theta = ClassFunction.sign(m)
            label = (1,) * m
            for gamma in partitions_of(n):
                want = oracle_defres(shape, theta, n, with_cycle_type(gamma.parts, n))
                assert defres_sign(query(shape, m, label, gamma)) == want

    def test_matches_recursive(self):
        # the recursion handles the sign label directly; the closed form
        # must agree, including the parity twist for odd m
        for m, n, shape in small_grid():
            label = (1,) * m
            for gamma in partitions_of(n):
                assert defres_sign(query(shape, m, label, gamma)) == defres_recursive(
                    query(shape, m, label, gamma)
                )

    def test_closed_forms_match_oracle_past_exhaustive_sizes(self):
        # m * n in 20..24: route 1 at trivial theta and the sign closed form
        # at sign, at every gamma, on a seeded sample of shapes per cell with
        # inner shape of at most 4 boxes; one shape per cell at m = 2, where
        # route 1 walks the most strips
        rng = random.Random(1)
        checked = nonzero = negative = 0
        cells = ((2, 10, 1), (2, 11, 1), (2, 12, 1), (3, 7, 2), (3, 8, 2), (4, 5, 3), (4, 6, 2))
        for m, n, count in cells:
            shapes = sample_skews(rng, m * n, count)
            for label, closed in (((m,), defres_theorem), ((1,) * m, defres_sign)):
                theta = irreducible_character(label)
                for gamma in partitions_of(n):
                    g = with_cycle_type(gamma, n)
                    for shape in shapes:
                        want = oracle_defres(shape, theta, n, g)
                        got = closed(query(shape, m, label, gamma))
                        assert got == want, (shape, label, gamma)
                        checked += 1
                        nonzero += want != 0
                        negative += want < 0
        assert (checked, nonzero, negative) == (584, 252, 106)

    def test_even_m_equals_conjugate_trivial_case(self):
        shape = SkewPartition((3, 2, 1, 1, 1))
        conj = SkewPartition(shape.outer.conjugate())
        for gamma in partitions_of(4):
            got = defres_sign(query(shape, 2, (1, 1), gamma))
            want = defres_theorem(query(conj, 2, (2,), gamma))
            assert got == want


class TestDefresDegree:
    def test_worked_example(self):
        assert defres_degree((6, 4, 2), (2, 1)) == 33

    def test_validation(self):
        with pytest.raises(ValueError):
            defres_degree((6, 4, 2), (2, 2, 1))
        with pytest.raises(ValueError):
            defres_degree((6, 4, 2), ())

    def test_matches_recursive_at_identity(self):
        for m, n in ((2, 2), (2, 3), (3, 2)):
            for lam in partitions_of(m * n):
                for kappa in partitions_of(m):
                    got = defres_degree(lam, kappa)
                    want = defres_recursive(
                        query(SkewPartition(lam), m, kappa, (1,) * n)
                    )
                    assert got == want, (lam, kappa)

    def test_matches_oracle_at_identity(self):
        for lam in partitions_of(6):
            for kappa in partitions_of(2):
                theta = irreducible_character(kappa)
                want = oracle_defres(SkewPartition(lam), theta, 3, (0, 1, 2))
                assert defres_degree(lam, kappa) == want


class TestNcycleVanishing:
    def test_worked_example(self):
        assert ncycle_vanishing((6, 4, 2), (2, 1), 4) == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            ncycle_vanishing((6, 4, 2), (2, 1), 3)

    def test_zero_on_nonempty_core(self):
        # the staircase is its own 2-core, so it is not 2-decomposable
        assert not is_n_decomposable(SkewPartition((3, 2, 1)), 2)
        for kappa in partitions_of(3):
            assert ncycle_vanishing((3, 2, 1), kappa, 2) == 0

    def test_zero_when_component_exceeds_kappa(self):
        # empty 2-core, but the 2-quotient of (2,1,1) has a column component
        assert is_n_decomposable(SkewPartition((2, 1, 1)), 2)
        assert ncycle_vanishing((2, 1, 1), (2,), 2) == 0
        assert ncycle_vanishing((2, 1, 1), (1, 1), 2) in (-1, 1)

    def test_matches_recursive_and_oracle(self):
        for m, n in ((2, 2), (2, 3), (3, 2)):
            cycle = with_cycle_type((n,), n)
            for lam in partitions_of(m * n):
                for kappa in partitions_of(m):
                    want = defres_recursive(
                        query(SkewPartition(lam), m, kappa, (n,))
                    )
                    got = ncycle_vanishing(lam, kappa, n)
                    assert got == want, (lam, kappa, n)
                    theta = irreducible_character(kappa)
                    assert got == oracle_defres(SkewPartition(lam), theta, n, cycle)


def plethysm_coefficient(lam, kappa, nu):
    """<Defres_kappa chi^lam, chi^nu>, by the quotient recursion.

    Frobenius reciprocity on S_m wr S_n makes this the coefficient of s_lam
    in the plethysm s_nu o s_kappa, so it is a non-negative integer.
    """
    m, n = sum(kappa), sum(nu)
    chi = irreducible_character(nu)
    return sum(
        Fraction(
            defres_recursive(query(SkewPartition(lam), m, kappa, gamma)) * chi(gamma),
            centralizer_order(gamma),
        )
        for gamma in partitions_of(n)
    )


class TestPlethysmMultiplicities:
    def test_hand_checked_plethysms(self):
        # (nu, kappa): the expansion of s_nu o s_kappa
        cases = {
            ((2,), (2,)): {(4,): 1, (2, 2): 1},
            ((2,), (3,)): {(6,): 1, (4, 2): 1},
            ((3,), (2,)): {(6,): 1, (4, 2): 1, (2, 2, 2): 1},
        }
        for (nu, kappa), want in cases.items():
            got = {}
            for lam in partitions_of(sum(nu) * sum(kappa)):
                c = plethysm_coefficient(lam, kappa, nu)
                if c:
                    got[lam.parts] = c
            assert got == want, (nu, kappa)

    def test_non_negative_integers(self):
        triples = 0
        for m, n in itertools.product(range(2, 7), repeat=2):
            if m * n > 12:
                continue
            for lam in partitions_of(m * n):
                for kappa in partitions_of(m):
                    for nu in partitions_of(n):
                        c = plethysm_coefficient(lam, kappa.parts, nu.parts)
                        assert c.denominator == 1 and c >= 0, (lam, kappa, nu)
                        triples += 1
        assert triples == 7736
