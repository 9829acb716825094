import itertools
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from defres import (
    AbacusDisplay,
    BorderStripTableau,
    Composition,
    Partition,
    SkewPartition,
    display,
    enumerate_m_bst,
    intermediates,
    is_n_decomposable,
    n_quotient,
    partitions_of,
    quotient_bijection,
    skew_shapes,
    stretch,
)
from defres.abacus import _cuts, _runner_cuts
from defres.partitions import _skew_key

from conftest import horizontal, parity, partitions, strip_oracle

BIG_OUTER = Partition((8, 5, 3, 2, 2, 2))
BIG_INNER = Partition((2, 2, 1, 1, 1))
BIG = SkewPartition(BIG_OUTER, BIG_INNER)
FIG1_CHAIN = (
    (2, 2, 1, 1, 1),
    (4, 3, 3, 2, 1),
    (5, 5, 3, 2, 1),
    (5, 5, 3, 2, 2, 2),
    (8, 5, 3, 2, 2, 2),
)


def decomposable_oracle(shape, n):
    """Straight from the definition: some tableau of type (n,...,n) exists."""
    k = shape.size // n
    return bool(enumerate_m_bst(shape, 1, Composition((n,) * k)))


def strip_down_cores(p, n):
    """Every partition reachable by removing n-strips until none remain."""
    taus = [
        tau
        for tau in intermediates(SkewPartition(p), p.size - n)
        if strip_oracle(SkewPartition(p, tau))
    ]
    if not taus:
        return {p}
    out = set()
    for tau in taus:
        out |= strip_down_cores(tau, n)
    return out


class TestAbacusDisplay:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbacusDisplay(0, [0])
        with pytest.raises(ValueError):
            AbacusDisplay(2, [-1, 0])
        with pytest.raises(ValueError):
            AbacusDisplay(2, [0, 1, 2])  # count not a multiple of runners

    def test_rejects_non_integer_beads(self):
        with pytest.raises(TypeError):
            AbacusDisplay(2, [0.0, 1.7])

    def test_rejects_mutation(self):
        d = AbacusDisplay(2, [0, 1])
        with pytest.raises(AttributeError):
            d.runners = 3

    def test_empty(self):
        d = AbacusDisplay(3, [])
        assert d.partition() == Partition()
        assert d.row_count == 0
        assert d.render() == ""

    def test_numbering_ascends_with_position(self):
        d = display(BIG_OUTER, 3)
        assert d.numbering() == {2: 1, 3: 2, 4: 3, 6: 4, 9: 5, 13: 6}

    def test_render(self):
        d = display(BIG_OUTER, 3)
        assert d.render() == (
            "o  o  ●1\n"
            "●2 ●3 o\n"
            "●4 o  o\n"
            "●5 o  o\n"
            "o  ●6 o"
        )


class TestDisplay:
    def test_bead_positions(self):
        assert display(BIG_OUTER, 3).beads == frozenset({2, 3, 4, 6, 9, 13})
        assert display(BIG_INNER, 3, rows=2).beads == frozenset({0, 2, 3, 4, 6, 7})

    def test_validation(self):
        with pytest.raises(ValueError):
            display((2, 2, 1), 2, rows=1)  # three parts need two rows
        with pytest.raises(ValueError):
            display((1,), 0)
        with pytest.raises(ValueError):
            display((1,), 2, rows=0)

    @given(partitions(max_size=12, max_rows=6), st.integers(1, 4), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_any_padding(self, p, n, extra):
        t = max(1, -(-len(p) // n)) + extra
        assert display(p, n, rows=t).partition() == p

    def test_defaults_to_minimal_rows(self):
        assert display((2, 2, 1), 2).bead_count == 4
        assert display(Partition(), 5).bead_count == 5
        assert display((1, 1, 1, 1), 2).bead_count == 4

    def test_many_beads_read_back_in_linear_time(self):
        # 40,000 beads, 39,999 of them zero parts; read in one pass
        start = time.perf_counter()
        assert display((1,), 40000).partition() == (1,)
        assert time.perf_counter() - start < 1


class TestIsNDecomposable:
    def test_fixtures(self):
        assert is_n_decomposable(SkewPartition((3, 1), (1, 1)), 2)
        assert not is_n_decomposable(SkewPartition((3, 1), (2,)), 2)
        assert is_n_decomposable(SkewPartition((2, 2)), 2)
        assert is_n_decomposable(BIG, 3)
        assert is_n_decomposable(SkewPartition(()), 5)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            is_n_decomposable(SkewPartition((3,)), 2)

    def test_shape_without_boxes_draws_no_runners(self):
        start = time.perf_counter()
        assert is_n_decomposable(SkewPartition((3,), (3,)), 10**6)
        assert time.perf_counter() - start < 1

    def test_matches_tableau_existence(self):
        for n in (2, 3, 4):
            for k in range(0, 9 // n):
                for shape in skew_shapes(n * k, 3):
                    got = is_n_decomposable(shape, n)
                    assert got == decomposable_oracle(shape, n), (shape, n)


class TestCuts:
    def test_lists_exactly_the_decomposable_cuts(self):
        # the cut table of lambda against the filter over every waistline;
        # each entry carries the quotient's sign and its sorted components key
        checked = listed = 0
        for size in range(13):
            for lam in partitions_of(size):
                for c in range(2, 7):
                    for m in range(1, size // c + 1):
                        table = _cuts(lam.parts, c, m)
                        got = [tau for tau, _, _ in table]
                        want = [
                            tau
                            for tau in intermediates((lam, ()), size - m * c)
                            if is_n_decomposable(SkewPartition(lam, tau), c)
                        ]
                        assert sorted(got) == sorted(want), (lam, c, m)
                        assert len(set(got)) == len(got), (lam, c, m)
                        for tau, sign, key in table:
                            quotient = n_quotient(SkewPartition(lam, tau), c)
                            assert sign == quotient.sign, (lam, tau, c)
                            comps = [k for comp in quotient.components for k in _skew_key(*comp)]
                            assert key == tuple(sorted(comps)), (lam, tau, c)
                        checked += 1
                        listed += len(got)
        assert (checked, listed) == (3404, 4316)

    def test_runners_without_boxes_are_not_cut(self):
        # 30,000 runners, one holding boxes: the others keep their beads as
        # they are, so the cut costs one read of the display
        _cuts.cache_clear()
        _runner_cuts.cache_clear()
        start = time.perf_counter()
        ((tau, sign, key),) = _cuts((60000,), 30000, 1)
        assert time.perf_counter() - start < 1
        assert (tau, sign, key) == ((30000,), 1, (((0, 1),),))
        assert type(tau) is Partition


class TestNQuotient:
    def test_worked_example(self):
        q = n_quotient(BIG, 3)
        assert [str(c) for c in q.components] == ["1,1,1/-", "3,1/1,1", "-/-"]
        assert q.relabelling == (2, 1, 4, 3, 5, 6)
        assert q.sign == 1
        assert len(q.components) == 3

    def test_rejects_non_decomposable(self):
        with pytest.raises(ValueError):
            n_quotient(SkewPartition((3, 1), (2,)), 2)

    def test_sign_is_relabelling_parity(self):
        for n in (2, 3):
            for shape in skew_shapes(2 * n, 2):
                if not is_n_decomposable(shape, n):
                    continue
                q = n_quotient(shape, n)
                assert q.sign == parity(tuple(r - 1 for r in q.relabelling))

    def test_component_sizes(self):
        for n in (2, 3):
            for k in (1, 2, 3):
                for shape in skew_shapes(n * k, 2):
                    if not is_n_decomposable(shape, n):
                        continue
                    q = n_quotient(shape, n)
                    assert n * sum(c.size for c in q.components) == shape.size

    def test_all_strip_tableaux_share_the_quotient_sign(self):
        for n in (2, 3):
            for k in (1, 2, 3):
                for shape in skew_shapes(n * k, 2):
                    if not is_n_decomposable(shape, n):
                        continue
                    expected = n_quotient(shape, n).sign
                    signs = {
                        t.sign for t in enumerate_m_bst(shape, 1, Composition((n,) * k))
                    }
                    assert signs == {expected}, (shape, n)

    def test_straight_shape_decomposes_iff_core_empty(self):
        for r in range(0, 9):
            for p in partitions_of(r):
                for n in (2, 3):
                    if r % n:
                        continue
                    shape = SkewPartition(p)
                    assert is_n_decomposable(shape, n) == (
                        strip_down_cores(p, n) == {Partition()}
                    )

    def test_stable_under_extra_display_rows(self):
        # recompute from displays padded with extra full rows of beads; the
        # components and the relabelling parity must not change
        def padded_quotient(shape, n, extra):
            t = max(1, -(-len(shape.outer) // n)) + extra
            d_outer = display(shape.outer, n, rows=t)
            d_inner = display(shape.inner, n, rows=t)
            num_outer = d_outer.numbering()
            num_inner = d_inner.numbering()
            comps = []
            rho = [0] * d_outer.bead_count
            for i in range(n):
                ro, ri = (
                    sorted(b // n for b in d.beads if b % n == i)
                    for d in (d_outer, d_inner)
                )
                comps.append(
                    SkewPartition(
                        AbacusDisplay(1, ro).partition(),
                        AbacusDisplay(1, ri).partition(),
                    )
                )
                for x, y in zip(ro, ri):
                    rho[num_outer[i + n * x] - 1] = num_inner[i + n * y]
            return tuple(comps), parity(tuple(r - 1 for r in rho))

        for n in (2, 3):
            for shape in skew_shapes(2 * n, 2):
                if not is_n_decomposable(shape, n):
                    continue
                q = n_quotient(shape, n)
                for extra in (1, 2):
                    comps, sgn = padded_quotient(shape, n, extra)
                    assert comps == q.components
                    assert sgn == q.sign


class TestUniqueCycleTableau:
    # an m-strip tableau of type (n) exists exactly when the shape is
    # n-decomposable with every quotient component a horizontal strip; it is
    # then unique, and its sign is the quotient sign
    def test_fixtures(self):
        (t,) = enumerate_m_bst(SkewPartition((2,)), 1, Composition((2,)))
        assert t.sign == 1 == n_quotient(t.shape, 2).sign
        (t,) = enumerate_m_bst(SkewPartition((1, 1)), 1, Composition((2,)))
        assert t.sign == -1 == n_quotient(t.shape, 2).sign
        assert enumerate_m_bst(SkewPartition((1, 1)), 2, Composition((1,))) == []
        assert enumerate_m_bst(BIG, 5, Composition((3,))) == []
        assert not all(horizontal(c) for c in n_quotient(BIG, 3).components)

    def test_matches_enumeration(self):
        # existence, uniqueness and the sign all at once
        for m in (1, 2, 3, 4):
            for n in (1, 2, 3):
                if m * n > 10:
                    continue
                for shape in skew_shapes(m * n, 2):
                    ts = enumerate_m_bst(shape, m, Composition((n,)))
                    exists = is_n_decomposable(shape, n) and all(
                        horizontal(c) for c in n_quotient(shape, n).components
                    )
                    assert len(ts) == exists, (shape, m, n)
                    if ts:
                        assert ts[0].sign == n_quotient(shape, n).sign, (shape, m, n)


class TestQuotientBijection:
    def test_validation(self):
        t = BorderStripTableau([(), (2,), (2, 2, 1, 1)])  # type (2, 4)
        with pytest.raises(ValueError):
            quotient_bijection(t, 2)  # lengths/2 = (1, 2) is not a partition
        with pytest.raises(ValueError):
            quotient_bijection(BorderStripTableau([(), (3,)]), 2)
        with pytest.raises(ValueError):
            quotient_bijection(t, 0)

    @pytest.mark.parametrize("chain", [((), (2, 1)), ((1,), (1,))])
    def test_step_off_one_runner_raises(self, chain):
        # forged past validation: on 2 runners (2, 1)/() moves a bead from
        # runner 0 to runner 1, and (1,)/(1,) moves none
        class Forged(BorderStripTableau):
            type = Composition((2,))

        t = tuple.__new__(Forged, (tuple(map(Partition, chain)), (1,)))
        with pytest.raises(RuntimeError, match="exactly one runner"):
            quotient_bijection(t, 2)

    def test_worked_example_structure(self):
        t = BorderStripTableau(FIG1_CHAIN)
        q = n_quotient(BIG, 3)
        parts = quotient_bijection(t, 3)
        assert [p.shape for p in parts] == list(q.components)
        labels = sorted(x for p in parts for x in p.labels)
        assert labels == [1, 2, 3, 4]
        comp_sign = 1
        for p in parts:
            comp_sign *= p.sign
        assert t.sign == q.sign * comp_sign

    def test_many_runners_read_once_per_step(self):
        # one read of the display per chain step, not one per runner
        t = BorderStripTableau([(), (2000,), (4000,), (6000,)])
        start = time.perf_counter()
        parts = quotient_bijection(t, 2000)
        assert time.perf_counter() - start < 1
        assert [p.shape for p in parts] == list(n_quotient(t.shape, 2000).components)
        assert sorted(x for p in parts for x in p.labels) == [1, 2, 3]

    def _expected_tuples(self, shape, n, alpha):
        """Independent enumeration of labelled component-tableau tuples."""
        q = n_quotient(shape, n)
        k = len(alpha)
        out = set()
        for assign in itertools.product(range(n), repeat=k):
            groups = [[j for j in range(k) if assign[j] == i] for i in range(n)]
            if any(
                sum(alpha[j] for j in groups[i]) != q.components[i].size
                for i in range(n)
            ):
                continue
            choices = []
            for i in range(n):
                ts = enumerate_m_bst(
                    q.components[i], 1, Composition(alpha[j] for j in groups[i])
                )
                choices.append(
                    [
                        BorderStripTableau(
                            t.chain, labels=[j + 1 for j in groups[i]]
                        )
                        for t in ts
                    ]
                )
            out.update(itertools.product(*choices))
        return out

    def test_bijective_with_sign_relation(self):
        cases = [(BIG, 3, Partition((2, 1, 1, 1)))]
        for n, k in ((2, 2), (2, 3), (3, 2)):
            for alpha in partitions_of(k):
                for shape in skew_shapes(n * k, 2):
                    if not is_n_decomposable(shape, n):
                        continue
                    cases.append((shape, n, alpha))
        for shape, n, alpha in cases:
            q = n_quotient(shape, n)
            source = enumerate_m_bst(shape, 1, stretch(alpha, n))
            images = []
            for t in source:
                parts = quotient_bijection(t, n)
                comp_sign = 1
                for p in parts:
                    comp_sign *= p.sign
                assert t.sign == q.sign * comp_sign, (shape, n, alpha)
                images.append(tuple(parts))
            assert len(set(images)) == len(source)  # injective
            assert set(images) == self._expected_tuples(
                shape, n, alpha.parts
            ), (shape, n, alpha)
