import itertools
from collections import Counter
from math import factorial

import pytest

from defres import (
    BudgetExceeded,
    ClassFunction,
    Composition,
    Partition,
    SkewPartition,
    WreathElement,
    irreducible_character,
    mn_value,
    omega,
    oracle_defres,
    partitions_of,
    skew_shapes,
    stretch,
    tilde_theta_value,
    to_permutation,
)
from defres.perms import all_permutations, cycle_type_of, cycles, with_cycle_type
from defres.wreath import _along, _expansion, _plan

from conftest import parity

BIG = SkewPartition((8, 5, 3, 2, 2, 2), (2, 2, 1, 1, 1))


def all_elements(m, n):
    perms = list(all_permutations(m))
    for base in itertools.product(perms, repeat=n):
        for top in all_permutations(n):
            yield WreathElement(base, top)


def cycle_type(w):
    """The cycle type of w acting on its m*n points."""
    m = len(w.base[0]) if w.base else 0
    return cycle_type_of(to_permutation(w, m, len(w.top)))


def cycle_products(w):
    """(product of base permutations along the cycle, cycle length) pairs."""
    return [(_along(w.base, cyc), len(cyc)) for cyc in cycles(w.top)]


class TestWreathElement:
    def test_validation(self):
        with pytest.raises(ValueError):
            WreathElement(((0, 1),), (0, 1))  # one base perm, two top points
        with pytest.raises(ValueError):
            WreathElement(((0, 1), (0,)), (0, 1))  # mixed base sizes

    def test_top_not_a_permutation(self):
        for top in ((1, 1), (0, 2), (-1, 0)):
            with pytest.raises(ValueError, match="not a permutation"):
                WreathElement(((0, 1), (1, 0)), top)

    def test_base_not_a_permutation(self):
        for bad in ((0, 0), (1, 2), (0, -1)):
            with pytest.raises(ValueError, match="not a permutation"):
                WreathElement((bad, (1, 0)), (1, 0))
            with pytest.raises(ValueError, match="not a permutation"):
                WreathElement(((1, 0), bad), (0, 1))

    def test_frozen(self):
        w = WreathElement(((0, 1),), (0,))
        with pytest.raises(AttributeError):
            w.top = (0,)


class TestToPermutation:
    def test_fixture(self):
        w = WreathElement(base=((1, 0), (0, 1)), top=(1, 0))
        assert to_permutation(w, 2, 2) == (2, 3, 1, 0)
        assert cycle_type(w) == Partition((4,))

    def test_identity(self):
        w = WreathElement(((0, 1, 2),) * 2, (0, 1))
        assert to_permutation(w, 3, 2) == (0, 1, 2, 3, 4, 5)

    def test_dimension_check(self):
        w = WreathElement(((0, 1),), (0,))
        with pytest.raises(ValueError):
            to_permutation(w, 2, 2)

    def test_injective_on_small_groups(self):
        for m, n in ((2, 2), (2, 3), (3, 2)):
            images = {to_permutation(w, m, n) for w in all_elements(m, n)}
            assert len(images) == factorial(m) ** n * factorial(n)

    def test_point_encoding_is_immaterial_for_cycle_types(self):
        # re-encode point (i, j) as i*n + j instead of j*m + i; the two
        # permutations are conjugate, so every class statistic must agree
        def alt_permutation(w, m, n):
            img = [0] * (m * n)
            for j in range(n):
                jj = w.top[j]
                h = w.base[jj]
                for i in range(m):
                    img[i * n + j] = h[i] * n + jj
            return tuple(img)

        for m, n in ((2, 2), (3, 2), (2, 3)):
            for w in all_elements(m, n):
                assert cycle_type_of(alt_permutation(w, m, n)) == cycle_type(w)


class TestCycleProducts:
    def test_convention_fixture(self):
        # top 3-cycle 0 -> 1 -> 2 -> 0: later base factors multiply on the left
        w = WreathElement(base=((1, 0, 2), (0, 2, 1), (0, 1, 2)), top=(1, 2, 0))
        assert cycle_products(w) == [((2, 0, 1), 3)]

    def test_cycle_type_factors_through_products(self):
        # |cycle of w| = s * |cycle of the product| for each top cycle
        for m, n in ((2, 2), (3, 2), (2, 3)):
            for w in all_elements(m, n):
                parts = [
                    s * p
                    for prod, s in cycle_products(w)
                    for p in cycle_type_of(prod)
                ]
                assert Partition(sorted(parts, reverse=True)) == cycle_type(w)


class TestTildeTheta:
    def test_trivial_theta_is_constant_one(self):
        theta = ClassFunction.trivial(3)
        for w in all_elements(3, 2):
            assert tilde_theta_value(theta, w) == 1

    def test_sign_theta_formula(self):
        # extension of the sign character: sign of the induced permutation,
        # times the top sign when m is odd
        for m, n in ((2, 2), (3, 2), (2, 3)):
            theta = ClassFunction.sign(m)
            for w in all_elements(m, n):
                want = parity(to_permutation(w, m, n))
                if m % 2:
                    want *= parity(w.top)
                assert tilde_theta_value(theta, w) == want

    def test_degree_check(self):
        w = WreathElement(((0, 1), (1, 0)), (0, 1))
        with pytest.raises(ValueError):
            tilde_theta_value(ClassFunction.trivial(3), w)

    def test_multiplicative_over_disjoint_top_cycles(self):
        theta = irreducible_character((2, 1))
        base = ((1, 2, 0), (0, 2, 1), (1, 0, 2))
        w = WreathElement(base, (1, 0, 2))  # cycles (0 1) and (2)
        w1 = WreathElement((base[0], base[1]), (1, 0))
        w2 = WreathElement((base[2],), (0,))
        assert tilde_theta_value(theta, w) == tilde_theta_value(
            theta, w1
        ) * tilde_theta_value(theta, w2)


class TestOmega:
    def test_strip_count_fixture(self):
        assert omega(BIG, 5, 3, (2, 1, 1, 1)) == -2

    def test_equals_inflated_strip_count(self):
        for shape in skew_shapes(6, 2):
            for alpha in partitions_of(3):
                assert omega(shape, 3, 2, alpha) == mn_value(
                    shape, stretch(alpha, 2)
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            omega(BIG, 5, 3, (2, 1))
        with pytest.raises(ValueError):
            omega(SkewPartition((2,)), 2, 2, (2,))


class TestOracleDefres:
    def test_validation(self):
        theta = ClassFunction.trivial(2)
        with pytest.raises(ValueError):
            oracle_defres(SkewPartition((2, 2)), theta, 2, (0,))
        with pytest.raises(ValueError):
            oracle_defres(SkewPartition((2, 2, 1)), theta, 2, (0, 1))

    @pytest.mark.parametrize("naive", [False, True])
    def test_top_not_a_permutation(self, naive):
        # g = (0, 0) has the right length but no cycle through point 1; a
        # valid g read first gives the per-(m, g) plan no way around the
        # check, and the failed read is not memoised
        theta = irreducible_character((2,))
        shape = SkewPartition((2, 2))
        oracle_defres(shape, theta, 2, (1, 0), naive=naive)
        size = _plan.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="not a permutation"):
                oracle_defres(shape, theta, 2, (0, 0), naive=naive)
        assert _plan.cache_info().currsize == size

    def test_budget(self):
        theta = ClassFunction.trivial(3)
        shape = SkewPartition((3, 3, 3))
        with pytest.raises(BudgetExceeded):
            oracle_defres(shape, theta, 3, (0, 1, 2), budget=100, naive=True)
        # grouped: multisets of 3 of the p(3) = 3 classes, C(5, 3) = 10; the
        # budget is checked before anything is expanded
        _expansion.cache_clear()
        _plan.cache_clear()
        with pytest.raises(BudgetExceeded, match="needs 10 class multisets, budget 9"):
            oracle_defres(shape, theta, 3, (0, 1, 2), budget=9)
        assert _expansion.cache_info().currsize == 0
        assert _plan.cache_info().currsize == 1  # read for the budget
        assert _plan(3, (0, 1, 2)) == (((1, 3),), 10, factorial(3) ** 3)
        naive = oracle_defres(shape, theta, 3, (0, 1, 2), naive=True)
        assert oracle_defres(shape, theta, 3, (0, 1, 2), budget=10) == naive
        assert _expansion.cache_info().currsize == 1
        weights, types = _expansion(theta, ((1, 3),))
        assert len(weights) == len(types) <= 10

    def test_worked_example(self):
        shape = SkewPartition((6, 5, 3, 2), (3, 1))
        theta = ClassFunction.trivial(2)
        g = with_cycle_type((3, 2, 1), 6)
        assert oracle_defres(shape, theta, 6, g) == 1

    def test_grouped_agrees_with_naive(self):
        # (2, 4) and (3, 3) have several cycles of g of one length, so they
        # pin the multinomial weights of the class multisets
        for m, n, inner in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 1), (3, 3, 0)):
            for shape in skew_shapes(m * n, inner):
                for theta_label in partitions_of(m):
                    theta = irreducible_character(theta_label)
                    for gamma in partitions_of(n):
                        g = with_cycle_type(gamma.parts, n)
                        grouped = oracle_defres(shape, theta, n, g)
                        naive = oracle_defres(shape, theta, n, g, naive=True)
                        assert grouped == naive, (shape, theta_label, gamma)

    def test_identity_class_beyond_the_naive_reach(self):
        # m = 4, g = 1: C(14, 10) = 1,001 class multisets, where the
        # ordered class assignments number 5^10
        from defres import a_coefficient

        shape = SkewPartition((10, 10, 10, 10))
        got = oracle_defres(shape, ClassFunction.trivial(4), 10, tuple(range(10)))
        assert got == a_coefficient(shape, 4, Composition((1,) * 10)) == 1129254

    def test_expansion_invariants(self):
        # column orthogonality: sum_b |b| chi^kappa(b) = m! [kappa = (m)] on
        # each cycle of g, so the weights sum to (m!)^len(gamma) or to 0
        for m in range(1, 6):
            for kappa in partitions_of(m):
                theta = irreducible_character(kappa)
                for n in range(1, 5):
                    for gamma in partitions_of(n):
                        lengths = tuple(sorted(Counter(gamma).items()))
                        weights, types = _expansion(theta, lengths)
                        assert len(weights) == len(types) == len(set(types))
                        assert 0 not in weights
                        for parts in types:
                            assert list(parts) == sorted(parts, reverse=True)
                            assert sum(parts) == m * n
                        want = factorial(m) ** len(gamma) if kappa == (m,) else 0
                        assert sum(weights) == want, (kappa, gamma)

    def test_expansion_is_shared_across_shapes(self):
        # one cell sweep plans and expands once per cycle type of g, p(n)
        # times each
        for m, n in ((2, 3), (3, 2), (2, 4), (3, 3)):
            theta = irreducible_character((m - 1, 1))
            _expansion.cache_clear()
            _plan.cache_clear()
            for shape in skew_shapes(m * n, 1):
                for gamma in partitions_of(n):
                    oracle_defres(shape, theta, n, with_cycle_type(gamma.parts, n))
            assert _expansion.cache_info().misses == len(partitions_of(n))
            assert _plan.cache_info().misses == len(partitions_of(n))

    def test_class_function_of_the_top_type(self):
        # the average may only depend on the cycle type of g
        shape = SkewPartition((4, 2))
        theta = irreducible_character((2,))
        for g in all_permutations(3):
            want = oracle_defres(
                shape, theta, 3, with_cycle_type(cycle_type_of(g).parts, 3)
            )
            assert oracle_defres(shape, theta, 3, g) == want

    def test_identity_class_counts_multiplicities(self):
        # at the identity the average is the multiplicity of theta x ... x
        # theta in the restriction; for the trivial theta that counts
        # semistandard fillings, for the sign theta the same on the
        # conjugate shape
        from defres import a_coefficient

        def conj(shape):
            return SkewPartition(
                shape.outer.conjugate(), shape.inner.conjugate()
            )

        for m, n in ((2, 2), (3, 2), (2, 3)):
            e = tuple(range(n))
            ones = Composition((1,) * n)
            for shape in skew_shapes(m * n, 2):
                got = oracle_defres(shape, ClassFunction.trivial(m), n, e)
                assert got == a_coefficient(shape, m, ones)
                got = oracle_defres(shape, ClassFunction.sign(m), n, e)
                assert got == a_coefficient(conj(shape), m, ones)
