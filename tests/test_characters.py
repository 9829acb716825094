import itertools
from fractions import Fraction
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings

from defres import (
    ClassFunction,
    Composition,
    Partition,
    SkewPartition,
    centralizer_order,
    induced_value,
    inner_product,
    intermediates,
    irreducible_character,
    lr_coefficient,
    mn_value,
    partitions_of,
    skew_character,
    skew_shapes,
)
from defres.characters import lr_fillings
from defres.perms import (
    all_permutations,
    cycle_type_of,
    with_cycle_type,
)

from conftest import boxes, horizontal, parity, skews


def hook_length_count(p):
    p = Partition(p)
    q = p.conjugate()
    den = 1
    for r, c in boxes(p):
        den *= (p.part(r) - c) + (q.part(c) - r) + 1
    return factorial(p.size) // den


def induced_oracle(thetas, alpha):
    """Brute-force induction: average theta over conjugates landing in the
    Young subgroup embedded on consecutive blocks of points."""
    degrees = [th.degree for th in thetas]
    r = sum(degrees)
    starts = [sum(degrees[:i]) for i in range(len(degrees))]
    g = with_cycle_type(alpha.parts + (1,) * (r - alpha.size), r)

    def block_value(y):
        v = 1
        for th, s in zip(thetas, starts):
            block = y[s : s + th.degree]
            if any(not (s <= img < s + th.degree) for img in block):
                return 0
            v *= th(cycle_type_of(tuple(img - s for img in block)))
        return v

    def conjugate(x):
        # x g x^-1 sends x[i] to x[g[i]]
        image = dict(zip(x, (x[j] for j in g)))
        return tuple(image[i] for i in range(r))

    total = sum(block_value(conjugate(x)) for x in all_permutations(r))
    h_order = 1
    for d in degrees:
        h_order *= factorial(d)
    assert total % h_order == 0
    return total // h_order


def compositions_of(r, max_rows):
    if max_rows == 1:
        yield (r,)
        return
    for first in range(1, r + 1):
        if first == r:
            yield (r,)
            continue
        for rest in compositions_of(r - first, max_rows - 1):
            yield (first,) + rest


class TestClassFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClassFunction(2, {Partition((2,)): 1})  # missing (1,1)
        with pytest.raises(ValueError):
            ClassFunction(2, {Partition((2,)): 1, Partition((1,)): 1})
        with pytest.raises(ValueError):
            ClassFunction(-1, {})

    def test_rejects_mutation(self):
        f = ClassFunction.trivial(3)
        with pytest.raises(AttributeError):
            f.degree = 4

    def test_call(self):
        f = ClassFunction.sign(3)
        assert f((3,)) == 1
        assert f(Partition((2, 1))) == -1
        with pytest.raises(ValueError):
            f((4,))

    def test_trivial_and_sign(self):
        assert all(ClassFunction.trivial(4)(a) == 1 for a in partitions_of(4))
        sgn = ClassFunction.sign(4)
        for a in partitions_of(4):
            assert sgn(a) == parity(with_cycle_type(a.parts, 4))

    def test_equality_and_hash(self):
        assert ClassFunction.trivial(3) == ClassFunction.trivial(3)
        assert ClassFunction.trivial(3) != ClassFunction.sign(3)
        assert len({ClassFunction.trivial(3), ClassFunction.trivial(3)}) == 1

    def test_degree_zero(self):
        f = ClassFunction.trivial(0)
        assert f(()) == 1


class TestIrreducibleCharacter:
    def test_small_table(self):
        chi = irreducible_character((2, 1))
        assert chi((1, 1, 1)) == 2
        assert chi((2, 1)) == 0
        assert chi((3,)) == -1

    def test_one_row_is_trivial(self):
        for r in range(0, 7):
            assert irreducible_character((r,) if r else ()) == ClassFunction.trivial(r)

    def test_one_column_is_sign(self):
        for r in range(1, 7):
            assert irreducible_character((1,) * r) == ClassFunction.sign(r)

    def test_degrees_match_hook_lengths(self):
        for r in range(1, 8):
            for lam in partitions_of(r):
                chi = irreducible_character(lam)
                assert chi((1,) * r) == hook_length_count(lam)

    def test_first_orthogonality(self):
        for r in range(0, 7):
            chars = [irreducible_character(lam) for lam in partitions_of(r)]
            for f, g in itertools.combinations_with_replacement(chars, 2):
                assert inner_product(f, g) == (1 if f == g else 0)

    def test_second_orthogonality(self):
        for r in range(1, 7):
            classes = partitions_of(r)
            chars = [irreducible_character(lam) for lam in classes]
            for a, b in itertools.product(classes, repeat=2):
                got = sum(chi(a) * chi(b) for chi in chars)
                assert got == (centralizer_order(a) if a == b else 0)

    def test_conjugate_twists_by_sign(self):
        for r in range(1, 7):
            sgn = ClassFunction.sign(r)
            for lam in partitions_of(r):
                chi = irreducible_character(lam)
                chi_c = irreducible_character(lam.conjugate())
                assert all(
                    chi_c(a) == sgn(a) * chi(a) for a in partitions_of(r)
                )


class TestSkewCharacter:
    def test_plain_shape_reduces_to_irreducible(self):
        for r in range(0, 7):
            for lam in partitions_of(r):
                assert skew_character(SkewPartition(lam)) == irreducible_character(lam)

    def test_decomposes_into_irreducibles(self):
        # the multiplicities are the lr coefficients, on every class at once
        for shape in skew_shapes(5, 3):
            lam, mu = shape.outer, shape.inner
            for a in partitions_of(5):
                total = sum(
                    lr_coefficient(lam, (mu, nu)) * irreducible_character(nu)(a)
                    for nu in partitions_of(5)
                )
                assert total == skew_character(shape)(a)

    @given(skews(max_size=8, max_rows=4))
    @settings(max_examples=30, deadline=None)
    def test_multiplicities_non_negative(self, shape):
        for nu in partitions_of(shape.size):
            v = inner_product(skew_character(shape), irreducible_character(nu))
            assert v.denominator == 1 and v >= 0


class TestInnerProduct:
    def test_fixtures(self):
        assert inner_product(ClassFunction.trivial(3), ClassFunction.sign(3)) == 0
        assert inner_product(ClassFunction.trivial(3), ClassFunction.trivial(3)) == 1
        assert inner_product(ClassFunction.trivial(0), ClassFunction.sign(0)) == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(ClassFunction.trivial(2), ClassFunction.trivial(3))

    def test_returns_exact_fraction(self):
        v = inner_product(ClassFunction.trivial(2), irreducible_character((1, 1)))
        assert isinstance(v, Fraction) and v == 0


class TestInducedValue:
    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            induced_value((ClassFunction.trivial(2),), (3,))

    def test_value_at_identity_is_index_times_degrees(self):
        thetas = (irreducible_character((2, 1)), irreducible_character((1, 1)))
        # [S_5 : S_3 x S_2] = 10, degrees 2 and 1
        assert induced_value(thetas, (1,) * 5) == 10 * 2 * 1

    def test_factor_order_does_not_matter(self):
        a = (irreducible_character((2,)), irreducible_character((1, 1)))
        b = (irreducible_character((1, 1)), irreducible_character((2,)))
        for alpha in partitions_of(4):
            assert induced_value(a, alpha) == induced_value(b, alpha)

    def test_matches_conjugation_average(self):
        for r in range(2, 6):
            for degrees in compositions_of(r, 4):
                if len(degrees) == 1:
                    continue
                label_choices = [partitions_of(d) for d in degrees]
                for labels in itertools.product(*label_choices):
                    thetas = tuple(irreducible_character(l) for l in labels)
                    for alpha in partitions_of(r):
                        assert induced_value(thetas, alpha) == induced_oracle(
                            thetas, alpha
                        ), (degrees, labels, alpha)

    def test_degree_zero_factors_match_conjugation_average(self):
        # a factor on S_0 takes no cycles and scales the value by theta(())
        double = ClassFunction(0, {(): 2})
        for r in range(0, 5):
            for k in range(1, 5):
                for degrees in itertools.product(range(r + 1), repeat=k):
                    if sum(degrees) != r or 0 not in degrees:
                        continue
                    for labels in itertools.product(*map(partitions_of, degrees)):
                        thetas = tuple(
                            irreducible_character(l) if l else double for l in labels
                        )
                        for alpha in partitions_of(r):
                            assert induced_value(thetas, alpha) == induced_oracle(
                                thetas, alpha
                            ), (degrees, labels, alpha)

    def test_thousands_of_factors(self):
        # one loop over the factors: 3000 of them need no recursion depth
        thetas = (ClassFunction.trivial(1),) * 3000
        assert induced_value(thetas, (1,) * 3000) == factorial(3000)

    def test_young_rule_fixture(self):
        # Ind from S_1 x S_1 x S_1 of trivials is the regular-like character
        thetas = (ClassFunction.trivial(1),) * 3
        assert induced_value(thetas, (1, 1, 1)) == 6
        assert induced_value(thetas, (2, 1)) == 0
        assert induced_value(thetas, (3,)) == 0


class TestLrCoefficient:
    def test_known_values(self):
        assert lr_coefficient((6,), ((2, 1), (2, 1))) == 0
        assert lr_coefficient((4, 2), ((2, 1), (2, 1))) == 1
        assert lr_coefficient((4, 1, 1), ((2, 1), (2, 1))) == 1
        assert lr_coefficient((3, 3), ((2, 1), (2, 1))) == 1
        assert lr_coefficient((2, 2, 2), ((2, 1), (2, 1))) == 1
        assert lr_coefficient((3, 2, 1), ((2, 1), (2, 1))) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            lr_coefficient((3,), ((2,), (2,)))

    def test_row_factor_counts_horizontal_strips(self):
        for lam in partitions_of(6):
            for k in range(0, 7):
                for mu in partitions_of(6 - k):
                    if not lam.contains(mu):
                        continue
                    want = 1 if horizontal(SkewPartition(lam, mu)) else 0
                    assert lr_coefficient(lam, (mu, Partition((k,) if k else ()))) == want

    def test_factor_symmetry(self):
        for lam in partitions_of(6):
            for k in (2, 3):
                for mu in partitions_of(k):
                    for nu in partitions_of(6 - k):
                        assert lr_coefficient(lam, (mu, nu)) == lr_coefficient(
                            lam, (nu, mu)
                        )

    def test_conjugation_symmetry(self):
        for lam in partitions_of(5):
            for mu in partitions_of(2):
                for nu in partitions_of(3):
                    assert lr_coefficient(lam, (mu, nu)) == lr_coefficient(
                        lam.conjugate(), (mu.conjugate(), nu.conjugate())
                    )

    def test_matches_skew_multiplicity(self):
        for shape in skew_shapes(4, 3):
            for nu in partitions_of(4):
                want = inner_product(
                    skew_character(shape), irreducible_character(nu)
                )
                assert lr_coefficient(shape.outer, (shape.inner, nu)) == want


def stacked(comps, overlap=0):
    # one skew shape holding the components, each further up and to the
    # right; overlap 0 stacks them corner to corner, overlap 1 shifts each
    # one column back over the components below it
    outer, inner, offset = [], [], 0
    for comp in reversed(comps):
        rows = len(comp.outer)
        outer[:0] = [offset + p for p in comp.outer]
        inner[:0] = [offset + comp.inner.part(r) for r in range(1, rows + 1)]
        offset += comp.outer.part(1) - overlap if rows else 0
    return SkewPartition(outer, inner)


@cache
def lr_cases():
    # every tuple of 1-3 skew shapes of total size r <= 6, inner sizes at
    # most 1, with each kappa's multiplicity in their product read off the
    # class table; the pool holds the empty shape and the size-0 shape 1/1.
    # Built once: both tests below walk the same cases.
    pool = [s for size in range(7) for s in skew_shapes(size, 1)]
    out = []
    for k in (1, 2, 3):
        for comps in itertools.combinations_with_replacement(pool, k):
            r = sum(s.size for s in comps)
            if r > 6:
                continue
            thetas = [skew_character(s) for s in comps]
            induced = ClassFunction(
                r, {a: induced_value(thetas, a) for a in partitions_of(r)}
            )
            for kappa in partitions_of(r):
                want = inner_product(irreducible_character(kappa), induced)
                out.append((comps, kappa, want))
    return tuple(out)


class TestLrFillings:
    def test_matches_class_table(self):
        count = 0
        for comps, kappa, want in lr_cases():
            assert lr_fillings(comps, kappa) == want, (comps, kappa)
            assert lr_fillings([stacked(comps)], kappa) == want, (comps, kappa)
            count += 1
        assert count == 13693

    def test_components_sharing_an_edge_fail(self):
        # negative control: glued components are one connected shape, and
        # the class table tells them apart
        wrong = 0
        for comps, kappa, want in lr_cases():
            try:
                glued = stacked(comps, overlap=1)
            except ValueError:  # the shifted rows are no skew shape
                continue
            wrong += lr_fillings([glued], kappa) != want
        assert wrong > 0
        one = SkewPartition((1,))
        assert lr_fillings([one, one], (2,)) == 1
        assert lr_fillings([stacked([one, one], overlap=1)], (2,)) == 0

    def test_sizes_and_empty_shapes(self):
        assert lr_fillings([], ()) == 1
        assert lr_fillings([((), ()), ((2, 1), (2, 1))], ()) == 1
        assert lr_fillings([((2,), ())], (1,)) == 0
        assert lr_fillings([((1,), ())], (1, 1)) == 0


class TestSkewRestriction:
    def test_splits_character_values(self):
        # evaluating on split cycle types factors through the waistline
        for shape in skew_shapes(5, 2):
            for c in range(0, 6):
                # lambda/mu splits into tau/mu and lambda/tau, |tau/mu| = c
                pairs = [
                    (SkewPartition(tau, shape.inner), SkewPartition(shape.outer, tau))
                    for tau in intermediates(shape, c)
                ]
                for alpha in partitions_of(c):
                    for beta in partitions_of(5 - c):
                        joined = Composition(alpha.parts + beta.parts)
                        want = mn_value(shape, joined)
                        got = sum(
                            mn_value(lower, alpha) * mn_value(upper, beta)
                            for lower, upper in pairs
                        )
                        assert got == want, (shape, c, alpha, beta)
