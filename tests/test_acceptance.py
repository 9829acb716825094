"""Acceptance suite: the contract-level checks, one test per criterion.

Each test prints a single line

    criterion <k> (<slug>): pass|FAIL (<seconds>s, limit <limit>s)

directly to the terminal (bypassing pytest capture) so a full run always
shows ten verdict lines, and fails if its wall-clock budget is exceeded.
All comparisons are exact integer equalities; there are no tolerances.
"""

import itertools
import sys
import time
from fractions import Fraction
from functools import cache, wraps
from math import factorial

from defres import (
    BorderStripTableau,
    ClassFunction,
    Composition,
    DeflationQuery,
    Partition,
    SkewPartition,
    WreathElement,
    a_coefficient,
    centralizer_order,
    defres_degree,
    defres_recursive,
    defres_sign,
    defres_theorem,
    enumerate_m_bst,
    farahat_check,
    intermediates,
    irreducible_character,
    inner_product,
    lr_coefficient,
    mn_value,
    n_quotient,
    oracle_defres,
    partitions_of,
    quotient_bijection,
    skew_shapes,
    stretch,
    tilde_theta_value,
)
from defres.perms import all_permutations, cycle_type_of, with_cycle_type

EX_SHAPE = SkewPartition((6, 5, 3, 2), (3, 1))
BIG = SkewPartition((8, 5, 3, 2, 2, 2), (2, 2, 1, 1, 1))
FIG1_CHAIN = (
    (2, 2, 1, 1, 1),
    (4, 3, 3, 2, 1),
    (5, 5, 3, 2, 1),
    (5, 5, 3, 2, 2, 2),
    (8, 5, 3, 2, 2, 2),
)

GRID = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3))
INNER_MAX = 3  # sweep bound standing in for "every skew shape"


VERDICTS: list[str] = []  # printed by the terminal-summary hook in conftest


def criterion(number: int, slug: str, limit: float):
    """Time the check, always record a verdict line, enforce the budget."""

    def deco(fn):
        @wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                _verdict(number, slug, "FAIL", time.perf_counter() - start, limit)
                raise
            elapsed = time.perf_counter() - start
            _verdict(
                number, slug, "pass" if elapsed < limit else "FAIL", elapsed, limit
            )
            assert elapsed < limit, (
                f"criterion {number} took {elapsed:.2f}s, over the "
                f"{limit:g}s budget"
            )

        return wrapper

    return deco


def _verdict(number, slug, verdict, elapsed, limit):
    line = (
        f"criterion {number} ({slug}): {verdict} "
        f"({elapsed:.2f}s, limit {limit:g}s)"
    )
    VERDICTS.append(line)
    print(line)  # also lands in this test's captured output


def query(shape, m, theta, gamma):
    gamma = Composition(gamma)
    return DeflationQuery(shape, m, gamma.size, Partition(theta), gamma)


@criterion(1, "worked deflation example", 1.0)
def test_criterion_01_worked_deflation_example():
    q = query(EX_SHAPE, 2, (2,), (1, 2, 3))
    assert defres_theorem(q) == 1
    tableaux = enumerate_m_bst(EX_SHAPE, 2, Composition((1, 2, 3)))
    assert len(tableaux) == 3
    assert sorted(t.sign for t in tableaux) == [-1, 1, 1]

    assert defres_theorem(query(EX_SHAPE, 2, (2,), (2, 1, 3))) == 1
    reordered = enumerate_m_bst(EX_SHAPE, 2, Composition((2, 1, 3)))
    assert len(reordered) == 1
    assert reordered[0].sign == 1


@criterion(2, "abacus figures", 1.0)
def test_criterion_02_abacus_figures():
    t = BorderStripTableau(FIG1_CHAIN)
    assert [m.height for m in t.metas()] == [3, 1, 1, 0]
    assert t.sign == -1

    q = n_quotient(BIG, 3)
    assert q.relabelling == (2, 1, 4, 3, 5, 6)  # cycles (1 2)(3 4)
    assert q.sign == 1
    assert [str(c) for c in q.components] == ["1,1,1/-", "3,1/1,1", "-/-"]

    sources = enumerate_m_bst(BIG, 1, Composition((6, 3, 3, 3)))
    assert len(sources) == 4
    images = []
    for s in sources:
        parts = quotient_bijection(s, 3)
        comp_sign = 1
        for p in parts:
            comp_sign *= p.sign
        assert s.sign == q.sign * comp_sign
        images.append(tuple(parts))
    assert len(set(images)) == 4


@criterion(3, "strip count and stretched-class identity", 1.0)
def test_criterion_03_strip_count_and_stretched_identity():
    gamma = Composition((6, 3, 3, 3))
    assert mn_value(BIG, gamma) == -2
    tableaux = enumerate_m_bst(BIG, 1, gamma)
    assert len(tableaux) == 4
    assert sorted(t.sign for t in tableaux) == [-1, -1, -1, 1]
    assert farahat_check(BIG, 3, (2, 1, 1, 1)) == (-2, -2)


@criterion(4, "general deflating character walkthrough", 5.0)
def test_criterion_04_general_theta_walkthrough():
    lam = Partition((6, 4, 2))
    shape = SkewPartition(lam)
    kappa = (2, 1)
    assert defres_recursive(query(shape, 3, kappa, (2, 1, 1))) == 1
    assert defres_recursive(query(shape, 3, kappa, (2, 2))) == 5

    assert lr_coefficient((6,), ((2, 1), (2, 1))) == 0
    for tau in ((4, 2), (4, 1, 1), (3, 3), (2, 2, 2)):
        assert lr_coefficient(tau, ((2, 1), (2, 1))) == 1

    # peel one 2-cycle: nonzero waistlines, their upper factors, and the
    # per-waistline products that sum to the double-transposition value
    taus, lowers, uppers = [], [], []
    for tau in intermediates(shape, 6):
        lo = defres_recursive(query(SkewPartition(tau), 3, kappa, (2,)))
        if lo:
            taus.append(tau)
            lowers.append(lo)
            uppers.append(
                defres_recursive(query(SkewPartition(lam, tau), 3, kappa, (2,)))
            )
    assert taus == [
        Partition((4, 2)),
        Partition((4, 1, 1)),
        Partition((3, 3)),
        Partition((2, 2, 2)),
    ]
    assert uppers == [2, -1, -1, 1]
    products = [l * u for l, u in zip(lowers, uppers)]
    assert products == [2, 1, 1, 1]
    assert sum(products) == 5


@criterion(5, "tableau rule equals averaging oracle", 600.0)
def test_criterion_05_tableau_rule_equals_oracle():
    checked = 0
    wider = ((2, 5), (5, 2), (3, 4), (4, 3), (2, 6), (6, 2))
    cells = [(m, n, INNER_MAX) for m, n in GRID + wider]
    cells += [(2, 7, 1), (7, 2, 1)]  # m * n = 14 at inner <= 1
    cells += [(3, 5, 1), (5, 3, 1), (2, 8, 1), (8, 2, 1), (4, 4, 1)]  # 15, 16
    for m, n, inner_max in cells:
        theta = ClassFunction.trivial(m)
        tops = [(gamma, with_cycle_type(gamma, n)) for gamma in partitions_of(n)]
        for shape in skew_shapes(m * n, inner_max):
            for gamma, g in tops:
                want = oracle_defres(shape, theta, n, g)
                assert defres_theorem(query(shape, m, (m,), gamma)) == want, (
                    shape,
                    m,
                    gamma,
                )
                checked += 1
    assert checked > 53000  # the sweep must not silently degenerate


@criterion(6, "stretched-class identity sweep", 600.0)
def test_criterion_06_stretched_identity_sweep():
    checked = 0
    for m, n in GRID:
        for shape in skew_shapes(m * n, INNER_MAX):
            for alpha in partitions_of(m):
                lhs, rhs = farahat_check(shape, n, alpha)
                assert lhs == rhs, (shape, n, alpha)
                checked += 1
    assert checked > 4000  # the sweep must not silently degenerate


@criterion(7, "wreath averaging identities", 120.0)
def test_criterion_07_wreath_averaging_identities():
    # (a) averaging a diagonal product character against the extension of
    # theta' recovers the top character when theta' = theta and kills it
    # otherwise
    for m in (2, 3):
        for n in (2, 3):
            perms = list(all_permutations(m))
            labels = partitions_of(m)
            for nu in partitions_of(n):
                chi_nu = irreducible_character(nu)
                for g_type in partitions_of(n):
                    g = with_cycle_type(g_type.parts, n)
                    for la, lb in itertools.product(labels, repeat=2):
                        ta = irreducible_character(la)
                        tb = irreducible_character(lb)
                        total = 0
                        for base in itertools.product(perms, repeat=n):
                            w = WreathElement(base, g)
                            total += (
                                tilde_theta_value(ta, w)
                                * chi_nu(g_type)
                                * tilde_theta_value(tb, w)
                            )
                        avg = Fraction(total, factorial(m) ** n)
                        want = chi_nu(g_type) if la == lb else 0
                        assert avg == want, (m, n, nu, g_type, la, lb)

    # (b) at an n-cycle the average collapses to a single base coordinate
    for m in (2, 3):
        for n in (2, 3):
            g = with_cycle_type((n,), n)
            e = tuple(range(m))
            for shape in skew_shapes(m * n, 1):
                for label in partitions_of(m):
                    theta = irreducible_character(label)
                    total = 0
                    for h in all_permutations(m):
                        w = WreathElement((h,) + (e,) * (n - 1), g)
                        psi = mn_value(
                            shape, cycle_type_of(to_perm(w, m, n))
                        )
                        total += psi * theta(cycle_type_of(h))
                    assert total % factorial(m) == 0
                    assert total // factorial(m) == oracle_defres(
                        shape, theta, n, g
                    ), (shape, label, n)

    # (c) a one-coordinate base of cycle type alpha under an n-cycle top
    # has cycle type n * alpha, so the restricted value is a strip count
    from defres import omega

    for m in (2, 3):
        for n in (2, 3):
            g = with_cycle_type((n,), n)
            e = tuple(range(m))
            for alpha in partitions_of(m):
                h = with_cycle_type(alpha.parts, m)
                w = WreathElement((h,) + (e,) * (n - 1), g)
                got_type = cycle_type_of(to_perm(w, m, n))
                assert got_type == stretch(alpha, n), (m, n, alpha)
                for shape in skew_shapes(m * n, 1):
                    assert omega(shape, m, n, alpha) == mn_value(shape, got_type)

    # (d) the n-cycle evaluation as an explicit class sum over S_m
    for m, n in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (2, 5), (2, 6), (3, 4), (4, 3)):
        g = with_cycle_type((n,), n)
        for shape in skew_shapes(m * n, 1):
            for label in partitions_of(m):
                theta = irreducible_character(label)
                want = sum(
                    Fraction(
                        mn_value(shape, stretch(alpha, n)) * theta(alpha),
                        centralizer_order(alpha),
                    )
                    for alpha in partitions_of(m)
                )
                assert want == oracle_defres(shape, theta, n, g)


def to_perm(w, m, n):
    from defres import to_permutation

    return to_permutation(w, m, n)


@criterion(8, "sign and degree closed forms", 600.0)
def test_criterion_08_sign_and_degree_closed_forms():
    for m, n in GRID:
        sign_label = (1,) * m
        sgn = ClassFunction.sign(m)
        for shape in skew_shapes(m * n, INNER_MAX):
            for gamma in partitions_of(n):
                got = defres_sign(query(shape, m, sign_label, gamma))
                assert got == oracle_defres(
                    shape, sgn, n, with_cycle_type(gamma.parts, n)
                ), (shape, m, gamma)
                assert got == defres_recursive(
                    query(shape, m, sign_label, gamma)
                ), (shape, m, gamma)

    for m, n in GRID:
        e = tuple(range(n))
        ones = (1,) * n
        for lam in partitions_of(m * n):
            shape = SkewPartition(lam)
            for kappa in partitions_of(m):
                got = defres_degree(lam, kappa)
                theta = irreducible_character(kappa)
                assert got == oracle_defres(shape, theta, n, e), (lam, kappa)
                assert got == defres_recursive(query(shape, m, kappa, ones)), (
                    lam,
                    kappa,
                )


@cache
def distinct_orderings(parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of a weakly decreasing tuple of parts.

    Picks each distinct value as the first part and recurses on the rest,
    so (1,) * 10 yields one ordering, not 10! permutations to deduplicate.
    """
    if not parts:
        return ((),)
    out = []
    for first in dict.fromkeys(parts):
        i = parts.index(first)
        rest = parts[:i] + parts[i + 1 :]
        out.extend((first,) + tail for tail in distinct_orderings(rest))
    return tuple(out)


@criterion(9, "type-order invariance of the signed count", 120.0)
def test_criterion_09_reorder_invariance():
    for total in range(2, 11):
        inner_max = 2 if total <= 8 else 1
        for m in range(1, total + 1):
            if total % m:
                continue
            n = total // m
            for shape in skew_shapes(total, inner_max):
                for gamma in partitions_of(n):
                    baseline = a_coefficient(shape, m, gamma)
                    for perm in distinct_orderings(gamma.parts):
                        assert (
                            a_coefficient(shape, m, Composition(perm))
                            == baseline
                        ), (shape, m, gamma, perm)


@criterion(10, "character table regression", 30.0)
def test_criterion_10_character_table_regression():
    for r in range(1, 9):
        classes = partitions_of(r)
        chars = {lam: irreducible_character(lam) for lam in classes}

        assert chars[Partition((r,))] == ClassFunction.trivial(r)
        assert chars[Partition((1,) * r)] == ClassFunction.sign(r)

        for la, lb in itertools.combinations_with_replacement(classes, 2):
            want = 1 if la == lb else 0
            assert inner_product(chars[la], chars[lb]) == want, (la, lb)

        for a, b in itertools.product(classes, repeat=2):
            got = sum(chars[lam](a) * chars[lam](b) for lam in classes)
            want = centralizer_order(a) if a == b else 0
            assert got == want, (a, b)
