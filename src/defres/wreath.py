"""Brute-force wreath product machinery and the averaging oracle.

An element of S_m wr S_n is a base tuple (h_0, ..., h_(n-1)) of
permutations of {0..m-1} together with a top permutation g of {0..n-1}; it
permutes the mn points (i, j) by (i, j) -> (h_g(j)(i), g(j)).  Point (i, j)
is encoded as j*m + i.

``tilde_theta_value`` extends a class function theta of S_m to the wreath
product: for each cycle (x_1, ..., x_s) of g, multiply the base
permutations along the cycle (h_(x_s) ... h_(x_1), first visited applied
first) and take theta of the product's cycle type; the value is the
product over cycles.  Only the conjugacy class of each cycle product
matters, which is what the grouped oracle exploits.

``oracle_defres`` averages psi * tilde_theta over the base group.  The
default path needs, per cycle length s of g, only the multiset of classes
on its k_s cycles (a conjugacy class of the wreath product).  Summed in
integers, these depend on theta and the cycle lengths of g alone, read once
per g, so the sum is memoised on them as (weight, cycle type) terms, equal
types merged and zero weights dropped.  The naive path sums over all (m!)^n
base tuples as an independent check.  A budget, checked first, bounds the
prod_s C(p(m) + k_s - 1, k_s) class multisets or the (m!)^n base tuples.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod

from .borderstrips import _mn, mn_value
from .partitions import Partition, SkewPartition, _record, centralizer_order, partitions_of
from .perms import all_permutations, compose, cycle_type_of, cycles, identity

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when an oracle would exceed its evaluation budget."""


class WreathElement(_record("WreathElement", "base top")):
    """A base tuple of permutations of {0..m-1} and a top permutation."""

    __slots__ = ()

    def __new__(cls, base: tuple[tuple[int, ...], ...], top: tuple[int, ...]):
        self = super().__new__(cls, base, top)
        if len(base) != len(top):
            raise ValueError("need one base permutation per top point")
        if base and len({len(h) for h in base}) != 1:
            raise ValueError("base permutations must act on a common set")
        if any(sorted(p) != list(range(len(p))) for p in (top, *base)):
            raise ValueError(f"a base or top tuple of {self} is not a permutation")
        return self


def to_permutation(w: WreathElement, m: int, n: int) -> tuple[int, ...]:
    """The permutation of the mn points (i, j) = j*m + i induced by w."""
    if len(w.top) != n or (w.base and len(w.base[0]) != m):
        raise ValueError("element dimensions do not match m, n")
    return _image(w.base, w.top, m)


def _image(base, top, m: int) -> tuple[int, ...]:
    # point j*m + i goes to g(j)*m + h_g(j)(i)
    return tuple(jj * m + x for jj in top for x in base[jj])


def _along(base, cyc: tuple[int, ...]) -> tuple[int, ...]:
    # h_(x_s) ... h_(x_1) along the cycle (x_1, ..., x_s) of the top
    return reduce(lambda acc, x: compose(base[x], acc), cyc, identity(len(base[0])))


def tilde_theta_value(theta, w: WreathElement) -> int:
    """Value at w of the extension of theta to the wreath product."""
    if w.base and len(w.base[0]) != theta.degree:
        raise ValueError("theta must be a class function on the base group")
    return _tilde_theta(theta, w.base, cycles(w.top))


def _tilde_theta(theta, base, top_cycles: list[tuple[int, ...]]) -> int:
    return prod(theta(cycle_type_of(_along(base, cyc))) for cyc in top_cycles)


def omega(shape: SkewPartition, m: int, n: int, alpha) -> int:
    """Value of the restricted skew character at a base-only class.

    An element with a single base permutation of cycle type alpha, all
    other coordinates trivial and an n-cycle on top has cycle type
    n * alpha on the mn points, so this is just a strip count.
    """
    alpha = Partition(alpha)
    if alpha.size != m or shape.size != m * n:
        raise ValueError("need |alpha| = m and |shape| = m * n")
    return mn_value(shape, Partition(n * p for p in alpha))


def oracle_defres(
    shape: SkewPartition,
    theta,
    n: int,
    g: tuple[int, ...],
    budget: int = DEFAULT_BUDGET,
    naive: bool = False,
) -> int:
    """Average psi * tilde_theta over the base group, psi the skew character.

    ``g`` is the top permutation (a tuple of images on {0..n-1}).  The
    result is asserted to be an integer: it is the value at g of a virtual
    character of S_n.
    """
    m = theta.degree
    if len(g) != n:
        raise ValueError("g must be a permutation of n points")
    if shape.size != m * n:
        raise ValueError(f"|{shape}| = {shape.size} must equal m * n = {m * n}")
    if naive:
        return _oracle_naive(shape, theta, n, g, budget)
    lengths = _cycle_lengths(tuple(g))
    classes = len(partitions_of(m))
    needed = prod(comb(classes + k - 1, k) for _, k in lengths)
    if needed > budget:
        raise BudgetExceeded(
            f"grouped oracle needs {needed} class multisets, budget {budget}"
        )
    outer, inner = shape
    total = sum(w * _mn(outer, inner, parts) for w, parts in _expansion(theta, lengths))
    order = factorial(m) ** sum(k for _, k in lengths)
    assert total % order == 0, "oracle average is not integral"
    return total // order


@cache
def _cycle_lengths(g: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    # g's (cycle length, count) pairs, lengths ascending; cycles validates g
    return tuple(sorted(Counter(map(len, cycles(g))).items()))


@cache
def _expansion(theta, lengths) -> tuple[tuple[int, tuple[int, ...]], ...]:
    m = theta.degree
    # |beta| * theta(beta), |beta| = m! / z_beta the size of the class
    weight = {b: factorial(m) // centralizer_order(b) * theta(b) for b in partitions_of(m)}
    live = [b for b in weight if weight[b]]
    terms = {(): 1}
    for s, k in lengths:
        merged = Counter()
        for multiset in combinations_with_replacement(live, k):
            w = factorial(k) // prod(map(factorial, Counter(multiset).values()))
            w *= prod(weight[b] for b in multiset)
            cycles_s = tuple(s * p for b in multiset for p in b)
            for parts, v in terms.items():
                merged[tuple(sorted(parts + cycles_s, reverse=True))] += w * v
        terms = {parts: w for parts, w in merged.items() if w}
    return tuple((w, parts) for parts, w in terms.items())


def _oracle_naive(shape, theta, n, g, budget):
    m = theta.degree
    if factorial(m) ** n > budget:
        raise BudgetExceeded(
            f"naive oracle needs {factorial(m) ** n} evaluations, budget {budget}"
        )
    top_cycles = cycles(tuple(g))  # read once, and validates g
    total = 0
    for base in product(list(all_permutations(m)), repeat=n):
        psi = mn_value(shape, cycle_type_of(_image(base, g, m)))
        if psi:
            total += psi * _tilde_theta(theta, base, top_cycles)
    assert total % factorial(m) ** n == 0, "oracle average is not integral"
    return total // factorial(m) ** n
