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
default path groups base tuples by the classes of their cycle products and
is exact and fast; the naive path literally sums over all (m!)^n base
tuples and exists purely as an independent check, guarded by a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import factorial

from .borderstrips import mn_value
from .partitions import Partition, SkewPartition, centralizer_order, partitions_of
from .perms import all_permutations, compose, cycle_type_of, cycles, identity

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when the naive oracle would exceed its evaluation budget."""


@dataclass(frozen=True)
class WreathElement:
    """A base tuple of permutations of {0..m-1} and a top permutation."""

    base: tuple[tuple[int, ...], ...]
    top: tuple[int, ...]

    def __post_init__(self):
        if len(self.base) != len(self.top):
            raise ValueError("need one base permutation per top point")
        if self.base and len({len(h) for h in self.base}) != 1:
            raise ValueError("base permutations must act on a common set")


def to_permutation(w: WreathElement, m: int, n: int) -> tuple[int, ...]:
    """The permutation of the mn points (i, j) = j*m + i induced by w."""
    if len(w.top) != n or (w.base and len(w.base[0]) != m):
        raise ValueError("element dimensions do not match m, n")
    img = [0] * (m * n)
    for j in range(n):
        jj = w.top[j]
        h = w.base[jj]
        for i in range(m):
            img[j * m + i] = jj * m + h[i]
    return tuple(img)


def cycle_type(w: WreathElement) -> Partition:
    m = len(w.base[0]) if w.base else 0
    return cycle_type_of(to_permutation(w, m, len(w.top)))


def cycle_products(w: WreathElement) -> list[tuple[tuple[int, ...], int]]:
    """(product of base permutations along the cycle, cycle length) pairs."""
    out = []
    for cyc in cycles(w.top):
        prod = reduce(lambda acc, x: compose(w.base[x], acc), cyc, identity(len(w.base[0])))
        out.append((prod, len(cyc)))
    return out


def tilde_theta_value(theta, w: WreathElement) -> int:
    """Value at w of the extension of theta to the wreath product."""
    if w.base and len(w.base[0]) != theta.degree:
        raise ValueError("theta must be a class function on the base group")
    value = 1
    for prod, _ in cycle_products(w):
        value *= theta(cycle_type_of(prod))
    return value


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
    total = Fraction(0)
    lengths = [len(c) for c in cycles(g)]
    classes = partitions_of(m)
    for assignment in product(classes, repeat=len(lengths)):
        weight = Fraction(1)
        for beta in assignment:
            weight *= Fraction(theta(beta), centralizer_order(beta))
        if weight == 0:
            continue
        parts = []
        for beta, s in zip(assignment, lengths):
            parts.extend(s * p for p in beta)
        total += weight * mn_value(shape, sorted(parts, reverse=True))
    assert total.denominator == 1, "oracle average is not integral"
    return int(total)


def _oracle_naive(shape, theta, n, g, budget):
    m = theta.degree
    if factorial(m) ** n > budget:
        raise BudgetExceeded(
            f"naive oracle needs {factorial(m) ** n} evaluations, budget {budget}"
        )
    total = 0
    for base in product(list(all_permutations(m)), repeat=n):
        w = WreathElement(base, tuple(g))
        psi = mn_value(shape, cycle_type(w))
        if psi:
            total += psi * tilde_theta_value(theta, w)
    assert total % factorial(m) ** n == 0, "oracle average is not integral"
    return total // factorial(m) ** n
