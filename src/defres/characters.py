"""Exact class functions on symmetric groups.

A class function on S_r is the tuple ``(r, values)``, its integers listed
over the partitions of r in ``partitions_of`` order.  Skew characters are
obtained from the signed strip-count recursion in
:mod:`defres.borderstrips`, and an irreducible character is the skew
character of a straight shape.

``induced_value`` induces from a Young subgroup S_l0 x S_l1 x ... by the
standard formula, in integers: a permutation g fixes a coset exactly when
its cycles can be split between the factors, each factor receiving whole
cycles whose lengths sum to its degree, and each split contributes the
product of the factor characters at the cycle types they received, times
the number of ways to pick which cycles of each length go where.  One loop
over the factors carries the summed weight of each multiset of cycles not
yet placed: a factor takes every sub-multiset whose lengths sum to its
degree, and equal leftovers merge, so nothing recurses per factor.

``lr_fillings`` takes the multiplicity of an irreducible in a product of
skew characters by counting Littlewood-Richardson fillings, in integers
and without class functions; it is the only place that does, serving
``lr_coefficient`` and the single-cycle step of :mod:`defres.deflation`
alike.  ``inner_product`` over the classes stays as the independent check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb
from operator import itemgetter

from .borderstrips import mn_value
from .partitions import (
    Partition,
    SkewPartition,
    centralizer_order,
    partitions_of,
)


class ClassFunction(tuple):
    """An integer-valued class function on S_r, r = ``degree``.

    The pair ``(degree, values)``, values in ``partitions_of`` order; it
    equals and hashes like that plain pair.  The constructor takes one
    integer per partition of r, keyed by partitions or the equal tuples.
    """

    __slots__ = ()

    degree = property(itemgetter(0), doc="The degree r of S_r.")

    def __new__(cls, degree: int, values: dict):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        table = {Partition(a): int(v) for a, v in values.items()}
        index = _class_index(degree)
        if table.keys() != index.keys():
            raise ValueError(f"values must cover the classes of S_{degree} exactly")
        return super().__new__(cls, (degree, tuple(table[a] for a in index)))

    def __getnewargs__(self) -> tuple[int, dict]:
        # copy and pickle call cls(degree, values), not cls((degree, values))
        return self.degree, self.values

    @property
    def values(self) -> dict:
        return dict(zip(_class_index(self.degree), self[1]))

    def __call__(self, alpha) -> int:
        degree, values = self
        index = _class_index(degree)
        try:
            return values[index[alpha]]
        except (KeyError, TypeError):  # not hashed as a class: normalize
            alpha = Partition(alpha)
        try:
            return values[index[alpha]]
        except KeyError:
            raise ValueError(f"{alpha} is not a class of S_{degree}") from None

    @classmethod
    def trivial(cls, r: int) -> "ClassFunction":
        return cls(r, {a: 1 for a in partitions_of(r)})

    @classmethod
    def sign(cls, r: int) -> "ClassFunction":
        return cls(r, {a: (-1) ** (r - len(a)) for a in partitions_of(r)})

    def __repr__(self) -> str:
        table = {tuple(a): v for a, v in self.values.items()}
        return f"ClassFunction({self.degree}, {table!r})"


@cache
def _class_index(degree: int) -> dict[Partition, int]:
    return {a: i for i, a in enumerate(partitions_of(degree))}


@cache
def irreducible_character(lam) -> ClassFunction:
    """The irreducible character of S_r labelled by the partition lam."""
    return skew_character(SkewPartition(lam))


@cache
def skew_character(shape: SkewPartition) -> ClassFunction:
    """The skew character of the given shape, as a class function."""
    return ClassFunction(
        shape.size, {a: mn_value(shape, a) for a in partitions_of(shape.size)}
    )


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """The usual normalized inner product of class functions."""
    if f.degree != g.degree:
        raise ValueError("class functions live on different groups")
    return sum(
        Fraction(f(a) * g(a), centralizer_order(a))
        for a in partitions_of(f.degree)
    )


@cache
def _induced(thetas: tuple[ClassFunction, ...], alpha: tuple[int, ...]) -> int:
    # the weight of each multiset of cycles not yet placed, factor by factor
    left = {alpha: 1}
    for th in thetas:
        placed: dict[tuple[int, ...], int] = {}
        for cycles, weight in left.items():
            for taken, kept, ways in _splits(cycles, th.degree):
                value = th(taken)
                if value:
                    placed[kept] = placed.get(kept, 0) + weight * ways * value
        left = placed
    return left.get((), 0)


def _splits(cycles: tuple[int, ...], d: int) -> list[tuple[tuple, tuple, int]]:
    # (taken, kept, ways): each sub-multiset of the descending cycle lengths
    # summing to d, the rest, and the number of ways to pick the taken cycles
    partial = [((), (), 0, 1)]
    for length, count in Counter(cycles).items():
        partial = [
            (taken + (length,) * k, kept + (length,) * (count - k),
             size + k * length, ways * comb(count, k))
            for taken, kept, size, ways in partial
            for k in range(min(count, (d - size) // length) + 1)
        ]
    return [(taken, kept, ways) for taken, kept, size, ways in partial if size == d]


def induced_value(thetas, alpha) -> int:
    """Value at cycle type alpha of the induced character Ind(theta_0 x ...).

    ``thetas`` are class functions on S_l0, S_l1, ..., and the induction is
    from the Young subgroup S_l0 x S_l1 x ... to S_r, r = l0 + l1 + ....
    """
    thetas = tuple(thetas)
    alpha = Partition(alpha)
    if sum(th.degree for th in thetas) != alpha.size:
        raise ValueError(
            f"factor degrees must sum to |alpha| = {alpha.size}"
        )
    return _induced(thetas, alpha)


def lr_coefficient(kappa, factors) -> int:
    """Multiplicity of the irreducible kappa in Ind(nu_0 x nu_1 x ...).

    For two factors this is the Littlewood-Richardson coefficient; in
    general it is the multiplicity in a product of several Schur functions.
    """
    kappa = Partition(kappa)
    factors = tuple(Partition(f) for f in factors)
    if sum(f.size for f in factors) != kappa.size:
        raise ValueError("factor sizes must sum to |kappa|")
    return lr_fillings([(f, ()) for f in factors], kappa)


def lr_fillings(shapes, kappa) -> int:
    """Littlewood-Richardson fillings of content kappa of a direct sum.

    The skew shapes ``(outer, inner)`` are stacked corner to corner; the
    count is the multiplicity of chi^kappa in the product of their skew
    characters (Macdonald, I.9).  A filling is read in reverse reading
    order, rows weakly increasing, columns strictly increasing, and every
    prefix of the word read is a lattice word.  Shapes whose sizes do not
    sum to |kappa| have none.
    """
    # cells in reading order: each shape in turn, its rows from the top,
    # each right to left; a cell holds the earlier cells to its right and
    # above it, or -1.  Corner stacking puts no cell above another shape's.
    cells: list[tuple[int, int]] = []
    for outer, inner in shapes:
        above: dict[int, int] = {}
        for r, end in enumerate(outer):
            start = inner[r] if r < len(inner) else 0
            row, right = {}, -1
            for col in range(end - 1, start - 1, -1):
                cells.append((right, above.get(col, -1)))
                right = row[col] = len(cells) - 1
            above = row
    if len(cells) != sum(kappa):
        return 0
    counts = [0] * len(kappa)
    filling = [0] * len(cells)

    def fill(i: int) -> int:
        if i == len(cells):
            return 1
        right, up = cells[i]
        lo = filling[up] + 1 if up >= 0 else 0
        hi = filling[right] if right >= 0 else len(kappa) - 1
        total = 0
        for x in range(lo, hi + 1):
            if counts[x] < kappa[x] and (x == 0 or counts[x - 1] > counts[x]):
                counts[x] += 1
                filling[i] = x
                total += fill(i + 1)
                counts[x] -= 1
        return total

    return fill(0)

