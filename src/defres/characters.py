"""Exact class functions on symmetric groups.

A class function on S_r is a table of integers indexed by the partitions
of r.  Skew characters are obtained from the signed strip-count recursion
in :mod:`defres.borderstrips`, and an irreducible character is the skew
character of a straight shape.  Induction from a Young subgroup
S_l0 x S_l1 x ... is evaluated directly by distributing whole cycles over
the factors, which keeps everything in integer arithmetic.

``induced_value`` implements the standard formula: a permutation g fixes a
coset of the Young subgroup exactly when its cycles can be split between
the factors, each factor receiving full cycles whose lengths sum to its
degree, and each such split contributes the product of the factor
characters at the cycle types it received, weighted by the number of ways
to pick which cycles of each length go where.

``_multiplicity`` takes the multiplicity of an irreducible in such an
induced character, by the inner product over the classes; it is the only
place that does, serving ``lr_coefficient`` and the quotient evaluators of
:mod:`defres.deflation` alike.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import comb

from .borderstrips import mn_value
from .partitions import (
    Partition,
    SkewPartition,
    centralizer_order,
    intermediates,
    partitions_of,
)


class ClassFunction:
    """An integer-valued class function on S_r, r = ``degree``.

    ``values`` must provide one integer per partition of r, keyed by
    partitions or by the equal plain tuples.  Instances are hashable and
    must not be mutated after construction.
    """

    __slots__ = ("degree", "values", "_key")

    def __init__(self, degree: int, values: dict):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        table = {Partition(a): int(v) for a, v in values.items()}
        if table.keys() != set(partitions_of(degree)):
            raise ValueError(f"values must cover the classes of S_{degree} exactly")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "values", table)
        object.__setattr__(self, "_key", (degree, tuple(sorted(table.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("ClassFunction is immutable")

    def __call__(self, alpha) -> int:
        try:
            return self.values[alpha]
        except (KeyError, TypeError):  # not hashed as a class: normalize
            alpha = Partition(alpha)
        try:
            return self.values[alpha]
        except KeyError:
            raise ValueError(
                f"{alpha} is not a class of S_{self.degree}"
            ) from None

    @classmethod
    def trivial(cls, r: int) -> "ClassFunction":
        return cls(r, {a: 1 for a in partitions_of(r)})

    @classmethod
    def sign(cls, r: int) -> "ClassFunction":
        return cls(r, {a: (-1) ** (r - len(a)) for a in partitions_of(r)})

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassFunction) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"ClassFunction({self.degree}, {{...{len(self.values)} classes}})"


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
    rows = [th.degree for th in thetas]
    nrows = len(rows)
    items = sorted(Counter(alpha).items(), reverse=True)
    caps = rows[:]
    types: list[list[int]] = [[] for _ in range(nrows)]
    total = 0

    def leaf(weight: int) -> int:
        if any(c != 0 for c in caps):
            return 0
        v = weight
        for th, tp in zip(thetas, types):
            if v == 0:
                break
            v *= th(tuple(sorted(tp, reverse=True)))
        return v

    def place(idx: int, weight: int) -> None:
        nonlocal total
        if idx == len(items):
            total += leaf(weight)
            return
        length, count = items[idx]

        def spread(i: int, remaining: int, w: int) -> None:
            if i == nrows - 1:
                if remaining * length <= caps[i]:
                    caps[i] -= remaining * length
                    types[i].extend([length] * remaining)
                    place(idx + 1, w)
                    del types[i][len(types[i]) - remaining :]
                    caps[i] += remaining * length
                return
            for k in range(min(remaining, caps[i] // length) + 1):
                caps[i] -= k * length
                types[i].extend([length] * k)
                spread(i + 1, remaining - k, w * comb(remaining, k))
                del types[i][len(types[i]) - k :]
                caps[i] += k * length

        spread(0, count, weight)

    place(0, 1)
    return total


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
    thetas = tuple(irreducible_character(f) for f in factors)
    return _multiplicity(irreducible_character(kappa), partial(_induced, thetas))


def _multiplicity(chi: ClassFunction, induced) -> int:
    # <chi, psi> for a character psi with psi(a) = induced(a), an integer
    # since chi is irreducible
    total = sum(
        Fraction(induced(a) * chi(a), centralizer_order(a))
        for a in partitions_of(chi.degree)
    )
    assert total.denominator == 1, "induced character decomposition not integral"
    return int(total)


def skew_restriction(shape: SkewPartition, c: int) -> list[tuple[SkewPartition, SkewPartition]]:
    """Split a skew character along S_c x S_(r-c).

    Returns the pairs (tau/mu, lambda/tau) over all tau between the inner
    and outer shapes with |tau/mu| = c; restricting the skew character of
    lambda/mu to the Young subgroup gives the sum of the products of the
    pairs' characters.
    """
    if not 0 <= c <= shape.size:
        raise ValueError(f"c must lie between 0 and {shape.size}")
    return [
        (SkewPartition(tau, shape.inner), SkewPartition(shape.outer, tau))
        for tau in intermediates(shape, c)
    ]
