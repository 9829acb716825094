"""Partitions, skew shapes, compositions, and their elementary arithmetic.

Everything downstream (border strips, the abacus, characters, the deflation
evaluators) works with the immutable shape types defined here.  A
``Partition`` or ``Composition`` is a tuple of its parts, so the memoized
recursions key on them directly and accept plain tuples alike.  All
arithmetic is exact; values are Python integers throughout.

Text grammar, shared with the CLI: parts are comma separated ("6,5,3,2"),
the empty partition is written "-", and a skew shape is "outer/inner"
("6,5,3,2/3,1").  A skew with no "/" has an empty inner shape.

Canonical orders are fixed so enumerations are reproducible:

* ``partitions_of(r)`` lists partitions in reverse-lexicographic order,
  e.g. (4), (3,1), (2,2), (2,1,1), (1,1,1,1);
* ``intermediates(shape, c)`` lists partitions in descending
  lexicographic order.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from operator import le
from typing import Iterable, Iterator, NamedTuple


class Box(NamedTuple):
    """A cell of a Young diagram; rows and columns are indexed from 1."""

    row: int
    col: int


def _normalize(parts: Iterable[int]) -> tuple[int, ...]:
    t = tuple(int(x) for x in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    # the diagram of inner sits inside that of outer; both without zero parts
    return len(inner) <= len(outer) and all(map(le, inner, outer))


class _Parts(tuple):
    # what partitions and compositions share: each is the tuple of its parts

    __slots__ = ()

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a plain tuple."""
        return tuple(self)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self) if self else "-"


class Partition(_Parts):
    """A weakly decreasing tuple of positive integers.

    A partition is the tuple of its parts: ``Partition((2, 1)) == (2, 1)``
    with equal hashes, so a plain tuple of parts serves wherever a partition
    is compared, hashed or looked up.  Trailing zeros are stripped on
    construction, so every partition has a unique representation; the empty
    partition is ``Partition()``.  Constructing from a partition returns it.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if isinstance(parts, cls):
            return parts
        t = _normalize(parts)
        if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {t}")
        if t and t[-1] < 0:
            raise ValueError(f"parts must be non-negative: {t}")
        return super().__new__(cls, t)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed); 0 beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def contains(self, other: "Partition") -> bool:
        return _contains(self, Partition(other))

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: column lengths become row lengths."""
        if not self:
            return Partition()
        cols = self[0]
        return Partition(
            sum(1 for p in self if p >= c) for c in range(1, cols + 1)
        )

    def boxes(self) -> Iterator[Box]:
        for r, p in enumerate(self, start=1):
            for c in range(1, p + 1):
                yield Box(r, c)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if text == "-":
            return cls()
        if not text:
            raise ValueError("empty partition text; write '-' for the empty partition")
        try:
            parts = [int(x) for x in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse partition {text!r}") from None
        return cls(parts)


class SkewPartition:
    """A pair of nested partitions outer/inner; the shape is their difference."""

    __slots__ = ("outer", "inner")

    outer: Partition
    inner: Partition

    def __init__(self, outer, inner=()):
        outer = Partition(outer)
        inner = Partition(inner)
        if not _contains(outer, inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, name, value):
        raise AttributeError("SkewPartition is immutable")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def boxes(self) -> Iterator[Box]:
        for r in range(1, len(self.outer) + 1):
            for c in range(self.inner.part(r) + 1, self.outer.part(r) + 1):
                yield Box(r, c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPartition)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash(("SkewPartition", self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewPartition({tuple(self.outer)!r}, {tuple(self.inner)!r})"

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"

    @classmethod
    def parse(cls, text: str) -> "SkewPartition":
        text = text.strip()
        if "/" in text:
            outer_text, inner_text = text.split("/", 1)
            return cls(Partition.parse(outer_text), Partition.parse(inner_text))
        return cls(Partition.parse(text), Partition())


class Composition(_Parts):
    """A finite sequence of positive integers; the order is significant.

    Like a partition, a composition is the tuple of its parts:
    ``Composition((2, 1)) == Partition((2, 1)) == (2, 1)`` with equal
    hashes.  Constructing from a composition returns it.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if isinstance(parts, cls):
            return parts
        t = tuple(int(x) for x in parts)
        if any(p <= 0 for p in t):
            raise ValueError(f"composition parts must be positive: {t}")
        return super().__new__(cls, t)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        text = text.strip()
        if text == "-":
            return cls()
        try:
            parts = [int(x) for x in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse composition {text!r}") from None
        return cls(parts)


def contains(outer, inner) -> bool:
    """True when the diagram of inner sits inside the diagram of outer."""
    return _contains(Partition(outer), Partition(inner))


def conjugate(p) -> Partition:
    return Partition(p).conjugate()


@cache
def _partition_tuples(r: int, max_part: int) -> tuple[Partition, ...]:
    if r == 0:
        return (Partition(),)
    out = []
    for first in range(min(r, max_part), 0, -1):
        for rest in _partition_tuples(r - first, first):
            out.append(Partition((first,) + rest))
    return tuple(out)


def partitions_of(r: int) -> list[Partition]:
    """All partitions of r, in reverse-lexicographic order."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return list(_partition_tuples(r, r if r else 1))


def intermediates(shape: SkewPartition, c: int) -> list[Partition]:
    """Partitions tau with inner <= tau <= outer and |tau| = |inner| + c.

    Listed in descending lexicographic order.  Used to split a skew shape
    into a lower and an upper half along every possible waistline.
    """
    if c < 0 or c > shape.size:
        return []
    outer = shape.outer
    rows = len(outer)
    inner = tuple(shape.inner.part(i + 1) for i in range(rows))
    target = shape.inner.size + c
    # min_tail[i] / max_tail[i]: attainable totals from rows i..rows-1
    min_tail = [0] * (rows + 1)
    max_tail = [0] * (rows + 1)
    for i in range(rows - 1, -1, -1):
        min_tail[i] = min_tail[i + 1] + inner[i]
        max_tail[i] = max_tail[i + 1] + outer[i]
    found: list[Partition] = []

    def rec(i: int, prev: int, total: int, acc: list[int]) -> None:
        if total + min_tail[i] > target or total + max_tail[i] < target:
            return
        if i == rows:
            found.append(Partition(acc))
            return
        hi = min(outer[i], prev)
        for part in range(hi, inner[i] - 1, -1):
            acc.append(part)
            rec(i + 1, part, total + part, acc)
            acc.pop()

    rec(0, outer[0] if rows else 0, 0, [])
    return found


def skew_shapes(total: int, inner_max: int) -> Iterator[SkewPartition]:
    """All skew shapes with ``total`` boxes and at most ``inner_max`` inner boxes.

    Sweeps inner size 0..inner_max; within a size, outer then inner run in
    reverse-lexicographic order.  The workhorse behind the verification
    sweeps.
    """
    if total < 0 or inner_max < 0:
        raise ValueError("sizes must be non-negative")
    for b in range(inner_max + 1):
        for outer in partitions_of(total + b):
            for inner in partitions_of(b):
                if outer.contains(inner):
                    yield SkewPartition(outer, inner)


def centralizer_order(alpha) -> int:
    """Order of the centralizer of a permutation of cycle type alpha.

    For alpha with m_i parts equal to i this is prod_i i**m_i * m_i!.
    """
    alpha = Partition(alpha)
    mult: dict[int, int] = {}
    for p in alpha:
        mult[p] = mult.get(p, 0) + 1
    out = 1
    for i, m in mult.items():
        out *= i**m * factorial(m)
    return out


def stretch(alpha, n: int) -> Partition:
    """Multiply every part of alpha by n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Partition(n * p for p in Partition(alpha))


def repeat_parts(gamma, m: int) -> Composition:
    """Repeat each part of gamma m times in place: (3,1) -> (3,3,1,1) for m=2."""
    if m < 1:
        raise ValueError("m must be at least 1")
    out: list[int] = []
    for p in Composition(gamma):
        out.extend([p] * m)
    return Composition(out)
