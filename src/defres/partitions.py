"""Partitions, skew shapes, compositions, and their elementary arithmetic.

Everything downstream (border strips, the abacus, characters, the deflation
evaluators) works with the immutable shape types defined here, and every
one of them is a tuple that equals and hashes like its plain form.  A
``Composition`` is the tuple of its parts, and a ``Partition`` is a
composition whose parts weakly decrease; a ``SkewPartition`` is the pair
``(outer, inner)`` of partitions, a ``_record``: the namedtuple base of
every validated record in the package, whose ``_make`` and ``_replace``
validate like its constructor.  The memoized recursions key on shapes as
they are and accept the plain tuples alike; copies and pickles round-trip.
Arithmetic is exact, in integers; a non-integer part raises ``TypeError``.

Text grammar, shared with the CLI: parts are comma separated ("6,5,3,2"),
the empty partition is written "-", and a skew shape is "outer/inner"
("6,5,3,2/3,1").  A skew with no "/" has an empty inner shape.

Canonical orders are fixed so enumerations are reproducible:

* ``partitions_of(r)`` lists partitions in reverse-lexicographic order,
  e.g. (4), (3,1), (2,2), (2,1,1), (1,1,1,1);
* ``intermediates(shape, c)`` lists partitions in descending
  lexicographic order.

``_skew_key``, a skew character's sorted connected components, keys the
abacus cut table and the deflation memo alike.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import zip_longest
from math import factorial
from operator import index, le
from typing import Iterable, Iterator


def _normalize(parts: Iterable[int]) -> tuple[int, ...]:
    t = tuple(map(index, parts))
    end = len(t)
    while end and t[end - 1] == 0:
        end -= 1
    return t[:end]


def _contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    # the diagram of inner sits inside that of outer; both without zero parts
    return len(inner) <= len(outer) and all(map(le, inner, outer))


class Composition(tuple):
    """A finite sequence of positive integers; the order is significant.

    A composition is the tuple of its parts: ``Composition((2, 1)) == (2, 1)``
    with equal hashes.  A partition is a composition, so constructing a
    composition from a partition, or from a composition, returns it.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if isinstance(parts, cls):
            return parts
        t = tuple(map(index, parts))
        if any(p <= 0 for p in t):
            raise ValueError(f"composition parts must be positive: {t}")
        return super().__new__(cls, t)

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a plain tuple."""
        return tuple(self)

    size = property(sum, doc="The sum of the parts.")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self) if self else "-"

    @classmethod
    def parse(cls, text: str):
        """Comma separated parts; "-" is the empty one."""
        name = cls.__name__.lower()
        text = text.strip()
        if text == "-":
            return cls()
        if not text:
            raise ValueError(f"empty {name} text; write '-' for the empty {name}")
        try:
            parts = [int(x) for x in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse {name} {text!r}") from None
        return cls(parts)


class Partition(Composition):
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
        return tuple.__new__(cls, t)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed); 0 beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def contains(self, other: "Partition") -> bool:
        return _contains(self, Partition(other))

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: column lengths become row lengths."""
        cols = range(1, self[0] + 1) if self else ()
        return tuple.__new__(Partition, [sum(1 for p in self if p >= c) for c in cols])


def _record(name: str, fields: str) -> type:
    # _make, and with it _replace, goes through the subclass's validating __new__
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class SkewPartition(_record("SkewPartition", "outer inner")):
    """A pair of nested partitions outer/inner; the shape is their difference.

    A skew shape is the pair ``(outer, inner)``:
    ``SkewPartition((3, 2), (1,)) == ((3, 2), (1,))`` with equal hashes, so
    the memoized recursions key on skew shapes as they are.
    """

    __slots__ = ()

    def __new__(cls, outer, inner=()):
        outer = Partition(outer)
        inner = Partition(inner)
        if not _contains(outer, inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        return super().__new__(cls, outer, inner)

    @property
    def size(self) -> int:
        outer, inner = self
        return sum(outer) - sum(inner)

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
    into a lower and an upper half along every possible waistline.  The
    shape may also be the equal plain pair of partitions (outer, inner),
    inner padded with zero parts to at most outer's length.
    """
    outer, inner = shape
    target = sum(inner) + c
    if c < 0 or target > sum(outer):
        return []
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    # prefixes row by row, in descending lexicographic order, with the boxes
    # still to place; a part lies between inner's and outer's, at most the
    # one above.  The lower it is, the more the rows below must take and the
    # less they hold, so the parts that fit form one interval: start where
    # the rows below keep their inner boxes, stop where they overflow
    low, high = sum(inner), sum(outer)
    found = [((), target)]
    for i, (lo, hi) in enumerate(zip(inner, outer)):
        low, high = low - lo, high - hi
        rows = len(outer) - i
        grown = []
        for prefix, rest in found:
            top = prefix[-1] if prefix and prefix[-1] < hi else hi
            for part in range(top if top < rest - low else rest - low, lo - 1, -1):
                if rest - part > high or rest > rows * part:
                    break
                grown.append((prefix + (part,), rest - part))
        found = grown
    # a partition inside outer already: drop the empty rows only
    return [tuple.__new__(Partition, filter(None, prefix)) for prefix, _ in found]


def _skew_key(outer, inner) -> tuple:
    # The skew character of outer/inner as its sorted connected components.
    # A component is the (start, end) columns of its rows, shifted so that
    # its last row starts at column 0, or its 180 degree rotation if that is
    # smaller.  Non-empty rows touch iff the upper starts before the lower ends.
    comps = []
    rows: list[tuple[int, int]] = []
    for end, start in zip_longest(outer, inner, fillvalue=0):
        if start == end:
            continue
        if rows and rows[-1][0] >= end:
            comps.append(_canonical(rows))
            rows = []
        rows.append((start, end))
    if rows:
        comps.append(_canonical(rows))
    comps.sort()
    return tuple(comps)


def _canonical(rows: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    if len(rows) == 1:  # a row is its own rotation
        return ((0, rows[0][1] - rows[0][0]),)
    z = rows[-1][0]
    w = rows[0][1] - z
    shifted = tuple([(s - z, e - z) for s, e in rows])
    rotated = tuple([(w - e, w - s) for s, e in reversed(shifted)])
    return shifted if shifted <= rotated else rotated


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
    # gamma validated, so every repeated part is positive
    return tuple.__new__(Composition, [p for p in Composition(gamma) for _ in range(m)])
