"""Border strips, strip tableaux, and the signed enumeration rules.

A border strip is an edge-connected skew shape containing no 2x2 square.
A border-strip tableau of shape lambda/mu and type gamma is a chain

    mu = l0 < l1 < ... < lk = lambda

where each step li/l(i-1) is a border strip of gamma_i boxes; the boxes of
that strip carry the label i.  Removing a strip is a single bead move on
a beta-set: a bead moving c places up past h beads removes a strip of
height h, each part passed moves one row and loses one box, and the moved
part moves h rows and loses c - h.  One memoised walk lists the strips of
c boxes that a shape loses, each new shape tau sliced out of the parts
tuple with the strip's height and top row; the table of strips a shape
gains is derived from that walk, and no program path reads it.

Three derived quantities matter:

* ``mn_value(shape, gamma)`` -- the signed count of all border-strip
  tableaux, the value of the skew character of lambda/mu at cycle type gamma.
* ``enumerate_m_bst(shape, m, gamma)`` -- tableaux of type gamma with each
  part repeated m times whose topmost occupied rows weakly decrease as the
  label increases through each block of m equal labels; for m = 1 the
  block condition is vacuous and these are all border-strip tableaux.
* ``a_coefficient(shape, m, gamma)`` -- the signed count of those.

Each walk reads the outer shape's table in its order, tau descending (the
top row strictly descending), and recurses on tau.  The enumerations take
the last label first and stop at the first strip above their row floor;
``mn_value`` has no floor and peels the largest strip first.  A strip
changes only rows top_row .. top_row + height, so tau contains the inner
shape when top_row > len(inner); only the other strips are tested.  A
tableau is the tuple ``(chain, labels)``: its constructor looks each step
up in the table, the listing builds its tableaux from the walk, and sign
and type are read off the chain rows: a step adds sum(hi) - sum(lo) boxes,
and its height is the number of rows it changes, less one.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from operator import itemgetter, ne
from typing import Iterator, NamedTuple

from .partitions import (
    Composition, Partition, SkewPartition, _contains, intermediates, repeat_parts,
)


# ---------------------------------------------------------------------------
# the strip tables


_Strips = tuple[tuple[Partition, int, int], ...]  # (tau, height, top_row)


@cache
def _strip_removals(nu: tuple[int, ...], c: int) -> _Strips:
    """The strips of c boxes that nu loses, tau descending."""
    # Row r's bead sits at p[r] + n - 1 - r, decreasing down the rows.
    # Moving it up c places, to the empty position t, removes a strip whose
    # height is the beads it passes, those of rows r+1..s (s the last row
    # whose bead lies above t); its top row is r + 1 and
    #   tau = p[:r] + (p[r+1..s] each - 1) + (new,) + p[s+1:]
    # Walking the rows up gives tau descending.
    if c < 1:
        return ()
    p = tuple(nu)  # exact tuples index faster than the Partition key
    n = len(p)
    dec = tuple([x - 1 for x in p])
    asc = [part + i for i, part in enumerate(reversed(p))]  # row n-1-i's bead
    out = []
    for r in range(n - 1, -1, -1):
        t = p[r] + n - 1 - r - c
        i = bisect_left(asc, t)
        if t < 0 or asc[i] == t:
            continue
        s = n - 1 - i
        new = p[r] - c + s - r
        tau = p[:r] + dec[r + 1 : s + 1] + (new,) + p[s + 1 :]
        if not new:  # s is the last row: cut the emptied rows
            tau = tau[: tau.index(0)]
        out.append((tuple.__new__(Partition, tau), s - r, r + 1))
    return tuple(out)


@cache
def _strip_additions(mu: tuple[int, ...], c: int) -> _Strips:
    """The strips of c boxes that mu gains, tau descending.

    Read off the removal walk: tau runs over the shapes of c more boxes
    inside mu widened by c columns and c rows.  No program path reads it.
    """
    box = ((mu[0] if mu else 0) + c,) * (len(mu) + c)
    strips = ((tau, _strip(tau, mu)) for tau in intermediates((box, mu), c))
    return tuple((tau, meta.height, meta.row_number) for tau, meta in strips if meta)


# ---------------------------------------------------------------------------
# strip metadata


class StripMeta(NamedTuple):
    length: int
    height: int
    row_number: int


def _strip(hi: tuple[int, ...], lo: tuple[int, ...]) -> StripMeta | None:
    # the metadata of the strip hi/lo, or None when hi/lo is not a strip
    c = sum(hi) - sum(lo)
    for tau, height, top_row in _strip_removals(hi, c):
        if tau == lo:
            return StripMeta(c, height, top_row)
    return None


# ---------------------------------------------------------------------------
# tableaux


class BorderStripTableau(tuple):
    """An increasing chain of partitions with border-strip steps.

    The pair ``(chain, labels)``, equal and hashed like it: ``chain[0]`` is
    the inner shape, ``chain[-1]`` the outer one, and the boxes of
    ``chain[i]/chain[i-1]`` carry ``labels[i-1]`` (by default 1..k).
    The constructor validates every step; ``enumerate_m_bst`` builds its
    tableaux from the strip walk, whose steps are strips by construction.
    """

    __slots__ = ()

    chain = property(itemgetter(0), doc="The partitions, inner shape first.")
    labels = property(itemgetter(1), doc="The label of each strip.")

    def __new__(cls, chain, labels=None):
        chain = tuple(Partition(p) for p in chain)
        if not chain:
            raise ValueError("chain must contain at least the inner shape")
        for lo, hi in zip(chain, chain[1:]):
            if _strip(hi, lo) is None:
                raise ValueError(f"{SkewPartition(hi, lo)} is not a border strip")
        k = len(chain) - 1
        if labels is None:
            labels = tuple(range(1, k + 1))
        else:
            labels = tuple(int(x) for x in labels)
            if len(labels) != k:
                raise ValueError("one label per strip required")
            if any(a >= b for a, b in zip(labels, labels[1:])):
                raise ValueError("labels must strictly increase along the chain")
        return super().__new__(cls, (chain, labels))

    def __getnewargs__(self) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
        # copy and pickle call cls(chain, labels), not cls((chain, labels))
        return tuple(self)

    @property
    def shape(self) -> SkewPartition:
        return SkewPartition(self.chain[-1], self.chain[0])

    @property
    def type(self) -> Composition:
        return Composition(sum(hi) - sum(lo) for lo, hi in zip(self.chain, self.chain[1:]))

    def metas(self) -> tuple[StripMeta, ...]:
        return tuple(_strip(hi, lo) for lo, hi in zip(self.chain, self.chain[1:]))

    @property
    def sign(self) -> int:
        # a step's height is the number of rows it changes, less one
        steps = zip(self.chain, self.chain[1:])
        return (-1) ** sum(len(hi) - len(lo) + sum(map(ne, hi, lo)) - 1 for lo, hi in steps)

    def render(self) -> str:
        """ASCII grid; inner boxes print as ':' and strip boxes as labels."""
        # row r of chain[i] ends where the boxes of labels[i] begin
        cells = [":", *map(str, self.labels)]
        width = max(map(len, cells))
        cells = [cell.rjust(width) for cell in cells]
        rows = []
        for r in range(len(self.chain[-1])):
            row, start = [], 0
            for cell, p in zip(cells, self.chain):
                end = p[r] if r < len(p) else 0
                row += [cell] * (end - start)
                start = end
            rows.append(" ".join(row))
        return "\n".join(rows)

    def __repr__(self) -> str:
        chain = [tuple(p) for p in self.chain]
        if self.labels == tuple(range(1, len(chain))):
            return f"BorderStripTableau({chain!r})"
        return f"BorderStripTableau({chain!r}, labels={self.labels!r})"


# ---------------------------------------------------------------------------
# signed counts


@cache
def _mn(
    outer: tuple[int, ...], inner: tuple[int, ...], gamma: tuple[int, ...]
) -> int:
    if not gamma:
        return 1 if outer == inner else 0
    total, rest, k = 0, gamma[1:], len(inner)
    for tau, height, top_row in _strip_removals(outer, gamma[0]):
        if top_row > k or _contains(tau, inner):
            total += (-1 if height & 1 else 1) * _mn(tau, inner, rest)
    return total


def mn_value(shape: SkewPartition, gamma) -> int:
    """Signed count of border-strip tableaux of the given shape and type.

    Equals the value of the skew character of shape lambda/mu at any
    permutation of cycle type gamma; the result does not depend on the
    order of the parts of gamma, which are peeled largest first.
    """
    gamma = Composition(gamma)
    if gamma.size != shape.size:
        raise ValueError(
            f"type {gamma} must sum to |{shape}| = {shape.size}"
        )
    return _mn(shape.outer, shape.inner, tuple(sorted(gamma, reverse=True)))


def _m_type(shape: SkewPartition, m: int, gamma) -> tuple[int, ...]:
    # the strip lengths of an m-border-strip tableau of type gamma
    type_ = repeat_parts(gamma, m)
    if type_.size != shape.size:
        raise ValueError(
            f"m * |gamma| = {type_.size} must equal |{shape}| = {shape.size}"
        )
    return type_


def _iter_m_chains(
    outer: tuple[int, ...],
    inner: tuple[int, ...],
    type_: tuple[int, ...],
    m: int,
    row_floor: int,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    # row_floor carries the topmost row of the strip just peeled when that
    # strip shares a length block with the current label (0 otherwise):
    # within a block the topmost rows must weakly decrease as the label
    # increases.
    j, k = len(type_), len(inner)
    if j == 0:
        if outer == inner:
            yield (outer,)
        return
    for tau, _, top_row in _strip_removals(outer, type_[-1]):
        if top_row < row_floor:
            break
        if top_row > k or _contains(tau, inner):
            nxt = top_row if (j - 1) % m != 0 else 0
            for chain in _iter_m_chains(tau, inner, type_[:-1], m, nxt):
                yield chain + (outer,)


def enumerate_m_bst(shape: SkewPartition, m: int, gamma) -> list[BorderStripTableau]:
    """All m-border-strip tableaux of shape lambda/mu and type gamma.

    These are ordinary border-strip tableaux of type gamma with each part
    repeated m times, subject to the block condition on topmost rows; for
    m = 1 the condition is vacuous.  Sorted lexicographically on the chain.
    """
    type_ = _m_type(shape, m, gamma)
    chains = sorted(_iter_m_chains(shape.outer, shape.inner, type_, m, 0))
    # each step is a strip by construction and each shape a Partition
    labels = tuple(range(1, len(type_) + 1))
    return [tuple.__new__(BorderStripTableau, (chain, labels)) for chain in chains]


@cache
def _a_count(
    outer: tuple[int, ...],
    inner: tuple[int, ...],
    type_: tuple[int, ...],
    m: int,
    row_floor: int,
) -> int:
    # signed version of _iter_m_chains; row_floor = 0 means unconstrained
    j, k = len(type_), len(inner)
    if j == 0:
        return 1 if outer == inner else 0
    total = 0
    for tau, height, top_row in _strip_removals(outer, type_[-1]):
        if top_row < row_floor:
            break
        if top_row > k or _contains(tau, inner):
            nxt = top_row if (j - 1) % m != 0 else 0
            total += (-1 if height & 1 else 1) * _a_count(tau, inner, type_[:-1], m, nxt)
    return total


def a_coefficient(shape: SkewPartition, m: int, gamma) -> int:
    """Signed count of m-border-strip tableaux.

    Computed by a memoized recursion rather than by listing the tableaux;
    agreement with the sum of signs over ``enumerate_m_bst`` is a tested
    invariant.
    """
    type_ = _m_type(shape, m, gamma)
    return _a_count(shape.outer, shape.inner, type_, m, 0)
