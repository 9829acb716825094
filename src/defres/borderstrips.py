"""Border strips, strip tableaux, and the signed enumeration rules.

A border strip is an edge-connected skew shape containing no 2x2 square.
A border-strip tableau of shape lambda/mu and type gamma is a chain

    mu = l0 < l1 < ... < lk = lambda

where each step li/l(i-1) is a border strip of gamma_i boxes; the boxes of
that strip carry the label i.  Removing or adding a strip is a single bead
move on a beta-set, which is how this module manipulates shapes and
recognises strips.  Two memoised tables list the strips of c boxes that a
shape loses or gains, each with its height and top row read off the bead
move; everything below takes a strip's sign and row from them.  A tableau
is the tuple ``(chain, labels)``, its strip metadata looked up there.

Three derived quantities matter:

* ``mn_value(shape, gamma)`` -- the signed count of all border-strip
  tableaux, computed by a memoized one-strip-at-a-time recursion.  This is
  the value of the skew character of shape lambda/mu at cycle type gamma.
* ``enumerate_m_bst(shape, m, gamma)`` -- tableaux of type gamma with each
  part repeated m times whose topmost occupied rows weakly decrease as the
  label increases through each block of m equal labels.  ``enumerate_bst``
  is its m = 1 case, where the block condition is vacuous.
* ``a_coefficient(shape, m, gamma)`` -- the signed count of those.

The recursion peels the first part of gamma off the inner shape; the
enumerations peel the last label off the outer shape.  The two orders give
independent routes to the same numbers, which the tests exploit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache
from operator import itemgetter
from typing import Iterator, NamedTuple

from .partitions import Composition, Partition, SkewPartition, _contains, repeat_parts


# ---------------------------------------------------------------------------
# beta-set plumbing (tuples in, tuples out; all cached helpers live here)


def _beta_set(parts: tuple[int, ...], nbeads: int) -> frozenset[int]:
    # beads at parts[j] + (nbeads - 1 - j); parts padded with zeros
    assert nbeads >= len(parts)
    padded = parts + (0,) * (nbeads - len(parts))
    return frozenset(padded[j] + (nbeads - 1 - j) for j in range(nbeads))


def _partition_of_betas(betas) -> tuple[int, ...]:
    desc = sorted(betas, reverse=True)
    n = len(desc)
    t = tuple(desc[j] - (n - 1 - j) for j in range(n))
    while t and t[-1] == 0:
        t = t[:-1]
    return t


_Strips = tuple[tuple[tuple[int, ...], int, int], ...]  # (tau, height, top_row)


def _bead_moves(parts: tuple[int, ...], nbeads: int, shift: int) -> _Strips:
    # each move of one bead `shift` places to an empty position removes
    # (shift < 0) or adds a strip: its height is the beads jumped over, its
    # top row 1 plus the beads above the higher end of the move
    betas = _beta_set(parts, nbeads)
    asc = sorted(betas)
    out = []
    for b in asc:
        t = b + shift
        if t < 0 or t in betas:
            continue
        lo, hi = min(b, t), max(b, t)
        height = bisect_left(asc, hi) - bisect_right(asc, lo)
        top_row = nbeads - bisect_right(asc, hi) + 1
        out.append((_partition_of_betas(betas - {b} | {t}), height, top_row))
    return tuple(sorted(out, reverse=True))


@cache
def _strip_removals(nu: tuple[int, ...], c: int) -> _Strips:
    """The strips of c boxes that nu loses, tau descending."""
    return _bead_moves(nu, len(nu), -c) if c > 0 else ()


@cache
def _strip_additions(mu: tuple[int, ...], c: int) -> _Strips:
    """The strips of c boxes that mu gains (at most c new rows), tau descending."""
    return _bead_moves(mu, len(mu) + c, c) if c > 0 else ()


# ---------------------------------------------------------------------------
# strip predicates and metadata


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


def is_border_strip(shape: SkewPartition) -> bool:
    """True when the skew shape is edge-connected with no 2x2 square.

    That is one bead move: the inner shape is the outer one less a strip of
    ``size`` boxes.  The empty shape does not count as a border strip.
    """
    return _strip(shape.outer, shape.inner) is not None


def strip_meta(shape: SkewPartition) -> StripMeta:
    """Length, height (occupied rows minus one) and topmost occupied row."""
    meta = _strip(shape.outer, shape.inner)
    if meta is None:
        raise ValueError(f"{shape} is not a border strip")
    return meta


# ---------------------------------------------------------------------------
# tableaux


class BorderStripTableau(tuple):
    """An increasing chain of partitions with border-strip steps.

    The pair ``(chain, labels)``, equal and hashed like it: ``chain[0]`` is
    the inner shape, ``chain[-1]`` the outer one, and the boxes of
    ``chain[i]/chain[i-1]`` carry ``labels[i-1]`` (by default 1..k).
    Construction validates every step.
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
        return Composition(m.length for m in self.metas())

    def strips(self) -> list[SkewPartition]:
        return [
            SkewPartition(hi, lo) for lo, hi in zip(self.chain, self.chain[1:])
        ]

    def metas(self) -> tuple[StripMeta, ...]:
        return tuple(_strip(hi, lo) for lo, hi in zip(self.chain, self.chain[1:]))

    @property
    def sign(self) -> int:
        return (-1) ** sum(m.height for m in self.metas())

    def render(self) -> str:
        """ASCII grid; inner boxes print as ':' and strip boxes as labels."""
        fill = dict.fromkeys(self.chain[0].boxes(), ":")
        for label, strip in zip(self.labels, self.strips()):
            fill.update(dict.fromkeys(strip.boxes(), str(label)))
        width = max(map(len, fill.values()), default=1)
        return "\n".join(
            " ".join(fill[r, c].rjust(width) for c in range(1, part + 1))
            for r, part in enumerate(self.chain[-1], start=1)
        )

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
    c = gamma[0]
    total = 0
    # grow the inner shape by one strip of the first remaining length
    for tau, height, _ in _strip_additions(inner, c):
        if _contains(outer, tau):
            total += (-1) ** height * _mn(outer, tau, gamma[1:])
    return total


def mn_value(shape: SkewPartition, gamma) -> int:
    """Signed count of border-strip tableaux of the given shape and type.

    Equals the value of the skew character of shape lambda/mu at any
    permutation of cycle type gamma; the result does not depend on the
    order of the parts of gamma.
    """
    gamma = Composition(gamma)
    if gamma.size != shape.size:
        raise ValueError(
            f"type {gamma} must sum to |{shape}| = {shape.size}"
        )
    return _mn(shape.outer, shape.inner, gamma)


def _m_type(shape: SkewPartition, m: int, gamma) -> tuple[int, ...]:
    # the strip lengths of an m-border-strip tableau of type gamma
    if m < 1:
        raise ValueError("m must be at least 1")
    gamma = Composition(gamma)
    if m * gamma.size != shape.size:
        raise ValueError(
            f"m * |gamma| = {m * gamma.size} must equal |{shape}| = {shape.size}"
        )
    return repeat_parts(gamma, m)


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
    j = len(type_)
    if j == 0:
        if outer == inner:
            yield (outer,)
        return
    for tau, _, top_row in _strip_removals(outer, type_[-1]):
        if top_row < row_floor or not _contains(tau, inner):
            continue
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
    chains = sorted(
        _iter_m_chains(shape.outer, shape.inner, type_, m, 0)
    )
    return [BorderStripTableau(chain) for chain in chains]


def enumerate_bst(shape: SkewPartition, gamma) -> list[BorderStripTableau]:
    """All border-strip tableaux of the given shape and type.

    The m = 1 case of ``enumerate_m_bst``, sorted lexicographically on the
    chain of partitions.
    """
    return enumerate_m_bst(shape, 1, gamma)


@cache
def _a_count(
    outer: tuple[int, ...],
    inner: tuple[int, ...],
    type_: tuple[int, ...],
    m: int,
    row_floor: int,
) -> int:
    # signed version of _iter_m_chains; row_floor = 0 means unconstrained
    j = len(type_)
    if j == 0:
        return 1 if outer == inner else 0
    total = 0
    for tau, height, top_row in _strip_removals(outer, type_[-1]):
        if top_row < row_floor or not _contains(tau, inner):
            continue
        nxt = top_row if (j - 1) % m != 0 else 0
        total += (-1) ** height * _a_count(tau, inner, type_[:-1], m, nxt)
    return total


def a_coefficient(shape: SkewPartition, m: int, gamma) -> int:
    """Signed count of m-border-strip tableaux.

    Computed by a memoized recursion rather than by listing the tableaux;
    agreement with the sum of signs over ``enumerate_m_bst`` is a tested
    invariant.
    """
    type_ = _m_type(shape, m, gamma)
    return _a_count(shape.outer, shape.inner, type_, m, 0)
