"""Border strips, strip tableaux, and the signed enumeration rules.

A border strip is an edge-connected skew shape containing no 2x2 square.
A border-strip tableau of shape lambda/mu and type gamma is a chain

    mu = l0 < l1 < ... < lk = lambda

where each step li/l(i-1) is a border strip of gamma_i boxes; the boxes of
that strip carry the label i.  Removing or adding a strip is a single bead
move on a beta-set, which is how this module manipulates shapes.

Three derived quantities matter:

* ``mn_value(shape, gamma)`` -- the signed count of all border-strip
  tableaux, computed by a memoized one-strip-at-a-time recursion.  This is
  the value of the skew character of shape lambda/mu at cycle type gamma.
* ``enumerate_m_bst(shape, m, gamma)`` -- tableaux of type gamma with each
  part repeated m times whose strips, within each block of m equal labels,
  start on weakly decreasing rows (lower labels start no higher up than
  later ones... precisely: the topmost occupied rows weakly decrease as
  the label increases through the block).  ``enumerate_bst`` is its
  m = 1 case, where the block condition is vacuous.
* ``a_coefficient(shape, m, gamma)`` -- the signed count of those.

The recursion peels the first part of gamma off the inner shape; the
enumerations peel the last label off the outer shape.  The two orders give
independent routes to the same numbers, which the tests exploit.
"""

from __future__ import annotations

from functools import cache
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


@cache
def _strip_removals(nu: tuple[int, ...], c: int) -> tuple[tuple[int, ...], ...]:
    """Partitions obtained from nu by removing one border strip of c boxes."""
    if c <= 0 or not nu:
        return ()
    nbeads = len(nu)
    betas = _beta_set(nu, nbeads)
    out = []
    for b in betas:
        if b >= c and (b - c) not in betas:
            out.append(_partition_of_betas(betas - {b} | {b - c}))
    return tuple(sorted(out, reverse=True))


@cache
def _strip_additions(mu: tuple[int, ...], c: int) -> tuple[tuple[int, ...], ...]:
    """Partitions obtained from mu by adding one border strip of c boxes."""
    if c <= 0:
        return ()
    nbeads = len(mu) + c  # a strip of c boxes adds at most c rows
    betas = _beta_set(mu, nbeads)
    out = []
    for b in betas:
        if (b + c) not in betas:
            out.append(_partition_of_betas(betas - {b} | {b + c}))
    return tuple(sorted(out, reverse=True))


def _diff_rows(nu: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    # 0-indexed rows where nu strictly exceeds tau (tau padded with zeros)
    return tuple(
        r for r in range(len(nu)) if nu[r] > (tau[r] if r < len(tau) else 0)
    )


# ---------------------------------------------------------------------------
# strip predicates and metadata


class StripMeta(NamedTuple):
    length: int
    height: int
    row_number: int


def is_border_strip(shape: SkewPartition) -> bool:
    """True when the skew shape is edge-connected with no 2x2 square.

    The empty shape does not count as a border strip.
    """
    outer, inner = shape.outer, shape.inner
    occupied = [
        r for r in range(1, len(outer) + 1) if outer.part(r) > inner.part(r)
    ]
    if not occupied:
        return False
    if occupied != list(range(occupied[0], occupied[-1] + 1)):
        return False  # an empty row splits the shape
    for r in occupied[:-1]:
        # columns shared by rows r and r+1
        overlap = min(outer.part(r), outer.part(r + 1)) - max(
            inner.part(r), inner.part(r + 1)
        )
        if overlap < 1:
            return False  # disconnected diagonally
        if overlap > 1:
            return False  # contains a 2x2 square
    return True


def strip_meta(shape: SkewPartition) -> StripMeta:
    """Length, height (occupied rows minus one) and topmost occupied row."""
    if not is_border_strip(shape):
        raise ValueError(f"{shape} is not a border strip")
    rows = _diff_rows(shape.outer, shape.inner)
    return StripMeta(shape.size, len(rows) - 1, rows[0] + 1)


# ---------------------------------------------------------------------------
# tableaux


class BorderStripTableau:
    """An increasing chain of partitions with border-strip steps.

    ``chain[0]`` is the inner shape, ``chain[-1]`` the outer shape, and the
    boxes of ``chain[i]/chain[i-1]`` carry ``labels[i-1]`` (labels default
    to 1..k).  Construction validates every step.
    """

    __slots__ = ("chain", "labels", "_metas")

    def __init__(self, chain, labels=None):
        chain = tuple(Partition(p) for p in chain)
        if not chain:
            raise ValueError("chain must contain at least the inner shape")
        metas = []
        for lo, hi in zip(chain, chain[1:]):
            metas.append(strip_meta(SkewPartition(hi, lo)))  # validates
        k = len(chain) - 1
        if labels is None:
            labels = tuple(range(1, k + 1))
        else:
            labels = tuple(int(x) for x in labels)
            if len(labels) != k:
                raise ValueError("one label per strip required")
            if any(a >= b for a, b in zip(labels, labels[1:])):
                raise ValueError("labels must strictly increase along the chain")
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_metas", tuple(metas))

    def __setattr__(self, name, value):
        raise AttributeError("BorderStripTableau is immutable")

    @property
    def shape(self) -> SkewPartition:
        return SkewPartition(self.chain[-1], self.chain[0])

    @property
    def type(self) -> Composition:
        return Composition(m.length for m in self._metas)

    def strips(self) -> list[SkewPartition]:
        return [
            SkewPartition(hi, lo) for lo, hi in zip(self.chain, self.chain[1:])
        ]

    def metas(self) -> tuple[StripMeta, ...]:
        return self._metas

    @property
    def sign(self) -> int:
        return (-1) ** sum(m.height for m in self._metas)

    def render(self) -> str:
        """ASCII grid; inner boxes print as ':' and strip boxes as labels."""
        outer = self.chain[-1]
        inner = self.chain[0]
        fill: dict[tuple[int, int], str] = {}
        for label, (lo, hi) in zip(self.labels, zip(self.chain, self.chain[1:])):
            for r in range(1, len(hi) + 1):
                for c in range(lo.part(r) + 1, hi.part(r) + 1):
                    fill[(r, c)] = str(label)
        width = max((len(v) for v in fill.values()), default=1)
        lines = []
        for r in range(1, len(outer) + 1):
            cells = []
            for c in range(1, outer.part(r) + 1):
                cells.append(":" if c <= inner.part(r) else fill[(r, c)])
            lines.append(" ".join(cell.rjust(width) for cell in cells))
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BorderStripTableau)
            and self.chain == other.chain
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.chain, self.labels))

    def __repr__(self) -> str:
        return f"BorderStripTableau({[tuple(p) for p in self.chain]!r})"


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
    for tau in _strip_additions(inner, c):
        if _contains(outer, tau):
            rows = _diff_rows(tau, inner)
            total += (-1) ** (len(rows) - 1) * _mn(outer, tau, gamma[1:])
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
    row_floor: int | None,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    # row_floor carries the topmost row of the strip just peeled when that
    # strip shares a length block with the current label: within a block
    # the topmost rows must weakly decrease as the label increases.
    j = len(type_)
    if j == 0:
        if outer == inner:
            yield (outer,)
        return
    for tau in _strip_removals(outer, type_[-1]):
        if not _contains(tau, inner):
            continue
        top_row = _diff_rows(outer, tau)[0] + 1
        if row_floor is not None and top_row < row_floor:
            continue
        nxt = top_row if (j - 1) % m != 0 else None
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
        _iter_m_chains(shape.outer, shape.inner, type_, m, None)
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
    for tau in _strip_removals(outer, type_[-1]):
        if not _contains(tau, inner):
            continue
        rows = _diff_rows(outer, tau)
        top_row = rows[0] + 1
        if row_floor and top_row < row_floor:
            continue
        nxt = top_row if (j - 1) % m != 0 else 0
        total += (-1) ** (len(rows) - 1) * _a_count(tau, inner, type_[:-1], m, nxt)
    return total


def a_coefficient(shape: SkewPartition, m: int, gamma) -> int:
    """Signed count of m-border-strip tableaux.

    Computed by a memoized recursion rather than by listing the tableaux;
    agreement with the sum of signs over ``enumerate_m_bst`` is a tested
    invariant.
    """
    type_ = _m_type(shape, m, gamma)
    return _a_count(shape.outer, shape.inner, type_, m, 0)
