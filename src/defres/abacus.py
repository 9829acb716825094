"""Bead displays on n runners, n-quotients, and n-decomposability.

A partition p with at most t*n parts is displayed by placing beads at the
positions p_j + (t*n - j) for j = 1..t*n (parts padded with zeros), where
position q sits on runner q mod n at row q div n.  Removing a border strip
of n boxes is exactly moving one bead up one row on its own runner, so all
strip-related structure can be read off the display:

* the n-quotient collects, runner by runner, the partition encoded by the
  bead rows;
* a skew shape lambda/mu is n-decomposable when both displays (drawn with
  the same number of beads) put equally many beads on each runner, with the
  mu-beads rowwise no lower than the lambda-beads.  This happens precisely
  when some border-strip tableau of shape lambda/mu and type (n,...,n)
  exists.

The relabelling permutation matches the beads of the lambda-display to the
mu-beads they migrate to; its parity is the sign that relates signed strip
counts on lambda/mu to signed strip counts on the quotient.

Decomposability, the quotient components, the relabelling and the sign all
come from one pass over the paired displays, ``_quotient``, keyed on the
skew shape and n; it keeps its last result, so ``is_n_decomposable``
followed by ``n_quotient`` reads a shape's abacus once, on ordered bead
lists.  ``_cuts`` lists, from lambda's display alone, every entry
(tau, sign, key) with lambda/tau n-decomposable of a given size: tau comes
with its quotient's sign and components key (``partitions._skew_key``).
``display`` draws an ``AbacusDisplay`` for callers and printing; like the
shapes, it is a tuple, the pair ``(runners, beads)``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, lru_cache
from operator import index

from .borderstrips import BorderStripTableau
from .partitions import Partition, SkewPartition, _record, _skew_key, intermediates


def _beads(parts: tuple[int, ...], nbeads: int) -> list[int]:
    # bead positions, ascending: the padding's 0..pad-1, then the parts from the bottom
    pad = nbeads - len(parts)
    assert pad >= 0
    return [*range(pad), *(part + pad + i for i, part in enumerate(reversed(parts)))]


def _partition_of_betas(betas) -> Partition:
    # the j-th lowest bead gives the j-th lowest part (zeros dropped); distinct
    # beads give weakly increasing parts, so the reversal needs no validation
    parts = [p for j, b in enumerate(sorted(betas)) if (p := b - j)]
    return tuple.__new__(Partition, parts[::-1])


class AbacusDisplay(_record("AbacusDisplay", "runners beads")):
    """An abacus with ``runners`` runners and beads at distinct positions.

    The display is the pair ``(runners, beads)``, ``beads`` a frozenset of
    positions; the number of beads is always a multiple of the number of
    runners.
    """

    __slots__ = ()

    def __new__(cls, runners: int, beads):
        beads = frozenset(map(index, beads))
        if runners < 1:
            raise ValueError("need at least one runner")
        if any(b < 0 for b in beads):
            raise ValueError("bead positions must be non-negative")
        if len(beads) % runners != 0:
            raise ValueError("bead count must be a multiple of the runner count")
        return super().__new__(cls, runners, beads)

    @property
    def bead_count(self) -> int:
        return len(self.beads)

    @property
    def row_count(self) -> int:
        if not self.beads:
            return 0
        return max(max(self.beads) // self.runners + 1, len(self.beads) // self.runners)

    def partition(self) -> Partition:
        """The partition this display encodes."""
        return _partition_of_betas(self.beads)

    def numbering(self) -> dict[int, int]:
        """Bead numbers 1..N in increasing order of position."""
        return {pos: k for k, pos in enumerate(sorted(self.beads), start=1)}

    def render(self) -> str:
        """One line per row; beads print as a numbered ● and gaps as o."""
        numbering = self.numbering()
        width = len(str(self.bead_count)) + 1
        lines = []
        for row in range(self.row_count):
            cells = []
            for i in range(self.runners):
                pos = row * self.runners + i
                cell = f"●{numbering[pos]}" if pos in self.beads else "o"
                cells.append(cell.ljust(width))
            lines.append(" ".join(cells).rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"AbacusDisplay({self.runners}, {sorted(self.beads)!r})"


def _bead_rows(length: int, n: int) -> int:
    # the fewest full rows holding `length` parts on n runners, at least one
    return max(1, -(-length // n))


def display(p, n: int, rows: int | None = None) -> AbacusDisplay:
    """The canonical n-runner display of a partition.

    By default the smallest positive number of full rows is used,
    t = max(1, ceil(len(p) / n)); pass ``rows`` to draw more beads, e.g. to
    put two nested partitions on displays of the same size.
    """
    p = Partition(p)
    if n < 1:
        raise ValueError("need at least one runner")
    t = _bead_rows(len(p), n) if rows is None else rows
    if t * n < len(p) or t < 1:
        raise ValueError(f"{t} rows cannot hold {len(p)} parts on {n} runners")
    return AbacusDisplay(n, _beads(p, t * n))


class QuotientData(namedtuple("QuotientData", "components relabelling sign")):
    """The n-quotient of a skew shape together with its sign.

    ``components[i]`` is the skew shape cut out on runner i; ``relabelling``
    maps each bead number of the outer display to the number, in the inner
    display, of the bead it migrates to (as a tuple, 1-based on both sides);
    ``sign`` is the parity of that permutation.
    """

    __slots__ = ()


def _runners(parts, n: int, nbeads: int) -> list[list[tuple[int, int]]]:
    # the display of parts with nbeads beads, runner by runner: the
    # (bead number, row) of each bead, in order down the runner
    side: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, pos in enumerate(_beads(parts, nbeads)):
        side[pos % n].append((k, pos // n))
    return side


def _runner_partitions(side: list[list[tuple[int, int]]]) -> list[Partition]:
    # the partition on each runner of a _runners display, read off its rows
    return [_partition_of_betas([row for _, row in beads]) for beads in side]


def _sorting_sign(beads) -> int:
    # the parity of the permutation sorting distinct beads, read without
    # validation: -1 to the number of swaps that put each entry in its place
    order = sorted(range(len(beads)), key=beads.__getitem__)
    sign = 1
    for i in range(len(order)):
        while (j := order[i]) != i:
            order[i], order[j] = order[j], j
            sign = -sign
    return sign


@lru_cache(maxsize=1)
def _quotient(shape: SkewPartition, n: int) -> QuotientData | None:
    # The one pass over the paired displays (equal bead counts, sized from
    # the outer shape) behind every quotient here.  None unless each runner
    # carries equally many outer and inner beads, the inner rows dominated
    # by the outer rows; beads are matched runner by runner, in order.
    # One entry: callers ask is_n_decomposable, then n_quotient, of a shape.
    outer, inner = shape
    nbeads = n * _bead_rows(len(outer), n)
    runners = [_runners(parts, n, nbeads) for parts in (outer, inner)]
    rho = [0] * nbeads
    for beads_outer, beads_inner in zip(*runners):
        if len(beads_outer) != len(beads_inner):
            return None
        for (k, x), (l, y) in zip(beads_outer, beads_inner):
            if y > x:
                return None
            rho[k] = l
    components = tuple(map(SkewPartition, *map(_runner_partitions, runners)))
    return QuotientData(components, tuple(r + 1 for r in rho), _sorting_sign(rho))


@cache
def _cuts(outer: tuple[int, ...], n: int, m: int) -> tuple[tuple[Partition, int, tuple], ...]:
    # Every (tau, sign, key) with outer/tau n-decomposable of m*n boxes: each
    # runner partition lambda^(i) loses a sub-diagram rho_i, m boxes in all;
    # sign is the relabelling parity (both sides' beads listed alike) and key
    # the sorted _skew_key(lambda^(i), rho_i).  Runners without boxes keep their
    # beads; over the rest, a partial cut (beads, boxes cut, key) stays while
    # the runners after it can make up m.  A runner lists (lifted beads, key)
    # once per admitted size of cut.
    runners = _runners(outer, n, n * _bead_rows(len(outer), n))
    parts = _runner_partitions(runners)
    kept = tuple(i + n * y for i, part in enumerate(parts) if not part for _, y in runners[i])
    moved = tuple(i + n * y for i, part in enumerate(parts) if part for _, y in runners[i])
    sign = _sorting_sign(kept + moved)
    room = sum(map(sum, parts))
    found = [(kept, 0, ())]
    for i, (beads, part) in enumerate(zip(runners, parts)):
        if not part:
            continue
        size = sum(part)
        room -= size
        options: dict[int, list] = {}
        grown = []
        for lifted, cut, key in found:
            for k in range(max(0, m - cut - room), min(size, m - cut) + 1):
                if k not in options:
                    rhos = intermediates((part, ()), size - k)
                    ups = [tuple([i + n * y for y in _beads(rho, len(beads))]) for rho in rhos]
                    options[k] = list(zip(ups, [_skew_key(part, rho) for rho in rhos]))
                grown += [(lifted + up, cut + k, key + comps) for up, comps in options[k]]
        found = grown
    return tuple(
        (_partition_of_betas(lifted), sign * _sorting_sign(lifted), tuple(sorted(key)))
        for lifted, cut, key in found if cut == m
    )


def _check_runners(shape: SkewPartition, n: int) -> None:
    if n < 1:
        raise ValueError("need at least one runner")
    if shape.size % n != 0:
        raise ValueError(f"|{shape}| = {shape.size} is not divisible by {n}")


def is_n_decomposable(shape: SkewPartition, n: int) -> bool:
    """Whether shape admits a border-strip tableau of type (n, ..., n).

    Read off the paired displays: each runner must carry equally many
    lambda-beads and mu-beads, with the mu-rows dominated by the
    lambda-rows when both are sorted.  A shape without boxes is
    decomposable for every n, answered without drawing its n runners.
    """
    _check_runners(shape, n)
    return shape.outer == shape.inner or _quotient(shape, n) is not None


def n_quotient(shape: SkewPartition, n: int) -> QuotientData:
    """Quotient components, relabelling, and sign of an n-decomposable shape."""
    _check_runners(shape, n)
    quotient = _quotient(shape, n)
    if quotient is None:
        raise ValueError(f"{shape} is not {n}-decomposable")
    return quotient


def quotient_bijection(t: BorderStripTableau, n: int) -> list[BorderStripTableau]:
    """Cut a tableau whose strip lengths are multiples of n along runners.

    For a border-strip tableau of shape lambda/mu and type n*alpha (alpha a
    partition), every strip is a single bead migration on one runner, so the
    chain projects to one labelled border-strip tableau per runner; the i-th
    output has shape and type the i-th quotient components, and keeps the
    original labels on its strips.  The tableau sign is the quotient sign
    times the product of the component signs.
    """
    if n < 1:
        raise ValueError("need at least one runner")
    type_ = t.type
    if any(c % n != 0 for c in type_):
        raise ValueError(f"strip lengths {type_} are not all multiples of {n}")
    alpha = tuple(c // n for c in type_)
    if any(alpha[i] < alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError(f"type {type_} is not n times a partition")
    rows = _bead_rows(len(t.chain[-1]), n)
    runners = [_runner_partitions(_runners(p, n, n * rows)) for p in t.chain]
    runner_chains = [[q] for q in runners[0]]
    runner_labels: list[list[int]] = [[] for _ in range(n)]
    for label, before, after in zip(t.labels, runners, runners[1:]):
        changed = [i for i in range(n) if before[i] != after[i]]
        if len(changed) != 1:
            raise RuntimeError("chain step does not change exactly one runner")
        (i,) = changed
        runner_chains[i].append(after[i])
        runner_labels[i].append(label)
    return [BorderStripTableau(c, ls) for c, ls in zip(runner_chains, runner_labels)]
