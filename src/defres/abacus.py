"""Bead displays on n runners, n-quotients, and n-decomposability.

A partition p with at most t*n parts is displayed by placing beads at the
positions p_j + (t*n - j) for j = 1..t*n (parts padded with zeros), where
position q sits on runner q mod n at row q div n.  Removing a border strip
of n boxes is exactly moving one bead up one row on its own runner, so all
strip-related structure can be read off the display:

* the n-core is reached by pushing every bead as far up its runner as it
  will go;
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
come from one pass over the paired displays, ``_quotient``, which keeps its
last result, so ``is_n_decomposable`` followed by ``n_quotient`` reads a
shape's abacus once; ``paired_displays`` draws the displays themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .borderstrips import BorderStripTableau, _beta_set, _partition_of_betas
from .partitions import Partition, SkewPartition
from .perms import parity


class AbacusDisplay:
    """An abacus with ``runners`` runners and beads at distinct positions.

    The number of beads is always a multiple of the number of runners.
    """

    __slots__ = ("runners", "beads")

    runners: int
    beads: frozenset[int]

    def __init__(self, runners: int, beads):
        beads = frozenset(int(b) for b in beads)
        if runners < 1:
            raise ValueError("need at least one runner")
        if any(b < 0 for b in beads):
            raise ValueError("bead positions must be non-negative")
        if len(beads) % runners != 0:
            raise ValueError("bead count must be a multiple of the runner count")
        object.__setattr__(self, "runners", runners)
        object.__setattr__(self, "beads", beads)

    def __setattr__(self, name, value):
        raise AttributeError("AbacusDisplay is immutable")

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
        return Partition(_partition_of_betas(self.beads))

    def runner_rows(self, i: int) -> tuple[int, ...]:
        """Ascending rows of the beads on runner i."""
        return tuple(
            sorted(b // self.runners for b in self.beads if b % self.runners == i)
        )

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbacusDisplay)
            and self.runners == other.runners
            and self.beads == other.beads
        )

    def __hash__(self) -> int:
        return hash((self.runners, self.beads))

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
    return AbacusDisplay(n, _beta_set(p, t * n))


def n_core(p, n: int) -> Partition:
    """Push every bead to the top of its runner and read off the partition."""
    d = display(p, n)
    core_beads: list[int] = []
    for i in range(n):
        count = len(d.runner_rows(i))
        core_beads.extend(i + n * r for r in range(count))
    return Partition(_partition_of_betas(core_beads))


@dataclass(frozen=True)
class QuotientData:
    """The n-quotient of a skew shape together with its sign.

    ``components[i]`` is the skew shape cut out on runner i; ``relabelling``
    maps each bead number of the outer display to the number, in the inner
    display, of the bead it migrates to (as a tuple, 1-based on both sides);
    ``sign`` is the parity of that permutation.
    """

    components: tuple[SkewPartition, ...]
    relabelling: tuple[int, ...]
    sign: int

    @property
    def n(self) -> int:
        return len(self.components)


def paired_displays(
    shape: SkewPartition, n: int
) -> tuple[AbacusDisplay, AbacusDisplay]:
    """The displays of the outer and inner shape, both with the outer's rows."""
    outer = display(shape.outer, n)
    return outer, display(shape.inner, n, rows=_bead_rows(len(shape.outer), n))


@lru_cache(maxsize=1)
def _quotient(
    outer: tuple[int, ...], inner: tuple[int, ...], n: int
) -> QuotientData | None:
    # The one pass over the paired displays (equal bead counts, sized from
    # the outer shape) behind every quotient here.  None unless each runner
    # carries equally many outer and inner beads, the inner rows dominated
    # by the outer rows; beads are matched runner by runner, in order.
    # One entry: callers ask is_n_decomposable, then n_quotient, of a shape.
    nbeads = n * _bead_rows(len(outer), n)
    runners = []
    for parts in (outer, inner):
        side: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for k, pos in enumerate(sorted(_beta_set(parts, nbeads))):
            side[pos % n].append((k, pos // n))  # (bead number, row)
        runners.append(side)
    rho = [0] * nbeads
    for beads_outer, beads_inner in zip(*runners):
        if len(beads_outer) != len(beads_inner):
            return None
        for (k, x), (l, y) in zip(beads_outer, beads_inner):
            if y > x:
                return None
            rho[k] = l
    components = tuple(
        SkewPartition(
            _partition_of_betas(x for _, x in beads_outer),
            _partition_of_betas(y for _, y in beads_inner),
        )
        for beads_outer, beads_inner in zip(*runners)
    )
    return QuotientData(components, tuple(r + 1 for r in rho), parity(tuple(rho)))


def _check_runners(shape: SkewPartition, n: int) -> None:
    if n < 1:
        raise ValueError("need at least one runner")
    if shape.size % n != 0:
        raise ValueError(f"|{shape}| = {shape.size} is not divisible by {n}")


def is_n_decomposable(shape: SkewPartition, n: int) -> bool:
    """Whether shape admits a border-strip tableau of type (n, ..., n).

    Read off the paired displays: each runner must carry equally many
    lambda-beads and mu-beads, with the mu-rows dominated by the
    lambda-rows when both are sorted.
    """
    _check_runners(shape, n)
    return _quotient(shape.outer, shape.inner, n) is not None


def n_quotient(shape: SkewPartition, n: int) -> QuotientData:
    """Quotient components, relabelling, and sign of an n-decomposable shape."""
    _check_runners(shape, n)
    quotient = _quotient(shape.outer, shape.inner, n)
    if quotient is None:
        raise ValueError(f"{shape} is not {n}-decomposable")
    return quotient


def is_horizontal_strip(shape: SkewPartition) -> bool:
    """True when no column of the skew shape holds two boxes."""
    outer, inner = shape.outer, shape.inner
    return all(
        outer.part(r + 1) <= inner.part(r) for r in range(1, len(outer))
    )


def unique_cycle_tableau(
    shape: SkewPartition, m: int, n: int
) -> tuple[BorderStripTableau, int] | None:
    """The unique m-strip tableau of type (n), when it exists.

    Returns None unless shape is n-decomposable with every quotient
    component a horizontal strip; in that case there is exactly one
    m-border-strip tableau of shape lambda/mu and type (n), built here by
    repeatedly lifting the lowest liftable bead, and its sign is the
    quotient sign.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    if shape.size != m * n:
        raise ValueError(f"|{shape}| = {shape.size} must equal m * n = {m * n}")
    quotient = _quotient(shape.outer, shape.inner, n)
    if quotient is None or any(
        not is_horizontal_strip(c) for c in quotient.components
    ):
        return None
    d_outer, d_inner = paired_displays(shape, n)
    current = set(d_outer.beads)
    chain = [_partition_of_betas(current)]
    for _ in range(m):
        pos = max(current - d_inner.beads)
        target = pos - n
        if target < 0 or target in current:
            raise RuntimeError("bead lift blocked; quotient invariant broken")
        current.remove(pos)
        current.add(target)
        chain.append(_partition_of_betas(current))
    if current != set(d_inner.beads):
        raise RuntimeError("bead lifts did not reach the inner display")
    tableau = BorderStripTableau(reversed(chain))
    return tableau, tableau.sign


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
    displays = [display(p, n, rows=rows) for p in t.chain]
    runner_chains: list[list[tuple[int, ...]]] = []
    runner_labels: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        runner_chains.append([_partition_of_betas(displays[0].runner_rows(i))])
    for step, (before, after) in enumerate(zip(displays, displays[1:])):
        gone = before.beads - after.beads
        new = after.beads - before.beads
        if len(gone) != 1 or len(new) != 1:
            raise RuntimeError("chain step is not a single bead migration")
        (src,), (dst,) = gone, new
        if src % n != dst % n:
            raise RuntimeError("bead migration crosses runners")
        i = src % n
        runner_chains[i].append(_partition_of_betas(after.runner_rows(i)))
        runner_labels[i].append(t.labels[step])
    return [
        BorderStripTableau(runner_chains[i], runner_labels[i]) for i in range(n)
    ]
