"""The three workloads: seeded inputs, the calls they time, and their checks.

Each workload is a closed loop: one caller issues the next item only after
the previous one returns.  An item is one call into the program;
``Item.queries`` is how many queries it answers (one for ``recursive`` and
``tableau``, the checked instances of a sweep for ``verify``).

* ``recursive`` -- ``defres_recursive`` on general theta = chi^kappa.  The
  abacus, character and deflation layers do the work; wreath does none.
* ``tableau`` -- trivial theta through ``defres_theorem`` and the
  ``enumerate_m_bst`` listings that ``defres tableaux`` prints.  Only the
  border-strip layer works.
* ``verify`` -- ``cli.main(["verify", ...])`` in-process.  Thousands of small
  instances share memos, and the wreath oracle takes most of the time.

The program receives only the generated shapes and types.  Every answer is
checked outside the timed region against a route that does not share the
timed one's algorithm, and each verify sweep's instance counts against
counts made here from the benchmark's own enumeration of partitions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Iterator

from defres import (
    Composition,
    DeflationQuery,
    Partition,
    SkewPartition,
    a_coefficient,
    defres_recursive,
    defres_theorem,
    enumerate_m_bst,
    irreducible_character,
    oracle_defres,
)
from defres.cli import main as cli_main
from defres.perms import with_cycle_type


@dataclass
class Item:
    """One timed call: ``run()`` answers ``queries`` queries.

    ``digest``, applied to the answer after the clock stops, keeps only
    what ``check`` needs, so held answers do not add to peak memory.
    """

    params: str  # the generated input, for the run context
    queries: int
    run: Callable[[], Any]
    check: Callable[[Any], int]  # digested answer -> number of wrong queries
    digest: Callable[[Any], Any] | None = None


# ---------------------------------------------------------------------------
# partitions, enumerated and sampled here so the inputs and the work counts
# do not depend on the code under test


@cache
def _in_box(k: int, rows: int, largest: int) -> int:
    """Partitions of k with at most ``rows`` parts, none above ``largest``."""
    if k == 0:
        return 1
    return sum(
        _in_box(k - p, rows - 1, p) for p in range(1, min(k, largest) + 1)
    ) if rows else 0


@cache
def partitions(k: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    largest = k if largest is None else largest
    if k == 0:
        return ((),)
    return tuple(
        (p,) + rest
        for p in range(min(k, largest), 0, -1)
        for rest in partitions(k - p, p)
    )


def random_partition(rng, k: int, largest: int | None = None, rows: int | None = None):
    """Uniform among the partitions of k with at most ``rows`` parts, none
    above ``largest``."""
    largest = k if largest is None else largest
    rows = k if rows is None else rows
    parts = []
    while k:
        pick = rng.randrange(_in_box(k, rows, largest))
        for p in range(min(k, largest), 0, -1):
            if pick < _in_box(k - p, rows - 1, p):
                break
            pick -= _in_box(k - p, rows - 1, p)
        parts.append(p)
        k, largest, rows = k - p, p, rows - 1
    return tuple(parts)


def exact_rows(rng, k: int, rows: int, largest: int | None = None):
    """Uniform among the partitions of k with exactly ``rows`` parts, none
    above ``largest``: one box more in each row of a smaller partition."""
    rest = random_partition(rng, k - rows, None if largest is None else largest - 1, rows)
    return tuple(p + 1 for p in rest) + (1,) * (rows - len(rest))


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    return len(inner) <= len(outer) and all(i <= o for i, o in zip(inner, outer))


def add_strip(rng: random.Random, p: tuple[int, ...], c: int) -> tuple[int, ...]:
    """p with one random border strip of c boxes added (a bead moved c up)."""
    beads = len(p) + c
    padded = p + (0,) * c
    betas = {padded[j] + beads - 1 - j for j in range(beads)}
    b = rng.choice(sorted(x for x in betas if x + c not in betas))
    moved = sorted(betas - {b} | {b + c}, reverse=True)
    return tuple(x for x in (moved[j] - (beads - 1 - j) for j in range(beads)) if x)


def skew_count(total: int, inner_max: int) -> int:
    """Skew shapes with ``total`` boxes and at most ``inner_max`` inner boxes."""
    return sum(
        contains(outer, inner)
        for b in range(inner_max + 1)
        for outer in partitions(total + b)
        for inner in partitions(b)
    )


# ---------------------------------------------------------------------------
# recursive

# (m, kappa, n): m in {3, 4}, kappa neither trivial nor sign, m * n in 12..18.
# Every partition of n is run in turn as gamma, and inner sizes 0..4 in turn
# (stratified, so each seed has the same mix of cycle types and inner
# sizes; a round is 47 queries, prime to the 5 sizes).  The seed draws the
# skew shape of each query.
RECURSIVE_CELLS = (
    (3, (2, 1), 4),
    (3, (2, 1), 5),
    (3, (2, 1), 6),
    (4, (3, 1), 3),
    (4, (2, 2), 3),
    (4, (2, 1, 1), 3),
    (4, (3, 1), 4),
    (4, (2, 2), 4),
    (4, (2, 1, 1), 4),
)
RECURSIVE_ROUND = tuple(
    (m, kappa, n, gamma)
    for m, kappa, n in RECURSIVE_CELLS
    for gamma in partitions(n)
)
RECURSIVE_INNER_MAX = 4


def _radical_inverse(i: int, base: int) -> float:
    """The i-th point of the van der Corput sequence in ``base``."""
    u, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        u += digit * scale
        scale /= base
    return u


def _quantile(weights: list[int], u: float) -> int:
    """First index at which the cumulative share of ``weights`` exceeds u."""
    target = u * sum(weights)
    for i, weight in enumerate(weights):
        target -= weight
        if target < 0:
            return i
    return max(i for i, weight in enumerate(weights) if weight)


def stratified_partition(rng, k: int, u_rows: float, u_largest: float):
    """A partition of k drawn through its row count and largest part.

    The row count is the ``u_rows``-quantile of the row counts of all
    partitions of k, the largest part the ``u_largest``-quantile among those
    with that row count, and the rest is uniform given both.  With uniform
    u's this is a uniform partition of k; with u's spread evenly (a Halton
    sequence) a sample follows the joint distribution of the two, which set
    most of a query's cost, much more closely than independent draws do.
    """
    # exactly r rows: one box more in each row of a partition of k - r
    rows = 1 + _quantile([_in_box(k - r, r, k) for r in range(1, k + 1)], u_rows)
    # and largest part c: below the first row, a partition of k - c in
    # exactly rows - 1 rows, each at most c
    largest = 1 + _quantile(
        [_in_box(k - c - rows + 1, rows - 1, c - 1) for c in range(1, k + 1)],
        u_largest,
    )
    return (largest,) + exact_rows(rng, k - largest, rows - 1, largest)


def _random_skew(rng, size: int, inner_size: int, u_rows, u_largest):
    outer = stratified_partition(rng, size + inner_size, u_rows, u_largest)
    while True:
        inner = random_partition(rng, inner_size)
        if contains(outer, inner):
            return outer, inner


def _deflation_query(outer, inner, m, n, theta, gamma) -> DeflationQuery:
    return DeflationQuery(
        SkewPartition(outer, inner), m, n, Partition(theta), Composition(gamma)
    )


def _oracle(query: DeflationQuery) -> int:
    return oracle_defres(
        query.shape,
        irreducible_character(query.theta),
        query.n,
        with_cycle_type(query.gamma.parts, query.n),
    )


def _value_item(call: str, query: DeflationQuery, evaluate) -> Item:
    return Item(
        params=f"{call} {query.shape} m={query.m} theta={query.theta} gamma={query.gamma}",
        queries=1,
        run=lambda: evaluate(query),
        check=lambda answer: int(answer != _oracle(query)),
    )


def recursive_stream(seed: int) -> Iterator[Item]:
    rng = random.Random(seed)
    # each cell's outer shapes follow a Halton sequence over the rounds in
    # (row count, largest part), randomly shifted per cell
    shifts = [(rng.random(), rng.random()) for _ in RECURSIVE_ROUND]
    for count in itertools.count():
        cell, round_ = count % len(RECURSIVE_ROUND), count // len(RECURSIVE_ROUND)
        m, kappa, n, gamma = RECURSIVE_ROUND[cell]
        u_rows = (_radical_inverse(round_, 2) + shifts[cell][0]) % 1.0
        u_largest = (_radical_inverse(round_, 3) + shifts[cell][1]) % 1.0
        inner_size = count % (RECURSIVE_INNER_MAX + 1)
        outer, inner = _random_skew(rng, m * n, inner_size, u_rows, u_largest)
        query = _deflation_query(outer, inner, m, n, kappa, gamma)
        yield _value_item("defres_recursive", query, lambda q: defres_recursive(q))


# ---------------------------------------------------------------------------
# tableau

# A round is one defres_theorem query and LISTINGS_PER_ROUND listings.  The
# theorem query checks against the averaging oracle, which costs 20 to 30
# times the query, so it is kept to a share of the round that the checks
# can afford.
#
# defres_theorem: (m, n) with m * n in 24..45 (the staircase 9,...,1 with
# m = 5 is the size of the largest), in turn; gamma has two parts, which
# keeps the oracle to p(m)**2 class assignments.
THEOREM_CELLS = tuple(
    (m, n, 2) for m in (3, 4, 5) for n in range(2, 16) if 24 <= m * n <= 45
)
# enumerate_m_bst: (m, n) with m * n in 12..20 and gamma of three parts, so
# listings stay in the hundreds of tableaux; each cell twice per round.
LISTING_CELLS = tuple(
    (m, n, 3) for m in (2, 3) for n in range(3, 11) if 12 <= m * n <= 20
)
LISTINGS_PER_ROUND = 2 * len(LISTING_CELLS)
TABLEAU_INNER_MAX = 4


def _strip_shape(rng, m: int, gamma: tuple[int, ...]) -> tuple[tuple, tuple]:
    """A random inner shape grown by m strips of each part of gamma, so a
    border-strip tableau of the repeated type exists."""
    inner = random_partition(rng, rng.randint(0, TABLEAU_INNER_MAX))
    outer = inner
    for part in gamma:
        for _ in range(m):
            outer = add_strip(rng, outer, part)
    return outer, inner


def _theorem_item(rng, m: int, n: int, parts: int) -> Item:
    gamma = exact_rows(rng, n, parts)
    outer, inner = _strip_shape(rng, m, gamma)
    query = _deflation_query(outer, inner, m, n, (m,), gamma)
    return _value_item("defres_theorem", query, lambda q: defres_theorem(q))


def _listing_item(rng, m: int, n: int, parts: int) -> Item:
    gamma = Composition(exact_rows(rng, n, parts))
    shape = SkewPartition(*_strip_shape(rng, m, gamma.parts))

    def check(signed_count) -> int:
        return int(signed_count != a_coefficient(shape, m, gamma))

    return Item(
        params=f"enumerate_m_bst {shape} m={m} gamma={gamma}",
        queries=1,
        run=lambda: enumerate_m_bst(shape, m, gamma),
        check=check,
        digest=lambda tableaux: sum(t.sign for t in tableaux),
    )


def tableau_stream(seed: int) -> Iterator[Item]:
    rng = random.Random(seed)
    for cell in itertools.cycle(THEOREM_CELLS):
        yield _theorem_item(rng, *cell)
        for i in range(LISTINGS_PER_ROUND):
            yield _listing_item(rng, *LISTING_CELLS[i % len(LISTING_CELLS)])


# ---------------------------------------------------------------------------
# verify

# The sweeps the CLI contract fixes: trivial and sign up to m * n = 10, and
# three general thetas up to m * n = 12.  The seed is not used.
VERIFY_SWEEPS = (
    ("10", None),
    ("12", "2,1"),
    ("12", "3,1"),
    ("12", "2,2"),
)
VERIFY_INNER_MAX = 2  # the CLI default


def verify_cells(max_size: int, theta: str | None) -> dict[tuple, int]:
    """(m, n, theta label) -> instance count, from this module's enumeration."""
    labels = ["trivial", "sign"] if theta is None else [theta]
    cells = {}
    for m in range(2, max_size + 1):
        for n in range(2, max_size // m + 1):
            for label in labels:
                if theta is not None and sum(map(int, theta.split(","))) != m:
                    continue
                count = skew_count(m * n, VERIFY_INNER_MAX) * len(partitions(n))
                cells[(m, n, label)] = count
    return cells


def _run_verify(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _verify_item(max_size: str, theta: str | None) -> Item:
    argv = ["verify", "--max-size", max_size, "--format", "json"]
    if theta is not None:
        argv += ["--theta", theta]
    expected = verify_cells(int(max_size), theta)

    def check(answer) -> int:
        code, output = answer
        payload = json.loads(output)
        cells = {
            (c["m"], c["n"], c["theta"]): c["instances"] for c in payload["cells"]
        }
        if code != 0 or not payload["ok"] or cells != expected:
            return queries  # a sweep that checked less than its grid fails whole
        return sum(c["failures"] for c in payload["cells"])

    queries = sum(expected.values())
    return Item(
        params=" ".join(argv),
        queries=queries,
        run=lambda: _run_verify(argv),
        check=check,
    )


def verify_stream(seed: int) -> Iterator[Item]:
    items = [_verify_item(*sweep) for sweep in VERIFY_SWEEPS]
    return itertools.cycle(items)


# name -> (item stream made from the seed, items per round, items traced).
# A round holds every stratum of the workload once, and a timed run stops
# only at a round boundary, so every run has the same mix; a traced run
# takes the first rounds of the stream.
TABLEAU_ROUND = len(THEOREM_CELLS) * (1 + LISTINGS_PER_ROUND)
WORKLOADS = {
    "recursive": (recursive_stream, len(RECURSIVE_ROUND), 2 * len(RECURSIVE_ROUND)),
    "tableau": (tableau_stream, TABLEAU_ROUND, TABLEAU_ROUND),
    "verify": (verify_stream, len(VERIFY_SWEEPS), len(VERIFY_SWEEPS)),
}
