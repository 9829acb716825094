"""Permutation helpers shared by the abacus and wreath modules.

Permutations act on {0, ..., n-1} and are stored as tuples of images;
``p[i]`` is the image of i.
"""

from __future__ import annotations

from itertools import permutations as _permutations
from typing import Iterator

from .partitions import Partition


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q: (p * q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def cycles(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycle decomposition in order of smallest element; fixed points included."""
    n = len(p)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            # an image out of range, or repeated before the cycle closes
            if not 0 <= nxt < n or seen[nxt]:
                raise ValueError(f"{p} is not a permutation of 0..{n - 1}")
            seen[nxt] = True
            cyc.append(nxt)
            nxt = p[nxt]
        out.append(tuple(cyc))
    return out


def cycle_type_of(p: tuple[int, ...]) -> Partition:
    # cycles validates p, so the sorted lengths are a partition
    return tuple.__new__(Partition, sorted(map(len, cycles(p)), reverse=True))


def with_cycle_type(parts, n: int) -> tuple[int, ...]:
    """A canonical permutation of {0..n-1} with the given cycle type."""
    parts = tuple(parts)
    if any(length < 1 for length in parts) or sum(parts) != n:
        raise ValueError(f"cycle type {parts} is not a composition of {n}")
    img = list(range(n))
    start = 0
    for length in parts:
        for i in range(length):
            img[start + i] = start + (i + 1) % length
        start += length
    return tuple(img)


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    return _permutations(range(n))


def cycle_notation(p: tuple[int, ...]) -> str:
    """1-based cycle notation without fixed points; the identity prints as ()."""
    parts = [
        "(" + " ".join(str(x + 1) for x in c) + ")"
        for c in cycles(p)
        if len(c) > 1
    ]
    return "".join(parts) if parts else "()"
