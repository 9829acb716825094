import importlib
import pkgutil
from itertools import combinations

import hypothesis.strategies as st

import defres
from defres import Partition, SkewPartition, partitions_of


@st.composite
def partitions(draw, max_size=12, max_rows=6):
    """A random partition with bounded size and row count."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    parts = []
    remaining = draw(st.integers(min_value=0, max_value=max_size))
    bound = remaining
    for _ in range(rows):
        if remaining == 0 or bound == 0:
            break
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return Partition(sorted(parts, reverse=True))


@st.composite
def skews(draw, max_size=10, max_rows=5):
    """A random skew shape: an outer partition and a nested inner one."""
    outer = draw(partitions(max_size=max_size, max_rows=max_rows))
    inner_parts = [
        draw(st.integers(min_value=0, max_value=p)) for p in outer.parts
    ]
    inner = Partition(sorted(inner_parts, reverse=True))
    if not outer.contains(inner):
        inner = Partition()
    return SkewPartition(outer, inner)


def sample_skews(rng, total, count, inner_max=4):
    """``count`` skew shapes of ``total`` boxes drawn by ``rng``, a ``random.Random``.

    Each draw picks the inner size 0..inner_max, then the inner shape among
    the partitions of that size, then the outer shape among the partitions
    of ``total`` more boxes, all uniformly; an outer shape that does not
    contain the inner one is drawn again.
    """
    shapes = []
    while len(shapes) < count:
        inner = rng.choice(partitions_of(rng.randint(0, inner_max)))
        outer = rng.choice(partitions_of(total + inner.size))
        if outer.contains(inner):
            shapes.append(SkewPartition(outer, inner))
    return shapes


def defres_memos():
    """Every memo of the ``defres`` modules, by ``module.name``: each object
    with a ``cache_clear`` defined in its module, the scan the benchmark
    clears before each query."""
    memos = {}
    for info in pkgutil.iter_modules(defres.__path__):
        module = importlib.import_module(f"defres.{info.name}")
        for attr, obj in vars(module).items():
            if (
                callable(getattr(obj, "cache_clear", None))
                and getattr(obj, "__module__", None) == module.__name__
            ):
                memos[f"{info.name}.{attr}"] = obj
    return memos


def boxes(shape):
    """The (row, col) cells of a partition or skew shape, 1-indexed, row by row."""
    outer, inner = shape if isinstance(shape, SkewPartition) else (shape, Partition())
    return [
        (r, c)
        for r, hi in enumerate(outer, start=1)
        for c in range(inner.part(r) + 1, hi + 1)
    ]


def horizontal(shape):
    """No two boxes of the skew shape share a column."""
    cols = [c for _, c in boxes(shape)]
    return len(cols) == len(set(cols))


def strip_oracle(shape):
    """Border strip test straight from the definition, on the box set."""
    cells = set(boxes(shape))
    if not cells:
        return False
    for r, c in cells:
        if {(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        r, c = b
        stack.extend(
            x
            for x in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1))
            if x in cells and x not in seen
        )
    return seen == cells


def parity(p):
    """The sign of a permutation: -1 to the number of inversions."""
    return (-1) ** sum(p[i] > p[j] for i, j in combinations(range(len(p)), 2))


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdict lines after the capture-heavy run."""
    import sys

    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "VERDICTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.VERDICTS:
        terminalreporter.write_line(line)
