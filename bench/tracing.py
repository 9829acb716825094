"""Per-layer tracing from outside the program, and the memo registry.

``Tracer.install`` replaces every cross-module binding of a layer function
with a timing wrapper: the binding ``defres.deflation.n_quotient`` is
wrapped, while calls inside ``defres.abacus`` itself stay direct.  Wrappers
keep a stack of open spans, so each span's self time is its duration minus
the time of the spans it caused.  ``uninstall`` puts the original bindings
back; the untraced path never sees a wrapper.

``Memos`` finds every ``functools.cache`` memo of the ``defres`` modules by
looking for objects with ``cache_clear``, so a memo added later is cleared
and counted without an edit here.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

import defres
from defres.partitions import partitions_of
from defres.perms import cycles

# Layer functions timed at their cross-module call sites, as <module>.<name>.
SPANS = (
    "deflation.defres_recursive",
    "deflation.defres_theorem",
    "deflation.defres_sign",
    "abacus.is_n_decomposable",
    "abacus.n_quotient",
    "characters.skew_character",
    "characters.irreducible_character",
    "characters._induced",
    "partitions.intermediates",
    "partitions.partitions_of",
    "partitions.centralizer_order",
    "borderstrips.mn_value",
    "borderstrips.a_coefficient",
    "borderstrips.enumerate_m_bst",
    "wreath.oracle_defres",
    "cli.main",
)

# Memos reported as metrics; any other memo found is still cleared and is
# listed in the run context.
MEMOS = (
    "borderstrips._strip_removals",
    "borderstrips._strip_additions",
    "borderstrips._mn",
    "borderstrips._a_count",
    "deflation._single_cycle",
    "deflation._recursive",
    "characters._induced",
    "characters.skew_character",
    "characters.irreducible_character",
    "partitions._partition_tuples",
)


def layer_modules() -> dict[str, object]:
    """Every submodule of ``defres``, imported, by short name."""
    return {
        info.name: importlib.import_module(f"defres.{info.name}")
        for info in pkgutil.iter_modules(defres.__path__)
    }


class Memos:
    """Every memo in the ``defres`` modules, with hits and misses summed
    over the clears and the largest size seen before a clear."""

    def __init__(self):
        self.memos = {}
        for short, module in layer_modules().items():
            for attr, obj in vars(module).items():
                if (
                    callable(getattr(obj, "cache_clear", None))
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    self.memos[f"{short}.{attr}"] = obj
        self.totals = {name: [0, 0, 0] for name in self.memos}

    def clear(self) -> None:
        for name, memo in self.memos.items():
            info = memo.cache_info()
            total = self.totals[name]
            total[0] += info.hits
            total[1] += info.misses
            total[2] = max(total[2], info.currsize)
            memo.cache_clear()
            if memo.cache_info().currsize != 0:
                raise RuntimeError(f"memo {name} is not empty after cache_clear")

    def reset_counts(self) -> None:
        self.clear()
        self.totals = {name: [0, 0, 0] for name in self.memos}

    def metrics(self) -> dict[str, int]:
        out = {}
        for name in MEMOS:
            hits, misses, size = self.totals.get(name, (0, 0, 0))
            out[f"{name}.hits"] = hits
            out[f"{name}.misses"] = misses
            out[f"{name}.currsize"] = size
        return out

    def unlisted(self) -> list[str]:
        return sorted(set(self.memos) - set(MEMOS))


class Tracer:
    """Timing wrappers on the cross-module bindings of the ``SPANS``."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.stats = {name: [0, 0.0] for name in SPANS}  # calls, self seconds
        self.site_calls: dict[tuple[str, str], int] = {}
        self.decomposable = 0
        self.assignments = 0
        self.tableaux = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        modules = layer_modules()
        sites = [("defres", defres)] + list(modules.items()) + [
            (m.__name__, m) for m in self.extra_modules
        ]
        for name in SPANS:
            home, attr = name.split(".")
            original = getattr(modules.get(home), attr, None)
            if original is None:  # reported as 0 calls, and listed
                self.missing.append(name)
                continue
            for site, module in sites:
                if module is modules[home]:
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, self._wrap(name, original, site))
                        self._patched.append((module, binding, original))

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    def _wrap(self, name, fn, site):
        stack = self._stack
        stats = self.stats[name]
        key = (site, name)
        self.site_calls.setdefault(key, 0)
        clock = time.perf_counter
        after = {  # counts of useful work, from arguments and results
            "abacus.is_n_decomposable": self._count_decomposable,
            "wreath.oracle_defres": self._count_assignments,
            "borderstrips.enumerate_m_bst": self._count_tableaux,
        }.get(name)

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
                self.site_calls[key] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_decomposable(self, args, result) -> None:
        self.decomposable += bool(result)

    def _count_assignments(self, args, result) -> None:
        # p(m) ** (number of cycles of g): the class assignments averaged over
        theta, g = args[1], args[3]
        self.assignments += len(partitions_of(theta.degree)) ** len(cycles(g))

    def _count_tableaux(self, args, result) -> None:
        self.tableaux += len(result)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in SPANS:
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        checks = self.stats["abacus.is_n_decomposable"][0]
        out["abacus.is_n_decomposable.true_ratio"] = (
            self.decomposable / checks if checks else 0.0
        )
        oracle_mn = self.site_calls.get(("wreath", "borderstrips.mn_value"), 0)
        out["wreath.oracle_defres.mn_per_assignment"] = (
            oracle_mn / self.assignments if self.assignments else 0.0
        )
        out["borderstrips.enumerate_m_bst.tableaux"] = self.tableaux
        return out

    def call_graph(self) -> dict[str, int]:
        """Calls per (calling module, layer function), for the run context."""
        return {
            f"{site}->{name}": calls
            for (site, name), calls in sorted(self.site_calls.items())
            if calls
        }

