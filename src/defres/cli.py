"""Command line front end.

Six subcommands: ``defres`` evaluates a deflated character, ``mn`` a skew
character, ``tableaux`` lists (m-)border-strip tableaux, ``quotient``
prints abacus displays and the n-quotient, ``farahat`` compares both sides
of the stretched-class identity, and ``verify`` cross-validates the
evaluators against the averaging oracle over a grid of small shapes.

Shapes and types use the text grammar of :mod:`defres.partitions`.  With
``--format json`` each command prints a single JSON object with sorted
keys, so parsing and re-rendering the output is byte-identical.

Exit codes: 0 success, 1 precondition violation (and failed verification,
and a cycle type too long for the recursion limit), 2 unparsable
arguments, 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abacus import n_quotient, paired_displays
from .borderstrips import enumerate_m_bst, mn_value
from .characters import irreducible_character
from .deflation import (
    DeflationQuery,
    defres_recursive,
    defres_sign,
    defres_theorem,
    farahat_check,
)
from .partitions import Composition, Partition, SkewPartition, partitions_of, skew_shapes
from .perms import cycle_notation, with_cycle_type
from .wreath import DEFAULT_BUDGET, BudgetExceeded, oracle_defres


def _resolve_theta(text: str, m: int) -> Partition:
    if text == "trivial":
        return Partition((m,))
    if text == "sign":
        return Partition((1,) * m)
    theta = Partition.parse(text)
    if theta.size != m:
        raise ValueError(f"|theta| = {theta.size} does not match m = {m}")
    return theta


def _cmd_defres(args) -> tuple[str, dict]:
    shape: SkewPartition = args.shape
    if args.m < 1:
        raise ValueError(f"m must be at least 1, got {args.m}")
    if shape.size % args.m != 0:
        raise ValueError(f"m = {args.m} does not divide |shape| = {shape.size}")
    n = shape.size // args.m
    theta = _resolve_theta(args.theta, args.m)
    query = DeflationQuery(shape, args.m, n, theta, args.gamma)
    evaluator = args.evaluator
    if evaluator == "auto":
        evaluator = "tableau" if theta == Partition((args.m,)) else "recursive"
    if evaluator == "tableau":
        value = defres_theorem(query)
    elif evaluator == "recursive":
        value = defres_recursive(query)
    else:
        g = with_cycle_type(args.gamma, n)
        value = oracle_defres(
            shape,
            irreducible_character(theta),
            n,
            g,
            budget=args.budget,
            naive=(evaluator == "oracle-naive"),
        )
    text = f"value: {value}\nevaluator: {evaluator}"
    payload = {
        "command": "defres",
        "evaluator": evaluator,
        "gamma": list(args.gamma),
        "m": args.m,
        "n": n,
        "shape": str(shape),
        "theta": list(theta),
        "value": value,
    }
    return text, payload


def _cmd_mn(args) -> tuple[str, dict]:
    value = mn_value(args.shape, args.gamma)
    payload = {
        "command": "mn",
        "gamma": list(args.gamma),
        "shape": str(args.shape),
        "value": value,
    }
    return str(value), payload


def _cmd_tableaux(args) -> tuple[str, dict]:
    tableaux = enumerate_m_bst(args.shape, args.m, args.gamma)
    blocks = []
    for t in tableaux:
        blocks.append(f"{t.render()}\nsign: {t.sign:+d}")
    total = sum(t.sign for t in tableaux)
    blocks.append(f"tableaux: {len(tableaux)}\nsigned count: {total}")
    payload = {
        "command": "tableaux",
        "count": len(tableaux),
        "gamma": list(args.gamma),
        "m": args.m,
        "shape": str(args.shape),
        "signed_count": total,
        "tableaux": [
            {
                "chain": [list(p) for p in t.chain],
                "grid": t.render(),
                "labels": list(t.labels),
                "sign": t.sign,
            }
            for t in tableaux
        ],
    }
    return "\n\n".join(blocks), payload


def _cmd_quotient(args) -> tuple[str, dict]:
    shape: SkewPartition = args.shape
    quotient = n_quotient(shape, args.n)
    d_outer, d_inner = paired_displays(shape, args.n)
    lines = [
        "outer display:",
        d_outer.render(),
        "inner display:",
        d_inner.render(),
    ]
    for i, comp in enumerate(quotient.components):
        lines.append(f"component {i}: {comp}")
    rho = tuple(r - 1 for r in quotient.relabelling)
    lines.append(f"relabelling: {cycle_notation(rho)}")
    lines.append(f"sign: {quotient.sign:+d}")
    payload = {
        "command": "quotient",
        "components": [str(c) for c in quotient.components],
        "n": args.n,
        "relabelling": list(quotient.relabelling),
        "shape": str(shape),
        "sign": quotient.sign,
    }
    return "\n".join(lines), payload


def _cmd_farahat(args) -> tuple[str, dict]:
    lhs, rhs = farahat_check(args.shape, args.n, args.alpha)
    agree = lhs == rhs
    text = f"lhs: {lhs}\nrhs: {rhs}\nagree: {str(agree).lower()}"
    payload = {
        "agree": agree,
        "alpha": list(args.alpha),
        "command": "farahat",
        "lhs": lhs,
        "n": args.n,
        "rhs": rhs,
        "shape": str(args.shape),
    }
    return text, payload


def _verify_instance(shape, m, n, mode, theta, gamma) -> tuple[int, int]:
    query = DeflationQuery(shape, m, n, theta, Composition(gamma))
    if mode == "trivial":
        claimed = defres_theorem(query)
    elif mode == "sign":
        claimed = defres_sign(query)
    else:
        claimed = defres_recursive(query)
    g = with_cycle_type(gamma, n)
    expected = oracle_defres(shape, irreducible_character(theta), n, g)
    return claimed, expected


def _cmd_verify(args) -> tuple[str, dict]:
    modes: list[tuple[str, Partition | None]]
    if args.theta is None:
        modes = [("trivial", None), ("sign", None)]
    elif args.theta in ("trivial", "sign"):
        modes = [(args.theta, None)]
    else:
        kappa = Partition.parse(args.theta)
        modes = [("general", kappa)]
    cells = []
    failures = []
    for m in range(2, args.max_size + 1):
        for n in range(2, args.max_size + 1):
            if m * n > args.max_size:
                continue
            for mode, kappa in modes:
                if mode == "general" and kappa.size != m:
                    continue
                theta = kappa if mode == "general" else _resolve_theta(mode, m)
                instances = 0
                cell_failures = 0
                for shape in skew_shapes(m * n, args.inner_max):
                    for gamma in partitions_of(n):
                        claimed, expected = _verify_instance(
                            shape, m, n, mode, theta, gamma
                        )
                        instances += 1
                        if claimed != expected:
                            cell_failures += 1
                            if len(failures) < 5:
                                failures.append(
                                    f"m={m} n={n} theta={theta} shape={shape} "
                                    f"gamma={gamma}: {claimed} != {expected}"
                                )
                cells.append(
                    {
                        "failures": cell_failures,
                        "instances": instances,
                        "m": m,
                        "n": n,
                        "theta": mode if mode != "general" else str(kappa),
                    }
                )
    if not cells:
        raise ValueError(
            f"nothing to verify: no cell with m, n >= 2 and m * n <= "
            f"{args.max_size} fits theta {args.theta or 'trivial, sign'}"
        )
    ok = all(c["failures"] == 0 for c in cells)
    lines = [
        f"m={c['m']} n={c['n']} theta={c['theta']}: "
        f"{c['instances']} instances, {c['failures']} failures"
        for c in cells
    ]
    lines.extend(failures)
    lines.append("verify: ok" if ok else "verify: FAILED")
    payload = {
        "cells": cells,
        "command": "verify",
        "failures": failures,
        "inner_max": args.inner_max,
        "max_size": args.max_size,
        "ok": ok,
    }
    return "\n".join(lines), payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defres",
        description="Exact deflation of restricted symmetric group characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("defres", help="evaluate a deflated skew character")
    p.add_argument("--shape", type=SkewPartition.parse, required=True)
    p.add_argument("--m", type=int, required=True, help="base group degree")
    p.add_argument("--gamma", type=Composition.parse, required=True,
                   help="cycle type in the deflated group")
    p.add_argument("--theta", default="trivial",
                   help="deflating character: trivial, sign, or a partition of m")
    p.add_argument("--evaluator",
                   choices=("auto", "tableau", "recursive", "oracle", "oracle-naive"),
                   default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="evaluation budget for the naive oracle")
    add_common(p)
    p.set_defaults(handler=_cmd_defres)

    p = sub.add_parser("mn", help="evaluate a skew character by strip counts")
    p.add_argument("--shape", type=SkewPartition.parse, required=True)
    p.add_argument("--gamma", type=Composition.parse, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_mn)

    p = sub.add_parser("tableaux", help="list (m-)border-strip tableaux")
    p.add_argument("--shape", type=SkewPartition.parse, required=True)
    p.add_argument("--gamma", type=Composition.parse, required=True)
    p.add_argument("--m", type=int, default=1)
    add_common(p)
    p.set_defaults(handler=_cmd_tableaux)

    p = sub.add_parser("quotient", help="abacus displays and the n-quotient")
    p.add_argument("--shape", type=SkewPartition.parse, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("farahat", help="check the stretched-class identity")
    p.add_argument("--shape", type=SkewPartition.parse, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=Partition.parse, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_farahat)

    p = sub.add_parser("verify", help="cross-validate evaluators against the oracle")
    p.add_argument("--max-size", type=int, default=10,
                   help="largest m * n cell to sweep (default 10)")
    p.add_argument("--inner-max", type=int, default=2,
                   help="largest inner shape in the sweep (default 2)")
    p.add_argument("--theta", default=None,
                   help="restrict to one deflating character (default: trivial and sign)")
    add_common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, payload = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # the strip recursions go one level deeper per part of the cycle type
        print(
            "error: cycle type has too many parts for the recursion limit",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    if args.command == "verify" and not payload["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
