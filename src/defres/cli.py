"""Command line front end.

Six subcommands: ``defres`` evaluates a deflated character, ``mn`` a skew
character, ``tableaux`` lists (m-)border-strip tableaux, ``quotient``
prints abacus displays and the n-quotient, ``farahat`` compares both sides
of the stretched-class identity, and ``verify`` cross-validates the
evaluators against the averaging oracle over a grid of small shapes.

Shapes and types use the text grammar of :mod:`defres.partitions`.  With
``--format json`` each command prints a single JSON object with sorted
keys, so parsing and re-rendering the output is byte-identical.

Exit codes: 0 success, 1 precondition violation (among them ``quotient`` or
``farahat`` with n above max(|outer|, 1) runners; and failed verification,
an input too deep for the recursion limit: one level per part of gamma or
cell of the quotient, and stdout closed by the reader before the output was
written), 2 unparsable arguments, 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .abacus import display, n_quotient
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
    return Partition.parse(text)


def _budget(text: str) -> int:
    # an argparse type, so a negative budget is an argument error (exit 2)
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _evaluate(query: DeflationQuery, evaluator: str, budget: int = DEFAULT_BUDGET) -> int:
    if evaluator == "tableau":
        return defres_theorem(query)
    if evaluator == "sign":
        return defres_sign(query)
    if evaluator == "recursive":
        return defres_recursive(query)
    theta = irreducible_character(query.theta)
    g = with_cycle_type(query.gamma, query.n)
    naive = evaluator == "oracle-naive"
    return oracle_defres(query.shape, theta, query.n, g, budget=budget, naive=naive)


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
    value = _evaluate(query, evaluator, args.budget)
    text = f"value: {value}\nevaluator: {evaluator}"
    payload = {
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
        "gamma": list(args.gamma),
        "shape": str(args.shape),
        "value": value,
    }
    return str(value), payload


def _cmd_tableaux(args) -> tuple[str, dict]:
    tableaux = [
        (t, t.render(), t.sign)
        for t in enumerate_m_bst(args.shape, args.m, args.gamma)
    ]
    blocks = [f"{grid}\nsign: {sign:+d}" for _, grid, sign in tableaux]
    total = sum(sign for _, _, sign in tableaux)
    blocks.append(f"tableaux: {len(tableaux)}\nsigned count: {total}")
    payload = {
        "count": len(tableaux),
        "gamma": list(args.gamma),
        "m": args.m,
        "shape": str(args.shape),
        "signed_count": total,
        "tableaux": [
            {
                "chain": [list(p) for p in t.chain],
                "grid": grid,
                "labels": list(t.labels),
                "sign": sign,
            }
            for t, grid, sign in tableaux
        ],
    }
    return "\n\n".join(blocks), payload


def _check_runner_count(shape: SkewPartition, n: int) -> None:
    # n divides |outer/inner| <= |outer|: only a shape without boxes exceeds this
    if n > (limit := max(shape.outer.size, 1)):
        raise ValueError(f"n = {n} exceeds the runner limit max(|{shape.outer}|, 1) = {limit}")


def _cmd_quotient(args) -> tuple[str, dict]:
    shape: SkewPartition = args.shape
    _check_runner_count(shape, args.n)
    quotient = n_quotient(shape, args.n)
    d_outer = display(shape.outer, args.n)
    d_inner = display(shape.inner, args.n, rows=d_outer.bead_count // args.n)
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
        "components": [str(c) for c in quotient.components],
        "n": args.n,
        "relabelling": list(quotient.relabelling),
        "shape": str(shape),
        "sign": quotient.sign,
    }
    return "\n".join(lines), payload


def _cmd_farahat(args) -> tuple[str, dict]:
    _check_runner_count(args.shape, args.n)
    lhs, rhs = farahat_check(args.shape, args.n, args.alpha)
    agree = lhs == rhs
    text = f"lhs: {lhs}\nrhs: {rhs}\nagree: {str(agree).lower()}"
    payload = {
        "agree": agree,
        "alpha": list(args.alpha),
        "lhs": lhs,
        "n": args.n,
        "rhs": rhs,
        "shape": str(args.shape),
    }
    return text, payload


def _cmd_verify(args) -> tuple[str, dict]:
    # each deflating character swept, and the evaluator checked on it
    modes: dict = {"trivial": "tableau", "sign": "sign"}
    sizes = range(2, args.max_size // 2 + 1)  # the m that have a cell (n >= 2)
    if args.theta in modes:
        modes = {args.theta: modes[args.theta]}
    elif args.theta is not None:
        theta = Partition.parse(args.theta)
        modes = {theta: "recursive"}
        sizes = [theta.size] if theta.size in sizes else []
    cells = []
    failures = []
    for m in sizes:
        for n in range(2, args.max_size // m + 1):
            for label, evaluator in modes.items():
                theta = label if evaluator == "recursive" else _resolve_theta(label, m)
                start = time.perf_counter()
                # shared by the cell: theta's character and one top per gamma
                character = irreducible_character(theta)
                tops = [(gamma, with_cycle_type(gamma, n)) for gamma in partitions_of(n)]
                instances = 0
                cell_failures = 0
                for shape in skew_shapes(m * n, args.inner_max):
                    for gamma, g in tops:
                        query = DeflationQuery(shape, m, n, theta, gamma)
                        claimed = _evaluate(query, evaluator)
                        expected = oracle_defres(shape, character, n, g)
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
                        "seconds": time.perf_counter() - start,
                        "theta": str(label),
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
        f"{c['instances']} instances, {c['failures']} failures, "
        f"{c['seconds']:.3f} s"
        for c in cells
    ]
    lines.extend(failures)
    lines.append("verify: ok" if ok else "verify: FAILED")
    payload = {
        "cells": cells,
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

    def parsed(parse):  # an argparse type that keeps the parse error's reason
        def convert(text):
            try:
                return parse(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(exc) from None
        return convert

    def add_common(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("defres", help="evaluate a deflated skew character")
    p.add_argument("--shape", type=parsed(SkewPartition.parse), required=True)
    p.add_argument("--m", type=int, required=True, help="base group degree")
    p.add_argument("--gamma", type=parsed(Composition.parse), required=True,
                   help="cycle type in the deflated group")
    p.add_argument("--theta", default="trivial",
                   help="deflating character: trivial, sign, or a partition of m")
    p.add_argument("--evaluator",
                   choices=("auto", "tableau", "recursive", "oracle", "oracle-naive"),
                   default="auto")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                   help="evaluation budget for both oracles, an integer >= 0: "
                   "class multisets for oracle, base tuples for oracle-naive")
    add_common(p)
    p.set_defaults(handler=_cmd_defres)

    p = sub.add_parser("mn", help="evaluate a skew character by strip counts")
    p.add_argument("--shape", type=parsed(SkewPartition.parse), required=True)
    p.add_argument("--gamma", type=parsed(Composition.parse), required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_mn)

    p = sub.add_parser("tableaux", help="list (m-)border-strip tableaux")
    p.add_argument("--shape", type=parsed(SkewPartition.parse), required=True)
    p.add_argument("--gamma", type=parsed(Composition.parse), required=True)
    p.add_argument("--m", type=int, default=1)
    add_common(p)
    p.set_defaults(handler=_cmd_tableaux)

    p = sub.add_parser("quotient", help="abacus displays and the n-quotient")
    p.add_argument("--shape", type=parsed(SkewPartition.parse), required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("farahat", help="check the stretched-class identity")
    p.add_argument("--shape", type=parsed(SkewPartition.parse), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=parsed(Partition.parse), required=True)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # a shape or type may start with "-" ("-/-"), so bind it to its option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--shape", "--gamma", "--alpha"):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        text, payload = args.handler(args)
        payload["command"] = args.command
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # the strip walks recurse once per part of gamma and the LR fillings
        # once per cell
        print("error: input too deep for the recursion limit (one level per "
              "part or cell)", file=sys.stderr)
        return 1
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if args.command == "verify" and not payload["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
