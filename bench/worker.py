"""One workload in one fresh process: set-up, a timed closed loop, checks.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only]

``bench/run.py`` starts this file; it is not meant to be run by hand.  It
prints ``ready`` once ``defres`` is imported and the inputs are built, then
(unless ``--setup-only``) one JSON object as its last line.

With ``--trace 0`` the loop issues items until about ``--seconds`` have
passed; every memo is cleared before each item, so each starts cold, and
the reference computation of ``hostspeed.py`` interrupts the loop at even
intervals of wall time, so every time is reported at the nominal host
speed.  With
``--trace 1`` each query of a fixed, seed-determined batch runs twice, first
untraced and then with the span wrappers of ``tracing.py`` installed, so the
counts repeat exactly and ``trace.overhead_ratio`` compares the same work.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path
from statistics import fmean, median

TAIL_SHARE = 0.05  # latency_tail_ms: mean time of this slowest share of queries

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import defres  # noqa: E402

if Path(defres.__file__).resolve().parent != SRC / "defres":
    sys.exit(f"error: imported defres from {defres.__file__}, not from {SRC}")

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_items(items, memos, seconds: float | None, rounds: int, speed=None):
    """Closed loop over the iterable ``items``; returns (runs, loop seconds).

    Each run is (answer or exception, seconds); the items are not kept, so
    peak memory is the program's.  With ``seconds`` None every item runs
    once; otherwise the loop stops at a boundary of ``rounds`` items once
    another round would overrun ``seconds`` of wall time.  A query is timed
    by the CPU time of this process: the loop has one thread and does no
    I/O, so that is its wall time less the time the machine gave to others,
    which on a shared host varies from run to run.  When ``speed`` is a
    ``hostspeed.HostSpeed``, its reference samples run all through the loop,
    the time of those taken inside a query is not counted to it, and
    ``speed.spans`` gets one entry per query.
    """
    runs = []
    wall, cpu = time.perf_counter, time.process_time
    # without ``speed``, a HostSpeed that is never started takes no samples
    speed = speed or contextlib.nullcontext(hostspeed.HostSpeed())
    start = wall()
    with speed as reference:
        for i, item in enumerate(items, start=1):
            memos.clear()
            t0, r0, n0 = cpu(), reference.total_s, len(reference.samples)
            try:
                answer = item.run()
            except Exception as exc:  # counted as a failed query, loop goes on
                answer = exc
            seconds_taken = cpu() - t0 - (reference.total_s - r0)
            reference.spans.append((n0, len(reference.samples)))
            if item.digest is not None and not isinstance(answer, Exception):
                answer = item.digest(answer)
            runs.append((answer, seconds_taken))
            if seconds is not None and i % rounds == 0:
                elapsed = wall() - start
                if elapsed + elapsed / (i // rounds) > seconds:
                    break
    memos.clear()
    return runs, wall() - start


def check(item, answer) -> int:
    """Wrong queries in one answer; an answer that cannot be checked is wrong."""
    if isinstance(answer, Exception):
        print(f"query {item.params} raised {answer!r}", file=sys.stderr)
        return item.queries
    try:
        wrong = item.check(answer)
    except Exception as exc:
        print(f"check of {item.params} raised {exc!r}", file=sys.stderr)
        return item.queries
    if wrong:
        print(f"query {item.params} answered wrongly", file=sys.stderr)
    return wrong


def check_runs(items, runs) -> tuple[int, int, list[str]]:
    """(queries attempted, queries failed, distinct inputs) of ``runs``, made
    from ``items`` in order; an input seen before is checked again only
    when it answers differently."""
    attempted = failed = 0
    verdicts: dict = {}
    for item, (answer, _) in zip(items, runs):
        attempted += item.queries
        seen = verdicts.get(item.params)
        if seen is None or seen[0] != answer:
            seen = verdicts[item.params] = (answer, check(item, answer))
        failed += seen[1]
    return attempted, failed, list(verdicts)


def latency_summary(samples: list[float]) -> dict:
    """Median, and the tail: the mean of the slowest ``TAIL_SHARE`` of the
    samples (at least one).  A high percentile of a run's few hundred slow
    queries moves by a fifth with the seed's shapes; their mean does not.
    The highest percentile with ten samples beyond it is returned too, for
    the run context."""
    ordered = sorted(samples)
    slowest = ordered[-max(1, math.ceil(TAIL_SHARE * len(ordered))) :]
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)  # 1-based
    return {
        "p50_s": median(ordered),
        "tail_s": fmean(slowest),
        "tail_samples": len(slowest),
        "top_s": ordered[rank - 1],
        "top_percentile": 100.0 * rank / len(ordered),
        "samples": len(ordered),
    }


def timed_run(items, memos, seconds: float, rounds: int):
    """End-to-end metrics of an untraced closed loop; returns (runs, metrics,
    context)."""
    speed = hostspeed.HostSpeed()
    runs, loop_s = run_items(items, memos, seconds, rounds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured_s = sum(t for _, t in runs)
    times = [scale * t for scale, (_, t) in zip(speed.span_scales(), runs)]
    latency = latency_summary(times)
    metrics = {  # queries_per_s is added once the queries are counted
        "latency_p50_ms": 1000 * latency["p50_s"],
        "latency_tail_ms": 1000 * latency["tail_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    context = {
        "loop_s": loop_s,
        "measured_s": measured_s,
        "busy_s": sum(times),  # at nominal host speed
        "host_scale": sum(times) / measured_s,
        "reference_samples": len(speed.samples),
        "reference_mean_s": sum(speed.samples) / len(speed.samples),
        "latency_tail_samples": latency["tail_samples"],
        "latency_top_ms": 1000 * latency["top_s"],
        "latency_top_percentile": latency["top_percentile"],
        "latency_samples": latency["samples"],
    }
    return runs, metrics, context


def traced_run(items: list, memos):
    """Per-layer metrics of ``items`` run traced; returns (runs, metrics,
    context).  Each item also runs untraced just before, with the memos
    cleared in between, so both sides of ``trace.overhead_ratio`` see the
    same warm interpreter."""
    tracer = tracing.Tracer([workloads])
    untraced_memos = tracing.Memos()  # keeps the untraced counts apart
    untraced, runs = [], []
    for item in items:
        untraced += run_items([item], untraced_memos, None, 1)[0]
        tracer.install()
        try:
            runs += run_items([item], memos, None, 1)[0]
        finally:
            tracer.uninstall()
    untraced_s = sum(t for _, t in untraced)
    traced_s = sum(t for _, t in runs)
    metrics = {**tracer.metrics(), **memos.metrics()}
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    context = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "missing_spans": tracer.missing,
        "call_graph": tracer.call_graph(),
    }
    return runs, metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    make_stream, rounds, traced = workloads.WORKLOADS[args.workload]
    stream = make_stream(args.seed)
    if args.trace:
        items = list(itertools.islice(stream, traced))
    else:  # the first query is built; later ones are built between queries
        items = itertools.chain([next(stream)], stream)
    memos = tracing.Memos()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        runs, metrics, context = traced_run(items, memos)
    else:
        runs, metrics, context = timed_run(items, memos, args.seconds, rounds)
        items = make_stream(args.seed)  # the same inputs again, for the checks
    attempted, failed, inputs = check_runs(items, runs)
    if not args.trace:
        metrics["queries_per_s"] = attempted / context["busy_s"]
    context.update(
        error_rate=failed / attempted,
        unlisted_memos=memos.unlisted(),
        inputs=inputs,
    )
    # every query run was checked (verify's check also compares each sweep's
    # cells with the benchmark's own instance counts)
    correct = failed == 0 and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "context": context,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
