"""Benchmark of defres: the recursive, tableau and verify workloads.

    python3 bench/run.py --workload recursive|tableau|verify|all
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``src/defres`` is imported from source.
Each workload runs in fresh processes started from ``bench/worker.py``: one
caller, one thread, the next query issued only when the last returns.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median,
over several fresh processes, of the time from starting the interpreter to
the first query being ready (``import defres`` and building the inputs).
Every time is scaled to the nominal host speed of ``hostspeed.py``: the
worker samples its reference all through the timed loop, and this process
samples it before starting each worker.
``--trace 1`` prints the per-layer metrics of a traced run, recorded from
the benchmark's own files (see ``tracing.py``), and ``trace.overhead_ratio``.

Every answer is checked outside the timed region.  Before the result the
run prints a ``context`` line (git sha, Python, nproc, seed, the generated
parameters, error rate, tail percentile) and a table of the metrics with
their units; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when a
result was printed; ``--workload all`` runs every workload and ends with
one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("recursive", "tableau", "verify")
SETUP_RUNS = 11  # fresh processes timed for setup_s, the measured run included
SETUP_SAMPLES = 10  # reference samples before each of them
TIMEOUT_S = 170

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_ratio", ".mn_per_assignment")):
        return "ratio"
    return "count"


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class WorkerFailed(RuntimeError):
    pass


def _start(workload: str, seed: int, seconds: int, trace: int, setup_only: bool):
    argv = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited with code {proc.returncode}")
    return setup_s, out


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    speed = hostspeed.HostSpeed(clock=time.perf_counter)  # setup_s is wall time
    setups = []
    for _ in range(0 if trace else SETUP_RUNS - 1):
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        setups.append(_start(workload, seed, seconds, trace, setup_only=True)[0])
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    setup_s, out = _start(workload, seed, seconds, trace, setup_only=False)
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{workload} worker printed no result")
    result = json.loads(lines[-1])
    context = result.pop("context")
    if trace:
        result["metrics"] = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["metrics"].items()
        }
    else:
        setups.append(setup_s)
        values = dict(result["metrics"], setup_s=speed.scale() * median(setups))
        result["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        context["setup_runs_s"] = setups
        context["setup_reference_mean_s"] = sum(speed.samples) / len(speed.samples)
    context["error_rate"] = {"value": context["error_rate"], "unit": "ratio"}
    context.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        git_sha=git_sha(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    return {"context": context, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "defres" / "__init__.py").is_file():
        print(f"error: no src/defres under {ROOT} to benchmark", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, args.trace)
        except (WorkerFailed, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"context": run["context"]}))
        result = results[name] = run["result"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        rows = dict(result["metrics"], error_rate=run["context"]["error_rate"])
        for metric, entry in rows.items():
            print(f"  {metric:45s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
