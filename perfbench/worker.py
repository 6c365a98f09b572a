"""One workload run in a fresh process: set up, time repeated calls, check outputs.

Started by run.py with ``src`` on PYTHONPATH.  It prints ``READY`` once the
first call could start (eigraph imported, inputs generated), then one JSON
line with the measurements.  One caller, no threads, closed loop: each
``eigraph.cli.main(argv)`` call starts when the previous one returns.

The timed run first makes one pass over the workload's fixed call list,
then spends the rest of ``--seconds`` repeating calls: each call runs at
least twice and is given about the same total time, so cheap calls repeat
often (up to MAX_REPEATS times), and the repeats of a call are spread
evenly over the run.  A call's latency is the 90th percentile of its runs,
the time nine in ten of its runs stay within.  The host's cores are shared,
and for seconds to minutes at a time every call takes up to twice as long;
a run is seldom free of such stretches, so the slow state they share is
the figure that repeats from run to run, where a mean or a minimum would
follow how much of the run the host happened to leave free.  ``wall_s`` is
the sum of these latencies over the call list, the time one pass takes,
and the call percentiles are taken over them, one per call.

With ``--trace 1`` the run is one untraced pass followed by one traced pass;
the per-layer numbers come from the traced pass, and the difference of the
two pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import sys
import time
import zlib

from eigraph import cli

from bench_checks import check_call
from bench_inputs import generate
from bench_trace import Tracer

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
CALL_PCT = 90.0
MIN_RUNS = 2
MAX_REPEATS = 40


def tail_percentile(calls_per_pass: int) -> float:
    """Highest ladder percentile with at least ten calls of the list beyond it.

    Fixed by the call list, so it is the same on every run of a workload.
    With fewer than 20 calls none qualifies and the tail is the maximum (100).
    """
    for pct in TAIL_LADDER:
        if calls_per_pass * (1 - pct / 100) >= TAIL_MIN_BEYOND:
            return pct
    return 100.0


def percentile(values, pct: float) -> float:
    """Harrell-Davis estimate: a Beta-weighted mean of all order statistics.

    The calls of a workload differ in cost by orders of magnitude, so a
    single order statistic jumps between neighbouring calls when noise
    reorders them; weighting the ranks around ``pct`` keeps it steady.
    """
    x = sorted(values)
    n = len(x)
    if pct >= 100 or n == 1:
        return x[-1] if pct >= 100 else x[0]
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16 * n  # Simpson's rule on an even grid, 16 intervals per rank

    def density(t):
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) if 0 < t < 1 else 0.0

    f = [density(k / steps) for k in range(steps + 1)]
    weights = [
        sum(f[k] + 4 * f[k + 1] + f[k + 2] for k in range(16 * i, 16 * (i + 1), 2)) for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


class Outcomes:
    """Per distinct argv: output digest, runs, and calls that failed."""

    def __init__(self):
        self.by_key: dict[str, dict] = {}
        self._pending: dict[str, tuple] = {}

    def add(self, call, code, error, out: str, latency: float) -> None:
        digest = hashlib.sha256(out.encode()).hexdigest()
        entry = self.by_key.setdefault(
            call.key,
            {"argv": call.key, "sha256": digest, "runs": 0, "failed": 0, "reason": None, "latency_s": []},
        )
        entry["runs"] += 1
        entry["latency_s"].append(latency)
        if error is not None or code != 0:
            reason = error or f"exit code {code}"
        elif digest != entry["sha256"]:
            reason = "output differs between passes"
        else:
            if call.key not in self._pending:
                # Compressed, so holding outputs barely moves the peak RSS measured.
                self._pending[call.key] = (call, zlib.compress(out.encode()))
            return
        entry["failed"] += 1
        entry["reason"] = entry["reason"] or reason

    def check(self) -> None:
        """Check each distinct output once; a failed check fails every run of it."""
        for key, (call, packed) in self._pending.items():
            reason = check_call(call, zlib.decompress(packed).decode())
            if reason is not None:
                entry = self.by_key[key]
                entry["failed"] = entry["runs"]
                entry["reason"] = reason
        self._pending.clear()


def run_call(index: int, call, outcomes: Outcomes, tracer: Tracer | None = None) -> float:
    """Run one call; return its latency in seconds."""
    gc.collect()
    if tracer is not None:
        tracer.begin_call(index, call.window)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(call.argv))
        except Exception as exc:  # a crash is a failed call, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    text = out.getvalue()
    if tracer is not None:
        tracer.output_bytes += len(text.encode())
    outcomes.add(call, code, error, text, latency)
    return latency


def run_pass(calls, outcomes: Outcomes, tracer: Tracer | None = None) -> list[float]:
    """Run the call list once; return per-call latencies in seconds."""
    return [run_call(index, call, outcomes, tracer) for index, call in enumerate(calls)]


def plan_repeats(first: list[float], budget: float) -> list[int]:
    """Runs per call (first pass included) so each call gets about the same time.

    Call i runs clamp(level / first[i], MIN_RUNS, MAX_REPEATS) times, with the
    level the largest one whose extra runs fit in ``budget`` seconds; when not
    even MIN_RUNS fit, the run's deadline cuts the schedule short.
    """

    def runs(level: float) -> list[int]:
        return [min(MAX_REPEATS, max(MIN_RUNS, int(level / max(t, 1e-9)))) for t in first]

    def extra_cost(level: float) -> float:
        return sum((r - 1) * t for r, t in zip(runs(level), first))

    lo, hi = 0.0, max(first) * MAX_REPEATS
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if extra_cost(mid) <= budget else (lo, mid)
    return runs(lo)


def measure(calls, seconds: float) -> tuple[list[list[float]], Outcomes]:
    """Latencies of every run of every call: a first pass, then spread repeats."""
    outcomes = Outcomes()
    start = time.perf_counter()
    first = run_pass(calls, outcomes)
    latencies = [[t] for t in first]
    runs = plan_repeats(first, seconds - (time.perf_counter() - start))
    # Repeat k of a call run r times sits at k / r of the run.
    schedule = sorted((k / r, i) for i, r in enumerate(runs) for k in range(1, r))
    for _, i in schedule:
        if time.perf_counter() - start + latencies[i][0] > seconds:
            break
        latencies[i].append(run_call(i, calls[i], outcomes))
    return latencies, outcomes


def end_to_end(calls, seconds: float) -> dict:
    latencies, outcomes = measure(calls, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes.check()
    per_call = [percentile(runs, CALL_PCT) for runs in latencies]
    pct = tail_percentile(len(calls))
    return {
        "metrics": {
            "wall_s": sum(per_call),
            "call_p50_ms": percentile(per_call, 50) * 1e3,
            "call_tail_ms": percentile(per_call, pct) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        },
        "repeats_min": min(len(runs) for runs in latencies),
        "repeats_max": max(len(runs) for runs in latencies),
        "tail_percentile": pct,
        "latency_samples": len(calls),
        "outcomes": list(outcomes.by_key.values()),
    }


def per_layer(calls, spans_path: str | None) -> dict:
    outcomes = Outcomes()
    untraced = sum(run_pass(calls, outcomes))
    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(run_pass(calls, outcomes, tracer))
    finally:
        tracer.uninstall()
    outcomes.check()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced - untraced
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "busy_ns", "parent", "call"], "spans": tracer.spans}, handle)
    return {
        "metrics": metrics,
        "passes": 2,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "outcomes": list(outcomes.by_key.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    calls = generate(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = per_layer(calls, args.spans)
    else:
        result = end_to_end(calls, args.seconds)
    result["calls_per_pass"] = len(calls)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
