"""eigraph benchmark: CLI workloads timed end to end, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B
    python3 perfbench/run.py --record-digests

A run starts a fresh worker process (perfbench/worker.py) that drives
``eigraph.cli.main(argv)`` in process on the workload's seeded call list and
checks every output after the timed calls.  Set-up is timed from starting
a worker until it is ready for its first call; eight more workers are
started only to be set up, four before the timed worker and four after it,
and ``setup_s`` is the median of the nine.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
named in BENCHMARK.json, with ``--trace 1`` the per-layer ones.  Lines
before it print every metric with its unit, ``fail_share``, and the run's
record, which is also written to ``--out`` (default perfbench/results) as
``run-*.json``, with the spans of a traced run beside it.  For the default
seed every output's SHA-256 must equal the one in perfbench/digests.json;
``--record-digests`` rewrites that file from the current source.

``--compare A B`` reads two such result directories and prints, per
workload and end-to-end metric, both medians and quartiles and whether the
medians differ by more than the metric's bound, then the per-layer self
time deltas of the traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES_EACH_SIDE = 4
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from bench_inputs import DEFAULT_SEED, WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("EIG_MAX_T", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _start_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Run a worker; return (seconds until it printed READY, its last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 1.0))[0]:
                raise subprocess.TimeoutExpired(cmd, RUN_DEADLINE_S)
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker passed the run deadline") from None
        if proc.returncode != 0 or first.strip() != "READY":
            raise BenchError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_record() -> dict:
    files = sorted((SRC / "eigraph").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_eigraph_lines": lines, "src_sha256": digest.hexdigest()}


def _load_spec() -> dict:
    return json.loads(SPEC.read_text())


def _apply_digests(workload: str, seed: int, outcomes: list[dict]) -> bool:
    """Fail calls whose output differs from the recorded digest (default seed only)."""
    if seed != DEFAULT_SEED:
        return False
    recorded = json.loads(DIGESTS.read_text()).get(workload)
    if recorded is None:
        raise BenchError(f"digests.json has no {workload}; re-record it")
    if set(recorded) != {o["argv"] for o in outcomes}:
        raise BenchError("digests.json does not list this workload's calls; re-record it")
    for o in outcomes:
        if o["sha256"] != recorded[o["argv"]] and not o["failed"]:
            o["failed"] = o["runs"]
            o["reason"] = "output differs from the recorded digest"
    return True


def run(args, check_digests: bool = True) -> dict:
    if not (SRC / "eigraph" / "__init__.py").is_file():
        raise BenchError(f"no eigraph source under {SRC}")
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    spec = _load_spec()
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"

    setups = []
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    side = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
    for _ in range(side):
        setups.append(_start_worker(base + ["--setup-only"], deadline)[0])
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(out_dir / f"spans-{stamp}.json")]
    ready, line = _start_worker(base + extra, deadline)
    setups.append(ready)
    for _ in range(side):
        setups.append(_start_worker(base + ["--setup-only"], deadline)[0])
    result = json.loads(line)

    outcomes = result.pop("outcomes")
    digest_checked = check_digests and _apply_digests(args.workload, args.seed, outcomes)
    attempted = sum(o["runs"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    measured = result.pop("metrics")
    measured["setup_s"] = statistics.median(setups)
    missing = set(units) - set(measured)
    if missing:
        raise BenchError(f"run did not measure {sorted(missing)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        **_source_record(),
        **result,
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "digest_checked": digest_checked,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
        "outcomes": outcomes,
    }
    (out_dir / f"run-{stamp}.json").write_text(json.dumps(record, indent=1))
    return record


def _print_run(record: dict) -> None:
    keys = ("workload", "seed", "trace", "python", "cpu_model", "nproc", "git_rev", "src_eigraph_lines",
            "calls_per_pass", "passes", "repeats_min", "repeats_max", "latency_samples", "tail_percentile", "attempted", "failed")
    print(" ".join(f"{k}={record[k]}" for k in keys if k in record))
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_share':<48} {record['fail_share']:>14.6g} ratio")
    for o in record["outcomes"]:
        if o["failed"]:
            print(f"  FAILED {o['argv']}: {o['reason']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))


def record_digests(out: str) -> None:
    digests = {}
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=0, trace=0, out=out)
        record = run(args, check_digests=False)
        if record["failed"]:
            raise BenchError(f"{workload}: {record['failed']} calls failed; not recording")
        digests[workload] = {o["argv"]: o["sha256"] for o in record["outcomes"]}
        print(f"{workload}: {len(digests[workload])} digests")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------


def _load_results(directory: str) -> list[dict]:
    paths = sorted(Path(directory).glob("run-*.json"))
    if not paths:
        raise BenchError(f"no run-*.json results in {directory}")
    return [json.loads(p.read_text()) for p in paths]


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _fmt(summary: tuple[float, float, float]) -> str:
    return f"{summary[0]:.6g} [{summary[1]:.6g}, {summary[2]:.6g}]"


def _value(record: dict, name: str) -> float:
    return record["fail_share"] if name == "fail_share" else record["metrics"][name]["value"]


def compare(dir_a: str, dir_b: str) -> None:
    spec = _load_spec()
    results = {"A": _load_results(dir_a), "B": _load_results(dir_b)}
    print(f"A = {dir_a}\nB = {dir_b}")
    metrics = spec["end_to_end"] + [{"name": "fail_share", "unit": "ratio", "better": "lower", "bound": 0.0}]
    for workload in WORKLOADS:
        runs = {side: [r for r in rs if r["workload"] == workload and not r["trace"]] for side, rs in results.items()}
        if not runs["A"] or not runs["B"]:
            continue
        print(f"\n{workload}  (runs: A {len(runs['A'])}, B {len(runs['B'])})")
        print(f"  {'metric':<14} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} {'change':>8}  verdict")
        for m in metrics:
            name = m["name"]
            a = _summary([_value(r, name) for r in runs["A"]])
            b = _summary([_value(r, name) for r in runs["B"]])
            change = (b[0] - a[0]) / a[0] if a[0] else (0.0 if b[0] == a[0] else float("inf"))
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = f"WORSE beyond bound {m['bound']}"
            elif -worse > m["bound"]:
                verdict = f"better beyond bound {m['bound']}"
            else:
                verdict = f"within bound {m['bound']}"
            print(f"  {name:<14} {_fmt(a):>34} {_fmt(b):>34} {change:>+8.1%}  {verdict} ({m['unit']})")
    print("\nper-layer self time, traced runs (median s, B - A)")
    for workload in WORKLOADS:
        traced = {side: [r for r in rs if r["workload"] == workload and r["trace"]] for side, rs in results.items()}
        if not traced["A"] or not traced["B"]:
            continue
        rows = []
        for name in traced["A"][0]["metrics"]:
            if name.endswith(".self_s") or name == "trace.overhead_s":
                a = statistics.median(r["metrics"][name]["value"] for r in traced["A"])
                b = statistics.median(r["metrics"][name]["value"] for r in traced["B"])
                if a or b:
                    rows.append((b - a, name, a, b))
        print(f"  {workload}")
        for delta, name, a, b in sorted(rows, key=lambda row: -abs(row[0])):
            print(f"    {name:<52} {a:>10.4f} {b:>10.4f} {delta:>+10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "results"), help="directory for run records")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result directories")
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json (default seed)")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
        elif args.record_digests:
            record_digests(args.out)
        elif args.workload:
            _print_run(run(args))
        else:
            parser.error("give --workload, --compare or --record-digests")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
