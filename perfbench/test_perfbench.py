"""Tests for the benchmark's input generator, tracer and output checks."""

import contextlib
import io

import pytest

from bench_checks import check_call
from bench_inputs import (
    LARGE_SIGNATURE,
    MEDIUM_SIGNATURE,
    SWEEP_CAP,
    WINDOW_JITTER,
    WINDOW_SLOTS,
    WINDOW_WIDTH,
    WORKLOADS,
    Call,
    generate,
    signature,
    vertex_count,
)
from bench_trace import TARGETS, Tracer, candidate_counts
from eigraph import cli
from eigraph.arithmetic import DEFAULT_MAX_VERTICES, MAX_N, divisor_count, factor
from worker import MAX_REPEATS, MIN_RUNS, percentile, plan_repeats, tail_percentile

SEEDS = (0, 1, 7, 12345)


def _single_n(calls):
    return sorted({c.window[0] for c in calls if c.window[0] == c.window[1]})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv_lists(workload):
    assert generate(workload, 3) == generate(workload, 3)
    assert [c.argv for c in generate(workload, 3)] != [c.argv for c in generate(workload, 4)]


def test_verify_sweep_signature_mix_is_seed_independent():
    mixes = [sorted(signature(n) for n in _single_n(generate("verify-sweep", s))) for s in SEEDS]
    assert all(mix == mixes[0] for mix in mixes)
    assert len(set(mixes[0])) == len(mixes[0])
    ns = _single_n(generate("verify-sweep", 0))
    assert 1680 in ns and 2310 in ns and max(ns) <= SWEEP_CAP


def test_large_t_vertex_counts_are_seed_independent():
    for seed in SEEDS:
        ns = _single_n(generate("large-t", seed))
        sigs = sorted(signature(n) for n in ns)
        assert sigs == sorted([LARGE_SIGNATURE] + [MEDIUM_SIGNATURE] * (len(ns) - 1))
        assert sorted(divisor_count(factor(n)) - 2 for n in ns)[-1] == vertex_count(LARGE_SIGNATURE) == 1438
        assert vertex_count(MEDIUM_SIGNATURE) == 358


def test_far_window_shape_is_seed_independent():
    for seed in SEEDS:
        calls = generate("far-window", seed)
        assert [c.argv[0] for c in calls] == ["zagreb", "verify"] * len(WINDOW_SLOTS)
        for c in calls:
            lo, hi = c.window
            assert WINDOW_SLOTS[0] <= lo and hi < WINDOW_SLOTS[-1] + WINDOW_JITTER + WINDOW_WIDTH and hi - lo + 1 == WINDOW_WIDTH


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_n_are_composite_and_within_caps(workload):
    for seed in SEEDS:
        for n in _single_n(generate(workload, seed)):
            f = factor(n)
            assert n < MAX_N and not f.is_prime()
            assert divisor_count(f) - 2 <= DEFAULT_MAX_VERTICES


def test_candidate_counts_are_block_size_products():
    # Blocks of sizes 2, 3, 1: drop from none, one, two or all three blocks.
    assert candidate_counts([2, 3, 1]) == [1, 6, 2 * 3 + 2 * 1 + 3 * 1, 6]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracer_patches_every_alias_and_restores():
    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        tracer.begin_call(0, (90, 90))
        code, _ = _run(["verify", "90", "90"])
    finally:
        tracer.uninstall()
    assert code == 0 and cli.main is original
    metrics = tracer.metrics()
    assert set(metrics) >= {f"{t}.self_s" for t in TARGETS}
    # factor_range is a generator: one span, its resumptions summed.
    assert metrics["arithmetic.factor_range.calls"] == 1
    assert metrics["arithmetic.sieve_cells"] == 91
    assert metrics["arithmetic.sieve_useful_ratio"] == 1 / 89
    # verify reaches dim_bruteforce through cli's own imported name.
    assert metrics["metricdim.dim_bruteforce.calls"] == 1
    assert metrics["metricdim.search_exact_share"] == 1.0
    for name in TARGETS:
        assert metrics[f"{name}.self_s"] >= 0
    main_span = next(s for s in tracer.spans if s[0] == "cli.main")
    assert main_span[4] == -1 and main_span[3] >= sum(s[3] for s in tracer.spans if s[4] == 0)


def test_checks_accept_real_outputs_and_reject_wrong_ones():
    n = 2700
    dim_call = Call(("dim", str(n)), (n, n))
    _, out = _run(list(dim_call.argv))
    assert check_call(dim_call, out) is None
    witness_line = next(line for line in out.splitlines() if line.startswith("witness = "))
    short = out.replace(witness_line, witness_line.rsplit(" ", 1)[0])
    assert check_call(dim_call, short) is not None

    zagreb_call = Call(("zagreb", "20", "30", "--format", "csv"), (20, 30))
    _, out = _run(list(zagreb_call.argv))
    assert check_call(zagreb_call, out) is None
    assert check_call(zagreb_call, "\n".join(out.splitlines()[:-1])) is not None

    verify_call = Call(("verify", "12", "12", "--format", "json"), (12, 12))
    _, out = _run(list(verify_call.argv))
    assert check_call(verify_call, out) is None
    assert check_call(verify_call, out.replace('"passed": true', '"passed": false')) is not None


def test_latency_percentiles():
    assert percentile([1, 2, 3, 4, 5], 50) == pytest.approx(3)
    assert percentile([4, 1, 9], 100) == 9
    values = [0.001 * i for i in range(1, 53)]
    assert values[30] < percentile(values, 75) < values[46]
    # Ten calls of one pass must lie beyond the tail percentile.
    assert [tail_percentile(n) for n in (6, 20, 45, 52, 200)] == [100.0, 50.0, 75.0, 75.0, 95.0]


def test_repeats_share_the_budget_evenly():
    # A call costing 100 times another runs twice; the cheap one up to the cap.
    assert plan_repeats([1.0, 0.01], 2.0) == [MIN_RUNS, MAX_REPEATS]
    # Equal time per call: 2 s of the costly call, 2.5 s of the cheaper one.
    assert plan_repeats([1.0, 0.5], 3.0) == [2, 5]
    # Short of budget: two runs each, and the run's deadline trims them.
    assert plan_repeats([1.0, 0.5], 0.5) == [MIN_RUNS, MIN_RUNS]
