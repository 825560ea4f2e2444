"""Benchmark of the stci library and CLI.

Usage:
    python3 perfbench/run.py --workload {cli_cold,search,calculus}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src``.  Each workload is a closed loop with one client: one process
with no threads runs a fixed job list back to back, pass after pass,
until S seconds have been measured.  The seed draws the inputs and each
pass's job order.  Every job's result is checked against an oracle or a
pinned value.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``tracer.py``) and the spans of its first traced
pass are written to ``.bench_traces/``.  Human-readable lines before it
give the tail percentile, the failure ratio and each job kind's share of
the time, or for a traced run the per-call medians at the ROADMAP
baseline sizes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time

import cli_cold
import inproc
import tracer as tracing
from timing import Scaler, timed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10
# Share of a traced run's time spent on untraced passes, which give the
# baseline for trace.overhead_ratio and the ROADMAP comparison.
UNTRACED_SHARE = 0.35
# Bare interpreter runs behind cli.interp_ms, the floor of every CLI job.
INTERP_RUNS = 9

# ROADMAP baseline rows: (workload, label, job kind, summed?, baseline).
# A summed row adds the per-job medians of all jobs of the kind (the phi
# sweep is all 45,150 phi calls); otherwise it is the per-call median.
BASELINE = (
    ("search", "enumerate_pairs(d=6)", "enumerate.d6", False, "114 ms"),
    ("search", "enumerate_pairs(d=8)", "enumerate.d8", False, "440-490 ms"),
    ("search", "bungobungo_solve()", "bungo", False, "150 ms"),
    ("search", "config_search((9,9,1))", "config_search.991.s19", False, "33 ms"),
    ("search", "config_search((9,9,1), max_sigma=25)", "config_search.991.s25", False, "101 ms"),
    ("calculus", "phi sweep, 1 <= k <= n <= 300", "phi", True, "300-360 ms"),
    ("calculus", "strict_transform_class n=64", "strict_transform.n64", False, "14 ms"),
    ("calculus", "strict_transform_class n=128", "strict_transform.n128", False, "95 ms"),
    ("calculus", "st_expansion n=256", "st_expansion.n256", False, "7.7 ms"),
    ("cli_cold", "cold stci bound 4", "readme.bound", False, "136 ms"),
    ("cli_cold", "cold stci enumerate --d 6", "variant.enumerate_d6", False, "235 ms"),
    ("cli_cold", "cold stci bungo", "readme.bungo", False, "227 ms"),
)


def fresh_import(module: str):
    """Import ``module`` with every stci module unloaded first."""
    for name in [n for n in sys.modules if n == "stci" or n.startswith("stci.")]:
        del sys.modules[name]
    importlib.import_module(module)
    return sys.modules["stci"]


def setup(workload: str, seed: int):
    """Import stci, draw the job list, and warm up; returns the jobs."""
    if workload == "cli_cold":
        jobs = cli_cold.cli_jobs(fresh_import("stci.cli"), random.Random(seed))
    else:
        make = inproc.search_jobs if workload == "search" else inproc.calculus_jobs
        jobs = make(fresh_import("stci"), random.Random(seed))
        # Warm up with the first (smallest) job of each library function.
        warmed = set()
        for kind, fn, args, _ in jobs:
            family = kind.partition(".")[0]
            if family not in warmed:
                warmed.add(family)
                fn(*args)
    return jobs


def run_pass(jobs, order, failures):
    """Run every job once, in ``order``.

    Returns (reference seconds per job, wrong, errors, pass scale).
    """
    scaler = Scaler(len(jobs))
    wrong = errors = 0
    clock = time.perf_counter
    for j in order:
        kind, fn, args, check = jobs[j]
        start = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed job is counted, never fatal
            scaler.record(j, clock() - start)
            errors += 1
            failures.append(f"{kind}{args!r:.80}: {type(exc).__name__}: {exc}")
            continue
        scaler.record(j, clock() - start)
        if not check(out):
            wrong += 1
            failures.append(f"{kind}{args!r:.80}: wrong result {out!r:.200}")
    return scaler.times, wrong, errors, scaler.scale


def run_traced_pass(jobs, order, tracer, failures):
    """``run_pass`` with the layer wrappers and one span per job."""
    scaler = Scaler(len(jobs))
    wrong = errors = 0
    clock = time.perf_counter
    job_ids = {}
    for j in order:
        kind, fn, args, check = jobs[j]
        fn = tracer.traced(fn)
        nid = job_ids.setdefault(kind, tracer.name_id("job." + kind))
        sid = tracer.open(nid)
        start = clock()
        try:
            out = fn(*args)
        except Exception as exc:
            tracer.close(sid, True)
            scaler.record(j, clock() - start)
            errors += 1
            failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        tracer.close(sid)
        scaler.record(j, clock() - start)
        if not check(out):
            wrong += 1
            failures.append(f"{kind}: wrong result")
    return scaler.times, wrong, errors, scaler.scale


def repeat_passes(pass_fn, jobs: int, rng: random.Random, seconds: float, min_passes: int):
    """Call ``pass_fn(order)`` until ``seconds`` have passed, at least ``min_passes`` times.

    Each pass runs the jobs in a fresh seeded order, so that a job's
    median is not tied to the jobs that happen to run before it.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        order = list(range(jobs))
        rng.shuffle(order)
        passes.append(pass_fn(order))
    return passes


def per_job_medians(passes):
    return [statistics.median(p[0][j] for p in passes) for j in range(len(passes[0][0]))]


def kind_table(jobs, medians):
    """kind -> (job count, summed per-job median seconds, per-call median)."""
    by_kind = {}
    for (kind, *_), t in zip(jobs, medians):
        by_kind.setdefault(kind, []).append(t)
    return {k: (len(v), sum(v), statistics.median(v)) for k, v in sorted(by_kind.items())}


def report_kinds(jobs, medians):
    table = kind_table(jobs, medians)
    total = sum(t for _, t, _ in table.values())
    print("job kind shares of the summed per-job median time:")
    for kind, (count, summed, per_call) in table.items():
        print(f"  {kind:32s} {count:6d} jobs  {100 * summed / total:5.1f}%  "
              f"median {1e3 * per_call:.4f} ms/job")


def report_baseline(workload: str, jobs, medians):
    table = kind_table(jobs, medians)
    print("ROADMAP baseline sizes (per-job medians, untraced passes):")
    for name, label, kind, summed, baseline in BASELINE:
        if name == workload:
            _, total, per_call = table[kind]
            print(f"  {label:40s} {1e3 * (total if summed else per_call):10.3f} ms   baseline {baseline}")


def tail(medians):
    """Value with exactly TAIL_BEYOND jobs above it, and its percentile."""
    ranked = sorted(medians)
    rank = max(0, len(ranked) - TAIL_BEYOND - 1)
    return ranked[rank], 100.0 * (rank + 1) / len(ranked)


def print_failures(failures):
    for line in failures[:20]:
        print("FAIL " + line, file=sys.stderr)
    if len(failures) > 20:
        print(f"FAIL ... {len(failures) - 20} more", file=sys.stderr)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def end_to_end(workload: str, seed: int, seconds: float) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        jobs = None  # let the previous job list go before drawing the next
        jobs, elapsed = timed(setup, workload, seed)
        setups.append(elapsed)
    failures = []
    passes = repeat_passes(lambda order: run_pass(jobs, order, failures), len(jobs),
                           random.Random(seed), seconds, MIN_PASSES)
    if workload == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    medians = per_job_medians(passes)
    tail_s, tail_pct = tail(medians)
    wrong = sum(p[1] for p in passes)
    failed = wrong + sum(p[2] for p in passes)
    attempted = len(jobs) * len(passes)
    print_failures(failures)
    print(f"workload {workload} seed {seed}: {len(jobs)} jobs x {len(passes)} passes")
    print(f"job_ms_tail is p{tail_pct:.2f} of {len(jobs)} per-job medians "
          f"({TAIL_BEYOND} jobs beyond it; {attempted} samples)")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} jobs failed, {wrong} with a wrong result)")
    report_kinds(jobs, medians)
    emit(wrong == 0, attempted, failed, {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(jobs) / statistics.median(sum(p[0]) for p in passes), "1/s"),
        "job_ms_p50": (1e3 * statistics.median(medians), "ms"),
        "job_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    })
    return 0


def per_layer(workload: str, seed: int, seconds: float) -> int:
    jobs = setup(workload, seed)
    failures = []
    rng = random.Random(seed)
    untraced = repeat_passes(lambda order: run_pass(jobs, order, failures), len(jobs), rng,
                             UNTRACED_SHARE * seconds, 2)
    tracer = tracing.Tracer()
    if workload == "cli_cold":
        pass_fn = cli_cold.TracedPass()
    else:
        pass_fn = run_traced_pass
        tracer.install()
    summaries, kept = [], []

    def traced_pass(order):
        result = pass_fn(jobs, order, tracer, failures)
        summaries.append(tracer.summarize())
        if not kept:
            kept.append(tracer.snapshot())
        tracer.clear()
        return result

    traced = repeat_passes(traced_pass, len(jobs), rng, (1 - UNTRACED_SHARE) * seconds, 2)
    tracer.uninstall()

    first = summaries[0]
    counts = ("calls", "errors", "name_calls", "pair_calls", "accepted")
    for later in summaries[1:]:
        if any(later[c] != first[c] for c in counts):
            print("warning: traced passes disagree on span counts", file=sys.stderr)
            break

    def ratio(hits, tries):
        return hits / tries if tries else 0.0

    scales = [p[3] for p in traced]

    def self_ms(layer):
        return statistics.median(s["self_ns"][layer] * k for s, k in zip(summaries, scales)) / 1e6

    def cli_ms(phase):
        samples = [d * k for s, k in zip(summaries, scales) for d in s["durations"].get(phase, ())]
        return statistics.median(samples) / 1e6 if samples else 0.0

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (first["calls"][layer], "count")
        metrics[f"{layer}.self_ms"] = (self_ms(layer), "ms")
        metrics[f"{layer}.errors"] = (first["errors"][layer], "count")
    name_calls, pair_calls, accepted = first["name_calls"], first["pair_calls"], first["accepted"]
    seqs = pair_calls["theorems.bungo.seqs_tried"]
    leaves = pair_calls["theorems.config_search.leaves"]
    candidates = name_calls["degrees.divisibility_check"]
    metrics.update({
        "rdp.phi.calls": (name_calls["rdp.phi"], "count"),
        "chow.mul.calls": (name_calls["chow.mul"], "count"),
        "graphs.apply_op.calls": (name_calls["graphs.apply_op"], "count"),
        "theorems.bungo.seqs_tried": (seqs, "count"),
        "theorems.bungo.accept_ratio": (ratio(accepted["theorems.bungobungo_solve"], seqs), "ratio"),
        "theorems.config_search.leaves": (leaves, "count"),
        "theorems.config_search.accept_ratio": (ratio(accepted["theorems.config_search"], leaves), "ratio"),
        "degrees.candidates": (candidates, "count"),
        "degrees.accept_ratio": (ratio(accepted["degrees.enumerate_pairs"], candidates), "ratio"),
        "cli.interp_ms": (1e3 * statistics.median(timed(cli_cold.interp_floor)[1] for _ in range(INTERP_RUNS)), "ms"),
        "cli.import_ms": (cli_ms("cli.import"), "ms"),
        "cli.parse_ms": (cli_ms("cli.parse"), "ms"),
        "cli.handler_ms": (cli_ms("cli.handler"), "ms"),
        "cli.render_ms": (cli_ms("cli.render"), "ms"),
        "cli.errors": (first["errors"]["cli"], "count"),
        "trace.overhead_ratio": (
            statistics.median(sum(p[0]) for p in traced) / statistics.median(sum(p[0]) for p in untraced),
            "ratio",
        ),
    })

    os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
    span_path = os.path.join(ROOT, ".bench_traces", f"{workload}.spans.tsv.gz")
    tracing.write_spans(span_path, kept[0])
    all_passes = untraced + traced
    wrong = sum(p[1] for p in all_passes)
    failed = wrong + sum(p[2] for p in all_passes)
    attempted = len(jobs) * len(all_passes)
    print_failures(failures)
    print(f"workload {workload} seed {seed} traced: {len(untraced)} untraced and {len(traced)} traced passes; "
          f"spans of the first traced pass in {os.path.relpath(span_path, ROOT)}")
    report_baseline(workload, jobs, per_job_medians(untraced))
    emit(wrong == 0, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["cli_cold", "search", "calculus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stci", "__init__.py")):
        print(f"error: no stci sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.trace:
        return per_layer(args.workload, args.seed, args.seconds)
    return end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
