"""Record perfbench runs as a BENCH_<label>.json file, and compare two such files.

Usage:
    python3 tools/bench_record.py LABEL[=CHECKOUT] [LABEL=CHECKOUT ...]
    python3 tools/bench_record.py --compare BENCH_a.json BENCH_b.json

Recording runs ``perfbench/run.py --trace 0`` of each checkout (default:
this one) as a subprocess, once per workload of BENCHMARK.json and seed
in SEEDS, for the ``run_seconds`` BENCHMARK.json fixes, and reads the JSON
last line of each run, the pass count from its ``<n> jobs x <p> passes``
line and its job kind shares table, kept in the raw run as ``kinds``:
{kind: [jobs, share of the summed per-job median time in %, median ms
per job]}.  With two or more checkouts the runs are interleaved: for
each workload and seed every checkout runs in turn, and the one that runs
first rotates from seed to seed.  Each checkout gets one file at the root
of this checkout, with the host (CPU model, vCPU count, Python version),
the checkout's git SHA and, per workload, the median, IQR and run count
of every end-to-end metric and of the pass count, with the raw runs
beside them.  A checkout with a ``__pycache__`` directory under ``src/``
is refused before any run (exit 2): the benchmark runs a fresh checkout
with bytecode writing off, so a cached checkout would time skipped
compiles as a gain; record from a fresh clone.

Comparing prints, per workload and metric, both medians with their IQRs,
the ratio B/A and how many seed-matched pairs of raw runs B wins (``wins
9/10``; a tie counts for neither), and flags a metric whose median is
worse than A's by more than its bound in BENCHMARK.json; the pass counts
are printed next to ``peak_rss_mb``, because ``run.py`` keeps one time
array per pass.  A second table follows, after a blank line: per workload
and metric, the quartiles and the range of the seed-matched ratios B/A.
Each seed draws its own job mix, so the IQRs of the medians carry the
spread between seeds as well as noise, and the paired ratios do not.
A third says, per workload and metric, whether B's gain meets the claim
rule: B wins at least nine tenths of the seed-matched pairs, and the
medians differ, in B's favour, by more than A's IQR.  A fourth lists,
per workload and job kind both files recorded, the median over runs of
the kind's median ms per job in A and in B, the ratio B/A and B's wins
over the seed-matched runs that ran the kind.
The exit code is 1 when a metric is flagged, when B is not correct, or
when B fails a larger share of its attempted jobs than A.
Neither mode changes ``perfbench/`` or ``BENCHMARK.json``; both only read
them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Ten seeds, so that two checkouts give ten interleaved pairs of runs.
SEEDS = tuple(range(1, 11))
PASSES = re.compile(r"^workload \S+ seed \d+: (\d+) jobs x (\d+) passes$", re.MULTILINE)
# A row of run.py's "job kind shares" table: kind, jobs, share %, median ms per job.
KIND = re.compile(r"^  (\S+) +(\d+) jobs +([\d.]+)%  median ([\d.]+) ms/job$", re.MULTILINE)


def load_benchmark(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def summary(values: list[float]) -> dict:
    """Median, interquartile range and count of one metric's runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": len(values)}


def parse_run(stdout: str) -> dict:
    """The pass count, the job kind shares and the JSON result of one
    ``run.py --trace 0`` run."""
    match = PASSES.search(stdout)
    if match is None:
        raise ValueError("no '<n> jobs x <p> passes' line in the run's output")
    result = json.loads(stdout.strip().splitlines()[-1])
    return {
        "passes": int(match.group(2)),
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "kinds": {kind: [int(jobs), float(share), float(ms)]
                  for kind, jobs, share, ms in KIND.findall(stdout)},
    }


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return dict(parse_run(done.stdout), seed=seed)


def git_sha(checkout: str) -> str:
    """HEAD of the checkout, with ``+dirty`` when src/ or perfbench/ differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "perfbench")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")


def host() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            names = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    return {"cpu_model": model, "vcpus": os.cpu_count(), "python": platform.python_version()}


def record(label: str, checkout: str, runs: dict, seconds: float) -> dict:
    workloads = {}
    for workload, done in runs.items():
        names = done[0]["metrics"]
        workloads[workload] = {
            "correct": all(r["correct"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "attempted": sum(r["attempted"] for r in done),
            "passes": summary([r["passes"] for r in done]),
            "metrics": {name: summary([r["metrics"][name] for r in done]) for name in names},
            "raw": done,
        }
    return {"label": label, "git_sha": git_sha(checkout), "host": host(),
            "seeds": list(SEEDS), "seconds": seconds, "workloads": workloads}


def bytecode_cache(checkout: str) -> str | None:
    """The first ``__pycache__`` directory under the checkout's src/, or None."""
    for top, dirs, _ in os.walk(os.path.join(checkout, "src")):
        if "__pycache__" in dirs:
            return os.path.join(top, "__pycache__")
    return None


def record_main(targets: list[str], benchmark: dict) -> int:
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    checkouts = []
    for target in targets:
        label, _, checkout = target.partition("=")
        checkouts.append((label, os.path.abspath(checkout or ROOT)))
    for _, checkout in checkouts:
        cached = bytecode_cache(checkout)
        if cached is not None:
            print(f"error: {cached}: a bytecode cache under src/ skips compiles the benchmark "
                  "pays; record from a fresh clone", file=sys.stderr)
            return 2
    runs = {label: {w: [] for w in workloads} for label, _ in checkouts}
    for workload in workloads:
        for i, seed in enumerate(SEEDS):
            turn = i % len(checkouts)
            for label, checkout in checkouts[turn:] + checkouts[:turn]:
                done = run_once(checkout, workload, seed, seconds)
                runs[label][workload].append(done)
                print(f"{label} {workload} seed {seed}: {done['passes']} passes, "
                      f"jobs_per_s {done['metrics']['jobs_per_s']:.1f}", file=sys.stderr)
    for label, checkout in checkouts:
        path = os.path.join(ROOT, f"BENCH_{label}.json")
        with open(path, "w") as f:
            json.dump(record(label, checkout, runs[label], seconds), f, indent=1)
            f.write("\n")
        print(f"wrote {path}")
    return 0


def cell(metric: dict) -> str:
    return f"{metric['median']:.4g} ({metric['iqr']:.2g})"


def seed_pairs(name: str, wa: dict, wb: dict) -> list[tuple[float, float]]:
    """(A, B) values of one metric for each seed both workloads ran, in B's order."""
    runs_a = {r["seed"]: r["metrics"][name] for r in wa["raw"]}
    return [(runs_a[r["seed"]], r["metrics"][name]) for r in wb["raw"] if r["seed"] in runs_a]


def won(better: str, pairs: list[tuple[float, float]]) -> int:
    """How many of the seed-matched pairs B does better on than A; a tie
    counts for neither."""
    return sum(vb > va if better == "higher" else vb < va for va, vb in pairs)


def wins(better: str, pairs: list[tuple[float, float]]) -> str:
    return f"wins {won(better, pairs)}/{len(pairs)}"


def ratio_spread(pairs: list[tuple[float, float]]) -> str:
    """Quartiles and range of the seed-matched ratios B/A, which leave out
    the spread between seeds that the medians' IQRs carry."""
    ratios = sorted(vb / va for va, vb in pairs)
    if not ratios:
        return "no seed-matched pairs"
    quartiles = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    return " ".join(f"{r:7.3f}" for r in (*quartiles, ratios[0], ratios[-1])) + f"  {len(ratios):5d}"


def claim(better: str, ma: dict, mb: dict, pairs: list[tuple[float, float]]) -> str:
    """Whether B's gain meets the claim rule: B better in at least nine
    tenths of the seed-matched pairs (a tie counts for neither), and the
    medians apart by more than A's IQR in B's favour."""
    count = won(better, pairs)
    gap = mb["median"] - ma["median"]
    gain = gap if better == "higher" else -gap
    met = len(pairs) > 0 and 10 * count >= 9 * len(pairs) and gain > ma["iqr"]
    return (f"{count:>3d}/{len(pairs):<3d} {gap:>10.4g} {ma['iqr']:>10.2g}  "
            + ("met" if met else "not met"))


def kind_table(workload: str, wa: dict, wb: dict) -> list[str]:
    """Rows of per-kind median ms per job for the kinds both workloads
    recorded: A's and B's median over runs, B/A and B's seed-matched wins
    (lower is better)."""
    def by_kind(w):
        kinds = {}
        for r in w["raw"]:
            for kind, (_, _, ms) in r.get("kinds", {}).items():
                kinds.setdefault(kind, {})[r["seed"]] = ms
        return kinds

    ka, kb = by_kind(wa), by_kind(wb)
    rows = []
    for kind in sorted(ka.keys() & kb.keys()):
        a, b = statistics.median(ka[kind].values()), statistics.median(kb[kind].values())
        pairs = [(ka[kind][seed], ms) for seed, ms in kb[kind].items() if seed in ka[kind]]
        rows.append(f"{workload:10s} {kind:32s} {a:>10.4g} {b:>10.4g} {b / a:7.3f}  "
                    f"{wins('lower', pairs)}")
    return rows


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[str], int]:
    """Report lines for B against A, and how many metrics B worsened past their bound."""
    lines = [f"A = {a['label']} ({a['git_sha']}), B = {b['label']} ({b['git_sha']})",
             f"{'workload':10s} {'metric':12s} {'A median (IQR)':>22s} "
             f"{'B median (IQR)':>22s} {'B/A':>7s}"]
    paired = ["", "seed-matched ratios B/A",
              f"{'workload':10s} {'metric':12s} {'Q1':>7s} {'median':>7s} {'Q3':>7s} "
              f"{'min':>7s} {'max':>7s}  {'pairs':>5s}"]
    claims = ["", "claim rule: B wins >= 9/10 of the seed-matched pairs and the medians "
              "differ by more than A's IQR",
              f"{'workload':10s} {'metric':12s} {'wins':>7s} {'B-A':>10s} {'A IQR':>10s}  claim"]
    kinds = ["", "per-kind median ms per job (run.py's job kind shares)",
             f"{'workload':10s} {'kind':32s} {'A':>10s} {'B':>10s} {'B/A':>7s}"]
    flagged = 0
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            lines.append(f"{workload:10s} not in B")
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            pairs = seed_pairs(name, wa, wb)
            ratio = mb["median"] / ma["median"]
            change = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            line = (f"{workload:10s} {name:12s} {cell(ma):>22s} {cell(mb):>22s} {ratio:7.3f}"
                    f"  {wins(spec['better'], pairs)}")
            paired.append(f"{workload:10s} {name:12s} {ratio_spread(pairs)}")
            claims.append(f"{workload:10s} {name:12s} {claim(spec['better'], ma, mb, pairs)}")
            if name == "peak_rss_mb":
                line += f"  passes {wa['passes']['median']:g} -> {wb['passes']['median']:g}"
            if change > spec["bound"]:
                flagged += 1
                line += f"  PAST BOUND {spec['bound']:.0%}"
            lines.append(line)
        # failed/attempted, compared without division: a faster tree attempts more jobs
        if not wb["correct"] or wb["failed"] * wa["attempted"] > wa["failed"] * wb["attempted"]:
            flagged += 1
            lines.append(f"{workload:10s} FAILURES: A {wa['failed']} of {wa['attempted']}, "
                         f"B {wb['failed']} of {wb['attempted']}, B correct {wb['correct']}")
        kinds += kind_table(workload, wa, wb)
    return lines + paired + claims + kinds, flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", metavar="LABEL[=CHECKOUT]")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.compare:
        files = []
        for path in args.compare:
            with open(path) as f:
                files.append(json.load(f))
        lines, flagged = compare(*files, benchmark)
        print("\n".join(lines))
        return 1 if flagged else 0
    if not args.targets:
        parser.error("give a LABEL to record or --compare A B")
    return record_main(args.targets, benchmark)


if __name__ == "__main__":
    sys.exit(main())
