"""Jobs of the ``cli_cold`` workload: one cold CLI process per job.

Every job runs ``python -m stci.cli ARG...`` with ``PYTHONPATH=src``,
one child at a time, and compares exit code, stdout and stderr:

* the README's CLI examples, byte for byte against the copy of that
  README block kept in ``readme_cli.txt`` (``| head -N`` compares the
  first N lines);
* seeded variants of phi, rdp info/config, thm1/2/3, bound, chow expand
  and a small and a d=6 enumerate, against in-process ``stci.cli.run``;
* the documented error paths: a domain error exits 1 with one
  ``error:`` line, a usage error exits 2;
* ``chow expand --s 4 --t 4 --d 0 --p 1``, which must exit 1 with one
  ``error:`` line and no traceback.

A child whose stderr holds a Python traceback has failed with an error;
any other mismatch is a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from functools import partial
from operator import eq

from timing import Scaler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")
TRACED_CLI = os.path.join(HERE, "cli_traced.py")
CHILD_TIMEOUT = 60
TRACEBACK = b"Traceback (most recent call last)"
DIVIDE_BY_ZERO = ["chow", "expand", "--s", "4", "--t", "4", "--d", "0", "--p", "1"]
ENV = dict(os.environ, PYTHONPATH=SRC)


def interp_floor() -> None:
    """A bare ``python -c pass`` with the jobs' interpreter and environment."""
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=ENV, check=True, timeout=CHILD_TIMEOUT)


class Crash(Exception):
    """The child process ended in an uncaught Python exception."""


class ColdRun:
    """One cold ``python -m stci.cli`` process; keeps its last stdout."""

    def __init__(self, argv) -> None:
        self.argv = argv
        self.stdout = None

    def __call__(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stci.cli", *self.argv],
            cwd=ROOT, env=ENV, capture_output=True, timeout=CHILD_TIMEOUT,
        )
        self.stdout = proc.stdout
        if TRACEBACK in proc.stderr:
            raise Crash(proc.stderr.decode(errors="replace").strip().splitlines()[-1])
        return proc.returncode, proc.stdout, proc.stderr


def _check_head(lines: int, expected: bytes, out) -> bool:
    code, stdout, stderr = out
    head = b"".join(stdout.splitlines(keepends=True)[:lines])
    return code == 0 and stderr == b"" and head == expected


def _check_error_line(out) -> bool:
    code, stdout, stderr = out
    return code == 1 and stdout == b"" and stderr.startswith(b"error: ") and stderr.count(b"\n") == 1


def readme_examples():
    """(argv, expected stdout, head lines or None) for each README example."""
    with open(os.path.join(HERE, "readme_cli.txt")) as fh:
        text = fh.read()
    for block in text.strip().split("\n\n"):
        command, *output = block.split("\n")
        tokens = shlex.split(command.removeprefix("$ "))
        head = None
        if "|" in tokens:
            cut = tokens.index("|")
            if tokens[cut + 1] != "head":
                raise ValueError(f"unsupported pipeline in {command!r}")
            head = int(tokens[cut + 2].lstrip("-"))
            tokens = tokens[:cut]
        if tokens[0] != "stci":
            raise ValueError(f"not an stci example: {command!r}")
        yield tokens[1:], ("\n".join(output) + "\n").encode(), head


def _descriptor(rng) -> str:
    roll = rng.random()
    if roll < 0.6:
        n = rng.randint(1, 60)
        return f"A:{n}:{rng.randint(1, n)}"
    if roll < 0.75:
        return f"D1:{rng.randint(4, 60)}"
    if roll < 0.9:
        return f"Dn:{rng.randint(5, 60)}"
    return rng.choice(["E6", "E7"])


def _stdt(rng):
    """(s, t, d) with d | st and n = st/d >= 2."""
    s = rng.randint(3, 12)
    t = rng.randint(s, 12)
    d = rng.choice([v for v in range(1, s * t // 2 + 1) if (s * t) % v == 0])
    return s, t, d


def variants(rng):
    """(kind, argv, expected exit code) for the seeded commands."""
    fmt = lambda: rng.choice(["human", "json", "csv"])  # noqa: E731
    for _ in range(2):
        n = rng.randint(10, 300)
        yield "variant.phi", ["phi", str(n), str(rng.randint(1, n)), "--format", fmt()], 0
    for _ in range(2):
        yield "variant.rdp_info", ["rdp", "info", _descriptor(rng), "--format", fmt()], 0
    config = " + ".join(f"{rng.randint(1, 4)}*{_descriptor(rng)}" for _ in range(rng.randint(1, 4)))
    yield "variant.rdp_config", ["rdp", "config", config, "--format", fmt()], 0
    s, t, d = _stdt(rng)
    yield "variant.thm1", ["thm1", "--s", str(s), "--t", str(t), "--d", str(d), "--g", str(rng.randint(0, 3)),
                           "--format", fmt()], 0
    s, t, d = _stdt(rng)
    p = ",".join(str(rng.randint(0, 12)) for _ in range(rng.randint(1, 4)))
    yield "variant.thm2", ["thm2", "--s", str(s), "--t", str(t), "--d", str(d), "--g", str(rng.randint(0, 3)),
                           "--p", p, "--format", fmt()], 0
    seq = sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 5))), reverse=True)
    yield "variant.thm3", ["thm3", "--s", str(rng.randint(3, 6)), "--d", str(rng.randint(1, 8)),
                           "--type", "(" + ",".join(map(str, seq)) + ")", "--format", fmt()], 0
    yield "variant.bound", ["bound", str(rng.randint(1, 60)), "--format", fmt()], 0
    s, t, d = rng.choice([(4, 4, 4), (3, 4, 2), (4, 6, 3), (5, 5, 5), (6, 4, 2), (3, 3, 1)])
    p = ",".join(str(rng.randint(0, 12)) for _ in range(rng.randint(1, s * t // d)))
    yield "variant.chow_expand", ["chow", "expand", "--s", str(s), "--t", str(t), "--d", str(d), "--g",
                                  str(rng.randint(0, 2)), "--p", p, "--format", fmt()], 0
    small = ["enumerate", "--d", str(rng.randint(2, 3)), "--g", str(rng.randint(0, 2)), "--format", fmt()]
    yield "variant.enumerate_small", small + (["--one-sided"] if rng.random() < 0.5 else []), 0
    yield "variant.enumerate_d6", ["enumerate", "--d", "6", "--g", str(rng.randint(0, 2)), "--format", fmt()], 0
    n = rng.randint(1, 50)
    yield "error.domain", rng.choice([
        ["phi", str(n), str(n + rng.randint(1, 9))],
        ["rdp", "info", f"A:{n}:x"],
        ["thm1", "--s", "4", "--t", "4", "--d", str(rng.choice([3, 5, 6, 7]))],
    ]), 1
    yield "error.usage", rng.choice([
        ["phi", str(n)],
        ["bound", "four"],
        ["enumerate", "--g", "1"],
        ["phi", str(n), "1", "--format", "xml"],
    ]), 2


def _in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def cli_jobs(stci, rng: random.Random) -> list:
    """Argv list and expected outputs; ``stci`` must have ``stci.cli`` loaded."""
    cli = stci.cli
    jobs = []
    for argv, expected, head in readme_examples():
        kind = "readme." + "_".join(argv[:2] if argv[0] in ("rdp", "chow") else argv[:1])
        if head is None:
            check = partial(eq, (0, expected, b""))
        else:
            check = partial(_check_head, head, expected)
        jobs.append((kind, ColdRun(argv), (), check))
    jobs.append(("acceptance.bound5", ColdRun(["bound", "5"]), (), partial(eq, (0, b"44\n", b""))))
    for kind, argv, code in variants(rng):
        expected = _in_process(cli, argv)
        if expected[0] != code:
            raise AssertionError(f"{argv} exits {expected[0]} in process, not {code}")
        jobs.append((kind, ColdRun(argv), (), partial(eq, expected)))
    jobs.append(("error.chow_d0", ColdRun(DIVIDE_BY_ZERO), (), _check_error_line))
    return jobs


class TracedPass:
    """Runs each job through ``cli_traced.py`` and merges its spans."""

    def __init__(self) -> None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        self.report = os.path.join(TRACE_DIR, f"cli-traced-{os.getpid()}.json")

    def __call__(self, jobs, order, tracer, failures):
        scaler = Scaler(len(jobs))
        wrong = errors = 0
        job_ids = {}
        for j in order:
            kind, run, _, _ = jobs[j]
            nid = job_ids.setdefault(kind, tracer.name_id("job." + kind))
            sid = tracer.open(nid)
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, TRACED_CLI, self.report, *run.argv],
                    cwd=ROOT, env=ENV, capture_output=True, timeout=CHILD_TIMEOUT,
                )
            except subprocess.TimeoutExpired:
                tracer.close(sid, True)
                scaler.record(j, time.perf_counter() - start)
                errors += 1
                failures.append(f"{kind}: traced run timed out")
                continue
            tracer.close(sid)
            scaler.record(j, time.perf_counter() - start)
            try:
                with open(self.report) as fh:
                    tracer.merge(json.load(fh), sid)
                os.remove(self.report)
            except (OSError, ValueError) as exc:
                errors += 1
                failures.append(f"{kind}: no span report from the traced run ({exc})")
                continue
            if TRACEBACK in proc.stderr:
                errors += 1
                failures.append(f"{kind}: traced run raised")
            elif proc.stdout != run.stdout:
                wrong += 1
                failures.append(f"{kind}: traced run stdout differs from python -m stci.cli")
        return scaler.times, wrong, errors, scaler.scale
