"""Rewrite the output-equivalence corpus of tests/test_corpus.py.

    python tests/corpus/regenerate.py          # rewrite sha256.txt only
    python tests/corpus/regenerate.py --draw   # redraw argv.jsonl first

The default mode reruns every argv of argv.jsonl on the current tree,
rewrites sha256.txt and prints the lines whose digest changed, so a
change that moves output on purpose can name them.  ``--draw`` replaces
the argv list: the golden and README commands of test_cli, then
derandomized draws from its fuzz grammar, half of them restricted to the
long-output commands (phi, chow expand, thm2, search-config, enumerate).
Draws asking for ``--format xml`` are dropped: the invalid-choice message
is argparse's, and its wording differs between Python releases.
"""

import argparse
import json
import os
import re
import shlex
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from hypothesis import HealthCheck, Phase, given, settings, strategies as st  # noqa: E402

import test_cli  # noqa: E402
from test_corpus import ARGV_FILE, DIGEST_FILE, digest, load_corpus  # noqa: E402

DRAWS = 1300  # about 1,000 distinct argv remain
LONG_OUTPUT = {"phi", "chow", "thm2", "search-config", "enumerate"}
NINES = re.compile(r"(9{100,})")


def draw_argv():
    fixed = [
        shlex.split(command) + ["--format", fmt]
        for command in test_cli.GOLDEN
        for fmt in ("human", "json", "csv")
    ]
    fixed += [argv for nth in (1, 2) for argv, _, _ in test_cli.readme_examples(nth)]
    drawn = []
    long_output = test_cli._argv().filter(lambda argv: argv[0] in LONG_OUTPUT)

    @settings(
        max_examples=DRAWS, derandomize=True, database=None, deadline=None,
        phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )
    @given(st.one_of(test_cli._argv(), long_output))
    def collect(argv):
        drawn.append(argv)

    collect()
    unique = {}
    for argv in fixed + drawn:
        if "xml" not in argv:
            unique.setdefault(json.dumps(argv), argv)
    return list(unique.values())


def encode(arg):
    """A string, or its pieces with each run of 100+ nines as its length."""
    pieces = NINES.split(arg)
    if len(pieces) == 1:
        return arg
    return [len(piece) if i % 2 else piece for i, piece in enumerate(pieces) if piece]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draw", action="store_true", help="redraw argv.jsonl first")
    args = parser.parse_args()
    if args.draw:
        lines = [json.dumps([encode(arg) for arg in argv]) for argv in draw_argv()]
        ARGV_FILE.write_text("".join(line + "\n" for line in lines))
    os.environ["COLUMNS"] = "80"
    old = [] if args.draw else DIGEST_FILE.read_text().split()
    new = []
    for number, line, argv in load_corpus():
        new.append(digest(argv))
        if number <= len(old) and old[number - 1] != new[-1]:
            print(f"changed: line {number}: {line}")
    DIGEST_FILE.write_text("".join(d + "\n" for d in new))
    print(f"{len(new)} digests written to {DIGEST_FILE.name}")


if __name__ == "__main__":
    main()
