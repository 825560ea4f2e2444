"""Output equivalence over a committed argv corpus.

``corpus/argv.jsonl`` holds one argv per line, drawn once from the fuzz
grammar of test_cli plus its golden and README commands.  A JSON argv
entry is a string, or a list of string pieces and integers, where an
integer n stands for a run of n nines.  Line i of ``corpus/sha256.txt``
is the SHA-256 of (exit code, stdout, stderr) for line i's argv, run in
process under COLUMNS=80.  ``python tests/corpus/regenerate.py`` rewrites
the digests after a deliberate output change and lists the lines whose
output moved.
"""

import hashlib
import json
from pathlib import Path

from test_cli import _run_quietly

CORPUS = Path(__file__).resolve().parent / "corpus"
ARGV_FILE = CORPUS / "argv.jsonl"
DIGEST_FILE = CORPUS / "sha256.txt"


def decode(entry):
    """One argv entry: a string, or pieces with integers as runs of nines."""
    if isinstance(entry, str):
        return entry
    return "".join("9" * piece if isinstance(piece, int) else piece for piece in entry)


def load_corpus():
    """(line number, encoded line, argv) for each line of argv.jsonl."""
    with ARGV_FILE.open() as lines:
        for number, line in enumerate(lines, 1):
            yield number, line.rstrip("\n"), [decode(entry) for entry in json.loads(line)]


def digest(argv):
    """SHA-256 of the exit code, stdout and stderr of ``stci <argv>``."""
    blob = json.dumps(_run_quietly(argv))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_corpus_output_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = DIGEST_FILE.read_text().split()
    corpus = list(load_corpus())
    assert len(corpus) == len(expected) >= 1000
    changed = [
        f"line {number}: {line}"
        for (number, line, argv), want in zip(corpus, expected)
        if digest(argv) != want
    ]
    assert not changed, "output changed for:\n" + "\n".join(changed[:20])
