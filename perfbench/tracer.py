"""Span recorder for the benchmark's traced runs.

``Tracer.install`` replaces every public function of the stci layer
modules with a wrapper that records one span (name, start, end, parent
span) per call.  It patches the defining module's attribute and every
rebinding of the same function object made by ``from .x import name``
(for example ``stci.theorems.config_invariants`` or the re-exports in
``stci``), so calls through either name are seen.  Spans are kept in
flat integer arrays in memory; ``summarize`` turns them into per-layer
calls, self time and errors, and ``write_spans`` dumps them at the end.

A layer is one module of the library.  A span's self time is its
duration minus the durations of its child spans, which nest inside it
because the library is single-threaded and synchronous.  A generator
function's span covers only the creation of the generator; the
iteration is charged to the caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("exact", "rdp", "chow", "graphs", "theorems", "degrees")

# Searches whose result length is the number of accepted candidates.
SEARCHES = ("theorems.bungobungo_solve", "theorems.config_search", "degrees.enumerate_pairs")

# (parent span, child span) pairs whose counts are search counters.
PAIR_COUNTERS = {
    ("theorems.bungobungo_solve", "rdp.weighted_type_sum"): "theorems.bungo.seqs_tried",
    ("theorems.config_search", "rdp.config_invariants"): "theorems.config_search.leaves",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.accepted: Counter = Counter()
        self.clear()
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def clear(self) -> None:
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.raised: list[int] = []
        self.accepted.clear()
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, raised: bool = False) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        if raised:
            self.raised.append(sid)

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_, close = self.open, self.close
        accepted = self.accepted if name in SEARCHES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(sid, True)
                raise
            close(sid)
            if accepted is not None:
                accepted[name] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every loaded stci layer module."""
        layer_modules = {f"stci.{layer}" for layer in LAYERS}
        wrappers = self._wrappers
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "stci" and not mod_name.startswith("stci."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ not in layer_modules:
                    continue
                if id(value) not in wrappers:
                    layer = value.__module__.rpartition(".")[2]
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}")
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def traced(self, fn):
        """The installed wrapper of ``fn`` (or of a partial's function)."""
        if isinstance(fn, functools.partial):
            return functools.partial(self.traced(fn.func), *fn.args, **fn.keywords)
        return self._wrappers.get(id(fn), fn)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def export(self) -> dict:
        """Spans in a JSON-friendly form, for a child process to hand back."""
        flat = []
        for i in range(len(self.start)):
            flat += (self.name[i], self.start[i], self.end[i], self.parent[i])
        return {
            "names": self.names,
            "spans": flat,
            "raised": self.raised,
            "accepted": dict(self.accepted),
        }

    def merge(self, data: dict, parent: int) -> None:
        """Append a child process's exported spans under span ``parent``."""
        remap = [self.name_id(n) for n in data["names"]]
        offset = len(self.start)
        flat = data["spans"]
        for i in range(0, len(flat), 4):
            self.name.append(remap[flat[i]])
            self.start.append(flat[i + 1])
            self.end.append(flat[i + 2])
            self.parent.append(parent if flat[i + 3] < 0 else flat[i + 3] + offset)
        self.raised += [sid + offset for sid in data["raised"]]
        self.accepted.update(data["accepted"])

    def summarize(self) -> dict:
        """Per-layer calls, self time and errors, plus per-name counts."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [n.partition(".")[0] for n in self.names]
        calls = Counter()
        self_ns = Counter()
        name_calls = Counter()
        pair_calls = Counter()
        durations: dict[str, list[int]] = {}
        for i in range(count):
            nid = self.name[i]
            layer = layer_of[nid]
            calls[layer] += 1
            self_ns[layer] += dur[i] - child[i]
            name_calls[self.names[nid]] += 1
            if layer == "cli":
                durations.setdefault(self.names[nid], []).append(dur[i])
            p = self.parent[i]
            if p >= 0:
                key = (self.names[self.name[p]], self.names[nid])
                if key in PAIR_COUNTERS:
                    pair_calls[PAIR_COUNTERS[key]] += 1
        errors = Counter()
        for sid in self.raised:
            layer = layer_of[self.name[sid]]
            p = self.parent[sid]
            if p < 0 or layer_of[self.name[p]] != layer:
                errors[layer] += 1
        return {
            "calls": calls,
            "self_ns": self_ns,
            "errors": errors,
            "name_calls": name_calls,
            "pair_calls": pair_calls,
            "accepted": Counter(self.accepted),
            "durations": durations,
        }

    def snapshot(self) -> tuple:
        """The spans recorded so far; ``clear`` leaves them untouched."""
        return (list(self.names), self.name, self.start, self.end, self.parent)


def write_spans(path: str, snapshot: tuple) -> None:
    """Gzipped TSV, one line per span; parent is -1 for a root span."""
    names, name, start, end, parent = snapshot
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("span\tname\tstart_ns\tend_ns\tparent\n")
        for i in range(len(start)):
            out.write(f"{i}\t{names[name[i]]}\t{start[i]}\t{end[i]}\t{parent[i]}\n")
