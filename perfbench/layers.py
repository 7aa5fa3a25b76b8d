"""Span tracing at the package's layer boundaries, for the traced run.

The program is not changed. For the traced run only, :func:`traced`
replaces, from outside, the names the layers call each other through:

* ``cli.read_text`` and ``cli.validate`` (layer ``automaton``);
* ``cli.DfaCache``, by a subclass whose public methods record spans
  (layer ``determinize``; ``_intern`` runs inside ``expand``);
* ``cli.shortest_string`` (layer ``search``);
* ``search.backward_distance`` (layer ``distance``).

The benchmark opens the ``cli.main`` span around each decode itself.
Every span has a name, start, end, parent span and the id of its decode;
spans stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter

FIELDS = ("name", "parent", "decode", "start", "end")


class Spans:
    """In-memory span store, one row per call across a layer boundary."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("B")
        self.parent = array("q")
        self.decode = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.decode_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.decode.append(self.decode_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.name)

    def summary(self) -> dict:
        """Per span name: call count, total time and self time, where self
        time is a span's duration minus the durations of its children."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            duration = end[i] - start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return {name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in out.items()}

    def write(self, path) -> None:
        """One JSON header line, then the raw arrays in ``FIELDS`` order."""
        header = {"names": self.names, "count": len(self.name),
                  "fields": [[f, getattr(self, f).typecode] for f in FIELDS]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field in FIELDS:
                getattr(self, field).tofile(handle)


class CacheCounts:
    """Counts read from the wrapped caches, outside the program."""

    def __init__(self):
        self.caches = []        # caches created since the last take()
        self.arcs_built = 0     # determinized arcs from first expansions
        self.new_subsets = 0    # subsets interned by those expansions

    def take(self):
        caches, self.caches = self.caches, []
        return caches


def _wrap(spans: Spans, name: str, fn):
    nid = spans.name_id(name)

    def wrapped(*args, **kwargs):
        idx = spans.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.close(idx)
    return wrapped


def _traced_cache_class(base, spans: Spans, counts: CacheCounts):
    init_id = spans.name_id("determinize.init")
    start_id = spans.name_id("determinize.start")
    expand_id = spans.name_id("determinize.expand")
    heuristic_id = spans.name_id("determinize.heuristic")
    final_id = spans.name_id("determinize.final_weight")

    class TracedDfaCache(base):
        def __init__(self, *args, **kwargs):
            idx = spans.open(init_id)
            try:
                super().__init__(*args, **kwargs)
            finally:
                spans.close(idx)
            counts.caches.append(self)

        def start(self):
            idx = spans.open(start_id)
            try:
                return super().start()
            finally:
                spans.close(idx)

        def expand(self, handle):
            fresh = not self.is_expanded(handle)
            before = self.num_states
            idx = spans.open(expand_id)
            try:
                arcs = super().expand(handle)
            finally:
                spans.close(idx)
            if fresh:
                counts.arcs_built += len(arcs)
                counts.new_subsets += self.num_states - before
            return arcs

        def heuristic(self, handle, backward):
            idx = spans.open(heuristic_id)
            try:
                return super().heuristic(handle, backward)
            finally:
                spans.close(idx)

        def final_weight(self, handle):
            idx = spans.open(final_id)
            try:
                return super().final_weight(handle)
            finally:
                spans.close(idx)

    return TracedDfaCache


@contextmanager
def traced(spans: Spans, counts: CacheCounts):
    """Install the span wrappers for the duration of the block."""
    from shortstring import cli, search

    patches = [
        (cli, "read_text", _wrap(spans, "automaton.read_text", cli.read_text)),
        (cli, "validate", _wrap(spans, "automaton.validate", cli.validate)),
        (cli, "DfaCache", _traced_cache_class(cli.DfaCache, spans, counts)),
        (cli, "shortest_string",
         _wrap(spans, "search.shortest_string", cli.shortest_string)),
        (search, "backward_distance",
         _wrap(spans, "distance.backward_distance", search.backward_distance)),
    ]
    saved = [(module, name, getattr(module, name))
             for module, name, _ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
