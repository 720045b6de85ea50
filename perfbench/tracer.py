"""Outside-in span tracing of metriclab's public functions.

``Tracer.install`` swaps the traced functions for timing wrappers on every
loaded ``metriclab`` module, matching by function identity so that aliases
(``harness.reduce_decomposition`` is ``treedec.reduce``) are caught too. The
source tree is never edited. A span is one call (or one ``next()`` of an
enumeration stream): function name, start, end, parent span, the suite or
command it ran under, and a few work counts read from the arguments. Spans
stay in memory and are written out when the process ends; ``aggregate``
turns span files into per-function call counts and self times.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# layer -> traced public functions (the layer is the module under metriclab)
TRACED = {
    "graphs": [
        "all_distances", "diameter", "is_connected", "is_chordal",
        "parse_graph6", "to_graph6", "isomorphic", "iso_invariant",
    ],
    "hypergraphs": [
        "distance_hypergraph", "distance_hypergraph_fixed_radius", "dual",
        "vc_dimension", "vc2_dimension", "min_test_cover",
    ],
    "setcover": ["min_cover", "greedy_cover"],
    "resolving": ["metric_dimension_exact", "tree_metric_dimension", "is_resolving"],
    "treedec": ["treewidth_exact", "clique_tree", "reduce"],
    "minors": ["has_clique_minor", "is_outerplanar"],
    "enumeration": ["enumerate_connected_graphs", "enumerate_trees", "free_tree_key"],
    "extremal": ["gen_hs", "gen_o", "gen_grid_chain", "gen_line_example"],
    "harness": ["run_suite"],
    "cli": ["main"],
}

# lazy streams: the work happens in next(), which is timed as its own span
_STREAMS = {"enumeration.enumerate_connected_graphs", "enumeration.enumerate_trees"}


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Work counts recorded on a span, read from the call's arguments."""
    if name == "setcover.min_cover":
        return {"universe_bits": args[0], "candidates": len(args[1]), "size": len(result)}
    if name == "setcover.greedy_cover":
        return {"size": len(result)}
    if name in ("hypergraphs.vc_dimension", "hypergraphs.vc2_dimension"):
        return {"edges": len(args[0].edges)}
    if name == "harness.run_suite":
        return {"suite": args[0]}
    return None


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent, context, kind, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.context = ""

    def _open(self, name: str, kind: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.context, kind, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, "call")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.spans[idx][6] = _attrs(name, args, result)
            if name in _STREAMS:
                return tracer._stream(name, result)
            return result

        return wrapper

    def _stream(self, name: str, it):
        while True:
            idx = self._open(name, "next")
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    def install(self) -> int:
        """Wrap every traced function at every import site; returns the site count."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules.get(f"metriclab.{layer}")
            if module is None:
                continue
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        sites = 0
        for modname, module in list(sys.modules.items()):
            if modname != "metriclab" and not modname.startswith("metriclab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    sites += 1
        return sites

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[list]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def aggregate(span_files) -> dict:
    """Per-function calls and self time, suite totals and work counts."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    suite_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    greedy_base = greedy_optimal = 0
    for path in span_files:
        spans = read_spans(path)
        greedy_size: dict[int, int] = {}
        for idx, (name, start, end, parent, _ctx, kind, attrs) in enumerate(spans):
            dur = end - start
            self_s[name] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
            if kind == "call":
                calls[name] += 1
            if attrs is None:
                continue
            if name == "setcover.greedy_cover" and parent >= 0:
                greedy_size[parent] = attrs["size"]
            elif name == "setcover.min_cover":
                work["setcover.min_cover.universe_bits"] += attrs["universe_bits"]
                work["setcover.min_cover.candidates"] += attrs["candidates"]
            elif name in ("hypergraphs.vc_dimension", "hypergraphs.vc2_dimension"):
                work[name + ".edges"] += attrs["edges"]
            elif name == "harness.run_suite":
                suite_s[attrs["suite"]] += dur
        for idx, span in enumerate(spans):
            if span[0] == "setcover.min_cover" and idx in greedy_size:
                greedy_base += 1
                greedy_optimal += greedy_size[idx] == span[6]["size"]
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "suite_s": dict(suite_s),
        "work": dict(work),
        "greedy_base": greedy_base,
        "greedy_optimal": greedy_optimal,
    }
