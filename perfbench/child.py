"""One measured process of the benchmark.

    child.py setup --workload W
    child.py pass  --workload W --scale S --seed N [--corpus FILE] [--trace FILE]
    child.py cli   --trace FILE -- <metriclab cli arguments>

``setup`` and ``pass`` print one JSON line: the monotonic time at which
set-up was done, and for ``pass`` the wall time of the pass with the reports
and pinned results it produced. ``cli`` runs the command-line entry point
with tracing on and leaves stdout to it. Run with ``src`` on PYTHONPATH.

Set-up is the interpreter plus metriclab's own work: the benchmark's helper
modules load only after its end is taken. The script's directory is on
``sys.path`` because Python puts it there when it runs a script.
"""

from __future__ import annotations

import sys
import time


def _setup(workload: str, trace: str | None):
    from metriclab import enumeration, harness  # noqa: F401  (loads every layer but cli)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.context = "setup"
    if workload == "pool-n8":
        # the built-in part of every n=8 pool, cached per process
        list(enumeration.enumerate_connected_graphs(7))
    return tracer, time.monotonic()


def _pool_pass(tracer, corpus: str) -> tuple[float, list, list]:
    from metriclab import harness
    from workloads import POOL_SUITES

    reports = []
    start = time.perf_counter()
    for suite in POOL_SUITES:
        if tracer:
            tracer.context = suite
        reports.append(harness.run_suite(suite, nmax=8, corpus=corpus))
    wall = time.perf_counter() - start
    return wall, [r.to_json() for r in reports], []


def _families_pass(tracer, scale_name: str, seed: int) -> tuple[float, list, list]:
    from common import permutation
    from metriclab import extremal, harness, hypergraphs, resolving
    from workloads import PINNED_CAP, SCALES

    scale = SCALES[scale_name]
    generators = {
        "grid_chain": extremal.gen_grid_chain,
        "line_example": extremal.gen_line_example,
        "o": lambda d, k, chords: extremal.gen_o(d, k, with_chords=chords),
    }
    reports, solved = [], []
    start = time.perf_counter()
    for suite, nmax in scale["family_suites"]:
        if tracer:
            tracer.context = suite
        reports.append(harness.run_suite(suite, nmax=nmax))
    for pin in scale["pinned"]:
        what = pin["solve"]
        if tracer:
            tracer.context = f"pinned {what}"
        for copy in range(pin["copies"]):
            g, spec = generators[pin["family"]](*pin["args"])
            g = g.relabeled(permutation(g.n, seed, f"{what}/{copy}"))
            if what == "md":
                out = resolving.metric_dimension_exact(g, maxn=PINNED_CAP)
            elif what == "tc":
                h = hypergraphs.distance_hypergraph(g)
                out = (h, hypergraphs.min_test_cover(h, maxn=PINNED_CAP))
            else:
                out = hypergraphs.dual_distance_2vc(g, maxn=PINNED_CAP)
            solved.append((what, g, spec, out))
    wall = time.perf_counter() - start
    return wall, [r.to_json() for r in reports], [_pinned_doc(*item) for item in solved]


def _pinned_doc(what: str, g, spec, out) -> dict:
    """The solver's answer and the benchmark's own certificate checks."""
    from common import is_test_cover, resolves

    if what == "md":
        return {
            "solve": what,
            "value": out.dimension,
            "verified": out.verified,
            "certified": len(out.vertices) == out.dimension and resolves(g.n, g.adj, out.vertices),
        }
    if what == "tc":
        h, cover = out
        md, diam = spec.metric_dimension, spec.diameter
        return {
            "solve": what,
            "value": len(cover),
            "verified": is_test_cover(h.nverts, h.edges, cover),
            "certified": md <= len(cover) <= md * diam + 1,
        }
    return {"solve": what, "value": out}


def _cli(trace: str, argv: list[str]) -> int:
    import metriclab.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.context = "cli " + " ".join(argv[:2])
    try:
        return metriclab.cli.main(argv)
    finally:
        tracer.write(trace)


def main() -> int:
    argv = sys.argv[1:]
    if argv[:2] == ["cli", "--trace"] and argv[3:4] == ["--"]:
        return _cli(argv[2], argv[4:])
    # run.py is the only caller: a mode, then "--option value" pairs
    mode, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    tracer, ready = _setup(opts["--workload"], opts.get("--trace"))
    import json

    doc = {"ready": ready}
    if mode == "pass":
        if opts["--workload"] == "pool-n8":
            wall, reports, pinned = _pool_pass(tracer, opts["--corpus"])
        else:
            wall, reports, pinned = _families_pass(tracer, opts["--scale"], int(opts["--seed"]))
        doc.update(wall_s=wall, reports=reports, pinned=pinned)
        if tracer:
            tracer.write(opts["--trace"])
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
