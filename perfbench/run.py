"""metriclab benchmark: three workloads, every output checked.

    python3 perfbench/run.py --workload pool-n8 --seed 0 --seconds 40 --trace 0

Workloads (a closed loop with one client; one child process at a time):

pool-n8   the seven connected-graph suites at nmax=8 in one process, over the
          built-in n<=7 pool plus one shard of tests/data/connected8.g6
          (shard = seed mod 24), each corpus line relabelled by the seed.
families  extremal_specs, grid_chain and line_example at their defaults, then
          seeded relabelled copies of three pinned family members (md, test
          cover, dual 2-VC dimension) at cap 128.
cli-cold  a fixed cycle of fresh ``python -m metriclab.cli`` processes:
          gen -> solve md round trips, gen l | hyper dhg -> vc / tc, and two
          verify suites.

Each measured pass is a fresh child process; between passes the run makes
gen -> solve round trips (on cli-cold they extend the cycle's own), until
--seconds are spent. With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes give the per-layer metrics (see tracer.py). The line before it holds
the run's details: environment, instance count, samples, the tail
percentile and the failed checks. ``--scale quick`` runs a tiny slice of
every path for the self-test. Exit code 2, with no result, when the program
sources or the reference are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CORPUS,
    OUT,
    REFERENCE,
    ROOT,
    SRC,
    decode_graph6,
    program_env,
    relabel_graph6,
    report_digest,
    resolves,
    run_info,
)
from tracer import TRACED, aggregate  # noqa: E402
from workloads import COMB_SPEC, POOL_SUITES, SCALES, WORKLOADS, shard_lines, spec_key  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
PROCESS_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 3
CLI_SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
IMPORT_SAMPLES = 5

# every suite a workload runs, for the per-suite totals of the traced run
ALL_SUITES = POOL_SUITES + ["extremal_specs", "grid_chain", "line_example", "tree_bound"]


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    start: float
    elapsed: float
    maxrss_kb: int


class Bench:
    """One benchmark run: runs child processes one at a time and counts checks."""

    def __init__(self, workload: str, scale: str, seed: int, reference: dict):
        self.workload = workload
        self.scale_name = scale
        self.scale = SCALES[scale]
        self.seed = seed
        self.ref = reference[scale]
        self.env = program_env()
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.instances = 0
        self._trace_seq = 0
        self._child: subprocess.Popen | None = None

    def terminate(self, signum, _frame) -> None:
        """Signal handler: kill and reap the running child, then exit."""
        if self._child is not None:
            self._child.kill()
            self._child.wait()
        raise SystemExit(128 + signum)

    # -- checks ------------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    # -- processes ---------------------------------------------------------

    def run(self, cmd: list[str], stdin_text: str = "") -> Proc:
        """Run one child to completion; stdio through files, rusage from wait4."""
        with open(self.tmp / "stdin", "w+") as fin, open(self.tmp / "stdout", "w+") as fout, open(
            self.tmp / "stderr", "w+"
        ) as ferr:
            fin.write(stdin_text)
            fin.flush()
            fin.seek(0)
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdin=fin, stdout=fout, stderr=ferr, env=self.env, cwd=ROOT
            )
            self._child = proc
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                self._child = None
            elapsed = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fout.seek(0)
            ferr.seek(0)
            return Proc(proc.returncode, fout.read(), ferr.read(), start, elapsed, usage.ru_maxrss)

    def cli(self, argv: list[str], stdin_text: str = "", trace_dir: Path | None = None) -> Proc:
        if trace_dir is None:
            cmd = [sys.executable, "-m", "metriclab.cli", *argv]
        else:
            self._trace_seq += 1
            path = trace_dir / f"cli-{self._trace_seq:03d}.jsonl.gz"
            cmd = [sys.executable, str(CHILD), "cli", "--trace", str(path), "--", *argv]
        proc = self.run(cmd, stdin_text)
        self.check(proc.code == 0, f"exit code {proc.code} from {' '.join(argv)}: {proc.stderr[-200:]}")
        return proc

    # -- in-process workloads ----------------------------------------------

    def prepare_corpus(self) -> Path:
        lines = [ln.strip() for ln in CORPUS.read_text().splitlines() if ln.strip()]
        shard = shard_lines(lines, self.scale_name, self.seed)
        path = self.tmp / "corpus.g6"
        path.write_text("".join(relabel_graph6(ln, self.seed, ln) + "\n" for ln in shard))
        return path

    def run_pass(self, corpus: Path | None, trace: Path | None = None) -> tuple[Proc, dict | None]:
        cmd = [sys.executable, str(CHILD), "pass", "--workload", self.workload]
        cmd += ["--scale", self.scale_name, "--seed", str(self.seed)]
        if corpus is not None:
            cmd += ["--corpus", str(corpus)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        proc = self.run(cmd)
        doc = None
        if self.check(proc.code == 0, f"pass exit code {proc.code}: {proc.stderr[-300:]}"):
            doc = json.loads(proc.stdout.splitlines()[-1])
        return proc, doc

    def child_pass(self, corpus: Path | None, trace: Path | None = None) -> dict:
        """One pass in a fresh process; checks its outputs, returns its numbers."""
        proc, doc = self.run_pass(corpus, trace)
        if self.workload == "pool-n8":
            self.check_pool(doc)
        else:
            self.check_families(doc)
        if doc is None:
            return {"setup_s": None, "wall_s": None, "rss_kb": proc.maxrss_kb, "instances": 0}
        instances = sum(r["instances"] for r in doc["reports"]) + len(doc["pinned"])
        return {
            "setup_s": doc["ready"] - proc.start,
            "wall_s": doc["wall_s"],
            "rss_kb": proc.maxrss_kb,
            "instances": instances,
        }

    def check_reports(self, reports: list | None, expected: dict) -> None:
        got = {r["suite"]: report_digest(r) for r in reports or []}
        for suite, digest in expected.items():
            self.check(got.get(suite) == digest, f"report of {suite} differs from the reference")

    def check_pool(self, doc: dict | None) -> None:
        shard = str(self.seed % self.scale["pool_shards"])
        expected = self.ref["pool-n8"].get(shard)
        if expected is None:
            raise SystemExit(f"no reference for pool shard {shard} at scale {self.scale_name}")
        self.check_reports(doc and doc["reports"], expected)

    def check_families(self, doc: dict | None) -> None:
        ref = self.ref["families"]
        self.check_reports(doc and doc["reports"], ref["suites"])
        got = doc["pinned"] if doc else []
        expected = [pin["solve"] for pin in self.scale["pinned"] for _ in range(pin["copies"])]
        if len(got) != len(expected):
            got = [{"solve": what} for what in expected]
        for item in got:
            what = item["solve"]
            value = item.get("value")
            self.check(value == ref[what], f"pinned {what} {value} != {ref[what]}")
            if what in ("md", "tc"):
                self.check(item.get("verified") is True, f"pinned {what}: answer fails its check")
                self.check(item.get("certified") is True, f"pinned {what}: certificate check failed")

    def setup_only(self) -> float | None:
        proc = self.run([sys.executable, str(CHILD), "setup", "--workload", self.workload])
        if not self.check(proc.code == 0, f"setup exit code {proc.code}"):
            return None
        return json.loads(proc.stdout.splitlines()[-1])["ready"] - proc.start

    # -- command-line workload -----------------------------------------------

    def round_trip(self, spec: list[str], trace_dir: Path | None = None) -> tuple[float, int]:
        """gen -> relabel -> solve md; returns (latency in s, peak RSS in kB)."""
        key = spec_key(spec)
        gen = self.cli(["gen", *spec, "--json", "-"], trace_dir=trace_dir)
        try:
            doc = json.loads(gen.stdout)
            graph6 = relabel_graph6(doc["graph6"], self.seed, key)
        except (ValueError, KeyError):
            doc, graph6 = {}, ""
        solve = self.cli(["solve", "md"], graph6 + "\n", trace_dir=trace_dir)
        latency = solve.start + solve.elapsed - gen.start
        try:
            cert = json.loads(solve.stdout)
        except ValueError:
            cert = {}
        want = doc.get("metric_dimension")
        if want is None:
            want = self.ref["cli-cold"]["md"][key]
        self.check(cert.get("verified") is True, f"solve md on {key}: not verified")
        self.check(cert.get("dimension") == want, f"solve md on {key}: {cert.get('dimension')} != {want}")
        ok = bool(graph6) and len(cert.get("set", [])) == want
        if ok:
            n, adj = decode_graph6(graph6)
            ok = resolves(n, adj, cert["set"])
        self.check(ok, f"solve md on {key}: returned set does not resolve")
        return latency, max(gen.maxrss_kb, solve.maxrss_kb)

    def cycle(self, trace_dir: Path | None = None) -> dict:
        ref = self.ref["cli-cold"]
        start = time.monotonic()
        latencies, rss = [], 0
        for spec in self.scale["gen_specs"]:
            latency, peak = self.round_trip(spec, trace_dir)
            latencies.append(latency)
            rss = max(rss, peak)
        comb = self.cli(["gen", *COMB_SPEC], trace_dir=trace_dir)
        try:
            graph6 = relabel_graph6(comb.stdout, self.seed, "comb")
        except ValueError:
            graph6 = ""
        dhg = self.cli(["hyper", "dhg"], graph6 + "\n", trace_dir=trace_dir)
        vc = self.cli(["hyper", "vc"], dhg.stdout, trace_dir=trace_dir)
        tc = self.cli(["hyper", "tc"], dhg.stdout, trace_dir=trace_dir)
        self.check(_field(vc.stdout, "vc") == ref["vc"], f"hyper vc gave {vc.stdout.strip()}")
        self.check(_field(tc.stdout, "size") == ref["tc"], f"hyper tc gave {tc.stdout.strip()}")
        rss = max(rss, comb.maxrss_kb, dhg.maxrss_kb, vc.maxrss_kb, tc.maxrss_kb)
        instances = len(self.scale["gen_specs"]) * 2 + 4
        for argv in self.scale["verify"]:
            proc = self.cli(["verify", *argv, "--json", "-"], trace_dir=trace_dir)
            rss = max(rss, proc.maxrss_kb)
            try:
                report = json.loads(proc.stdout)
            except ValueError:
                report = None
            suite = argv[0]
            self.check(
                report is not None and report_digest(report) == ref["suites"][suite],
                f"verify {suite}: report differs from the reference",
            )
            instances += report["instances"] if report else 0
        return {
            "wall_s": time.monotonic() - start,
            "rss_kb": rss,
            "latencies": latencies,
            "instances": instances,
        }

    def cli_setup(self) -> float:
        return self.cli(["--help"]).elapsed

    def probe(self, count: int) -> list[float]:
        specs = self.scale["gen_specs"]
        return [self.round_trip(specs[i % len(specs)])[0] for i in range(count)]

    def import_s(self) -> float:
        """Fresh `import metriclab.cli` minus a bare interpreter start."""
        bare, full = [], []
        for _ in range(IMPORT_SAMPLES):
            bare.append(self.run([sys.executable, "-c", "pass"]).elapsed)
            full.append(self.run([sys.executable, "-c", "import metriclab.cli"]).elapsed)
        return statistics.median(full) - statistics.median(bare)


def _field(text: str, key: str):
    try:
        return json.loads(text).get(key)
    except ValueError:
        return None


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that has
    TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end run


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Passes (cycles for cli-cold) that fit in the time, with one rotation
    of gen -> solve round trips after each until the workload's fixed count
    is reached; medians over what was measured. The cli figures use exactly
    the first `round_trips` latencies, so every run reports one percentile."""
    deadline = time.monotonic() + seconds
    specs = len(bench.scale["gen_specs"])
    round_trips = bench.scale["round_trips"][bench.workload]
    latencies: list[float] = []
    walls, rss, setups = [], [], []

    if bench.workload == "cli-cold":
        setups = [bench.cli_setup() for _ in range(CLI_SETUP_SAMPLES)]
        one_pass = bench.cycle
    else:
        corpus = bench.prepare_corpus() if bench.workload == "pool-n8" else None
        one_pass = lambda: bench.child_pass(corpus)  # noqa: E731
    while True:
        start = time.monotonic()
        result = one_pass()
        pass_s = time.monotonic() - start
        bench.instances = result["instances"]
        if result["wall_s"] is None:
            return {}, {}
        walls.append(result["wall_s"])
        rss.append(result["rss_kb"])
        latencies.extend(result.get("latencies", []))
        if result.get("setup_s") is not None:
            setups.append(result["setup_s"])
        latencies.extend(bench.probe(min(specs, round_trips - len(latencies))))
        # another pass only if it and the round trips still owed fit
        owed = max(0, round_trips - len(latencies))
        if time.monotonic() + pass_s + owed * statistics.median(latencies) > deadline:
            break
    latencies.extend(bench.probe(round_trips - len(latencies)))
    latencies = latencies[:round_trips]
    while len(setups) < MIN_SETUP_SAMPLES:
        sample = bench.setup_only()
        if sample is None:
            return {}, {}
        setups.append(sample)
    tail_value, tail_pct = tail(latencies)
    details = {
        "instances": bench.instances,
        "wall_samples": walls,
        "setup_samples": setups,
        "cli_samples": len(latencies),
        "cli_tail_percentile": round(tail_pct, 1),
    }
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(statistics.median(rss) / 1024, "MB"),
        "cli_p50_ms": _metric(statistics.median(latencies) * 1000, "ms"),
        "cli_tail_ms": _metric(tail_value * 1000, "ms"),
    }
    return metrics, details


# ---------------------------------------------------------------------------
# traced run


def measure_traced(bench: Bench) -> tuple[dict, dict]:
    """Untraced, traced, traced, untraced passes of one seed (the ABBA order
    cancels a linear drift in machine speed). The first traced pass gives the
    per-layer metrics; both pairs give the tracing overhead."""
    trace_dir = OUT / "trace" / f"{bench.workload}-{bench.scale_name}-seed{bench.seed}"
    repeat_dir = trace_dir / "repeat"
    for folder in (trace_dir, repeat_dir):
        folder.mkdir(parents=True, exist_ok=True)
        for old in folder.glob("*.jsonl.gz"):
            old.unlink()
    if bench.workload == "cli-cold":
        order = [bench.cycle(), bench.cycle(trace_dir), bench.cycle(repeat_dir), bench.cycle()]
    else:
        corpus = bench.prepare_corpus() if bench.workload == "pool-n8" else None
        order = [
            bench.child_pass(corpus),
            bench.child_pass(corpus, trace_dir / "pass.jsonl.gz"),
            bench.child_pass(corpus, repeat_dir / "pass.jsonl.gz"),
            bench.child_pass(corpus),
        ]
    walls = [result["wall_s"] for result in order]
    if None in walls:
        return {}, {}
    plain_s, traced_s = walls[0] + walls[3], walls[1] + walls[2]
    traced = order[1]
    agg = aggregate(sorted(trace_dir.glob("*.jsonl.gz")))
    instances = traced["instances"]
    metrics: dict = {}
    for layer, names in TRACED.items():
        total = 0.0
        for fname in names:
            name = f"{layer}.{fname}"
            own = agg["self_s"].get(name, 0.0)
            total += own
            if layer != "harness":
                metrics[name + ".calls"] = _metric(agg["calls"].get(name, 0), "count")
                metrics[name + ".self_s"] = _metric(own, "s")
        metrics[layer + ".self_s"] = _metric(total, "s")
    for suite in ALL_SUITES:
        metrics[f"harness.run_suite.{suite}.total_s"] = _metric(agg["suite_s"].get(suite, 0.0), "s")
    metrics["cli.import_s"] = _metric(bench.import_s(), "s")
    for key in (
        "setcover.min_cover.universe_bits",
        "setcover.min_cover.candidates",
        "hypergraphs.vc_dimension.edges",
        "hypergraphs.vc2_dimension.edges",
    ):
        metrics[key] = _metric(agg["work"].get(key, 0), "count")
    for name in ("graphs.all_distances", "graphs.parse_graph6", "setcover.min_cover"):
        metrics[name + ".per_instance"] = _metric(
            agg["calls"].get(name, 0) / instances, "1/instance"
        )
    base = agg["greedy_base"]
    metrics["setcover.greedy_optimal_share"] = _metric(
        agg["greedy_optimal"] / base if base else 0.0, "share"
    )
    metrics["trace.overhead_share"] = _metric(traced_s / plain_s - 1, "share")
    details = {
        "instances": instances,
        "wall_samples_abba": walls,
        "greedy_cover_children": base,
        "trace_dir": str(trace_dir.relative_to(ROOT)),
    }
    return metrics, details


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--reference", default=str(REFERENCE), help="expected outputs (JSON)")
    args = parser.parse_args()
    if not (SRC / "metriclab" / "cli.py").is_file() or not CORPUS.is_file():
        print("error: metriclab sources or corpus not found next to the benchmark", file=sys.stderr)
        return 2
    try:
        reference = json.loads(Path(args.reference).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read reference {args.reference}: {exc}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.scale, args.seed, reference)
    signal.signal(signal.SIGTERM, bench.terminate)
    signal.signal(signal.SIGINT, bench.terminate)
    if args.trace:
        metrics, details = measure_traced(bench)
    else:
        metrics, details = measure(bench, args.seconds)
    if not metrics:
        print("error: no pass completed; failures: " + "; ".join(bench.failures[:5]), file=sys.stderr)
        return 1
    failed = len(bench.failures)
    details.update(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        trace=args.trace,
        fail_share=failed / bench.attempted,
        failures=bench.failures[:20],
        info=run_info(),
    )
    print(json.dumps({"details": details}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
