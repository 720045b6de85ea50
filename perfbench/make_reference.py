"""Write perfbench/reference.json: the expected outputs the benchmark checks.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference (the benchmark's seed
commit). It rebuilds every workload at both scales from scratch. Pool
reports are stored as digests of their label-free projection, one per
corpus shard and suite; every pool shard is also run under a second
relabelling, and the digests must agree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import REFERENCE, report_digest, run_info  # noqa: E402
from run import Bench  # noqa: E402
from workloads import COMB_SPEC, SCALES, spec_key  # noqa: E402

QUICK_POOL_SHARDS = 3  # quick mode references shards 0..2 only


def pool_digests(scale: str, seed: int) -> dict:
    bench = Bench("pool-n8", scale, seed, {scale: {}})
    proc, doc = bench.run_pass(bench.prepare_corpus())
    if doc is None:
        raise SystemExit(f"pool pass failed: {proc.stderr}")
    return {r["suite"]: report_digest(r) for r in doc["reports"]}


def build_pool(scale: str) -> dict:
    shards = SCALES[scale]["pool_shards"]
    count = shards if scale == "full" else QUICK_POOL_SHARDS
    pool = {}
    for shard in range(count):
        pool[str(shard)] = pool_digests(scale, shard)
        if pool_digests(scale, shard + shards) != pool[str(shard)]:
            raise SystemExit(f"shard {shard}: digests depend on the vertex labels")
        print(f"{scale} pool shard {shard} done", file=sys.stderr)
    return pool


def build_families(scale: str) -> dict:
    bench = Bench("families", scale, 0, {scale: {}})
    proc, doc = bench.run_pass(None)
    if doc is None:
        raise SystemExit(f"families pass failed: {proc.stderr}")
    families = {"suites": {r["suite"]: report_digest(r) for r in doc["reports"]}}
    for item in doc["pinned"]:
        families.setdefault(item["solve"], item["value"])
    return families


def build_cli(scale: str) -> dict:
    bench = Bench("cli-cold", scale, 0, {scale: {}})
    md = {}
    for spec in SCALES[scale]["gen_specs"]:
        gen = bench.cli(["gen", *spec])
        md[spec_key(spec)] = json.loads(bench.cli(["solve", "md"], gen.stdout).stdout)["dimension"]
    dhg = bench.cli(["hyper", "dhg"], bench.cli(["gen", *COMB_SPEC]).stdout)
    suites = {}
    for argv in SCALES[scale]["verify"]:
        report = json.loads(bench.cli(["verify", *argv, "--json", "-"]).stdout)
        suites[argv[0]] = report_digest(report)
    cli = {
        "md": md,
        "vc": json.loads(bench.cli(["hyper", "vc"], dhg.stdout).stdout)["vc"],
        "tc": json.loads(bench.cli(["hyper", "tc"], dhg.stdout).stdout)["size"],
        "suites": suites,
    }
    if bench.failures:
        raise SystemExit("; ".join(bench.failures))
    return cli


def main() -> int:
    ref = {}
    for scale in ("quick", "full"):
        ref[scale] = {
            "pool-n8": build_pool(scale),
            "families": build_families(scale),
            "cli-cold": build_cli(scale),
        }
    ref["source_revision"] = run_info()["git_revision"]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
