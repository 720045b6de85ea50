"""Self-test of the benchmark on the quick slice (two to three minutes).

    python3 perfbench/selftest.py

Drives every workload, every output check and the traced run at
``--scale quick`` and asserts that:
  - the result line has exactly the contract's keys and every metric that
    BENCHMARK.json names, with its unit, and no check fails;
  - two traced runs of one seed agree exactly on every count and ratio;
  - a deliberately wrong reference value makes checks fail
    (fail_share above 0, correct false) on every workload.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, REFERENCE, ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = Path(__file__).resolve().parent / "run.py"
# metrics that must repeat exactly between two traced runs of one seed
DETERMINISTIC_UNITS = {"count", "1/instance"}


def bench(workload: str, seed: int, trace: int, reference: Path = REFERENCE) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--scale", "quick", "--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result, json.loads(lines[-2])["details"]


def expect_metrics(result: dict, kind: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{kind}: missing {set(want) - set(got)}, extra {set(got) - set(want)}"


def main() -> int:
    for workload in WORKLOADS:
        result, details = bench(workload, 1, 0)
        assert result["correct"] and result["failed"] == 0, details["failures"]
        assert result["attempted"] > 0 and details["fail_share"] == 0
        expect_metrics(result, "end_to_end")
        print(f"ok  {workload}: end-to-end metrics, {result['attempted']} checks pass")

        first, _ = bench(workload, 1, 1)
        second, _ = bench(workload, 1, 1)
        expect_metrics(first, "per_layer")
        assert first["correct"] and second["correct"]
        for name, metric in first["metrics"].items():
            if metric["unit"] in DETERMINISTIC_UNITS or name == "setcover.greedy_optimal_share":
                again = second["metrics"][name]["value"]
                assert metric["value"] == again, f"{workload} {name}: {metric['value']} != {again}"
        print(f"ok  {workload}: traced counts and ratios repeat exactly")

    reference = json.loads(REFERENCE.read_text())
    wrong = copy.deepcopy(reference)
    quick = wrong["quick"]
    quick["pool-n8"]["0"]["prop10"] = "0" * 64
    quick["families"]["md"] += 1
    quick["cli-cold"]["vc"] += 1
    path = OUT / "wrong_reference.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(wrong))
    for workload in WORKLOADS:
        result, details = bench(workload, 0, 0, path)
        assert not result["correct"] and result["failed"] > 0 and details["fail_share"] > 0
        print(f"ok  {workload}: a wrong reference value gives fail_share {details['fail_share']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
