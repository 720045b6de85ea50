"""Helpers shared by run.py and the child processes it starts.

Nothing here imports metriclab: the seeded relabelling, the graph6 codec and
the report projection are the benchmark's own, so tracing never counts them
as work done by the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "data" / "connected8.g6"
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"


def program_env() -> dict:
    """Environment for a child process: the uninstalled package on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.pop("METRICLAB_MAXN", None)
    return env


# ---------------------------------------------------------------------------
# seeded relabelling


def permutation(n: int, seed: int, key: str) -> list[int]:
    """Vertex map old -> new for one input; seed 0 is the identity.

    Each input draws from its own stream keyed by name, so the map does not
    depend on the order in which inputs are prepared.
    """
    perm = list(range(n))
    if seed != 0:
        random.Random(f"{seed}/{key}").shuffle(perm)
    return perm


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) for the short graph6 form (n <= 62)."""
    data = [ord(c) - 63 for c in text.strip()]
    n = data[0] if data else -1
    if not 0 <= n <= 62 or len(data) != 1 + (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"not a short-form graph6 string: {text!r}")
    if any(not 0 <= v <= 63 for v in data):
        raise ValueError(f"graph6 character out of range: {text!r}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if data[1 + k // 6] >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return n, adj


def encode_graph6(n: int, adj: list[int]) -> str:
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(n + 63) + body


def relabel_graph6(text: str, seed: int, key: str) -> str:
    n, adj = decode_graph6(text)
    perm = permutation(n, seed, key)
    new = [0] * n
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1:
                new[perm[v]] |= 1 << perm[u]
    return encode_graph6(n, new)


def resolves(n: int, adj: list[int], landmarks: list[int]) -> bool:
    """Independent check that the landmarks give every vertex its own vector."""
    if any(not 0 <= s < n for s in landmarks):
        return False
    vectors = [[] for _ in range(n)]
    for s in landmarks:
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in range(n):
                    if adj[v] >> u & 1 and dist[u] < 0:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        for v in range(n):
            vectors[v].append(dist[v])
    return len({tuple(vec) for vec in vectors}) == n


def is_test_cover(nverts: int, edges: list[int], chosen: list[int]) -> bool:
    """Every vertex lies in a chosen edge and no two share their signature."""
    if any(not 0 <= i < len(edges) for i in chosen):
        return False
    sigs = {
        tuple(i for i in chosen if edges[i] >> v & 1) for v in range(nverts)
    }
    return () not in sigs and len(sigs) == nverts


# ---------------------------------------------------------------------------
# report projection


def report_digest(report: dict) -> str:
    """sha256 of the label-free part of a suite report.

    Dropped: elapsed, config, the instance field of each failure and every
    *_instance extra. Failures are sorted, because their order follows the
    labels of the instances.
    """
    failures = sorted(
        json.dumps({k: v for k, v in f.items() if k != "instance"}, sort_keys=True)
        for f in report["failures"]
    )
    doc = {k: v for k, v in report.items() if k not in ("elapsed", "config", "failures")}
    doc["failures"] = failures
    doc["extras"] = {k: v for k, v in report["extras"].items() if not k.endswith("_instance")}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# run environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    """HEAD of a checkout that has its .git directory, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info() -> dict:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_revision": _git_revision(),
        "corpus_sha256": hashlib.sha256(CORPUS.read_bytes()).hexdigest(),
    }
