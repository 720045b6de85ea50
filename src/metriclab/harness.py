"""Claim-check suites over exhaustively enumerated instance pools.

Each suite measures every instance in a deterministic pool, compares the
measurement against the declared inequality or prediction, and returns a
SuiteReport whose failures pin exact witnesses. For a fixed configuration
the report is identical run to run apart from the elapsed field.

Every claim of every suite goes through one collector, ``_Checks``, which
run_suite hands to the suite. ``claim`` builds the failure row (instance,
claim, measured, bound, witness; measured and bound through ``str``) only
when the claim does not hold, and run_suite sorts the rows once by
(instance, claim). ``ratio`` tracks n / bound for the suites that bound the
order: an instance replaces the current maximum only with a strictly larger
ratio, so the first instance to reach it wins; it is reported as
max_ratio (six decimals) and max_ratio_instance.

Connected-graph pools beyond the built-in enumeration (n > 7) must come
from an ingested graph6 corpus file; the harness refuses to sample rather
than silently shrinking a sweep, and refuses a corpus that holds two
isomorphic graphs (found by the enumeration's own bucket scan). It accepts
a corpus that holds only part of an order; ``corpus_shortfalls`` counts
each order against A001349 for a caller that refuses one (the CLI does).

The seven connected-graph suites (mdvstc_sandwich, prop8, prop10,
thm14_minor, outerplanar_bound, treedec_bound, chordal_obs) run through one
driver, ``_connected``, which builds the pool (n <= 7 unless nmax says
otherwise) and the config, and they take every measurement of a graph once
per process and share it through the pool: each pool entry is a graph with
its record. A pool is built once per process, so a later run_suite call
over the same corpus text gets the same graphs with the same records, and
a corpus pool starts with the entries of the built-in n <= 7 pool. A graph
is encoded to graph6 only where a report prints its name. Each measurement,
the K_t minor verdict of thm14_minor (t = min(d2vc, 5)) included, is one
entry of ``_MEASURES``, and a record has one slot per entry; a suite reads
it as an attribute of the graph's ``_Instance``. Each measurement is taken
on first use and stored only once the solver has returned, that is after
its own certificate check, so a failing check raises and leaves nothing
behind. A suite builds a graph's distance matrix at most once and drops it
when it moves to the next graph; the diameter, md, length and the ball
hypergraph all read that one matrix. The ball hypergraph is the one
structure kept across suites: it stays on the record from the suite that
builds it until tc, dvc, vc* and d2vc are all taken, and goes then, so a
record of a graph that every suite has seen holds scalars only. A graph
whose matrix is built a second time while a ball measurement is missing
gets its ball hypergraph from that matrix at once, so in either suite
order no graph needs a third matrix. vc* and d2vc each take the dual of
the kept hypergraph afresh; neither the matrix nor the dual is kept. One
engine, ``treewidth_exact``, gives every decomposition; the first read of
width or length builds it and stores both numbers, so no later suite
builds it again. A chordal graph peels away one simplicial vertex at a
time (Dirac 1961), so its bags are cliques and the numbers are a clique
tree's (width omega - 1, length at most 1). Both are read off the
decomposition as built, not reduced: the bound is stated for a reduced
decomposition, but absorbing a bag into a neighbour that contains it keeps
both numbers. The tree suites measure their instances directly and make
no records. The generator suites read a member's diameter, declared-set
check, md and radius-1 balls off one distance matrix; extremal_specs keeps
a record per distinct graph for the run, so a member generated twice is
measured once.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
import time
from collections import Counter
from typing import NamedTuple

from .bounds import bound_outerplanar, bound_tc_vc, bound_tree, bound_treedec
from .config import enforce_cap
from .enumeration import (
    _first_of_class,
    enumerate_connected_graphs,
    enumerate_trees,
    free_tree_key,
)
from .errors import DomainError, FormatError, MetriclabError
from .extremal import gen_grid_chain, gen_hs, gen_l, gen_line_example, gen_o, hs_order
from .graphs import (
    Graph,
    _diameter,
    all_distances,
    diameter,
    is_chordal,
    is_connected,
    is_tree,
    parse_graph6,
    to_graph6,
)
from .hypergraphs import (
    Hypergraph,
    _distance_hypergraph,
    _dual_2vc,
    _fixed_radius,
    dual,
    min_test_cover,
    trace,
    vc_dimension,
)
from .minors import has_clique_minor, is_outerplanar
from .resolving import (
    _metric_dimension,
    _resolves,
    tree_metric_dimension,
)
from .treedec import _length, treewidth_exact

# One cap for every solver call made from a suite. Generated instances top
# out at 116 vertices (line example, k=5), enumerated pools far lower.
SOLVER_CAP = 128


class Failure(NamedTuple):
    """One refuted claim: the instance, what was claimed, what was seen."""

    instance: str
    claim: str
    measured: str
    bound: str
    witness: str


class SuiteReport:
    __slots__ = ("suite", "instances", "failures", "elapsed", "config", "extras")

    def __init__(self, suite: str, instances: int, failures: list[Failure],
                 elapsed: float, config: dict, extras: dict):
        self.suite, self.instances, self.failures = suite, instances, failures
        self.elapsed, self.config, self.extras = elapsed, config, extras

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "passed": self.passed,
            "instances": self.instances,
            "failures": [f._asdict() for f in self.failures],
            "elapsed": self.elapsed,
            "config": self.config,
            "extras": self.extras,
        }

    def json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def table_text(self, max_rows: int = 50) -> str:
        out = [
            f"suite      {self.suite}",
            f"status     {'pass' if self.passed else 'FAIL'}",
            f"instances  {self.instances}",
            f"failures   {len(self.failures)}",
            f"elapsed    {self.elapsed:.2f}s",
            "config     " + " ".join(f"{k}={v}" for k, v in self.config.items()),
        ]
        for key, value in self.extras.items():
            out.append(f"extra      {key}={value}")
        if self.failures:
            out.append("")
            out.append(
                f"{'INSTANCE':<28}{'CLAIM':<40}{'MEASURED':<16}{'BOUND':<16}WITNESS"
            )
            for f in self.failures[:max_rows]:
                out.append(
                    f"{f.instance:<28}{f.claim:<40}{f.measured:<16}{f.bound:<16}{f.witness}"
                )
            if len(self.failures) > max_rows:
                out.append(f"... {len(self.failures) - max_rows} more (see JSON output)")
        return "\n".join(out) + "\n"

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["instance", "claim", "measured", "bound", "witness"])
        for f in self.failures:
            writer.writerow([f.instance, f.claim, f.measured, f.bound, f.witness])
        return buf.getvalue()


class _Checks:
    """The failure collector every suite reports its claims through."""

    def __init__(self) -> None:
        self.failures: list[Failure] = []
        self._ratio, self._ratio_instance = 0.0, ""

    def claim(self, holds, instance, claim, measured, bound, witness="") -> None:
        """Record a failure unless the claim holds. A Graph instance is named
        by its graph6 code, encoded only when the claim fails."""
        if not holds:
            name = to_graph6(instance) if isinstance(instance, Graph) else instance
            failure = Failure(name, claim, str(measured), str(bound), witness)
            self.failures.append(failure)

    def ratio(self, instance, n: int, bound: int) -> None:
        """Keep n / bound if it beats the maximum. A Graph instance is named
        by its graph6 code, encoded only when it becomes the maximum."""
        if n / bound > self._ratio:
            name = to_graph6(instance) if isinstance(instance, Graph) else instance
            self._ratio, self._ratio_instance = n / bound, name

    def max_ratio(self) -> dict:
        return {"max_ratio": f"{self._ratio:.6f}", "max_ratio_instance": self._ratio_instance}


# ---------------------------------------------------------------------------
# the records of the connected-graph suites


# measurement name -> how to take it from an _Instance; a record has one
# slot per entry
_MEASURES = {
    "diam": lambda inst: _diameter(inst.dist()),
    "md": lambda inst: _metric_dimension(inst.g, inst.dist(), maxn=SOLVER_CAP).dimension,
    "tc": lambda inst: len(min_test_cover(inst.balls(), maxn=SOLVER_CAP)),
    "vc_star": lambda inst: vc_dimension(dual(inst.balls()), maxn=SOLVER_CAP)[0],
    "dvc": lambda inst: vc_dimension(inst.balls(), maxn=SOLVER_CAP)[0],
    "d2vc": lambda inst: _dual_2vc(dual(inst.balls()), maxn=SOLVER_CAP),
    "chordal": lambda inst: is_chordal(inst.g),
    "outerplanar": lambda inst: is_outerplanar(inst.g),
    "width": lambda inst: inst.decomposition()[0],
    "length": lambda inst: inst.decomposition()[1],
    "minor": lambda inst: has_clique_minor(inst.g, min(inst.d2vc, 5)),
}

# the measurements read off the ball hypergraph
_BALL_MEASURES = ("tc", "vc_star", "dvc", "d2vc")


class _Record:
    """The measurements of one pool graph, each None until taken, and the
    graph's ball hypergraph while a measurement still needs it. The record
    lives in the pool entry that holds the graph."""

    __slots__ = ("balls", *_MEASURES)

    def __init__(self) -> None:
        self.balls = None
        for name in _MEASURES:
            setattr(self, name, None)

    def missing(self, names) -> bool:
        return any(getattr(self, name) is None for name in names)


def _clear_instances() -> None:
    """Drop every pool and with it every record: measure everything afresh."""
    _POOLS.clear()


class _Instance:
    """One graph as one suite reads it: the graph, its record (from the pool
    entry, or fresh for a generated graph), and its distance matrix, built
    at most once and only when a missing measurement needs it. Take a fresh
    one per graph (see ``_instances``) so that the matrix goes when the
    suite moves on. Every name in ``_MEASURES`` reads as an attribute, taken
    and stored in the record on first use."""

    __slots__ = ("g", "rec", "_dist")

    def __init__(self, rec: _Record, g: Graph) -> None:
        self.g, self.rec, self._dist = g, rec, None

    def __getattr__(self, name: str):
        take = _MEASURES.get(name)
        if take is None:
            raise AttributeError(name)
        rec = self.rec
        value = getattr(rec, name)
        if value is None:
            value = take(self)
            setattr(rec, name, value)
            if rec.balls is not None and not rec.missing(_BALL_MEASURES):
                rec.balls = None  # its last reader is done
        return value

    def dist(self) -> list[list[int]]:
        """The distance matrix. A graph that had one before (md or diam is
        taken) and still lacks a ball measurement is being swept by several
        suites: its ball hypergraph is built now as well and kept, so that
        no later suite builds a third matrix for it."""
        if self._dist is None:
            rec = self.rec
            self._dist = all_distances(self.g)
            if (rec.balls is None and (rec.md is not None or rec.diam is not None)
                    and rec.missing(_BALL_MEASURES)):
                rec.balls = _distance_hypergraph(self._dist)
        return self._dist

    def balls(self) -> Hypergraph:
        """The ball hypergraph, kept on the record until its last reader."""
        rec = self.rec
        if rec.balls is None:
            dist = self.dist()  # which may have kept it already
            if rec.balls is None:
                rec.balls = _distance_hypergraph(dist)
        return rec.balls

    def decomposition(self) -> tuple[int, int]:
        """Width and length of an exact-treewidth decomposition, both stored
        on the record when it is built, so it is built once per graph."""
        rec = self.rec
        if rec.width is None:
            w, td = treewidth_exact(self.g)
            rec.width, rec.length = w, _length(td, self.dist())
        return rec.width, rec.length


def _instances(pool: list[tuple[_Record, Graph]]):
    """A fresh _Instance per pool graph, in pool order."""
    return (_Instance(rec, g) for rec, g in pool)


# ---------------------------------------------------------------------------
# instance pools


# (nmax, corpus) -> (corpus text, pool) of every pool built so far
_POOLS: dict[tuple[int, str | None], tuple[str | None, list[tuple[_Record, Graph]]]] = {}


def _connected_pool(nmax: int, corpus: str | None) -> list[tuple[_Record, Graph]]:
    """Built-in enumeration to n=7, corpus levels beyond; never sampled.
    Each graph comes with its own record, and a pool past n=7 starts with
    the entries of the n <= 7 pool. A pool is built once per process: the
    corpus is read again on every call, and parsed and checked again only
    when its text has changed."""
    if nmax < 1:
        raise DomainError("nmax must be at least 1")
    text = None
    if nmax > 7:
        if corpus is None:
            raise DomainError(
                f"connected pools past n=7 need a graph6 corpus file (requested nmax={nmax})"
            )
        text = _read_corpus(corpus)
    key = (nmax, corpus if text is not None else None)
    cached = _POOLS.get(key)
    if cached is not None and cached[0] == text:
        return cached[1]
    if text is None:
        pool = [(_Record(), g) for g in enumerate_connected_graphs(nmax)]
    else:
        pool = _connected_pool(7, None) + [(_Record(), g) for g in _corpus_levels(corpus, text, nmax)]
    _POOLS[key] = (text, pool)
    return pool


def _read_corpus(corpus: str) -> str:
    try:
        with open(corpus) as fp:
            return fp.read()
    except OSError as exc:
        raise FormatError(f"cannot read corpus {corpus}: {exc}") from exc


# A001349: the connected graphs of order n = 0..12, up to isomorphism
_A001349 = (1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571, 1006700565, 164059830476)


def corpus_shortfalls(name: str, nmax: int | None, corpus: str | None) -> list[str]:
    """One line for each order that run_suite(name, nmax=nmax, corpus=corpus)
    reads from the corpus with another number of lines than A001349 counts
    graphs; each line's order is read off its graph6 header byte. Empty when
    the suite reads no corpus. run_suite itself accepts a partial corpus."""
    if corpus is None or nmax is None or nmax <= 7 or _SUITES.get(name) not in _CONNECTED:
        return []
    orders = Counter()
    for line in _read_corpus(corpus).split("\n"):
        head = line.strip().removeprefix(">>graph6<<")[:1]
        if head:
            orders[ord(head) - 63] += 1  # every order past 62 counts as 63
    out = []
    for n in range(8, nmax + 1):
        want = _A001349[n] if n < len(_A001349) else None
        if orders[n] != want:
            total = want or f"more than {_A001349[-1]}"
            out.append(f"order {n} has {orders[n]} of {total} graphs")
    return out


def _corpus_levels(corpus: str, text: str, nmax: int) -> list[Graph]:
    """The corpus graphs of orders 8..nmax, in file order. Every line must
    parse to a connected graph, and no two lines of one order may be
    isomorphic."""
    by_order: dict[int, list[tuple[int, Graph]]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except MetriclabError as exc:
            raise type(exc)(f"{corpus}:{lineno}: {exc}") from exc
        if not is_connected(g):
            raise FormatError(f"{corpus}:{lineno}: graph is not connected")
        by_order.setdefault(g.n, []).append((lineno, g))
    for n in sorted(by_order):
        level = by_order[n]
        for (lineno, _), (_, first) in zip(level, _first_of_class(g for _, g in level)):
            if first is not None:
                raise FormatError(
                    f"{corpus}:{lineno}: duplicate graph, isomorphic to line {level[first][0]}"
                )
    for n in range(8, nmax + 1):
        if n not in by_order:
            raise DomainError(f"corpus {corpus} has no graphs of order {n}")
    return [g for n in range(8, nmax + 1) for _, g in by_order[n]]


# the drivers of the connected-graph suites, the suites that read a corpus
_CONNECTED: set = set()


def _connected(suite):
    """Run suite(checks, pool) -> (instances, fields, extras) over the
    connected pool to nmax (7 by default); its config is nmax, the suite's
    own fields, and the corpus when the pool read one."""

    def run(checks, nmax, seed, corpus):
        nmax = 7 if nmax is None else nmax
        instances, fields, extras = suite(checks, _connected_pool(nmax, corpus))
        config = {"nmax": nmax, **fields}
        if nmax > 7 and corpus is not None:  # only then is it read
            config["corpus"] = corpus
        return instances, config, extras

    _CONNECTED.add(run)
    return run


# ---------------------------------------------------------------------------
# tree suites


def _measured_trees(nmax):
    """(t, d, k) for every free tree t to nmax, diameter d, dimension k."""
    for t in enumerate_trees(nmax):
        yield t, diameter(t), tree_metric_dimension(t).dimension


def _suite_tree_bound(checks, nmax, seed, corpus):
    nmax = 12 if nmax is None else nmax
    trees = list(_measured_trees(nmax))
    for t, d, k in trees:
        b = bound_tree(d, k)
        checks.claim(t.n <= b, t, "n <= tree bound", t.n, b, f"d={d} k={k}")
        checks.ratio(t, t.n, b)
    return len(trees), {"nmax": nmax}, checks.max_ratio()


def _hs_tag(d, k, a):
    return f"HS(d={d},k={k}" + (f",a={a})" if a is not None else ")")


def _hs_splits(d, k):
    """The odd-d splits a of the comb-tree assemblies of dimension k."""
    return [None] if d % 2 == 0 else range(1, k)


def _comb_tree_pool(nmax):
    """Every comb-tree assembly with order <= nmax and dimension >= 2."""
    for d in range(2, nmax + 1):
        for k in range(2, nmax + 1):
            if hs_order(d, k) > nmax:
                break
            for a in _hs_splits(d, k):
                yield d, k, a, gen_hs(d, k, a)[0]


def _suite_tree_equality(checks, nmax, seed, corpus):
    nmax = 12 if nmax is None else nmax
    trees = list(_measured_trees(nmax))
    equality = []
    low_dim = 0
    for t, d, k in trees:
        if t.n != bound_tree(d, k):
            continue
        if k < 2:
            # short paths attain the bound trivially; the characterization
            # concerns dimension >= 2 only
            low_dim += 1
            continue
        equality.append((t, d, k))

    @functools.cache
    def keys_for(d, k):
        return {free_tree_key(gen_hs(d, k, a)[0]) for a in _hs_splits(d, k)}

    equality_keys = set()
    for t, d, k in equality:
        key = free_tree_key(t)
        equality_keys.add(key)
        claim = "equality tree is a comb-tree assembly"
        no_match = "matches no generator output"
        checks.claim(key in keys_for(d, k), t, claim, f"n={t.n}", f"d={d} k={k}", no_match)

    params = 0
    for d, k, a, g in _comb_tree_pool(nmax):
        params += 1
        tag, gid = _hs_tag(d, k, a), to_graph6(g)
        kd = tree_metric_dimension(g).dimension
        checks.claim(kd == k, tag, "generator dimension matches", kd, k, gid)
        attained = kd != k or free_tree_key(g) in equality_keys
        b = bound_tree(d, k)
        checks.claim(attained, tag, "generator attains the bound", f"n={g.n}", b, gid)
    extras = {
        "equality_instances": len(equality),
        "low_dimension_equalities": low_dim,
        "generator_params_checked": params,
    }
    return len(trees), {"nmax": nmax}, extras


# ---------------------------------------------------------------------------
# distance-hypergraph suites


@_connected
def _suite_mdvstc(checks, pool):
    gap, gap_g = -1, None
    for inst in _instances(pool):
        g = inst.g
        tc = inst.tc  # first: its distance matrix gives the diameter
        d, k = inst.diam, inst.md
        checks.claim(k <= tc, g, "md <= TC", k, tc, f"d={d}")
        # multiplied form of (TC-1)/d <= md, exact in integers and safe at d=0
        sandwich = "TC - 1 <= md * diameter"
        checks.claim(tc - 1 <= k * d, g, sandwich, tc - 1, k * d, f"d={d} k={k}")
        if tc - k > gap:
            gap, gap_g = tc - k, g
    extras = {"max_tc_minus_md": gap, "max_gap_instance": to_graph6(gap_g)}
    return len(pool), {"solver_cap": SOLVER_CAP}, extras


@_connected
def _suite_prop8(checks, pool):
    for inst in _instances(pool):
        g, n = inst.g, inst.g.n
        tc, vcstar = inst.tc, inst.vc_star
        b = bound_tc_vc(tc, vcstar)
        checks.claim(n <= b, g, "n <= TC^vc* + 1", n, b, f"tc={tc} vc*={vcstar}")
        checks.ratio(g, n, b)
    return len(pool), {"solver_cap": SOLVER_CAP}, checks.max_ratio()


@_connected
def _suite_prop10(checks, pool):
    checked = 0
    repaired_failures = 0
    for inst in _instances(pool):
        dvc = inst.dvc
        if dvc < 2:
            continue
        checked += 1
        g, d, dstar = inst.g, inst.diam, inst.vc_star
        left = (dvc - math.log2(d)) / math.log2(dvc)
        quoted = "(dvc - log2 d)/log2 dvc <= dvc*"
        checks.claim(left <= dstar + 1e-9, g, quoted, f"{left:.9f}", dstar, f"d={d} dvc={dvc}")
        checks.claim(dstar <= d * dvc, g, "dvc* <= diameter * dvc", dstar, d * dvc, f"dvc={dvc}")
        repaired_arg = 2.0**dvc / (d + 1) - 1
        if repaired_arg > 0 and math.log2(repaired_arg) / math.log2(dvc) > dstar + 1e-9:
            repaired_failures += 1
    fields = {"solver_cap": SOLVER_CAP, "tolerance": "1e-9", "log_base": 2}
    extras = {
        "repaired_left_failures": repaired_failures,
        "note": (
            "the quoted left inequality fails on small dense graphs; the repaired "
            "form log2(2^dvc/(d+1) - 1)/log2(dvc) <= dvc* is tallied alongside"
        ),
    }
    return checked, fields, extras


def _suite_sauer_shelah(checks, nmax, seed, corpus):
    nmax = 12 if nmax is None else nmax
    if nmax < 1:
        raise DomainError("nmax must be at least 1")
    seed = 1729 if seed is None else seed
    count, x_per = 500, 20
    rng = random.Random(seed)
    for i in range(count):
        nverts = rng.randint(1, nmax)
        # refused before its edges are drawn, which could take gigabytes
        enforce_cap(nverts, SOLVER_CAP, "vc_n", "vc_dimension: nverts={n} exceeds cap {cap}")
        nedges = rng.randint(1, 2 * nverts)
        h = Hypergraph(nverts, [rng.getrandbits(nverts) for _ in range(nedges)])
        vcd = vc_dimension(h, maxn=SOLVER_CAP)[0]
        for j in range(x_per):
            xmask = 0
            while xmask == 0:
                xmask = rng.getrandbits(nverts)
            xs = [v for v in range(nverts) if xmask >> v & 1]
            distinct = len(trace(h, xs).edges)
            allowed = len(xs) ** vcd + 1
            case, witness = f"case{i:03d}.x{j:02d}", f"seed={seed} nverts={nverts} x={xmask:#x}"
            claim = "distinct traces <= |X|^vc + 1"
            checks.claim(distinct <= allowed, case, claim, distinct, allowed, witness)
    config = {"count": count, "x_per_instance": x_per, "nmax": nmax, "seed": seed}
    return count, config, {}


@_connected
def _suite_thm14_minor(checks, pool):
    hist: dict[int, int] = {}
    for inst in _instances(pool):
        t = inst.d2vc
        hist[t] = hist.get(t, 0) + 1
        claim = "dual 2-vc forces a clique minor"
        checks.claim(inst.minor, inst.g, claim, f"no K_{min(t, 5)} minor", f"d2vc={t}")
    extras = {"d2vc_histogram": {str(v): hist[v] for v in sorted(hist)}}
    return len(pool), {"clique_order_cap": 5}, extras


# ---------------------------------------------------------------------------
# structural bound suites


def _o_family(ks):
    """(tag, graph, spec) of the outerplanar family O(d, k), d = 2..8, k in ks."""
    for d in range(2, 9):
        for k in ks:
            for chords in (False, True):
                yield f"O(d={d},k={k},chords={int(chords)})", *gen_o(d, k, with_chords=chords)


@_connected
def _suite_outerplanar_bound(checks, pool):
    members = [(inst.g, inst) for inst in _instances(pool) if inst.outerplanar]
    # a member equal to a pool graph or an earlier member shares its record
    records = {g: rec for rec, g in pool}
    members += [(tag, _Instance(records.setdefault(g, _Record()), g))
                for tag, g, _ in _o_family(range(2, 5))]
    for name, inst in members:
        n = inst.g.n
        d = max(inst.diam, 1)
        k = max(inst.md, 1)
        b = bound_outerplanar(d, k)
        checks.claim(n <= b, name, "order <= outerplanar bound", n, b, f"d={d} k={k}")
        checks.ratio(name, n, b)
    fields = {"generated_d": "2..8", "generated_k": "2..4", "solver_cap": SOLVER_CAP}
    return len(members), fields, checks.max_ratio()


@_connected
def _suite_treedec_bound(checks, pool):
    chordal_count = 0
    for inst in _instances(pool):
        g, n = inst.g, inst.g.n
        chordal_count += inst.chordal
        w, ell = inst.width, inst.length
        d = max(inst.diam, 1)
        k = max(inst.md, 1)
        b = bound_treedec(d, k, max(w, 1), ell)
        witness = f"d={d} k={k} w={w} len={ell}"
        checks.claim(n <= b, g, "n <= decomposition bound", n, b, witness)
        checks.ratio(g, n, b)
    # the string names the decomposition the bound is stated for: reducing
    # keeps w and the length, and on a chordal graph the peel decomposition
    # has the clique tree's width (omega - 1) and length (1)
    fields = {"decomposition": "clique tree when chordal, else exact treewidth, reduced"}
    return len(pool), fields, {"chordal_instances": chordal_count, **checks.max_ratio()}


@_connected
def _suite_chordal_obs(checks, pool):
    chordal_count, max_w = 0, 0
    for inst in _instances(pool):
        if not inst.chordal:
            continue
        chordal_count += 1
        w = inst.width  # the clique tree's: both are omega - 1 on a chordal graph
        k = inst.md
        max_w = max(max_w, w)
        checks.claim(w <= 3**k, inst.g, "treewidth <= 3^md", w, 3**k, f"k={k}")
    return chordal_count, {"solver_cap": SOLVER_CAP}, {"max_width": max_w}


# ---------------------------------------------------------------------------
# generator suites


def _check_prediction(checks, tag, inst, spec, verdicts):
    """Check a generated member against its spec. The diameter, the
    declared-set check and md read one distance matrix; ``verdicts`` keeps
    each declared-set check by (graph, set), so that a graph generated twice
    and handed in with the same record is measured once."""
    g = inst.g
    checks.claim(g.n == spec.order, tag, "order matches prediction", g.n, spec.order)
    dm = inst.diam
    checks.claim(dm == spec.diameter, tag, "diameter matches prediction", dm, spec.diameter)
    size = len(spec.resolving_set)
    key = (g, spec.resolving_set)
    if key not in verdicts:
        verdicts[key] = _resolves(inst.dist(), spec.resolving_set)
    checks.claim(verdicts[key], tag, "declared set resolves", "not resolving", f"|S|={size}")
    if spec.metric_dimension is not None:
        want = spec.metric_dimension
        km = inst.md
        checks.claim(km == want, tag, "dimension matches prediction", km, want)
        checks.claim(size == want, tag, "declared set has minimum size", size, want)


def _suite_extremal_specs(checks, nmax, seed, corpus):
    # a graph generated twice keeps one record, and every case still counts:
    # O(d, k) has no chord to add for d <= 4, and O(2, k) is HS(2, k)
    records, verdicts = {}, {}

    def member(g):
        return _Instance(records.setdefault(g, _Record()), g)

    cases = 0
    for r in range(1, 7):
        cases += 1
        g = gen_l(r)
        want = 1 + r + r * (r - 1) // 2
        tag = f"L(r={r})"
        checks.claim(g.n == want, tag, "order matches prediction", g.n, want)
        checks.claim(is_tree(g), tag, "comb is a tree", "not a tree", "tree")
    for d in range(2, 10):
        for k in (2, 3):
            for a in [None] if d % 2 == 0 else range(0, k + 1):
                cases += 1
                g, spec = gen_hs(d, k, a)
                tag = _hs_tag(d, k, a)
                _check_prediction(checks, tag, member(g), spec, verdicts)
                checks.claim(is_tree(g), tag, "assembly is a tree", "not a tree", "tree")
    for tag, g, spec in _o_family((2, 3)):
        cases += 1
        inst = member(g)
        _check_prediction(checks, tag, inst, spec, verdicts)
        claim = "family is outerplanar"
        checks.claim(inst.outerplanar, tag, claim, "not outerplanar", "outerplanar")
    for t in (2, 3, 4):
        cases += 1
        g, spec = gen_grid_chain(t)
        _check_prediction(checks, f"grid_chain(t={t})", member(g), spec, verdicts)
    for k in (2, 3, 4):
        cases += 1
        g, spec = gen_line_example(k)
        _check_prediction(checks, f"line_example(k={k})", member(g), spec, verdicts)
    config = {
        "hs_grid": "d=2..9 k=2..3 with odd-d endpoint variants",
        "o_grid": "d=2..8 k=2..3 both chord settings",
        "solver_cap": SOLVER_CAP,
    }
    return cases, config, {}


def _suite_grid_chain(checks, nmax, seed, corpus):
    tmax = 4 if nmax is None else nmax
    if tmax < 2:
        raise DomainError("grid chain sweep needs nmax >= 2")
    diameters = {}
    for t in range(2, tmax + 1):
        g, spec = gen_grid_chain(t)
        dist = all_distances(g)
        tag = f"grid_chain(t={t})"
        checks.claim(g.n == t**3, tag, "order is t^3", g.n, t**3)
        resolves = _resolves(dist, spec.resolving_set)
        checks.claim(resolves, tag, "declared 3-set resolves", "not resolving", "|S|=3")
        diameters[str(t)] = {"measured": _diameter(dist), "quoted": 4 * t}
    extras = {
        "diameter": diameters,
        "note": "diameter comparison is informational; "
        "the family measures 4(t-1), not the quoted 4t",
    }
    return tmax - 1, {"tmax": tmax}, extras


def _suite_line_example(checks, nmax, seed, corpus):
    kmax = 5 if nmax is None else nmax
    if kmax < 2:
        raise DomainError("line example sweep needs nmax >= 2")
    diameters = {}
    for k in range(2, kmax + 1):
        g, spec = gen_line_example(k)
        dist = all_distances(g)
        tag = f"line_example(k={k})"
        want = k + 2**k - 1 + sum(i * math.comb(k, i) for i in range(1, k + 1))
        checks.claim(g.n == want, tag, "order matches the formula", g.n, want)
        resolves = _resolves(dist, spec.resolving_set)
        checks.claim(resolves, tag, "pinned-edge set resolves", "not resolving", f"|S|={k}")
        vc1 = vc_dimension(_fixed_radius(dist, 1), maxn=SOLVER_CAP)[0]
        checks.claim(vc1 <= 4, tag, "vc of radius-1 balls <= 4", vc1, 4)
        dm = _diameter(dist)
        # provably 5 for every k >= 2: subset vertices for disjoint index
        # sets need five hops; the often-quoted 4 is not attained
        checks.claim(dm == 5, tag, "diameter is 5", dm, 5)
        diameters[str(k)] = dm
    extras = {
        "diameter": diameters,
        "note": "the quoted diameter 4 is not attained; "
        "subset vertices with disjoint index sets sit at distance 5",
    }
    return kmax - 1, {"kmax": kmax, "solver_cap": SOLVER_CAP}, extras


# ---------------------------------------------------------------------------


_SUITES = {
    "tree_bound": _suite_tree_bound,
    "tree_equality": _suite_tree_equality,
    "mdvstc_sandwich": _suite_mdvstc,
    "prop8": _suite_prop8,
    "prop10": _suite_prop10,
    "sauer_shelah": _suite_sauer_shelah,
    "thm14_minor": _suite_thm14_minor,
    "outerplanar_bound": _suite_outerplanar_bound,
    "treedec_bound": _suite_treedec_bound,
    "chordal_obs": _suite_chordal_obs,
    "extremal_specs": _suite_extremal_specs,
    "grid_chain": _suite_grid_chain,
    "line_example": _suite_line_example,
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(
    name: str,
    *,
    nmax: int | None = None,
    seed: int | None = None,
    corpus: str | None = None,
) -> SuiteReport:
    """Run one claim suite and return its report.

    nmax is the pool limit; its exact meaning is per suite (max vertices
    for enumerated pools, max t or k for generator sweeps). seed only
    affects the randomized suite and is recorded in its config.
    """
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; valid: {', '.join(_SUITES)}")
    start = time.perf_counter()
    checks = _Checks()
    instances, config, extras = _SUITES[name](checks, nmax, seed, corpus)
    elapsed = time.perf_counter() - start
    failures = sorted(checks.failures, key=lambda f: (f.instance, f.claim))
    return SuiteReport(name, instances, failures, elapsed, config, extras)
