"""Generation of all small trees and connected graphs up to isomorphism.

Free trees are level sequences (vertex depths in preorder) in the
decreasing order of the rooted-tree successor of Beyer and Hedetniemi
("Constant time generation of rooted trees", SIAM J. Comput. 1980), each
the greatest sequence of its rooted tree. A free tree is emitted once, as
the greatest sequence over its center rootings. Root branches come tallest
first; with h1 >= h2 the heights of the first branch and of the tallest
other one (0 if absent), a sequence is decided in O(n), with no tree:

- h1 - h2 >= 2: the first vertex of the first branch has eccentricity at
  most max(h1 - 1, h2 + 1) < h1, so the root is not a center, and a
  non-center rooting never equals a center rooting: rejected.
- h1 == h2: the root is the midpoint of every longest path: kept.
- h1 == h2 + 1: the root and c, the first vertex of the first branch, are
  the centers. At c the old root heads a branch of height h1, taller than
  c's own, so c's sequence is [0, 1] + [y + 1 for y in rest] +
  [x - 1 for x in first[1:]] (first: the first branch; rest: the branches
  after it). Both start with [0, 1]; the root's sequence is kept unless
  its remainder is the smaller.

The generator skips rejected sequences in blocks, as the free-tree
generator of Wright, Richmond, Odlyzko and McKay ("Constant time
generation of free trees", SIAM J. Comput. 1986) does, and visits only
sequences whose rest has at least h1 - 1 vertices:

- Start: a first branch taller than h = n // 2 leaves its rest fewer than
  the h vertices that height h needs, so the greatest candidate is
  [0, 1..h, h x (n - 2h), 1..h-1].
- Jump: the sequences that share a first branch are consecutive, and along
  them h2 never rises (a taller second branch is lexicographically
  greater). So from the first with h1 - h2 >= 2 on, all are rejected, and
  the successor taken at the first branch's last position is the greatest
  sequence below them. At depth 2 that position starts the second branch:
  the first branch shrinks and the rest grows.
- Tail reset: at a depth > 2 the successor fills the tail with copies from
  the first branch, which leave the root a leaf (never a center for n >= 3)
  and add no height. The rest it overwrote had at least h1 - 1 >= h - 1
  vertices, h the new branch's height, so height h is reached before the
  last h - 1 entries; set those to the path 1..h-1. A sequence in between
  shares the part before them, so it leaves the rest at most h - 1
  vertices, of height h - 1 only as that path: only rejected sequences are
  skipped. WROM reset to height h, since their tie-break keeps the other
  rooting of a bicentral tree; keeping the greatest, the least valid rest
  has height h - 1.

The output is the filtered scan of every rooted sequence, graph for graph.

Connected graphs are built level by level: every connected graph on
n >= 2 vertices has a non-cut vertex, so attaching one new vertex to every
nonempty neighborhood of every (n-1)-vertex representative reaches all of
them. Candidates come in (base, mask) order and the first of each
isomorphism class is kept, so the output is fixed by that order.

- Orbit pruning, the half of McKay's canonical augmentation ("Isomorph-free
  exhaustive generation", J. Algorithms 1998) that pays here: an
  automorphism s of the base B maps the extension by mask m onto the one
  by s(m). So only the least mask of each Aut(B)-orbit is scanned; Aut(B)
  is found once per base by the color-preserving map search of
  ``graphs.isomorphic``, from the base's prepared record to itself. A
  pruned candidate is isomorphic to the earlier extension by its orbit's
  least mask, so it was never first in its class, and the first of a
  class is the least of its orbit and never pruned: the output is the
  unpruned scan's, graph for graph.
- The rest is a bucket scan in the manner of McKay and Piperno ("Practical
  graph isomorphism, II", 2014) without canonical labels. Each candidate
  is color-refined once, and its bucket key is the class sizes of the
  stable coloring with its quotient (the sorted final signatures, the
  quotient matrix of the equitable partition that refinement-based tools
  start from; it fixes n, m and the degree sequence). A candidate whose
  bucket is empty is kept with no search. Otherwise it is prepared once
  (its search order) and tried by the exhaustive map search against each
  member's prepared record (its colors and color classes), and dropped
  when one map exists. The key only spares searches: the map search is
  exact and itself refuses records whose classes differ in size, so even
  a constant key gives the same output. The records live only as long as
  the scan of their level; the level cache keeps the graphs. The same
  scan refuses isomorphic duplicates in a graph6 corpus (``harness``).

Both streams are deterministic run to run and cached per order, because the
check suites replay them many times in one process. The caches hold the
graphs alone; a connected level is sorted by graph6 code once, when it is
built, and the codes are not kept.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .config import enforce_cap
from .errors import DomainError
from .graphs import (
    Graph,
    _color_preserving_map,
    _color_preserving_maps,
    _invariant,
    _prepared,
    _refined_colors,
    is_tree,
    iter_bits,
    to_graph6,
)

# Level sequences are 0-based depth lists in preorder: L[0] = 0 and the
# parent of position i is the nearest j < i with L[j] == L[i] - 1.


def _successor(seq: list[int], p: int = 0) -> list[int] | None:
    """Next rooted level sequence in decreasing lexicographic order; given
    a position p with depth >= 2, the next one after every sequence that
    starts with seq[:p + 1]."""
    if not p:
        p = next((i for i in range(len(seq) - 1, 0, -1) if seq[i] >= 2), 0)
        if not p:
            return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    nxt = seq[:p]
    for i in range(p, len(seq)):
        nxt.append(nxt[i - (p - q)])
    return nxt


def _centers(adj: list[list[int]]) -> list[int]:
    # classic leaf stripping; one or two vertices survive
    n = len(adj)
    if n == 1:
        return [0]
    deg = [len(nb) for nb in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    alive = n
    while alive > 2:
        alive -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def _canonical_from(adj: list[list[int]], root: int) -> tuple[int, ...]:
    """Lexicographically greatest level sequence of the tree rooted here."""

    def sub(v: int, parent: int, depth: int) -> tuple[int, ...]:
        branches = sorted(
            (sub(u, v, depth + 1) for u in adj[v] if u != parent),
            reverse=True,
        )
        out = (depth,)
        for b in branches:
            out += b
        return out

    return sub(root, -1, 0)


def _free_canonical(adj: list[list[int]]) -> tuple[int, ...]:
    return max(_canonical_from(adj, c) for c in _centers(adj))


def free_tree_key(g: Graph) -> tuple[int, ...]:
    """Canonical form of a free tree; equal keys mean isomorphic trees."""
    if not is_tree(g):
        raise DomainError("free_tree_key needs a tree")
    adj = [sorted(g.neighbors(v)) for v in range(g.n)]
    return _free_canonical(adj)


_tree_cache: dict[int, list[Graph]] = {}


def _tree_from_sequence(seq: list[int]) -> Graph:
    g = Graph(len(seq))
    adj = g.adj
    last = [0] * len(seq)  # the latest vertex seen at each depth
    for v in range(1, len(seq)):
        parent = last[seq[v] - 1]
        adj[v] = 1 << parent
        adj[parent] |= 1 << v
        last[seq[v]] = v
    return g


def _free_trees_exact(n: int) -> list[Graph]:
    # the start, the three cases, the jump and the reset: see the docstring
    if n not in _tree_cache:
        out = []
        h = n // 2
        seq = [0] if n == 1 else [0, *range(1, h + 1), *[h] * (n - 2 * h), *range(1, h)]
        while seq is not None:
            e = seq.index(1, 2) - 1 if 1 in seq[2:] else n - 1  # first branch's end
            first, rest = seq[1 : e + 1], seq[e + 1 :]
            h1, h2 = max(first, default=0), max(rest, default=0)
            if h1 - h2 >= 2:
                seq = _successor(seq, e)
            else:
                if h1 == h2 or seq[2:] >= [y + 1 for y in rest] + [x - 1 for x in first[1:]]:
                    out.append(_tree_from_sequence(seq))
                seq = _successor(seq)
            if seq is not None and 1 not in seq[2:]:
                h = max(seq)
                seq[n - h + 1 :] = range(1, h)
        _tree_cache[n] = out
    return _tree_cache[n]


def enumerate_trees(n_max: int, maxn: int | None = None) -> Iterator[Graph]:
    """Every free tree with 1..n_max vertices, one per isomorphism class.

    Deterministic order: by vertex count, then by decreasing canonical
    level sequence. Counts per order follow the known sequence
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, ...
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    enforce_cap(n_max, maxn, "tree_enum_n", "tree enumeration: n_max={n} exceeds cap {cap}")

    def stream() -> Iterator[Graph]:
        for n in range(1, n_max + 1):
            yield from _free_trees_exact(n)

    return stream()


_conn_cache: dict[int, list[Graph]] = {}


def _extensions(base: Graph) -> Iterator[Graph]:
    """One-vertex extensions of base whose attachment mask is the least of
    its Aut(base)-orbit, in ascending mask order."""
    k = base.n
    rec = _prepared(base, _refined_colors(base)[0])
    # each automorphism as the image bit of every vertex
    autos = [[1 << w for w in p] for p in _color_preserving_maps(rec, rec)]
    seen = bytearray(1 << k)
    for mask in range(1, 1 << k):
        if seen[mask]:
            continue
        # no smaller mask of this orbit was kept, so mask is its least:
        # mark its images so the rest of the orbit is skipped
        bits = list(iter_bits(mask))
        for img in autos:
            image = 0
            for v in bits:
                image |= img[v]
            seen[image] = 1
        g = Graph(k + 1)
        g.adj[:k] = base.adj
        g.adj[k] = mask
        for v in bits:
            g.adj[v] |= 1 << k
        yield g


def _first_of_class(graphs: Iterable[Graph]) -> Iterator[tuple[Graph, int | None]]:
    """Each graph with None when it is the first of its isomorphism class
    so far, else with the position of that first graph in the stream.

    One refinement per graph gives its bucket key; a graph whose bucket is
    not empty is prepared for the map search and tried against each member.
    The records live in the buckets, so they go when the scan ends."""
    buckets: dict[tuple, list[tuple[int, tuple]]] = {}
    for i, g in enumerate(graphs):
        colors, quotient = _refined_colors(g)
        bucket = buckets.setdefault(_invariant(colors, quotient), [])
        # a source needs its search order; a first member is only a target
        rec = _prepared(g, colors, search=bool(bucket))
        first = next((j for j, h in bucket if _color_preserving_map(rec, h)), None)
        if first is None:
            bucket.append((i, rec))
        yield g, first


def _connected_exact(n: int) -> list[Graph]:
    if n not in _conn_cache:
        if n == 1:
            level = [Graph(1)]
        else:
            candidates = (g for base in _connected_exact(n - 1) for g in _extensions(base))
            level = [g for g, first in _first_of_class(candidates) if first is None]
        _conn_cache[n] = sorted(level, key=to_graph6)
    return _conn_cache[n]


def enumerate_connected_graphs(n_max: int, maxn: int | None = None) -> Iterator[Graph]:
    """Every connected graph with 1..n_max vertices, one per class.

    Deterministic order: by vertex count, then by graph6 string. Counts
    per order are 1, 1, 2, 6, 21, 112, 853 for n = 1..7. Orders past the
    cap are meant to come from ingested graph6 corpora, not from this
    generator.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    enforce_cap(
        n_max,
        maxn,
        "graph_enum_n",
        "connected-graph enumeration: n_max={n} exceeds cap {cap}; "
        "ingest a graph6 corpus for larger orders",
    )

    def stream() -> Iterator[Graph]:
        for n in range(1, n_max + 1):
            yield from _connected_exact(n)

    return stream()
