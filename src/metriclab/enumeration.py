"""Generation of all small trees and connected graphs up to isomorphism.

Free trees come from the rooted level-sequence successor of Beyer and
Hedetniemi ("Constant time generation of rooted trees", SIAM J. Comput.
1980). Each sequence it yields is already the greatest level sequence of
its tree at its own root. A free tree is emitted once, as the greatest
sequence over its center rootings, and the two tallest root branches,
h1 >= h2 (0 for a missing branch), decide most sequences in O(n):

- h1 - h2 >= 2: the first vertex of the tallest branch has eccentricity
  at most max(h1 - 1, h2 + 1) < h1, so the root is not a center. A
  non-center rooting never equals a center rooting (an isomorphism of
  rooted trees would map the root to a center), so the sequence is
  rejected.
- h1 == h2: the diameter is 2 * h1 and the root is its midpoint, the only
  center, so the sequence is the free canonical form and is kept.
- h1 == h2 + 1: the root and the first vertex of its tallest branch are
  the two centers. The root's rooting is the sequence itself, so it is
  kept only if no smaller than the canonical sequence rooted at the other
  center (one canonisation, not a leaf stripping and two).

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
  when one map exists. The records live only as long as the scan of their
  level; the level cache keeps the graphs. The same scan refuses
  isomorphic duplicates in a graph6 corpus (``harness``).

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


def _successor(seq: list[int]) -> list[int] | None:
    """Next rooted level sequence in decreasing lexicographic order."""
    p = -1
    for i in range(len(seq) - 1, 0, -1):
        if seq[i] >= 2:
            p = i
            break
    if p < 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    nxt = seq[:p]
    for i in range(p, len(seq)):
        nxt.append(nxt[i - (p - q)])
    return nxt


def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """All rooted trees on n vertices, one canonical sequence each."""
    seq: list[int] | None = list(range(n))
    while seq is not None:
        yield seq
        seq = _successor(seq)


def _adjacency_from_sequence(seq: list[int]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in seq]
    stack: list[int] = []
    for i, depth in enumerate(seq):
        del stack[depth:]
        if stack:
            adj[stack[-1]].append(i)
            adj[i].append(stack[-1])
        stack.append(i)
    return adj


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


def _root_branch_heights(seq: list[int]) -> tuple[int, int, int]:
    """The two tallest branch heights at the root, h1 >= h2 (0 if absent),
    and the position c of the first vertex of the first branch of height h1
    (0 for the one-vertex tree)."""
    h1 = h2 = top = c = start = 0
    for i in range(1, len(seq)):
        depth = seq[i]
        if depth == 1:
            # a new branch starts: fold the finished one into h1, h2
            if top > h1:
                h1, h2, c = top, h1, start
            elif top > h2:
                h2 = top
            top, start = 1, i
        elif depth > top:
            top = depth
    if top > h1:
        return top, h1, start
    return h1, max(h2, top), c


def _free_trees_exact(n: int) -> list[Graph]:
    if n not in _tree_cache:
        out = []
        for seq in _rooted_level_sequences(n):
            # keep the sequence only when it is the free-tree canonical
            # form, i.e. the greatest sequence over center rootings (the
            # three cases are argued in the module docstring)
            h1, h2, c = _root_branch_heights(seq)
            if h1 - h2 >= 2:
                continue
            adj = _adjacency_from_sequence(seq)
            if h1 == h2 + 1 and tuple(seq) < _canonical_from(adj, c):
                continue
            out.append(
                Graph.from_edges(n, ((u, v) for u, nb in enumerate(adj) for v in nb if u < v))
            )
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
