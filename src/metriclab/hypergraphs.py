"""Hypergraphs: traces, VC dimensions, duality, distance hypergraphs, test covers.

Edges are stored as int bitmasks over vertices 0..nverts-1, in a list whose
slots are meaningful: the dual has one vertex per edge slot and one edge per
original vertex, so dual(dual(h)) == h exactly, multiplicities included.
Deduplication is always an explicit step (``dedup``), never implicit.

Optional edge labels carry bookkeeping like ball descriptions; they are
excluded from equality, mirroring vertex labels on graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import enforce_cap
from .errors import DomainError, FormatError, InternalError, TooLargeError
from .graphs import MAX_VERTICES, Graph, all_distances, iter_bits
from .setcover import min_cover


@dataclass(eq=False)
class Hypergraph:
    nverts: int
    edges: list[int]
    edge_labels: list[str | None] | None = None

    def __post_init__(self):
        full = (1 << self.nverts) - 1
        for e in self.edges:
            if e & ~full:
                raise DomainError("edge mentions a vertex outside 0..nverts-1")

    def edge_vertices(self, i: int) -> list[int]:
        return list(iter_bits(self.edges[i]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.nverts == other.nverts
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.nverts, tuple(self.edges)))

    def __repr__(self):
        return f"Hypergraph(nverts={self.nverts}, nedges={len(self.edges)})"


@dataclass
class ShatterWitness:
    """A shattered (or 2-shattered) set plus one realizing edge per subset.

    assignment maps a sorted vertex tuple (a subset of ``vertices``; only the
    pairs for the 2-shattered case) to the index of an edge whose trace on
    ``vertices`` is exactly that subset.
    """

    vertices: list[int]
    assignment: dict[tuple[int, ...], int]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "assignment": [
                {"subset": list(k), "edge": v}
                for k, v in sorted(self.assignment.items())
            ],
        }


# ---------------------------------------------------------------------------
# text format: "p hyper NVERTS NEDGES", then one line per edge (0-based ids;
# a blank line is the empty edge)


def parse_hypergraph(text: str) -> Hypergraph:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty hypergraph input")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "p" or head[1] != "hyper":
        raise FormatError("expected header 'p hyper NVERTS NEDGES'")
    try:
        nverts, nedges = int(head[2]), int(head[3])
    except ValueError as exc:
        raise FormatError("header counts must be integers") from exc
    if nverts < 0 or nedges < 0:
        raise FormatError("header counts must be nonnegative")
    if nverts > MAX_VERTICES:
        raise TooLargeError(f"NVERTS={nverts} exceeds the input cap of {MAX_VERTICES}")
    if len(lines) < 1 + nedges:
        raise FormatError(f"expected {nedges} edge lines, found {len(lines) - 1}")
    for extra in lines[1 + nedges :]:
        if extra.strip():
            raise FormatError("trailing content after the declared edges")
    edges = []
    for lineno in range(1, 1 + nedges):
        mask = 0
        for tok in lines[lineno].split():
            try:
                v = int(tok)
            except ValueError as exc:
                raise FormatError(f"line {lineno + 1}: bad vertex id {tok!r}") from exc
            if not 0 <= v < nverts:
                raise FormatError(f"line {lineno + 1}: vertex {v} out of range")
            mask |= 1 << v
        edges.append(mask)
    return Hypergraph(nverts, edges)


def format_hypergraph(h: Hypergraph) -> str:
    out = [f"p hyper {h.nverts} {len(h.edges)}"]
    for e in h.edges:
        out.append(" ".join(str(v) for v in iter_bits(e)))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# basic operations


def dedup(h: Hypergraph) -> Hypergraph:
    """Drop repeated edge sets, keeping the first slot (and its label)."""
    seen = set()
    edges = []
    labels = []
    for i, e in enumerate(h.edges):
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
        labels.append(h.edge_labels[i] if h.edge_labels else None)
    return Hypergraph(h.nverts, edges, labels if any(labels) else None)


def trace(h: Hypergraph, x) -> Hypergraph:
    """Projection onto x, deduplicated, vertices relabeled to 0..|x|-1."""
    xs = sorted(set(x))
    for v in xs:
        if not 0 <= v < h.nverts:
            raise DomainError(f"trace vertex {v} outside the vertex set")
    pos = {v: i for i, v in enumerate(xs)}
    xmask = 0
    for v in xs:
        xmask |= 1 << v
    seen = set()
    edges = []
    labels = []
    for i, e in enumerate(h.edges):
        rel = 0
        for v in iter_bits(e & xmask):
            rel |= 1 << pos[v]
        if rel in seen:
            continue
        seen.add(rel)
        edges.append(rel)
        labels.append(h.edge_labels[i] if h.edge_labels else None)
    return Hypergraph(len(xs), edges, labels if any(labels) else None)


def dual(h: Hypergraph) -> Hypergraph:
    """Incidence transpose: vertex i <-> edge slot i. dual(dual(h)) == h."""
    edges = []
    for v in range(h.nverts):
        m = 0
        for i, e in enumerate(h.edges):
            if e >> v & 1:
                m |= 1 << i
        edges.append(m)
    return Hypergraph(len(h.edges), edges)


def is_twin_free(h: Hypergraph) -> bool:
    cols = [
        sum(1 << i for i, e in enumerate(h.edges) if e >> v & 1)
        for v in range(h.nverts)
    ]
    return len(set(cols)) == h.nverts


# ---------------------------------------------------------------------------
# VC dimension and 2-VC dimension: levelwise search with one edge pass per
# surviving set, extended by the union/intersection rule (_largest_shattered)


def _extensions(edges: list[int], nverts: int, xmask: int, pairs_only: bool) -> int:
    """Mask of the v > max(xmask) that extend the (2-)shattered set xmask."""
    groups: dict[int, list[int]] = {}  # trace -> [OR_t, AND_t]
    for e in edges:
        t = e & xmask
        g = groups.get(t)
        if g is None:
            groups[t] = [e, e]
        else:
            g[0] |= e
            g[1] &= e
    mask = (1 << nverts) - (1 << xmask.bit_length())
    if not pairs_only:
        for union, meet in groups.values():
            mask &= union & ~meet
        return mask
    for a in iter_bits(xmask):
        mask &= groups.get(1 << a, (0,))[0]
    for t, (_, meet) in groups.items():
        if t.bit_count() == 2:
            mask &= ~meet
    return mask


def _largest_shattered(h: Hypergraph, level: list[int], pairs_only: bool) -> tuple[int, ShatterWitness]:
    """Levelwise search from the sets in ``level`` (all of one size, each
    shattered, or 2-shattered if ``pairs_only``) up to the first empty level.

    One pass over the edges per surviving set X groups them by trace
    t = e & X and keeps each group's union OR_t and intersection AND_t.
    For v > max(X), X | {v} is shattered iff v splits every group (v in
    OR_t & ~AND_t for every t), and 2-shattered iff v lies in OR_{a} for
    every a in X (so trace {a} must occur) and outside AND_{a,b} for every
    pair of X. Both rules are exact because both properties are hereditary:
    X is known to qualify, so only the traces that gain v are in question.
    Parents go in level order and extensions in increasing v, so every level
    and the witness (the first set of the last level, realized by the first
    edge slot of each trace, pairs only for 2-shattering) are those of
    testing each candidate X | {v} on its own.
    """
    while True:
        nxt = []
        for xmask in level:
            ext = _extensions(h.edges, h.nverts, xmask, pairs_only)
            nxt.extend(xmask | 1 << v for v in iter_bits(ext))
        if not nxt:
            break
        level = nxt
    best = level[0]
    first: dict[int, int] = {}
    for i, e in enumerate(h.edges):
        t = e & best
        if t not in first and (not pairs_only or t.bit_count() == 2):
            first[t] = i
    k = best.bit_count()
    if len(first) != (k * (k - 1) // 2 if pairs_only else 1 << k):
        raise InternalError("shatter search: the witness misses a trace")
    assignment = {tuple(iter_bits(t)): i for t, i in first.items()}
    return k, ShatterWitness(list(iter_bits(best)), assignment)


def vc_dimension(h: Hypergraph, maxn: int | None = None) -> tuple[int, ShatterWitness | None]:
    """Exact VC dimension with a shatter witness.

    An edgeless hypergraph shatters nothing (not even the empty set): (0, None).
    """
    enforce_cap(h.nverts, maxn, "vc_n", "vc_dimension: nverts={n} exceeds cap {cap}")
    if not h.edges:
        return 0, None
    return _largest_shattered(h, [0], pairs_only=False)


def vc2_dimension(h: Hypergraph, maxn: int | None = None) -> tuple[int, ShatterWitness]:
    """Exact 2-VC dimension. Vacuous below two vertices, so >= 1 when nverts >= 1."""
    enforce_cap(h.nverts, maxn, "vc_n", "vc2_dimension: nverts={n} exceeds cap {cap}")
    if h.nverts == 0:
        return 0, ShatterWitness([], {})
    return _largest_shattered(h, [1 << v for v in range(h.nverts)], pairs_only=True)


# ---------------------------------------------------------------------------
# distance hypergraphs


def _balls(dist: list[list[int]]) -> list[list[int]]:
    """balls[r][v] is the vertex mask of B(v, r), for r = 0..diam, from the
    distance matrix of a graph."""
    if not dist or -1 in dist[0]:
        raise DomainError("distance hypergraph needs a connected nonempty graph")
    balls = [[0] * len(dist) for _ in range(max(map(max, dist)) + 1)]
    for v, row in enumerate(dist):
        for u, d in enumerate(row):
            balls[d][v] |= 1 << u  # spheres first, summed up below
    for r in range(1, len(balls)):
        balls[r] = [inner | sphere for inner, sphere in zip(balls[r - 1], balls[r])]
    return balls


def _first_centers(balls: list[list[int]]) -> dict[int, tuple[int, int]]:
    """Each distinct ball -> its first (center, radius), in edge order:
    radius outer loop, center inner."""
    first: dict[int, tuple[int, int]] = {}
    for r, row in enumerate(balls):
        for v, ball in enumerate(row):
            if ball not in first:
                first[ball] = (v, r)
    return first


def distance_hypergraph(g: Graph) -> Hypergraph:
    """All balls B(v, r) for r = 0..diam(G), one edge per distinct ball.

    Edge order: radius outer loop, center inner; each kept edge is labeled
    by its first (center, radius) representative.
    """
    first = _first_centers(_balls(all_distances(g)))
    return Hypergraph(g.n, list(first), [f"B({v},{r})" for v, r in first.values()])


def distance_hypergraph_fixed_radius(g: Graph, radius: int) -> Hypergraph:
    """One edge per vertex: its ball of the given radius. Never deduplicated,
    so the dual equals the hypergraph itself slot for slot."""
    balls = _balls(all_distances(g))
    if not 0 <= radius < len(balls):
        raise DomainError(f"radius {radius} outside 0..{len(balls) - 1}")
    return Hypergraph(g.n, balls[radius], [f"B({v},{radius})" for v in range(g.n)])


def dual_distance_2vc(g: Graph, maxn: int | None = None) -> int:
    enforce_cap(g.n, maxn, "vc_n", "dual_distance_2vc: n={n} exceeds cap {cap}")
    d = dual(distance_hypergraph(g))
    return vc2_dimension(d, maxn=d.nverts)[0]


# ---------------------------------------------------------------------------
# test covers


def min_test_cover(h: Hypergraph, maxn: int | None = None) -> list[int]:
    """Fewest edges covering every vertex and separating every vertex pair.

    Same branch-and-bound engine as the resolving-set solver; the universe
    is the vertices (coverage bits) plus the vertex pairs (separation bits),
    and the engine also prunes by the test-set split bound (_split_bound).
    Returns sorted edge slots, checked to be a test cover.
    """
    enforce_cap(h.nverts, maxn, "md_n", "min_test_cover: nverts={n} exceeds cap {cap}")
    if not is_twin_free(h):
        raise DomainError("hypergraph has twin vertices; no test cover exists")
    n = h.nverts
    union = 0
    for e in h.edges:
        union |= e
    if union != (1 << n) - 1:
        missing = next(v for v in range(n) if not union >> v & 1)
        raise DomainError(f"vertex {missing} lies in no edge; no test cover exists")
    # an edge separates a pair iff it holds exactly one end, so its
    # separation bits are the XOR of the pair bits at each of its vertices
    pairs_at = [0] * n
    for idx, (a, b) in enumerate(combinations(range(n), 2)):
        bit = 1 << (n + idx)
        pairs_at[a] |= bit
        pairs_at[b] |= bit
    masks = []
    for e in h.edges:
        m = e
        for v in iter_bits(e):
            m ^= pairs_at[v]
        masks.append(m)
    slots = min_cover(n + n * (n - 1) // 2, masks, _split_bound(h))
    if not _is_test_cover(h.edges, n, slots):
        raise InternalError("min_test_cover: the solver returned a non-test-cover")
    return slots


def _split_bound(h: Hypergraph):
    """Test-set split bound for min_cover's hook.

    The state is (zero, groups): the vertices in no chosen edge, and the
    other classes of vertices with equal signature over the chosen edges
    that still hold two or more vertices. A class of c vertices needs
    (c - 1).bit_length() more edges to be split apart; the zero class needs
    c.bit_length(), since its vertices must be covered as well.
    """

    def refine(state, i: int) -> tuple[tuple[int, tuple[int, ...]], int]:
        zero, groups = ((1 << h.nverts) - 1, ()) if state is None else state
        e = h.edges[i]
        parts = [p for c in groups for p in (c & e, c & ~e)]
        parts.append(zero & e)
        groups = tuple(p for p in parts if p & (p - 1))
        zero &= ~e
        bound = zero.bit_count().bit_length()
        for c in groups:
            bound = max(bound, (c.bit_count() - 1).bit_length())
        return (zero, groups), bound

    return refine


def _is_test_cover(edges: list[int], nverts: int, slots) -> bool:
    """Whether the edges in ``slots`` cover every vertex and split every pair."""
    sigs = [frozenset(s for s in slots if edges[s] >> v & 1) for v in range(nverts)]
    return all(sigs) and len(set(sigs)) == nverts


def prop9_witness(h: Hypergraph, maxn: int | None = None) -> Hypergraph:
    """Trace exhibiting a dual-shattered family as a small test cover.

    For a dual-shattered family A of size k = vc(dual(h)) with realizing
    vertices x_S (one per subset S of A), drop the all-outside vertex
    x_{empty} and trace h onto the remaining 2^k - 1 vertices. The images
    of A, labeled "A0".."A{k-1}" in the result, form a test cover of size k;
    all of that is verified before returning.
    """
    k, wit = vc_dimension(dual(h), maxn=maxn)
    if k == 0 or wit is None:
        raise DomainError("dual VC dimension is 0: no shattered family of edges")
    family = wit.vertices  # edge slots of h
    x_of = {frozenset(sub): v for sub, v in wit.assignment.items()}
    x0 = x_of[frozenset()]
    keep = sorted(v for sub, v in x_of.items() if sub)
    if len(keep) != (1 << k) - 1 or x0 in keep:
        raise InternalError("prop9_witness: the dual witness is not a full assignment")
    pos = {v: i for i, v in enumerate(keep)}
    keepmask = 0
    for v in keep:
        keepmask |= 1 << v

    result = trace(h, keep)
    if result.edge_labels is None:
        result.edge_labels = [None] * len(result.edges)
    cover_slots = []
    for j, a in enumerate(family):
        img = 0
        for v in iter_bits(h.edges[a] & keepmask):
            img |= 1 << pos[v]
        slot = result.edges.index(img)
        result.edge_labels[slot] = f"A{j}"
        cover_slots.append(slot)
    # the k images must be pairwise distinct edges and a test cover of the
    # trace: every vertex covered, every pair split
    if len(set(cover_slots)) != k or not _is_test_cover(result.edges, result.nverts, cover_slots):
        raise InternalError("prop9_witness: the traced family is not a test cover of size k")
    return result
