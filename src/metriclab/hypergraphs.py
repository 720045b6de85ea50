"""Hypergraphs: traces, VC dimensions, duality, distance hypergraphs, test covers.

Edges are stored as int bitmasks over vertices 0..nverts-1, in a list whose
slots are meaningful: the dual has one vertex per edge slot and one edge per
original vertex, so dual(dual(h)) == h exactly, multiplicities included.
No result is deduplicated unless its docstring says so, as ``trace``'s does.
A hypergraph is its vertex count and its edge list, nothing more: two are
equal exactly when both agree, slot for slot.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt
from typing import NamedTuple

from .config import enforce_cap
from .errors import DomainError, FormatError, InternalError, TooLargeError
from .graphs import _BYTE_BITS, MAX_VERTICES, Graph, all_distances, iter_bits
from .setcover import min_cover


class Hypergraph:
    __slots__ = ("nverts", "edges")

    def __init__(self, nverts: int, edges: list[int]):
        full = (1 << nverts) - 1
        for e in edges:
            if e & ~full:
                raise DomainError("edge mentions a vertex outside 0..nverts-1")
        self.nverts = nverts
        self.edges = edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nverts, self.edges) == (other.nverts, other.edges)

    def __repr__(self):
        return f"Hypergraph(nverts={self.nverts}, nedges={len(self.edges)})"


class ShatterWitness(NamedTuple):
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
    return "\n".join(out) + "\n"  # every line ends, so a last empty edge is kept


# ---------------------------------------------------------------------------
# basic operations


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
    edges = []
    for e in h.edges:
        rel = 0
        for v in iter_bits(e & xmask):
            rel |= 1 << pos[v]
        edges.append(rel)
    return Hypergraph(len(xs), list(dict.fromkeys(edges)))


def _columns(edges: list[int], nverts: int) -> list[int]:
    """cols[v] is the mask of the edge slots holding v. Each edge is read a
    byte at a time through the table of set bits per byte."""
    cols = [0] * nverts
    for i, e in enumerate(edges):
        bit, base = 1 << i, 0
        while e:
            for v in _BYTE_BITS[e & 255]:
                cols[base + v] |= bit
            e >>= 8
            base += 8
    return cols


def dual(h: Hypergraph) -> Hypergraph:
    """Incidence transpose: vertex i <-> edge slot i. dual(dual(h)) == h."""
    return Hypergraph(len(h.edges), _columns(h.edges, h.nverts))


def is_twin_free(h: Hypergraph) -> bool:
    return len(set(_columns(h.edges, h.nverts))) == h.nverts


# ---------------------------------------------------------------------------
# VC dimension and 2-VC dimension: one depth-first branch and bound over the
# (2-)shattered sets in lexicographic preorder (_largest_shattered), on edge
# slots and vertex columns, which the dual of a twin-free hypergraph swaps
# (_dual_dimension). Trace groups are masks over the distinct edges, split by
# one vertex's column on the way down; one pass over them (_extensions) bounds
# how many more vertices can join the set and gives the ones that can still
# join it in a set larger than the best one found so far.


def _extensions(cols: list[int], cand: int, groups, pairs_only: bool, need: int) -> tuple[int, int]:
    """(ext, room) of a set X known to be shattered (2-shattered if
    ``pairs_only``), from its trace groups as masks over the distinct edges.

    cols[w] is the mask of the edges holding w. For vc, ``groups`` lists
    every nonempty group; for vc2 it is (group 0, the groups {a} for a in X,
    the groups {a, b} for the pairs of X). room bounds how many vertices any
    shattered (2-shattered) superset of X adds. Only a superset X | Y with
    |Y| = ``need`` >= 1 can beat the search's best, so (0, 0) comes back
    when room < need, before any candidate is read. Otherwise ext is the
    mask of the w in ``cand`` (all above max(X)) that pass the
    per-candidate test, with k = need - 1:

    - vc: every group g has 2^k edges inside w's column and 2^k outside;
    - vc2: group 0 has k edges inside the column, and for every a in X the
      group {a} has one edge inside and k outside; every group {a, b} has
      an edge outside.

    Every w of a qualifying X | Y with w in Y and |Y| = need passes (see
    _largest_shattered for the proof), and at need = 1 the test says
    exactly that X | {w} is shattered (2-shattered).
    """
    ext = 0
    k = need - 1
    if not pairs_only:
        room = min(map(int.bit_count, groups)).bit_length() - 1
        if room < need:
            return 0, 0
        least = 1 << k
        while cand:
            w = cand & -cand
            cand ^= w
            cw = cols[w.bit_length() - 1]
            for g in groups:  # 2^k edges of the group on either side of w
                inside = g & cw
                if inside.bit_count() < least or (g ^ inside).bit_count() < least:
                    break
            else:
                ext |= w
        return ext, room
    zero, singles, pairs = groups
    room = (1 + isqrt(1 + 8 * zero.bit_count())) // 2  # largest j, C(j, 2) <= |group 0|
    room = min(room, min(map(int.bit_count, singles), default=room))
    if room < need:
        return 0, 0
    while cand:
        w = cand & -cand
        cand ^= w
        cw = cols[w.bit_length() - 1]
        if (zero & cw).bit_count() < k:  # k edges of trace {w, y}, y in Y
            continue
        for g in singles:
            # an edge of trace {a, w}, and k of traces {a, y} that miss w
            if not g & cw or (g & ~cw).bit_count() < k:
                break
        else:
            for g in pairs:
                if g & cw == g:  # some edge of trace {a, b} must miss w
                    break
            else:
                ext |= w
    return ext, room


def _split(groups, cv: int, pairs_only: bool):
    """The trace groups of X | {v} from those of X, cv the column of v; for
    vc2 only the traces of at most two vertices are kept."""
    if not pairs_only:
        return [g & cv for g in groups] + [g & ~cv for g in groups]
    zero, singles, pairs = groups
    return (
        zero & ~cv,
        [g & ~cv for g in singles] + [zero & cv],
        [g & ~cv for g in pairs] + [g & cv for g in singles],
    )


def _largest_shattered(edges: list[int], cols: list[int], pairs_only: bool) -> tuple[int, ShatterWitness]:
    """Largest shattered set (2-shattered if ``pairs_only``) and its witness.

    ``edges`` are the edge slots; cols[v] masks the distinct edges (in
    first-slot order) holding v. The search visits the qualifying sets depth
    first in lexicographic preorder: the children of X are the X | {v},
    v > max(X), in increasing v. Each node X holds its edges grouped by
    trace t = e & X, as masks over the distinct edges; a child's groups are
    the parent's split by v's column (for vc2, those of traces 0, {a}, {a, b}).
    X | {w} is shattered iff w splits every group (some edge of the group
    holds w and some does not, i.e. w in OR_t & ~AND_t), and 2-shattered
    iff for every a in X some edge of trace {a} holds w (so trace {a} must
    occur) and for every pair of X some edge of that trace misses w. Both
    rules are exact because both properties are hereditary: X is known to
    qualify, so only the traces that gain w are in question.

    Bounds, each exact because distinct traces on a larger set need distinct
    edges. If X | Y is shattered with Y disjoint from X, group t holds the
    2^|Y| edges with traces t | Z, Z a subset of Y, so |Y| <= log2 |group_t|.
    If X | Y is 2-shattered, group {a} holds the |Y| edges with traces
    {a, y}, and group 0 the C(|Y|, 2) edges with traces {y, z} inside Y.
    This room of X caps the subtree of X | {v} at
    |X| + min(1 + |ext(X) above v|, room), and the subtree is skipped when
    that is no more than the best size so far. At the root (X empty) the
    room is the ceiling: floor(log2 m) for vc, and the largest k with
    C(k, 2) <= m for vc2, where m is the number of distinct edges. Below
    the root |X| + room never exceeds it (the groups of X share the m
    edges), so once the best size reaches the ceiling every later child is
    skipped and the search ends with no further pass.

    Per candidate, by the same count: a node X is built only to find a
    set larger than the best size b, so only the qualifying X | Y with
    |Y| = need = b + 1 - |X| matter (a larger one contains one of that
    size, by heredity), and ext(X) keeps only the w that lie in the Y of
    one. Let k = need - 1 and w in Y. If X | Y is shattered, group t holds
    the 2^k edges with traces t | Z, Z a subset of Y holding w, all inside
    w's column, and the 2^k with Z missing w, all outside it. If X | Y is
    2-shattered, group 0 holds the k edges with traces {w, y}, y in Y - w,
    inside the column; group {a} holds the edge of trace {a, w} inside it
    and the k edges of traces {a, y} outside it; group {a, b} holds the
    edge of trace {a, b}, outside it. A w that fails is in no such Y, nor
    is it in any larger set below X, since b only grows: dropping it loses
    no set larger than the best. The same heredity puts every w of such a
    set through X | {v} among the kept w of X above v, which is why the
    child's candidates are the parent's extensions above v.

    The incumbent is replaced only by a strictly larger set, and neither a
    skipped subtree nor a dropped candidate holds a larger one, so the
    witness is the lexicographically first largest set, the same as that
    of testing every candidate X | {v} level by level. Each of its traces
    is realized by its first slot in ``edges`` (pairs only for 2-shattering).
    """
    every = (1 << len(set(edges))) - 1
    root = (every, [], []) if pairs_only else [every]
    best, best_mask = 0, 0  # the empty set; vc2 always finds a singleton

    def search(xmask: int, size: int, groups, ext: int, room: int) -> None:
        nonlocal best, best_mask
        while ext:
            v = ext & -ext
            ext ^= v  # now the extensions of xmask above v
            reach = size + min(ext.bit_count() + 1, room)
            if reach <= best:
                return  # later children have fewer extensions above them
            if size + 1 > best:
                best, best_mask = size + 1, xmask | v
            if reach > best:
                sub = _split(groups, cols[v.bit_length() - 1], pairs_only)
                # X | {v} must gain best - size more vertices to beat best
                need = best - size
                search(xmask | v, size + 1, sub, *_extensions(cols, ext, sub, pairs_only, need))

    search(0, 0, root, *_extensions(cols, (1 << len(cols)) - 1, root, pairs_only, 1))
    first: dict[int, int] = {}
    for i, e in enumerate(edges):
        t = e & best_mask
        if t not in first and (not pairs_only or t.bit_count() == 2):
            first[t] = i
    k = best_mask.bit_count()
    if len(first) != (k * (k - 1) // 2 if pairs_only else 1 << k):
        raise InternalError("shatter search: the witness misses a trace")
    assignment = {tuple(iter_bits(t)): i for t, i in first.items()}
    return k, ShatterWitness(list(iter_bits(best_mask)), assignment)


def vc_dimension(h: Hypergraph, maxn: int | None = None) -> tuple[int, ShatterWitness | None]:
    """Exact VC dimension with a shatter witness.

    An edgeless hypergraph shatters nothing (not even the empty set): (0, None).
    """
    enforce_cap(h.nverts, maxn, "vc_n", "vc_dimension: nverts={n} exceeds cap {cap}")
    if not h.edges:
        return 0, None
    return _largest_shattered(h.edges, _columns(dict.fromkeys(h.edges), h.nverts), False)


def vc2_dimension(h: Hypergraph, maxn: int | None = None) -> tuple[int, ShatterWitness]:
    """Exact 2-VC dimension. Vacuous below two vertices, so >= 1 when nverts >= 1."""
    enforce_cap(h.nverts, maxn, "vc_n", "vc2_dimension: nverts={n} exceeds cap {cap}")
    if h.nverts == 0:
        return 0, ShatterWitness([], {})
    return _largest_shattered(h.edges, _columns(dict.fromkeys(h.edges), h.nverts), True)


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

    Edge order: radius outer loop, center inner; each distinct ball keeps
    the slot of its first (center, radius) representative, and
    test_cover_to_resolving maps a slot back to that center.
    """
    return _distance_hypergraph(all_distances(g))


def _distance_hypergraph(dist: list[list[int]]) -> Hypergraph:
    """distance_hypergraph from the graph's distance matrix."""
    return Hypergraph(len(dist), list(_first_centers(_balls(dist))))


def distance_hypergraph_fixed_radius(g: Graph, radius: int) -> Hypergraph:
    """One edge per vertex: its ball of the given radius. Never deduplicated,
    so the dual equals the hypergraph itself slot for slot."""
    return _fixed_radius(all_distances(g), radius)


def _fixed_radius(dist: list[list[int]], radius: int) -> Hypergraph:
    """distance_hypergraph_fixed_radius from the graph's distance matrix."""
    balls = _balls(dist)
    if not 0 <= radius < len(balls):
        raise DomainError(f"radius {radius} outside 0..{len(balls) - 1}")
    return Hypergraph(len(dist), balls[radius])


def dual_distance_2vc(g: Graph, maxn: int | None = None) -> int:
    """2-VC dimension of the dual of the ball hypergraph. Refuses before the
    hypergraph is built."""
    enforce_cap(g.n, maxn, "vc_n", "dual_distance_2vc: n={n} exceeds cap {cap}")
    return _dual_dimension(distance_hypergraph(g), True, maxn)[0]


def _dual_dimension(h: Hypergraph, pairs_only: bool, maxn: int | None = None) -> tuple[int, ShatterWitness]:
    """vc_dimension(dual(h)), or vc2_dimension(dual(h)) if ``pairs_only``, with
    no dual built, for a twin-free h with a vertex, as a ball hypergraph is (it
    holds every radius-0 ball): the dual's edges, h's columns, are distinct,
    so its columns are h's edges. vc* takes vc_dimension's cap on the dual."""
    n, what = (h.nverts, "dual_distance_2vc: n") if pairs_only else (len(h.edges), "vc_dimension: nverts")
    enforce_cap(n, maxn, "vc_n", what + "={n} exceeds cap {cap}")
    return _largest_shattered(_columns(h.edges, h.nverts), h.edges, pairs_only)


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
    n = h.nverts
    cols = _columns(h.edges, n)
    if len(set(cols)) != n:
        raise DomainError("hypergraph has twin vertices; no test cover exists")
    if 0 in cols:
        raise DomainError(f"vertex {cols.index(0)} lies in no edge; no test cover exists")
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
    of A are k distinct edges of the result that form a test cover of it;
    that is verified before returning.
    """
    k, wit = vc_dimension(dual(h), maxn=maxn)
    if k == 0 or wit is None:
        raise DomainError("dual VC dimension is 0: no shattered family of edges")
    x_of = {frozenset(sub): v for sub, v in wit.assignment.items()}
    x0 = x_of[frozenset()]
    keep = sorted(v for sub, v in x_of.items() if sub)
    if len(keep) != (1 << k) - 1 or x0 in keep:
        raise InternalError("prop9_witness: the dual witness is not a full assignment")
    result = trace(h, keep)
    # wit.vertices are edge slots of h; their traces must stay k distinct
    # edges and form a test cover: every vertex covered, every pair split
    images = trace(Hypergraph(h.nverts, [h.edges[a] for a in wit.vertices]), keep).edges
    cover_slots = [result.edges.index(img) for img in images]
    if len(cover_slots) != k or not _is_test_cover(result.edges, result.nverts, cover_slots):
        raise InternalError("prop9_witness: the traced family is not a test cover of size k")
    return result
