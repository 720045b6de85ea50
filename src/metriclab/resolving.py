"""Resolving sets, exact metric dimension, and the test-cover conversions.

The exact solver reduces to minimum set cover over vertex pairs: a landmark
x covers the pair {u,v} iff d(x,u) != d(x,v). Twin classes (vertices with
identical distance rows off the pair itself) are preselected up front: any
resolving set must contain all but one of each class, and twins are
interchangeable, so fixing the lexicographically smallest ones loses
nothing. The remaining pairs go to the shared branch-and-bound engine.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import enforce_cap
from .errors import DomainError, InternalError
from .graphs import Graph, all_distances, is_connected, is_tree, iter_bits
from .hypergraphs import _balls, _first_centers, _is_test_cover
from .setcover import min_cover


class ResolvingCertificate(NamedTuple):
    vertices: list[int]
    dimension: int
    vectors: dict[int, tuple[int, ...]]
    verified: bool

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "set": list(self.vertices),
            "dimension": self.dimension,
            "verified": self.verified,
        }


def resolving_vectors(g: Graph, s) -> dict[int, tuple[int, ...]]:
    """Distance vector of every vertex to the landmark list (sorted order)."""
    dist = all_distances(g)
    if not dist or -1 in dist[0]:
        raise DomainError("resolving sets are defined for connected nonempty graphs")
    return _landmark_vectors(dist, s)


def _landmark_vectors(dist: list[list[int]], s) -> dict[int, tuple[int, ...]]:
    landmarks = sorted(set(s))
    for x in landmarks:
        if not 0 <= x < len(dist):
            raise DomainError(f"landmark {x} out of range")
    return _vectors(dist, landmarks)


def _vectors(dist: list[list[int]], landmarks: list[int]) -> dict[int, tuple[int, ...]]:
    return {v: tuple(dist[x][v] for x in landmarks) for v in range(len(dist))}


def is_resolving(g: Graph, s) -> bool:
    return _resolves(all_distances(g), s)


def _resolves(dist: list[list[int]], s) -> bool:
    """is_resolving on a graph's distance matrix, with the same refusals."""
    if not dist or -1 in dist[0]:
        raise DomainError("resolving sets are defined for connected nonempty graphs")
    return len(set(_landmark_vectors(dist, s).values())) == len(dist)


def _certificate(dist: list[list[int]], s: list[int]) -> ResolvingCertificate:
    """Rebuild every resolving vector from the distance matrix and check
    that they are pairwise distinct."""
    landmarks = sorted(s)
    vecs = _vectors(dist, landmarks)
    ok = len(set(vecs.values())) == len(dist)
    return ResolvingCertificate(landmarks, len(s), vecs, ok)


def _twin_classes(dist: list[list[int]]) -> list[list[int]]:
    """Group vertices whose distance rows agree everywhere off the pair."""
    n = len(dist)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u in range(n):
        for v in range(u + 1, n):
            if all(dist[u][x] == dist[v][x] for x in range(n) if x != u and x != v):
                parent[find(u)] = find(v)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return [sorted(c) for c in classes.values()]


def metric_dimension_exact(g: Graph, maxn: int | None = None) -> ResolvingCertificate:
    """Minimum resolving set by reduction to set cover; deterministic output."""
    if not is_connected(g) or g.n == 0:
        raise DomainError("metric dimension needs a connected nonempty graph")
    enforce_cap(g.n, maxn, "md_n", "metric_dimension_exact: n={n} exceeds cap {cap}")
    n = g.n
    dist = all_distances(g)

    preselected: list[int] = []
    for cls in _twin_classes(dist):
        preselected.extend(cls[:-1])  # all but the largest of each class

    todo = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if all(dist[x][u] == dist[x][v] for x in preselected)
    ]
    # x separates a pair iff its ends lie in different classes of the row
    # dist[x], so x's mask is the OR over those classes of the XOR of the
    # pair bits at each class member
    pairs_at = [0] * n
    for idx, (u, v) in enumerate(todo):
        pairs_at[u] |= 1 << idx
        pairs_at[v] |= 1 << idx
    masks = []
    for row in dist:
        classes: dict[int, int] = {}
        for v, d in enumerate(row):
            classes[d] = classes.get(d, 0) ^ pairs_at[v]
        m = 0
        for c in classes.values():
            m |= c
        masks.append(m)
    chosen = min_cover(len(todo), masks)
    cert = _certificate(dist, sorted(set(preselected) | set(chosen)))
    if not cert.verified:
        raise InternalError("metric_dimension_exact: the solver returned a non-resolving set")
    return cert


def tree_metric_dimension(t: Graph) -> ResolvingCertificate:
    """Metric dimension of a tree by the leaf/exterior-major-vertex count.

    Paths on >= 2 vertices have dimension 1 (smaller endpoint as witness);
    the one-vertex tree has dimension 0. Otherwise the dimension is
    #leaves - #exterior major vertices, witnessed by keeping, for each
    exterior major vertex, every leg's leaf except the largest-numbered one.
    """
    if not is_tree(t):
        raise DomainError("tree_metric_dimension needs a tree")
    if t.n == 1:
        return _certificate(all_distances(t), [])
    if all(t.degree(v) <= 2 for v in range(t.n)):
        endpoint = min(v for v in range(t.n) if t.degree(v) == 1)
        return _certificate(all_distances(t), [endpoint])

    # walk from each leaf through degree-2 vertices to its major vertex
    legs_of: dict[int, list[int]] = {}
    for leaf in (v for v in range(t.n) if t.degree(v) == 1):
        prev, cur = -1, leaf
        while True:
            nxt = next(u for u in iter_bits(t.adj[cur]) if u != prev)
            if t.degree(nxt) >= 3:
                legs_of.setdefault(nxt, []).append(leaf)
                break
            prev, cur = cur, nxt

    witness: list[int] = []
    for major in sorted(legs_of):
        witness.extend(sorted(legs_of[major])[:-1])
    nleaves = sum(1 for v in range(t.n) if t.degree(v) == 1)
    cert = _certificate(all_distances(t), sorted(witness))
    if len(witness) != nleaves - len(legs_of) or not cert.verified:
        raise InternalError("tree_metric_dimension: the leg witness is the wrong size or not resolving")
    return cert


# ---------------------------------------------------------------------------
# conversions between resolving sets and test covers of the ball hypergraph


def resolving_to_test_cover(g: Graph, s) -> list[int]:
    """Edge slots of distance_hypergraph(g) forming a test cover of size
    at most d*|s| + 1: radii 0..d-1 around each landmark, plus one full-
    diameter ball (anchored at the smallest landmark, or vertex 0)."""
    dist = all_distances(g)
    if not _resolves(dist, s):
        raise DomainError("input set is not resolving")
    landmarks = sorted(set(s))
    balls = _balls(dist)
    edges = list(_first_centers(balls))
    slot = {mask: i for i, mask in enumerate(edges)}
    d = len(balls) - 1

    chosen = {slot[balls[r][x]] for x in landmarks for r in range(d)}
    anchor = landmarks[0] if landmarks else 0
    chosen.add(slot[balls[d][anchor]])

    out = sorted(chosen)
    if not _is_test_cover(edges, g.n, out):
        raise InternalError("resolving_to_test_cover: the balls are not a test cover")
    return out


def test_cover_to_resolving(g: Graph, slots) -> list[int]:
    """One center per chosen ball (its first (radius, center) representative);
    a resolving set no larger than the cover."""
    dist = all_distances(g)
    first = _first_centers(_balls(dist))
    edges = list(first)
    chosen = sorted(set(slots))
    for i in chosen:
        if not 0 <= i < len(edges):
            raise DomainError(f"edge slot {i} out of range")
    if not _is_test_cover(edges, g.n, chosen):
        raise DomainError("chosen edges are not a test cover")
    out = sorted({first[edges[i]][0] for i in chosen})
    if not _resolves(dist, out):
        raise InternalError("test_cover_to_resolving: the centers are not resolving")
    return out
