"""Resolving sets, exact metric dimension, and the test-cover conversions.

Checking a set S needs only the |S| BFS rows of its landmarks, not the
all-pairs matrix; every check and certificate builds its vectors through
``_certificate``.

The exact solver reduces to minimum set cover over vertex pairs: a landmark
x covers the pair {u,v} iff d(x,u) != d(x,v). Twin classes (vertices with
identical distance rows off the pair itself) are preselected up front: any
resolving set must contain all but one of each class, and twins are
interchangeable, so fixing the lexicographically smallest ones loses
nothing. In a connected graph u and v are twins exactly when
N(u) - {v} == N(v) - {u}: equal open neighborhoods if they are not
adjacent, equal closed ones if they are. So the classes come from two
dictionary passes over the adjacency masks.
The remaining pairs go to the shared branch-and-bound engine.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import enforce_cap
from .errors import DomainError, InternalError
from .graphs import Graph, all_distances, bfs_distances, is_connected, is_tree
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


def _certificate(row, s, n: int) -> ResolvingCertificate:
    """Build the resolving vector of each of the n vertices from row(x), the
    distance row of landmark x, and check that the n vectors are pairwise
    distinct. Every landmark is range-checked before any row is built."""
    landmarks = sorted(set(s))
    for x in landmarks:
        if not 0 <= x < n:
            raise DomainError(f"landmark {x} out of range")
    rows = [row(x) for x in landmarks]
    vecs = dict(enumerate(zip(*rows))) if rows else dict.fromkeys(range(n), ())
    ok = len(set(vecs.values())) == n
    return ResolvingCertificate(landmarks, len(landmarks), vecs, ok)


def _bfs_certificate(g: Graph, s) -> ResolvingCertificate:
    """_certificate from one BFS per landmark, not the whole matrix."""
    return _certificate(lambda x: bfs_distances(g, x), s, g.n)


def is_resolving(g: Graph, s) -> bool:
    if g.n == 0 or not is_connected(g):
        raise DomainError("resolving sets are defined for connected nonempty graphs")
    return _bfs_certificate(g, s).verified


def _resolves(dist: list[list[int]], s) -> bool:
    """is_resolving on a graph's distance matrix, with the same refusals."""
    if not dist or -1 in dist[0]:
        raise DomainError("resolving sets are defined for connected nonempty graphs")
    return _certificate(dist.__getitem__, s, len(dist)).verified


def _twin_classes(g: Graph) -> list[list[int]]:
    """Group the vertices of a connected graph whose distance rows agree
    everywhere off the pair, i.e. whose neighborhoods agree off the pair:
    non-adjacent twins share their open neighborhood, adjacent twins their
    closed one. Each class of two or more is one of these groups (a twin
    class is an independent set or a clique), so no vertex is in two."""
    by_open: dict[int, list[int]] = {}
    by_closed: dict[int, list[int]] = {}
    for v, a in enumerate(g.adj):
        by_open.setdefault(a, []).append(v)
        by_closed.setdefault(a | 1 << v, []).append(v)
    classes = [c for by in (by_open, by_closed) for c in by.values() if len(c) > 1]
    twinned = {v for c in classes for v in c}
    return sorted(classes + [[v] for v in range(g.n) if v not in twinned])


def _md_refusals(n: int, connected: bool, maxn: int | None) -> None:
    if not connected or n == 0:
        raise DomainError("metric dimension needs a connected nonempty graph")
    enforce_cap(n, maxn, "md_n", "metric_dimension_exact: n={n} exceeds cap {cap}")


def metric_dimension_exact(g: Graph, maxn: int | None = None) -> ResolvingCertificate:
    """Minimum resolving set by reduction to set cover; deterministic output.
    Refuses before the distance matrix is built."""
    _md_refusals(g.n, is_connected(g), maxn)
    return _metric_dimension(g, all_distances(g), maxn)


def _metric_dimension(g: Graph, dist: list[list[int]],
                      maxn: int | None = None) -> ResolvingCertificate:
    """metric_dimension_exact from g's distance matrix, with the same refusals
    and the same certificate check."""
    n = g.n
    _md_refusals(n, bool(dist) and -1 not in dist[0], maxn)

    preselected: list[int] = []
    for cls in _twin_classes(g):
        preselected.extend(cls[:-1])  # all but the largest of each class

    # the pairs (u < v, lexicographic) that the preselected landmarks leave
    # unresolved: both ends have the same distance key over them
    keys = list(zip(*(dist[x] for x in preselected))) if preselected else [()] * n
    same: dict[tuple[int, ...], list[int]] = {}
    for v, k in enumerate(keys):
        same.setdefault(k, []).append(v)
    # x separates a pair iff its ends lie in different classes of the row
    # dist[x], so x's mask is the OR over those classes of the XOR of the
    # pair bits at each class member
    pairs_at = [0] * n
    npairs = 0
    for u in range(n):
        later = same[keys[u]]
        del later[0]  # u itself: the members before it are already gone
        for v in later:
            bit = 1 << npairs
            pairs_at[u] |= bit
            pairs_at[v] |= bit
            npairs += 1
    masks = []
    for row in dist:
        classes: dict[int, int] = {}
        for v, d in enumerate(row):
            classes[d] = classes.get(d, 0) ^ pairs_at[v]
        m = 0
        for c in classes.values():
            m |= c
        masks.append(m)
    chosen = min_cover(npairs, masks)
    cert = _certificate(dist.__getitem__, preselected + chosen, n)
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
    adj = t.adj
    deg = [a.bit_count() for a in adj]
    leaves = [v for v in range(t.n) if deg[v] == 1]
    if max(deg) <= 2:  # a path, or the one-vertex tree with no leaf
        return _bfs_certificate(t, leaves[:1])

    # walk each leaf, in ascending order, through degree-2 vertices to its major
    legs_of: dict[int, list[int]] = {}
    for leaf in leaves:
        prev, cur = leaf, adj[leaf].bit_length() - 1
        while deg[cur] == 2:
            prev, cur = cur, (adj[cur] ^ 1 << prev).bit_length() - 1
        legs_of.setdefault(cur, []).append(leaf)

    witness: list[int] = []
    for major in sorted(legs_of):
        witness.extend(legs_of[major][:-1])
    cert = _bfs_certificate(t, witness)
    if len(witness) != len(leaves) - len(legs_of) or not cert.verified:
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
