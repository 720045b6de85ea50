"""Minor detection: K_t by branch-set search, outerplanarity (uncapped) by
degree-2 reduction.

K_t with t >= 4 (minimum degree 3) lives inside one block, so the input is
split into biconnected components and each block is smoothed: suppressing a
degree-2 vertex keeps exactly the minors of minimum degree >= 3, and the
smoothed block is itself a minor of the original. Bare cycles are skipped.
The minor_n cap applies to what these exact reductions leave.
The search enumerates connected vertex subsets once, then assigns one to
each pattern vertex with bitmask disjointness/adjacency checks, masks
increasing to kill the symmetry of K_t.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .config import enforce_cap
from .errors import DomainError
from .graphs import Graph, biconnected_components, iter_bits


def _connected_subsets(g: Graph, max_size: int) -> list[tuple[int, int]]:
    """All (mask, open-neighborhood-mask) of connected sets, each once."""
    res: list[tuple[int, int]] = []

    def grow(mask: int, ext: int, banned: int) -> None:
        nb = 0
        for v in iter_bits(mask):
            nb |= g.adj[v]
        res.append((mask, nb & ~mask))
        if mask.bit_count() == max_size:
            return
        local_banned = banned
        todo = ext
        while todo:
            low = todo & -todo
            todo ^= low
            u = low.bit_length() - 1
            new_ext = (ext | g.adj[u]) & ~mask & ~low & ~local_banned
            grow(mask | low, new_ext, local_banned)
            local_banned |= low

    for v in range(g.n):
        below = (1 << v) - 1  # roots ascending; smaller vertices banned
        grow(1 << v, g.adj[v] & ~below, below)
    return res


def _branch_set_search(g: Graph, t: int) -> bool:
    """Is there a K_t minor model in connected graph g? Each branch set must
    touch every earlier one, and the masks increase along the pattern."""
    if g.n < t:
        return False
    cands = _connected_subsets(g, g.n - (t - 1))
    cands.sort(key=lambda p: (p[0].bit_count(), p[0]))
    chosen_masks = [0] * t

    def dfs(i: int, used: int) -> bool:
        if i == t:
            return True
        floor = chosen_masks[i - 1] if i > 0 else 0
        need = t - i - 1
        for mask, nb in cands:
            if mask <= floor or mask & used:
                continue
            if (g.n - (used | mask).bit_count()) < need:
                continue
            for j in range(i):
                if not nb & chosen_masks[j]:
                    break
            else:
                chosen_masks[i] = mask
                if dfs(i + 1, used | mask):
                    return True
        return False

    return dfs(0, 0)


def _suppress(adj: list[int], v: int, push) -> tuple[int, int]:
    """Replace the path a-v-b (a < b) by the edge ab in place; push each of
    a, b whose degree falls to 2 (it was adjacent to the other). Returns (a, b)."""
    a, b = iter_bits(adj[v])
    for x, y in ((a, b), (b, a)):
        if adj[x] >> y & 1 and adj[x].bit_count() == 3:
            push(x)
        adj[x] = adj[x] & ~(1 << v) | 1 << y
    return a, b


def _smooth(g: Graph) -> Graph:
    """Suppress degree-2 vertices until none remain or only a triangle is left.

    Always suppresses the lowest remaining vertex of degree 2, on the
    adjacency masks in place, and renumbers the survivors once at the end.
    Suppressing v with neighbors a, b never raises a degree (ab replaces
    av and bv), so the heap holds every vertex of degree 2, each pushed once
    when it reaches 2, plus stale ones that have dropped below 2.
    """
    adj = list(g.adj)
    todo = [v for v in range(g.n) if adj[v].bit_count() == 2]  # sorted: a heap
    alive = (1 << g.n) - 1
    n = g.n
    while n > 3 and todo:
        v = heappop(todo)
        if adj[v].bit_count() != 2:
            continue
        _suppress(adj, v, lambda x: heappush(todo, x))
        alive ^= 1 << v
        n -= 1
    smoothed = Graph(g.n)
    smoothed.adj = adj
    return smoothed.induced(iter_bits(alive))


def has_clique_minor(g: Graph, t: int, maxn: int | None = None) -> bool:
    """Does g have a K_t minor? Exact; cap applies after reductions.

    For t >= 4, blocks of >= t vertices other than bare cycles are smoothed
    and searched smallest first, each capped by minor_n just before its search.
    """
    if t < 1:
        raise DomainError("t must be positive")
    if t == 1:
        return g.n >= 1
    if t == 2:
        return g.m >= 1
    if t == 3:
        return any(len(b) >= 3 for b in biconnected_components(g))
    blocks = [g.induced(b) for b in biconnected_components(g) if len(b) >= t]
    for b in sorted(blocks, key=lambda b: b.n):
        if all(b.degree(v) == 2 for v in range(b.n)):
            continue  # a bare cycle, which smoothing would only shrink to a triangle
        b = _smooth(b)
        if b.n < t:
            continue
        enforce_cap(b.n, maxn, "minor_n", "has_clique_minor: reduced block has {n} vertices, cap {cap}")
        if _branch_set_search(b, t):
            return True
    return False


def is_outerplanar(g: Graph) -> bool:
    """Can g be drawn in the plane with every vertex on the outer face?

    g is outerplanar iff each block is; blocks of <= 3 vertices always are.
    A block of n >= 4 vertices is reduced n - 3 times: take a degree-2
    vertex v with neighbors u < w, delete v, add the edge uw if missing, and
    mark (u, w) exposed. It fails if no degree-2 vertex is left, or if (u, w)
    was exposed before (Mitchell, "Linear algorithms to recognize outerplanar
    and maximal outerplanar graphs", IPL 1979).

    Exactness: a 2-connected outerplanar graph on n >= 3 vertices has a
    unique Hamiltonian cycle, its outer face. v's two edges lie on it, so a
    step shortcuts u-v-w by uw: the result is 2-connected and outerplanar,
    with every exposed edge still present on its cycle. An edge exposed
    twice while n > 3 would make u-v-w the whole cycle, and min degree >= 3
    rules out outerplanarity. Conversely a step is undone in a drawing by
    putting v back in the outer face beside the exposed edge uw (then
    dropping uw if it was added). So each step keeps the answer, in any
    order. A step contracts vw, which keeps the block 2-connected, so every
    degree stays >= 2 and a vertex of degree 2 stays one until deleted.
    """
    for block in biconnected_components(g):
        if len(block) < 4:
            continue
        adj = g.induced(block).adj
        todo = [v for v in range(len(block)) if adj[v].bit_count() == 2]
        exposed = set()
        for _ in range(len(block) - 3):
            if not todo:
                return False
            edge = _suppress(adj, todo.pop(), todo.append)
            if edge in exposed:
                return False
            exposed.add(edge)
    return True
