"""Minor detection: K_t and K_{2,3}, and the outerplanarity predicate.

Strategy: a 2-connected pattern can only live inside one block, so the input
is split into biconnected components first. For K_t with t >= 4 (min degree
3) each block is additionally smoothed: suppressing a degree-2 vertex keeps
exactly the minors of minimum degree >= 3, and the smoothed block is itself
a minor of the original. Smoothing is NOT applied for K_{2,3} (a theta graph
has a K_{2,3} minor that its smoothing lacks). Blocks that are bare cycles
are dismissed directly; the instance-size cap applies to what is left after
these exact reductions.

The core search is exhaustive branch-set backtracking: enumerate connected
vertex subsets once, then assign one to each pattern vertex with bitmask
disjointness/adjacency checks and same-class symmetry breaking.
"""

from __future__ import annotations

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


def _branch_set_search(g: Graph, pattern_adj: list[int], classes: list[int]) -> bool:
    """Is there a minor model of the pattern in connected graph g?

    pattern_adj[i] is the neighbor mask of pattern vertex i; classes marks
    interchangeable pattern vertices (equal class => branch-set masks must
    increase, killing permutation symmetry).
    """
    t = len(pattern_adj)
    if g.n < t:
        return False
    cands = _connected_subsets(g, g.n - (t - 1))
    cands.sort(key=lambda p: (p[0].bit_count(), p[0]))
    chosen_masks = [0] * t

    def dfs(i: int, used: int) -> bool:
        if i == t:
            return True
        floor = chosen_masks[i - 1] if i > 0 and classes[i] == classes[i - 1] else 0
        need = t - i - 1
        for mask, nb in cands:
            if mask <= floor or mask & used:
                continue
            if (g.n - (used | mask).bit_count()) < need:
                continue
            ok = True
            for j in range(i):
                if pattern_adj[i] >> j & 1 and not (nb & chosen_masks[j]):
                    ok = False
                    break
            if ok:
                chosen_masks[i] = mask
                if dfs(i + 1, used | mask):
                    return True
        return False

    return dfs(0, 0)


def _smooth(g: Graph) -> Graph:
    """Suppress degree-2 vertices until none remain or only a triangle is left."""
    cur = g
    while cur.n > 3:
        v = next((u for u in range(cur.n) if cur.degree(u) == 2), None)
        if v is None:
            break
        a, b = list(iter_bits(cur.adj[v]))
        keep = [w for w in range(cur.n) if w != v]
        pos = {w: i for i, w in enumerate(keep)}
        nxt = Graph(cur.n - 1)
        for x, y in cur.edges():
            if v in (x, y):
                continue
            nxt.add_edge(pos[x], pos[y])
        if not nxt.has_edge(pos[a], pos[b]):
            nxt.add_edge(pos[a], pos[b])
        cur = nxt
    return cur


def _is_cycle_block(b: Graph) -> bool:
    return b.n >= 3 and all(b.degree(v) == 2 for v in range(b.n))


def _minor_in_some_block(
    g: Graph, pattern_adj: list[int], classes: list[int], maxn: int | None, too_large: str
) -> bool:
    """Search the blocks of g that could hold the 2-connected pattern, smallest
    first. Bare cycles are skipped; blocks are smoothed when every pattern
    vertex has degree >= 3. The minor_n cap applies to each reduced block
    just before its search, with ``too_large`` as the message."""
    t = len(pattern_adj)
    smooth = all(p.bit_count() >= 3 for p in pattern_adj)
    blocks = [g.induced(b) for b in biconnected_components(g) if len(b) >= t]
    for b in sorted(blocks, key=lambda b: b.n):
        if _is_cycle_block(b):
            continue
        if smooth:
            b = _smooth(b)
            if b.n < t:
                continue
        enforce_cap(b.n, maxn, "minor_n", too_large)
        if _branch_set_search(b, pattern_adj, classes):
            return True
    return False


def has_clique_minor(g: Graph, t: int, maxn: int | None = None) -> bool:
    """Does g have a K_t minor? Exact; cap applies after reductions."""
    if t < 1:
        raise DomainError("t must be positive")
    if t == 1:
        return g.n >= 1
    if t == 2:
        return g.m >= 1
    if t == 3:
        return any(len(b) >= 3 for b in biconnected_components(g))
    pattern = [((1 << t) - 1) & ~(1 << i) for i in range(t)]
    return _minor_in_some_block(
        g, pattern, [0] * t, maxn, "has_clique_minor: reduced block has {n} vertices, cap {cap}"
    )


_K23_ADJ = [0b11100, 0b11100, 0b00011, 0b00011, 0b00011]
_K23_CLASSES = [0, 0, 1, 1, 1]


def has_k23_minor(g: Graph, maxn: int | None = None) -> bool:
    """Does g have a K_{2,3} minor? No smoothing here (pattern has degree-2
    vertices); bare-cycle blocks are skipped, the cap guards the rest."""
    return _minor_in_some_block(
        g, _K23_ADJ, _K23_CLASSES, maxn, "has_k23_minor: block has {n} vertices, cap {cap}"
    )


def is_outerplanar(g: Graph, maxn: int | None = None) -> bool:
    """No K_4 minor and no K_{2,3} minor."""
    return not has_clique_minor(g, 4, maxn=maxn) and not has_k23_minor(g, maxn=maxn)
