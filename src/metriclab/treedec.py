"""Tree decompositions: validation, width/length, reduction, clique trees
and exact treewidth.

A decomposition keeps a reference to its host graph; bag distances (length)
are host distances, not induced ones. Validation reports violations as data
so callers can show them; the other operations refuse invalid input.

Clique trees and exact treewidth start from one simplicial peel
(``graphs._simplicial_peel``). Exact treewidth then stays in the host's own
labels on vertex masks, with no induced core; each peeled vertex goes back
under the first bag that holds its neighbors, found from holder masks.
"""

from __future__ import annotations

from typing import Iterable

from .config import enforce_cap
from .errors import DomainError, FormatError, InternalError
from .graphs import Graph, _simplicial_peel, all_distances, iter_bits


class TreeDecomposition:
    """Bags over a host graph, joined by tree edges.

    Nothing mutates ``host`` after construction, so the violation report
    is computed once, on construction, in one pass: each vertex gets its
    holders mask (bit i set when bag i holds it) and each bag its tree
    neighbors as a mask, and P1, P2, tree connectivity and P3 are read off
    those masks.
    """

    __slots__ = ("host", "bags", "tree_edges", "_violations")

    def __init__(self, host: Graph, bags: Iterable, tree_edges: Iterable):
        self.host = host
        self.bags = tuple(frozenset(b) for b in bags)
        self.tree_edges = tuple(sorted(tuple(sorted(e)) for e in tree_edges))
        self._violations = self._check()

    def __eq__(self, other) -> bool:
        return (isinstance(other, TreeDecomposition) and self.host == other.host
                and self.bags == other.bags and self.tree_edges == other.tree_edges)

    def _check(self) -> tuple[str, ...]:
        out = []
        nb = len(self.bags)
        n = self.host.n
        holders = [0] * n
        for i, bag in enumerate(self.bags):
            for v in sorted(bag):
                if 0 <= v < n:
                    holders[v] |= 1 << i
                else:
                    out.append(f"bag {i}: vertex {v} outside host range")
        tree_ok = True
        adj = [0] * nb
        for i, j in self.tree_edges:
            if not (0 <= i < nb and 0 <= j < nb):
                out.append(f"tree: edge ({i}, {j}) has a bag index out of range")
                tree_ok = False
            elif i == j:
                out.append(f"tree: self-loop at bag {i}")
                tree_ok = False
            elif adj[i] >> j & 1:
                out.append(f"tree: duplicate edge ({i}, {j})")
                tree_ok = False
            else:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        if tree_ok and nb > 0:
            if len(self.tree_edges) != nb - 1:
                out.append(f"tree: expected {nb - 1} edges, found {len(self.tree_edges)}")
                tree_ok = False
            elif _reach(adj, (1 << nb) - 1, 1).bit_count() != nb:
                out.append("tree: bag nodes are not connected")
                tree_ok = False
        for v in range(n):
            if not holders[v]:
                out.append(f"P1: vertex {v} appears in no bag")
        for u, v in self.host.edges():
            if not holders[u] & holders[v]:
                out.append(f"P2: edge ({u}, {v}) contained in no bag")
        if tree_ok:
            # one subtree: every bag holding v is reached from the lowest one
            # without passing a bag that lacks v
            for v, held in enumerate(holders):
                if held and _reach(adj, held, held & -held) != held:
                    out.append(f"P3: bags containing vertex {v} do not form a subtree")
        return tuple(out)


def _reach(adj: list[int], mask: int, seed: int) -> int:
    """The nodes reachable from the seed nodes along adj (neighbor masks)
    without leaving mask; seed lies inside mask."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        for i in iter_bits(frontier):
            nxt |= adj[i]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def validate(td: TreeDecomposition) -> list[str]:
    """Violation report; empty list means valid."""
    return list(td._violations)


def _require_valid(td: TreeDecomposition) -> None:
    if td._violations:
        raise DomainError("invalid decomposition: " + td._violations[0])


def width(td: TreeDecomposition) -> int:
    _require_valid(td)
    return max((len(b) for b in td.bags), default=0) - 1


def length(td: TreeDecomposition) -> int:
    return _length(td, all_distances(td.host))


def _length(td: TreeDecomposition, dist: list[list[int]]) -> int:
    """length from the host's distance matrix, with the same refusals."""
    _require_valid(td)
    if dist and -1 in dist[0]:
        raise DomainError("length needs a connected host graph")
    best = 0
    for bag in td.bags:
        vs = sorted(bag)
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                best = max(best, dist[vs[a]][vs[b]])
    return best


def reduce(td: TreeDecomposition) -> TreeDecomposition:
    """Absorb any bag contained in a tree neighbor; width/length unchanged."""
    _require_valid(td)
    bags = {i: sum(1 << v for v in b) for i, b in enumerate(td.bags)}
    adj = dict.fromkeys(bags, 0)
    for i, j in td.tree_edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    # the lowest bag inside a neighbor goes into the lowest such neighbor
    while pair := next(
        ((i, j) for i in bags for j in iter_bits(adj[i]) if not bags[i] & ~bags[j]), None
    ):
        victim, absorber = pair
        for k in iter_bits(adj.pop(victim)):
            adj[k] &= ~(1 << victim)
            if k != absorber:
                adj[k] |= 1 << absorber
                adj[absorber] |= 1 << k
        del bags[victim]
    pos = {i: t for t, i in enumerate(bags)}
    edges = [(pos[i], pos[j]) for i in bags for j in iter_bits(adj[i]) if i < j]
    return TreeDecomposition(td.host, map(iter_bits, bags.values()), edges)


def _max_weight_spanning_tree(masks: list[int]) -> list[tuple[int, int]]:
    """Maximum-weight spanning tree of the complete graph on the clique
    masks, by Prim under the edge key (-|Ci & Cj|, i, j), i < j. The keys
    are distinct, so the minimum-key tree is unique and is the one Kruskal
    takes from the sorted pairs; Prim keeps one best key per clique instead
    of every pair, so it needs O(c) memory and O(c²) time for c cliques."""
    best = {j: (-(masks[0] & masks[j]).bit_count(), 0, j) for j in range(1, len(masks))}
    out = []
    while best:
        j = min(best, key=best.__getitem__)
        out.append(best.pop(j)[1:])
        for k, old in best.items():
            key = (-(masks[j] & masks[k]).bit_count(), min(j, k), max(j, k))
            if key < old:
                best[k] = key
    return out


def clique_tree(g: Graph) -> TreeDecomposition:
    """Maximal cliques as bags, joined by a maximum-weight spanning tree on
    pairwise intersection sizes. Needs a chordal host. The cliques are
    sorted, so the peel order does not matter. An invalid result raises
    InternalError, as treewidth_exact's does."""
    peeled, rest = _simplicial_peel(g)
    if rest:
        raise DomainError("clique_tree needs a chordal graph")
    # a candidate can lie inside another only when its vertex is a later
    # neighbor of the other's, so one test per edge finds the non-maximal
    cand = {v: nbs | 1 << v for v, nbs in peeled}
    inside = {v for u, nbs in peeled for v in iter_bits(nbs) if cand[v] & ~cand[u] == 0}
    cliques = sorted(
        (c for v, c in cand.items() if v not in inside), key=lambda c: tuple(iter_bits(c))
    )
    edges = _max_weight_spanning_tree(cliques)
    td = TreeDecomposition(g, map(iter_bits, cliques), edges)
    if td._violations:
        raise InternalError("clique_tree: the clique tree is not a valid decomposition")
    return td


def _eliminate(adj: list[int], alive: int, v: int) -> int:
    """Join v's neighbors in alive into a clique of adj; return them."""
    nb = adj[v] & alive & ~(1 << v)
    for u in iter_bits(nb):
        adj[u] |= nb & ~(1 << u)
    return nb


def _min_fill_order(g: Graph, alive: int) -> tuple[list[int], int]:
    """Min-fill elimination order of the vertices in alive (lowest vertex
    first on ties) and its width."""
    adj = list(g.adj)
    order = []
    wid = -1
    while alive:
        best_v = best_fill = None
        for v in iter_bits(alive):
            nb = adj[v] & alive & ~(1 << v)
            fill = 0
            for u in iter_bits(nb):
                fill += (nb & ~adj[u] & ~(1 << u)).bit_count()
            fill //= 2
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        wid = max(wid, _eliminate(adj, alive, best_v).bit_count())
        alive &= ~(1 << best_v)
        order.append(best_v)
    return order, wid


def _elim_degree(adj: list[int], core: int, mask: int, v: int) -> int:
    """Degree of v in the graph on core once the vertices in mask (inside
    core) are eliminated (contracted away)."""
    out = adj[v]
    frontier = seen = adj[v] & mask
    while frontier:
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= adj[u]
        out |= nxt
        frontier = nxt & mask & ~seen
        seen |= frontier
    return (out & core & ~mask & ~(1 << v)).bit_count()


def _treewidth_core(g: Graph, core: int) -> tuple[int, list[int]]:
    """Exact treewidth of the graph on core, a peel-free vertex mask of g,
    with a realizing elimination order.

    Layered subset search over elimination prefixes (Bodlaender, Fomin,
    Koster, Kratsch & Thilikos, ACM TALG 2012), keeping the minimal
    prefix-maximum per subset; the min-fill width bounds it from above, so
    a prefix reaching that width is dropped, and the min-fill order stands
    when no full prefix is left.
    """
    order_ub, ub = _min_fill_order(g, core)
    adj = g.adj
    seen = {0: -1}
    layer = {0: -1}
    while layer:
        nxt = {}
        for mask, m in layer.items():
            for low in iter_bits(core & ~mask):
                d = _elim_degree(adj, core, mask, low)
                nm = m if m > d else d
                if nm >= ub:
                    continue
                key = mask | (1 << low)
                if nxt.get(key, ub) > nm:
                    nxt[key] = nm
        layer = nxt
        seen.update(nxt)
    if core not in seen:
        return ub, order_ub
    val = seen[core]
    rev = []
    mask = core
    while mask:
        for v in iter_bits(mask):
            pm = mask & ~(1 << v)
            if pm in seen and seen[pm] <= val and _elim_degree(adj, core, pm, v) <= val:
                rev.append(v)
                mask = pm
                break
        else:
            raise InternalError("treewidth_exact: broken reconstruction chain")
    return val, rev[::-1]


def treewidth_exact(g: Graph, maxn: int | None = None) -> tuple[int, TreeDecomposition]:
    """Exact treewidth plus a realizing decomposition.

    All of it runs in g's own labels: the exact search takes the core that
    simplicial peeling leaves as a vertex mask, with no induced copy, and
    the bags are vertex masks until the decomposition is built. The size
    cap applies to the core, so long paths, trees and chordal graphs pass
    at any size.
    """
    peeled, rest = _simplicial_peel(g)
    msg = "treewidth_exact: core has {n} vertices, cap {cap}"
    enforce_cap(rest.bit_count(), maxn, "treewidth_n", msg)
    tw, order = _treewidth_core(g, rest) if rest else (-1, [])
    # fill-in bags: each vertex with its neighbors left at its elimination,
    # under the bag of the first of them to go; the roots are chained
    adj = list(g.adj)
    pos = {v: i for i, v in enumerate(order)}
    bags, edges, roots = [], [], []
    holders = [0] * g.n  # bit i set when bag i holds the vertex
    for i, v in enumerate(order):
        nb = _eliminate(adj, rest, v)
        rest &= ~(1 << v)
        if nb:
            edges.append((i, min(map(pos.__getitem__, iter_bits(nb)))))
        else:
            roots.append(i)
        bags.append(nb | 1 << v)
        for u in iter_bits(bags[i]):
            holders[u] |= 1 << i
    edges += zip(roots, roots[1:])
    # re-insert the peeled vertices, last first: each neighbor set is a
    # clique of the graph rebuilt so far, so some bag already holds it; the
    # first such bag is the lowest one that holds all of its vertices
    for v, nbs in reversed(peeled):
        held = -1
        for u in iter_bits(nbs):
            held &= holders[u]
        i = len(bags)
        if i:
            edges.append(((held & -held).bit_length() - 1, i))
        bags.append(nbs | 1 << v)
        for u in iter_bits(bags[i]):
            holders[u] |= 1 << i
        tw = max(tw, nbs.bit_count())
    td = TreeDecomposition(g, map(iter_bits, bags), edges)
    if td._violations or width(td) != tw:
        raise InternalError("treewidth_exact: the decomposition does not certify the width")
    return tw, td


def format_pace(td: TreeDecomposition) -> str:
    """PACE-style text: solution line, bag lines, then tree edges (1-based)."""
    maxbag = max((len(b) for b in td.bags), default=0)
    lines = [f"s td {len(td.bags)} {maxbag} {td.host.n}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    for i, j in td.tree_edges:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def parse_pace(text: str, host: Graph) -> TreeDecomposition:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("c")]
    if not lines or not lines[0].startswith("s td"):
        raise FormatError("missing 's td' solution line")
    head = lines[0].split()
    if len(head) != 5:
        raise FormatError(f"bad solution line: {lines[0]!r}")
    try:
        nbags, maxbag, nverts = int(head[2]), int(head[3]), int(head[4])
    except ValueError:
        raise FormatError(f"bad solution line: {lines[0]!r}") from None
    if nverts != host.n:
        raise FormatError(f"decomposition is over {nverts} vertices, host has {host.n}")
    bags: dict[int, frozenset] = {}
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "b":
            try:
                idx = int(parts[1])
                verts = [int(p) for p in parts[2:]]
            except (ValueError, IndexError):
                raise FormatError(f"bad bag line: {ln!r}") from None
            if not 1 <= idx <= nbags or idx in bags:
                raise FormatError(f"bad bag index on line: {ln!r}")
            if any(not 1 <= v <= nverts for v in verts):
                raise FormatError(f"vertex out of range on line: {ln!r}")
            bags[idx] = frozenset(v - 1 for v in verts)
        else:
            try:
                i, j = (int(p) for p in parts)
            except ValueError:
                raise FormatError(f"bad tree edge line: {ln!r}") from None
            if not (1 <= i <= nbags and 1 <= j <= nbags):
                raise FormatError(f"bag index out of range on line: {ln!r}")
            edges.append((i - 1, j - 1))
    if len(bags) != nbags:
        raise FormatError(f"expected {nbags} bags, found {len(bags)}")
    got = max((len(b) for b in bags.values()), default=0)
    if got != maxbag:
        raise FormatError(f"header says max bag {maxbag}, found {got}")
    return TreeDecomposition(host, [bags[i] for i in range(1, nbags + 1)], edges)
