"""Independent reference implementations used as test oracles.

Deliberately naive: each function recomputes a quantity straight from its
definition, sharing as little code as possible with the library, so that
agreement between the two is meaningful evidence. The named graph families
and the few helpers that only the tests use live here too.
"""

import itertools
from collections import Counter

from metriclab.config import enforce_cap
from metriclab.enumeration import _canonical_from, _free_canonical, _successor
from metriclab.errors import DomainError
from metriclab.graphs import (
    Graph,
    biconnected_components,
    iso_invariant,
    is_connected,
    isomorphic,
    iter_bits,
    to_graph6,
)
from metriclab.hypergraphs import Hypergraph
from metriclab.treedec import TreeDecomposition, _require_valid

INF = float("inf")


# ---------------------------------------------------------------------------
# distances: Floyd-Warshall


def fw_distances(g):
    n = g.n
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is INF:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return [[-1 if x is INF else x for x in row] for row in d]


def shift_bits(mask):
    """Indices of the set bits of a nonnegative mask, one shift at a time."""
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def list_bfs_distances(g):
    """Every vertex's distances by a queue over adjacency lists; -1 where
    unreachable."""
    nbrs = [[u for u in range(g.n) if g.adj[v] >> u & 1] for v in range(g.n)]
    rows = []
    for source in range(g.n):
        dist = [-1] * g.n
        dist[source] = 0
        queue = [source]
        for v in queue:
            for u in nbrs[v]:
                if dist[u] == -1:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        rows.append(dist)
    return rows


# ---------------------------------------------------------------------------
# graph6: independent bit-level encoder


def graph6_encode(g):
    n = g.n
    if n <= 62:
        chars = [n + 63]
    else:
        chars = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    acc = 0
    nb = 0
    body = []
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nb += 1
            if nb == 6:
                body.append(acc + 63)
                acc = 0
                nb = 0
    if nb:
        body.append((acc << (6 - nb)) + 63)
    return "".join(map(chr, chars + body))


# ---------------------------------------------------------------------------
# isomorphism by permutation search (tiny n only)


def perm_isomorphic(g, h):
    if g.n != h.n:
        return False
    target = {frozenset(e) for e in h.edges()}
    ge = list(g.edges())
    for perm in itertools.permutations(range(g.n)):
        if {frozenset((perm[u], perm[v])) for u, v in ge} == target:
            return True
    return False


def perm_automorphism_count(g):
    """Order of Aut(g): the vertex permutations that keep the edge set."""
    edges = {frozenset(e) for e in g.edges()}
    return sum(
        1
        for perm in itertools.permutations(range(g.n))
        if {frozenset((perm[u], perm[v])) for u, v in edges} == edges
    )


def reference_refined_colors(g):
    """Color refinement as it was before the count-vector kernel: a vertex's
    signature is its color and the sorted tuple of its neighbors' colors."""
    colors = [0] * g.n
    while True:
        sigs = []
        for v in range(g.n):
            neigh = sorted(colors[u] for u in iter_bits(g.adj[v]))
            sigs.append((colors[v], tuple(neigh)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return tuple(colors)
        colors = new


def color_partition(colors):
    """The vertex classes of a coloring, without the color numbers."""
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, set()).add(v)
    return {frozenset(c) for c in classes.values()}


# ---------------------------------------------------------------------------
# chordality: search for an induced cycle of length >= 4


def chordal_by_definition(g):
    for size in range(4, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            ind = induced(g, sub)
            if all(ind.degree(v) == 2 for v in range(ind.n)) and is_connected(ind):
                return False
    return True


# ---------------------------------------------------------------------------
# chordality: maximum cardinality search + perfect elimination check, and
# the clique tree built on it with an all-pairs Kruskal (the library peels
# simplicial vertices and runs Prim instead)


def mcs_order(g: Graph) -> list[int]:
    """A maximum-cardinality search order (reversed it is a PEO iff chordal)."""
    weight = [0] * g.n
    visited = 0
    order = []
    for _ in range(g.n):
        best = max(
            (v for v in range(g.n) if not visited >> v & 1),
            key=lambda v: (weight[v], -v),
        )
        order.append(best)
        visited |= 1 << best
        for u in iter_bits(g.adj[best] & ~visited):
            weight[u] += 1
    return order


def reference_is_chordal(g: Graph) -> bool:
    order = mcs_order(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    # Eliminate in reverse MCS order: earlier-MCS neighbors of v must form a
    # clique once v's earliest such neighbor absorbs them.
    for v in order:
        earlier = [u for u in iter_bits(g.adj[v]) if pos[u] < pos[v]]
        if not earlier:
            continue
        w = max(earlier, key=lambda u: pos[u])
        others = 0
        for u in earlier:
            if u != w:
                others |= 1 << u
        if others & ~g.adj[w]:
            return False
    return True


def reference_max_weight_spanning_tree(nodes: int, weight) -> list[tuple[int, int]]:
    """Kruskal on the complete graph over `nodes` indices (ties by index)."""
    edges = sorted(
        ((i, j) for i in range(nodes) for j in range(i + 1, nodes)),
        key=lambda e: (-weight(*e), e),
    )
    parent = list(range(nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            out.append((i, j))
    return out


def reference_clique_tree(g: Graph) -> TreeDecomposition:
    """Maximal cliques from the reversed MCS order, joined by Kruskal."""
    if not reference_is_chordal(g):
        raise DomainError("clique_tree needs a chordal graph")
    if g.n == 0:
        return TreeDecomposition(g, [], [])
    order = list(reversed(mcs_order(g)))  # perfect elimination order
    pos = {v: i for i, v in enumerate(order)}
    cands = []
    for v in order:
        later = {u for u in g.neighbors(v) if pos[u] > pos[v]}
        cands.append(frozenset(later | {v}))
    cliques = sorted(
        {c for c in cands if not any(c < other for other in cands)},
        key=sorted,
    )
    edges = reference_max_weight_spanning_tree(
        len(cliques), lambda i, j: len(cliques[i] & cliques[j])
    )
    return TreeDecomposition(g, cliques, edges)


# ---------------------------------------------------------------------------
# set cover / metric dimension / test cover by ascending subset search


def naive_min_cover_size(universe_size, masks):
    full = (1 << universe_size) - 1
    for r in range(len(masks) + 1):
        for combo in itertools.combinations(range(len(masks)), r):
            cov = 0
            for i in combo:
                cov |= masks[i]
            if cov == full:
                return r
    return None


# the set-cover engine as it was before its packing bound became a bitmask
# chain and it took a caller's lower bound; kept verbatim (the greedy cover
# too) so the new engine can be checked to return the same index lists


def reference_greedy_cover(universe_size: int, masks: list[int]) -> list[int]:
    """Greedy cover (largest gain first, ties to the lower index).

    Raises DomainError if the masks cannot cover the universe.
    """
    full = (1 << universe_size) - 1
    cov = 0
    chosen: list[int] = []
    while cov != full:
        best = -1
        best_gain = 0
        for i, m in enumerate(masks):
            gain = (m & ~cov).bit_count()
            if gain > best_gain:
                best_gain = gain
                best = i
        if best < 0:
            raise DomainError("universe is not coverable by the given candidates")
        chosen.append(best)
        cov |= masks[best]
    return chosen


def reference_min_cover(universe_size: int, masks: list[int]) -> list[int]:
    """Indices of a minimum cover, sorted ascending. Empty universe -> [].

    Exhaustive (no cap here; callers cap on their own instance size).
    """
    full = (1 << universe_size) - 1
    if full == 0:
        return []

    # dominated-candidate elimination: drop any mask contained in another,
    # keeping the lowest index among exact duplicates
    kept: list[int] = []
    for i, m in enumerate(masks):
        dominated = False
        for j, mj in enumerate(masks):
            if j == i:
                continue
            if m & ~mj == 0 and (mj != m or j < i):
                dominated = True
                break
        if not dominated:
            kept.append(i)
    kmasks = [masks[i] for i in kept]

    # per-constraint candidate sets (bitmask over positions in kept)
    cands = [0] * universe_size
    for pos, m in enumerate(kmasks):
        for e in iter_bits(m):
            if e < universe_size:
                cands[e] |= 1 << pos
    for e in range(universe_size):
        if cands[e] == 0:
            raise DomainError(f"constraint {e} is not coverable")

    elem_order = sorted(range(universe_size), key=lambda e: (cands[e].bit_count(), e))
    best = reference_greedy_cover(universe_size, kmasks)

    def packing_bound(cov: int) -> int:
        used = 0
        count = 0
        for e in elem_order:
            if cov >> e & 1:
                continue
            ce = cands[e]
            if ce & used == 0:
                used |= ce
                count += 1
        return count

    def dfs(cov: int, chosen: list[int]) -> None:
        nonlocal best
        if cov == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + packing_bound(cov) >= len(best):
            return
        for e in elem_order:
            if not cov >> e & 1:
                branch = e
                break
        order = sorted(
            iter_bits(cands[branch]),
            key=lambda i: (-(kmasks[i] & ~cov).bit_count(), i),
        )
        for i in order:
            chosen.append(i)
            dfs(cov | kmasks[i], chosen)
            chosen.pop()

    dfs(0, [])
    return sorted(kept[i] for i in best)


def twin_classes_by_rows(g):
    """Vertex classes of twins: u and v are twins when their distance rows
    agree everywhere off the pair (distances from fw_distances)."""
    dist = fw_distances(g)
    twins = {
        v: frozenset(
            u
            for u in range(g.n)
            if all(dist[u][x] == dist[v][x] for x in range(g.n) if x not in (u, v))
        )
        for v in range(g.n)
    }
    return set(twins.values())


def reference_twin_classes(g):
    """The twin classes by union-find over every vertex pair, as the solver
    once built them: u and v join when N(u) - {v} == N(v) - {u}. Classes
    come sorted, in the order of their smallest vertex."""
    n = g.n
    adj = g.adj
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                parent[find(u)] = find(v)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return [sorted(c) for c in classes.values()]


def resolving_vectors(g, s):
    """Distance vector of every vertex to the sorted landmarks, from fw_distances."""
    dist = fw_distances(g)
    landmarks = sorted(set(s))
    return {v: tuple(dist[x][v] for x in landmarks) for v in range(g.n)}


def naive_metric_dimension(g):
    dm = fw_distances(g)
    for r in range(g.n + 1):
        for s in itertools.combinations(range(g.n), r):
            vecs = {tuple(dm[v][x] for x in s) for v in range(g.n)}
            if len(vecs) == g.n:
                return r, list(s)
    raise AssertionError("unreachable: V always resolves")


def naive_test_cover_size(h):
    """Min number of edges covering every vertex and separating every pair."""
    n = h.nverts
    for r in range(len(h.edges) + 1):
        for combo in itertools.combinations(range(len(h.edges)), r):
            sigs = [
                frozenset(i for i in combo if h.edges[i] >> v & 1) for v in range(n)
            ]
            if all(sigs) and len(set(sigs)) == n:
                return r
    return None


# ---------------------------------------------------------------------------
# VC dimension by brute shattering


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def brute_vc(h):
    best = -1
    for size in range(h.nverts + 1):
        found = False
        for xs in itertools.combinations(range(h.nverts), size):
            xmask = 0
            for x in xs:
                xmask |= 1 << x
            traces = {e & xmask for e in h.edges}
            if all(sub in traces for sub in _submasks(xmask)):
                found = True
                break
        if found:
            best = size
        else:
            break
    # an edgeless hypergraph shatters nothing, not even the empty set
    return max(best, 0)


def brute_vc2(h):
    def two_shattered(xs):
        for a, b in itertools.combinations(xs, 2):
            xmask = 0
            for x in xs:
                xmask |= 1 << x
            want = (1 << a) | (1 << b)
            if not any(e & xmask == want for e in h.edges):
                return False
        return True

    best = 0
    for size in range(h.nverts, 0, -1):
        for xs in itertools.combinations(range(h.nverts), size):
            if two_shattered(xs):
                return size
    return best


# ---------------------------------------------------------------------------
# treewidth via all elimination orders (n <= 7 practical)


def brute_treewidth(g):
    best = g.n - 1
    for order in itertools.permutations(range(g.n)):
        adj = [set(iter_bits(a)) for a in g.adj]
        gone = set()
        width = 0
        for v in order:
            neigh = adj[v] - gone
            width = max(width, len(neigh))
            if width >= best:
                break
            for a in neigh:
                adj[a] |= neigh
                adj[a].discard(a)
            gone.add(v)
        best = min(best, width)
    return best


def brute_max_clique(g):
    for size in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return size
    return 0


# ---------------------------------------------------------------------------
# reduced decompositions: the paper's cutset and hanging-subtree devices


def reference_violations(td) -> list[str]:
    """Every violation of td, in validate's order, by sets and counts: a
    DFS for tree connectivity, a scan of every bag per host edge, and P3 as
    'the bags holding v span one fewer tree edge than their number'."""
    out = []
    nb = len(td.bags)
    n = td.host.n
    for i, bag in enumerate(td.bags):
        for v in sorted(bag):
            if not 0 <= v < n:
                out.append(f"bag {i}: vertex {v} outside host range")
    tree_ok = True
    seen_edges = set()
    adj = [[] for _ in range(nb)]
    for i, j in td.tree_edges:
        if not (0 <= i < nb and 0 <= j < nb):
            out.append(f"tree: edge ({i}, {j}) has a bag index out of range")
            tree_ok = False
            continue
        if i == j:
            out.append(f"tree: self-loop at bag {i}")
            tree_ok = False
            continue
        if (i, j) in seen_edges:
            out.append(f"tree: duplicate edge ({i}, {j})")
            tree_ok = False
            continue
        seen_edges.add((i, j))
        adj[i].append(j)
        adj[j].append(i)
    if tree_ok and nb > 0:
        if len(seen_edges) != nb - 1:
            out.append(f"tree: expected {nb - 1} edges, found {len(seen_edges)}")
            tree_ok = False
        else:
            seen = {0}
            stack = [0]
            while stack:
                for j in adj[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            if len(seen) != nb:
                out.append("tree: bag nodes are not connected")
                tree_ok = False
    covered = set().union(*td.bags)
    for v in range(n):
        if v not in covered:
            out.append(f"P1: vertex {v} appears in no bag")
    for u, v in td.host.edges():
        if not any(u in bag and v in bag for bag in td.bags):
            out.append(f"P2: edge ({u}, {v}) contained in no bag")
    if tree_ok:
        holders = Counter(v for bag in td.bags for v in bag)
        inner = Counter(v for i, j in td.tree_edges for v in td.bags[i] & td.bags[j])
        for v in range(n):
            if inner[v] < holders[v] - 1:
                out.append(f"P3: bags containing vertex {v} do not form a subtree")
    return out


def is_reduced(td) -> bool:
    for i, j in td.tree_edges:
        if td.bags[i] <= td.bags[j] or td.bags[j] <= td.bags[i]:
            return False
    return True


def nonleaf_bags_are_cutsets(td) -> tuple[bool, int | None]:
    """Does removing each internal bag disconnect the host? Returns the first
    counterexample bag index if any. Needs a valid reduced decomposition of a
    connected host."""
    _require_valid(td)
    if not is_reduced(td):
        raise DomainError("decomposition is not reduced")
    if not is_connected(td.host):
        raise DomainError("host graph is disconnected")
    deg = [0] * len(td.bags)
    for i, j in td.tree_edges:
        deg[i] += 1
        deg[j] += 1
    for i, bag in enumerate(td.bags):
        if deg[i] < 2:
            continue
        rest = [v for v in range(td.host.n) if v not in bag]
        sub = induced(td.host, rest)
        if sub.n and is_connected(sub):
            return False, i
    return True, None


def hanging_subtrees(td, i: int) -> list[frozenset]:
    """Vertex sets of the subtrees of T - bag i, each minus bag i itself,
    ordered by the neighbor bag index they hang from."""
    _require_valid(td)
    adj = [[] for _ in td.bags]
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    out = []
    for start in sorted(adj[i]):
        comp = {start}
        stack = [start]
        while stack:
            for j in adj[stack.pop()]:
                if j != i and j not in comp:
                    comp.add(j)
                    stack.append(j)
        verts = set()
        for j in comp:
            verts |= td.bags[j]
        out.append(frozenset(verts - td.bags[i]))
    return out


# ---------------------------------------------------------------------------
# minors by the operational definition: deletions and contractions


def _contract(g, u, v):
    """Contract edge (u,v) into u, dropping v."""
    keep = [w for w in range(g.n) if w != v]
    pos = {w: i for i, w in enumerate(keep)}
    h = Graph(g.n - 1)
    for a, b in g.edges():
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            ha, hb = pos[a2], pos[b2]
            if not h.has_edge(ha, hb):
                h.add_edge(ha, hb)
    return h


def _delete_vertex(g, v):
    return induced(g, [w for w in range(g.n) if w != v])


def _delete_edge(g, u, v):
    h = Graph(g.n)
    h.adj = list(g.adj)
    h.adj[u] &= ~(1 << v)
    h.adj[v] &= ~(1 << u)
    return h


def has_minor_brute(g, target, _memo=None):
    """True iff target is a minor of g, by exhausting single operations."""
    if _memo is None:
        _memo = {}
    key = graph6_encode(g)
    if key in _memo:
        return _memo[key]
    result = False
    if g.n >= target.n and g.m >= target.m:
        if perm_isomorphic(g, target):
            result = True
        else:
            for v in range(g.n):
                if has_minor_brute(_delete_vertex(g, v), target, _memo):
                    result = True
                    break
            if not result:
                for u, v in g.edges():
                    if has_minor_brute(_delete_edge(g, u, v), target, _memo) or \
                       has_minor_brute(_contract(g, u, v), target, _memo):
                        result = True
                        break
    _memo[key] = result
    return result


# ---------------------------------------------------------------------------
# labelled trees from Pruefer sequences; AHU canonical form for free trees


def tree_from_pruefer(seq, n):
    if len(seq) != n - 2:
        raise ValueError(f"Pruefer sequence of length {len(seq)} for {n} vertices")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    g = Graph(n)
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        g.add_edge(leaf, s)
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    g.add_edge(leaf, n - 1)
    return g


def free_tree_canonical(g):
    """AHU string of the tree rooted at its center (min over two centers)."""
    n = g.n
    if n == 1:
        return "()"
    deg = [g.degree(v) for v in range(n)]
    alive = [True] * n
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            remaining -= 1
            for u in iter_bits(g.adj[v]):
                if alive[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = [v for v in range(n) if alive[v]]

    def enc(v, parent):
        subs = sorted(enc(u, v) for u in iter_bits(g.adj[v]) if u != parent)
        return "(" + "".join(subs) + ")"

    return min(enc(c, -1) for c in centers)


# ---------------------------------------------------------------------------
# named families, induced subgraphs, edge-list text and hypergraph dedup for
# the tests; the generators build their own


def path_graph(n):
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    if n < 3:
        raise DomainError("cycle needs at least 3 vertices")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def complete_graph(n):
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def grid_graph(rows, cols):
    """rows x cols grid; vertex (r,c) is r*cols + c."""
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def induced(g, vertices):
    """Induced subgraph on the given vertices, renumbered in sorted order."""
    vs = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(vs)}
    h = Graph(len(vs))
    for v in vs:
        for u in iter_bits(g.adj[v]):
            if u < v and u in pos:
                h.add_edge(pos[u], pos[v])
    return h


def format_edge_list(g):
    return "\n".join(f"{u} {v}" for u, v in g.edges())


def leaves(g):
    return [v for v in range(g.n) if g.degree(v) == 1]


def dedup(h):
    """Drop repeated edge sets, keeping the first slot of each."""
    return Hypergraph(h.nverts, list(dict.fromkeys(h.edges)))


# ---------------------------------------------------------------------------
# seeded random instances


def random_graph(rng, n, p):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_connected_graph(rng, n, p):
    """Random tree skeleton plus density-p extras; always connected."""
    g = random_tree(rng, n)
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and rng.random() < p:
                g.add_edge(u, v)
    return g


def random_tree(rng, n):
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(seq, n)


def random_hypergraph(rng, nverts, nedges):
    return Hypergraph(nverts, [rng.getrandbits(nverts) for _ in range(nedges)])


# ---------------------------------------------------------------------------
# VC dimension by a levelwise search that tests every candidate on its own:
# the reference for the exact witness (first set of the last level, first
# realizing edge slot per trace) of vc_dimension and vc2_dimension


def _shatter_assignment(h, xmask):
    """submask -> first realizing edge slot if xmask is shattered, else None."""
    found = {}
    for i, e in enumerate(h.edges):
        t = e & xmask
        if t not in found:
            found[t] = i
    if len(found) != 1 << xmask.bit_count():
        return None
    return found


def _two_shatter_assignment(h, xmask):
    """pairmask -> first realizing edge slot if every pair is an exact trace."""
    found = {}
    verts = list(iter_bits(xmask))
    for a, b in itertools.combinations(verts, 2):
        want = (1 << a) | (1 << b)
        for i, e in enumerate(h.edges):
            if e & xmask == want:
                found[want] = i
                break
        else:
            return None
    return found


def _levelwise(h, level, assignment):
    best_mask = level[0]
    while True:
        nxt = []
        for xmask in level:
            for v in range(xmask.bit_length(), h.nverts):
                cand = xmask | 1 << v
                if assignment(h, cand) is not None:
                    nxt.append(cand)
        if not nxt:
            break
        level = nxt
        best_mask = level[0]
    assign = assignment(h, best_mask)
    witness = {
        "vertices": list(iter_bits(best_mask)),
        "assignment": [
            {"subset": list(sub), "edge": i}
            for sub, i in sorted(
                (tuple(iter_bits(sub)), i) for sub, i in assign.items()
            )
        ],
    }
    return best_mask.bit_count(), witness


def levelwise_vc(h):
    """(vc, witness JSON), or (0, None) when h has no edges."""
    if not h.edges:
        return 0, None
    return _levelwise(h, [0], _shatter_assignment)


def levelwise_vc2(h):
    """(vc2, witness JSON); (0, empty witness) when h has no vertices."""
    if h.nverts == 0:
        return 0, {"vertices": [], "assignment": []}
    return _levelwise(h, [1 << v for v in range(h.nverts)], _two_shatter_assignment)


# ---------------------------------------------------------------------------
# minor search as it was before outerplanarity became a degree-2 reduction:
# the generic branch-set search over any pattern, with K_{2,3} among them;
# kept verbatim so the reduction can be checked against K_4 and K_{2,3}, and
# the in-place smoothing against this one's rebuild per suppressed vertex

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
    blocks = [induced(g, b) for b in biconnected_components(g) if len(b) >= t]
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


def reference_has_clique_minor(g: Graph, t: int, maxn: int | None = None) -> bool:
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


def reference_is_outerplanar(g, maxn=None):
    """No K_4 minor and no K_{2,3} minor."""
    return not reference_has_clique_minor(g, 4, maxn=maxn) and not has_k23_minor(g, maxn=maxn)


# ---------------------------------------------------------------------------
# enumeration: the full scans the generators prune, and the plain filters
# with no center test and no stored colorings (every rooted sequence is
# compared over all center rootings; every candidate is refined again by each
# isomorphism check)


def _rooted_level_sequences(n):
    """All rooted trees on n vertices, one canonical level sequence each, in
    the decreasing order of the runtime successor."""
    seq = list(range(n))
    while seq is not None:
        yield seq
        seq = _successor(seq)


def _adjacency_from_sequence(seq):
    adj = [[] for _ in seq]
    stack = []
    for i, depth in enumerate(seq):
        del stack[depth:]
        if stack:
            adj[stack[-1]].append(i)
            adj[i].append(stack[-1])
        stack.append(i)
    return adj


def _root_branch_heights(seq):
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


def _tree_from_adjacency(adj):
    return Graph.from_edges(len(adj), ((u, v) for u, nb in enumerate(adj) for v in nb if u < v))


def reference_tree_scan(n):
    """Free trees on n vertices by the scan of every rooted level sequence:
    a sequence is kept when its root is a center by the branch heights and,
    for a bicentral tree, it is no smaller than the sequence at the other
    center. The runtime generator skips the rejected blocks of this scan."""
    out = []
    for seq in _rooted_level_sequences(n):
        h1, h2, c = _root_branch_heights(seq)
        if h1 - h2 >= 2:
            continue
        adj = _adjacency_from_sequence(seq)
        if h1 == h2 + 1 and tuple(seq) < _canonical_from(adj, c):
            continue
        out.append(_tree_from_adjacency(adj))
    return out


_reference_tree_cache: dict = {}


def reference_free_trees(n):
    """Free trees on n vertices, in the order enumerate_trees gives them."""
    if n not in _reference_tree_cache:
        out = []
        for seq in _rooted_level_sequences(n):
            # keep the sequence only when it is the free-tree canonical
            # form, i.e. the greatest sequence over center rootings
            adj = _adjacency_from_sequence(seq)
            if tuple(seq) == _free_canonical(adj):
                out.append(_tree_from_adjacency(adj))
        _reference_tree_cache[n] = out
    return _reference_tree_cache[n]


_reference_conn_cache: dict = {}


def reference_connected_graphs(n):
    """Connected graphs on n vertices, in the order enumerate_connected_graphs
    gives them: one-vertex extensions of the (n-1)-vertex level, deduplicated
    by a scan of the invariant bucket with the public isomorphism check."""
    if n in _reference_conn_cache:
        return _reference_conn_cache[n]
    if n == 1:
        level = [Graph(1)]
    else:
        buckets: dict = {}
        order = []
        for base in reference_connected_graphs(n - 1):
            for mask in range(1, 1 << (n - 1)):
                g = Graph(n)
                g.adj[: n - 1] = base.adj
                g.adj[n - 1] = mask
                for v in range(n - 1):
                    if mask >> v & 1:
                        g.adj[v] |= 1 << (n - 1)
                bucket = buckets.setdefault(iso_invariant(g), [])
                # cap n (not the config default) so env overrides cannot
                # break the internal dedup; the scan is exhaustive anyway
                if not any(isomorphic(g, h, maxn=n) for h in bucket):
                    bucket.append(g)
                    order.append(g)
        level = sorted(order, key=to_graph6)
    _reference_conn_cache[n] = level
    return level
