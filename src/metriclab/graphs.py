"""Graph representation, I/O, distances, and structural predicates.

Graphs are simple and undirected, with vertices 0..n-1 and adjacency stored
as one int bitmask per vertex. That keeps the hot loops (BFS over masks,
subset tests in the solvers) allocation-free without any dependency. A graph
is its structure only: vertices carry no names, and every reader and writer
works on the numbering alone.
"""

from __future__ import annotations

from .config import enforce_cap
from .errors import DomainError, FormatError, TooLargeError

# Largest vertex count any parser accepts: the graph6 '~' header's limit.
# Checked before a graph or hypergraph of that order is allocated.
MAX_VERTICES = 258047


# the set bits of every byte: every mask of a graph on at most 8 vertices
_BYTE_BITS = tuple(tuple(v for v in range(8) if m >> v & 1) for m in range(256))


def iter_bits(mask: int):
    """Indices of set bits, ascending, as a sequence (not an iterator; wrap
    it in iter() to consume it piecewise): a shared tuple for a mask below
    256, a new list otherwise."""
    if 0 <= mask < 256:
        return _BYTE_BITS[mask]
    if mask < 0:
        raise ValueError(f"iter_bits needs a nonnegative mask, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    __slots__ = ("n", "adj")

    def __init__(self, n: int = 0):
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        self.n = n
        self.adj: list[int] = [0] * n

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_vertex(self) -> int:
        self.adj.append(0)
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise DomainError(f"self-loop at {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise DomainError(f"edge ({u},{v}) out of range for n={self.n}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int):
        return iter_bits(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                yield (u, v)

    def relabeled(self, perm: list[int]) -> "Graph":
        """Image under vertex map old -> perm[old] (a permutation)."""
        g = Graph(self.n)
        for u, v in self.edges():
            g.add_edge(perm[u], perm[v])
        return g

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((a.bit_count() for a in self.adj), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# distances


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from source; -1 where unreachable."""
    adj = g.adj
    dist = [-1] * g.n
    dist[source] = 0
    frontier = seen = 1 << source
    d = 0
    while frontier:
        d += 1
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt = nxt & ~seen
        seen |= nxt
        while nxt:
            low = nxt & -nxt
            dist[low.bit_length() - 1] = d
            nxt ^= low
    return dist


def all_distances(g: Graph) -> list[list[int]]:
    return [bfs_distances(g, v) for v in range(g.n)]


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return -1 not in bfs_distances(g, 0)


def eccentricities(g: Graph) -> list[int]:
    if not is_connected(g):
        raise DomainError("eccentricities need a connected graph")
    return [max(bfs_distances(g, v)) for v in range(g.n)]


def diameter(g: Graph) -> int:
    if g.n == 0:
        raise DomainError("diameter of the empty graph is undefined")
    if g.m != g.n - 1:
        return max(eccentricities(g))
    # a tree if connected: a vertex farthest from any vertex ends a longest
    # path, so two sweeps suffice, the first also checking connectivity
    dist = bfs_distances(g, 0)
    if -1 in dist:
        raise DomainError("eccentricities need a connected graph")
    return max(bfs_distances(g, dist.index(max(dist))))


def _diameter(dist: list[list[int]]) -> int:
    """diameter from the graph's distance matrix, with the same refusals."""
    if not dist:
        raise DomainError("diameter of the empty graph is undefined")
    if -1 in dist[0]:
        raise DomainError("eccentricities need a connected graph")
    return max(map(max, dist))


def is_tree(g: Graph) -> bool:
    return g.n > 0 and g.m == g.n - 1 and is_connected(g)


# ---------------------------------------------------------------------------
# chordality by simplicial peeling (Dirac 1961; Fulkerson & Gross 1965)


def _simplicial_peel(g: Graph) -> tuple[list[tuple[int, int]], int]:
    """Remove simplicial vertices (whose neighbors form a clique), always
    the lowest one left, until none is. Returns the removed vertices in
    order, each with its neighbor mask at removal time, and the mask of
    the vertices left over.

    A simplicial vertex stays simplicial as others go, so every order of
    removals ends at the same rest, which is empty iff g is chordal. A
    removal can make only its own neighbors simplicial, so only they are
    re-tested: there is no rescan. A test walks the neighbors lowest first
    and stops at the first that misses another, so a hub fails at once.

    On a chordal graph the order is a perfect elimination order and each
    candidate {v} | nbs is a clique. A maximal clique is the candidate of
    its first removed vertex, the rest of it being still there, so the
    maximal candidates are the maximal cliques for every such order.
    """
    adj = g.adj
    alive = test = (1 << g.n) - 1
    ready = 0
    peeled = []
    while True:
        for u in iter_bits(test):
            nbs = left = adj[u] & alive
            while left:
                low = left & -left
                if nbs & ~adj[low.bit_length() - 1] & ~low:
                    break
                left ^= low
            else:
                ready |= 1 << u
        if not ready:
            return peeled, alive
        low = ready & -ready
        v = low.bit_length() - 1
        alive ^= low
        ready ^= low
        nbs = adj[v] & alive
        peeled.append((v, nbs))
        test = nbs & ~ready


def is_chordal(g: Graph) -> bool:
    return not _simplicial_peel(g)[1]


# ---------------------------------------------------------------------------
# biconnected components (blocks), iterative Hopcroft-Tarjan


def biconnected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the blocks. Isolated vertices form singleton blocks."""
    disc = [-1] * g.n
    low = [0] * g.n
    blocks: list[list[int]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0

    for root in range(g.n):
        if disc[root] != -1:
            continue
        if g.adj[root] == 0:
            blocks.append([root])
            continue
        # explicit DFS stack: (vertex, parent, neighbor iterator)
        stack = [(root, -1, iter(iter_bits(g.adj[root])))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if disc[u] == -1:
                    edge_stack.append((v, u))
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, v, iter(iter_bits(g.adj[u]))))
                    advanced = True
                    break
                if u != parent and disc[u] < disc[v]:
                    edge_stack.append((v, u))
                    low[v] = min(low[v], disc[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    # everything above and including tree edge (pv,v) is one block
                    verts = set()
                    while True:
                        a, b = edge_stack.pop()
                        verts.add(a)
                        verts.add(b)
                        if (a, b) == (pv, v):
                            break
                    blocks.append(sorted(verts))
    return blocks


# ---------------------------------------------------------------------------
# graph6 codec (formats for n <= 62 and the '~'-prefixed form to 258047)


# the six body bits of each graph6 character, most significant first, and back
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}
_G6_CHARS = {bits: chr(c) for c, bits in _G6_BITS.items()}


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= MAX_VERTICES:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise TooLargeError(f"graph6 encoding beyond {MAX_VERTICES} vertices not supported")
    # column j holds the j bits of rows i < j, row 0 first: its adjacency
    # mask below j, written in binary and read backwards
    bits = "".join(
        format(a & ((1 << j) - 1), "b").zfill(j)[::-1] for j, a in enumerate(g.adj) if j
    )
    bits += "0" * (-len(bits) % 6)
    return head + "".join([_G6_CHARS[bits[k : k + 6]] for k in range(0, len(bits), 6)])


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise FormatError("graph6 characters must be in chr(63)..chr(126)")
    if s[0] == "~":
        if s[1:2] == "~":
            raise TooLargeError(f"graph6 '~~' form (n > {MAX_VERTICES}) not supported")
        if len(s) < 4:
            raise FormatError("truncated graph6 header")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError(
            f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6} for n={n}"
        )
    g = Graph(n)
    adj = g.adj
    k = 0
    for j in range(1, n):
        # column j (bits k..k+j-1, decoded from their characters only), row
        # 0 first, read backwards is j's mask of rows below j
        col = int(body[k // 6 : (k + j + 5) // 6].translate(_G6_BITS)[k % 6 : k % 6 + j][::-1], 2)
        k += j
        adj[j] |= col
        # mirror each edge ij into row i
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= 1 << j
            col ^= low
    return g


# ---------------------------------------------------------------------------
# edge-list text: one "u v" pair per line, 0-indexed, n inferred as max+1.
# K_1 and trailing isolated vertices are not representable here; use graph6.


def parse_edge_list(text: str) -> Graph:
    pairs = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: vertex ids must be integers") from exc
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: vertex ids must be nonnegative")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop {u}")
        pairs.append((u, v))
        top = max(top, u, v)
        if top >= MAX_VERTICES:
            raise TooLargeError(
                f"line {lineno}: vertex id {top} needs more than the input cap of "
                f"{MAX_VERTICES} vertices"
            )
    if top < 0:
        raise FormatError("edge list has no edges; use graph6 for edgeless graphs")
    return Graph.from_edges(top + 1, pairs)


# ---------------------------------------------------------------------------
# isomorphism: 1-dimensional color refinement, then backtracking


def _refined_colors(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Stable coloring of 1-dimensional refinement, numbered canonically,
    and its quotient.

    The first coloring is the degree rank. Each round a vertex's signature
    is its color followed by its number of neighbors in each color class,
    packed into one int of b = n.bit_length() bits per count, so int order
    is the order of the (color, counts) tuples. That count vector and the
    sorted list of neighbor colors determine each other, so every round
    splits the vertices exactly as the classic multiset signature does and
    the rounds stop together; only the numbers given to the classes
    differ. Colors are the ranks of the sorted signatures, so isomorphic
    graphs get equal color multisets and any isomorphism keeps the colors.
    The quotient is the sorted tuple of the distinct final signatures: the
    quotient matrix of the equitable partition, an isomorphism invariant
    that with the class sizes fixes the degree sequence, so n and m too.
    """
    adj = g.adj
    degrees = [a.bit_count() for a in adj]
    ranks = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [ranks[d] for d in degrees]
    b = g.n.bit_length()
    while True:
        classes = [0] * len(ranks)
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        sigs = []
        for sig, a in zip(colors, adj):
            for m in classes:
                sig = sig << b | (a & m).bit_count()
            sigs.append(sig)
        quotient = sorted(set(sigs))
        # a signature starts with the old color, so classes only split; no
        # split means the coloring is stable
        if len(quotient) == len(classes):
            return tuple(colors), tuple(quotient)
        ranks = {s: i for i, s in enumerate(quotient)}
        colors = [ranks[s] for s in sigs]


def _invariant(colors: tuple[int, ...], quotient: tuple[int, ...]) -> tuple:
    """The bucket key of a refined coloring: its class sizes and quotient."""
    return tuple(sorted(colors)), quotient


def iso_invariant(g: Graph) -> tuple:
    """Cheap isomorphism-invariant key for bucketing before exact checks."""
    return _invariant(*_refined_colors(g))


def _prepared(g: Graph, colors: tuple[int, ...], search: bool = True) -> tuple:
    """What the map search reads of g: (adj, colors, by_color, order).
    by_color lists the vertices of each color, for g as a target; order is
    the assignment order for g as a source (rare colors first, then higher
    degree, then index), None unless search."""
    by_color: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        by_color[c].append(v)
    order = None
    if search:
        n, adj = g.n, g.adj
        key = [len(by_color[c]) * (n + 1) + n - a.bit_count() for c, a in zip(colors, adj)]
        order = sorted(range(n), key=key.__getitem__)
    return g.adj, colors, by_color, order


def isomorphic(g: Graph, h: Graph, maxn: int | None = None) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if g.n == 0:
        return True
    if g.degree_sequence() != h.degree_sequence():
        return False
    (cg, qg), (ch, qh) = _refined_colors(g), _refined_colors(h)
    if qg != qh or sorted(cg) != sorted(ch):
        return False
    enforce_cap(g.n, maxn, "iso_n", "isomorphism: n={n} exceeds cap {cap}")
    return _color_preserving_map(_prepared(g, cg), _prepared(h, ch, search=False))


def _color_preserving_map(g: tuple, h: tuple) -> bool:
    """Is there an isomorphism g -> h that keeps the refined colors?"""
    return next(_color_preserving_maps(g, h), None) is not None


def _color_preserving_maps(g: tuple, h: tuple):
    """Backtracking search for every isomorphism g -> h that keeps the
    refined colors, each as the list image[v], from ``_prepared`` records (g
    with its search order). None exists unless the color classes agree in
    size, whatever key paired the two. One list is updated in place and
    yielded each time, so copy it to keep a map. With h = g these are the
    automorphisms of g."""
    gadj, gcolors, gby_color, order = g
    hadj, _, by_color, _ = h
    if list(map(len, gby_color)) != list(map(len, by_color)):
        return iter(())
    n = len(gadj)
    image = [-1] * n

    def extend(k: int, placed: int, used: int):
        if k == n:
            yield image
            return
        v = order[k]
        # w fits iff its neighbors among the used images are exactly the
        # images of v's placed neighbors
        want = 0
        nb = gadj[v] & placed
        while nb:
            low = nb & -nb
            want |= 1 << image[low.bit_length() - 1]
            nb ^= low
        for w in by_color[gcolors[v]]:
            if not used >> w & 1 and hadj[w] & used == want:
                image[v] = w
                yield from extend(k + 1, placed | 1 << v, used | 1 << w)

    return extend(0, 0, 0)
