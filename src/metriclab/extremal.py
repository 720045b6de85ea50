"""Deterministic generators for the tight families, each paired with its
predicted statistics so the harness can compare prediction against
measurement.

Numbering is fixed (root first, components in declaration order, pendant
paths inner-to-outer), so a drawing can be reproduced from the graph alone;
the spec's resolving_set names the witness vertices in that numbering.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .config import enforce_cap
from .errors import DomainError, TooLargeError
from .graphs import MAX_VERTICES, Graph


class ExtremalSpec(NamedTuple):
    family: str
    params: dict
    order: int
    diameter: int
    metric_dimension: int | None
    resolving_set: tuple
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "family": self.family,
            "params": dict(self.params),
            "order": self.order,
            "diameter": self.diameter,
            "metric_dimension": self.metric_dimension,
            "resolving_set": list(self.resolving_set),
            "notes": self.notes,
        }


def _refuse_order(order: int, name: str) -> None:
    """Raise before building a member that graph6 could not encode."""
    if order > MAX_VERTICES:
        raise TooLargeError(f"{name}: order {order} exceeds the graph6 limit of {MAX_VERTICES}")


def hs_order(d: int, k: int) -> int:
    """Order of the spider-of-combs trees HS(d, k), whatever the odd-d split."""
    if d % 2 == 0:
        return (k * d + 4) * (d + 2) // 8
    return (k * d - k + 8) * (d + 1) // 8


def _grow_path(g: Graph, at: int, steps: int) -> int:
    """Append a pendant path; returns the far endpoint (at itself if steps=0)."""
    prev = at
    for _ in range(steps):
        nv = g.add_vertex()
        g.add_edge(prev, nv)
        prev = nv
    return prev


def _graft_comb(g: Graph, root: int, r: int) -> int:
    """Attach the comb tree with spine length r at root; returns the spine end.

    The spine hangs r vertices off the root; the spine vertex at depth i
    (0 < i < r) carries a pendant path of length r - i.
    """
    spine = [root]
    for _ in range(r):
        spine.append(_grow_path(g, spine[-1], 1))
    for i in range(1, r):
        _grow_path(g, spine[i], r - i)
    return spine[-1]


def gen_l(r: int) -> Graph:
    """The comb tree on 1 + r + r(r-1)/2 vertices, rooted at vertex 0."""
    if r < 1:
        raise DomainError("gen_l needs r >= 1")
    _refuse_order(1 + r + r * (r - 1) // 2, "gen_l")
    g = Graph(1)
    _graft_comb(g, 0, r)
    return g


def gen_hs(d: int, k: int, a: int | None = None) -> tuple[Graph, ExtremalSpec]:
    """Spider-of-combs tree of diameter d with k combs.

    Even d: k combs and one pendant path, all at one center. Odd d: a combs
    at one end of a central edge, k - a at the other, one pendant path at
    each end; `a` is required for odd d and rejected for even d. Metric
    dimension is k except for the lopsided odd splits (a = 0 or a = k),
    which cost one extra landmark.
    """
    if k < 2:
        raise DomainError("gen_hs needs k >= 2")
    if d % 2 == 0:
        if d < 2:
            raise DomainError("gen_hs needs d >= 2")
        if a is not None:
            raise DomainError("a applies only to odd d")
    else:
        if d < 3:
            raise DomainError("gen_hs needs d >= 2")
        if a is None:
            raise DomainError("odd d needs the split parameter a")
        if not 0 <= a <= k:
            raise DomainError("need 0 <= a <= k")
    order = hs_order(d, k)
    _refuse_order(order, "gen_hs")
    if d % 2 == 0:
        r = d // 2
        g = Graph(1)
        witness = []
        for _ in range(k):
            witness.append(_graft_comb(g, 0, r))
        _grow_path(g, 0, r)
        md = k
        family, params = "HS_even", {"d": d, "k": k}
    else:
        r = (d - 1) // 2
        g = Graph(2)
        g.add_edge(0, 1)
        witness = []
        for _ in range(a):
            witness.append(_graft_comb(g, 0, r))
        u_tail = _grow_path(g, 0, r)
        for _ in range(k - a):
            witness.append(_graft_comb(g, 1, r))
        w_tail = _grow_path(g, 1, r)
        if a == 0:
            witness.append(u_tail)
        elif a == k:
            witness.append(w_tail)
        md = k if 0 < a < k else k + 1
        family, params = "HS_odd", {"d": d, "k": k, "a": a}
    spec = ExtremalSpec(family, params, order, d, md, tuple(witness))
    return g, spec


def _graft_lobe(g: Graph, x: int, i: int, fan: bool, force_short_chord: bool) -> int:
    """Attach one outerplanar lobe at x; returns its witness leaf.

    The lobe is the odd cycle through x with both arcs of depth i, a pendant
    path of length i - j + 1 on each arc vertex at depth j, and one extra
    leaf on the deep arc vertex. i = 0 degenerates to a single leaf on x.
    fan adds the full nested chord set; force_short_chord adds just the
    depth-1 chord (needed to keep the diameter down in the deep lobe when
    the total diameter is odd).
    """
    if i == 0:
        return _grow_path(g, x, 1)
    c = [x]
    for _ in range(i):
        c.append(_grow_path(g, c[-1], 1))
    cp = [x]
    for _ in range(i):
        cp.append(_grow_path(g, cp[-1], 1))
    g.add_edge(c[i], cp[i])
    for j in range(1, i + 1):
        _grow_path(g, c[j], i - j + 1)
    for j in range(1, i + 1):
        _grow_path(g, cp[j], i - j + 1)
    second = _grow_path(g, c[i], 1)
    if fan:
        for j in range(1, i):
            if not g.has_edge(c[j], cp[j]):
                g.add_edge(c[j], cp[j])
        for j in range(2, i + 1):
            g.add_edge(cp[j], c[j - 1])
    elif force_short_chord and not g.has_edge(c[1], cp[1]):
        g.add_edge(c[1], cp[1])
    return second


def gen_o(d: int, k: int, with_chords: bool = False) -> tuple[Graph, ExtremalSpec]:
    """Outerplanar flower of diameter d and metric dimension k.

    k lobes share the hub (for odd d the last lobe is one level deeper),
    plus a pendant path of length floor(d/2) at the hub. Witnesses are the
    extra leaf of each lobe.
    """
    if d < 2 or k < 2:
        raise DomainError("gen_o needs d >= 2 and k >= 2")
    if d % 2 == 0:
        order = (d + 2) // 2 + k * (2 * (d // 2) * (d // 2 + 1) // 2 - 1)
    else:
        half = (d - 1) // 2
        order = (3 * d + 3) // 2 + k * (2 * half * (half + 1) // 2 - 1)
    _refuse_order(order, "gen_o")
    g = Graph(1)
    small = d // 2 - 1 if d % 2 == 0 else (d - 1) // 2 - 1
    sizes = [small] * k if d % 2 == 0 else [small] * (k - 1) + [(d - 1) // 2]
    witness = []
    for pos, i in enumerate(sizes):
        deep = d % 2 == 1 and pos == k - 1
        witness.append(_graft_lobe(g, 0, i, with_chords, deep))
    _grow_path(g, 0, d // 2)
    spec = ExtremalSpec(
        "O",
        {"d": d, "k": k, "with_chords": with_chords},
        order,
        d,
        k,
        tuple(witness),
    )
    return g, spec


def gen_grid_chain(t: int) -> tuple[Graph, ExtremalSpec]:
    """t copies of the t x t grid, consecutive copies linked at their top
    corners. Order t^3; the spec's 3-set resolves the whole chain."""
    if t < 2:
        raise DomainError("gen_grid_chain needs t >= 2")
    _refuse_order(t**3, "gen_grid_chain")
    g = Graph(t**3)

    def vid(copy, r, col):
        return copy * t * t + r * t + col

    for copy in range(t):
        for r in range(t):
            for col in range(t):
                if col + 1 < t:
                    g.add_edge(vid(copy, r, col), vid(copy, r, col + 1))
                if r + 1 < t:
                    g.add_edge(vid(copy, r, col), vid(copy, r + 1, col))
    for copy in range(t - 1):
        g.add_edge(vid(copy, 0, 0), vid(copy + 1, 0, 0))
        g.add_edge(vid(copy, 0, t - 1), vid(copy + 1, 0, t - 1))
    s = (vid(0, 0, 0), vid(0, 0, t - 1), vid(t - 1, t - 1, 0))
    spec = ExtremalSpec(
        "grid_chain",
        {"t": t},
        t**3,
        4 * (t - 1),
        None,
        s,
        notes="diameter is the measured 4(t-1); the quoted 4t is not attained",
    )
    return g, spec


def gen_line_example(k: int, maxk: int | None = None) -> tuple[Graph, ExtremalSpec]:
    """Line graph separating metric dimension from test-cover size.

    Root graph: k pinned edges, one edge per nonempty subset of the k, and
    a connector joining the subset edge's first endpoint to the first
    endpoint of each pinned edge it names. Vertices of the line graph are
    the root edges: pinned first, then subsets by bitmask, then connectors.
    """
    if k < 2:
        raise DomainError("gen_line_example needs k >= 2")
    enforce_cap(k, maxk, "line_k", "gen_line_example: k={n} exceeds cap {cap}")
    order = k + (1 << k) - 1 + sum(i * comb(k, i) for i in range(1, k + 1))
    _refuse_order(order, "gen_line_example")
    root_edges = []
    nverts = 0

    def fresh():
        nonlocal nverts
        nverts += 1
        return nverts - 1

    pinned = []
    for _ in range(k):
        av, bv = fresh(), fresh()
        pinned.append(av)
        root_edges.append((av, bv))
    subset_anchor = {}
    for mask in range(1, 1 << k):
        av, bv = fresh(), fresh()
        subset_anchor[mask] = av
        root_edges.append((av, bv))
    for mask in range(1, 1 << k):
        for i in range(k):
            if mask >> i & 1:
                root_edges.append((subset_anchor[mask], pinned[i]))
    m = len(root_edges)
    g = Graph(m)
    for e1 in range(m):
        for e2 in range(e1 + 1, m):
            if set(root_edges[e1]) & set(root_edges[e2]):
                g.add_edge(e1, e2)
    s = tuple(range(k))
    spec = ExtremalSpec(
        "line_example",
        {"k": k},
        order,
        5,
        None,
        s,
        notes="pinned-edge vertices resolve; subset edges sit at 2 or 4 from "
        "each pinned edge depending on membership",
    )
    return g, spec
