import random
from pathlib import Path

import pytest

from metriclab.enumeration import enumerate_connected_graphs
from metriclab.errors import DomainError, TooLargeError
from metriclab.extremal import gen_o
from metriclab import minors
from metriclab.graphs import Graph, biconnected_components, iter_bits, parse_graph6
from metriclab.minors import _smooth, has_clique_minor, is_outerplanar

from oracles import _smooth as reference_smooth
from oracles import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    has_k23_minor,
    has_minor_brute,
    induced,
    path_graph,
    random_connected_graph,
    random_graph,
    random_tree,
    reference_has_clique_minor,
    reference_is_outerplanar,
    star_graph,
)

CORPUS8 = Path(__file__).parent / "data" / "connected8.g6"


def petersen():
    g = Graph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)        # outer cycle
        g.add_edge(5 + i, 5 + (i + 2) % 5)  # inner pentagram
        g.add_edge(i, 5 + i)
    return g


def chorded_cycle(n, u, v):
    g = cycle_graph(n)
    g.add_edge(u, v)
    return g


def test_clique_minor_small_t():
    assert has_clique_minor(Graph(1), 1)
    assert not has_clique_minor(Graph(0), 1)
    assert has_clique_minor(path_graph(2), 2)
    assert not has_clique_minor(Graph(3), 2)
    with pytest.raises(DomainError):
        has_clique_minor(path_graph(2), 0)


def test_trees_have_no_triangle_minor():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(5):
            t = random_tree(rng, n)
            assert not has_clique_minor(t, 3)
            assert is_outerplanar(t)


def test_cycles():
    for n in range(3, 9):
        c = cycle_graph(n)
        assert has_clique_minor(c, 3)
        assert not has_clique_minor(c, 4)
        assert not has_k23_minor(c)
        assert is_outerplanar(c)
    # reductions fire before the size cap: long cycle, long path
    assert is_outerplanar(cycle_graph(20))
    assert not has_clique_minor(path_graph(20), 3)


def test_complete_graphs():
    for n in range(3, 7):
        k = complete_graph(n)
        assert has_clique_minor(k, n)
        assert not has_clique_minor(k, n + 1)
    assert not is_outerplanar(complete_graph(4))
    assert is_outerplanar(complete_graph(3))


def test_k23_examples():
    k23 = complete_bipartite(2, 3)
    assert has_k23_minor(k23)
    assert not has_clique_minor(k23, 4)
    assert not is_outerplanar(k23)
    # one chord gives only two internally disjoint legs, not three
    assert not has_k23_minor(chorded_cycle(6, 0, 3))
    assert is_outerplanar(chorded_cycle(6, 0, 3))
    # subdividing the chord restores the third leg
    theta = cycle_graph(6)
    v = theta.add_vertex()
    theta.add_edge(0, v)
    theta.add_edge(3, v)
    assert has_k23_minor(theta)
    assert not has_clique_minor(theta, 4)


def test_k33():
    k33 = complete_bipartite(3, 3)
    assert has_clique_minor(k33, 4)
    assert not has_clique_minor(k33, 5)  # only 9 edges
    assert has_k23_minor(k33)


def test_wheel_and_petersen():
    wheel = cycle_graph(5)
    hub = wheel.add_vertex()
    for v in range(5):
        wheel.add_edge(hub, v)
    assert has_clique_minor(wheel, 4)
    assert not has_clique_minor(wheel, 5)
    p = petersen()
    assert has_clique_minor(p, 5)
    assert not is_outerplanar(p)


def test_stars_and_bowtie():
    assert is_outerplanar(star_graph(9))
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert has_clique_minor(bowtie, 3)
    assert not has_clique_minor(bowtie, 4)
    assert is_outerplanar(bowtie)


def test_against_brute_oracle():
    rng = random.Random(31)
    k3, k4 = complete_graph(3), complete_graph(4)
    k23 = complete_bipartite(2, 3)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        assert has_clique_minor(g, 3) == has_minor_brute(g, k3)
        assert has_clique_minor(g, 4) == has_minor_brute(g, k4)
        assert has_k23_minor(g) == has_minor_brute(g, k23)
        assert is_outerplanar(g) == (not has_minor_brute(g, k4) and not has_minor_brute(g, k23))


def test_cap_is_post_reduction():
    # block of 5 exceeds an artificial cap of 4
    five = chorded_cycle(5, 0, 2)
    with pytest.raises(TooLargeError):
        has_clique_minor(complete_graph(5), 4, maxn=4)  # nothing to smooth
    assert not has_k23_minor(five)
    # smoothing may drop a block below the cap; then no error is due
    assert not has_clique_minor(five, 4, maxn=2)
    # a 16-vertex chorded cycle smooths down to nothing first
    big = chorded_cycle(16, 0, 8)
    assert not has_clique_minor(big, 4)


def shuffled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph(n)
    for u, v in edges:
        if not g.has_edge(perm[u], perm[v]):
            g.add_edge(perm[u], perm[v])
    return g


def ear_graph(rng, n, ears):
    """A 2-connected graph on n vertices, labels shuffled: a cycle plus
    ``ears`` paths, each joining two vertices already placed. Its block
    smooths down to at most 2 * ears branch vertices."""
    inner = [rng.randrange(0, 6) for _ in range(ears)]
    edges = [(v, (v + 1) % (n - sum(inner))) for v in range(n - sum(inner))]
    nxt = n - sum(inner)
    for length in inner:
        a, b = rng.sample(range(nxt), 2)
        path = [a] + list(range(nxt, nxt + length)) + [b]
        edges += zip(path, path[1:])
        nxt += length
    return shuffled(rng, n, edges)


def subdivision(rng, base, n):
    """base with n - base.n new vertices spread at random over its edges,
    labels shuffled; it smooths back to base when base has min degree 3."""
    cuts = [0] * base.m
    for _ in range(n - base.n):
        cuts[rng.randrange(base.m)] += 1
    edges, nxt = [], base.n
    for (u, v), length in zip(base.edges(), cuts):
        path = [u] + list(range(nxt, nxt + length)) + [v]
        edges += zip(path, path[1:])
        nxt += length
    return shuffled(rng, n, edges)


def test_smoothing_long_blocks_matches_reference():
    # blocks far longer than the pools: the in-place smoothing must give the
    # graph of the reference's rebuild per suppressed vertex, and the answer
    rng = random.Random(808)
    pool = [chorded_cycle(n, 0, n // 2) for n in (30, 77, 200)]
    for n in (30, 64, 200):
        crossed = chorded_cycle(n, 0, n // 2)
        crossed.add_edge(n // 4, 3 * n // 4)  # two crossing chords: a K4 minor
        pool.append(crossed)
    pool += [ear_graph(rng, rng.randint(30, 200), rng.randint(1, 5)) for _ in range(30)]
    for base in (complete_graph(5), complete_graph(6), complete_bipartite(3, 3), petersen()):
        pool += [subdivision(rng, base, rng.randint(30, 200)) for _ in range(3)]
    for g in pool:
        assert biconnected_components(g) == [list(range(g.n))]  # one block
        adj = dict(enumerate(g.adj))
        alive = _smooth(adj, (1 << g.n) - 1)
        smoothed = Graph(g.n)
        smoothed.adj = list(adj.values())
        assert induced(smoothed, iter_bits(alive)) == reference_smooth(g)
        for t in (4, 5):
            assert has_clique_minor(g, t) == reference_has_clique_minor(g, t)
    for t in (4, 5):
        assert any(has_clique_minor(g, t) for g in pool)
        assert not all(has_clique_minor(g, t) for g in pool)


def test_clique_minor_search_work_is_pinned(monkeypatch):
    # the connected subsets enumerated per search pin the K_t search over
    # the n <= 7 pool; a lost reduction or a wider block moves a count
    calls = cands = 0
    connected_subsets = minors._connected_subsets

    def counted(*args):
        nonlocal calls, cands
        res = connected_subsets(*args)
        calls += 1
        cands += len(res)
        return res

    monkeypatch.setattr(minors, "_connected_subsets", counted)
    pool = list(enumerate_connected_graphs(7))
    assert len(pool) == 996
    work = {}
    for t in (4, 5):
        calls = cands = 0
        work[t] = (sum(has_clique_minor(g, t) for g in pool), calls, cands)
    assert work == {4: (675, 675, 21567), 5: (174, 496, 11312)}
    assert sum(map(is_outerplanar, pool)) == 240


def glued_blocks(rng, blocks):
    """The blocks glued at cut vertices in a tree shape: each new block
    shares one random vertex with the graph so far. Labels shuffled."""
    edges, n = list(blocks[0].edges()), blocks[0].n
    for b in blocks[1:]:
        cut, pivot = rng.randrange(n), rng.randrange(b.n)
        pos = {v: n + v - (v > pivot) for v in range(b.n)}
        pos[pivot] = cut
        edges += [(pos[u], pos[v]) for u, v in b.edges()]
        n += b.n - 1
    return shuffled(rng, n, edges)


def small_block(rng, kind):
    """A 2-connected graph of at most 14 vertices, or a bridge."""
    if kind == 0:
        ears = rng.randint(1, 2)
        return ear_graph(rng, rng.randint(3 + 5 * ears, 14), ears)
    if kind == 1:
        n = rng.randint(4, 12)
        return chorded_cycle(n, 0, rng.randint(2, n - 2))
    if kind == 2:
        return rng.choice([complete_graph(4), complete_graph(5), path_graph(2)])
    base = complete_bipartite(2, 3) if kind < 5 else complete_bipartite(3, 3)
    return subdivision(rng, base, rng.randint(base.n, 12))


def test_blocks_sharing_cut_vertices_match_reference():
    # every cut vertex has neighbors in other blocks; each block is searched
    # on its adjacency masked to the block, so those must not leak in
    rng = random.Random(3030)
    answers = []
    for _ in range(120):
        kinds = rng.sample(range(7), rng.randint(1, 3))  # some graphs outerplanar
        blocks = [small_block(rng, rng.choice(kinds)) for _ in range(rng.randint(2, 8))]
        g = glued_blocks(rng, blocks)
        got = (has_clique_minor(g, 4), has_clique_minor(g, 5), is_outerplanar(g))
        assert got == (
            reference_has_clique_minor(g, 4),
            reference_has_clique_minor(g, 5),
            reference_is_outerplanar(g),
        )
        answers.append(got)
    for i in range(3):
        assert {a[i] for a in answers} == {False, True}


def chorded_cycle_chain(blocks):
    """5-cycles glued end to end, block i on 4i..4i+4 with the chord (4i, 4i+2)."""
    g = Graph(4 * blocks + 1)
    for s in range(0, 4 * blocks, 4):
        for j in range(4):
            g.add_edge(s + j, s + j + 1)
        g.add_edge(s + 4, s)
        g.add_edge(s, s + 2)
    return g


def test_long_chain_of_chorded_cycles():
    # 2000 blocks in a row, 8001 vertices: each cut vertex has neighbors in two
    # blocks, and one crossing chord in a middle block flips both answers
    g = chorded_cycle_chain(2000)
    assert g.n == 8001
    assert is_outerplanar(g)
    assert not has_clique_minor(g, 4)
    g.add_edge(4 * 1000 + 1, 4 * 1000 + 3)  # crosses the chord of a middle block
    assert not is_outerplanar(g)
    assert has_clique_minor(g, 4)


def test_outerplanarity_has_no_cap():
    # one 40-vertex block: far past minor_n, decided by the reduction alone
    assert is_outerplanar(chorded_cycle(40, 0, 20))
    crossed = chorded_cycle(40, 0, 20)
    crossed.add_edge(10, 30)
    assert not is_outerplanar(crossed)


def test_outerplanarity_matches_k4_k23_reference():
    pool = list(enumerate_connected_graphs(7))
    pool += [parse_graph6(line) for line in CORPUS8.read_text().split()]
    for d in range(2, 13):
        for k in (2, 3, 5):
            for chords in (False, True):
                pool.append(gen_o(d, k, with_chords=chords)[0])
    rng = random.Random(97)
    for i in range(400):
        pool.append(random_connected_graph(rng, 9 + i % 5, rng.choice([0.05, 0.1, 0.15, 0.2, 0.3])))
    for g in pool:
        assert is_outerplanar(g) == reference_is_outerplanar(g)
