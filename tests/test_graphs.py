import hashlib
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

from metriclab.enumeration import enumerate_connected_graphs, enumerate_trees
from metriclab.errors import DomainError, FormatError, TooLargeError
from metriclab.extremal import gen_hs
from metriclab.graphs import (
    MAX_VERTICES,
    Graph,
    _refined_colors,
    all_distances,
    bfs_distances,
    biconnected_components,
    diameter,
    eccentricities,
    is_chordal,
    is_connected,
    is_tree,
    iso_invariant,
    isomorphic,
    iter_bits,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)

import oracles
from oracles import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    format_edge_list,
    grid_graph,
    leaves,
    path_graph,
    star_graph,
)


def test_constructors_basic_counts():
    assert path_graph(5).m == 4
    assert cycle_graph(6).m == 6
    assert complete_graph(5).m == 10
    assert complete_bipartite(2, 3).m == 6
    assert star_graph(4).degree(0) == 4
    g = grid_graph(3, 4)
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4


def test_add_edge_rejects_loops_and_range():
    g = Graph(3)
    with pytest.raises(DomainError):
        g.add_edge(1, 1)
    with pytest.raises(DomainError):
        g.add_edge(0, 3)


def test_bfs_matches_floyd_warshall_on_random_graphs():
    rng = random.Random(92417)
    for _ in range(60):
        n = rng.randrange(1, 13)
        g = oracles.random_graph(rng, n, rng.choice([0.15, 0.3, 0.6]))
        assert all_distances(g) == oracles.fw_distances(g)


def test_iter_bits_matches_shift_loop():
    for mask in range(1 << 16):
        assert list(iter_bits(mask)) == oracles.shift_bits(mask)
    assert list(iter_bits(0)) == []
    rng = random.Random(5081)
    for _ in range(300):
        mask = rng.getrandbits(rng.randrange(1, 3001))
        assert list(iter_bits(mask)) == oracles.shift_bits(mask)
    # a sequence, not a one-shot iterator, and never the table's row for -1
    assert list(iter_bits(0b1011)) == list(iter_bits(0b1011)) == [0, 1, 3]
    with pytest.raises(ValueError):
        iter_bits(-1)


def test_bfs_matches_adjacency_list_bfs_on_random_graphs():
    rng = random.Random(30517)
    disconnected = 0
    for _ in range(80):
        n = rng.randrange(1, 121)
        # p around 1/n leaves many graphs in several components
        g = oracles.random_graph(rng, n, rng.choice([0.5 / n, 1.5 / n, 0.1, 0.4]))
        want = oracles.list_bfs_distances(g)
        assert all_distances(g) == want
        source = rng.randrange(n)
        assert bfs_distances(g, source) == want[source]
        disconnected += -1 in want[0]
    assert disconnected >= 10


def test_distance_examples():
    assert bfs_distances(path_graph(5), 0) == [0, 1, 2, 3, 4]
    assert diameter(path_graph(5)) == 4
    assert diameter(cycle_graph(6)) == 3
    assert diameter(grid_graph(3, 3)) == 4
    assert eccentricities(path_graph(4)) == [3, 2, 2, 3]


def test_tree_diameter_double_sweep_matches_eccentricities():
    trees = list(enumerate_trees(12))
    for d in range(2, 10):
        for k in (2, 3, 4):
            for a in [None] if d % 2 == 0 else range(0, k + 1):
                trees.append(gen_hs(d, k, a)[0])
    rng = random.Random(5)
    trees += [t.relabeled(rng.sample(range(t.n), t.n)) for t in trees[-40:]]
    for t in trees:
        assert diameter(t) == max(eccentricities(t)), to_graph6(t)


def test_diameter_needs_connected():
    g = Graph(4)
    g.add_edge(0, 1)
    with pytest.raises(DomainError):
        diameter(g)
    # as many edges as a tree on 4 vertices, but a triangle and a loner:
    # the first sweep of the double sweep is the connectivity check
    with pytest.raises(DomainError) as err:
        diameter(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]))
    assert str(err.value) == "eccentricities need a connected graph"


def test_components_and_connectivity():
    g = Graph(6)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(4, 5)
    assert not is_connected(g)
    assert is_connected(path_graph(7))
    assert is_connected(Graph(0))


def test_is_tree():
    rng = random.Random(5150)
    for n in range(1, 10):
        assert is_tree(oracles.random_tree(rng, n))
    assert not is_tree(cycle_graph(4))
    forest = Graph(4)
    forest.add_edge(0, 1)
    forest.add_edge(2, 3)
    assert not is_tree(forest)
    assert leaves(path_graph(4)) == [0, 3]


def test_induced_subgraph_keeps_structure():
    g = cycle_graph(5)
    h = oracles.induced(g, [1, 2, 3])
    assert h.n == 3 and sorted(h.edges()) == [(0, 1), (1, 2)]


def test_relabeled_is_isomorphic():
    rng = random.Random(777)
    for _ in range(20):
        g = oracles.random_graph(rng, 8, 0.4)
        perm = list(range(8))
        rng.shuffle(perm)
        assert isomorphic(g, g.relabeled(perm))


# graph6 ---------------------------------------------------------------------


def test_graph6_round_trip_against_independent_encoder():
    rng = random.Random(24601)
    for _ in range(80):
        n = rng.randrange(0, 33)
        g = oracles.random_graph(rng, n, 0.5)
        s = to_graph6(g)
        assert s == oracles.graph6_encode(g)
        assert parse_graph6(s) == g


def test_graph6_column_codec_against_independent_encoder():
    # every order to 70 crosses the '~' header at 63; 200 and 1000 give
    # long columns
    rng = random.Random(8128)
    for n in [*range(71), 200, 1000]:
        g = oracles.random_graph(rng, n, rng.choice((0.01, 0.3, 0.7)) if n < 200 else 0.02)
        s = to_graph6(g)
        assert s == oracles.graph6_encode(g), n
        assert parse_graph6(s) == g, n


def test_graph6_parse_memory_stays_near_the_input_size():
    # 0.75 MB of graph6 for a path on 3000 vertices; decoding the whole body
    # into one string of n(n-1)/2 bit characters first peaks near 6 MB
    s = to_graph6(path_graph(3000))
    tracemalloc.start()
    try:
        g = parse_graph6(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == path_graph(3000) and peak < 3 * 2**20


def test_graph6_large_n_form():
    rng = random.Random(31337)
    g = oracles.random_graph(rng, 100, 0.04)
    s = to_graph6(g)
    assert s.startswith("~")
    assert s == oracles.graph6_encode(g)
    assert parse_graph6(s) == g
    # boundary: 62 stays short, 63 switches form
    assert not to_graph6(Graph(62)).startswith("~")
    assert to_graph6(Graph(63)).startswith("~")
    assert parse_graph6(to_graph6(Graph(63))).n == 63


def test_graph6_known_strings():
    # K_1 is '@'; P_3 on edges 01,12 packs bits 101 -> 'Bg'
    assert to_graph6(Graph(1)) == "@"
    p3 = path_graph(3)
    assert to_graph6(p3) == "Bg"
    assert parse_graph6(">>graph6<<Bg") == p3
    assert parse_graph6("Bg\n") == p3


def test_graph6_errors():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("B")  # truncated body
    with pytest.raises(FormatError):
        parse_graph6("B" + chr(200))
    with pytest.raises(TooLargeError):
        parse_graph6("~~AAAAAA")


# edge lists -----------------------------------------------------------------


def test_edge_list_round_trip():
    g = grid_graph(2, 3)
    assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list("0 1\n\n# comment\n1 2\n") == path_graph(3)


def test_edge_list_errors():
    for bad in ["", "0", "0 1 2", "a b", "0 0", "-1 2"]:
        with pytest.raises(FormatError):
            parse_edge_list(bad)


def test_edge_list_vertex_count_ceiling():
    # ids are checked before the graph is allocated; the ceiling is the
    # largest order graph6 can encode
    assert parse_edge_list(f"0 {MAX_VERTICES - 1}").n == MAX_VERTICES
    for text in (f"0 1\n{MAX_VERTICES} 1", "0 1000000000"):
        with pytest.raises(TooLargeError):
            parse_edge_list(text)


# chordality -----------------------------------------------------------------


def test_chordal_known_families():
    for n in range(1, 8):
        assert is_chordal(complete_graph(n))
    rng = random.Random(4242)
    for n in range(2, 10):
        assert is_chordal(oracles.random_tree(rng, n))
    for n in range(4, 9):
        assert not is_chordal(cycle_graph(n))
    assert is_chordal(cycle_graph(3))
    assert not is_chordal(complete_bipartite(2, 3))
    assert is_chordal(Graph(0))


def test_chordal_matches_brute_on_random_graphs():
    rng = random.Random(60601)
    for _ in range(120):
        n = rng.randrange(1, 9)
        g = oracles.random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        assert is_chordal(g) == oracles.chordal_by_definition(g)


def test_chordal_accepts_simplicial_growth():
    # build chordal graphs by repeatedly attaching a vertex to a clique
    rng = random.Random(1995)
    for _ in range(40):
        g = complete_graph(rng.randrange(1, 4))
        while g.n < 9:
            base = list(range(g.n))
            rng.shuffle(base)
            clique = []
            for v in base:
                if all(g.has_edge(v, u) for u in clique):
                    clique.append(v)
                if len(clique) == rng.randrange(1, 4):
                    break
            w = g.add_vertex()
            for u in clique:
                g.add_edge(u, w)
        assert is_chordal(g)
        assert oracles.chordal_by_definition(g)


def spine_first_caterpillar(legs):
    """The path 0..legs-1 with one leaf legs + i hung on each spine vertex i."""
    spine = [(i, i + 1) for i in range(legs - 1)]
    return Graph.from_edges(2 * legs, spine + [(i, legs + i) for i in range(legs)])


def test_chordal_matches_mcs_oracle():
    corpus = (Path(__file__).parent / "data" / "connected8.g6").read_text().split()
    graphs = list(enumerate_connected_graphs(7)) + list(map(parse_graph6, corpus))
    assert sum(map(oracles.reference_is_chordal, graphs)) == 1968
    rng = random.Random(2611)
    graphs += [
        oracles.random_graph(rng, rng.randint(1, 15), rng.choice([0.2, 0.4, 0.6, 0.8]))
        for _ in range(300)
    ]
    graphs += [cycle_graph(500), spine_first_caterpillar(300)]
    lib = hashlib.sha256(bytes(map(is_chordal, graphs))).hexdigest()
    assert lib == hashlib.sha256(bytes(map(oracles.reference_is_chordal, graphs))).hexdigest()


def test_chordal_peel_retests_only_neighbors(monkeypatch):
    # counts the vertices the peel lists. The spine is numbered first, so a
    # peel that rescans from vertex 0 after each removal walks the whole
    # spine every time; a re-test that lists all of a vertex's neighbors
    # lists the centre's 2000 leaves again after each leaf goes (2007000)
    import metriclab.graphs as graphs_module

    listed = 0
    real = graphs_module.iter_bits

    def counting(mask):
        nonlocal listed
        out = real(mask)
        listed += len(out)
        return out

    monkeypatch.setattr(graphs_module, "iter_bits", counting)
    for g, want in [(spine_first_caterpillar(300), 1198), (star_graph(2000), 4000)]:
        listed = 0
        assert is_chordal(g)
        assert listed == want <= 2 * g.n


# biconnected components -----------------------------------------------------


def test_blocks_path_and_cycle():
    assert sorted(biconnected_components(path_graph(5))) == [
        [0, 1],
        [1, 2],
        [2, 3],
        [3, 4],
    ]
    assert biconnected_components(cycle_graph(5)) == [[0, 1, 2, 3, 4]]


def test_blocks_bowtie_and_pendant():
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert sorted(biconnected_components(bowtie)) == [[0, 1, 2], [2, 3, 4]]
    g = complete_graph(4)
    v = g.add_vertex()
    g.add_edge(0, v)
    assert sorted(biconnected_components(g)) == [[0, 1, 2, 3], [0, 4]]


def test_blocks_cover_all_edges_and_isolated_vertices():
    rng = random.Random(11)
    for _ in range(40):
        g = oracles.random_graph(rng, rng.randrange(1, 11), 0.25)
        blocks = biconnected_components(g)
        seen = set()
        for blk in blocks:
            sub = oracles.induced(g, blk)
            # a block with >= 3 vertices is 2-connected: no cut vertex
            if sub.n >= 3:
                for v in range(sub.n):
                    rest = oracles.induced(sub, [u for u in range(sub.n) if u != v])
                    assert is_connected(rest)
            for e in sub.edges():
                a, b = blk[e[0]], blk[e[1]]
                assert (a, b) not in seen
                seen.add((a, b))
        assert seen == set(g.edges())
        covered = {v for blk in blocks for v in blk}
        assert covered == set(range(g.n))


# isomorphism ----------------------------------------------------------------


def test_isomorphic_matches_permutation_oracle():
    rng = random.Random(314159)
    for _ in range(200):
        n = rng.randrange(1, 6)
        g = oracles.random_graph(rng, n, 0.5)
        h = oracles.random_graph(rng, n, 0.5)
        assert isomorphic(g, h) == oracles.perm_isomorphic(g, h)


def test_isomorphic_obvious_cases():
    assert isomorphic(Graph(0), Graph(0))
    assert not isomorphic(path_graph(4), star_graph(3))
    assert isomorphic(complete_bipartite(2, 2), cycle_graph(4))
    assert not isomorphic(cycle_graph(6), path_graph(6))


def test_iso_invariant_respects_isomorphism():
    rng = random.Random(27)
    for _ in range(30):
        g = oracles.random_graph(rng, 9, 0.35)
        perm = list(range(9))
        rng.shuffle(perm)
        assert iso_invariant(g) == iso_invariant(g.relabeled(perm))


def test_count_vector_refinement_keeps_the_sorted_tuple_partition():
    rng = random.Random(6061)
    graphs = list(enumerate_connected_graphs(7))
    for _ in range(300):
        n = rng.randrange(1, 11)
        g = oracles.random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8)))
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        # the numbering is canonical: relabelling moves the colors along
        colors, quotient = _refined_colors(h)
        assert [colors[perm[v]] for v in range(n)] == list(_refined_colors(g)[0])
        assert quotient == _refined_colors(g)[1]
        graphs += [g, h]
    for g in graphs:
        got = oracles.color_partition(_refined_colors(g)[0])
        assert got == oracles.color_partition(oracles.reference_refined_colors(g))


def test_isomorphic_cap():
    rng = random.Random(8080)
    g = oracles.random_graph(rng, 21, 0.5)
    h = g.relabeled(list(reversed(range(21))))
    with pytest.raises(TooLargeError):
        isomorphic(g, h)
    assert isomorphic(g, h, maxn=21)
