import math
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import hypergraphs
from metriclab.errors import DomainError, FormatError, TooLargeError
from metriclab.enumeration import enumerate_connected_graphs
from metriclab.extremal import gen_grid_chain, gen_line_example
from metriclab.graphs import MAX_VERTICES, Graph, parse_graph6, to_graph6
from metriclab.hypergraphs import (
    Hypergraph,
    distance_hypergraph,
    distance_hypergraph_fixed_radius,
    dual,
    dual_distance_2vc,
    format_hypergraph,
    is_twin_free,
    min_test_cover,
    parse_hypergraph,
    prop9_witness,
    trace,
    vc2_dimension,
    vc_dimension,
)
from metriclab.resolving import metric_dimension_exact, resolving_to_test_cover
from metriclab.resolving import test_cover_to_resolving as cover_to_resolving

import oracles
from oracles import complete_graph, cycle_graph, dedup, path_graph, star_graph


def powerset_hypergraph(n):
    return Hypergraph(n, list(range(1 << n)))


def masks(h):
    return h.edges


# construction and text format ----------------------------------------------


def test_edge_range_validated():
    with pytest.raises(DomainError):
        Hypergraph(2, [0b100])


def test_text_round_trip():
    h = Hypergraph(4, [0b0011, 0b0000, 0b1101])
    text = format_hypergraph(h)
    assert text.splitlines()[0] == "p hyper 4 3"
    assert parse_hypergraph(text) == h
    # blank line is the empty edge
    assert parse_hypergraph("p hyper 2 1\n\n") == Hypergraph(2, [0])


def test_text_errors():
    for bad in [
        "",
        "p hyper 2",
        "q hyper 2 1\n0",
        "p hyper a 1\n0",
        "p hyper 2 2\n0",
        "p hyper 2 1\n2",
        "p hyper 2 1\n0\n1",
        "p hyper 2 1\nx",
    ]:
        with pytest.raises(FormatError):
            parse_hypergraph(bad)


def test_text_vertex_count_ceiling():
    # the header is checked before the vertex mask is allocated
    assert parse_hypergraph(f"p hyper {MAX_VERTICES} 0").nverts == MAX_VERTICES
    for nverts in (MAX_VERTICES + 1, 10**9):
        with pytest.raises(TooLargeError):
            parse_hypergraph(f"p hyper {nverts} 0")


# dedup and trace ------------------------------------------------------------


def test_dedup_keeps_first():
    h = Hypergraph(3, [0b101, 0b011, 0b101])
    d = dedup(h)
    assert d.edges == [0b101, 0b011]


def test_trace_examples():
    h = Hypergraph(3, [0b011, 0b110, 0b111, 0b011])
    assert trace(h, range(3)) == dedup(h)
    assert trace(h, []) == Hypergraph(0, [0])
    # onto {0,2}: traces {0}, {2}, {0,2} after relabeling to 2 vertices
    t = trace(h, [0, 2])
    assert t.nverts == 2
    assert t.edges == [0b01, 0b10, 0b11]
    with pytest.raises(DomainError):
        trace(h, [5])


# twin-freeness --------------------------------------------------------------


def test_twin_free():
    assert not is_twin_free(Hypergraph(2, []))  # two isolated vertices
    assert is_twin_free(Hypergraph(2, [0b01]))
    assert not is_twin_free(Hypergraph(3, [0b011, 0b011]))
    assert is_twin_free(Hypergraph(1, []))


def test_distance_hypergraph_always_twin_free():
    rng = random.Random(123)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randrange(1, 9), 0.3)
        assert is_twin_free(distance_hypergraph(g))


# VC dimension ---------------------------------------------------------------


def test_vc_examples():
    assert vc_dimension(powerset_hypergraph(3))[0] == 3
    assert vc_dimension(Hypergraph(1, [0b1]))[0] == 0
    assert vc_dimension(Hypergraph(0, []))[0] == 0
    assert vc_dimension(Hypergraph(3, []))  == (0, None)
    assert vc_dimension(distance_hypergraph(path_graph(3)))[0] == 2


def test_vc_matches_brute_and_witness_is_valid():
    rng = random.Random(31415)
    for _ in range(150):
        h = oracles.random_hypergraph(rng, rng.randrange(0, 9), rng.randrange(0, 9))
        k, wit = vc_dimension(h)
        assert k == oracles.brute_vc(h)
        if wit is not None:
            xmask = 0
            for v in wit.vertices:
                xmask |= 1 << v
            assert len(wit.assignment) == 1 << len(wit.vertices)
            for subset, slot in wit.assignment.items():
                want = 0
                for v in subset:
                    want |= 1 << v
                assert h.edges[slot] & xmask == want


def test_vc2_matches_brute_and_dominates_vc():
    rng = random.Random(2718)
    for _ in range(150):
        h = oracles.random_hypergraph(rng, rng.randrange(0, 8), rng.randrange(0, 8))
        k2, wit = vc2_dimension(h)
        assert k2 == oracles.brute_vc2(h)
        assert k2 >= vc_dimension(h)[0]
        for (a, b), slot in wit.assignment.items():
            xmask = 0
            for v in wit.vertices:
                xmask |= 1 << v
            assert h.edges[slot] & xmask == (1 << a) | (1 << b)


def test_vc_cap():
    h = Hypergraph(25, [1, 2])
    with pytest.raises(TooLargeError):
        vc_dimension(h)
    assert vc_dimension(h, maxn=25)[0] == 1
    with pytest.raises(TooLargeError):
        vc2_dimension(h)


def _assert_same_witnesses(h):
    k, wit = vc_dimension(h, maxn=128)
    assert (k, wit and wit.to_json()) == oracles.levelwise_vc(h)
    k2, wit2 = vc2_dimension(h, maxn=128)
    assert (k2, wit2.to_json()) == oracles.levelwise_vc2(h)


def test_witnesses_match_candidate_by_candidate_search():
    # the whole (k, witness) of both searches, not just k, against a
    # levelwise search that tests every candidate X | {v} on its own
    for g in enumerate_connected_graphs(7):
        h = distance_hypergraph(g)
        _assert_same_witnesses(h)
        _assert_same_witnesses(dual(h))
        for r in range(max(map(max, oracles.fw_distances(g))) + 1):
            _assert_same_witnesses(distance_hypergraph_fixed_radius(g, r))
    for k in (2, 3, 4):
        g, _ = gen_line_example(k)
        _assert_same_witnesses(distance_hypergraph_fixed_radius(g, 1))
    # the dual 2-VC input that the benchmark pins, and a deeper dual whose
    # searches drop many candidates that could not reach a larger set
    _assert_same_witnesses(dual(distance_hypergraph(gen_line_example(3)[0])))
    _assert_same_witnesses(dual(distance_hypergraph(gen_grid_chain(3)[0])))
    rng = random.Random(4242)
    for i in range(500):
        n = rng.randrange(0, 11)
        # a small pool of edge sets, always with the empty edge, forces
        # repeated and empty edges
        pool = [0] + [rng.getrandbits(n) for _ in range(rng.randrange(1, 8))]
        if i % 2:
            edges = [rng.choice(pool) for _ in range(rng.randrange(0, 41))]
        else:
            edges = [rng.getrandbits(n) for _ in range(rng.randrange(0, 41))]
        _assert_same_witnesses(Hypergraph(n, edges))


def test_witnesses_at_the_ceiling_and_on_degenerate_edges():
    # searches that stop at the ceiling: m = 2^n distinct edges shatter n
    # vertices, m = C(k, 2) pair edges 2-shatter k of them
    for n in range(6):
        h = powerset_hypergraph(n)
        assert vc_dimension(h)[0] == n
        _assert_same_witnesses(h)
        _assert_same_witnesses(Hypergraph(n + 2, h.edges[::-1] * 2))
    for k in range(2, 9):
        pairs = [1 << a | 1 << b for a, b in combinations(range(k), 2)]
        for h in (Hypergraph(k, pairs), Hypergraph(k + 3, pairs[::-1])):
            assert vc2_dimension(h)[0] == k
            _assert_same_witnesses(h)
    degenerate = [
        Hypergraph(5, [0b10110] * 4),  # all edges equal
        Hypergraph(4, [0]),  # only the empty edge
        Hypergraph(4, [0, 0, 0]),
        Hypergraph(1, [1]),  # a single vertex
        Hypergraph(1, [0, 1, 1]),
        Hypergraph(1, []),
        Hypergraph(0, [0, 0]),
    ]
    for h in degenerate:
        _assert_same_witnesses(h)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=60).map(
            lambda edges: Hypergraph(n, edges)
        )
    ),
    st.data(),
)
def test_shatter_search_matches_oracle_and_ignores_edge_order(h, data):
    _assert_same_witnesses(h)
    k, k2 = vc_dimension(h)[0], vc2_dimension(h)[0]
    shuffled = data.draw(st.permutations(h.edges))
    extra = data.draw(st.lists(st.sampled_from(h.edges), max_size=20)) if h.edges else []
    for edges in (shuffled, shuffled + extra):
        assert vc_dimension(Hypergraph(h.nverts, edges))[0] == k
        assert vc2_dimension(Hypergraph(h.nverts, edges))[0] == k2


def test_shatter_search_node_counts(monkeypatch):
    # machine-independent regression counts: one _extensions call per node
    # the search visits, so losing either room bound or the per-candidate
    # test changes them on any host
    calls = 0
    inner = hypergraphs._extensions

    def counting(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(hypergraphs, "_extensions", counting)

    def nodes(run):
        nonlocal calls
        calls = 0
        run()
        return calls

    g, _ = gen_line_example(3)
    assert nodes(lambda: dual_distance_2vc(g, maxn=128)) == 293
    assert nodes(lambda: vc_dimension(distance_hypergraph_fixed_radius(g, 1), maxn=128)) == 41
    pool = list(enumerate_connected_graphs(6))
    assert nodes(lambda: [vc_dimension(distance_hypergraph(p)) for p in pool]) == 889
    h = distance_hypergraph(gen_grid_chain(3)[0])
    d = dual(h)
    assert nodes(lambda: vc2_dimension(d, maxn=128)) == 2237
    assert nodes(lambda: vc_dimension(d, maxn=128)) == 421
    # the dual-free search walks the same tree as the built dual
    assert nodes(lambda: hypergraphs._dual_dimension(h, True, maxn=128)) == 2237
    assert nodes(lambda: hypergraphs._dual_dimension(h, False, maxn=128)) == 421


def test_sauer_shelah_on_random_traces():
    rng = random.Random(5005)
    for _ in range(120):
        nv = rng.randrange(1, 13)
        h = oracles.random_hypergraph(rng, nv, rng.randrange(1, 14))
        k, _ = vc_dimension(h, maxn=12)
        for _ in range(10):
            x = rng.sample(range(nv), rng.randrange(0, nv + 1))
            assert len(trace(h, x).edges) <= len(x) ** k + 1


# dual -----------------------------------------------------------------------


def test_dual_examples():
    assert dual(powerset_hypergraph(2)).nverts == 4
    # transpose twice is the identity, multiplicity included
    rng = random.Random(404)
    for _ in range(60):
        h = oracles.random_hypergraph(rng, rng.randrange(0, 7), rng.randrange(0, 7))
        assert dual(dual(h)) == h
        if len(set(h.edges)) == len(h.edges):
            assert dual(dual(h)) == dedup(h)
        assert dedup(dual(dual(h))) == dedup(h)


def test_dual_sandwich_corrected_form():
    # the classical two-sided bounds; tight at the ball family of C_4
    rng = random.Random(60)
    for _ in range(100):
        h = oracles.random_hypergraph(rng, rng.randrange(1, 11), rng.randrange(1, 11))
        vc = vc_dimension(h)[0]
        vcd = vc_dimension(dual(h), maxn=len(h.edges))[0]
        assert vc <= 2 ** (vcd + 1) - 1
        assert vcd <= 2 ** (vc + 1) - 1


def test_c4_ball_family_is_tight_for_the_sandwich():
    h = distance_hypergraph(cycle_graph(4))
    vc = vc_dimension(h)[0]
    vcd = vc_dimension(dual(h), maxn=len(h.edges))[0]
    assert (vc, vcd) == (3, 1)
    # the naive form vc <= 2^{vc*} would fail here; the corrected one is tight
    assert vc > 2**vcd
    assert vc == 2 ** (vcd + 1) - 1


# distance hypergraphs -------------------------------------------------------


def test_distance_hypergraph_p3():
    h = distance_hypergraph(path_graph(3))
    assert sorted(h.edges) == sorted([0b001, 0b010, 0b100, 0b011, 0b110, 0b111])


def test_distance_hypergraph_small_families():
    assert distance_hypergraph(Graph(1)).edges == [0b1]
    for n in range(2, 6):
        h = distance_hypergraph(complete_graph(n))
        assert sorted(h.edges) == sorted([1 << v for v in range(n)] + [(1 << n) - 1])


def test_distance_hypergraph_requires_connected():
    with pytest.raises(DomainError):
        distance_hypergraph(Graph(2))
    with pytest.raises(DomainError):
        distance_hypergraph(Graph(0))


def test_fixed_radius():
    assert distance_hypergraph_fixed_radius(path_graph(3), 1).edges == [
        0b011,
        0b111,
        0b110,
    ]
    assert distance_hypergraph_fixed_radius(path_graph(3), 0).edges == [1, 2, 4]
    with pytest.raises(DomainError):
        distance_hypergraph_fixed_radius(path_graph(3), 3)
    with pytest.raises(DomainError):
        distance_hypergraph_fixed_radius(path_graph(3), -1)


def check_ball_families(g):
    """Both ball families and both test-cover conversions of g against
    Floyd-Warshall balls, with the sizes the conversions promise."""
    dist = oracles.fw_distances(g)
    diam = max(map(max, dist))
    balls = [
        [sum(1 << u for u in range(g.n) if dist[v][u] <= r) for v in range(g.n)]
        for r in range(diam + 1)
    ]
    # distinct balls in edge order (radius outer, center inner), each
    # with its first (center, radius)
    first = {}
    for r, row in enumerate(balls):
        for v, ball in enumerate(row):
            first.setdefault(ball, (v, r))
    edges = list(first)
    assert distance_hypergraph(g).edges == edges

    for r in range(diam + 1):
        fixed = distance_hypergraph_fixed_radius(g, r)
        assert fixed.edges == balls[r]
    for r in (-1, diam + 1):
        with pytest.raises(DomainError):
            distance_hypergraph_fixed_radius(g, r)

    s = metric_dimension_exact(g).vertices
    md = len(s)
    slot = {ball: i for i, ball in enumerate(first)}
    anchor = s[0] if s else 0
    want = {slot[balls[r][x]] for x in s for r in range(diam)}
    want.add(slot[balls[diam][anchor]])
    cover = resolving_to_test_cover(g, s)
    assert cover == sorted(want)
    assert md <= len(cover) <= diam * md + 1
    # every vertex pair is split by a chosen ball
    for u, v in combinations(range(g.n), 2):
        assert any((edges[i] >> u ^ edges[i] >> v) & 1 for i in cover), (u, v)
    centers = [v for v, _ in first.values()]
    back = cover_to_resolving(g, cover)
    assert back == sorted({centers[i] for i in cover})
    assert len(set(oracles.resolving_vectors(g, back).values())) == g.n
    assert md <= len(back) <= len(cover)


def test_ball_families_match_floyd_warshall_oracle():
    pool = list(enumerate_connected_graphs(6))
    assert len(pool) == 143
    for g in pool:
        check_ball_families(g)


def test_ball_families_match_floyd_warshall_oracle_on_random_graphs():
    # past the exhaustive pool: seeded random connected graphs of 7-10
    # vertices, each with a relabelled copy
    rng = random.Random(8080)
    for _ in range(100):
        n = rng.randrange(7, 11)
        g = oracles.random_connected_graph(rng, n, rng.choice((0.1, 0.25, 0.5)))
        perm = list(range(n))
        rng.shuffle(perm)
        check_ball_families(g)
        check_ball_families(g.relabeled(perm))


def test_fixed_radius_self_dual():
    rng = random.Random(808)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randrange(1, 9), 0.35)
        from metriclab.graphs import diameter

        for radius in range(diameter(g) + 1):
            h = distance_hypergraph_fixed_radius(g, radius)
            assert dual(h) == h


# dual distance VC -----------------------------------------------------------


def test_dual_distance_vc_examples():
    p3 = path_graph(3)
    assert dual_distance_2vc(p3) == oracles.brute_vc2(dual(distance_hypergraph(p3)))


def test_dual_free_search_equals_the_built_dual():
    # the ball hypergraph is twin-free, so its columns and edges are the
    # dual's edges and columns: same dimension and witness, slot for slot
    corpus = Path(__file__).parent / "data" / "connected8.g6"
    graphs = list(enumerate_connected_graphs(7))
    graphs += map(parse_graph6, corpus.read_text().splitlines()[::24])  # the 464-graph shard
    rng = random.Random(3141)
    for _ in range(100):
        n = rng.randrange(8, 13)
        g = oracles.random_connected_graph(rng, n, rng.choice((0.15, 0.3, 0.6)))
        graphs.append(g.relabeled(rng.sample(range(n), n)))
    for g in graphs:
        h = distance_hypergraph(g)
        d = dual(h)
        for pairs_only, solver in ((False, vc_dimension), (True, vc2_dimension)):
            k, wit = hypergraphs._dual_dimension(h, pairs_only, maxn=128)
            ref_k, ref_wit = solver(d, maxn=128)
            assert (k, wit.to_json()) == (ref_k, ref_wit.to_json()), (to_graph6(g), pairs_only)


def test_trees_have_small_dual_distance_2vc():
    rng = random.Random(97)
    for _ in range(40):
        t = oracles.random_tree(rng, rng.randrange(1, 10))
        assert dual_distance_2vc(t) <= 2


# test covers ----------------------------------------------------------------


def test_min_test_cover_examples():
    assert min_test_cover(Hypergraph(2, [0b01, 0b10])) == [0, 1]
    got = min_test_cover(Hypergraph(3, [0b011, 0b110, 0b111]))
    assert len(got) == 2 and got == [0, 1]
    assert min_test_cover(Hypergraph(1, [0b1])) == [0]


def test_min_test_cover_errors():
    with pytest.raises(DomainError):
        min_test_cover(Hypergraph(3, [0b011, 0b011]))  # twins
    with pytest.raises(DomainError):
        min_test_cover(Hypergraph(2, [0b01]))  # vertex 1 uncovered... also twinless
    with pytest.raises(TooLargeError):
        min_test_cover(Hypergraph(3, [0b111]), maxn=2)


def test_min_test_cover_matches_naive_and_log_bound():
    rng = random.Random(1606)
    checked = 0
    while checked < 60:
        h = oracles.random_hypergraph(rng, rng.randrange(1, 7), rng.randrange(1, 9))
        union = 0
        for e in h.edges:
            union |= e
        if not is_twin_free(h) or union != (1 << h.nverts) - 1:
            continue
        checked += 1
        got = min_test_cover(h)
        assert len(got) == oracles.naive_test_cover_size(h)
        assert len(got) >= math.ceil(math.log2(h.nverts + 1))
        # verify the returned edges really cover and separate
        sigs = [
            frozenset(i for i in got if h.edges[i] >> v & 1) for v in range(h.nverts)
        ]
        assert all(sigs) and len(set(sigs)) == h.nverts


# prop 9 witness -------------------------------------------------------------


def generic_k_edge_hypergraph(k):
    """2^k vertices, one per subset of [k]; vertex S lies in edge a iff a in S."""
    edges = []
    for a in range(k):
        m = 0
        for s in range(1 << k):
            if s >> a & 1:
                m |= 1 << s
        edges.append(m)
    return Hypergraph(1 << k, edges)


def test_prop9_witness_shapes():
    w1 = prop9_witness(Hypergraph(2, [0b01]))
    assert w1 == Hypergraph(1, [0b1])
    assert len(min_test_cover(w1)) == 1

    for k in (2, 3):
        h = generic_k_edge_hypergraph(k)
        vcd, wit = vc_dimension(dual(h), maxn=k)
        assert vcd == k
        w = prop9_witness(h)
        assert w.nverts == (1 << k) - 1
        assert len(min_test_cover(w)) == k
        # the images of the dual witness family: k distinct edges of w that
        # cover every vertex and split every pair
        keep = sorted(v for sub, v in wit.assignment.items() if sub)
        images = {
            sum(1 << i for i, v in enumerate(keep) if h.edges[a] >> v & 1) for a in wit.vertices
        }
        assert len(images) == k and images <= set(w.edges)
        sigs = [frozenset(e for e in images if e >> v & 1) for v in range(w.nverts)]
        assert all(sigs) and len(set(sigs)) == w.nverts


def test_prop9_witness_error_when_no_family():
    # the power set over a single vertex has dual VC dimension 0
    with pytest.raises(DomainError):
        prop9_witness(Hypergraph(1, [0b0, 0b1]))
