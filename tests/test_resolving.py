import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import metriclab
import metriclab.graphs
from metriclab import harness, hypergraphs, resolving, treedec
from metriclab.enumeration import enumerate_connected_graphs, enumerate_trees
from metriclab.errors import DomainError, InternalError, TooLargeError
from metriclab.graphs import Graph, diameter, iter_bits
from metriclab.hypergraphs import distance_hypergraph, min_test_cover
from metriclab.resolving import (
    is_resolving,
    metric_dimension_exact,
    resolving_to_test_cover,
    tree_metric_dimension,
)
from metriclab.resolving import test_cover_to_resolving as cover_to_resolving

import oracles
from oracles import complete_bipartite, complete_graph, cycle_graph, path_graph, star_graph


def petersen():
    g = Graph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(i, i + 5)
        g.add_edge(i + 5, 5 + (i + 2) % 5)
    return g


# is_resolving ---------------------------------------------------------------


def test_is_resolving_basics():
    p4 = path_graph(4)
    assert is_resolving(p4, [0])
    assert is_resolving(p4, [3])
    assert not is_resolving(p4, [1])  # 0 and 2 tie
    assert is_resolving(Graph(1), [])
    assert not is_resolving(path_graph(2), [])
    assert is_resolving(complete_graph(4), [0, 1, 2])
    assert not is_resolving(complete_graph(4), [0, 1])


def test_is_resolving_rejects_bad_input():
    with pytest.raises(DomainError):
        is_resolving(Graph(2), [0])  # disconnected
    with pytest.raises(DomainError):
        is_resolving(path_graph(3), [7])


def test_resolving_vectors_shape():
    vecs = oracles.resolving_vectors(path_graph(3), [2, 0])
    # landmarks are sorted, so coordinates read (d to 0, d to 2)
    assert vecs == {0: (0, 2), 1: (1, 1), 2: (2, 0)}


# exact solver ---------------------------------------------------------------


def test_known_dimensions():
    for n in range(2, 9):
        assert metric_dimension_exact(path_graph(n)).dimension == 1
    for n in range(3, 9):
        assert metric_dimension_exact(cycle_graph(n)).dimension == 2
    for n in range(2, 8):
        assert metric_dimension_exact(complete_graph(n)).dimension == n - 1
    assert metric_dimension_exact(complete_bipartite(2, 3)).dimension == 3
    assert metric_dimension_exact(Graph(1)).dimension == 0
    assert metric_dimension_exact(petersen()).dimension == 3


def test_exact_matches_naive_on_random_connected_graphs():
    rng = random.Random(171717)
    for _ in range(80):
        g = oracles.random_connected_graph(rng, rng.randrange(1, 8), 0.35)
        cert = metric_dimension_exact(g)
        naive_dim, _ = oracles.naive_metric_dimension(g)
        assert cert.dimension == naive_dim
        assert cert.verified
        assert cert.vectors == oracles.resolving_vectors(g, cert.vertices)
        assert is_resolving(g, cert.vertices)


def test_certificate_contents():
    cert = metric_dimension_exact(path_graph(4))
    assert cert.vertices in ([0], [3])
    assert len(cert.vectors) == 4
    assert len(set(cert.vectors.values())) == 4
    js = cert.to_json()
    assert js == {"schema": 1, "set": cert.vertices, "dimension": 1, "verified": True}


def test_solver_computes_the_distance_matrix_once(monkeypatch):
    calls = []
    real = metriclab.graphs.bfs_distances

    def counting(g, source):
        calls.append(source)
        return real(g, source)

    monkeypatch.setattr(metriclab.graphs, "bfs_distances", counting)
    # resolving's own name for it, which the patch above does not reach
    monkeypatch.setattr(resolving, "bfs_distances", counting)
    cert = metric_dimension_exact(path_graph(10))
    assert cert.verified and cert.vertices == [0]
    assert cert.vectors == {v: (v,) for v in range(10)}
    # one connectivity sweep plus one sweep per vertex for the matrix,
    # which the certificate reuses
    assert len(calls) <= 11
    # each converter builds the balls and every resolving check from one
    # matrix
    calls.clear()
    cover = resolving_to_test_cover(path_graph(10), [0])
    assert len(calls) <= 11
    calls.clear()
    assert len(cover_to_resolving(path_graph(10), cover)) <= len(cover)
    assert len(calls) <= 11
    # is_resolving: one connectivity sweep, then one sweep per landmark
    calls.clear()
    assert is_resolving(path_graph(10), [0])
    assert calls == [0, 0]
    calls.clear()
    assert not is_resolving(path_graph(10), [4, 4])  # 3 and 5 tie
    assert calls == [0, 4]
    # a landmark out of range is refused before any landmark sweep
    calls.clear()
    with pytest.raises(DomainError, match="landmark 12 out of range"):
        is_resolving(path_graph(10), [4, 12])
    assert calls == [0]


def test_solvers_check_their_answers(monkeypatch):
    # a wrong engine for P4: no landmark at all, and only the ball B(0, 0)
    # as a test cover
    monkeypatch.setattr(resolving, "min_cover", lambda u, masks, lower_bound=None: [])
    monkeypatch.setattr(hypergraphs, "min_cover", lambda u, masks, lower_bound=None: [0])
    with pytest.raises(InternalError, match="non-resolving set"):
        metric_dimension_exact(path_graph(4))
    with pytest.raises(InternalError, match="non-test-cover"):
        min_test_cover(distance_hypergraph(path_graph(4)))
    # C5 has no simplicial vertex; a core search claiming width 0 is refuted
    monkeypatch.setattr(treedec, "_treewidth_core", lambda g, core: (0, list(iter_bits(core))))
    with pytest.raises(InternalError, match="does not certify the width"):
        treedec.treewidth_exact(cycle_graph(5))
    # a shatter search that takes every vertex: its witness misses a trace,
    # through the public solvers, the built dual and the dual-free harness
    monkeypatch.setattr(
        hypergraphs, "_extensions", lambda cols, cand, groups, pairs_only, need: (cand, 99)
    )
    balls = distance_hypergraph(path_graph(4))
    for h in (balls, hypergraphs.dual(balls)):
        for solver in (hypergraphs.vc_dimension, hypergraphs.vc2_dimension):
            with pytest.raises(InternalError, match="misses a trace"):
                solver(h)
    with pytest.raises(InternalError, match="misses a trace"):
        hypergraphs.dual_distance_2vc(path_graph(4))
    for name in ("vc_star", "dvc", "d2vc"):
        with pytest.raises(InternalError, match="misses a trace"):
            getattr(harness._Instance(harness._Record(), path_graph(4)), name)


def test_solver_checks_survive_python_O():
    script = textwrap.dedent(
        """
        import pytest
        from metriclab import harness, hypergraphs, resolving, treedec
        from metriclab.errors import InternalError
        from metriclab.graphs import iter_bits
        from oracles import cycle_graph, path_graph, star_graph

        if __debug__:
            raise SystemExit("asserts are still on")
        resolving.min_cover = lambda u, masks, lower_bound=None: []
        hypergraphs.min_cover = lambda u, masks, lower_bound=None: [0]
        with pytest.raises(InternalError):
            resolving.metric_dimension_exact(path_graph(4))
        with pytest.raises(InternalError):
            hypergraphs.min_test_cover(hypergraphs.distance_hypergraph(path_graph(4)))
        treedec._treewidth_core = lambda g, core: (0, list(iter_bits(core)))
        with pytest.raises(InternalError):
            treedec.treewidth_exact(cycle_graph(5))
        mst = treedec._max_weight_spanning_tree
        treedec._max_weight_spanning_tree = lambda masks: mst(masks)[1:]
        with pytest.raises(InternalError):
            treedec.clique_tree(path_graph(4))
        real = resolving._bfs_certificate
        resolving._bfs_certificate = lambda t, s: real(t, [0] * len(s))
        with pytest.raises(InternalError):
            resolving.tree_metric_dimension(star_graph(3))
        hypergraphs._extensions = lambda cols, cand, groups, pairs_only, need: (cand, 99)
        balls = hypergraphs.distance_hypergraph(path_graph(4))
        for h in (balls, hypergraphs.dual(balls)):
            for solver in (hypergraphs.vc_dimension, hypergraphs.vc2_dimension):
                with pytest.raises(InternalError):
                    solver(h)
        with pytest.raises(InternalError):
            hypergraphs.dual_distance_2vc(path_graph(4))
        for name in ("vc_star", "dvc", "d2vc"):
            with pytest.raises(InternalError):
                getattr(harness._Instance(harness._Record(), path_graph(4)), name)
        print("checked")
        """
    )
    paths = [str(Path(metriclab.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "checked\n"


def test_solver_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        g = oracles.random_connected_graph(rng, 7, 0.4)
        a = metric_dimension_exact(g)
        b = metric_dimension_exact(g)
        assert a.vertices == b.vertices and a.dimension == b.dimension


def test_twin_heavy_graphs():
    # stars, complete multipartite: twin preselection must stay optimal
    rng = random.Random(808)
    for _ in range(30):
        parts = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 4))]
        g = Graph(sum(parts))
        bounds = []
        start = 0
        for p in parts:
            bounds.append(range(start, start + p))
            start += p
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                for u in bounds[i]:
                    for v in bounds[j]:
                        g.add_edge(u, v)
        assert (
            metric_dimension_exact(g).dimension
            == oracles.naive_metric_dimension(g)[0]
        )


def test_solver_cap():
    with pytest.raises(TooLargeError):
        metric_dimension_exact(path_graph(70))
    assert metric_dimension_exact(path_graph(70), maxn=70).dimension == 1
    with pytest.raises(DomainError):
        metric_dimension_exact(Graph(3))  # disconnected


# tree formula ---------------------------------------------------------------


def test_tree_dimension_base_cases():
    assert tree_metric_dimension(Graph(1)).dimension == 0
    assert tree_metric_dimension(path_graph(2)).vertices == [0]
    assert tree_metric_dimension(path_graph(9)).dimension == 1
    for k in range(3, 7):
        cert = tree_metric_dimension(star_graph(k))
        assert cert.dimension == k - 1
    with pytest.raises(DomainError):
        tree_metric_dimension(cycle_graph(4))
    with pytest.raises(DomainError):
        tree_metric_dimension(Graph(2))


def test_tree_certificate_vectors_match_the_oracle():
    cert = tree_metric_dimension(Graph(1))
    assert (cert.vectors, cert.dimension, cert.verified) == ({0: ()}, 0, True)
    for t in enumerate_trees(12):
        cert = tree_metric_dimension(t)
        assert cert.vectors == oracles.resolving_vectors(t, cert.vertices)


def test_tree_dimension_spider_and_caterpillar():
    # spider with three legs of length 2 from a hub
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    cert = tree_metric_dimension(g)
    assert cert.dimension == 2
    # caterpillar: path 0-1-2-3 with a leaf on 1 and two leaves on 2
    cat = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (2, 6)])
    # leaves {0,3,4,5,6}, exterior majors {1,2}: dimension 3
    assert tree_metric_dimension(cat).dimension == 3


def test_corrupted_tree_witness_is_refused(monkeypatch):
    # spider with three legs of length 2 from hub 0: the witness is two
    # leaves, and the hub alone resolves nothing
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    real = resolving._bfs_certificate
    monkeypatch.setattr(resolving, "_bfs_certificate", lambda t, s: real(t, [0] * len(s)))
    with pytest.raises(InternalError, match="not resolving"):
        tree_metric_dimension(g)
    # the rows are rebuilt by BFS from each landmark, not taken on trust
    monkeypatch.setattr(resolving, "_bfs_certificate", real)
    monkeypatch.setattr(resolving, "bfs_distances", lambda t, x: [0] * t.n)
    with pytest.raises(InternalError, match="not resolving"):
        tree_metric_dimension(g)


def test_twin_classes_match_the_distance_row_definition():
    rng = random.Random(2024)
    graphs = list(enumerate_connected_graphs(7))
    for _ in range(150):
        n = rng.randrange(1, 25)
        graphs.append(oracles.random_connected_graph(rng, n, rng.choice((0.0, 0.1, 0.5, 0.9))))
    for g in graphs:
        got = {frozenset(c) for c in resolving._twin_classes(g)}
        assert got == oracles.twin_classes_by_rows(g)


def test_twin_classes_match_the_pairwise_union_find():
    # the two neighborhood dictionaries give the union-find's classes, list
    # for list, also where whole classes are twins
    rng = random.Random(4242)
    graphs = list(enumerate_connected_graphs(7))
    graphs += [complete_graph(n) for n in range(1, 9)]
    graphs += [star_graph(k) for k in range(1, 9)]
    graphs += [complete_bipartite(a, b) for a in range(1, 5) for b in range(1, 5)]
    for _ in range(200):
        n = rng.randrange(9, 19)
        graphs.append(oracles.random_connected_graph(rng, n, rng.choice((0.0, 0.1, 0.3, 0.6, 0.9))))
    for g in list(graphs):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabeled(perm))
    for g in graphs:
        assert resolving._twin_classes(g) == oracles.reference_twin_classes(g)
    assert resolving._twin_classes(complete_graph(5)) == [[0, 1, 2, 3, 4]]
    assert resolving._twin_classes(star_graph(3)) == [[0], [1, 2, 3]]
    assert resolving._twin_classes(complete_bipartite(2, 3)) == [[0, 1], [2, 3, 4]]


def test_tree_formula_matches_exact_solver():
    rng = random.Random(90210)
    for _ in range(60):
        t = oracles.random_tree(rng, rng.randrange(1, 13))
        cert = tree_metric_dimension(t)
        assert cert.dimension == metric_dimension_exact(t).dimension
        assert cert.verified


# conversions ----------------------------------------------------------------


def test_conversions_on_k1():
    assert resolving_to_test_cover(Graph(1), []) == [0]
    assert cover_to_resolving(Graph(1), [0]) == [0]


def test_resolving_to_test_cover_size_and_validity():
    rng = random.Random(333)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randrange(2, 8), 0.35)
        cert = metric_dimension_exact(g)
        d = diameter(g)
        cover = resolving_to_test_cover(g, cert.vertices)
        assert len(cover) <= d * cert.dimension + 1
        h = distance_hypergraph(g)
        sigs = [
            frozenset(i for i in cover if h.edges[i] >> v & 1) for v in range(g.n)
        ]
        assert all(sigs) and len(set(sigs)) == g.n


def test_resolving_to_test_cover_requires_resolving():
    with pytest.raises(DomainError):
        resolving_to_test_cover(path_graph(4), [1])


def test_test_cover_to_resolving_round_trips():
    rng = random.Random(4747)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randrange(2, 8), 0.35)
        h = distance_hypergraph(g)
        cover = min_test_cover(h)
        s = cover_to_resolving(g, cover)
        assert is_resolving(g, s)
        assert len(s) <= len(cover)
    with pytest.raises(DomainError):
        cover_to_resolving(path_graph(3), [0])  # a single ball separates nothing


def test_sandwich_on_small_pool():
    # TC - 1 <= k*d and k <= TC, multiplied form to keep K_1 in the pool
    rng = random.Random(1212)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randrange(1, 8), 0.3)
        k = metric_dimension_exact(g).dimension
        tc = len(min_test_cover(distance_hypergraph(g)))
        d = diameter(g)
        assert tc - 1 <= k * d
        assert k <= tc


def test_random_graphs_beyond_the_exhaustive_pools():
    # orders 8..10, past the n <= 7 enumeration that most suites replay
    rng = random.Random(81010)
    for _ in range(400):
        n = rng.randrange(8, 11)
        g = oracles.random_connected_graph(rng, n, rng.choice((0.1, 0.25, 0.5)))
        k = metric_dimension_exact(g).dimension
        assert k == oracles.naive_metric_dimension(g)[0]
        perm = list(range(n))
        rng.shuffle(perm)
        assert metric_dimension_exact(g.relabeled(perm)).dimension == k
        tc = len(min_test_cover(distance_hypergraph(g)))
        assert k <= tc <= k * diameter(g) + 1
