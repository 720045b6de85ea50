import hashlib
import random
import tracemalloc
from pathlib import Path

import pytest

from metriclab import treedec
from metriclab.enumeration import enumerate_connected_graphs, enumerate_trees
from metriclab.errors import DomainError, FormatError, TooLargeError
from metriclab.graphs import Graph, _simplicial_peel, diameter, is_chordal, parse_graph6, to_graph6
from metriclab.treedec import (
    TreeDecomposition,
    clique_tree,
    format_pace,
    length,
    parse_pace,
    reduce,
    treewidth_exact,
    validate,
    width,
)

from oracles import (
    brute_max_clique,
    brute_treewidth,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    hanging_subtrees,
    is_reduced,
    nonleaf_bags_are_cutsets,
    path_graph,
    random_connected_graph,
    random_graph,
    random_tree,
    reference_clique_tree,
    reference_violations,
    star_graph,
)


def path_decomposition(n):
    g = path_graph(n)
    bags = [{i, i + 1} for i in range(n - 1)]
    edges = [(i, i + 1) for i in range(n - 2)]
    return TreeDecomposition(g, bags, edges)


def random_chordal(rng, n):
    """Grow a connected chordal graph by gluing each new vertex to a clique."""
    g = Graph(1)
    cliques = [{0}]
    for v in range(1, n):
        base = rng.choice(cliques)
        sub = set(rng.sample(sorted(base), rng.randint(1, len(base))))
        g.add_vertex()
        for u in sub:
            g.add_edge(u, v)
        cliques.append(sub | {v})
    return g


def test_validate_good():
    g = cycle_graph(6)
    assert validate(TreeDecomposition(g, [set(range(6))], [])) == []
    assert validate(path_decomposition(5)) == []
    assert validate(TreeDecomposition(Graph(0), [], [])) == []


def test_validate_violations():
    g = path_graph(4)
    # edge (1, 2) falls between the two bags
    td = TreeDecomposition(g, [{0, 1}, {2, 3}], [(0, 1)])
    assert any(v.startswith("P2") and "(1, 2)" in v for v in validate(td))
    td = TreeDecomposition(g, [{0, 1}, {1, 2}], [(0, 1)])
    assert any(v.startswith("P1") and "3" in v for v in validate(td))
    # vertex 0 reappears after a bag without it
    td = TreeDecomposition(
        g, [{0, 1}, {1, 2}, {0, 2, 3}], [(0, 1), (1, 2)]
    )
    assert any(v.startswith("P3") and "0" in v for v in validate(td))
    bad_tree = TreeDecomposition(g, [{0, 1}, {1, 2}, {2, 3}], [(0, 1)])
    assert any(v.startswith("tree") for v in validate(bad_tree))
    loopy = TreeDecomposition(g, [{0, 1}, {1, 2}], [(0, 0), (0, 1)])
    assert any("self-loop" in v for v in validate(loopy))
    oob = TreeDecomposition(g, [{0, 9}], [])
    assert any("outside host range" in v for v in validate(oob))


def test_subtree_property_matches_a_search_over_the_bag_tree():
    rng = random.Random(3303)
    for _ in range(300):
        n, nb = rng.randint(1, 6), rng.randint(1, 7)
        tree = random_tree(rng, nb)
        bags = [set(rng.sample(range(n), rng.randint(0, n))) for _ in range(nb)]
        td = TreeDecomposition(path_graph(n), bags, tree.edges())
        want = []
        for v in range(n):
            holders = [i for i in range(nb) if v in bags[i]]
            reached = set(holders[:1])
            stack = holders[:1]
            while stack:
                for j in tree.neighbors(stack.pop()):
                    if v in bags[j] and j not in reached:
                        reached.add(j)
                        stack.append(j)
            if len(reached) != len(holders):
                want.append(f"P3: bags containing vertex {v} do not form a subtree")
        assert [x for x in validate(td) if x.startswith("P3")] == want


def _mutate(rng, kind, td):
    """Bags and tree edges of td with one seeded fault of the given kind."""
    bags = [set(b) for b in td.bags]
    edges = [list(e) for e in td.tree_edges]
    n, nb = td.host.n, len(bags)
    if kind == "drop vertex":
        bag = rng.choice(bags)
        bag.discard(rng.choice(sorted(bag)))
    elif kind == "out of range":
        rng.choice(bags).add(rng.choice((-1, n, n + 4)))
    elif kind == "extra bag":
        bags.append(set(rng.sample(range(n), rng.randint(0, n))))
    elif kind == "spread vertex":
        v = rng.randrange(n)
        for bag in bags:
            if rng.random() < 0.5:
                bag.add(v)
    elif kind == "drop edge":
        edges.pop(rng.randrange(len(edges)))
    elif kind == "duplicate edge":
        edges.append(rng.choice(edges)[::-1])
    elif kind == "self-loop":
        i = rng.randrange(nb)
        edges.append([i, i])
    elif kind == "edge out of range":
        edges.append([rng.randrange(nb), nb + rng.randrange(3)])
    elif kind == "move edge":
        edges.pop(rng.randrange(len(edges)))
        edges.append(rng.sample(range(nb), 2))
    return TreeDecomposition(td.host, bags, edges)


def test_violation_lists_match_the_reference_on_mutated_decompositions():
    rng = random.Random(6021)
    kinds = ("drop vertex", "out of range", "extra bag", "spread vertex", "drop edge",
             "duplicate edge", "self-loop", "edge out of range", "move edge")
    seen = set()
    for g in enumerate_connected_graphs(6):
        tds = [treewidth_exact(g)[1]] + ([clique_tree(g)] if is_chordal(g) else [])
        for td in tds:
            assert validate(td) == reference_violations(td) == []
            for kind in kinds:
                if kind in ("drop edge", "duplicate edge", "move edge") and not td.tree_edges:
                    continue
                for _ in range(3):
                    bad = _mutate(rng, kind, td)
                    report = validate(bad)
                    assert report == reference_violations(bad), (to_graph6(g), kind)
                    seen.update(report)
    # every kind of message came up
    for phrase in ("outside host range", "index out of range", "self-loop", "duplicate edge",
                   "expected", "not connected", "P1:", "P2:", "P3:"):
        assert any(phrase in v for v in seen), phrase


def test_invalid_input_is_refused_with_the_first_violation():
    g = path_graph(4)
    td = TreeDecomposition(g, [{0, 1}, {2, 3}], [(0, 1)])
    report = validate(td)
    report.append("caller's own note")
    assert validate(td) == report[:-1]  # validate hands out a copy
    message = "invalid decomposition: " + report[0]
    for op in (width, length, reduce, nonleaf_bags_are_cutsets, lambda t: hanging_subtrees(t, 0)):
        with pytest.raises(DomainError) as err:
            op(td)
        assert str(err.value) == message


def test_width_and_length():
    td = path_decomposition(6)
    assert width(td) == 1
    assert length(td) == 1
    g = cycle_graph(6)
    big = TreeDecomposition(g, [set(range(6))], [])
    assert width(big) == 5
    assert length(big) == 3
    with pytest.raises(DomainError):
        width(TreeDecomposition(g, [{0}], []))
    two = Graph(2)
    with pytest.raises(DomainError):
        length(TreeDecomposition(two, [{0}, {1}], [(0, 1)]))


def test_reduce():
    td = path_decomposition(5)
    assert is_reduced(td)
    assert reduce(td).bags == td.bags
    g = path_graph(3)
    dup = TreeDecomposition(g, [{0, 1}, {0, 1}, {1, 2}], [(0, 1), (1, 2)])
    red = reduce(dup)
    assert validate(red) == [] and is_reduced(red)
    assert sorted(map(sorted, red.bags)) == [[0, 1], [1, 2]]
    # the lowest bag inside a neighbor goes into the lowest such neighbor,
    # which takes over its other tree edges
    claw = TreeDecomposition(star_graph(3), [{0}, {0, 1}, {0, 2}, {0, 3}], [(0, 1), (0, 2), (0, 3)])
    assert format_pace(reduce(claw)) == "s td 3 2 4\nb 1 1 2\nb 2 1 3\nb 3 1 4\n1 2\n1 3\n"


def test_reduce_preserves_width_and_length():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n, 0.35)
        base = treewidth_exact(g)[1]
        bags = [set(b) for b in base.bags]
        edges = list(base.tree_edges)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(bags))
            bags.append({v for v in bags[i] if rng.random() < 0.7})
            edges.append((i, len(bags) - 1))
        td = TreeDecomposition(g, bags, edges)
        assert validate(td) == []
        w0, l0 = width(td), length(td)
        red = reduce(td)
        assert validate(red) == [] and is_reduced(red)
        assert width(red) == w0 and length(red) == l0
    # the decompositions the harness reads w and the length from, unreduced
    graphs = list(enumerate_connected_graphs(7))
    assert len(graphs) == 996
    for g in graphs:
        td = treewidth_exact(g)[1]
        red = reduce(td)
        assert width(red) == width(td) and length(red) == length(td), to_graph6(g)


def test_clique_tree_small():
    t = random_tree(random.Random(2), 7)
    td = clique_tree(t)
    assert validate(td) == []
    assert width(td) == 1
    assert sorted(map(sorted, td.bags)) == sorted([u, v] for u, v in t.edges())
    kn = clique_tree(complete_graph(5))
    assert len(kn.bags) == 1 and width(kn) == 4
    with pytest.raises(DomainError):
        clique_tree(cycle_graph(4))


def test_clique_tree_random_chordal():
    rng = random.Random(9)
    for _ in range(30):
        g = random_chordal(rng, rng.randint(1, 9))
        td = clique_tree(g)
        assert validate(td) == []
        assert width(td) + 1 == brute_max_clique(g)
        assert length(td) <= 1
        assert is_reduced(td)
        if len(td.bags) >= 2:
            ok, witness = nonleaf_bags_are_cutsets(td)
            assert ok and witness is None


def test_clique_tree_and_peel_decomposition_agree_on_chordal_graphs():
    # a chordal graph peels away one simplicial vertex at a time, so every
    # bag of the exact-treewidth decomposition is a clique: same width
    # (omega - 1) and length (at most 1) as the clique tree
    corpus = (Path(__file__).parent / "data" / "connected8.g6").read_text().split()
    graphs = [g for g in enumerate_connected_graphs(7) if is_chordal(g)]
    graphs += [g for g in map(parse_graph6, corpus) if is_chordal(g)]
    assert len(graphs) == 1968  # per order: 1, 1, 2, 5, 15, 58, 272, 1614
    rng = random.Random(24)
    graphs += [random_chordal(rng, rng.randint(5, 40)) for _ in range(50)]
    for g in graphs:
        ct, (tw, td) = clique_tree(g), treewidth_exact(g)
        assert (width(ct), length(ct)) == (tw, length(td)), to_graph6(g)


def test_clique_tree_matches_mcs_kruskal_oracle():
    corpus = (Path(__file__).parent / "data" / "connected8.g6").read_text().split()
    graphs = [g for g in enumerate_connected_graphs(7) if is_chordal(g)]
    graphs += [g for g in map(parse_graph6, corpus) if is_chordal(g)]
    rng = random.Random(2612)
    graphs += [random_chordal(rng, rng.randint(1, 60)) for _ in range(200)]
    graphs += list(enumerate_trees(11)) + [star_graph(500)]
    lib, ref = hashlib.sha256(), hashlib.sha256()
    for g in graphs:
        lib.update(format_pace(clique_tree(g)).encode())
        ref.update(format_pace(reference_clique_tree(g)).encode())
    assert lib.hexdigest() == ref.hexdigest()


def test_clique_tree_memory_is_linear_in_the_clique_count():
    # every pair of the 1000 cliques at once would take tens of megabytes
    g = star_graph(1000)
    tracemalloc.start()
    try:
        td = clique_tree(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(td.bags) == 1000 and peak < 10 * 2**20


def test_treewidth_families():
    rng = random.Random(3)
    for n in range(2, 9):
        assert treewidth_exact(random_tree(rng, n))[0] == 1
    assert treewidth_exact(Graph(1))[0] == 0
    for n in range(3, 9):
        assert treewidth_exact(cycle_graph(n))[0] == 2
    for n in range(2, 7):
        assert treewidth_exact(complete_graph(n))[0] == n - 1
    assert treewidth_exact(grid_graph(3, 3))[0] == 3
    assert treewidth_exact(complete_bipartite(3, 3))[0] == 3


def test_treewidth_matches_brute():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
        tw, td = treewidth_exact(g)
        assert tw == brute_treewidth(g)
        assert validate(td) == [] and width(td) == tw


def test_treewidth_dp_beats_min_fill_and_rebuilds_its_order():
    # the nine graphs to n=8 where the subset search beats min-fill, so the
    # search walks its reconstruction chain back from the full core
    codes = "GqGOVK GqLcm[ GqLc{{ GqMu^g GqMvV[ GqXc{w GqXc|w GqYNNK GrZ]}{".split()
    texts = []
    for code, want in zip(codes, [2, 4, 4, 4, 4, 4, 4, 4, 5]):
        g = parse_graph6(code)
        tw, td = treewidth_exact(g)
        assert tw == want == brute_treewidth(g)
        assert treedec._min_fill_order(g, _simplicial_peel(g)[1])[1] == want + 1
        assert validate(td) == []
        texts.append(format_pace(td))
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "1cfff7ac196487c6194fc8dcbf1b89e4d2be2f03b12adb62daacbd352ee5e0d7"


def test_treewidth_chains_the_roots_of_a_disconnected_core():
    # C4 + C5: neither has a simplicial vertex, and each component's
    # elimination ends in a bag of its own
    c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    c5 = [(4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]
    tw, td = treewidth_exact(Graph.from_edges(9, c4 + c5))
    assert tw == 2 and validate(td) == []


def test_treewidth_on_chordal():
    rng = random.Random(13)
    for _ in range(20):
        g = random_chordal(rng, rng.randint(1, 10))
        assert treewidth_exact(g)[0] == brute_max_clique(g) - 1


def test_treewidth_cap_is_post_peel():
    # paths peel away; on a long cycle the subset search stops at its first
    # layer, where every elimination already reaches the min-fill width
    assert treewidth_exact(path_graph(30))[0] == 1
    assert treewidth_exact(cycle_graph(18))[0] == 2
    with pytest.raises(TooLargeError):
        treewidth_exact(cycle_graph(19), maxn=10)
    assert treewidth_exact(cycle_graph(19), maxn=19)[0] == 2


def test_treewidth_lower_bounds_any_valid_decomposition():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 8), 0.4)
        tw, _ = treewidth_exact(g)
        one_bag = TreeDecomposition(g, [set(range(g.n))], [])
        assert tw <= width(one_bag)


def test_nonleaf_cutsets():
    assert nonleaf_bags_are_cutsets(path_decomposition(5)) == (True, None)
    star = star_graph(3)
    td = TreeDecomposition(star, [{0, 1}, {0, 2}, {0, 3}], [(0, 1), (1, 2)])
    assert nonleaf_bags_are_cutsets(td) == (True, None)
    g = path_graph(3)
    dup = TreeDecomposition(g, [{0, 1}, {0, 1}, {1, 2}], [(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        nonleaf_bags_are_cutsets(dup)
    two = Graph(2)
    split = TreeDecomposition(two, [{0}, {1}], [(0, 1)])
    with pytest.raises(DomainError):
        nonleaf_bags_are_cutsets(split)


def test_hanging_subtrees():
    td = path_decomposition(5)
    assert hanging_subtrees(td, 1) == [frozenset({0}), frozenset({3, 4})]
    assert hanging_subtrees(td, 0) == [frozenset({2, 3, 4})]


def test_hanging_subtree_count_bound():
    # resolving set {0}; every subtree hanging off the first bag avoids it,
    # so each one must fit under (d+1)(2l+1)^w
    for n in range(3, 12):
        td = path_decomposition(n)
        d = diameter(td.host)
        w, l = width(td), length(td)
        cap = (d + 1) * (2 * l + 1) ** w
        for part in hanging_subtrees(td, 0):
            assert 0 not in part
            assert len(part) <= cap


def test_pace_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(1, 8), 0.4)
        td = treewidth_exact(g)[1]
        text = format_pace(td)
        back = parse_pace(text, g)
        assert back == td
        assert format_pace(back) == text
    td = clique_tree(random_chordal(rng, 6))
    assert parse_pace(format_pace(td), td.host) == td


def test_pace_parse_errors():
    g = path_graph(2)
    ok = "s td 1 2 2\nb 1 1 2\n"
    assert validate(parse_pace(ok, g)) == []
    assert validate(parse_pace("c comment\n" + ok, g)) == []
    for bad in [
        "b 1 1 2\n",                      # no header
        "s td 1 2\nb 1 1 2\n",            # short header
        "s td 1 2 3\nb 1 1 2\n",          # host size mismatch
        "s td 1 2 2\nb 1 1 3\n",          # vertex out of range
        "s td 2 2 2\nb 1 1 2\n1 2\n",     # missing bag
        "s td 1 1 2\nb 1 1 2\n",          # wrong max-bag field
        "s td 1 2 2\nb 1 1 2\nb 1 1\n",   # duplicate bag id
        "s td 1 2 2\nb 1 1 2\n1 5\n",     # tree edge out of range
    ]:
        with pytest.raises(FormatError):
            parse_pace(bad, g)
