"""Exhaustive generators vs published counts and brute-force oracles."""

import itertools
import random
from pathlib import Path

import pytest

from metriclab import enumeration, harness
from metriclab.enumeration import (
    enumerate_connected_graphs,
    enumerate_trees,
    free_tree_key,
)
from metriclab.errors import DomainError, FormatError, TooLargeError
from metriclab.graphs import (
    Graph,
    _color_preserving_maps,
    _prepared,
    _refined_colors,
    is_connected,
    is_tree,
    iso_invariant,
    parse_graph6,
    to_graph6,
)
from oracles import (
    _rooted_level_sequences,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    free_tree_canonical,
    path_graph,
    perm_automorphism_count,
    perm_isomorphic,
    random_tree,
    reference_connected_graphs,
    reference_free_trees,
    reference_tree_scan,
    star_graph,
    tree_from_pruefer,
)

# Published reference rows (free trees, rooted trees, connected graphs).
# OEIS A000055 to n=16, the tree enumeration cap
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]
ROOTED_TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]
# level sequences the free-tree generator examines per order n = 1..14
# (the rooted scan examines every rooted tree, 32973 at n = 14)
EXAMINED_SEQUENCE_COUNTS = [1, 1, 1, 2, 4, 8, 18, 38, 84, 184, 415, 943, 2211, 5244]
# one-vertex extensions scanned per order n = 2..7 once masks that are not
# the least of their Aut(base)-orbit are pruned (7056 at n = 7 without)
PRUNED_CANDIDATE_COUNTS = [1, 2, 8, 44, 333, 3771]

CORPUS = Path(__file__).parent / "data" / "connected8.g6"
CORPUS_N8_COUNT = 11117


def by_order(graphs):
    out = {}
    for g in graphs:
        out.setdefault(g.n, []).append(g)
    return out


def test_tree_counts_match_published_row():
    pool = by_order(enumerate_trees(16))
    assert [len(pool[n]) for n in range(1, 17)] == FREE_TREE_COUNTS
    assert sum(len(v) for v in pool.values()) == 32508


def adjacency(graphs):
    return [[sorted(g.neighbors(v)) for v in range(g.n)] for g in graphs]


def test_trees_match_reference_filter_in_order():
    pool = by_order(enumerate_trees(14))
    for n in range(1, 15):
        assert adjacency(pool[n]) == adjacency(reference_free_trees(n))


def test_trees_match_rooted_scan_in_order():
    pool = by_order(enumerate_trees(15))
    for n in range(1, 16):
        assert pool[n] == reference_tree_scan(n), n


def test_tree_generator_examines_the_pinned_sequence_counts(monkeypatch):
    # every examined sequence gets one successor call, a jump included, so
    # a lost jump or tail reset moves a count
    calls = 0
    successor = enumeration._successor

    def counted(seq, p=0):
        nonlocal calls
        calls += 1
        return successor(seq, p)

    monkeypatch.setattr(enumeration, "_successor", counted)
    monkeypatch.setattr(enumeration, "_tree_cache", {})
    got = []
    for n in range(1, 15):
        calls = 0
        enumeration._free_trees_exact(n)
        got.append(calls)
    assert got == EXAMINED_SEQUENCE_COUNTS


def test_connected_graphs_match_reference_scan_in_order():
    pool = by_order(enumerate_connected_graphs(7))
    for n in range(1, 8):
        assert adjacency(pool[n]) == adjacency(reference_connected_graphs(n))


def test_orbit_pruning_scans_the_pinned_candidate_counts():
    got = []
    for n in range(2, 8):
        bases = enumeration._connected_exact(n - 1)
        got.append(sum(1 for base in bases for _ in enumeration._extensions(base)))
    assert got == PRUNED_CANDIDATE_COUNTS


def test_automorphism_group_orders_match_permutation_oracle():
    for g in enumerate_connected_graphs(6):
        rec = _prepared(g, _refined_colors(g)[0])
        maps = [list(p) for p in _color_preserving_maps(rec, rec)]
        assert len(maps) == perm_automorphism_count(g)
        assert len({tuple(p) for p in maps}) == len(maps)
        for p in maps:
            assert g.relabeled(p) == g


def test_rooted_sequence_counts():
    for n, want in enumerate(ROOTED_TREE_COUNTS, start=1):
        got = sum(1 for _ in _rooted_level_sequences(n))
        assert got == want


def test_trees_are_trees_and_pairwise_distinct():
    for n, bunch in by_order(enumerate_trees(10)).items():
        oracle_keys = set()
        runtime_keys = set()
        for g in bunch:
            assert g.n == n and is_tree(g)
            oracle_keys.add(free_tree_canonical(g))
            runtime_keys.add(free_tree_key(g))
        assert len(oracle_keys) == len(bunch)
        assert len(runtime_keys) == len(bunch)


def test_pruefer_enumeration_agreement():
    # every labeled tree arises from a Pruefer code, so the canonical-key
    # sets must coincide with the generated ones order by order
    pool = by_order(enumerate_trees(8))
    for n in range(2, 9):
        generated = {free_tree_canonical(g) for g in pool[n]}
        labeled = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            labeled.add(free_tree_canonical(tree_from_pruefer(seq, n)))
        assert labeled == generated


def test_free_tree_key_is_relabel_invariant():
    rng = random.Random(4021)
    for _ in range(30):
        n = rng.randrange(2, 13)
        t = random_tree(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n)
        for u, v in t.edges():
            h.add_edge(perm[u], perm[v])
        assert free_tree_key(t) == free_tree_key(h)


def test_free_tree_key_separates_and_validates():
    assert free_tree_key(path_graph(4)) != free_tree_key(star_graph(3))
    with pytest.raises(DomainError):
        free_tree_key(cycle_graph(3))
    with pytest.raises(DomainError):
        free_tree_key(Graph(2))  # disconnected


def test_tree_enumeration_domain_and_cap():
    with pytest.raises(DomainError):
        enumerate_trees(0)
    with pytest.raises(TooLargeError):
        enumerate_trees(17)
    # explicit override lifts the cap; the stream starts at n = 1 so
    # pulling one tree must not touch the big levels
    assert next(enumerate_trees(17, maxn=17)).n == 1
    with pytest.raises(TooLargeError):
        enumerate_trees(5, maxn=4)


def test_connected_counts_match_published_row():
    pool = by_order(enumerate_connected_graphs(7))
    assert [len(pool[n]) for n in range(1, 8)] == CONNECTED_COUNTS
    for n, bunch in pool.items():
        codes = [to_graph6(g) for g in bunch]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(bunch)
        for g in bunch:
            assert g.n == n and is_connected(g)


def test_connected_pairwise_noniso_small():
    pool = by_order(enumerate_connected_graphs(5))
    for bunch in pool.values():
        for g, h in itertools.combinations(bunch, 2):
            assert not perm_isomorphic(g, h)


def test_connected_contains_known_graphs():
    seven = by_order(enumerate_connected_graphs(7))[7]
    # equal degree sequences are necessary for isomorphism, so this filter
    # only spares the brute-force oracle calls that must fail
    def same_degrees(pool, target):
        return [g for g in pool if g.degree_sequence() == target.degree_sequence()]

    for target in (complete_graph(7), cycle_graph(7), path_graph(7), star_graph(6)):
        assert sum(1 for g in same_degrees(seven, target) if perm_isomorphic(g, target)) == 1
    six = by_order(enumerate_connected_graphs(6))[6]
    k33 = complete_bipartite(3, 3)
    assert sum(1 for g in same_degrees(six, k33) if perm_isomorphic(g, k33)) == 1


def test_connected_domain_and_cap():
    with pytest.raises(DomainError):
        enumerate_connected_graphs(0)
    with pytest.raises(TooLargeError) as err:
        enumerate_connected_graphs(8)
    assert "corpus" in str(err.value)
    assert next(enumerate_connected_graphs(8, maxn=8)).n == 1


def test_enumeration_is_deterministic_across_cache_resets():
    first_t = [to_graph6(g) for g in enumerate_trees(9)]
    first_c = [to_graph6(g) for g in enumerate_connected_graphs(6)]
    saved_t, saved_c = dict(enumeration._tree_cache), dict(enumeration._conn_cache)
    try:
        enumeration._tree_cache.clear()
        enumeration._conn_cache.clear()
        assert [to_graph6(g) for g in enumerate_trees(9)] == first_t
        assert [to_graph6(g) for g in enumerate_connected_graphs(6)] == first_c
    finally:
        enumeration._tree_cache.update(saved_t)
        enumeration._conn_cache.update(saved_c)


def test_bucket_key_splits_the_pinned_number_of_classes():
    # the class sizes and the quotient of the stable coloring: 976 keys for
    # the 996 graphs (the old key of n, m, degrees, class sizes and
    # triangles gave 890)
    assert len({iso_invariant(g) for g in enumerate_connected_graphs(7)}) == 976


def test_exactness_does_not_rest_on_the_bucket_key(monkeypatch):
    # with one bucket for every graph, the map search alone tells classes
    # apart: graphs whose color classes differ in size get no map
    first_c = [to_graph6(g) for g in enumerate_connected_graphs(6)]
    saved_c = dict(enumeration._conn_cache)
    monkeypatch.setattr(enumeration, "_invariant", lambda colors, quotient: ())
    try:
        enumeration._conn_cache.clear()
        assert [to_graph6(g) for g in enumerate_connected_graphs(6)] == first_c
    finally:
        enumeration._conn_cache.clear()
        enumeration._conn_cache.update(saved_c)
    lines = CORPUS.read_text().splitlines()[:30]
    for text, dup in (("GqGOOG\nGQGOOK\n", 2), ("\n".join(lines + ["GQGOOK"]), 31)):
        with pytest.raises(FormatError) as err:
            harness._corpus_levels("iso.g6", text, 8)
        assert str(err.value) == f"iso.g6:{dup}: duplicate graph, isomorphic to line 1"


def test_connected_levels_are_sorted_by_graph6():
    graphs = list(enumerate_connected_graphs(7))
    for n in range(1, 8):
        codes = [to_graph6(g) for g in graphs if g.n == n]
        assert codes == sorted(codes) and len(set(codes)) == len(codes), n


def test_shipped_corpus_shape():
    lines = CORPUS.read_text().splitlines()
    assert len(lines) == CORPUS_N8_COUNT
    assert lines == sorted(lines)
    assert len(set(lines)) == len(lines)
    for line in lines:
        g = parse_graph6(line)
        assert g.n == 8 and is_connected(g)
        assert to_graph6(g) == line


def test_corpus_regeneration_is_reproducible():
    level = [g for g in enumerate_connected_graphs(8, maxn=8) if g.n == 8]
    assert [to_graph6(g) for g in level] == CORPUS.read_text().splitlines()
