import pytest

from metriclab.errors import DomainError, TooLargeError
from metriclab.extremal import (
    ExtremalSpec,
    gen_grid_chain,
    gen_hs,
    gen_l,
    gen_line_example,
    gen_o,
    hs_order,
)
from metriclab.graphs import MAX_VERTICES, all_distances, diameter, is_tree, isomorphic
from metriclab.hypergraphs import (
    distance_hypergraph,
    distance_hypergraph_fixed_radius,
    min_test_cover,
    vc_dimension,
)
from metriclab.minors import is_outerplanar
from metriclab.resolving import is_resolving, metric_dimension_exact

from oracles import leaves


def check_spec(g, spec):
    assert g.n == spec.order
    assert diameter(g) == spec.diameter
    assert is_resolving(g, list(spec.resolving_set))


def test_gen_l():
    for r in range(1, 7):
        g = gen_l(r)
        assert g.n == 1 + r + r * (r - 1) // 2
        assert is_tree(g)
    two = gen_l(1)
    assert two.n == 2 and two.m == 1
    assert gen_l(4).n == 11
    with pytest.raises(DomainError):
        gen_l(0)


def test_hs_param_validation():
    with pytest.raises(DomainError):
        gen_hs(6, 1)
    with pytest.raises(DomainError):
        gen_hs(6, 2, a=1)  # a is an odd-d knob
    with pytest.raises(DomainError):
        gen_hs(7, 2)  # odd d needs a
    with pytest.raises(DomainError):
        gen_hs(7, 2, a=3)
    with pytest.raises(DomainError):
        gen_hs(1, 2, a=0)
    with pytest.raises(DomainError):
        gen_hs(0, 2)


def test_hs_pinned_orders():
    assert gen_hs(6, 2)[0].n == 16
    assert gen_hs(7, 2, a=1)[0].n == 20
    assert gen_hs(8, 3)[0].n == 35


def test_hs_grid():
    for d in range(2, 13):
        for k in (2, 3, 5):
            variants = (
                [(None,)] if d % 2 == 0 else [(0,), (k // 2,), (k,)]
            )
            for (a,) in variants:
                g, spec = gen_hs(d, k, a=a) if a is not None else gen_hs(d, k)
                assert is_tree(g)
                check_spec(g, spec)


def test_hs_metric_dimension():
    assert metric_dimension_exact(gen_hs(6, 2)[0]).dimension == 2
    assert metric_dimension_exact(gen_hs(7, 2, a=1)[0]).dimension == 2
    assert metric_dimension_exact(gen_hs(7, 2, a=0)[0]).dimension == 3
    assert metric_dimension_exact(gen_hs(7, 2, a=2)[0]).dimension == 3
    for d, k, a in [(4, 2, None), (5, 3, 1), (8, 2, None), (9, 2, 1)]:
        g, spec = gen_hs(d, k, a=a) if a is not None else gen_hs(d, k)
        assert metric_dimension_exact(g).dimension == spec.metric_dimension


def test_hs_lopsided_not_isomorphic_to_balanced():
    g0 = gen_hs(7, 2, a=0)[0]
    g1 = gen_hs(7, 2, a=1)[0]
    assert not isomorphic(g0, g1)


def test_o_pinned_orders():
    assert gen_o(7, 3)[0].n == 45
    assert gen_o(8, 3)[0].n == 62
    assert gen_o(5, 2)[0].n == 19


def test_o_grid():
    for d in range(2, 13):
        for k in (2, 3, 5):
            g, spec = gen_o(d, k)
            check_spec(g, spec)
            assert is_outerplanar(g)
    for d in range(2, 10):
        g, spec = gen_o(d, 2, with_chords=True)
        check_spec(g, spec)
        assert is_outerplanar(g)


def test_o_metric_dimension():
    for d, k in [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (3, 3), (4, 3)]:
        g, spec = gen_o(d, k)
        assert metric_dimension_exact(g).dimension == k
        gc, specc = gen_o(d, k, with_chords=True)
        assert metric_dimension_exact(gc).dimension == k
    with pytest.raises(DomainError):
        gen_o(1, 2)
    with pytest.raises(DomainError):
        gen_o(4, 1)


def test_grid_chain():
    for t in (2, 3, 4):
        g, spec = gen_grid_chain(t)
        assert g.n == t ** 3
        check_spec(g, spec)
        assert spec.metric_dimension is None
        assert len(spec.resolving_set) == 3
    assert diameter(gen_grid_chain(2)[0]) == 4
    assert diameter(gen_grid_chain(3)[0]) == 8
    with pytest.raises(DomainError):
        gen_grid_chain(1)


def test_line_example_orders_and_diameter():
    assert gen_line_example(2)[0].n == 9
    assert gen_line_example(3)[0].n == 22
    assert gen_line_example(4)[0].n == 51
    for k in (2, 3, 4):
        g, spec = gen_line_example(k)
        check_spec(g, spec)
    with pytest.raises(DomainError):
        gen_line_example(1)
    with pytest.raises(TooLargeError):
        gen_line_example(4, maxk=3)


def test_line_example_distance_pattern():
    # subset vertex for mask sits at distance 2 from the pinned vertices it
    # names and 4 from the others
    for k in (2, 3):
        g, _ = gen_line_example(k)
        dist = all_distances(g)
        for mask in range(1, 1 << k):
            ev = k + mask - 1
            for i in range(k):
                want = 2 if mask >> i & 1 else 4
                assert dist[ev][i] == want


def test_line_example_separates_md_from_test_cover():
    for k in (2, 3):
        g, _ = gen_line_example(k)
        cert = metric_dimension_exact(g)
        assert cert.dimension <= k
        tc = len(min_test_cover(distance_hypergraph(g)))
        assert tc > cert.dimension


def test_line_example_radius_one_vc():
    for k in (2, 3):
        g, _ = gen_line_example(k)
        vc, _ = vc_dimension(distance_hypergraph_fixed_radius(g, 1))
        assert vc <= 4


def test_spec_json():
    _, spec = gen_o(5, 2)
    blob = spec.to_json()
    assert blob["schema"] == 1
    assert blob["family"] == "O"
    assert blob["params"] == {"d": 5, "k": 2, "with_chords": False}
    assert blob["order"] == 19 and blob["diameter"] == 5
    assert blob["metric_dimension"] == 2
    assert len(blob["resolving_set"]) == 2


def test_hs_leaf_structure():
    # every comb end used as a witness is a leaf at depth d/2 from the hub
    g, spec = gen_hs(6, 3)
    lv = set(leaves(g))
    dist = all_distances(g)
    for v in spec.resolving_set:
        assert v in lv
        assert dist[0][v] == 3


def test_generators_refuse_orders_past_the_graph6_limit():
    # the order is computed in closed form and refused before any vertex
    # is allocated; each parameter is the first one past 258047 vertices
    assert hs_order(1012, 2) <= MAX_VERTICES < hs_order(1014, 2)
    assert hs_order(1013, 2) <= MAX_VERTICES < hs_order(1015, 2)
    for build in (
        lambda: gen_grid_chain(64),  # 262144 vertices; 63 gives 250047
        lambda: gen_l(718),  # 258122; 717 gives 257404
        lambda: gen_hs(1014, 2),  # 258064
        lambda: gen_hs(1015, 2, 1),  # 258572
        lambda: gen_o(718, 2),  # 258838; 716 gives 257401
        lambda: gen_o(10**9, 10**9, with_chords=True),
        lambda: gen_line_example(15, maxk=15),  # 278542; 14 gives 131085
    ):
        with pytest.raises(TooLargeError) as err:
            build()
        assert "258047" in str(err.value)
