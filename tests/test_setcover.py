import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import harness, hypergraphs, resolving
from metriclab.enumeration import enumerate_connected_graphs
from metriclab.errors import DomainError
from metriclab.extremal import gen_grid_chain, gen_line_example, gen_o
from metriclab.hypergraphs import distance_hypergraph, min_test_cover
from metriclab.resolving import metric_dimension_exact
from metriclab.setcover import greedy_cover, min_cover

import oracles


def cover_union(masks, picks):
    out = 0
    for i in picks:
        out |= masks[i]
    return out


def test_empty_universe():
    assert min_cover(0, []) == []
    assert min_cover(0, [0b1, 0b10]) == []


def test_small_examples():
    masks = [0b011, 0b110, 0b101]
    assert len(min_cover(3, masks)) == 2
    assert min_cover(3, [0b001, 0b010, 0b100]) == [0, 1, 2]
    assert min_cover(3, [0b111, 0b011]) == [0]
    # duplicate full masks: lowest index kept
    assert min_cover(2, [0b11, 0b11]) == [0]


def test_mask_bits_above_the_universe_are_ignored():
    assert min_cover(2, [0b111]) == [0]
    assert greedy_cover(2, [0b101, 0b010]) == [0, 1]
    assert min_cover(2, [0b110, 0b001, 0b111]) == [2]


def test_infeasible_raises():
    with pytest.raises(DomainError, match="^constraint 2 is not coverable$"):
        min_cover(3, [0b011])
    # a bit above the universe covers nothing
    with pytest.raises(DomainError, match="^constraint 1 is not coverable$"):
        min_cover(3, [0b1101, 0b100])
    with pytest.raises(DomainError):
        min_cover(2, [])
    with pytest.raises(DomainError):
        greedy_cover(1, [0])


def test_matches_naive_on_random_instances():
    rng = random.Random(271828)
    for _ in range(200):
        u = rng.randrange(1, 9)
        k = rng.randrange(1, 9)
        masks = [rng.getrandbits(u) for _ in range(k)]
        want = oracles.naive_min_cover_size(u, masks)
        if want is None:
            with pytest.raises(DomainError):
                min_cover(u, masks)
        else:
            got = min_cover(u, masks)
            assert len(got) == want
            assert cover_union(masks, got) == (1 << u) - 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda u: st.tuples(
            st.just(u),
            st.lists(st.integers(min_value=0, max_value=(1 << u) - 1), max_size=8),
        )
    )
)
def test_cover_properties(args):
    u, masks = args
    full = (1 << u) - 1
    if cover_union(masks, range(len(masks))) != full:
        with pytest.raises(DomainError):
            min_cover(u, masks)
        return
    got = min_cover(u, masks)
    assert cover_union(masks, got) == full
    assert got == sorted(set(got))
    assert len(got) <= len(greedy_cover(u, masks))
    # no chosen candidate is redundant in an optimal cover
    for drop in got:
        rest = [i for i in got if i != drop]
        assert cover_union(masks, rest) != full


def test_deterministic_and_domination_stable():
    rng = random.Random(999)
    for _ in range(40):
        u = rng.randrange(1, 9)
        masks = [rng.getrandbits(u) | 1 for _ in range(6)] + [(1 << u) - 1 & 0]
        masks[-1] = masks[0] & masks[1]  # dominated by construction
        try:
            a = min_cover(u, masks)
        except DomainError:
            continue
        assert a == min_cover(u, masks)
        # appending one more dominated candidate changes nothing
        assert a == min_cover(u, masks + [masks[0]])


def test_matches_reference_engine_on_random_instances():
    # same index list as the engine kept in oracles, not only the same size
    rng = random.Random(1985)
    solved = 0
    for _ in range(500):
        u = rng.randrange(0, 13)
        # half the masks come from a small pool holding the empty mask, so
        # empty and repeated masks occur
        pool = [0] + [rng.getrandbits(u) for _ in range(3)]
        masks = [
            rng.choice(pool) if rng.random() < 0.5 else rng.getrandbits(u)
            for _ in range(rng.randrange(0, 11))
        ]
        try:
            want = oracles.reference_min_cover(u, masks)
        except DomainError as refusal:
            with pytest.raises(DomainError) as got:
                min_cover(u, masks)
            assert str(got.value) == str(refusal)
            continue
        assert min_cover(u, masks) == want
        solved += 1
    assert solved >= 250


@pytest.fixture
def checked_engine(monkeypatch):
    """Both solvers' min_cover, each answer checked against the reference
    engine; returns the list of every checked call's universe size."""
    universes = []

    def checked(universe_size, masks, lower_bound=None):
        got = min_cover(universe_size, masks, lower_bound)
        assert got == oracles.reference_min_cover(universe_size, masks)
        universes.append(universe_size)
        return got

    monkeypatch.setattr(resolving, "min_cover", checked)
    monkeypatch.setattr(hypergraphs, "min_cover", checked)
    return universes


def solve_md_and_tc(g):
    metric_dimension_exact(g)
    min_test_cover(distance_hypergraph(g))


def test_solvers_match_reference_engine_on_small_graphs(checked_engine):
    graphs = list(enumerate_connected_graphs(6))
    for g in graphs:
        solve_md_and_tc(g)
    assert len(graphs) == 143 and len(checked_engine) == 2 * 143


def test_solvers_match_reference_engine_on_outerplanar_family(checked_engine):
    # the O(d, k) members the harness checks (k = 2..4) with at most 20
    # vertices; past k = 8 the reference engine's test cover of O(2, k)
    # costs about five times more per step in k (half a minute at k = 11)
    members = [
        g
        for d in range(2, 9)
        for k in range(2, 5)
        for chords in (False, True)
        for g, _ in [gen_o(d, k, with_chords=chords)]
        if g.n <= 20
    ]
    for g in members:
        solve_md_and_tc(g)
    assert len(members) == 18 and max(checked_engine) == 190


def test_md_matches_reference_engine_on_the_generator_suites(checked_engine):
    # universes of up to 6670 pairs: every distinct graph whose md
    # extremal_specs measures, and every grid_chain and line_example member
    # at its default sweep
    harness.run_suite("extremal_specs")
    specs = len(checked_engine)
    members = [gen_grid_chain(t)[0] for t in (2, 3, 4)]
    members += [gen_line_example(k)[0] for k in (2, 3, 4, 5)]
    for g in members:
        metric_dimension_exact(g, maxn=harness.SOLVER_CAP)
    assert specs == 56 and max(checked_engine) == 6670


def test_search_tree_node_counts(monkeypatch):
    # a hook that never prunes is called once per node that the packing
    # bound lets through below the root, so its call count pins the search
    # tree and the packing bound; the split-bound calls pin the test-cover
    # search as it runs. A lost or weakened bound moves a count.
    instances = []

    def capture(universe_size, masks, lower_bound=None):
        instances.append((universe_size, masks))
        return min_cover(universe_size, masks, lower_bound)

    splits = 0
    split_bound = hypergraphs._split_bound

    def counted_split_bound(h):
        refine = split_bound(h)

        def counted(state, i):
            nonlocal splits
            splits += 1
            return refine(state, i)

        return counted

    monkeypatch.setattr(resolving, "min_cover", capture)
    monkeypatch.setattr(hypergraphs, "min_cover", capture)
    monkeypatch.setattr(hypergraphs, "_split_bound", counted_split_bound)
    graphs = list(enumerate_connected_graphs(6)) + [gen_grid_chain(3)[0]]
    for g in graphs:
        solve_md_and_tc(g)
    assert len(instances) == 2 * 144

    nodes = 0

    def never_prunes(state, i):
        nonlocal nodes
        nodes += 1
        return None, 0

    for universe_size, masks in instances:
        min_cover(universe_size, masks, never_prunes)
    assert (nodes, splits) == (184883, 18975)
