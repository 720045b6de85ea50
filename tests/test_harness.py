"""Suite runner behavior: verdicts, determinism, corpus ingestion, rendering."""

import csv
import io
import json
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from metriclab import harness, treedec
from metriclab.errors import DomainError, FormatError, TooLargeError
from metriclab.graphs import Graph, to_graph6
from metriclab.harness import Failure, SuiteReport, run_suite, suite_names
from metriclab.hypergraphs import (
    distance_hypergraph,
    dual,
    dual_distance_2vc,
    vc2_dimension,
    vc_dimension,
)
from metriclab.resolving import metric_dimension_exact
from metriclab.treedec import length, treewidth_exact, width

import oracles

DATA = Path(__file__).parent / "data"
CORPUS = str(DATA / "connected8.g6")
# every report's JSON with elapsed zeroed and the corpus path dropped, frozen
# so that a change to the harness must reproduce each report byte for byte;
# keys keep their insertion order, which the table rendering follows
GOLDEN = DATA / "golden_reports.json"
CONNECTED_SUITES = [
    "mdvstc_sandwich",
    "prop8",
    "prop10",
    "thm14_minor",
    "outerplanar_bound",
    "treedec_bound",
    "chordal_obs",
]

EXPECTED_VERDICTS = {
    # suite -> (instances, passes)
    "tree_bound": (987, True),
    "tree_equality": (987, True),
    "mdvstc_sandwich": (996, True),
    "prop8": (996, True),
    # the left inequality is refuted by small dense graphs, so this suite
    # reports its counterexamples and stays red by design
    "prop10": (994, False),
    "sauer_shelah": (500, True),
    "thm14_minor": (996, True),
    "outerplanar_bound": (282, True),
    "treedec_bound": (996, True),
    "chordal_obs": (354, True),
    "extremal_specs": (76, True),
    "grid_chain": (3, True),
    "line_example": (4, True),
}


def golden_doc(report: SuiteReport) -> dict:
    doc = report.to_json()
    doc["elapsed"] = 0.0
    doc["config"] = {k: v for k, v in doc["config"].items() if k != "corpus"}
    return doc


def canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def write_shard(path: Path) -> str:
    """Every 24th graph of the n=8 corpus, starting with the first."""
    lines = Path(CORPUS).read_text().splitlines()
    path.write_text("".join(line + "\n" for line in lines[::24]))
    return str(path)


def golden(section: str) -> dict:
    return json.loads(GOLDEN.read_text())[section]


def test_suite_names_fixed():
    assert suite_names() == list(EXPECTED_VERDICTS)


def test_default_verdicts_and_instance_counts():
    frozen = golden("default")
    assert list(frozen) == list(EXPECTED_VERDICTS)
    for name, (instances, passes) in EXPECTED_VERDICTS.items():
        r = run_suite(name)
        assert canonical(golden_doc(r)) == canonical(frozen[name]), name
        assert r.suite == name
        assert r.instances == instances, name
        assert r.passed is passes, name
        ids = [(f.instance, f.claim) for f in r.failures]
        assert ids == sorted(ids)


def test_connected_suites_on_corpus_shard_match_golden(tmp_path):
    shard = write_shard(tmp_path / "shard.g6")
    assert len(Path(shard).read_text().splitlines()) == 464
    frozen = golden("nmax8_shard")
    assert list(frozen) == CONNECTED_SUITES
    for name in CONNECTED_SUITES:
        r = run_suite(name, nmax=8, corpus=shard)
        assert r.config["corpus"] == shard
        assert canonical(golden_doc(r)) == canonical(frozen[name]), name


def test_instance_table_measures_each_graph_once(tmp_path, monkeypatch):
    shard = write_shard(tmp_path / "shard.g6")
    frozen = golden("nmax8_shard")
    calls: dict[str, Counter] = {}

    def count(name, key):
        solver = getattr(harness, name)

        def counted(x, *args, **kwargs):
            calls.setdefault(name, Counter())[key(x, *args)] += 1
            return solver(x, *args, **kwargs)

        monkeypatch.setattr(harness, name, counted)

    def hyper_key(h, *_):
        return h.nverts, tuple(h.edges)

    def dual_key(h, pairs_only):
        return hyper_key(h), pairs_only

    def matrix_key(dist):
        return tuple(map(tuple, dist))

    # every pool entry has a record of its own, and a generated outerplanar
    # member shares the record of an equal pool graph or earlier member (the
    # d=2 members are pool graphs label for label, and for d <= 4 each member
    # with chords equals the one without); the counters name a graph by its
    # object, not its graph6 code
    held = []

    def graph_key(g, *_):
        held.append(g)  # a live object's id is never reused
        return id(g)

    # the measurements asked of pool graphs only
    pool_measures = ("treewidth_exact", "has_clique_minor", "is_chordal", "is_outerplanar")
    for name in (*pool_measures, "_metric_dimension", "all_distances"):
        count(name, graph_key)

    def no_clique_tree(g):
        raise AssertionError("the harness builds no clique tree")

    # one decomposition engine: the harness neither imports nor calls it
    assert not hasattr(harness, "clique_tree")
    monkeypatch.setattr(treedec, "clique_tree", no_clique_tree)
    # a test cover, vc* and d2vc are solved on the ball hypergraph, named by
    # its edges (vc* and d2vc apart by pairs_only), and no dual is built; a
    # ball hypergraph is named by its matrix
    assert not hasattr(harness, "dual")
    count("min_test_cover", hyper_key)
    count("_dual_dimension", dual_key)
    count("_distance_hypergraph", matrix_key)
    for order in (CONNECTED_SUITES, CONNECTED_SUITES[::-1]):
        harness._clear_instances()
        calls.clear()
        for name in order:
            r = run_suite(name, nmax=8, corpus=shard)
            assert canonical(golden_doc(r)) == canonical(frozen[name]), (order[0], name)
        pool = harness._connected_pool(8, shard)  # the one the suites read
        assert set(calls) == {*pool_measures, "_metric_dimension", "_dual_dimension",
                              "min_test_cover", "all_distances", "_distance_hypergraph"}
        for name in pool_measures:
            assert set(calls[name]) <= {id(g) for _, g in pool}, (order[0], name)
        for name in (*pool_measures, "_metric_dimension", "_dual_dimension", "min_test_cover"):
            assert max(calls[name].values()) == 1, (order[0], name)
        assert {pairs_only for _, pairs_only in calls["_dual_dimension"]} == {False, True}
        assert sum(calls["min_test_cover"].values()) <= len(pool)
        # one ball hypergraph per pool graph and none for the generated
        # outerplanar family; at most two matrices per pool graph
        assert set(calls["_distance_hypergraph"].values()) == {1}, order[0]
        assert len(calls["_distance_hypergraph"]) == len(pool), order[0]
        assert max(calls["all_distances"][id(g)] for _, g in pool) <= 2, order[0]
        # the records hold scalars only
        for rec, _ in pool:
            for slot in rec.__slots__:
                assert type(getattr(rec, slot)) in (int, bool, str, type(None)), slot


def test_minor_verdict_is_taken_once_per_graph(monkeypatch):
    # the K_t minor verdict is a measurement like any other: a second run of
    # thm14_minor in the same process reads it off the records
    calls = Counter()
    solver = harness.has_clique_minor

    def counted(g, t):
        calls[id(g)] += 1
        return solver(g, t)

    monkeypatch.setattr(harness, "has_clique_minor", counted)
    harness._clear_instances()
    first = run_suite("thm14_minor", nmax=6)
    second = run_suite("thm14_minor", nmax=6)
    assert canonical(golden_doc(first)) == canonical(golden_doc(second))
    pool = harness._connected_pool(6, None)
    assert len(pool) == 143 and first.passed
    assert calls == Counter(id(g) for _, g in pool)


def test_generator_suites_take_one_matrix_per_member(monkeypatch):
    # the diameter, the declared-set check, md and the radius-1 balls of a
    # generated graph read one distance matrix; a graph generated twice
    # (O(d, k) for d <= 4 with and without chords, O(2, k) and HS(2, k)) is
    # measured once, and every case still counts
    frozen = golden("default")
    calls: dict[str, Counter] = {}

    def count(name):
        solver = getattr(harness, name)

        def counted(g, *args, **kwargs):
            calls[name][g] += 1
            return solver(g, *args, **kwargs)

        monkeypatch.setattr(harness, name, counted)

    count("all_distances")
    count("_metric_dimension")
    for name, members in (("extremal_specs", 62), ("grid_chain", 3), ("line_example", 4)):
        calls.update(all_distances=Counter(), _metric_dimension=Counter())
        r = run_suite(name)
        assert canonical(golden_doc(r)) == canonical(frozen[name]), name
        assert len(calls["all_distances"]) == members, name
        assert set(calls["all_distances"].values()) == {1}, name
        assert set(calls["_metric_dimension"].values()) <= {1}, name


def test_measure_table_is_the_record_layout():
    assert harness._Record.__slots__ == ("balls", *harness._MEASURES)
    inst = harness._Instance(harness._Record(), Graph(1))
    assert inst.chordal is True and inst.rec.chordal is True
    with pytest.raises(AttributeError):
        inst.not_a_measure


def test_shared_structures_match_the_public_solvers():
    # md, vc*, d2vc and length through one instance's matrix and the record's
    # ball hypergraph, on relabelled graphs past the n <= 7 enumeration
    rng = random.Random(40919)
    for _ in range(60):
        n = rng.randrange(8, 11)
        g = oracles.random_connected_graph(rng, n, rng.choice((0.1, 0.25, 0.5)))
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        inst = harness._Instance(harness._Record(), h)
        assert inst.md == metric_dimension_exact(h).dimension == metric_dimension_exact(g).dimension
        assert inst.d2vc == dual_distance_2vc(h) == dual_distance_2vc(g)
        # and vc* and d2vc equal the built dual's
        d = dual(distance_hypergraph(h))
        cap = harness.SOLVER_CAP
        assert (inst.vc_star, inst.d2vc) == (vc_dimension(d, cap)[0], vc2_dimension(d, cap)[0])
        # the length is the decomposition's, which depends on the labels
        td = treewidth_exact(h)[1]
        assert (inst.width, inst.length) == (width(td), length(td))


def test_report_names_only_a_corpus_it_read(tmp_path):
    # the corpus is read past n = 7 only
    missing = str(tmp_path / "missing.g6")
    r = run_suite("prop8", nmax=3, corpus=missing)
    assert r.instances == 4 and "corpus" not in r.config
    with pytest.raises(FormatError):
        run_suite("prop8", nmax=8, corpus=missing)


def test_tree_and_generator_suites_make_no_records():
    harness._clear_instances()
    run_suite("tree_bound", nmax=8)
    run_suite("grid_chain", nmax=2)
    assert harness._POOLS == {}


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("nope")


def test_prop8_small_pool_instance_count():
    r = run_suite("prop8", nmax=5)
    assert r.instances == 31 and r.passed


def test_prop10_failure_content():
    r = run_suite("prop10")
    assert len(r.failures) == 30
    triangle = [f for f in r.failures if f.instance == "Bw"]
    assert len(triangle) == 1
    f = triangle[0]
    assert f.claim == "(dvc - log2 d)/log2 dvc <= dvc*"
    assert f.measured.startswith("2.0") and f.bound == "1"
    # complete graphs K_3..K_7 all violate the left side the same way
    assert sum(1 for f in r.failures if f.witness == "d=1 dvc=2") == 5
    assert r.extras["repaired_left_failures"] == 0


def test_tree_equality_extras():
    r = run_suite("tree_equality")
    assert r.extras["equality_instances"] == 28
    assert r.extras["low_dimension_equalities"] == 3  # K_1, P_2, P_3
    assert r.extras["generator_params_checked"] == 40


def test_tree_equality_wider_pool():
    r = run_suite("tree_equality", nmax=14)
    assert r.passed and r.instances == 5447
    assert r.extras["equality_instances"] == 39


def test_thm14_with_corpus():
    r = run_suite("thm14_minor", nmax=8, corpus=CORPUS)
    assert r.passed
    assert r.instances == 996 + 11117
    hist = r.extras["d2vc_histogram"]
    assert sum(hist.values()) == r.instances
    assert set(hist) == {"1", "2", "3", "4"}


def test_chordal_obs_with_corpus():
    r = run_suite("chordal_obs", nmax=8, corpus=CORPUS)
    # 354 chordal graphs up to n=7 plus the 1614 connected chordal graphs
    # on 8 vertices
    assert r.passed and r.instances == 1968
    assert r.extras["max_width"] == 7


def test_corpus_required_beyond_builtin():
    with pytest.raises(DomainError):
        run_suite("thm14_minor", nmax=8)


def test_corpus_missing_order():
    with pytest.raises(DomainError) as err:
        run_suite("thm14_minor", nmax=9, corpus=CORPUS)
    assert "order 9" in str(err.value)


def test_corpus_file_errors(tmp_path):
    with pytest.raises(FormatError):
        run_suite("thm14_minor", nmax=8, corpus=str(tmp_path / "absent.g6"))
    bad = tmp_path / "bad.g6"
    bad.write_text("not graph6 at all\n")
    with pytest.raises(FormatError):
        run_suite("thm14_minor", nmax=8, corpus=str(bad))
    disconnected = tmp_path / "disc.g6"
    disconnected.write_text(to_graph6(Graph(8)) + "\n")  # 8 vertices, no edges
    with pytest.raises(FormatError) as err:
        run_suite("thm14_minor", nmax=8, corpus=str(disconnected))
    assert "not connected" in str(err.value)
    dup = tmp_path / "dup.g6"
    line = Path(CORPUS).read_text().splitlines()[0]
    dup.write_text(line + "\n" + line + "\n")
    with pytest.raises(FormatError) as err:
        run_suite("thm14_minor", nmax=8, corpus=str(dup))
    assert "duplicate" in str(err.value)


def test_corpus_parse_errors_name_their_line(tmp_path):
    # line numbers count every line of the file, blank ones included
    first, second = Path(CORPUS).read_text().splitlines()[:2]
    bad = tmp_path / "bad.g6"
    bad.write_text(f"{first}\n{second}\n\nG??\n")
    with pytest.raises(FormatError) as err:
        run_suite("thm14_minor", nmax=8, corpus=str(bad))
    assert str(err.value) == f"{bad}:4: graph6 body has 2 characters, expected 5 for n=8"
    huge = tmp_path / "huge.g6"
    huge.write_text(f"{first}\n~~??????\n")
    with pytest.raises(TooLargeError) as err:
        run_suite("thm14_minor", nmax=8, corpus=str(huge))
    assert str(err.value).startswith(f"{huge}:2: graph6 '~~' form")


def test_corpus_refuses_isomorphic_duplicates(tmp_path):
    # two codes of one graph: the second line is refused, named with the first
    dup = tmp_path / "iso.g6"
    dup.write_text("GqGOOG\nGQGOOK\n")
    with pytest.raises(FormatError) as err:
        run_suite("thm14_minor", nmax=8, corpus=str(dup))
    assert str(err.value) == f"{dup}:2: duplicate graph, isomorphic to line 1"
    # the shipped corpus has none
    pool = harness._connected_pool(8, CORPUS)
    assert sum(1 for _, g in pool if g.n == 8) == 11117


def test_corpus_pool_is_loaded_once_per_text(tmp_path, monkeypatch):
    shard = write_shard(tmp_path / "shard.g6")
    parsed = Counter()
    parse = harness.parse_graph6

    def counted(text):
        parsed[text] += 1
        return parse(text)

    monkeypatch.setattr(harness, "parse_graph6", counted)

    def builtin_records(pool):
        # a corpus pool starts with the entries of the built-in n <= 7 pool
        builtin = harness._connected_pool(7, None)
        assert len(builtin) == 996
        return all(a[0] is b[0] for a, b in zip(pool, builtin))

    harness._clear_instances()
    pool = harness._connected_pool(8, shard)
    assert harness._connected_pool(8, shard) is pool
    assert len(parsed) == 464 and set(parsed.values()) == {1}
    assert builtin_records(pool)
    # a changed file is read afresh
    lines = Path(shard).read_text().splitlines()
    Path(shard).write_text("\n".join(lines[:10]) + "\n")
    smaller = harness._connected_pool(8, shard)
    assert len(smaller) == 996 + 10 and parsed[lines[0]] == 2
    assert builtin_records(smaller)
    # the records of cleared pools go with them
    harness._clear_instances()
    again = harness._connected_pool(8, shard)
    assert again is not smaller and parsed[lines[0]] == 3
    assert again[0][0] is not smaller[0][0] and builtin_records(again)


def zeroed(report: SuiteReport) -> str:
    report.elapsed = 0.0
    return report.json_text()


def test_reports_are_deterministic():
    assert zeroed(run_suite("tree_bound", nmax=9)) == zeroed(run_suite("tree_bound", nmax=9))
    # two fresh computations, not one read back from the instance table
    harness._clear_instances()
    first = zeroed(run_suite("prop10", nmax=5))
    harness._clear_instances()
    assert first == zeroed(run_suite("prop10", nmax=5))
    assert zeroed(run_suite("sauer_shelah")) == zeroed(run_suite("sauer_shelah"))


def test_sauer_shelah_refuses_an_instance_before_drawing_it():
    # the first draw at seed 1729 has 85688 vertices: refused with the
    # solver's own message before up to 2 * 85688 edges of as many bits each
    # are drawn
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError) as err:
            run_suite("sauer_shelah", nmax=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "vc_dimension: nverts=85688 exceeds cap 128"
    assert peak < 4 * 2**20


def test_seed_is_recorded_and_changes_nothing_else():
    default = run_suite("sauer_shelah")
    assert default.config["seed"] == 1729
    other = run_suite("sauer_shelah", seed=7)
    assert other.config["seed"] == 7
    assert other.passed and default.passed


def test_json_shape():
    r = run_suite("grid_chain")
    doc = json.loads(r.json_text())
    assert doc["schema"] == 1
    assert doc["suite"] == "grid_chain"
    assert doc["passed"] is True
    assert doc["failures"] == []
    assert doc["extras"]["diameter"]["2"] == {"measured": 4, "quoted": 8}
    assert isinstance(doc["elapsed"], float)


def test_table_and_csv_rendering():
    r = run_suite("grid_chain")
    table = r.table_text()
    assert "status     pass" in table
    assert "instances  3" in table
    rows = list(csv.reader(io.StringIO(r.csv_text())))
    assert rows == [["instance", "claim", "measured", "bound", "witness"]]

    red = run_suite("prop10", nmax=4)
    table = red.table_text()
    assert "status     FAIL" in table
    assert "INSTANCE" in table and "CLAIM" in table
    rows = list(csv.reader(io.StringIO(red.csv_text())))
    assert rows[0] == ["instance", "claim", "measured", "bound", "witness"]
    assert len(rows) == 1 + len(red.failures)
    assert rows[1][0] == red.failures[0].instance


def test_table_row_cap():
    red = run_suite("prop10")
    table = red.table_text(max_rows=5)
    assert "more (see JSON output)" in table


def test_generator_sweep_nmax_domains():
    with pytest.raises(DomainError):
        run_suite("grid_chain", nmax=1)
    with pytest.raises(DomainError):
        run_suite("line_example", nmax=1)
    assert run_suite("grid_chain", nmax=2).instances == 1
    assert run_suite("line_example", nmax=2).instances == 1


def test_failure_tuple_is_stable():
    f = Failure("a", "b", "c", "d", "e")
    assert list(f._asdict().items()) == [
        ("instance", "a"),
        ("claim", "b"),
        ("measured", "c"),
        ("bound", "d"),
        ("witness", "e"),
    ]
