"""End-to-end command tests driving metriclab.cli.main in-process."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metriclab
from metriclab.bounds import bound_names
from metriclab.cli import main
from metriclab.harness import suite_names
from metriclab.graphs import parse_graph6
from metriclab.hypergraphs import Hypergraph, parse_hypergraph


@pytest.fixture
def cli(monkeypatch, capsys):
    def run(argv, stdin_text=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


P4_EDGES = "0 1\n1 2\n2 3\n"


def test_gen_emits_one_graph6_line(cli):
    code, out, err = cli(["gen", "hs", "--d", "6", "--k", "2"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    assert parse_graph6(lines[0]).n == 16


def test_gen_json_modes(cli, tmp_path):
    code, out, _ = cli(["gen", "o", "--d", "5", "--k", "3", "--chords", "--json", "-"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["family"] == "O"
    assert parse_graph6(doc["graph6"]).n == doc["order"]
    # file sidecar keeps the graph6 line on stdout
    dest = tmp_path / "spec.json"
    code, out, _ = cli(["gen", "l", "--r", "3", "--json", str(dest)])
    assert code == 0
    assert out.strip() == json.loads(dest.read_text())["graph6"]


def test_failed_certificate_exits_4(cli, monkeypatch):
    monkeypatch.setattr("metriclab.resolving.min_cover", lambda u, masks, lower_bound=None: [])
    code, out, err = cli(["solve", "md"], stdin_text=P4_EDGES)
    assert (code, out) == (4, "")
    assert err == "error: metric_dimension_exact: the solver returned a non-resolving set\n"


@pytest.mark.parametrize(
    "argv,want_dim",
    [
        (["gen", "hs", "--d", "6", "--k", "2"], 2),
        (["gen", "hs", "--d", "5", "--k", "3", "--a", "1"], 3),
        (["gen", "o", "--d", "4", "--k", "2"], 2),
        (["gen", "o", "--d", "5", "--k", "3", "--chords"], 3),
    ],
)
def test_round_trip_gen_then_solve(cli, argv, want_dim):
    # the pipe invariant: solving the emitted graph reproduces the
    # generator's predicted dimension
    code, out, _ = cli(argv)
    assert code == 0
    code, out, err = cli(["solve", "md"], stdin_text=out)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["dimension"] == want_dim
    assert doc["verified"] is True


def test_solve_md_autodetects_edge_list(cli):
    code, out, _ = cli(["solve", "md"], stdin_text=P4_EDGES)
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_solve_md_accepts_graph6_header(cli):
    code, out, _ = cli(["solve", "md"], stdin_text=">>graph6<<Bw\n")
    assert code == 0
    assert json.loads(out)["dimension"] == 2


def test_tree_md_rejects_cycles(cli):
    code, out, _ = cli(["solve", "tree-md"], stdin_text=P4_EDGES)
    assert code == 0 and json.loads(out)["dimension"] == 1
    code, out, err = cli(["solve", "tree-md"], stdin_text="Bw\n")
    assert code == 2 and out == "" and "error:" in err


def test_resolving_check_reports_both_ways(cli):
    code, out, _ = cli(["solve", "resolving-check", "--set", "0"], stdin_text=P4_EDGES)
    assert code == 0 and json.loads(out) == {"schema": 1, "set": [0], "resolving": True}
    code, out, _ = cli(["solve", "resolving-check", "--set", "1"], stdin_text=P4_EDGES)
    assert code == 0 and json.loads(out)["resolving"] is False
    code, out, err = cli(["solve", "resolving-check", "--set", "a,b"], stdin_text=P4_EDGES)
    assert code == 2 and out == ""


def test_hyper_pipeline(cli):
    code, g6, _ = cli(["gen", "l", "--r", "3"])
    code, htext, _ = cli(["hyper", "dhg"], stdin_text=g6)
    assert code == 0
    assert htext.splitlines()[0] == "p hyper 7 17"
    code, out, _ = cli(["hyper", "vc"], stdin_text=htext)
    doc = json.loads(out)
    assert code == 0 and doc["vc"] == 2 and len(doc["shattered"]) == 2
    code, out, _ = cli(["hyper", "vc2"], stdin_text=htext)
    assert code == 0 and json.loads(out)["vc2"] == 2
    code, out, _ = cli(["hyper", "tc"], stdin_text=htext)
    doc = json.loads(out)
    assert code == 0 and doc["size"] == len(doc["edges"]) == 4
    code, out, _ = cli(["hyper", "dual"], stdin_text=htext)
    assert code == 0 and out.splitlines()[0] == "p hyper 17 7"
    code, out, _ = cli(["hyper", "prop9"], stdin_text=htext)
    assert code == 0 and out.startswith("p hyper ")


def test_hyper_text_keeps_a_trailing_empty_edge(cli):
    # the dual of one edge {0} over two vertices ends in the empty edge of 1
    text = "p hyper 2 1\n0\n"
    code, dual, _ = cli(["hyper", "dual"], stdin_text=text)
    assert code == 0 and dual == "p hyper 1 2\n0\n\n"
    assert cli(["hyper", "dual"], stdin_text=dual) == (0, text, "")
    code, out, err = cli(["hyper", "prop9"], stdin_text="p hyper 2 2\n0\n1\n")
    assert code == 0 and err == ""
    assert parse_hypergraph(out) == Hypergraph(1, [1, 0])
    code, out, _ = cli(["hyper", "dhg"], stdin_text="@\n")
    assert code == 0 and out == "p hyper 1 1\n0\n"


def test_hyper_dhg_fixed_radius(cli):
    code, out, _ = cli(["hyper", "dhg", "--radius", "1"], stdin_text="0 1\n1 2\n")
    assert code == 0
    assert out.splitlines()[0] == "p hyper 3 3"


def test_td_flow(cli, tmp_path):
    _, g6, _ = cli(["gen", "grid-chain", "--t", "2"])
    gpath = tmp_path / "g.g6"
    gpath.write_text(g6)
    code, out, _ = cli(["td", "tw", str(gpath)])
    assert code == 0 and json.loads(out)["treewidth"] == 2
    dpath = tmp_path / "dec.td"
    code, out, _ = cli(["td", "tw", str(gpath), "--decomp", str(dpath)])
    assert code == 0 and dpath.read_text().startswith("s td ")
    code, out, _ = cli(["td", "validate", str(dpath), "--graph", str(gpath)])
    assert code == 0 and json.loads(out) == {"schema": 1, "valid": True, "violations": []}
    code, out, _ = cli(["td", "width", str(dpath), "--graph", str(gpath)])
    assert code == 0 and json.loads(out)["width"] == 2
    code, out, _ = cli(["td", "length", str(dpath), "--graph", str(gpath)])
    assert code == 0 and json.loads(out)["length"] >= 1
    code, out, _ = cli(["td", "reduce", str(dpath), "--graph", str(gpath)])
    assert code == 0 and out.startswith("s td ")
    code, out, _ = cli(["td", "tw", str(gpath), "--decomp", "-"])
    assert code == 0 and out.startswith("s td ")


def test_td_cliquetree(cli):
    code, out, _ = cli(["td", "cliquetree"], stdin_text="0 1\n1 2\n0 2\n")
    assert code == 0 and out.splitlines()[0].startswith("s td 1 3 3")
    # C4 is not chordal
    code, out, err = cli(["td", "cliquetree"], stdin_text="0 1\n1 2\n2 3\n0 3\n")
    assert code == 2 and out == "" and "error:" in err


def test_invalid_clique_tree_exits_4(cli, monkeypatch):
    from metriclab import treedec

    mst = treedec._max_weight_spanning_tree
    monkeypatch.setattr(treedec, "_max_weight_spanning_tree",
                        lambda masks: mst(masks)[1:])
    code, out, err = cli(["td", "cliquetree"], stdin_text=P4_EDGES)
    assert (code, out) == (4, "")
    assert err == "error: clique_tree: the clique tree is not a valid decomposition\n"


def test_td_validate_flags_bad_decomposition(cli, tmp_path):
    gpath = tmp_path / "p3.txt"
    gpath.write_text("0 1\n1 2\n")
    dpath = tmp_path / "bad.td"
    dpath.write_text("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")
    code, out, _ = cli(["td", "validate", str(dpath), "--graph", str(gpath)])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is False and doc["violations"]


def test_bound_verb(cli):
    code, out, _ = cli(["bound", "tree", "--d", "6", "--k", "2"])
    assert code == 0
    assert json.loads(out) == {
        "schema": 1, "name": "tree", "params": {"d": 6, "k": 2},
        "value": 16, "form": "exact",
    }
    code, out, _ = cli(["bound", "treedec", "--d", "4", "--k", "2", "--w", "2", "--l", "2"])
    assert code == 0 and json.loads(out)["form"] == "explicit-constant-of-proof"
    code, out, err = cli(["bound", "tree", "--d", "6"])  # k missing
    assert code == 2 and out == ""
    code, out, err = cli(["bound", "nosuch", "--d", "1", "--k", "1"])
    assert code == 2


def test_verify_pass_and_fail_exit_codes(cli):
    code, out, _ = cli(["verify", "tree_bound", "--nmax", "8"])
    assert code == 0
    assert "status     pass" in out
    code, out, _ = cli(["verify", "prop10", "--nmax", "4"])
    assert code == 1
    assert "status     FAIL" in out


def test_verify_output_formats(cli, tmp_path):
    code, out, _ = cli(["verify", "prop10", "--nmax", "4", "--csv"])
    assert code == 1
    rows = out.splitlines()
    assert rows[0] == "instance,claim,measured,bound,witness"
    assert len(rows) == 4
    code, out, _ = cli(["verify", "prop10", "--nmax", "4", "--json", "-"])
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["suite"] == "prop10" and not doc["passed"]
    dest = tmp_path / "rep.json"
    code, out, _ = cli(["verify", "tree_bound", "--nmax", "6", "--json", str(dest)])
    assert code == 0 and "status     pass" in out
    assert json.loads(dest.read_text())["suite"] == "tree_bound"
    code, out, err = cli(["verify", "prop10", "--nmax", "4", "--csv", "--json", "-"])
    assert code == 2 and out == "" and "stdout" in err


def test_verify_refuses_a_partial_corpus_order(cli, tmp_path):
    corpus = Path(__file__).parent / "data" / "connected8.g6"
    five = tmp_path / "five.g6"
    five.write_text("".join(corpus.read_text().splitlines(keepends=True)[:5]))
    argv = ["verify", "prop8", "--nmax", "8", "--corpus", str(five)]
    code, out, err = cli(argv)
    assert (code, out) == (2, "")
    assert err == (f"error: corpus {five} is partial (A001349): order 8 has 5 of 11117 "
                   "graphs; pass --partial to run on it anyway\n")
    code, out, err = cli(argv + ["--partial"])
    assert code == 0 and "instances  1001" in out
    assert err == f"warning: corpus {five} is partial (A001349): order 8 has 5 of 11117 graphs\n"
    # a suite that reads no corpus, or an order range that reads none, is not checked
    assert cli(["verify", "tree_bound", "--nmax", "8", "--corpus", str(five)])[::2] == (0, "")
    assert cli(["verify", "prop8", "--nmax", "5", "--corpus", str(five)])[::2] == (0, "")
    # the shipped corpus holds every order-8 graph
    code, out, err = cli(["verify", "chordal_obs", "--nmax", "8", "--corpus", str(corpus)])
    assert (code, err) == (0, "") and "status     pass" in out


def test_usage_errors(cli):
    assert cli([])[0] == 2
    assert cli(["frobnicate"])[0] == 2
    assert cli(["gen", "hs", "--d", "6"])[0] == 2
    assert cli(["verify", "nosuch"])[0] == 2
    assert cli(["--help"])[0] == 0


@pytest.mark.parametrize("suite", ["sauer_shelah", "prop8"])
@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_verify_rejects_empty_order_range(cli, suite, nmax):
    code, out, err = cli(["verify", suite, "--nmax", nmax])
    assert code == 2 and out == "" and "nmax must be at least 1" in err


def test_size_cap_exit_code(cli):
    code, out, err = cli(["solve", "md", "--maxn", "3"], stdin_text="IheA@GUAo\n")
    assert code == 3 and out == "" and "cap" in err
    code, out, err = cli(["gen", "line-example", "--k", "9"])
    assert code == 3
    code, out, err = cli(["gen", "line-example", "--k", "9", "--maxn", "9"])
    assert code == 0


def test_cap_precedence_flag_beats_config(cli, tmp_path):
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("md_n = 4\n")
    code, out, err = cli(["solve", "md", "--config", str(cfg)], stdin_text="IheA@GUAo\n")
    assert code == 3
    code, out, _ = cli(
        ["solve", "md", "--config", str(cfg), "--maxn", "12"], stdin_text="IheA@GUAo\n"
    )
    assert code == 0 and json.loads(out)["dimension"] == 3


def test_cap_precedence_environment_beats_config(cli, tmp_path, monkeypatch):
    # --maxn, then METRICLAB_MAXN, then the config file, then the defaults
    monkeypatch.setenv("METRICLAB_MAXN", "5")
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("md_n = 100\n")
    for argv in (["solve", "md"], ["solve", "md", "--config", str(cfg)]):
        code, out, err = cli(argv, stdin_text="IheA@GUAo\n")
        assert (code, out) == (3, "") and "exceeds cap 5" in err
    code, out, _ = cli(
        ["solve", "md", "--config", str(cfg), "--maxn", "12"], stdin_text="IheA@GUAo\n"
    )
    assert code == 0 and json.loads(out)["dimension"] == 3


def test_bad_cap_input_is_refused(cli, tmp_path, monkeypatch):
    cfg = tmp_path / "caps.cfg"
    cases = [
        ("md_n\n", f"{cfg}:1: expected key=value, got 'md_n'"),
        ("foo = 3\n", f"{cfg}:1: unknown cap 'foo'"),
        ("# caps\n\nmd_n = x\n", f"{cfg}:3: md_n needs an integer"),
    ]
    for text, message in cases:
        cfg.write_text(text)
        got = cli(["solve", "md", "--config", str(cfg)], stdin_text="IheA@GUAo\n")
        assert got == (2, "", f"error: {message}\n")
    monkeypatch.setenv("METRICLAB_MAXN", "abc")
    got = cli(["solve", "md"], stdin_text="IheA@GUAo\n")
    assert got == (2, "", "error: METRICLAB_MAXN must be an integer, got 'abc'\n")


def test_hyper_tc_config_reads_the_test_cover_cap(cli, tmp_path):
    # 25 vertices, one edge per bit of the codes 1..25: twin-free, the five
    # edges form the unique minimum test cover
    edges = [" ".join(str(v) for v in range(25) if (v + 1) >> j & 1) for j in range(5)]
    text = "p hyper 25 5\n" + "\n".join(edges) + "\n"
    want = '{"edges": [0, 1, 2, 3, 4], "schema": 1, "size": 5}\n'
    assert cli(["hyper", "tc"], stdin_text=text) == (0, want, "")
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("minor_n = 14\n")
    assert cli(["hyper", "tc", "--config", str(cfg)], stdin_text=text) == (0, want, "")
    cfg.write_text("md_n = 24\n")
    code, out, err = cli(["hyper", "tc", "--config", str(cfg)], stdin_text=text)
    assert code == 3 and out == "" and "cap 24" in err


def test_hyper_prop9_caps_the_dual_search_by_default(cli, tmp_path):
    # 25 singleton edges: the dual has 25 vertices, one over the vc_n cap
    text = "p hyper 25 25\n" + "\n".join(str(i) for i in range(25)) + "\n"
    code, out, err = cli(["hyper", "prop9"], stdin_text=text)
    assert code == 3 and out == "" and "cap 24" in err
    cfg = tmp_path / "caps.cfg"
    cfg.write_text("minor_n = 14\n")
    code, out, err = cli(["hyper", "prop9", "--config", str(cfg)], stdin_text=text)
    assert code == 3 and out == "" and "cap 24" in err
    code, out, err = cli(["hyper", "prop9", "--maxn", "25"], stdin_text=text)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "p hyper 1 2"


def test_oversized_inputs_exit_before_allocating(cli):
    code, out, err = cli(["solve", "md"], stdin_text="0 1000000000\n")
    assert code == 3 and out == "" and "cap" in err
    code, out, err = cli(["hyper", "vc"], stdin_text="p hyper 1000000000 0\n")
    assert code == 3 and out == "" and "cap" in err
    # 64^3 = 262144 vertices: refused before the grid chain is built
    code, out, err = cli(["gen", "grid-chain", "--t", "64"])
    assert code == 3 and out == "" and "258047" in err


def test_missing_input_file(cli, tmp_path):
    code, out, err = cli(["solve", "md", str(tmp_path / "absent.g6")])
    assert code == 2 and out == "" and "cannot read" in err


def test_empty_input(cli):
    code, out, err = cli(["solve", "md"], stdin_text="# only a comment\n\n")
    assert code == 2 and "empty graph input" in err


def test_config_help_gives_the_cap_precedence(cli):
    for argv in (["solve", "md", "--help"], ["gen", "line-example", "--help"]):
        code, out, _ = cli(argv)
        assert code == 0 and "--maxn, then METRICLAB_MAXN, win over" in out


def test_cap_flags_only_on_ops_that_read_a_cap(cli):
    # an op without a cap refuses the flags instead of ignoring them
    code, out, err = cli(["hyper", "dhg", "--maxn", "1"], stdin_text=P4_EDGES)
    assert (code, out) == (2, "") and "--maxn" in err
    code, out, err = cli(["td", "cliquetree", "--config", "x"], stdin_text=P4_EDGES)
    assert (code, out) == (2, "") and "--config" in err


# one fresh interpreter runs main(argv) and reports what it loaded
_LOADS = """
import io, json, sys
from metriclab.cli import main
sys.stdout = io.StringIO()
code = main(sys.argv[1:])
out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
print(json.dumps({
    "code": code,
    "out": out,
    "metriclab": sorted(m for m in sys.modules if m.split(".")[0] == "metriclab"),
    "heavy": [m for m in ("dataclasses", "inspect") if m in sys.modules],
}))
"""


def _fresh(argv, stdin_text=""):
    src = str(Path(metriclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS, *argv],
        input=stdin_text, capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_each_verb_loads_only_its_own_modules():
    core = {"metriclab", "metriclab.cli", "metriclab.errors"}
    gen = _fresh(["gen", "hs", "--d", "6", "--k", "2"])
    solve = _fresh(["solve", "md"], gen["out"])
    vc = _fresh(["hyper", "vc"], "p hyper 3 3\n0 1\n1 2\n0 2\n")
    help_ = _fresh(["--help"])
    td = _fresh(["td", "tw", "--decomp", "-"], gen["out"])
    bound = _fresh(["bound", "trivial", "--d", "3", "--k", "2"])
    verify = _fresh(["verify", "grid_chain", "--nmax", "2"])
    assert json.loads(solve["out"])["dimension"] == 2
    assert td["out"].startswith("s td ")
    every = {"config", "graphs", "setcover", "hypergraphs", "resolving", "extremal",
             "enumeration", "minors", "treedec", "bounds", "harness"}
    for run, extra in (
        (gen, {"config", "graphs", "extremal"}),
        (solve, {"config", "graphs", "setcover", "hypergraphs", "resolving"}),
        (vc, {"config", "graphs", "setcover", "hypergraphs"}),
        (help_, set()),
        (td, {"config", "graphs", "treedec"}),
        (bound, {"bounds"}),
        (verify, every),
    ):
        assert run["code"] == 0 and run["out"]
        assert set(run["metriclab"]) == core | {f"metriclab.{m}" for m in extra}
        assert run["heavy"] == []


def test_lazy_choices_still_list_every_suite_and_bound(cli):
    code, out, _ = cli(["verify", "--help"])
    assert code == 0 and all(name in out for name in suite_names())
    code, out, _ = cli(["bound", "--help"])
    assert code == 0 and all(name in out for name in bound_names())
