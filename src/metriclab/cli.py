"""Command-line entry point.

One binary with verb subcommands: gen (extremal families), solve (metric
dimension), hyper (hypergraph ops), td (tree decompositions), bound
(closed-form bounds), verify (claim suites). stdout carries exactly one
machine-parseable payload per invocation (graph6, hypergraph text, PACE
text, JSON, CSV, or the verify table); diagnostics go to stderr.

A process loads only what its verb uses: each handler imports its own
modules, and the parser fills in the arguments of the verb being run alone
(every verb is still listed, so help and usage errors read the same).

Exit codes: 0 success or suite pass, 1 suite failure, 2 usage or bad
input, 3 instance over its size cap, 4 a solver's answer failed its own
certificate check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DomainError, FormatError, InternalError, TooLargeError


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_graph(path: str):
    """graph6 by default; 'u v' integer pairs switch to edge-list mode."""
    from .graphs import parse_edge_list, parse_graph6

    text = _read_text(path)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty graph input")
    parts = lines[0].split()
    if len(parts) == 2:
        try:
            int(parts[0]), int(parts[1])
        except ValueError:
            pass
        else:
            return parse_edge_list(text)
    return parse_graph6(lines[0])


def _cap(args, field: str) -> int | None:
    """Explicit --maxn beats the config file; neither means library defaults."""
    if args.maxn is not None:
        return args.maxn
    if args.config:
        from .config import load_config

        return getattr(load_config(args.config), field)
    return None


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _vertex_set(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> tuple[str, int]:
    from .extremal import gen_grid_chain, gen_hs, gen_l, gen_line_example, gen_o
    from .graphs import to_graph6

    if args.family == "l":
        g = gen_l(args.r)
        doc = {"schema": 1, "family": "l", "params": {"r": args.r}, "order": g.n}
    elif args.family == "hs":
        g, spec = gen_hs(args.d, args.k, args.a)
        doc = spec.to_json()
    elif args.family == "o":
        g, spec = gen_o(args.d, args.k, with_chords=args.chords)
        doc = spec.to_json()
    elif args.family == "grid-chain":
        g, spec = gen_grid_chain(args.t)
        doc = spec.to_json()
    else:
        g, spec = gen_line_example(args.k, maxk=_cap(args, "line_k"))
        doc = spec.to_json()
    code = to_graph6(g)
    doc["graph6"] = code
    if args.json == "-":
        return _json_line(doc), 0
    if args.json:
        Path(args.json).write_text(_json_line(doc), encoding="utf-8")
    return code + "\n", 0


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> tuple[str, int]:
    from .resolving import is_resolving, metric_dimension_exact, tree_metric_dimension

    g = _read_graph(args.input)
    if args.op == "md":
        cert = metric_dimension_exact(g, maxn=_cap(args, "md_n"))
        return _json_line(cert.to_json()), 0
    if args.op == "tree-md":
        cert = tree_metric_dimension(g)
        return _json_line(cert.to_json()), 0
    ok = is_resolving(g, args.set)
    return _json_line({"schema": 1, "set": sorted(args.set), "resolving": ok}), 0


# ---------------------------------------------------------------------------
# hyper


def _cmd_hyper(args) -> tuple[str, int]:
    from .hypergraphs import (
        distance_hypergraph,
        distance_hypergraph_fixed_radius,
        dual,
        format_hypergraph,
        min_test_cover,
        parse_hypergraph,
        prop9_witness,
        vc2_dimension,
        vc_dimension,
    )

    if args.op == "dhg":
        g = _read_graph(args.input)
        if args.radius is not None:
            h = distance_hypergraph_fixed_radius(g, args.radius)
        else:
            h = distance_hypergraph(g)
        return format_hypergraph(h), 0
    h = parse_hypergraph(_read_text(args.input))
    if args.op == "dual":
        return format_hypergraph(dual(h)), 0
    # the test cover shares the metric-dimension set-cover engine and cap
    cap = _cap(args, "md_n" if args.op == "tc" else "vc_n")
    if args.op == "vc":
        k, witness = vc_dimension(h, maxn=cap)
        shattered = witness.vertices if witness else []
        return _json_line({"schema": 1, "vc": k, "shattered": shattered}), 0
    if args.op == "vc2":
        k, witness = vc2_dimension(h, maxn=cap)
        return _json_line({"schema": 1, "vc2": k, "set": witness.vertices}), 0
    if args.op == "tc":
        chosen = min_test_cover(h, maxn=cap)
        return _json_line({"schema": 1, "size": len(chosen), "edges": chosen}), 0
    return format_hypergraph(prop9_witness(h, maxn=cap)), 0


# ---------------------------------------------------------------------------
# td


def _cmd_td(args) -> tuple[str, int]:
    from .treedec import (
        clique_tree,
        format_pace,
        length,
        parse_pace,
        reduce,
        treewidth_exact,
        validate,
        width,
    )

    if args.op == "cliquetree":
        g = _read_graph(args.input)
        return format_pace(clique_tree(g)), 0
    if args.op == "tw":
        g = _read_graph(args.input)
        tw, td = treewidth_exact(g, maxn=_cap(args, "treewidth_n"))
        if args.decomp == "-":
            return format_pace(td), 0
        if args.decomp:
            Path(args.decomp).write_text(format_pace(td), encoding="utf-8")
        return _json_line({"schema": 1, "treewidth": tw}), 0
    host = _read_graph(args.graph)
    td = parse_pace(_read_text(args.input), host)
    if args.op == "validate":
        violations = validate(td)
        return _json_line({"schema": 1, "valid": not violations, "violations": violations}), 0
    if args.op == "width":
        return _json_line({"schema": 1, "width": width(td)}), 0
    if args.op == "length":
        return _json_line({"schema": 1, "length": length(td)}), 0
    return format_pace(reduce(td)), 0


# ---------------------------------------------------------------------------
# bound / verify


def _cmd_bound(args) -> tuple[str, int]:
    from .bounds import BOUND_PARAMS, evaluate_bound

    params = {p: getattr(args, p) for p in BOUND_PARAMS if getattr(args, p) is not None}
    # the document's keys are BoundValue's fields, sorted as every JSON line is
    return _json_line({"schema": 1, **evaluate_bound(args.name, **params)._asdict()}), 0


def _cmd_verify(args) -> tuple[str, int]:
    from .harness import corpus_shortfalls, run_suite

    if args.csv and args.json == "-":
        raise DomainError("--csv conflicts with --json - (both claim stdout)")
    short = corpus_shortfalls(args.suite, args.nmax, args.corpus)
    if short:
        what = f"corpus {args.corpus} is partial (A001349): " + "; ".join(short)
        if not args.partial:
            raise DomainError(what + "; pass --partial to run on it anyway")
        print(f"warning: {what}", file=sys.stderr)
    report = run_suite(args.suite, nmax=args.nmax, seed=args.seed, corpus=args.corpus)
    code = 0 if report.passed else 1
    if args.json == "-":
        return report.json_text(), code
    if args.json:
        Path(args.json).write_text(report.json_text(), encoding="utf-8")
    if args.csv:
        return report.csv_text(), code
    return report.table_text(), code


# ---------------------------------------------------------------------------
# parser: one function per verb adds that verb's arguments


_CONFIG_HELP = "key=value cap file; --maxn, then METRICLAB_MAXN, win over it"


def _add_io(sub) -> None:
    sub.add_argument("input", nargs="?", default="-", help="input file, or - for stdin")


def _add_cap(sub, maxn_help="override the size cap for this call") -> None:
    # only for the ops that read a cap (see _cap); any other op refuses them
    sub.add_argument("--maxn", type=int, help=maxn_help)
    sub.add_argument("--config", help=_CONFIG_HELP)


def _gen_args(gen) -> None:
    fams = gen.add_subparsers(dest="family", required=True)
    p = fams.add_parser("l", help="comb tree used as a building block")
    p.add_argument("--r", type=int, required=True)
    p = fams.add_parser("hs", help="comb assembly attaining the tree bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, help="split for odd diameters (required there)")
    p = fams.add_parser("o", help="outerplanar family with prescribed diameter and dimension")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--chords", action="store_true", help="add the nested chord fan")
    p = fams.add_parser("grid-chain", help="chain of t square grids with a 3-point resolving set")
    p.add_argument("--t", type=int, required=True)
    p = fams.add_parser("line-example", help="line graph separating dimension from vc")
    p.add_argument("--k", type=int, required=True)
    _add_cap(p, "override the k cap")
    for sp in fams.choices.values():
        sp.add_argument("--json", metavar="OUT", help="write the spec JSON to OUT (- replaces the graph6 line)")


def _solve_args(solve) -> None:
    ops = solve.add_subparsers(dest="op", required=True)
    p = ops.add_parser("md", help="exact metric dimension with certificate")
    _add_io(p)
    _add_cap(p)
    p = ops.add_parser("tree-md", help="closed-form tree metric dimension")
    _add_io(p)
    p = ops.add_parser("resolving-check", help="test whether a given set resolves")
    _add_io(p)
    p.add_argument("--set", type=_vertex_set, required=True, metavar="V1,V2,...")


def _hyper_args(hyper) -> None:
    ops = hyper.add_subparsers(dest="op", required=True)
    p = ops.add_parser("dhg", help="distance hypergraph of a graph")
    _add_io(p)
    p.add_argument("--radius", type=int, help="single-radius ball family instead of all radii")
    for name, text in (
        ("vc", "vc dimension with a shattered witness"),
        ("vc2", "2-vc dimension with its witness set"),
        ("dual", "incidence-transposed hypergraph"),
        ("tc", "minimum test cover"),
        ("prop9", "twin-free reduction witness"),
    ):
        p = ops.add_parser(name, help=text)
        _add_io(p)
        if name != "dual":
            _add_cap(p)


def _td_args(td) -> None:
    ops = td.add_subparsers(dest="op", required=True)
    for name, text in (
        ("validate", "check bag cover, edge cover, and connectivity"),
        ("width", "max bag size minus one"),
        ("length", "max in-bag host distance"),
        ("reduce", "absorb nested bags"),
    ):
        p = ops.add_parser(name, help=text)
        _add_io(p)
        p.add_argument("--graph", required=True, help="host graph file (graph6 or edge list)")
    p = ops.add_parser("cliquetree", help="clique tree of a chordal graph")
    _add_io(p)
    p = ops.add_parser("tw", help="exact treewidth")
    _add_io(p)
    _add_cap(p)
    p.add_argument("--decomp", metavar="OUT", help="also write the decomposition (- replaces the JSON)")


def _bound_args(bound) -> None:
    from .bounds import BOUND_PARAMS, bound_names

    bound.add_argument("name", choices=bound_names())
    for p_name in BOUND_PARAMS:
        bound.add_argument(f"--{p_name}", type=int)


def _verify_args(verify) -> None:
    from .harness import suite_names

    verify.add_argument("suite", choices=suite_names())
    verify.add_argument("--nmax", type=int, help="pool limit (meaning is per suite)")
    verify.add_argument("--corpus", help="graph6 corpus file for pools past n=7")
    verify.add_argument("--partial", action="store_true",
                        help="run on a corpus that lacks part of an order (warns on stderr)")
    verify.add_argument("--seed", type=int, help="PRNG seed for the randomized suite")
    verify.add_argument("--json", metavar="OUT", help="write the JSON report (- replaces the table)")
    verify.add_argument("--csv", action="store_true", help="emit failures as CSV instead of the table")


# verb -> (help, arguments, handler), in the order help lists them
_VERBS = {
    "gen": ("emit an extremal family member as graph6", _gen_args, _cmd_gen),
    "solve": ("metric dimension solvers", _solve_args, _cmd_solve),
    "hyper": ("hypergraph operations", _hyper_args, _cmd_hyper),
    "td": ("tree decomposition operations", _td_args, _cmd_td),
    "bound": ("closed-form order bounds", _bound_args, _cmd_bound),
    "verify": ("run a claim suite", _verify_args, _cmd_verify),
}


def build_parser(verb: str | None) -> argparse.ArgumentParser:
    """Every verb with its help line, and the arguments of ``verb`` alone
    (of none when ``verb`` is not a verb name)."""
    parser = argparse.ArgumentParser(
        prog="metriclab",
        description="exact metric-dimension toolkit: generators, solvers, decompositions, claim suites",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    for name, (text, add_args, _) in _VERBS.items():
        sub = verbs.add_parser(name, help=text)
        if name == verb:
            add_args(sub)
    return parser


# error type -> exit code (see the module docstring)
_EXIT_CODES = {FormatError: 2, DomainError: 2, OSError: 2, TooLargeError: 3, InternalError: 4}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse takes the first word that is not an option as the verb
    verb = next((a for a in argv if not a.startswith("-")), None)
    try:
        args = build_parser(verb).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text, code = _VERBS[args.verb][2](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
