"""Fuzzed input: every parser refuses bad text with a MetriclabError, and
the CLI turns any such refusal into exit 2 with nothing on stdout."""

import io
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.cli import main
from metriclab.errors import MetriclabError
from metriclab.graphs import parse_edge_list, parse_graph6
from metriclab.hypergraphs import parse_hypergraph
from metriclab.treedec import parse_pace

P4 = parse_edge_list("0 1\n1 2\n2 3\n")

_CHARS = st.characters(min_codepoint=0, max_codepoint=200)
_NUMS = ["0", "1", "2", "3", "4", "5", "-1", "258047", "9" * 30, "x", "1.5", "", "#"]


def _lines(head, tokens):
    """A header from ``head``, then up to six lines of up to four tokens."""
    line = st.lists(st.sampled_from(tokens), max_size=4).map(" ".join)
    return st.tuples(head, st.lists(line, max_size=6)).map(lambda t: "\n".join([t[0], *t[1]]))


def _near_or_free(near):
    return st.one_of(near, st.text(_CHARS, max_size=40))


GRAPH6 = _near_or_free(
    st.tuples(
        st.sampled_from(["", ">>graph6<<", "~", "~?", "~~", " "]),
        st.text(st.characters(min_codepoint=60, max_codepoint=130), max_size=24),
    ).map("".join)
)
EDGE_LIST = _near_or_free(_lines(st.sampled_from(["", "# c", "0 1"]), _NUMS))
HYPERGRAPH = _near_or_free(
    _lines(
        st.builds("p hyper {} {}".format, st.sampled_from(_NUMS), st.sampled_from(_NUMS))
        | st.sampled_from(["p hyper", "p graph 2 2", ""]),
        _NUMS,
    )
)
PACE = _near_or_free(
    _lines(
        st.builds(
            "s td {} {} {}".format,
            st.sampled_from(_NUMS),
            st.sampled_from(_NUMS),
            st.sampled_from(["4", "3", "x"]),
        )
        | st.sampled_from(["s td", "c comment", ""]),
        ["b", "c", *_NUMS],
    )
)


def _refuses_cleanly(parse, text):
    try:
        parse(text)
    except MetriclabError:
        pass


@settings(max_examples=200, deadline=None)
@given(GRAPH6)
def test_parse_graph6_raises_only_metriclab_errors(text):
    _refuses_cleanly(parse_graph6, text)


@settings(max_examples=200, deadline=None)
@given(EDGE_LIST)
def test_parse_edge_list_raises_only_metriclab_errors(text):
    _refuses_cleanly(parse_edge_list, text)


@settings(max_examples=200, deadline=None)
@given(HYPERGRAPH)
def test_parse_hypergraph_raises_only_metriclab_errors(text):
    _refuses_cleanly(parse_hypergraph, text)


@settings(max_examples=200, deadline=None)
@given(PACE)
def test_parse_pace_raises_only_metriclab_errors(text):
    _refuses_cleanly(lambda t: parse_pace(t, P4), text)


def _run(argv, stdin_text):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


# '!' (chr 33) is below the graph6 range and is not an integer, so no
# reader accepts a text that starts with it
GARBAGE = st.text(_CHARS, max_size=40).map(lambda t: "!" + t)


@settings(max_examples=60, deadline=None)
@given(GARBAGE)
def test_cli_garbage_exits_2_with_empty_stdout(tmp_path_factory, text):
    host = tmp_path_factory.getbasetemp() / "p4.txt"
    host.write_text("0 1\n1 2\n2 3\n")
    for argv in (["solve", "md"], ["hyper", "vc"], ["td", "validate", "--graph", str(host)]):
        code, out, err = _run(argv, text)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.endswith("\n"), argv
