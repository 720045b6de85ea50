"""Workload definitions at two scales: ``full`` is what the benchmark
measures, ``quick`` is a tiny slice of every path for the self-test."""

from __future__ import annotations

WORKLOADS = ["pool-n8", "families", "cli-cold"]

# the seven connected-graph suites; prop10 is red by design (the quoted
# inequality is false on small dense graphs) and its reference encodes that
POOL_SUITES = [
    "mdvstc_sandwich",
    "prop8",
    "prop10",
    "thm14_minor",
    "outerplanar_bound",
    "treedec_bound",
    "chordal_obs",
]

SCALES = {
    "full": {
        # the n=8 corpus is split into this many interleaved shards; a run
        # measures shard (seed mod shards) after the whole n<=7 pool
        "pool_shards": 24,
        "family_suites": [["extremal_specs", None], ["grid_chain", None], ["line_example", None]],
        # pinned family instances, each solved once per relabelling copy:
        # a single large search varies by 15-35% in cost with the labels,
        # so several seeded copies of a mid-size member keep a run steady;
        # the pass stays short enough for three or four of them in a run
        "pinned": [
            {"solve": "md", "family": "grid_chain", "args": [4], "copies": 4},
            {"solve": "tc", "family": "o", "args": [5, 2, False], "copies": 3},
            {"solve": "d2vc", "family": "line_example", "args": [3], "copies": 8},
        ],
        "gen_specs": [
            ["hs", "--d", "6", "--k", "2"],
            ["o", "--d", "6", "--k", "3", "--chords"],
            ["grid-chain", "--t", "3"],
            ["line-example", "--k", "3"],
        ],
        "verify": [["tree_bound", "--nmax", "14"], ["chordal_obs"]],
        # gen -> solve round trips per run, a multiple of the four specs
        # so that every run reports the same tail percentile; pool-n8 and
        # families run them as a control between passes, cli-cold needs
        # enough for its tail to sit well above the median
        "round_trips": {"pool-n8": 24, "families": 24, "cli-cold": 40},
    },
    "quick": {
        "pool_shards": 2000,
        "family_suites": [["extremal_specs", None], ["grid_chain", 2], ["line_example", 2]],
        "pinned": [
            {"solve": "md", "family": "grid_chain", "args": [2], "copies": 2},
            {"solve": "tc", "family": "o", "args": [2, 2, True], "copies": 2},
            {"solve": "d2vc", "family": "grid_chain", "args": [2], "copies": 2},
        ],
        "gen_specs": [
            ["hs", "--d", "4", "--k", "2"],
            ["o", "--d", "3", "--k", "2", "--chords"],
            ["grid-chain", "--t", "2"],
            ["line-example", "--k", "2"],
        ],
        "verify": [["tree_bound", "--nmax", "8"], ["chordal_obs", "--nmax", "5"]],
        "round_trips": {"pool-n8": 12, "families": 12, "cli-cold": 12},
    },
}

# solver cap used for every pinned family instance
PINNED_CAP = 128

# cli-cold: the comb tree whose ball hypergraph feeds hyper vc and hyper tc
COMB_SPEC = ["l", "--r", "3"]


def shard_lines(lines: list[str], scale: str, seed: int) -> list[str]:
    """The corpus subset a seed measures: drawn by the seed alone."""
    k = SCALES[scale]["pool_shards"]
    return lines[seed % k :: k]


def spec_key(argv: list[str]) -> str:
    return " ".join(argv)
