"""Exact minimum set cover, shared by the resolving-set and test-cover solvers.

Both problems reduce to covering a universe of constraint bits: metric
dimension covers vertex pairs (a landmark covers the pairs it separates),
test cover covers item-coverage bits plus item pairs. Mask bits above the
universe are ignored. The engine is a plain branch and bound: greedy result
as the initial upper bound, dominated candidates removed up front, and at
every node two lower bounds on the candidates still needed, the cheaper
first:

* Packing bound: uncovered elements no two of which share a candidate need
  one candidate each. The universe is relabelled once so that bit p is the
  p-th element of the branching order (fewest candidates first, then
  index), and each element's conflict mask (every element sharing a
  candidate with it) is built the first time the packing reaches it. The
  greedy packing is then "take the lowest uncovered bit, count it, clear
  its conflict mask": one step per packed element, not a scan of the
  universe.
* Caller's bound: the optional ``lower_bound`` hook lets a caller that
  knows the structure behind the masks bound the rest of the search.
  ``min_test_cover`` supplies the test-set split bound: a group of c items
  the chosen tests have not told apart needs ceil(log2 c) more tests, or
  ceil(log2(c + 1)) for the group that no chosen test contains, whose
  items must also be covered (Moret & Shapiro, SIAM J. Sci. Stat. Comput.
  1985).

No valid lower bound can change the returned cover. The children of a node
depend only on its covered set (branch on the lowest uncovered element; try
its candidates by coverage gain descending, then index), and a cover
replaces the incumbent only when strictly smaller. So the result is the
greedy cover when that is optimal, and otherwise the first optimal leaf of
the search tree in depth-first order: along the path to that leaf, chosen +
bound <= optimum < incumbent, so no valid bound prunes it. Bounds change
only how many nodes are visited. All tie-breaks are fixed, so results are
deterministic and certificates reproducible.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter
from typing import Any

from .errors import DomainError
from .graphs import iter_bits


def greedy_cover(universe_size: int, masks: list[int]) -> list[int]:
    """Greedy cover (largest gain first, ties to the lower index).

    Raises DomainError if the masks cannot cover the universe.
    """
    full = (1 << universe_size) - 1
    masks = [m & full for m in masks]
    cov = 0
    chosen: list[int] = []
    while cov != full:
        best = -1
        best_gain = 0
        for i, m in enumerate(masks):
            gain = (m & ~cov).bit_count()
            if gain > best_gain:
                best_gain = gain
                best = i
        if best < 0:
            raise DomainError("universe is not coverable by the given candidates")
        chosen.append(best)
        cov |= masks[best]
    return chosen


def min_cover(
    universe_size: int,
    masks: list[int],
    lower_bound: Callable[[Any, int], tuple[Any, int]] | None = None,
) -> list[int]:
    """Indices of a minimum cover, sorted ascending. Empty universe -> [].

    Exhaustive (no cap here; callers cap on their own instance size).
    ``lower_bound(state, i)`` is called once per candidate i (an index into
    ``masks``) chosen on a search path, with the state it returned for the
    path's previous candidate (None for the first), and returns the new
    state and a lower bound on how many more candidates any cover extending
    the chosen ones needs.
    """
    full = (1 << universe_size) - 1
    if full == 0:
        return []
    masks = [m & full for m in masks]

    # dominated-candidate elimination: drop any mask contained in another,
    # keeping the lowest index among exact duplicates; kept is ascending, so
    # ties between kept positions break as ties between indices
    first: dict[int, int] = {}
    for i, m in enumerate(masks):
        first.setdefault(m, i)
    kept: list[int] = []
    for m, i in first.items():
        for d in first:
            if m | d == d != m:
                break
        else:
            kept.append(i)
    kmasks = [masks[i] for i in kept]

    # per-constraint candidate sets (bitmask over positions in kept): the
    # transpose of the kept masks, read off their binary strings column by
    # column, most significant first
    rows = [format(m, f"0{universe_size}b") for m in reversed(kmasks)]
    cands = [int("".join(col), 2) for col in zip(*rows)] if rows else [0] * universe_size
    cands.reverse()
    for e in range(universe_size):
        if cands[e] == 0:
            raise DomainError(f"constraint {e} is not coverable")

    elem_order = sorted(range(universe_size), key=lambda e: (cands[e].bit_count(), e))
    best = greedy_cover(universe_size, kmasks)

    # relabel: bit p is element elem_order[p], so the lowest uncovered bit
    # is the first uncovered element in branching order
    rcands = [cands[e] for e in elem_order]
    pick = itemgetter(*[universe_size - 1 - e for e in reversed(elem_order)])
    rmasks = [int("".join(pick(row)), 2) for row in reversed(rows)]
    conflict = [0] * universe_size  # built on first use; never 0 once built

    def packing_reaches(free: int, room: int) -> bool:
        """Whether the greedy disjoint packing of ``free`` has >= room elements."""
        count = 0
        while free:
            p = (free & -free).bit_length() - 1
            c = conflict[p]
            if not c:
                for pos in iter_bits(rcands[p]):
                    c |= rmasks[pos]
                conflict[p] = c
            free &= ~c
            count += 1
            if count >= room:
                return True
        return False

    chosen: list[int] = []

    def dfs(cov: int, state: Any) -> None:
        nonlocal best
        if cov == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        room = len(best) - len(chosen)
        free = full & ~cov
        if packing_reaches(free, room):
            return
        if lower_bound is not None and chosen:
            state, bound = lower_bound(state, kept[chosen[-1]])
            if bound >= room:
                return
        branch = (free & -free).bit_length() - 1
        order = sorted(
            iter_bits(rcands[branch]),
            key=lambda i: (-(rmasks[i] & free).bit_count(), i),
        )
        for i in order:
            chosen.append(i)
            dfs(cov | rmasks[i], state)
            chosen.pop()

    dfs(0, None)
    return sorted(kept[i] for i in best)
