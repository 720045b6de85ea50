"""Exact minimum set cover, shared by the resolving-set and test-cover solvers.

Both problems reduce to covering a universe of constraint bits: metric
dimension covers vertex pairs (a landmark covers the pairs it separates),
test cover covers item-coverage bits plus item pairs. Mask bits above the
universe are ignored. The engine is a plain branch and bound: greedy result
as the initial upper bound, dominated candidates removed up front, and at
every node two lower bounds on the candidates still needed, the cheaper
first:

* Packing bound: uncovered elements no two of which share a candidate need
  one candidate each. The branching order is fewest candidates first, then
  element index. The counts come from adding the kept masks bit-sliced,
  and they split the universe into one element mask per count, ascending;
  inside a mask, ascending bits are ascending indices. So the first
  uncovered element is the lowest bit of the first group that still has
  one. Each element's candidate list and conflict mask (every element
  sharing a candidate with it) are built the first time the search reaches
  it. The greedy packing walks the groups in order: "take the first
  uncovered element, count it, clear its conflict mask", one step per
  packed element, not a scan of the universe.
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
from typing import Any

from .errors import DomainError


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

    union = 0
    for m in kmasks:
        union |= m
    if union != full:
        missing = full & ~union
        raise DomainError(f"constraint {(missing & -missing).bit_length() - 1} is not coverable")

    # each element's candidate count, bit-sliced: digits[j] holds the
    # elements whose count has bit j set, and each kept mask is added to
    # the counter along one carry chain
    digits: list[int] = []
    for m in kmasks:
        for j, d in enumerate(digits):
            digits[j] = d ^ m
            m &= d
            if not m:
                break
        else:
            digits.append(m)
    # one element mask per count, ascending: splitting on the most
    # significant digit first keeps the lower counts in front
    groups = [full]
    for d in reversed(digits):
        groups = [h for g in groups for h in (g & ~d, g & d) if h]

    best = greedy_cover(universe_size, kmasks)
    # per element, built on first use: its candidates (positions in kept,
    # ascending) and its conflict mask (every element sharing a candidate
    # with it, itself included, so never 0 once built)
    cands: list[list[int]] = [[]] * universe_size
    conflict = [0] * universe_size

    def packing(free: int, room: int) -> int:
        """The first element of ``free`` in branching order, or -1 when the
        greedy disjoint packing of ``free`` has >= room elements."""
        head = -1
        count = 0
        for g in groups:
            f = free & g
            while f:
                e = (f & -f).bit_length() - 1
                c = conflict[e]
                if not c:
                    bit = 1 << e
                    cands[e] = [i for i, m in enumerate(kmasks) if m & bit]
                    for i in cands[e]:
                        c |= kmasks[i]
                    conflict[e] = c
                if head < 0:
                    head = e
                count += 1
                if count >= room:
                    return -1
                free &= ~c
                f &= ~c
            if not free:
                break
        return head

    chosen: list[int] = []

    def dfs(cov: int, state: Any) -> None:
        nonlocal best
        if cov == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        room = len(best) - len(chosen)
        free = full & ~cov
        branch = packing(free, room)
        if branch < 0:
            return
        if lower_bound is not None and chosen:
            state, bound = lower_bound(state, kept[chosen[-1]])
            if bound >= room:
                return
        # gain descending; the sort is stable, so ties stay in index order
        for i in sorted(cands[branch], key=lambda i: -(kmasks[i] & free).bit_count()):
            chosen.append(i)
            dfs(cov | kmasks[i], state)
            chosen.pop()

    dfs(0, None)
    return sorted(kept[i] for i in best)
