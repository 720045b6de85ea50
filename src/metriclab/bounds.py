"""Closed-form order bounds in diameter d and metric dimension k, exact
integer arithmetic throughout.

Most formulas are sharp statements; the decomposition bound is the explicit
constant readable off a proof and is tagged as such so reports can tell the
two kinds apart.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InternalError


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def bound_trivial(d: int, k: int) -> int:
    _need(d >= 1 and k >= 1, "bound_trivial needs d >= 1, k >= 1")
    return d ** k + k


def bound_hmmpsw(d: int, k: int) -> int:
    _need(d >= 1 and k >= 1, "bound_hmmpsw needs d >= 1, k >= 1")
    tail = sum((2 * i - 1) ** (k - 1) for i in range(1, (d + 2) // 3 + 1))
    return (2 * d // 3 + 1) ** k + k * tail


def bound_tree(d: int, k: int) -> int:
    """Tight tree bound; the parity-split product is always divisible by 8.

    Accepts d, k >= 0 so sweeps can score every tree (paths included); the
    tightness statement itself only concerns k >= 2.
    """
    _need(d >= 0 and k >= 0, "bound_tree needs d >= 0, k >= 0")
    num = (k * d + 4) * (d + 2) if d % 2 == 0 else (k * d - k + 8) * (d + 1)
    if num % 8:
        raise InternalError(f"bound_tree: {num} is not divisible by 8")
    return num // 8


def bound_treedec(d: int, k: int, w: int, l: int) -> int:
    _need(d >= 1 and k >= 1 and w >= 1 and l >= 0,
          "bound_treedec needs d, k, w >= 1 and l >= 0")
    return (2 * k - 1) * (d + 1) ** 2 * (l + 1) * (2 * l + 1) ** (3 * w)


def bound_treedec_treewidth(d: int, k: int, w: int) -> int:
    """Length-free specialization: a width-w decomposition never needs
    length beyond the diameter."""
    return bound_treedec(d, k, w, d)


def bound_treedec_chordal(d: int, k: int) -> int:
    """Chordal specialization: clique trees have length 1 and width < 3^k."""
    return bound_treedec(d, k, 3 ** k, 1)


def bound_minorfree(d: int, k: int, t: int) -> int:
    _need(d >= 1 and k >= 1 and t >= 2, "bound_minorfree needs d, k >= 1, t >= 2")
    return (d * k + 1) ** (t - 1) + 1


def bound_rankwidth(d: int, k: int, r: int) -> int:
    _need(d >= 1 and k >= 1 and r >= 0, "bound_rankwidth needs d, k >= 1, r >= 0")
    return (d * k + 1) ** (d * (3 * 2 ** r + 2)) + 1


def bound_outerplanar(d: int, k: int) -> int:
    _need(d >= 1 and k >= 1, "bound_outerplanar needs d >= 1, k >= 1")
    return 2 * k * d * d - 2 * d * d + d + 1


def bound_tc_vc(tc: int, vcstar: int) -> int:
    _need(tc >= 1 and vcstar >= 0, "bound_tc_vc needs tc >= 1, vcstar >= 0")
    return tc ** vcstar + 1


def bound_md_vcdim(d: int, k: int, dvcstar: int) -> int:
    _need(d >= 0 and k >= 0 and dvcstar >= 0,
          "bound_md_vcdim needs nonnegative parameters")
    return (d * k + 1) ** dvcstar + 1


class BoundValue(NamedTuple):
    name: str
    params: dict
    value: int
    form: str  # "exact" or "explicit-constant-of-proof"


_REGISTRY = {
    "trivial": (bound_trivial, ("d", "k"), "exact"),
    "hmmpsw": (bound_hmmpsw, ("d", "k"), "exact"),
    "tree": (bound_tree, ("d", "k"), "exact"),
    "treedec": (bound_treedec, ("d", "k", "w", "l"), "explicit-constant-of-proof"),
    "treedec_treewidth": (
        bound_treedec_treewidth, ("d", "k", "w"), "explicit-constant-of-proof"
    ),
    "treedec_chordal": (
        bound_treedec_chordal, ("d", "k"), "explicit-constant-of-proof"
    ),
    "minorfree": (bound_minorfree, ("d", "k", "t"), "exact"),
    "rankwidth": (bound_rankwidth, ("d", "k", "r"), "exact"),
    "outerplanar": (bound_outerplanar, ("d", "k"), "exact"),
    "tc_vc": (bound_tc_vc, ("tc", "vcstar"), "exact"),
    "md_vcdim": (bound_md_vcdim, ("d", "k", "dvcstar"), "exact"),
}


def bound_names() -> list[str]:
    return sorted(_REGISTRY)


def evaluate_bound(name: str, **params: int) -> BoundValue:
    """Evaluate a named bound; rejects unknown names and wrong parameter sets."""
    if name not in _REGISTRY:
        raise DomainError(f"unknown bound {name!r}; valid: {', '.join(bound_names())}")
    fn, wanted, form = _REGISTRY[name]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing:
        raise DomainError(f"bound {name} needs parameter(s): {', '.join(missing)}")
    if extra:
        raise DomainError(f"bound {name} does not take: {', '.join(sorted(extra))}")
    value = fn(**{p: params[p] for p in wanted})
    return BoundValue(name, dict(params), value, form)
