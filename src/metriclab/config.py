"""Instance-size caps and their configuration.

Every exhaustive operation takes an optional ``maxn`` override and checks it
with ``enforce_cap``; when a caller passes None the defaults below apply.
The caps exist so that a stray huge input fails fast with TooLargeError
instead of hanging: each guarded search is guaranteed exhaustive below its
cap.

Defaults can be changed process-wide through a key=value config file
(``load_config``) or the METRICLAB_MAXN environment variable, which overrides
every cap at once and wins over the file. Command-line flags override both.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import FormatError, TooLargeError

_ENV_VAR = "METRICLAB_MAXN"


class Caps(NamedTuple):
    # Vertex-count limits. minor_n and treewidth_n apply after exact
    # reductions (block split / simplicial stripping), not to raw input.
    md_n: int = 64
    minor_n: int = 14
    iso_n: int = 20
    vc_n: int = 24
    treewidth_n: int = 18
    line_k: int = 8
    # Enumeration limits: free trees stay cheap to 16, connected graphs
    # blow up past 7 (11117 classes at n=8); larger orders are ingested
    # from corpus files instead of generated in-process.
    tree_enum_n: int = 16
    graph_enum_n: int = 7


def _env_override(caps: Caps) -> Caps:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return caps
    try:
        n = int(raw)
    except ValueError as exc:
        raise FormatError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    return Caps._make([n] * len(Caps._fields))


def default_caps() -> Caps:
    """Built-in defaults, then METRICLAB_MAXN if set."""
    return _env_override(Caps())


def load_config(path: str) -> Caps:
    """Read key=value cap overrides; unknown keys are rejected.

    Blank lines and lines starting with '#' are ignored. The environment
    variable still wins over the file, flags win over everything.
    """
    overrides: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in Caps._fields:
                raise FormatError(f"{path}:{lineno}: unknown cap {key!r}")
            try:
                overrides[key] = int(value.strip())
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {key} needs an integer") from exc
    return _env_override(Caps()._replace(**overrides))


def enforce_cap(n: int, maxn: int | None, field: str, message: str) -> None:
    """Raise TooLargeError if n exceeds maxn, or the default cap ``field``
    when maxn is None. ``message`` is formatted with ``n`` and ``cap``."""
    cap = getattr(default_caps(), field) if maxn is None else maxn
    if n > cap:
        raise TooLargeError(message.format(n=n, cap=cap))
