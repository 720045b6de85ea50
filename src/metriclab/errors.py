"""Shared exception types.

Everything raised on purpose derives from MetriclabError so the CLI can map
failures to exit codes without guessing: FormatError and bad arguments are
usage problems (exit 2), TooLargeError means a cap was exceeded (exit 3),
InternalError means a solver's answer failed its own certificate check
(exit 4).
"""


class MetriclabError(Exception):
    pass


class FormatError(MetriclabError):
    """Malformed input text (graph6, edge list, PACE bags, hypergraph)."""


class TooLargeError(MetriclabError):
    """Instance exceeds the configured cap for an exhaustive operation."""


class DomainError(MetriclabError):
    """Arguments outside an operation's documented domain."""


class InternalError(MetriclabError):
    """A solver's answer failed its certificate check: a bug, not bad input."""
