"""The error raised when the toolkit breaks one of its own invariants."""


class InternalError(Exception):
    """A broken internal invariant: a bug, never bad input (not a ValueError)."""
