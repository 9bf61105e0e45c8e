"""The errors the toolkit raises besides plain `ValueError` for bad input."""


class InternalError(Exception):
    """A broken internal invariant: a bug, never bad input (not a ValueError)."""


class GlueError(ValueError):
    """Violated precondition in glue synthesis or a paste (broken invariants raise InternalError)."""
