"""Shared exception types."""


class CapExceededError(Exception):
    """A requested computation exceeds one of the fixed size caps."""
