"""Shared exception types, and the one check of a size against its cap."""

from typing import Iterable


class CapExceededError(Exception):
    """A requested computation exceeds one of the fixed size caps."""


def check_cap(factors: Iterable[int], cap: int, what: str) -> int:
    """The product of the positive `factors`, which counts `what`, for a
    `cap` of at least 1.

    The factors are multiplied one at a time, and none is read past the
    first partial product above `cap`: that product is a lower bound on
    the count, and `CapExceededError` names it with the cap.  So an
    estimate costs a few products at any size, and its message prints.
    """
    product = 1
    for factor in factors:
        product *= factor
        if product > cap:
            raise CapExceededError(f"at least {product} {what}, above the cap {cap}")
    return product
