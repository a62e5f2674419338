import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedtensor.errors import CapExceededError, check_cap


def _stopping_after(factors, last):
    """The factors up to index `last`, then a failure if one more is read."""
    yield from factors[: last + 1]
    raise AssertionError("a factor past the cap was read")


@given(st.lists(st.integers(1, 60), max_size=8), st.integers(1, 10**7))
def test_check_cap_returns_the_product_or_names_the_first_partial_past_the_cap(factors, cap):
    partials = list(itertools.accumulate(factors, lambda a, b: a * b))
    past = [k for k, p in enumerate(partials) if p > cap]
    if math.prod(factors) <= cap:
        assert not past
        assert check_cap(iter(factors), cap, "things") == math.prod(factors)
    else:
        first = past[0]
        with pytest.raises(CapExceededError) as info:
            check_cap(_stopping_after(factors, first), cap, "things")
        assert str(info.value) == f"at least {partials[first]} things, above the cap {cap}"


def test_check_cap_stops_an_endless_product_at_once():
    with pytest.raises(CapExceededError, match="at least 1048576 bits, above the cap 1000000"):
        check_cap(itertools.repeat(2, 10**18), 10**6, "bits")
