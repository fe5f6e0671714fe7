"""The size-guard table and its one check."""

import pytest

from cstardom.errors import LIMITS, SizeLimit, check_size


def test_guards_that_are_derived_from_others():
    # the 2^k projections of a caf-iso spectrum must pass the omp guard, and
    # the first spectrum past the guard must not
    caf, omp = LIMITS["caf"][2], LIMITS["omp"][2]
    assert 2**caf <= omp < 2 ** (caf + 1)
    # c_lattice builds the partition lattice of its spectrum
    assert LIMITS["spectrum"][2] == LIMITS["lattice"][2]


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_every_minimum_is_at_most_its_limit(name):
    _what, minimum, limit = LIMITS[name]
    assert minimum is None or minimum <= limit


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_check_size_admits_the_range_and_refuses_past_it(name):
    what, minimum, limit = LIMITS[name]
    check_size(name, limit)
    if minimum is not None:
        check_size(name, minimum)
    with pytest.raises(SizeLimit) as info:
        check_size(name, limit + 1)
    assert (info.value.what, info.value.value, info.value.limit) == (what, limit + 1, limit)
    assert str(info.value) == f"{what} = {limit + 1} exceeds the supported limit {limit}"
    if minimum is not None:
        with pytest.raises(SizeLimit) as info:
            check_size(name, minimum - 1)
        assert str(info.value) == f"{what} = {minimum - 1} is below the supported minimum {minimum}"
