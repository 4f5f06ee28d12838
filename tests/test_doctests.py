"""Run the doctest examples embedded in module docstrings."""

import doctest

import pytest

import repro
import repro.core.ipgraph


@pytest.mark.parametrize(
    "module",
    [repro, repro.core.ipgraph],
    ids=lambda m: m.__name__,
)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
