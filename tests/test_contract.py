"""The contract, checked by machine: every admitted input ends in a result or a typed error.

Hypothesis draws the inputs, derandomized so that each run draws the same
cases.  Every case runs with Python warnings raised as errors and numpy in
its default error state, so a leaked overflow or invalid-operation warning
fails a case just as an untyped exception does.  A case passes when it
returns a well-formed result or raises a ``BintabError`` subclass.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from bintab import (
    BAHADUR,
    DI,
    EX,
    LOR,
    BinaryTable,
    BintabError,
    collapse_check,
    paradox_search,
    property_battery,
    simpson_scan,
)

KINDS = (LOR, DI, EX, BAHADUR)

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# every positive finite float, the subnormals and the largest ones included
ENTRIES = st.floats(min_value=5e-324, max_value=1.8e308)

# seeds on both sides of each seeding boundary: one, two and three 32-bit
# words, and 2^96, past which a block is seeded key by key
SEEDS = st.one_of(st.integers(0, 2**100),
                  st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**96 - 1, 2**96, 2**100]))


@st.composite
def entry_lists(draw, max_k=5):
    """``(k, entries)`` for a table of 1 to ``max_k`` variables over the whole float range."""
    k = draw(st.integers(1, max_k))
    return k, draw(st.lists(ENTRIES, min_size=2**k, max_size=2**k))


def answer(call):
    """``call()``'s result, or None when it raised a typed error.

    A warning or an exception of any other type propagates and fails the case.
    """
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        try:
            return call()
        except BintabError:
            return None


def check_report(report, kind, variable):
    assert report.kind == kind.name and report.variable == variable
    assert all(isinstance(value, float) for value in report.values)
    signs = (*report.layer_signs, report.collapsed_sign)
    assert set(signs) <= {-1, 0, 1}
    assert report.paradox == (signs[0] == signs[1] != 0 and signs[2] != signs[0])


@given(entry_lists(), st.sampled_from(KINDS), st.data())
@CONTRACT
def test_collapse_check(case, kind, data):
    k, entries = case
    variable = data.draw(st.integers(1, k))
    report = answer(lambda: collapse_check(BinaryTable(k, entries), kind, variable))
    if report is not None:
        check_report(report, kind, variable)


@given(entry_lists(), st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
@CONTRACT
def test_simpson_scan(case, kinds):
    k, entries = case
    reports = answer(lambda: simpson_scan(BinaryTable(k, entries), kinds))
    if reports is not None:
        grid = [(variable, kind) for variable in range(1, k + 1) for kind in kinds]
        assert len(reports) == len(grid)
        for report, (variable, kind) in zip(reports, grid):
            check_report(report, kind, variable)


@given(st.sampled_from(KINDS), st.integers(1, 6), st.integers(0, 40), SEEDS)
@CONTRACT
def test_paradox_search(kind, k, trials, seed):
    witness = answer(lambda: paradox_search(kind, k, trials, seed))
    if witness is not None:
        assert isinstance(witness, BinaryTable) and witness.k == k
        assert any(report.paradox for report in simpson_scan(witness, [kind]))


@given(st.sampled_from(KINDS), st.integers(1, 6), st.integers(0, 40), SEEDS,
       st.integers(0, 3))
@CONTRACT
def test_property_battery(kind, k, trials, seed, witness_cap):
    summary = answer(lambda: property_battery(kind, k, trials, seed, witness_cap))
    if summary is not None:
        assert (summary.kind, summary.k, summary.trials, summary.seed) == (kind.name, k, trials,
                                                                           seed)
        for name in summary.PROPERTIES:
            assert 0 <= summary.failures[name] <= trials
            assert len(summary.witnesses[name]) == min(summary.failures[name], witness_cap)
