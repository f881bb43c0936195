"""The contract, checked by machine: every admitted input ends in a result or a typed error.

Hypothesis draws the inputs, derandomized so that each run draws the same
cases.  Every case runs with Python warnings raised as errors and numpy in
its default error state, so a leaked overflow or invalid-operation warning
fails a case just as an untyped exception does.  A case passes when it
returns a well-formed result or raises a ``BintabError`` subclass.
"""

import math
import sys
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
    canonicalize,
    collapse_check,
    decompose,
    di_inverse,
    even_parity_mass,
    full_params,
    lor_inverse,
    marginal,
    paradox_search,
    prob_di_positive_exact,
    prob_di_positive_normal,
    property_battery,
    recompose,
    rescale_conditional_pair,
    simpson_scan,
    simulate_decisions,
    swap_category,
    table_with_even_mass,
)
from bintab.sampling import MAX_EXACT_N, MAX_N

KINDS = (LOR, DI, EX, BAHADUR)

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# the table, parameter, structure and sampling entry points, at fewer examples a call: most
# of their cost is drawing the case
SLICE = settings(CONTRACT, max_examples=100)

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


def check_table(table, k):
    assert isinstance(table, BinaryTable) and table.k == k
    assert table.entries.shape == (2**k,) and np.all(table.entries > 0)
    assert np.all(np.isfinite(table.entries))


def tables(max_k=5):
    """Valid tables of 1 to ``max_k`` variables, entries over the whole finite float range."""
    finite = st.floats(min_value=5e-324, max_value=sys.float_info.max)
    return st.integers(1, max_k).flatmap(lambda k: st.lists(
        finite, min_size=2**k, max_size=2**k).map(lambda entries: BinaryTable(k, entries)))


# any float, and any int of the size the checks of N and k meet
NUMBERS = st.one_of(st.floats(), st.integers(-2, 2**70), st.booleans())

OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def admitted_or_any(admitted, *anything):
    """Argument tuples: all admitted half the time, each drawn from ``anything`` the rest."""
    return st.one_of(st.tuples(*admitted), st.tuples(*anything))


@given(st.lists(st.one_of(st.floats(), ENTRIES), max_size=33),
       st.one_of(st.none(), st.integers(-1, 6)))
@SLICE
def test_from_entries(entries, k):
    table = answer(lambda: BinaryTable.from_entries(entries, k))
    if table is not None:
        assert 2**table.k == len(entries) and (k is None or table.k == k)
        check_table(table, table.k)
        assert table.entries.tolist() == [float(x) for x in entries]


@given(tables(), st.data())
@SLICE
def test_marginal(table, data):
    mask = data.draw(st.integers(0, 2**table.k - 1))
    result = answer(lambda: marginal(table, mask))
    if result is not None:
        check_table(result, mask.bit_count())


@given(tables(), st.data())
@SLICE
def test_swap_category(table, data):
    variable = data.draw(st.integers(1, table.k))
    swapped = answer(lambda: swap_category(table, variable))
    check_table(swapped, table.k)  # a permutation of a valid table never fails
    assert sorted(swapped.entries.tolist()) == sorted(table.entries.tolist())


@given(tables(), ENTRIES, st.data())
@SLICE
def test_rescale_conditional_pair(table, c, data):
    variable = data.draw(st.integers(1, table.k))
    suffix = data.draw(st.lists(st.integers(1, 2), min_size=table.k - 1, max_size=table.k - 1))
    result = answer(lambda: rescale_conditional_pair(table, variable, suffix, c))
    if result is not None:
        check_table(result, table.k)
        assert np.count_nonzero(result.entries != table.entries) <= 2


@given(tables())
@SLICE
def test_di_params_and_inverse(table):
    params = answer(lambda: full_params(table, DI))
    if params is not None:
        assert params.kind == "di" and np.all(np.isfinite(params.values))
        result = answer(lambda: di_inverse(params))
        if result is not None:
            check_table(result, table.k)


@given(tables(max_k=4))
@SLICE
def test_lor_params_and_inverse(table):
    params = answer(lambda: full_params(table, LOR))
    if params is not None:
        assert params.kind == "lor" and np.all(np.isfinite(params.values))
        result = answer(lambda: lor_inverse(params))
        if result is not None:
            check_table(result, table.k)


@given(tables())
@SLICE
def test_canonicalize(table):
    trace = answer(lambda: canonicalize(table))
    if trace is not None:
        assert [step.variable for step in trace.steps] == list(range(1, table.k + 1))
        check_table(trace.final, table.k)
        assert trace.final.entries[1:].tolist() == [1.0] * (2**table.k - 1)


@given(tables())
@SLICE
def test_decompose_and_recompose(table):
    d = answer(lambda: decompose(table))
    if d is not None:
        assert d.case in ("positive", "negative", "zero") and d.increment > 0
        result = answer(lambda: recompose(d))
        if result is not None:
            check_table(result, table.k)


@given(tables())
@SLICE
def test_even_parity_mass(table):
    mass = answer(lambda: even_parity_mass(table))
    assert 0.0 <= mass <= 1.0  # a valid table always has one


@given(admitted_or_any((st.integers(1, 8), OPEN_UNIT), NUMBERS, NUMBERS))
@SLICE
def test_table_with_even_mass(args):
    k, p_even = args
    table = answer(lambda: table_with_even_mass(k, p_even))
    if table is not None:
        check_table(table, k)


# the exact tail holds its window of about 2 sqrt(373.5 N) terms at once, so an admitted N
# runs to 10^6, where the window is small, and every other N drawn is refused
EXACT_N = st.one_of(st.integers(-1, 10**6), st.integers(MAX_EXACT_N + 1, 2**70), st.floats(),
                    st.booleans())


@given(admitted_or_any((st.integers(1, 10**6), OPEN_UNIT), EXACT_N, NUMBERS))
@SLICE
def test_prob_di_positive_exact(args):
    N, p = args
    prob = answer(lambda: prob_di_positive_exact(N, p))
    if prob is not None:
        assert 0.0 <= prob <= 1.0


@given(admitted_or_any((st.integers(1, MAX_N), OPEN_UNIT),
                       st.one_of(NUMBERS, st.just(MAX_N + 1)), NUMBERS))
@SLICE
def test_prob_di_positive_normal(args):
    N, p = args
    prob = answer(lambda: prob_di_positive_normal(N, p))
    if prob is not None:
        assert 0.0 <= prob <= 1.0


@given(tables(max_k=3), st.one_of(st.integers(1, 10**6), st.just(MAX_N)),
       st.sampled_from(KINDS), st.integers(1, 40), SEEDS)
@SLICE
def test_simulate_decisions(table, N, kind, replications, seed):
    freqs = answer(lambda: simulate_decisions(table, N, kind, replications, seed))
    if freqs is not None:
        assert list(freqs) == ["positive", "zero", "negative"]
        assert math.isclose(sum(freqs.values()), 1.0)
        assert all(math.isclose(f * replications, round(f * replications)) for f in freqs.values())
