"""Association parameters: golden values, exact symmetries, sign extraction.

Golden constants were computed independently (closed-form sums evaluated
in extended precision / cross-checked against scipy) before being frozen
here; tests compare the implementation against them, not against itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bintab import (
    AggregateContrastKind,
    BAHADUR,
    BinaryTable,
    ContrastKind,
    DI,
    EX,
    EvaluationError,
    InvalidTableError,
    LOR,
    aggregate_contrast,
    bahadur,
    collapse_check,
    contrast,
    di,
    evaluate,
    ex,
    lor,
    magnitude_scale,
    odds_ratio,
    random_table,
    resolve_kind,
    sign,
    swap_category,
    thresholded_sign,
)
from oracles import recursive_contrast

# k=3 distributions: one cell heavy vs. near-degenerate corner
HEAVY_CORNER = BinaryTable.from_entries([0.3140] + [0.098] * 7)
NEAR_DEGENERATE = BinaryTable.from_entries([0.9965] + [0.0005] * 7)

# two-layer stack and its collapse, used across modules
LAYER_A = BinaryTable.from_entries([6, 5, 3, 3])
LAYER_B = BinaryTable.from_entries([5, 7, 1, 7])
COLLAPSED = BinaryTable.from_entries([11, 12, 4, 10])

# independently evaluated EX values for the five fixture tables
EX_GOLDENS = {
    (2.0, 3.0, 4.0, 5.0): 81.11852824517533,
    (0.6, 0.6, 1.2, 1.0): -0.6018350942775022,
    (6.0, 5.0, 3.0, 3.0): 255.0156343901585,
    (5.0, 7.0, 1.0, 7.0): 145.69487727411755,
    (11.0, 12.0, 4.0, 10.0): -80908.78205903251,
}

def random_tables(max_k=4):
    return st.integers(1, max_k).flatmap(
        lambda k: st.lists(
            st.floats(0.05, 20.0, allow_nan=False), min_size=2**k, max_size=2**k
        ).map(lambda xs: BinaryTable.from_entries(xs, k=k))
    )


class TestContrastGoldens:
    def test_di_lor_or_on_2345(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        assert di(t) == 0.0
        assert lor(t) == pytest.approx(math.log(10 / 12), rel=1e-12)
        assert odds_ratio(t) == pytest.approx(10 / 12, rel=1e-12)

    @pytest.mark.parametrize("entries,expected", sorted(EX_GOLDENS.items()))
    def test_ex_goldens(self, entries, expected):
        assert ex(BinaryTable.from_entries(entries)) == pytest.approx(expected, rel=1e-6)

    def test_constant_tables_are_zero(self):
        for k in (1, 2, 3, 4):
            t = BinaryTable.constant(k, 0.37)
            assert di(t) == 0.0
            assert lor(t) == 0.0
            assert ex(t) == 0.0

    def test_lor_stays_finite_at_large_k(self):
        # raw odds-ratio products would overflow; the log route must not
        t = BinaryTable.constant(10, 1e250)
        assert lor(t) == 0.0
        assert math.isfinite(magnitude_scale(t, LOR))

    def test_ex_overflow_is_an_error_not_saturation(self):
        t = BinaryTable.from_entries([1000.0, 1.0, 1.0, 1.0])
        with pytest.raises(EvaluationError):
            ex(t)


class TestBahadur:
    def test_heavy_corner_golden(self):
        assert bahadur(HEAVY_CORNER) == pytest.approx(0.103, abs=1e-3)
        assert bahadur(HEAVY_CORNER) == pytest.approx(0.10333410757280695, rel=1e-9)

    def test_near_degenerate_golden(self):
        assert bahadur(NEAR_DEGENERATE) == pytest.approx(-5.54, abs=1e-2)
        assert bahadur(NEAR_DEGENERATE) == pytest.approx(-5.539878111607847, rel=1e-9)

    def test_ordering_disagrees_with_corner_mass(self):
        # the table with MORE (1,1,1) mass gets the SMALLER parameter value
        assert bahadur(NEAR_DEGENERATE) < 0 < bahadur(HEAVY_CORNER)

    def test_independence_gives_zero(self):
        t = BinaryTable.constant(2, 0.25)
        assert bahadur(t) == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariant(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        assert bahadur(t) == pytest.approx(bahadur(BinaryTable(2, t.entries * 7.0)), rel=1e-12)

    def test_requires_k_at_least_two(self):
        with pytest.raises(InvalidTableError):
            bahadur(BinaryTable.from_entries([1.0, 2.0]))


class TestRecursionAndAggregates:
    @given(random_tables(), st.data())
    @settings(max_examples=150)
    def test_recursive_contrast_matches_direct(self, table, data):
        i = data.draw(st.integers(1, table.k))
        direct = contrast(table, math.log)
        rec = recursive_contrast(table, math.log, i)
        assert rec == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @given(random_tables())
    @settings(max_examples=150)
    def test_aggregate_signs_like_di(self, table):
        cube = AggregateContrastKind("cube", lambda x: x**3)
        assert sign(table, cube) == sign(table, DI)

    def test_aggregate_value(self):
        t = BinaryTable.from_entries([3, 1, 1, 2])
        assert aggregate_contrast(t, lambda x: x**2) == 25 - 4


class TestSymmetries:
    @given(random_tables(), st.data())
    @settings(max_examples=150)
    def test_swap_flips_contrast_exactly(self, table, data):
        i = data.draw(st.integers(1, table.k))
        swapped = swap_category(table, i)
        for f in (di, lor):
            assert f(swapped) == -f(table)

    def test_double_swap_restores(self):
        t = BinaryTable.from_entries([6, 5, 3, 3])
        assert lor(swap_category(swap_category(t, 2), 2)) == lor(t)

    def test_monotone_in_corner_entry(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        for kind in (LOR, DI, EX):
            bumped = BinaryTable.from_entries([2.5, 3, 4, 5])
            assert evaluate(bumped, kind) > evaluate(t, kind)


class TestSigns:
    def test_thresholded_sign(self):
        assert thresholded_sign(5.0, 10.0) == 1
        assert thresholded_sign(-5.0, 10.0) == -1
        assert thresholded_sign(1e-11, 10.0) == 0
        assert thresholded_sign(0.0, 0.0) == 0

    def test_sign_zero_on_product_form(self):
        # rank-one table: independent margins, lor exactly 0 up to FP dust
        row = np.array([0.3, 0.7])
        col = np.array([0.6, 0.4])
        t = BinaryTable.from_array(np.outer(row, col))
        assert sign(t, LOR) == 0

    def test_resolve_kind(self):
        assert resolve_kind("LOR") is LOR
        assert resolve_kind("bahadur") is BAHADUR
        with pytest.raises(InvalidTableError):
            resolve_kind("nope")
        with pytest.raises(InvalidTableError):
            resolve_kind(None)
        custom = ContrastKind("lor", math.sqrt)
        assert resolve_kind(custom) is custom and resolve_kind(LOR) is LOR


def counted_log():
    """LOR's ``h`` as a kind that records every call."""
    calls = []

    def h(x):
        calls.append(x)
        return math.log(x)

    return ContrastKind("counted", h), calls


class TestOnePassPerTable:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_sign_applies_h_once_per_cell(self, k):
        kind, calls = counted_log()
        t = random_table(k, np.random.default_rng(k))
        assert sign(t, kind) == sign(t, LOR)
        assert len(calls) == 2**k

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_collapse_check_measures_each_table_once(self, k):
        kind, calls = counted_log()
        t = random_table(k, np.random.default_rng(k))
        for i in range(1, k + 1):
            calls.clear()
            report = collapse_check(t, kind, i)
            assert len(calls) == 3 * 2 ** (k - 1)
            want = collapse_check(t, LOR, i)
            assert (report.values, report.layer_signs, report.collapsed_sign) == (
                want.values, want.layer_signs, want.collapsed_sign)
