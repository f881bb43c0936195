"""Association parameters: golden values, exact symmetries, sign extraction.

Golden constants were computed independently (closed-form sums evaluated
in extended precision / cross-checked against scipy) before being frozen
here; tests compare the implementation against them, not against itself.
"""

import hashlib
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
    simpson_scan,
    swap_category,
    thresholded_sign,
)
from bintab.assoc import SIGN_TAU, _bahadur_z, _decided, _measure, _measure_rows, _Rows
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

    @pytest.mark.parametrize("entries", [[1e300, 1e-300, 1e-300, 1e300],
                                         [1e-300, 1e300, 1e300, 1e-300]])
    def test_odds_ratio_beyond_float_range_is_an_error(self, entries):
        # LOR is +-2763: exp overflows above about 709 and rounds to 0 below about -745
        with pytest.raises(EvaluationError, match=r"odds ratio exp\(-?2763\.\d+\) leaves"):
            odds_ratio(BinaryTable.from_entries(entries))


class TestSumsBeyondFloatRange:
    """Partial sums of ``h`` values past the float range give a value or an EvaluationError."""

    BIG = BinaryTable.from_entries([1e308] * 4)

    def test_di_value_and_sign(self):
        # the scale, 4e308, is beyond the float range; the value is exactly 0
        assert evaluate(self.BIG, "di") == 0.0
        assert sign(self.BIG, DI) == 0
        assert magnitude_scale(self.BIG, DI) == math.inf

    def test_value_of_the_scaled_sums(self):
        top = np.nextafter(1e308, math.inf)
        t = BinaryTable.from_entries([1e308, 1e308, 1e308, top])
        assert evaluate(t, DI) == top - 1e308
        assert sign(t, DI) == 0

    @pytest.mark.parametrize("entries", [[1e308, 1e308, 1e308, 1e300], [1e308, 1.0, 1.0, 1e308]])
    def test_undecided_sign_is_an_evaluation_error(self, entries):
        # |value| passes SIGN_TAU times any scale the float range can hold
        with pytest.raises(EvaluationError, match="sign undecided"):
            sign(BinaryTable.from_entries(entries), DI)

    def test_simpson_scan_of_an_overflowing_collapse(self):
        with pytest.raises(EvaluationError, match="non-finite"):
            simpson_scan(BinaryTable.from_entries([1e308] * 8), ["di"])


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

    def test_products_beyond_float_range_are_an_error(self):
        # variable 1's category-1 share is about 1e-317, so its factor (1 - mu) / sigma is
        # about 1e158, and the products reach +-inf
        t = BinaryTable.from_entries([2.73452698615895e-301, 6.147509105479511e-301, 5e-324,
                                      4.125746697565514e-301, 7.687689151128844e-301, 5e-324,
                                      2.2250738585072014e-308, 7.025563118452229e+16])
        with pytest.raises(EvaluationError, match="Bahadur products overflow the float range"):
            bahadur(t)
        error = _measure_rows(t.entries[None, :], 3, BAHADUR).errors[0]
        assert type(error) is EvaluationError and "products overflow" in str(error)

    @pytest.mark.filterwarnings("error")
    def test_infinite_collapsed_entry_is_named_without_a_warning(self):
        t = BinaryTable.from_entries([1e308, 1e308, 1, 1, 1, 1, 1e308, 1e308])
        with pytest.raises(EvaluationError, match=r"entry at cell \(1, 1\) is inf"):
            collapse_check(t, BAHADUR, 3)

    def test_total_beyond_float_range(self):
        # the total overflows, so the table is scaled by a power of two first
        assert bahadur(BinaryTable.from_entries([1e308] * 4)) == 0.0
        big = BinaryTable.from_entries([1e308, 7e307, 5e307, 1.5e308])
        assert bahadur(big) == bahadur(BinaryTable(2, big.entries / 4))


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


def _near_threshold_rows(kind, k=2, seed=None):
    """Rows whose value lies within a few ulps of ``SIGN_TAU`` times their scale.

    Entry 0 steps one ulp at a time through the point where the value
    crosses the sign threshold, so the rows straddle it.  Without a seed the
    other entries are all equal; with one they are random.
    """
    h, h_inverse = {"lor": (math.log, math.exp), "di": (float, float),
                    "ex": (math.exp, math.log)}[kind.name]
    rest = (np.full(2**k - 1, 2.0) if seed is None
            else random_table(k, np.random.default_rng(seed)).entries[1:])
    signs = np.where(np.bitwise_count(np.arange(1, 2**k)) % 2 == 0, 1.0, -1.0)
    terms = np.array([h(x) for x in rest])
    # h(x0) + sum(signs * terms) = SIGN_TAU * (h(x0) + sum(|terms|)), for h(x0) > 0
    x0 = h_inverse((SIGN_TAU * np.abs(terms).sum() - signs @ terms) / (1.0 - SIGN_TAU))
    steps = [x0]
    for _ in range(40):
        steps.append(np.nextafter(steps[-1], np.inf))
        steps.insert(0, np.nextafter(steps[0], -np.inf))
    return np.array([np.concatenate(([x], rest)) for x in steps])


@pytest.mark.bits
class TestMeasureRows:
    """The batched kernel gives ``_measure``'s signs on every row."""

    @pytest.mark.parametrize("kind", [LOR, DI, EX], ids=lambda kind: kind.name)
    # seeds whose random entries leave h(x0) > 0 at the crossing, for all three kinds
    @pytest.mark.parametrize("k, seed", [(2, None), (3, 2), (4, 7), (5, 9)])
    def test_near_threshold_rows_fall_back_to_measure(self, kind, k, seed):
        rows = _near_threshold_rows(kind, k, seed)
        got = _measure_rows(rows, k, kind)
        want = [sign(BinaryTable(k, row), kind) for row in rows]
        assert sorted(set(want)) == [0, 1]  # the rows straddle the threshold
        assert got.signs.tolist() == want
        assert not got.bounds.any()  # each one measured by math.fsum
        assert got.values.tolist() == [evaluate(BinaryTable(k, row), kind) for row in rows]

    @pytest.mark.parametrize("kind", [LOR, DI, EX], ids=lambda kind: kind.name)
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_random_rows_within_their_bounds(self, kind, k):
        rng = np.random.default_rng(k)
        rows = np.stack([random_table(k, rng).entries for _ in range(200)])
        got = _measure_rows(rows, k, kind)
        tables = [BinaryTable(k, row) for row in rows]
        assert got.signs.tolist() == [sign(t, kind) for t in tables]
        assert np.all(np.abs(got.values - [evaluate(t, kind) for t in tables]) <= got.bounds)
        assert np.all(np.abs(got.scales - [magnitude_scale(t, kind) for t in tables]) <= got.bounds)
        assert got.errors.tolist() == [None] * len(rows)

    def test_errors_are_kept_per_row(self):
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [800.0, 1.0, 1.0, 1.0], [1.0, 1.0, 900.0, 1.0]])
        got = _measure_rows(rows, 2, EX)
        assert np.flatnonzero(got.errors.astype(bool)).tolist() == [1, 2]
        with pytest.raises(EvaluationError) as want:
            evaluate(BinaryTable(2, rows[1]), EX)
        assert type(got.errors[1]) is EvaluationError
        assert str(got.errors[1]) == str(want.value)
        assert got.signs[0] == sign(BinaryTable(2, rows[0]), EX)

    @pytest.mark.parametrize("kind", [
        ContrastKind("lor", math.sqrt), AggregateContrastKind("log", math.log),
    ], ids=["look-alike", "aggregate"])
    def test_other_kinds_measured_row_by_row(self, kind):
        rng = np.random.default_rng(3)
        rows = np.stack([random_table(3, rng).entries for _ in range(20)])
        got = _measure_rows(rows, 3, kind)
        assert not got.bounds.any()
        assert got.values.tolist() == [evaluate(BinaryTable(3, row), kind) for row in rows]
        assert got.signs.tolist() == [sign(BinaryTable(3, row), kind) for row in rows]


def _lor_stack(rows, values, bounds):
    """A hand-made ``(measured, rows)`` stack of LOR estimates with scale 1."""
    count = len(values)
    measured = _Rows(np.array(values), np.ones(count), np.array(bounds),
                     np.zeros(count, np.int8), np.full(count, None))
    return measured, rows


DECIDED_ROWS = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 1.0, 5.0], [1.0, 2.0, 3.0, 4.0],
                         [0.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 5.0]])


class TestDecided:
    """``_decided`` measures the rows its margins cannot settle, and no others."""

    def test_each_row_as_its_margin_and_bound_decide(self):
        measured, rows = stack = _lor_stack(DECIDED_ROWS, [math.nan, 7.0, 0.0, 1e-13, 5.0],
                                            [1e-12, 1e-12, 0.0, 1e-12, math.inf])
        got = _decided(lambda m: (m.values > 0, (m.values,)), 2, LOR, stack)
        exact = [_measure(rows[j], 2, LOR) for j in (0, 4)]
        # a NaN margin and an infinite bound are unsure: measured exactly
        assert [(measured.values[j], measured.scales[j]) for j in (0, 4)] == exact
        # a row beyond its margin keeps its estimate and its nonzero bound
        assert (measured.values[1], measured.scales[1], measured.bounds[1]) == (7.0, 1.0, 1e-12)
        # an exact row is not measured again, even on a zero margin
        assert (measured.values[2], measured.scales[2]) == (0.0, 1.0)
        # an erring row holds its error, with value and scale 0
        assert np.flatnonzero(measured.errors.astype(bool)).tolist() == [3]
        with pytest.raises(EvaluationError) as want:
            _measure(rows[3], 2, LOR)
        assert str(measured.errors[3]) == str(want.value)
        assert (measured.values[3], measured.scales[3]) == (0.0, 0.0)
        assert measured.bounds.tolist() == [0.0, 1e-12, 0.0, 0.0, 0.0]
        assert got.tolist() == [False, True, False, False, True]

    def test_an_unsure_row_is_measured_in_every_stack(self):
        base = _lor_stack(DECIDED_ROWS[:2], [1.0, 2.0], [1e-12, 1e-12])
        bumped = _lor_stack(DECIDED_ROWS[1:3], [1.0 + 1e-13, 9.0], [1e-12, 1e-12])
        # the nearest margin decides, however far the others are
        got = _decided(lambda a, b: (b.values > a.values, (b.values - a.values, a.values + 1e9)),
                       2, LOR, base, bumped)
        assert base[0].values.tolist() == [_measure(DECIDED_ROWS[0], 2, LOR)[0], 2.0]
        assert bumped[0].values.tolist() == [_measure(DECIDED_ROWS[1], 2, LOR)[0], 9.0]
        assert base[0].bounds.tolist() == bumped[0].bounds.tolist() == [0.0, 1e-12]
        assert got.tolist() == [True, True]


def _bahadur_threshold_rows(k, seed=None):
    """Rows whose entry 0 steps one ulp at a time across Bahadur's upper sign threshold.

    The other entries are 2.0, or 2.0 times random factors within 1e-3 of 1
    with a seed, so the sign runs from -1 through 0 to +1 as entry 0 grows
    from 1 to 3, and bisection finds the first entry with sign +1.
    """
    rest = np.full(2**k - 1, 2.0)
    if seed is not None:
        rest *= np.exp(np.random.default_rng(seed).uniform(-1e-3, 1e-3, 2**k - 1))

    def positive(x):
        return sign(BinaryTable(k, np.concatenate(([x], rest))), BAHADUR) > 0

    low, high = 1.0, 3.0
    assert not positive(low) and positive(high)
    while (mid := (low + high) / 2) not in (low, high):
        low, high = (low, mid) if positive(mid) else (mid, high)
    steps = [high]
    for _ in range(40):
        steps.append(np.nextafter(steps[-1], np.inf))
        steps.insert(0, np.nextafter(steps[0], -np.inf))
    return np.array([np.concatenate(([x], rest)) for x in steps])


@pytest.mark.bits
class TestBahadurRows:
    """The Bahadur branch of the batched kernel gives ``_measure``'s results."""

    @pytest.mark.parametrize("k, seed", [(2, None), (3, None), (3, 4), (4, 5), (5, 6)])
    def test_near_threshold_rows_fall_back_to_measure(self, k, seed):
        rows = _bahadur_threshold_rows(k, seed)
        got = _measure_rows(rows, k, BAHADUR)
        tables = [BinaryTable(k, row) for row in rows]
        want = [sign(t, BAHADUR) for t in tables]
        assert sorted(set(want)) == [0, 1]  # the rows straddle the threshold
        assert got.signs.tolist() == want
        assert not got.bounds.any()  # each one measured by math.fsum
        assert got.values.tolist() == [evaluate(t, BAHADUR) for t in tables]
        assert got.scales.tolist() == [magnitude_scale(t, BAHADUR) for t in tables]

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_random_rows_within_their_bounds(self, k):
        rng = np.random.default_rng(k)
        rows = np.stack([random_table(k, rng).entries for _ in range(200)])
        got = _measure_rows(rows, k, BAHADUR)
        tables = [BinaryTable(k, row) for row in rows]
        assert got.bounds.all()  # no row needed math.fsum
        assert got.signs.tolist() == [sign(t, BAHADUR) for t in tables]
        assert np.all(np.abs(got.values - [evaluate(t, BAHADUR) for t in tables]) <= got.bounds)
        assert np.all(np.abs(got.scales - [magnitude_scale(t, BAHADUR) for t in tables])
                      <= got.bounds)
        assert got.errors.tolist() == [None] * len(rows)

    def test_degenerate_rows_keep_their_errors(self):
        # a marginal rounds to 1.0; sampled counts leave a variable's category empty
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 1e-300, 1e-300, 1e-300],
                         [5.0, 5.0, 0.0, 0.0], [2.0, 1.0, 1.0, 3.0], [0.0, 3.0, 0.0, 1.0]])
        got = _measure_rows(rows, 2, BAHADUR)
        erred = np.flatnonzero(got.errors.astype(bool)).tolist()
        assert erred == [1, 2, 4]
        for j, error in zip(erred, got.errors[erred]):
            with pytest.raises(EvaluationError) as want:
                _measure(rows[j], 2, BAHADUR)
            assert type(error) is EvaluationError
            assert str(error) == str(want.value)
            assert got.values[j] == got.scales[j] == got.signs[j] == 0
        for j in (0, 3):
            assert got.signs[j] == sign(BinaryTable(2, rows[j]), BAHADUR)

    def test_one_variable_rows_keep_their_errors(self):
        got = _measure_rows(np.array([[1.0, 2.0], [3.0, 1.0]]), 1, BAHADUR)
        assert got.errors.astype(bool).tolist() == [True, True]
        with pytest.raises(InvalidTableError) as want:
            bahadur(BinaryTable.from_entries([1.0, 2.0]))
        assert all(type(e) is InvalidTableError and str(e) == str(want.value)
                   for e in got.errors)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_stacked_products_equal_single_rows_bit_for_bit(self, k):
        rng = np.random.default_rng(100 + k)
        spreads = np.repeat([0.1, 1.0, 3.0, 8.0], 250)[:, None]
        rows = np.exp(rng.uniform(-1.0, 1.0, size=(1000, 2**k)) * spreads)
        z, mus = _bahadur_z(rows, k)
        for j, row in enumerate(rows):
            z1, mus1 = _bahadur_z(row, k)
            assert z1.tobytes() == z[j].tobytes()
            assert mus1.tobytes() == mus[:, j].tobytes()


def _measure_corpus():
    """Seeded ``(entries, k, kind)`` over every kind of kernel branch, k = 0..8.

    Each k draws entries near 1 and entries spread over 2000 binades, so the
    corpus holds cancelling sums, errors of ``h`` and ``d``, and overflows;
    the tables of :class:`TestSumsBeyondFloatRange` close it.
    """
    rng = np.random.default_rng(1414)
    kinds = (LOR, DI, EX, ContrastKind("sqrt", math.sqrt),
             AggregateContrastKind("log", math.log), BAHADUR)
    for k in range(9):
        for _ in range(12):
            wide = np.ldexp(rng.uniform(1.0, 2.0, 2**k), rng.integers(-1000, 1000, 2**k))
            for entries in (rng.uniform(0.05, 20.0, 2**k), wide):
                for kind in kinds:
                    if kind is not BAHADUR or k >= 2:
                        yield entries, k, kind
    top = np.nextafter(1e308, math.inf)
    for entries in ([1e308] * 4, [1e308, 1e308, 1e308, top], [1e308, 1e308, 1e308, 1e300],
                    [1e308, 1.0, 1.0, 1e308], [1e308] * 8):
        for kind in (LOR, DI, EX, AggregateContrastKind("log", math.log), BAHADUR):
            yield np.array(entries), len(entries).bit_length() - 1, kind


class TestMeasureBits:
    """``_measure``'s values, scales and errors, pinned bit for bit."""

    # SHA-256 of the records below, computed once and frozen
    DIGEST = "a9118d46edab6911d96366cb74646c7f11278d8ddfb27d046c1816d88e6834e6"

    def test_corpus_digest(self):
        records = []
        for entries, k, kind in _measure_corpus():
            try:
                value, scale = _measure(entries, k, kind)
                records.append(f"{float(value).hex()} {float(scale).hex()}")
            except EvaluationError as exc:
                records.append(f"{type(exc).__name__}: {exc}")
        assert len(records) == 1273
        assert hashlib.sha256("\n".join(records).encode()).hexdigest() == self.DIGEST

    @pytest.mark.parametrize("kind, error, message", [
        (ContrastKind("log-", lambda x: math.log(-x)), EvaluationError,
         "h failed on a table entry: math domain error"),
        (ContrastKind("huge", lambda x: 10**400), EvaluationError,
         "h failed on a table entry: int too large to convert to float"),
        (ContrastKind("inf", lambda x: math.inf), EvaluationError,
         "h produced a non-finite value on a table entry"),
        (ContrastKind("none", lambda x: None), TypeError, "float() argument must be"),
        (AggregateContrastKind("log-", lambda x: math.log(-x)), EvaluationError,
         "d failed on a parity-class total: math domain error"),
        (AggregateContrastKind("nan", lambda x: math.nan), EvaluationError,
         "d produced a non-finite value on a parity-class total"),
        (AggregateContrastKind("none", lambda x: None), TypeError, "float() argument must be"),
    ], ids=lambda p: getattr(p, "name", None))
    def test_raising_h_and_d(self, kind, error, message):
        with pytest.raises(Exception) as got:
            _measure(np.array([1.0, 2.0, 3.0, 4.0]), 2, kind)
        assert type(got.value) is error
        assert str(got.value).startswith(message)
