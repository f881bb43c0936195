"""Core table type: indexing conventions, validation, table surgery, and the
argument contract every entry point shares (integers, reals, kinds)."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bintab import (
    BAHADUR,
    DI,
    LOR,
    BinaryTable,
    EvaluationError,
    InvalidTableError,
    ParamSet,
    canonicalize,
    cell_to_index,
    collapse,
    collapse_check,
    evaluate,
    full_params,
    index_to_cell,
    lor_inverse,
    magnitude_scale,
    marginal,
    paradox_search,
    parity,
    parity_signs,
    prob_di_positive_exact,
    prob_di_positive_normal,
    property_battery,
    random_table,
    rescale_conditional_pair,
    sign,
    simpson_scan,
    simulate_decisions,
    slice_table,
    swap_category,
    table_with_even_mass,
)
from bintab import collapsibility
from bintab.collapsibility import _CELL_BUDGET, _keyed_blocks, _pcg64_seeds
from bintab.table import MAX_DIM, _table_rows, validate_cell
from oracles import conditional_equal


def small_tables(max_k=4):
    return st.integers(1, max_k).flatmap(
        lambda k: st.lists(
            st.floats(0.01, 100.0, allow_nan=False), min_size=2**k, max_size=2**k
        ).map(lambda xs: BinaryTable.from_entries(xs, k=k))
    )


class TestIndexing:
    def test_row_major_variable_one_most_significant(self):
        # (j1, j2) -> 2*(j1-1) + (j2-1)
        assert cell_to_index((1, 1)) == 0
        assert cell_to_index((1, 2)) == 1
        assert cell_to_index((2, 1)) == 2
        assert cell_to_index((2, 2)) == 3
        assert cell_to_index((2, 1, 1)) == 4

    @given(st.integers(1, 8), st.data())
    def test_round_trip(self, k, data):
        idx = data.draw(st.integers(0, 2**k - 1))
        assert cell_to_index(index_to_cell(idx, k)) == idx

    def test_matches_array_layout(self):
        t = BinaryTable.from_entries([1, 2, 3, 4, 5, 6, 7, 8])
        arr = t.array()
        for idx in range(8):
            cell = index_to_cell(idx, 3)
            assert t[cell] == arr[tuple(j - 1 for j in cell)]

    def test_parity_counts_twos(self):
        assert parity((1, 1, 1)) == "even"
        assert parity((1, 2, 1)) == "odd"
        assert parity((2, 2, 1)) == "even"
        assert parity_signs(3)[cell_to_index((2, 2, 2))] == -1

    @given(st.integers(1, 10))
    def test_parity_classes_split_evenly(self, k):
        even = parity_signs(k) > 0
        assert even.sum() == 2 ** (k - 1)
        want = [1.0 if parity(index_to_cell(t, k)) == "even" else -1.0 for t in range(2**k)]
        assert np.array_equal(parity_signs(k), want)

    def test_parity_signs_memoized_read_only(self):
        first = parity_signs(3)
        assert parity_signs(3) is first
        with pytest.raises(ValueError):
            first[0] = 5.0
        assert first.tolist() == [1, -1, -1, 1, -1, 1, 1, -1]
        assert not parity_signs(4).flags.writeable

    @given(st.integers(1, 8), st.data())
    def test_parity_equals_popcount(self, k, data):
        idx = data.draw(st.integers(0, 2**k - 1))
        expected = "even" if bin(idx).count("1") % 2 == 0 else "odd"
        assert parity(index_to_cell(idx, k)) == expected


class TestValidation:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidTableError):
            BinaryTable(2, np.array([1.0, 2.0, 3.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidTableError, match="not strictly positive"):
            BinaryTable.from_entries([1.0, 0.0, 2.0, 3.0])
        with pytest.raises(InvalidTableError):
            BinaryTable.from_entries([1.0, -1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidTableError):
            BinaryTable.from_entries([1.0, np.inf, 2.0, 3.0])
        with pytest.raises(InvalidTableError):
            BinaryTable.from_entries([1.0, np.nan, 2.0, 3.0])

    def test_block_of_rows_checked_by_the_same_rules(self):
        block = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        tables = _table_rows(2, block)
        assert [t.entries.tolist() for t in tables] == block.tolist()
        assert not block.flags.writeable and all(t.entries.base is block for t in tables)
        with pytest.raises(InvalidTableError, match=r"entry 0\.0 at cell \(2, 1\) is not strictly"):
            _table_rows(2, np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 0.0, 1.0]]))
        with pytest.raises(InvalidTableError, match="entries must be finite"):
            _table_rows(1, np.array([[1.0, np.inf]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidTableError):
            BinaryTable.from_entries([1.0, 2.0, 3.0])

    def test_rejects_excessive_dimension(self):
        with pytest.raises(InvalidTableError, match=r"k must be an integer in \[0, 20\], got 25"):
            BinaryTable(25, np.ones(4))  # k cap fires before the shape check

    def test_entries_read_only(self):
        t = BinaryTable.from_entries([1, 2, 3, 4])
        with pytest.raises(ValueError):
            t.entries[0] = 9.0

    @pytest.mark.parametrize("build", [
        lambda v: BinaryTable(2, v),
        lambda v: BinaryTable.from_entries(v),
        lambda v: BinaryTable.from_array(np.reshape(np.array(v, dtype=object), (2, 2))),
        lambda v: ParamSet(2, "di", v),
    ], ids=["BinaryTable", "from_entries", "from_array", "ParamSet"])
    def test_rejects_non_numbers(self, build):
        for values in (["a", "b", "c", "d"], [object()] * 4, [10**400, 1, 1, 1]):
            with pytest.raises(InvalidTableError, match="must be numbers"):
                build(values)

    def test_construction_copies_input(self):
        src = np.array([1.0, 2.0, 3.0, 4.0])
        t = BinaryTable(2, src)
        src[0] = 99.0
        assert t[(1, 1)] == 1.0


T2 = BinaryTable.from_entries([2, 3, 4, 5])

# (entry point, integer argument) -> (call with that argument, valid value,
# low, high); high is None where the argument has no upper bound
INTEGER_ARGUMENTS = {
    "BinaryTable-k": (lambda v: BinaryTable(v, np.ones(4)), 2, 0, MAX_DIM),
    "BinaryTable.constant-k": (lambda v: BinaryTable.constant(v, 1.0), 2, 0, MAX_DIM),
    "ParamSet-k": (lambda v: ParamSet(v, "di", np.ones(4)), 2, 0, MAX_DIM),
    "random_table-k": (lambda v: random_table(v, np.random.default_rng(0)), 2, 0, MAX_DIM),
    "paradox_search-k": (lambda v: paradox_search(LOR, v, 3, 0), 3, 2, MAX_DIM),
    "paradox_search-trials": (lambda v: paradox_search(LOR, 3, v, 0), 3, 0, None),
    "paradox_search-seed": (lambda v: paradox_search(LOR, 3, 3, v), 1, 0, None),
    "property_battery-k": (lambda v: property_battery(LOR, v, 3, 0), 2, 1, MAX_DIM),
    "property_battery-trials": (lambda v: property_battery(LOR, 2, v, 0), 3, 0, None),
    "property_battery-seed": (lambda v: property_battery(LOR, 2, 3, v), 1, 0, None),
    "property_battery-witness_cap": (
        lambda v: property_battery(LOR, 2, 3, 0, witness_cap=v), 1, 0, None),
    "simulate_decisions-N": (
        lambda v: simulate_decisions(BinaryTable.constant(2, 1.0), v, DI, 5, 0), 10, 1, None),
    "simulate_decisions-replications": (
        lambda v: simulate_decisions(BinaryTable.constant(2, 1.0), 10, DI, v, 0), 5, 1, None),
    "simulate_decisions-seed": (
        lambda v: simulate_decisions(BinaryTable.constant(2, 1.0), 10, DI, 5, v), 1, 0, None),
    "prob_di_positive_exact-N": (lambda v: prob_di_positive_exact(v, 0.6), 20, 1, None),
    "prob_di_positive_normal-N": (lambda v: prob_di_positive_normal(v, 0.6), 20, 1, None),
    "table_with_even_mass-k": (lambda v: table_with_even_mass(v, 0.6), 2, 1, MAX_DIM),
    "lor_inverse-max_iter": (
        lambda v: lor_inverse(ParamSet(2, "lor", np.zeros(4)), max_iter=v), 1, 1, None),
    # positions: a variable in [1, k], a category or cell component in [1, 2],
    # a mask in [0, 2^k - 1], a linear cell index
    "swap_category-variable": (lambda v: swap_category(T2, v), 1, 1, 2),
    "slice_table-variable": (lambda v: slice_table(T2, v, 1), 1, 1, 2),
    "slice_table-category": (lambda v: slice_table(T2, 1, v), 2, 1, 2),
    "collapse-variable": (lambda v: collapse(T2, v), 2, 1, 2),
    "collapse_check-variable": (lambda v: collapse_check(T2, LOR, v), 1, 1, 2),
    "rescale_conditional_pair-variable": (
        lambda v: rescale_conditional_pair(T2, v, (2,), 2.0), 1, 1, 2),
    "rescale_conditional_pair-cell component": (
        lambda v: rescale_conditional_pair(T2, 1, (v,), 2.0), 2, 1, 2),
    "BinaryTable.__getitem__-cell component": (lambda v: T2[(1, v)], 2, 1, 2),
    "validate_cell-cell component": (lambda v: validate_cell((v, 1), 2), 2, 1, 2),
    "cell_to_index-cell component": (lambda v: cell_to_index((v, 1)), 2, 1, 2),
    "parity-cell component": (lambda v: parity((1, v)), 2, 1, 2),
    "marginal-mask": (lambda v: marginal(T2, v), 2, 0, 3),
    "index_to_cell-index": (lambda v: index_to_cell(v, 2), 3, 0, 3),
    "index_to_cell-k": (lambda v: index_to_cell(0, v), 2, 0, MAX_DIM),
}


def _bad_values(low, high):
    bad = [True, 2.5, "3", low - 1]
    return bad if high is None else bad + [high + 1]


class TestIntegerContract:
    """Every integer argument: one typed error and one message for any bad value."""

    @pytest.mark.parametrize("row", sorted(INTEGER_ARGUMENTS))
    def test_bad_values_are_typed_errors(self, row):
        call, _, low, high = INTEGER_ARGUMENTS[row]
        name = row.split("-")[1]
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        for value in _bad_values(low, high):
            message = f"{name} must be an integer {bound}, got {value!r}"
            with pytest.raises(InvalidTableError, match=re.escape(message)):
                call(value)

    @pytest.mark.parametrize("row", sorted(INTEGER_ARGUMENTS))
    def test_numpy_integer_accepted(self, row):
        call, valid, _, _ = INTEGER_ARGUMENTS[row]
        assert repr(call(np.int64(valid))) == repr(call(valid))


# (entry point, real argument) -> (call with that argument, valid value, low, high);
# the argument must lie strictly inside (low, high)
REAL_ARGUMENTS = {
    "prob_di_positive_exact-p": (lambda v: prob_di_positive_exact(20, v), 0.6, 0, 1),
    "prob_di_positive_normal-p": (lambda v: prob_di_positive_normal(20, v), 0.6, 0, 1),
    "table_with_even_mass-p_even": (lambda v: table_with_even_mass(2, v), 0.6, 0, 1),
    "rescale_conditional_pair-c": (
        lambda v: rescale_conditional_pair(T2, 1, (2,), v), 2.0, 0, math.inf),
    "BinaryTable.constant-value": (lambda v: BinaryTable.constant(2, v), 2.0, 0, math.inf),
    "lor_inverse-tol": (
        lambda v: lor_inverse(ParamSet(2, "lor", np.zeros(4)), tol=v), 1e-8, 0, math.inf),
}


class TestRealContract:
    """Every real argument: one typed error and one message for any bad value."""

    @pytest.mark.parametrize("row", sorted(REAL_ARGUMENTS))
    def test_bad_values_are_typed_errors(self, row):
        call, _, low, high = REAL_ARGUMENTS[row]
        name = row.split("-")[1]
        # 10**400 is a Real that no float holds
        for value in (True, "0.5", math.nan, low, high, -10**400, 10**400):
            message = f"{name} must be a number in ({low}, {high}), got {value!r}"
            with pytest.raises(InvalidTableError, match=re.escape(message)):
                call(value)

    @pytest.mark.parametrize("row", sorted(REAL_ARGUMENTS))
    def test_numpy_float_accepted(self, row):
        call, valid, _, _ = REAL_ARGUMENTS[row]
        assert repr(call(np.float64(valid))) == repr(call(valid))


RAGGED = [[1.0, 2.0], [3.0]]
NOT_A_CELL = "cell must be a sequence of 1's and 2's, got 5"

# (entry point, sequence argument) -> (call with a value that numpy or
# iteration refuses, the start of the message)
SEQUENCE_ARGUMENTS = {
    "BinaryTable-entries": (lambda: BinaryTable(2, RAGGED), "entries must be numbers"),
    "from_entries-entries": (lambda: BinaryTable.from_entries(RAGGED), "entries must be numbers"),
    "from_array-array": (lambda: BinaryTable.from_array(RAGGED), "entries must be numbers"),
    "ParamSet-values": (lambda: ParamSet(1, "di", RAGGED), "parameter values must be numbers"),
    "BinaryTable.__getitem__-cell": (lambda: T2[5], NOT_A_CELL),
    "validate_cell-cell": (lambda: validate_cell(5, 2), NOT_A_CELL),
    "cell_to_index-cell": (lambda: cell_to_index(5), NOT_A_CELL),
    "parity-cell": (lambda: parity(5), NOT_A_CELL),
    "rescale_conditional_pair-suffix": (
        lambda: rescale_conditional_pair(T2, 1, 5, 2.0), NOT_A_CELL),
}


class TestSequenceContract:
    """Every sequence argument: a typed error where numpy or iteration refuses it."""

    @pytest.mark.parametrize("row", sorted(SEQUENCE_ARGUMENTS))
    def test_refused_values_are_typed_errors(self, row):
        call, message = SEQUENCE_ARGUMENTS[row]
        with pytest.raises(InvalidTableError, match="^" + re.escape(message)):
            call()


T3 = BinaryTable.from_entries([6, 5, 5, 7, 3, 1, 3, 7])

# entry point -> (call with a kind, a kind it admits)
KIND_ARGUMENTS = {
    "evaluate": (lambda kind: evaluate(T3, kind), LOR),
    "sign": (lambda kind: sign(T3, kind), LOR),
    "magnitude_scale": (lambda kind: magnitude_scale(T3, kind), BAHADUR),
    "collapse_check": (lambda kind: collapse_check(T3, kind, 3), LOR),
    "simpson_scan": (lambda kind: simpson_scan(T3, [kind, DI]), LOR),
    "paradox_search": (lambda kind: paradox_search(kind, 3, 20, 0), LOR),
    "property_battery": (lambda kind: property_battery(kind, 2, 5, 1), BAHADUR),
    "simulate_decisions": (lambda kind: simulate_decisions(T2, 30, kind, 20, 1), LOR),
    "full_params": (lambda kind: full_params(T3, kind), LOR),
    "ParamSet": (lambda kind: ParamSet(2, kind, np.zeros(4)), DI),
}


class TestKindContract:
    """Every kind argument: an object or its name, and a typed error for anything else."""

    @pytest.mark.parametrize("row", sorted(KIND_ARGUMENTS))
    def test_name_and_object_agree(self, row):
        call, kind = KIND_ARGUMENTS[row]
        assert repr(call(kind.name)) == repr(call(kind))

    @pytest.mark.parametrize("row", sorted(KIND_ARGUMENTS))
    def test_unknown_kinds_are_typed_errors(self, row):
        call, _ = KIND_ARGUMENTS[row]
        for bad in ("nope", 5, None):
            with pytest.raises(InvalidTableError, match=re.escape(repr(bad))):
                call(bad)


class TestSurgery:
    def test_swap_is_involution_and_exchanges_parity(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        s = swap_category(t, 1)
        assert s.entries.tolist() == [4, 5, 2, 3]
        assert swap_category(s, 1).allclose(t)

    def test_slice_and_collapse(self):
        t = BinaryTable.from_entries([6, 5, 5, 7, 3, 1, 3, 7])
        assert slice_table(t, 3, 1).entries.tolist() == [6, 5, 3, 3]
        assert slice_table(t, 3, 2).entries.tolist() == [5, 7, 1, 7]
        assert collapse(t, 3).entries.tolist() == [11, 12, 4, 10]

    def test_collapse_is_sum_of_slices(self):
        t = BinaryTable.from_entries(np.arange(1.0, 9.0))
        for i in (1, 2, 3):
            merged = slice_table(t, i, 1).entries + slice_table(t, i, 2).entries
            assert np.array_equal(collapse(t, i).entries, merged)

    def test_marginal_orders_do_not_matter(self):
        t = BinaryTable.from_entries(np.arange(1.0, 17.0))
        m = marginal(t, 0b0110)
        via_collapse = collapse(collapse(t, 4), 1)
        assert m.allclose(via_collapse)

    def test_zero_dim_marginal_is_total(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        assert marginal(t, 0b00).entries.tolist() == [14.0]

    def test_marginal_mask_range_checked(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        assert marginal(t, 0b11) is t
        assert marginal(t, 0b10).entries.tolist() == [5.0, 9.0]
        for mask in (-1, 0b100):
            with pytest.raises(InvalidTableError, match="mask"):
                marginal(t, mask)

    def test_variable_bounds_checked(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        with pytest.raises(InvalidTableError):
            slice_table(t, 3, 1)
        with pytest.raises(InvalidTableError):
            collapse(t, 0)

    def test_rescale_conditional_pair(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        r = rescale_conditional_pair(t, 1, (2,), 10.0)
        # V_1 pair at the V_2 = 2 cell scales; others untouched
        assert r.entries.tolist() == [2, 30, 4, 50]
        assert conditional_equal(t, r, 1)

    def test_conditional_equal_detects_change(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        bumped = BinaryTable.from_entries([2.1, 3, 4, 5])
        assert not conditional_equal(t, bumped, 1)
        assert conditional_equal(t, t, 1)


BIG = BinaryTable.from_entries([1e308] * 4)


class TestDerivedTablesLeaveTheFloatRange:
    """A valid input whose derived table leaves the float range raises EvaluationError.

    The arithmetic runs with numpy's overflow warning silenced (a
    RuntimeWarning fails the suite), and the error names the derivation and
    the entry that failed, never the input contract.
    """

    @pytest.mark.parametrize("derive, what, cause", [
        (lambda: collapse(BIG, 1), "the marginal over mask 1", "entries must be finite"),
        (lambda: marginal(BIG, 0), "the marginal over mask 0", "entries must be finite"),
        (lambda: rescale_conditional_pair(BIG, 1, (1,), 10.0), "the rescale by 10.0",
         "entries must be finite"),
        (lambda: rescale_conditional_pair(BinaryTable.from_entries([1e-320, 1, 1, 1]), 1, (1,),
                                          1e-10),
         "the rescale by 1e-10", r"entry 0\.0 at cell \(1, 1\) is not strictly positive"),
        (lambda: BIG.total, "the total", "entries must be finite"),
        (lambda: canonicalize(BinaryTable.from_entries([1e308, 1.0, 1e-308, 1.0])),
         "canonical step 1", "entries must be finite"),
    ], ids=["collapse", "marginal", "rescale-overflow", "rescale-underflow", "total",
            "canonicalize"])
    def test_typed_error_without_warning(self, derive, what, cause):
        with pytest.raises(EvaluationError, match=f"^{what} leaves the float range: {cause}$"):
            derive()

    def test_total_within_range_is_the_sum(self):
        assert BinaryTable.from_entries([2, 3, 4, 5]).total == 14.0
        assert BinaryTable.from_entries([1e308, 7e307]).total == 1.7e308


class TestKeyedGenerators:
    """``collapsibility._keyed_blocks`` gives the raw words of ``default_rng((seed, key))``,
    bit for bit.

    The comparison pins numpy's SeedSequence and PCG64 seeding, so a numpy
    release that changes either fails here, not in a golden far away.  The
    key ranges run from one key to the 4096 of a k = 1 block, so each range
    is one block; 7 and 8 keys sit just below and at a search's first block
    of 8 trials.  The class keeps its place here so that its test ids stay.
    """

    SEEDS = (0, 5, 2**32 - 1, 2**32, 2**63 - 1, 2**96)
    KEYS = (range(1), range(3), range(7), range(8), range(20), range(4096),
            range(2**31 - 6, 2**31 + 6), range(2**32 - 12, 2**32), range(2**32 - 12, 2**32 + 1))
    KEY_IDS = ("1", "3", "below-crossover", "at-crossover", "20", "4096", "2^31", "to-2^32-1",
               "to-2^32")

    @pytest.mark.parametrize("keys", KEYS, ids=KEY_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_equal_default_rng(self, seed, keys):
        (start, got), = _keyed_blocks(1, keys, seed, _CELL_BUDGET, 3)
        assert start == keys.start
        assert got.dtype == np.uint64 and got.shape == (len(keys), 3)
        assert got.tolist() == [np.random.default_rng((seed, key)).bit_generator.random_raw(3)
                                .tolist() for key in keys]

    @pytest.mark.parametrize("keys", KEYS, ids=KEY_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_path_rule(self, seed, keys, monkeypatch):
        # the vectorized pass takes every key when the entropy fits the 4-word pool
        passes = []

        def recording(seed, keys):
            passes.append(keys)
            return _pcg64_seeds(seed, keys)

        monkeypatch.setattr(collapsibility, "_pcg64_seeds", recording)
        list(_keyed_blocks(1, keys, seed, _CELL_BUDGET, 1))
        assert passes == ([keys] if seed < 2**96 and keys[-1] < 2**32 else [])


@given(small_tables(), st.data())
@settings(max_examples=200)
def test_swap_preserves_multiset(table, data):
    i = data.draw(st.integers(1, table.k))
    swapped = swap_category(table, i)
    assert sorted(swapped.entries) == sorted(table.entries)


@given(small_tables(), st.data())
@settings(max_examples=200)
def test_rescale_preserves_conditional(table, data):
    i = data.draw(st.integers(1, table.k))
    suffix = tuple(data.draw(st.integers(1, 2)) for _ in range(table.k - 1))
    c = data.draw(st.floats(0.1, 10.0))
    r = rescale_conditional_pair(table, i, suffix, c)
    assert conditional_equal(table, r, i)


@given(small_tables())
@settings(max_examples=200)
def test_normalized_total_is_one(table):
    assert np.isclose(table.normalized().total, 1.0, rtol=1e-12)


def test_normalized_total_beyond_float_range():
    # the total 4e308 overflows; the entries are scaled by a power of two first
    assert BinaryTable.from_entries([1e308] * 4).normalized().entries.tolist() == [0.25] * 4
    big = BinaryTable.from_entries([1e308, 7e307, 5e307, 1.5e308])
    assert big.normalized().allclose(BinaryTable(2, big.entries / 4).normalized(), rtol=0)
