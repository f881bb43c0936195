"""Core table type: indexing conventions, validation, and table surgery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bintab import (
    BinaryTable,
    InvalidTableError,
    cell_to_index,
    collapse,
    index_to_cell,
    marginal,
    parity,
    parity_signs,
    rescale_conditional_pair,
    slice_table,
    swap_category,
)
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
        assert np.array_equal(parity_signs(k, 2**k - 1), want)

    def test_parity_signs_memoized_read_only(self):
        first = parity_signs(3, 0b101)
        assert parity_signs(3, 0b101) is first
        with pytest.raises(ValueError):
            first[0] = 5.0
        assert first.tolist() == [1, -1, 1, -1, -1, 1, -1, 1]
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

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidTableError):
            BinaryTable.from_entries([1.0, 2.0, 3.0])

    def test_rejects_excessive_dimension(self):
        with pytest.raises(InvalidTableError, match="outside"):
            BinaryTable(25, np.ones(4))  # k cap fires before the shape check

    def test_entries_read_only(self):
        t = BinaryTable.from_entries([1, 2, 3, 4])
        with pytest.raises(ValueError):
            t.entries[0] = 9.0

    def test_construction_copies_input(self):
        src = np.array([1.0, 2.0, 3.0, 4.0])
        t = BinaryTable(2, src)
        src[0] = 99.0
        assert t[(1, 1)] == 1.0


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
        with pytest.raises(IndexError):
            slice_table(t, 3, 1)
        with pytest.raises(IndexError):
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
