"""Canonical reduction and additive decomposition."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bintab import (
    BinaryTable,
    Decomposition,
    EvaluationError,
    InvalidTableError,
    canonicalize,
    decompose,
    di,
    lor,
    odds_ratio,
    parity,
    random_table,
    recompose,
    swap_category,
)
from oracles import conditional_equal


def tables(max_k=6):
    return st.integers(1, max_k).flatmap(
        lambda k: st.lists(
            st.floats(0.05, 20.0, allow_nan=False), min_size=2**k, max_size=2**k
        ).map(BinaryTable.from_entries)
    )


class TestCanonicalize:
    def test_canonical_input_is_fixed_point(self):
        t = BinaryTable.from_entries([5.0, 1.0, 1.0, 1.0])
        trace = canonicalize(t)
        assert trace.final.allclose(t, rtol=0)
        for _, step in trace.steps:
            assert step.allclose(t, rtol=0)

    def test_heavy_corner_fixture(self):
        t = BinaryTable.from_entries([0.3140] + [0.098] * 7)
        final = canonicalize(t).final
        assert final.entries[0] == pytest.approx(0.3140 / 0.098, rel=1e-10)
        assert np.all(final.entries[1:] == 1.0)
        assert final.entries[0] == pytest.approx(odds_ratio(t), rel=1e-10)

    def test_2112_fixture(self):
        trace = canonicalize(BinaryTable.from_entries([2, 1, 1, 2]))
        assert trace.steps[0][1].entries.tolist() == [2.0, 0.5, 1.0, 1.0]
        assert trace.final.entries.tolist() == [4.0, 1.0, 1.0, 1.0]

    def test_k1(self):
        trace = canonicalize(BinaryTable.from_entries([3.0, 4.0]))
        assert trace.final.entries.tolist() == [0.75, 1.0]

    @pytest.mark.parametrize("entries, cause", [
        ([1e308, 1e-308, 1.0, 1.0], "entries must be finite"),
        ([1e-308, 1e308, 1.0, 1.0], r"entry 0\.0 at cell \(1, 1\) is not strictly positive"),
    ], ids=["overflow", "underflow"])
    def test_step_beyond_float_range_is_typed(self, entries, cause):
        with pytest.raises(EvaluationError,
                           match=f"^canonical step 2 leaves the float range: {cause}$"):
            canonicalize(BinaryTable.from_entries(entries))

    def test_step_labels_run_through_variables(self):
        trace = canonicalize(random_table(4, np.random.default_rng(0)))
        assert [i for i, _ in trace.steps] == [1, 2, 3, 4]
        assert trace.final is trace.steps[-1][1]

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_reduction_suite(self, t):
        trace = canonicalize(t)
        target = lor(t)
        prev = t
        for i, step in trace.steps:
            # each step: same conditional for the variable it touched, same LOR
            assert conditional_equal(prev, step, i)
            assert math.isclose(lor(step), target, rel_tol=1e-10, abs_tol=1e-10)
            # entries outside the leading all-ones block are already 1
            block = 2 ** (t.k - i)
            assert np.allclose(step.entries[block:], 1.0, rtol=0, atol=1e-12)
            prev = step
        assert trace.final.entries[0] == pytest.approx(odds_ratio(t), rel=1e-10)
        assert math.copysign(1, lor(t)) == math.copysign(
            1, math.log(trace.final.entries[0])
        ) or abs(lor(t)) < 1e-12

    @given(tables(4))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, t):
        final = canonicalize(t).final
        assert canonicalize(final).final.allclose(final, rtol=1e-12)


def _decompose_corpus():
    """Seeded tables for :func:`decompose`, k = 0..8.

    Each k draws entries near 1, small integers (ties at both ends of the
    pair choice), a constant, and entries spread over about 2000 binades
    (some of whose increments fall below the normal floats).
    """
    rng = np.random.default_rng(2489)
    for k in range(9):
        n = 2**k
        for _ in range(6):
            wide = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1022, 1000, n))
            for entries in (rng.uniform(0.05, 20.0, n), rng.integers(1, 5, n).astype(float),
                            np.full(n, rng.uniform(0.05, 20.0)), wide):
                yield BinaryTable(k, entries)


class TestDecompose:
    def test_2345_pairs_only(self):
        d = decompose(BinaryTable.from_entries([2, 3, 4, 5]))
        assert d.s == 2.0
        assert d.case == "zero"
        assert d.peak_components == ()
        assert d.increment == pytest.approx(2 / 3, rel=1e-15)
        assert len(d.pair_components) == 3
        base = np.full(4, d.increment)
        assert np.array_equal(d.pair_components[0].entries, base)
        want1, want2 = base.copy(), base.copy()
        want1[[1, 3]] += 1.0
        want2[[2, 3]] += 2.0
        assert np.array_equal(d.pair_components[1].entries, want1)
        assert np.array_equal(d.pair_components[2].entries, want2)

    @pytest.mark.parametrize(
        "entries, pairs, peaks, case",
        [
            # smallest residues tie across the odd cells 1, 2, 4 and the
            # largest even residues tie across 3, 5, 6
            (
                [1, 3, 3, 2, 3, 2, 2, 1],
                [[1, 3], [1, 5], [2, 6]],
                [(1, 2, 1), (2, 1, 1)],
                "negative",
            ),
            (
                [1, 2, 3, 3, 2, 3, 3, 2],
                [[1, 3], [2, 3], [2, 5], [4, 6], [5, 7]],
                [(2, 2, 1)],
                "positive",
            ),
            # partner 5's residue reaches exactly 0, so its heap item (1, 5) is stale
            # and skipped before the next smallest residue, cell 6, is found
            ([1, 1, 1, 1, 2, 2, 2, 2], [[4, 5], [6, 7]], [], "zero"),
            # partner 6's residue falls from 3 to 2 and ties cell 5's: its stale item
            # (-3, 6) is skipped, and the next partner is the lower index, 5
            ([1, 1, 1, 1, 2, 3, 4, 2], [[4, 6], [5, 7]], [(2, 1, 2), (2, 2, 1)], "positive"),
        ],
    )
    def test_ties_go_to_lowest_index(self, entries, pairs, peaks, case):
        d = decompose(BinaryTable.from_entries(entries))
        assert d.s == 1.0
        assert d.case == case
        assert d.increment == 1.0 / (len(pairs) + 1 + len(peaks))
        raised = [np.flatnonzero(c.entries > d.increment).tolist() for c in d.pair_components]
        assert raised == [[]] + pairs
        assert [cell for cell, _ in d.peak_components] == peaks

    def test_3112_peaks_in_even_class(self):
        d = decompose(BinaryTable.from_entries([3, 1, 1, 2]))
        assert d.case == "positive"
        assert d.increment == pytest.approx(1 / 3, rel=1e-15)
        assert len(d.pair_components) == 1
        cells = [cell for cell, _ in d.peak_components]
        assert cells == [(1, 1), (2, 2)]
        assert d.peak_components[0][1].entries[0] == pytest.approx(2 + 1 / 3)
        assert d.peak_components[1][1].entries[3] == pytest.approx(1 + 1 / 3)

    def test_constant_table_single_component(self):
        d = decompose(BinaryTable.constant(3, 4.5))
        assert d.case == "zero"
        assert len(d.pair_components) == 1 and not d.peak_components
        assert np.array_equal(d.pair_components[0].entries, np.full(8, 4.5))

    def test_case_flips_under_swap(self):
        t = BinaryTable.from_entries([3, 1, 1, 2])
        assert decompose(t).case == "positive"
        assert decompose(swap_category(t, 1)).case == "negative"
        assert decompose(swap_category(t, 2)).case == "negative"

    def test_case_matches_di_sign(self):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(200):
            t = random_table(3, rng)
            d = decompose(t)
            seen.add(d.case)
            value = di(t)
            if d.case == "positive":
                assert value > 0
            elif d.case == "negative":
                assert value < 0
        assert "positive" in seen and "negative" in seen

    @given(tables(8))
    @settings(max_examples=60, deadline=None)
    def test_component_invariants(self, t):
        d = decompose(t)
        n = 2**t.k
        assert len(d.pair_components) - 1 <= n - 1
        for comp in d.pair_components + tuple(comp for _, comp in d.peak_components):
            assert not comp.entries.flags.writeable
            assert np.array_equal(BinaryTable(t.k, comp.entries).entries, comp.entries)
        for comp in d.pair_components:
            assert di(comp) == 0.0
        for cell, comp in d.peak_components:
            idx = sum((j - 1) << (t.k - i - 1) for i, j in enumerate(cell))
            expected_parity = "even" if d.case == "positive" else "odd"
            assert parity(cell) == expected_parity
            peak_value = di(comp)
            assert (peak_value > 0) == (d.case == "positive")
            # off-peak cells are the shared increment, the peak is strictly above it
            assert comp.entries[idx] > d.increment
        peak_sum = math.fsum(di(comp) for _, comp in d.peak_components)
        scale = max(abs(di(t)), t.total)
        assert abs(peak_sum - di(t)) <= 1e-12 * scale

    @given(tables(8))
    @settings(max_examples=60, deadline=None)
    def test_recompose_round_trip(self, t):
        assert recompose(decompose(t)).allclose(t, rtol=1e-12)

    @pytest.mark.parametrize("entries", [[5e-324, 1.0, 1.0, 1.0], [1e-320] + [1.0] * 7],
                             ids=["zero", "subnormal"])
    def test_increment_below_normal_floats_is_typed(self, entries):
        # s / 3 is 0.0 and s / 5 is 2e-321, which recomposes to 1.0005e-320
        with pytest.raises(EvaluationError, match="below the smallest normal float"):
            decompose(BinaryTable.from_entries(entries))

    def test_k_past_the_bound_fails_before_allocating(self):
        # the output holds up to 2^k components of 2^k entries: 129 MiB at k=12, x4 per k
        t = BinaryTable.constant(13, 1.0)
        message = r"^k must be an integer in \[0, 12\], got 13$"
        tracemalloc.start()
        try:
            with pytest.raises(InvalidTableError, match=message):
                decompose(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        big = random_table(12, np.random.default_rng(12))
        assert recompose(decompose(big)).allclose(big, rtol=1e-12)

    # SHA-256 of the records below, computed once and frozen
    DIGEST = "35978fcd8e60dd083e2b4b5cfd9b2d7df8092d2c60cd40b94159d52990311d83"

    def test_corpus_digest(self):
        records = []
        for t in _decompose_corpus():
            try:
                d = decompose(t)
            except EvaluationError as exc:
                records.append(f"{type(exc).__name__}: {exc}")
                continue
            records.append(f"{d.s.hex()} {d.case} {d.increment.hex()}")
            records += [c.entries.tobytes().hex() for c in d.pair_components]
            records += [f"{cell} {c.entries.tobytes().hex()}" for cell, c in d.peak_components]
        assert len(records) == 7366
        assert hashlib.sha256("\n".join(records).encode()).hexdigest() == self.DIGEST

    def test_recompose_past_the_float_range_is_typed(self):
        # the entries reach the largest float, and the components' sum rounds past it
        t = BinaryTable.from_entries([8.988465674311579e307, 1.7976931348623157e308,
                                      1.7976931348623157e308, 8.988465674311579e307])
        d = decompose(t)
        with pytest.raises(EvaluationError, match="^the recomposed table leaves the float range"):
            recompose(d)

    def test_recompose_rejects_empty_and_mismatched(self):
        from bintab import InvalidTableError

        d = Decomposition(0.0, "zero", (), (), 0.0)
        with pytest.raises(InvalidTableError):
            recompose(d)
        bad = Decomposition(
            0.0,
            "zero",
            (BinaryTable.constant(1, 1.0), BinaryTable.constant(2, 1.0)),
            (),
            0.0,
        )
        with pytest.raises(InvalidTableError):
            recompose(bad)
