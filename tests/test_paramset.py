"""Full 2^k parameter system: transforms, inversions, fixtures."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bintab import (
    BinaryTable,
    ConvergenceError,
    EvaluationError,
    InvalidTableError,
    MarginMask,
    NonRealizableParamsError,
    ParamSet,
    di_forward_fast,
    di_inverse,
    full_params,
    fwht,
    lor_inverse,
    mask_signs,
    masks_by_dimension,
    random_table,
)
from oracles import naive_full_params, sign_matrix


class TestParamSetType:
    def test_requires_full_vector(self):
        with pytest.raises(InvalidTableError):
            ParamSet(2, "di", np.zeros(3))

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidTableError):
            ParamSet(2, "ex", np.zeros(4))

    def test_value_by_mask(self):
        ps = ParamSet(2, "di", np.array([14.0, -2.0, -4.0, 0.0]))
        assert ps.value(MarginMask.from_string("10")) == -4.0
        assert ps.as_dict() == {"00": 14.0, "01": -2.0, "10": -4.0, "11": 0.0}

    def test_mask_length_checked(self):
        ps = ParamSet(2, "di", np.zeros(4))
        with pytest.raises(InvalidTableError):
            ps.value(MarginMask.from_string("100"))


class TestSignSystem:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_rows_orthogonal_with_norm_2k(self, k):
        a = sign_matrix(k)
        assert np.array_equal(a @ a.T, (2**k) * np.eye(2**k))

    def test_mask_signs_match_matrix_rows(self):
        a = sign_matrix(3)
        for m in range(8):
            assert np.array_equal(mask_signs(m, 3), a[m])

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100)
    def test_fwht_equals_matrix_product(self, k, data):
        xs = data.draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=2**k, max_size=2**k)
        )
        v = np.array(xs)
        assert np.allclose(fwht(v), sign_matrix(k) @ v, rtol=1e-12, atol=1e-9)

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=100)
    def test_fwht_self_inverse_up_to_n(self, k, data):
        xs = data.draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=2**k, max_size=2**k)
        )
        v = np.array(xs)
        assert np.allclose(fwht(fwht(v)) / 2**k, v, rtol=1e-12, atol=1e-9)

    def test_fwht_batched(self):
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(5, 16))
        stacked = np.stack([fwht(row) for row in batch])
        assert np.allclose(fwht(batch), stacked, rtol=1e-12, atol=0)

    def test_fwht_rejects_non_power_of_two(self):
        with pytest.raises(InvalidTableError):
            fwht(np.zeros(3))

    def test_mask_order_nondecreasing_dimension(self):
        order = masks_by_dimension(3)
        assert order == [0, 1, 2, 4, 3, 5, 6, 7]
        dims = [m.bit_count() for m in order]
        assert dims == sorted(dims)


class TestDiParams:
    def test_k1_sum_and_difference(self):
        ps = full_params(BinaryTable.from_entries([7.0, 3.0]), "di")
        assert ps.as_dict() == {"0": 10.0, "1": 4.0}

    def test_2345_fixture(self):
        ps = full_params(BinaryTable.from_entries([2, 3, 4, 5]), "di")
        assert ps.as_dict() == {"00": 14.0, "01": -2.0, "10": -4.0, "11": 0.0}
        assert di_forward_fast(BinaryTable.from_entries([2, 3, 4, 5])).allclose(ps)

    def test_uniform_concentrates_on_empty_mask(self):
        ps = di_forward_fast(BinaryTable.constant(3, 2.0))
        assert ps.values[0] == 16.0
        assert np.all(ps.values[1:] == 0.0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_fast_matches_naive(self, k):
        t = random_table(k, np.random.default_rng(k))
        fast = di_forward_fast(t).values
        naive = naive_full_params(t, "di")
        scale = np.maximum(np.abs(naive), t.total)
        assert np.max(np.abs(fast - naive) / scale) < 1e-12

    def test_inverse_fixture(self):
        ps = ParamSet(2, "di", np.array([14.0, -2.0, -4.0, 0.0]))
        assert di_inverse(ps).entries.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_inverse_rejects_nonrealizable(self):
        ps = ParamSet(1, "di", np.array([2.0, 4.0]))
        with pytest.raises(NonRealizableParamsError) as err:
            di_inverse(ps)
        assert err.value.entries.tolist() == [3.0, -1.0]

    def test_inverse_requires_di_kind(self):
        with pytest.raises(InvalidTableError):
            di_inverse(ParamSet(1, "lor", np.zeros(2)))

    @pytest.mark.parametrize("k", (1, 3, 5, 8))
    def test_round_trip_both_ways(self, k):
        t = random_table(k, np.random.default_rng(100 + k))
        ps = di_forward_fast(t)
        assert di_inverse(ps).allclose(t, rtol=1e-12)
        again = di_forward_fast(di_inverse(ps))
        scale = np.maximum(np.abs(ps.values), t.total)
        assert np.max(np.abs(again.values - ps.values) / scale) < 1e-12


class TestLorParams:
    def test_empty_mask_is_log_product(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        ps = full_params(t, "lor")
        assert ps.values[0] == pytest.approx(math.log(2 * 3 * 4 * 5), rel=1e-12)
        assert ps.values[-1] == pytest.approx(math.log(10 / 12), rel=1e-12)

    @pytest.mark.parametrize("k", range(0, 11))
    def test_lattice_matches_naive(self, k):
        t = random_table(k, np.random.default_rng(k))
        fast = full_params(t, "lor").values
        assert np.max(np.abs(fast - naive_full_params(t, "lor"))) < 1e-12

    def test_lattice_survives_huge_uniform_entries(self):
        # the total 4e308 overflows, yet every parameter is finite
        ps = full_params(BinaryTable.from_entries([1e308] * 4), "lor")
        assert ps.values[0] == pytest.approx(4 * math.log(1e308), rel=1e-12)
        assert np.all(ps.values[1:] == 0.0)

    def test_lattice_huge_entries_match_naive_on_rescaled(self):
        t = random_table(4, np.random.default_rng(4))
        big = t.entries * (1e308 / t.entries.max())
        got = full_params(BinaryTable(4, big), "lor").values
        want = naive_full_params(BinaryTable(4, big * 2.0**-600), "lor")
        want[0] = math.fsum(np.log(big))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_uniform_lor_params_vanish(self):
        ps = full_params(BinaryTable.constant(3, 1.0), "lor")
        assert np.all(ps.values == 0.0)

    def test_zero_targets_give_constant_table(self):
        c = 3.7
        values = np.zeros(8)
        values[0] = 8 * math.log(c)
        t = lor_inverse(ParamSet(3, "lor", values))
        assert np.allclose(t.entries, c, rtol=1e-9)

    def test_forward_fixture_2112(self):
        t = BinaryTable.from_entries([2, 1, 1, 2])
        ps = full_params(t, "lor")
        assert ps.value(MarginMask.from_string("11")) == pytest.approx(math.log(4), rel=1e-12)
        assert ps.value(MarginMask.from_string("10")) == 0.0
        assert ps.value(MarginMask.from_string("01")) == 0.0
        rebuilt = lor_inverse(ps)
        assert rebuilt.allclose(t, rtol=1e-7)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_round_trip_random(self, k):
        t = random_table(k, np.random.default_rng(200 + k))
        target = full_params(t, "lor")
        fitted = lor_inverse(target)
        resid = np.max(np.abs(full_params(fitted, "lor").values - target.values))
        assert resid < 1e-8
        # the fit is essentially the original table, not merely parameter-close
        assert fitted.allclose(t, rtol=1e-5)

    def test_mixed_parameterization_witness(self):
        # sub-top coordinates from r, top-order association from s: always realizable
        rng = np.random.default_rng(42)
        for _ in range(5):
            r, s = random_table(2, rng), random_table(2, rng)
            values = full_params(r, "lor").values.copy()
            values[-1] = full_params(s, "lor").values[-1]
            fitted = lor_inverse(ParamSet(2, "lor", values))
            got = full_params(fitted, "lor").values
            assert np.max(np.abs(got - values)) < 1e-8

    def test_convergence_error_carries_residual(self):
        t = random_table(3, np.random.default_rng(7))
        with pytest.raises(ConvergenceError) as err:
            lor_inverse(full_params(t, "lor"), tol=1e-13, max_iter=1)
        assert err.value.residual > 0

    def test_requires_lor_kind_and_positive_tol(self):
        with pytest.raises(InvalidTableError):
            lor_inverse(ParamSet(1, "di", np.zeros(2)))
        with pytest.raises(InvalidTableError):
            lor_inverse(ParamSet(1, "lor", np.zeros(2)), tol=0.0)

    def test_di_and_lor_zero_dim_conventions_agree(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        assert full_params(t, "di").values[0] == t.total
        assert full_params(t, "lor").values[0] == pytest.approx(
            float(np.log(t.entries).sum()), rel=1e-12
        )


class TestLorFitCorpus:
    """Fixed log-uniform targets: converge at e^±3, a typed error at e^±10."""

    @staticmethod
    def _fit(k, spread):
        entries = np.exp(np.random.default_rng((2014, k, spread)).uniform(-spread, spread, 2**k))
        target = full_params(BinaryTable(k, entries), "lor")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return target, lor_inverse(target)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_converges_at_spread_3(self, k):
        target, fitted = self._fit(k, 3)
        assert np.max(np.abs(full_params(fitted, "lor").values - target.values)) < 1e-8

    def test_wide_spread_raises_evaluation_error(self):
        with pytest.raises(EvaluationError):
            self._fit(6, 10)
