"""Full 2^k parameter system: transforms, inversions, fixtures."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bintab import (
    DI,
    EX,
    LOR,
    BinaryTable,
    ContrastKind,
    ConvergenceError,
    EvaluationError,
    InvalidTableError,
    NonRealizableParamsError,
    ParamSet,
    di_forward_fast,
    di_inverse,
    full_params,
    fwht,
    lor_inverse,
    paramset_to_dict,
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
        assert ps.values[0b10] == -4.0
        assert paramset_to_dict(ps) == {
            "k": 2, "kind": "di", "00": 14.0, "01": -2.0, "10": -4.0, "11": 0.0}

    def test_zero_dim_key_is_empty_string(self):
        assert paramset_to_dict(ParamSet(0, "lor", np.array([0.5]))) == {
            "k": 0, "kind": "lor", "": 0.5}

    def test_kind_object_stored_as_name(self):
        v = full_params(BinaryTable.from_entries([2, 3, 4, 5]), LOR).values
        ps = ParamSet(2, LOR, v)
        assert ps.kind == "lor"
        assert lor_inverse(ps).allclose(BinaryTable.from_entries([2, 3, 4, 5]), rtol=1e-7)
        assert ParamSet(2, DI, np.zeros(4)).kind == "di"

    def test_look_alike_kind_rejected(self):
        t = BinaryTable.from_entries([2, 3, 4, 5])
        for kind in (ContrastKind("lor", math.sqrt), ContrastKind("di", math.log), EX):
            with pytest.raises(InvalidTableError):
                full_params(t, kind)
            with pytest.raises(InvalidTableError):
                ParamSet(2, kind, np.zeros(4))


class TestSignSystem:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_rows_orthogonal_with_norm_2k(self, k):
        a = sign_matrix(k)
        assert np.array_equal(a @ a.T, (2**k) * np.eye(2**k))

    def test_mask_signs_match_matrix_rows(self):
        assert np.array_equal(fwht(np.eye(8)), sign_matrix(3))

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
        for values in (np.zeros(0), np.zeros((3, 0)), 3.0, np.float64(3.0)):
            with pytest.raises(InvalidTableError):
                fwht(values)

    def test_fwht_leaves_its_input_and_reads_any_layout(self):
        rng = np.random.default_rng(23)
        table = random_table(6, rng)
        v = rng.normal(size=128)
        batch = np.asfortranarray(rng.normal(size=(5, 32)))
        for x in (table.entries, v[::2], batch, v):
            before = x.copy()
            assert np.array_equal(fwht(x), fwht(np.ascontiguousarray(x)))
            assert np.array_equal(x, before)
        assert not table.entries.flags.writeable


class TestDiParams:
    def test_k1_sum_and_difference(self):
        ps = full_params(BinaryTable.from_entries([7.0, 3.0]), "di")
        assert paramset_to_dict(ps) == {"k": 1, "kind": "di", "0": 10.0, "1": 4.0}

    def test_2345_fixture(self):
        ps = full_params(BinaryTable.from_entries([2, 3, 4, 5]), "di")
        assert paramset_to_dict(ps) == {
            "k": 2, "kind": "di", "00": 14.0, "01": -2.0, "10": -4.0, "11": 0.0}
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

    def test_total_beyond_float_range_is_typed(self):
        # the empty-mask value is the total, 4e308
        with pytest.raises(EvaluationError, match="DI parameters leave the float range"):
            full_params(BinaryTable.from_entries([1e308] * 4), "di")

    def test_inverse_of_values_near_the_float_limit(self):
        # A v passes the float range, A (v / 4) does not
        got = di_inverse(ParamSet(2, "di", [1.5e308, 1e308, 1e308, 1e308]))
        assert got.entries.tolist() == [1.125e308, 1.25e307, 1.25e307, 1.25e307]

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

    def test_lattice_survives_subnormal_beside_huge_entries(self):
        # the overflow guard must not flush 5e-324 to zero on the way
        entries = [1e308, 1e308, 1e308, 5e-324]
        got = full_params(BinaryTable.from_entries(entries), "lor").values
        want = [math.fsum(np.log(entries)), math.log(2.0), math.log(2.0),
                math.log(5e-324) - math.log(1e308)]
        assert np.max(np.abs(got - want)) < 1e-12

    def test_lattice_huge_entries_match_naive_on_rescaled(self):
        t = random_table(4, np.random.default_rng(4))
        big = t.entries * (1e308 / t.entries.max())
        got = full_params(BinaryTable(4, big), "lor").values
        want = naive_full_params(BinaryTable(4, big * 2.0**-600), "lor")
        want[0] = math.fsum(np.log(big))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_lattice_k_is_bounded_before_any_allocation(self):
        # the (3,)^k lattice grows x3 per k: 28 and 53 MiB peaks at k = 13
        table = BinaryTable.constant(17, 1.0)
        params = ParamSet(17, "lor", np.zeros(2**17))
        message = r"^k must be an integer in \[0, 16\], got 17$"
        tracemalloc.start()
        try:
            with pytest.raises(InvalidTableError, match=message):
                full_params(table, "lor")
            with pytest.raises(InvalidTableError, match=message):
                lor_inverse(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert full_params(table, "di").values[0] == 2.0**17  # the butterfly has no lattice

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
        assert ps.values[0b11] == pytest.approx(math.log(4), rel=1e-12)
        assert ps.values[0b10] == 0.0
        assert ps.values[0b01] == 0.0
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

    def test_huge_uniform_entries_fit(self):
        # the target log-product needs a factor of e^710: it is applied in logs
        t = BinaryTable.from_entries([1e308] * 4)
        fitted = lor_inverse(full_params(t, "lor"))
        assert fitted.allclose(t, rtol=1e-12)

    def test_subnormal_entries_fit(self):
        # the rescale to a log-product of about -2944 ends below the normal floats
        t = BinaryTable.from_entries([1e-320, 2e-320, 3e-320, 4e-320])
        target = full_params(t, "lor")
        assert np.max(np.abs(full_params(lor_inverse(target), "lor").values - target.values)) < 1e-8

    def test_cell_ratio_beyond_normal_floats_underflows(self):
        # the variable-2 margin puts 1.3e-600 of the total in one cell
        t = BinaryTable.from_entries([1e300, 1e-300, 2e300, 3e-300])
        with pytest.raises(EvaluationError, match=r"underflows.*mask 01 \(variables 2\)"):
            lor_inverse(full_params(t, "lor"))

    def test_bracket_closed_by_rounding_is_ill_conditioned(self):
        # realizable, as every target of a positive table is; the smallest
        # cell is 1.6e-20 of the total, below the rounding of the swept marginal
        t = BinaryTable.from_entries([2.030229596195942e-09, 5.074417299844181e-08,
                                      1.4809626957588854e-07, 127282061404.74075])
        with pytest.raises(EvaluationError, match=r"ill-conditioned.*mask 11 \(variables 1, 2\)"):
            lor_inverse(full_params(t, "lor"))

    @pytest.mark.parametrize("k, i, mask", [(5, 265, r"00111 \(variables 3, 4, 5\)"),
                                            (6, 182, r"001110 \(variables 3, 4, 5\)")])
    def test_bracket_closed_within_tol_is_ill_conditioned(self, k, i, mask):
        # targets of positive tables at spreads near 185 whose brackets close by
        # about 130 units of 2^-52 sum|known| / 2^d: past the 64-unit rounding
        # bound, so they were once called non-realizable, but within tol
        rng = np.random.default_rng((42, k, i))
        spread = rng.uniform(1, 300)
        t = BinaryTable(k, np.exp(rng.uniform(-spread, spread, 2**k)))
        with pytest.raises(EvaluationError, match=f"ill-conditioned.*mask {mask}"):
            lor_inverse(full_params(t, "lor"))

    def test_log_product_beyond_float_range(self):
        with pytest.raises(EvaluationError, match="float range"):
            lor_inverse(ParamSet(1, "lor", np.array([3000.0, 0.0])))

    def test_convergence_error_carries_residual(self):
        t = random_table(3, np.random.default_rng(7))
        with pytest.raises(ConvergenceError) as err:
            lor_inverse(full_params(t, "lor"), tol=1e-13, max_iter=1)
        assert err.value.residual > 0

    def test_newton_pass_beyond_float_range_ends_the_passes(self):
        # the first pass sends one cell to inf and another to 0
        values = [-85.46220641398918, 10.91482261918614, -10.90615757215107,
                  -22.616127909961502, -15.564220904411929, 29.500725347039282,
                  51.33123561923685, 203.73062204185663]
        with pytest.raises(ConvergenceError, match="after 0 refinement passes"):
            lor_inverse(ParamSet(3, "lor", values))

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


#: SHA-256 of the fitted entries of TestLorFitCorpus's e^±8 targets, k = 2..8
FITTED_BITS = "6d48828b41d86e20cb26aff5bf2e0e934777d14dc4b876907762b1e3dff52fcd"


@pytest.mark.bits
class TestLorFitCorpus:
    """Fixed log-uniform targets, entries ``exp(U(-spread, spread))``: all converge to 1e-8."""

    @staticmethod
    def _fit(k, spread, *key, tol=1e-8):
        rng = np.random.default_rng((2014, k, spread) + key)
        entries = np.exp(rng.uniform(-spread, spread, 2**k))
        target = full_params(BinaryTable(k, entries), "lor")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return target, lor_inverse(target, tol=tol)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_converges_at_spread_3(self, k):
        target, fitted = self._fit(k, 3)
        assert np.max(np.abs(full_params(fitted, "lor").values - target.values)) < 1e-8

    def test_wide_spread_converges(self):
        target, fitted = self._fit(6, 10)
        assert np.max(np.abs(full_params(fitted, "lor").values - target.values)) < 1e-8

    @pytest.mark.parametrize("spread", (3, 6, 8))
    @pytest.mark.parametrize("k", range(2, 9))
    def test_corpus_converges(self, k, spread):
        # eight targets per (k, spread), keyed (2014, k, spread, i)
        for i in range(8):
            target, fitted = self._fit(k, spread, i)
            assert np.max(np.abs(full_params(fitted, "lor").values - target.values)) < 1e-8, i

    @pytest.mark.parametrize("k, spread", [(k, 10) for k in range(2, 9)] + [(4, 14)])
    def test_wide_corpus_converges_or_reports_residual(self, k, spread):
        for i in range(8):
            try:
                target, fitted = self._fit(k, spread, i)
            except ConvergenceError as err:
                assert math.isfinite(err.residual) and err.residual >= 1e-8, i
            else:
                assert np.all(np.isfinite(fitted.entries)), i
                assert np.max(np.abs(full_params(fitted, "lor").values - target.values)) < 1e-8, i

    @pytest.mark.parametrize("k, spread", [(4, 14), (6, 10), (8, 10)])
    def test_newton_passes_reach_1e_12(self, k, spread):
        # the sweep alone leaves up to about 1e-7 on these targets
        for i in range(8):
            target, fitted = self._fit(k, spread, i, tol=1e-12)
            assert np.max(np.abs(full_params(fitted, "lor").values - target.values)) < 1e-12, i

    def test_fitted_bits_are_pinned(self):
        # one e^±8 target per k: the fit uses no reduction whose bits depend
        # on the BLAS thread count, so these digests hold for any of them
        digest = hashlib.sha256()
        for k in range(2, 9):
            digest.update(self._fit(k, 8, 0)[1].entries.tobytes())
        assert digest.hexdigest() == FITTED_BITS

    def test_k12_fit_memory_is_order_3_to_the_k(self):
        # 3^12 lattice cells and the per-dimension index tables: about 23 MB;
        # one 2^k sign row per mask, as a per-mask solve would hold, is 224 MB
        tracemalloc.start()
        try:
            target, fitted = self._fit(12, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.max(np.abs(full_params(fitted, "lor").values - target.values)) < 1e-8

    @pytest.mark.parametrize("spread", (15, 20, 30))
    def test_wide_targets_are_never_called_non_realizable(self, spread):
        # every target comes from a positive table, so only a fit or the
        # ill-conditioned and convergence errors may end it; keyed (11, k, spread, i)
        for k in range(2, 7):
            for i in range(40):
                rng = np.random.default_rng((11, k, spread, i))
                target = full_params(BinaryTable(k, np.exp(rng.uniform(-spread, spread, 2**k))),
                                     "lor")
                try:
                    lor_inverse(target)
                except (ConvergenceError, EvaluationError):
                    pass

    def test_contradictory_pairs_are_not_realizable(self):
        # V1 ~ V2 and V1 ~ V3 strongly positive, V2 ~ V3 strongly negative
        values = np.zeros(8)
        values[0b110] = values[0b101] = 20.0
        values[0b011] = -20.0
        with pytest.raises(NonRealizableParamsError, match=r"mask 111 \(variables 1, 2, 3\)"):
            lor_inverse(ParamSet(3, "lor", values))


#: SHA-256 of TestKernelBits's corpus: fwht outputs, then LOR full_params values
KERNEL_BITS = "a7ad3e5c3de9abe01c89ada426a56a083d3a149c2809fe992f036328f69cc2b9"


@pytest.mark.bits
class TestKernelBits:
    """The Walsh butterfly and the marginal lattice, pinned bit for bit beyond the fits' k."""

    @staticmethod
    def _floats(rng, shape, low, high):
        # mantissas in [0.5, 1) times 2^e, e uniform in [low, high): no libm call
        return np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(low, high, shape))

    def test_kernel_bits_are_pinned(self):
        digest = hashlib.sha256()
        for k in range(17):
            rng = np.random.default_rng((23, 1, k))
            signs = rng.choice((-1.0, 1.0), 2**k)
            digest.update(fwht(signs * self._floats(rng, 2**k, -43, 44)).tobytes())
        for k in range(1, 11):
            rng = np.random.default_rng((23, 2, k))
            for shape in ((7, 2**k), (3, 5, 2**k)):
                signs = rng.choice((-1.0, 1.0), shape)
                digest.update(fwht(signs * self._floats(rng, shape, -900, 901)).tobytes())
        for k in range(13):
            rng = np.random.default_rng((23, 3, k))
            # moderate cells, cells spanning the float range with a total below
            # 2^1022, and cells with one at 2^1023, whose lattice takes np.logaddexp
            huge = self._floats(rng, 2**k, -1060, 1024)
            huge[rng.integers(2**k)] = 2.0**1023
            for entries in (self._floats(rng, 2**k, -12, 13),
                            self._floats(rng, 2**k, -1060, 1000), huge):
                digest.update(full_params(BinaryTable(k, entries), "lor").values.tobytes())
        assert digest.hexdigest() == KERNEL_BITS
