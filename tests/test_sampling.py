"""Sign-decision probabilities under multinomial sampling."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from bintab import (
    BAHADUR,
    DI,
    EX,
    LOR,
    BinaryTable,
    ContrastKind,
    EvaluationError,
    InvalidTableError,
    even_parity_mass,
    prob_di_positive_exact,
    prob_di_positive_normal,
    sign,
    simulate_decisions,
    table_with_even_mass,
)
from bintab import sampling
from bintab.sampling import _LF_BLOCKS, _log_factorial_block, _sample_sign
from oracles import scalar_exact_tail


class TestEvenParityMass:
    def test_heavy_corner(self):
        t = BinaryTable.from_entries([0.3140] + [0.098] * 7)
        assert even_parity_mass(t) == pytest.approx(0.608, rel=1e-12)

    def test_uniform_is_half(self):
        assert even_parity_mass(BinaryTable.constant(3, 0.125)) == 0.5

    @pytest.mark.parametrize("k,p", [(1, 0.3), (2, 0.525), (4, 0.9)])
    def test_constructed_table_round_trip(self, k, p):
        t = table_with_even_mass(k, p)
        assert even_parity_mass(t) == pytest.approx(p, rel=1e-12)
        assert t.total == pytest.approx(1.0, rel=1e-12)

    def test_total_beyond_float_range(self):
        assert even_parity_mass(BinaryTable.from_entries([1e308] * 4)) == 0.5
        big = BinaryTable.from_entries([1e308, 7e307, 5e307, 1.5e308])
        assert even_parity_mass(big) == even_parity_mass(BinaryTable(2, big.entries / 4))

    def test_constructor_rejects_boundary_mass(self):
        with pytest.raises(InvalidTableError):
            table_with_even_mass(2, 0.0)
        with pytest.raises(InvalidTableError):
            table_with_even_mass(2, 1.0)

    def test_underflowing_class_share_is_an_evaluation_error(self):
        # a valid p_even whose share per cell rounds to 0.0 is a float-range failure
        with pytest.raises(EvaluationError, match="leaves the float range"):
            table_with_even_mass(20, 1e-318)
        with pytest.raises(EvaluationError, match="leaves the float range"):
            table_with_even_mass(2, 5e-324)


class TestExactTail:
    def test_single_draw(self):
        assert prob_di_positive_exact(1, 0.7) == pytest.approx(0.7, rel=1e-14)

    def test_two_draws_tie_excluded(self):
        # X=1 is a tie at N=2, so only X=2 counts
        assert prob_di_positive_exact(2, 0.5) == pytest.approx(0.25, rel=1e-14)

    def test_symmetric_odd_n(self):
        assert prob_di_positive_exact(3, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_frozen_value(self):
        assert prob_di_positive_exact(1000, 0.525) == pytest.approx(
            0.9395368368415716, rel=1e-9
        )

    def test_matches_scipy_tail(self):
        for N, p in [(1000, 0.525), (201, 0.4), (500, 0.61)]:
            assert prob_di_positive_exact(N, p) == pytest.approx(
                float(binom.sf(N // 2, N, p)), rel=1e-12
            )

    def test_monotone_in_p(self):
        ps = [0.3, 0.4, 0.5, 0.55, 0.6, 0.7]
        vals = [prob_di_positive_exact(500, p) for p in ps]
        assert vals == sorted(vals)

    def test_grows_with_n_above_half(self):
        vals = [prob_di_positive_exact(N, 0.525) for N in (100, 400, 1600, 6400)]
        assert vals == sorted(vals)
        assert vals[-1] > 0.999

    def test_validation(self):
        with pytest.raises(InvalidTableError):
            prob_di_positive_exact(0, 0.5)
        with pytest.raises(InvalidTableError):
            prob_di_positive_exact(10, 1.0)
        for prob in (prob_di_positive_exact, prob_di_positive_normal):
            with pytest.raises(InvalidTableError, match="N must be an integer >= 1, got True"):
                prob(True, 0.5)

    def test_n_past_the_bound_fails_before_the_window_is_formed(self, monkeypatch):
        def no_window(lo, hi):
            raise AssertionError("the window was formed")

        monkeypatch.setattr(sampling, "_log_factorials", no_window)
        message = "N must be an integer in [1, 10000000000], got 10000000001"
        with pytest.raises(InvalidTableError, match=f"^{re.escape(message)}$"):
            prob_di_positive_exact(10**10 + 1, 0.5)
        assert prob_di_positive_exact(10**10, 0.45) == 0.0  # at the bound, an empty window
        assert prob_di_positive_normal(10**10 + 1, 0.5) == 0.5


def _tail_grid():
    """(N, p) pairs: p within 4/sqrt(N) of 1/2, and far out in both tails."""
    for N in (1, 2, 3, 4, 5, 10, 11, 100, 10**3, 10**4, 10**5, 10**6):
        near = [0.5 + d / math.sqrt(N) for d in (-4, -2.5, -1, -0.2, 0, 0.3, 1, 2.5, 4)]
        for p in [q for q in near if 0 < q < 1] + [1e-300, 1e-12, 0.3, 0.9, 1 - 1e-15]:
            yield N, p


def _window_edges():
    """(N, p) pairs at the edges of the summed window |x - Np| <= r, r = sqrt(373.5 N) + 1."""
    yield 10**6, 0.45  # Np + r < N/2: the window is empty
    yield 10**6, 0.480674  # Np + r ends just past N/2: two terms, both below the floor
    yield 10**4, 0.505  # clipped at N//2 + 1
    yield 10**4, 0.99  # clipped at N
    yield 100, 0.6  # clipped at both ends
    yield 10**5, 1 - 1e-12  # clipped at N, the sum rounds to 1.0


def _keyed_tails(count=200):
    """Keyed (N, p): N log-uniform in [1, 10^7], p within about 8/sqrt(N) of 1/2."""
    for i in range(count):
        rng = np.random.default_rng((17, i))
        N = int(10 ** rng.uniform(0, 7))
        yield N, float(1 / (1 + np.exp(rng.uniform(-8, 8) / math.sqrt(N))))


@pytest.mark.bits
class TestExactTailMatchesScalarOracle:
    """The one-pass window returns the bits of the one-term-at-a-time sum."""

    @pytest.mark.parametrize("N, p", list(_tail_grid()) + list(_window_edges())
                             + list(_keyed_tails()))
    def test_bits_with_cold_and_warm_cache(self, N, p):
        want = scalar_exact_tail(N, p).hex()
        _log_factorial_block.cache_clear()
        assert prob_di_positive_exact(N, p).hex() == want  # cold
        assert prob_di_positive_exact(N, p).hex() == want  # warm

    def test_block_cache_stays_under_its_cap(self):
        # walks at N = 10^7 need more blocks than the cache keeps, so it evicts
        _log_factorial_block.cache_clear()
        tracemalloc.start()
        try:
            for N in (10**6, 3 * 10**6, 10**7):
                for d in (-3.0, 0.5, 2.0):
                    prob_di_positive_exact(N, 0.5 + d / math.sqrt(N))
                prob_di_positive_exact(N, 0.8)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert _log_factorial_block.cache_info().currsize == _LF_BLOCKS
        assert retained <= 4_000_000


class TestNormalApprox:
    def test_half_is_half(self):
        for N in (1, 10, 12345):
            assert prob_di_positive_normal(N, 0.5) == 0.5

    def test_frozen_value(self):
        assert prob_di_positive_normal(1000, 0.525) == pytest.approx(
            0.9433028243608111, rel=1e-12
        )

    def test_quadrupling_n_doubles_z(self):
        p = 0.53
        z = math.sqrt(250) * (p - 0.5) / math.sqrt(p * (1 - p))
        got = prob_di_positive_normal(1000, p)
        assert got == pytest.approx(0.5 * (1 + math.erf(2 * z / math.sqrt(2))), rel=1e-12)

    @pytest.mark.parametrize("N", (200, 500, 1000))
    @pytest.mark.parametrize("p", (0.40, 0.45, 0.50, 0.55, 0.60))
    def test_close_to_exact_at_moderate_n(self, N, p):
        # the strict tail excludes ties, so compare at the tie midpoint
        midpoint = prob_di_positive_exact(N, p) + 0.5 * float(binom.pmf(N // 2, N, p))
        assert abs(midpoint - prob_di_positive_normal(N, p)) < 0.002

    def test_n_past_int64_is_typed(self):
        # the Monte Carlo draws its counts in int64; the normal tail shares the bound
        t = table_with_even_mass(2, 0.6)
        message = f"N must be an integer in [1, {2**63 - 1}], got {2**63}"
        for call in (lambda: prob_di_positive_normal(2**63, 0.5),
                     lambda: simulate_decisions(t, 2**63, DI, 10, seed=1)):
            with pytest.raises(InvalidTableError, match=f"^{re.escape(message)}$"):
                call()
        with pytest.raises(InvalidTableError, match="N must be an integer in"):
            prob_di_positive_normal(10**400, 0.5)  # past the float range of math.sqrt
        assert prob_di_positive_normal(2**63 - 1, 0.5) == 0.5
        assert sum(simulate_decisions(t, 2**63 - 1, DI, 10, seed=1).values()) == 1.0


class TestSampleSign:
    def test_zero_in_odd_class_forces_positive(self):
        assert _sample_sign(np.array([5, 0, 3, 2]), 2, LOR) == 1

    def test_zero_in_even_class_forces_negative(self):
        assert _sample_sign(np.array([0, 5, 3, 2]), 2, LOR) == -1

    def test_zeros_in_both_classes_undefined(self):
        with pytest.raises(EvaluationError):
            _sample_sign(np.array([0, 0, 3, 2]), 2, LOR)

    def test_zero_cell_rule_only_for_lor_itself(self):
        look_alike = ContrastKind("lor", math.sqrt)
        assert _sample_sign(np.array([0, 0, 3, 2]), 2, look_alike) == -1

    def test_di_sign_matches_integer_contrast(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            counts = rng.integers(0, 30, size=4)
            want = int(np.sign(counts[0] - counts[1] - counts[2] + counts[3]))
            assert _sample_sign(counts, 2, DI) == want

    @pytest.mark.parametrize("kind", [LOR, EX, DI, BAHADUR, ContrastKind("lor", math.sqrt)],
                             ids=["lor", "ex", "di", "bahadur", "look-alike"])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_stack_matches_row_by_row(self, kind, k):
        rng = np.random.default_rng(k)
        counts = rng.integers(0, 12, size=(300, 2**k))
        even = np.bitwise_count(np.arange(2**k)) % 2 == 0
        # zeros stay where a rule signs them: DI's integers, LOR's odd class
        if kind != DI:
            counts[:, even if kind == LOR else slice(None)] += 1
        want = []
        for row in counts:
            if kind == DI:
                want.append(int(np.sign(row[even].sum() - row[~even].sum())))
            elif (row == 0).any():
                want.append(1)  # LOR with an empty odd cell
            else:
                want.append(sign(BinaryTable(k, row / row.sum()), kind))
        got = _sample_sign(counts, k, kind)
        assert got.shape == (300,)
        assert got.tolist() == want

    def test_first_undefined_row_raises(self):
        rows = np.array([[5, 1, 3, 2], [4, 0, 3, 2], [0, 0, 3, 2], [0, 5, 3, 0]])
        with pytest.raises(EvaluationError, match="empty cells in both parity classes"):
            _sample_sign(rows, 2, LOR)
        # a custom h fails on small proportions; the first row it fails on decides
        def h(x):
            if x < 0.05:
                raise ValueError(f"proportion {x!r}")
            return x

        fussy = ContrastKind("fussy", h)
        with pytest.raises(EvaluationError, match=r"proportion 0\.0$"):
            _sample_sign(rows, 2, fussy)
        rows[1] = [40, 4, 30, 26]
        with pytest.raises(EvaluationError, match=r"proportion 0\.04$"):
            _sample_sign(rows, 2, fussy)

    def test_large_counts_do_not_overflow_ex(self):
        counts = np.array([600, 200, 150, 50])
        assert _sample_sign(counts, 2, EX) in (-1, 0, 1)


class TestSimulate:
    def test_di_frequency_within_three_se_of_exact(self):
        t = table_with_even_mass(2, 0.525)
        freqs = simulate_decisions(t, 1000, DI, 4000, seed=1)
        exact = prob_di_positive_exact(1000, 0.525)
        se = math.sqrt(exact * (1 - exact) / 4000)
        assert abs(freqs["positive"] - exact) < 3 * se
        assert freqs["positive"] + freqs["zero"] + freqs["negative"] == pytest.approx(1.0)

    def test_uniform_symmetry_no_ties_at_odd_n(self):
        u = BinaryTable.constant(2, 0.25)
        freqs = simulate_decisions(u, 101, DI, 4000, seed=2)
        assert freqs["zero"] == 0.0
        assert abs(freqs["positive"] - 0.5) < 3 * math.sqrt(0.25 / 4000)

    def test_di_decision_depends_only_on_parity_mass_but_lor_does_not(self):
        flat = table_with_even_mass(3, 0.55)
        skewed_even = np.empty(8)
        skewed_even[[0, 3, 5, 6]] = [0.52, 0.01, 0.01, 0.01]
        skewed_even[[1, 2, 4, 7]] = 0.45 / 4
        skewed = BinaryTable(3, skewed_even)
        assert even_parity_mass(skewed) == pytest.approx(0.55, rel=1e-12)

        exact = prob_di_positive_exact(200, 0.55)
        se = math.sqrt(exact * (1 - exact) / 2000)
        di_flat = simulate_decisions(flat, 200, DI, 2000, seed=1)
        di_skew = simulate_decisions(skewed, 200, DI, 2000, seed=1)
        assert abs(di_flat["positive"] - exact) < 3 * se
        assert abs(di_skew["positive"] - exact) < 3 * se

        lor_flat = simulate_decisions(flat, 200, LOR, 2000, seed=1)
        lor_skew = simulate_decisions(skewed, 200, LOR, 2000, seed=1)
        assert lor_flat["positive"] > 0.8
        assert lor_skew["negative"] > 0.99

    def test_deterministic_and_chunk_invariant(self):
        t = table_with_even_mass(2, 0.6)
        a = simulate_decisions(t, 100, DI, 5000, seed=9)
        b = simulate_decisions(t, 100, DI, 5000, seed=9)
        assert a == b
        # replication counts straddling a chunk boundary agree on the shared prefix streams
        c = simulate_decisions(t, 100, DI, 4096, seed=9)
        assert abs(c["positive"] - a["positive"]) < 0.05

    @pytest.mark.parametrize("kind", (EX, BAHADUR))
    def test_other_kinds_run(self, kind):
        u = BinaryTable.constant(2, 0.25)
        freqs = simulate_decisions(u, 50, kind, 500, seed=3)
        assert freqs["positive"] + freqs["zero"] + freqs["negative"] == pytest.approx(1.0)
        assert 0.3 < freqs["positive"] < 0.7

    def test_integer_path_only_for_di_itself(self):
        # DI of this table is 0 while its LOR is negative, so the two paths differ
        t = BinaryTable.from_entries([2, 3, 4, 5])
        named_di = simulate_decisions(t, 1000, ContrastKind("di", math.log), 500, seed=5)
        plain = simulate_decisions(t, 1000, ContrastKind("log", math.log), 500, seed=5)
        assert named_di == plain
        assert named_di != simulate_decisions(t, 1000, DI, 500, seed=5)

    def test_unnormalized_input_allowed(self):
        raw = BinaryTable.from_entries([21, 19, 19, 21])
        a = simulate_decisions(raw, 101, DI, 1000, seed=4)
        b = simulate_decisions(raw.normalized(), 101, DI, 1000, seed=4)
        assert a == b

    @pytest.mark.parametrize("kind", [DI, BAHADUR], ids=["di", "bahadur"])
    @pytest.mark.parametrize("entries", [[1e308] * 4, [1e308, 7e307, 5e307, 1.5e308]],
                             ids=["flat", "mixed"])
    def test_total_beyond_float_range(self, kind, entries):
        big = BinaryTable.from_entries(entries)
        want = simulate_decisions(BinaryTable(2, big.entries / 4), 10, kind, 50, seed=1)
        assert simulate_decisions(big, 10, kind, 50, seed=1) == want

    @pytest.mark.parametrize("replications", [1, sampling.CHUNK + 1])
    def test_bahadur_k1_raises_before_drawing(self, replications, monkeypatch):
        monkeypatch.setattr(sampling, "_multinomial_rows", None)  # a draw would fail on it
        with pytest.raises(InvalidTableError, match=r"^bahadur requires k >= 2, got k=1$"):
            simulate_decisions(BinaryTable.from_entries([1.0, 2.0]), 10, BAHADUR, replications,
                               seed=1)

    @pytest.mark.parametrize("kind", [DI, LOR, BAHADUR], ids=lambda kind: kind.name)
    @pytest.mark.parametrize("replications", [1, sampling.CHUNK + 1])
    def test_k_beyond_bound_raises_before_drawing(self, kind, replications, monkeypatch):
        monkeypatch.setattr(sampling, "_multinomial_rows", None)  # a draw would fail on it
        k = sampling.MAX_SIMULATE_K + 1
        with pytest.raises(InvalidTableError, match=rf"^k must be an integer in \[0, {k - 1}\], "
                                                    rf"got {k}$"):
            simulate_decisions(BinaryTable.constant(k, 1.0), 10, kind, replications, seed=1)

    def test_k_at_bound_answers(self):
        t = BinaryTable.constant(sampling.MAX_SIMULATE_K, 1.0)
        assert sum(simulate_decisions(t, 10, EX, 5, seed=1).values()) == pytest.approx(1.0)

    def test_validation(self):
        t = table_with_even_mass(2, 0.6)
        with pytest.raises(InvalidTableError):
            simulate_decisions(t, 0, DI, 10, seed=1)
        with pytest.raises(InvalidTableError):
            simulate_decisions(t, 10, DI, 0, seed=1)
        with pytest.raises(InvalidTableError, match="N must be an integer >= 1, got True"):
            simulate_decisions(t, True, DI, 10, seed=1)
        with pytest.raises(InvalidTableError, match="replications must be an integer >= 1, got True"):
            simulate_decisions(t, 10, DI, True, seed=1)
        with pytest.raises(InvalidTableError, match="seed must be an integer >= 0, got True"):
            simulate_decisions(t, 10, DI, 10, seed=True)
