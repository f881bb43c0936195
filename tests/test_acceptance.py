"""End-to-end acceptance checks.

Each test covers one headline guarantee at its stated tolerance and prints
one ACCEPTANCE line on success, so ``pytest -v`` yields a pass/fail line
per guarantee.  Golden numbers were computed independently (high-precision
direct evaluation of the defining formulas, plus scipy for binomial
tails) and are frozen here.
"""

import math
import time

import numpy as np
import pytest

from bintab import (
    DI,
    EX,
    LOR,
    SIGN_TAU,
    BinaryTable,
    ParamSet,
    bahadur,
    canonicalize,
    collapse_check,
    decompose,
    di,
    di_forward_fast,
    di_inverse,
    ex,
    full_params,
    lor,
    lor_inverse,
    odds_ratio,
    paradox_search,
    parity,
    parity_signs,
    prob_di_positive_exact,
    prob_di_positive_normal,
    property_battery,
    random_table,
    recompose,
    simpson_scan,
    simulate_decisions,
    table_with_even_mass,
)
from oracles import conditional_equal, sign_matrix


def note(n: int, msg: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_1_bahadur_golden_values():
    heavy = BinaryTable.from_entries([0.3140] + [0.098] * 7)
    degenerate = BinaryTable.from_entries([0.9965] + [0.0005] * 7)
    assert bahadur(heavy) == pytest.approx(0.103, abs=0.001)
    assert bahadur(degenerate) == pytest.approx(-5.54, abs=0.01)
    note(1, "bahadur golden values 0.103 and -5.54 reproduced")


def test_2_ex_reversal_example_with_magnitudes():
    stack = BinaryTable.from_entries([6, 5, 5, 7, 3, 1, 3, 7])

    report = collapse_check(stack, EX, 3)
    assert report.layer_signs == (1, 1)
    assert report.collapsed_sign == -1
    assert report.paradox
    assert not any(r.paradox for r in simpson_scan(stack, [LOR]))

    cases = [
        (BinaryTable.from_entries([2, 3, 4, 5]), 81.11852824517533, 79.67),
        (BinaryTable.from_entries([0.6, 0.6, 1.2, 1.0]), -0.6018350942775022, -0.60),
        (BinaryTable.from_entries([6, 5, 3, 3]), 255.0156343901585, 259.94),
        (BinaryTable.from_entries([5, 7, 1, 7]), 145.69487727411755, 143.46),
        (BinaryTable.from_entries([11, 12, 4, 10]), -80908.78205903251, -77694.70),
    ]
    for table, independent, printed in cases:
        value = ex(table)
        assert value == pytest.approx(independent, rel=1e-6)
        assert abs(value - printed) <= 0.05 * abs(value)
    note(2, "EX sign reversal (+,+,-) with LOR unaffected; five magnitudes verified")


def test_3_decision_probability_exact_normal_monte_carlo():
    start = time.perf_counter()
    normal = prob_di_positive_normal(1000, 0.525)
    exact = prob_di_positive_exact(1000, 0.525)
    assert normal == pytest.approx(0.9433, abs=1e-4)
    assert exact == pytest.approx(0.9396, abs=1e-4)

    reps = 100_000
    freqs = simulate_decisions(table_with_even_mass(2, 0.525), 1000, DI, reps, seed=11)
    se = math.sqrt(exact * (1.0 - exact) / reps)
    assert abs(freqs["positive"] - exact) < 3 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    note(3, f"normal 0.9433, exact 0.9396, MC within 3 SE ({elapsed:.1f}s)")


def test_4_di_round_trip_bulk_and_fast_transform():
    start = time.perf_counter()
    for k in (4, 8, 12):
        for i in range(1000):
            t = random_table(k, np.random.default_rng((400 + k, i)))
            back = di_inverse(di_forward_fast(t))
            assert np.max(np.abs(back.entries - t.entries) / t.entries) < 1e-12

    worst = 0.0
    for k in range(1, 11):
        dense = sign_matrix(k)
        for i in range(100):
            t = random_table(k, np.random.default_rng((410 + k, i)))
            fast = di_forward_fast(t).values
            naive = dense @ t.entries
            scale = np.maximum(np.abs(naive), t.total)
            worst = max(worst, float(np.max(np.abs(fast - naive) / scale)))
    assert worst < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    note(4, f"3000 DI round-trips at 1e-12 and fast==naive to {worst:.2e} ({elapsed:.1f}s)")


def test_5_lor_round_trip_bulk_and_mixed_witness():
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        k = i % 6 + 1
        t = random_table(k, np.random.default_rng((500, i)))
        target = full_params(t, "lor")
        fitted = lor_inverse(target)
        resid = float(np.max(np.abs(full_params(fitted, "lor").values - target.values)))
        worst = max(worst, resid)
        assert resid < 1e-8

    # sub-top coordinates of one table, top-order association of another
    rng = np.random.default_rng(501)
    for _ in range(5):
        r, s = random_table(2, rng), random_table(2, rng)
        values = full_params(r, "lor").values.copy()
        values[-1] = full_params(s, "lor").values[-1]
        fitted = lor_inverse(ParamSet(2, "lor", values))
        assert np.max(np.abs(full_params(fitted, "lor").values - values)) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    note(5, f"200 LOR round-trips, worst residual {worst:.2e}, mixed witness ok ({elapsed:.1f}s)")


def test_6_canonicalization_bulk():
    start = time.perf_counter()
    for i in range(10_000):
        k = i % 6 + 1
        t = random_table(k, np.random.default_rng((600, i)))
        trace = canonicalize(t)
        target = lor(t)
        prev = t
        for var, step in trace.steps:
            assert conditional_equal(prev, step, var)
            assert math.isclose(lor(step), target, rel_tol=1e-10, abs_tol=1e-10)
            prev = step
        final = trace.final.entries
        assert np.allclose(final[1:], 1.0, rtol=0, atol=1e-10)
        assert final[0] == pytest.approx(odds_ratio(t), rel=1e-10)
    elapsed = time.perf_counter() - start
    note(6, f"10^4 canonical reductions verified ({elapsed:.1f}s)")


def test_7_decomposition_bulk():
    start = time.perf_counter()
    for i in range(10_000):
        k = i % 6 + 1
        t = random_table(k, np.random.default_rng((700, i)))
        d = decompose(t)
        assert recompose(d).allclose(t, rtol=1e-12)
        for comp in d.pair_components:
            assert di(comp) == 0.0
        want_parity = "even" if d.case == "positive" else "odd"
        for cell, comp in d.peak_components:
            assert parity(cell) == want_parity
            assert (di(comp) > 0) == (d.case == "positive")
    elapsed = time.perf_counter() - start
    note(7, f"10^4 decompose/recompose round-trips at 1e-12 ({elapsed:.1f}s)")


def _di_paradox_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Vectorized layer/collapsed DI sign scan; True where any variable reverses."""
    n = rows.shape[1]
    signs = parity_signs(k).astype(float)
    totals = rows.sum(axis=1)

    def thresholded(values, scales):
        out = np.sign(values)
        out[np.abs(values) <= SIGN_TAU * scales] = 0.0
        return out

    paradox = np.zeros(rows.shape[0], dtype=bool)
    idx = np.arange(n)
    for i in range(1, k + 1):
        bit = 1 << (k - i)
        l1, l2 = idx[(idx & bit) == 0], idx[(idx & bit) != 0]
        v1 = rows[:, l1] @ signs[l1]
        v2 = rows[:, l2] @ (-signs[l2])
        s1 = thresholded(v1, rows[:, l1].sum(axis=1))
        s2 = thresholded(v2, rows[:, l2].sum(axis=1))
        sc = thresholded(v1 + v2, totals)
        paradox |= (s1 == s2) & (s1 != 0) & (sc != s1)
    return paradox


def test_8_di_collapsibility_exhaustive_and_random_with_witnesses():
    values = np.array([1.0, 2.0, 3.0, 5.0])
    grid = np.stack(np.meshgrid(*([values] * 8), indexing="ij")).reshape(8, -1).T
    assert grid.shape == (65536, 8)
    for row in grid:
        assert not any(r.paradox for r in simpson_scan(BinaryTable(3, row), [DI]))

    total = 0
    for chunk in range(10):
        rng = np.random.default_rng((800, chunk))
        rows = np.exp(rng.uniform(-3.0, 3.0, size=(100_000, 8)))
        flags = _di_paradox_rows(rows, 3)
        assert not flags.any()
        if chunk == 0:
            # the vectorized scan must agree with the real API row by row
            for row, flag in zip(rows[:2000], flags[:2000]):
                api = any(r.paradox for r in simpson_scan(BinaryTable(3, row), [DI]))
                assert api == bool(flag)
        total += rows.shape[0]
    assert total == 1_000_000

    assert paradox_search(LOR, 3, 100_000, seed=0) is not None
    assert paradox_search(EX, 3, 100_000, seed=0) is not None

    witness = collapse_check(BinaryTable.from_entries([2, 5, 8, 1, 1, 8, 5, 2]), LOR, 3)
    assert witness.layer_signs == (1, 1) and witness.collapsed_sign == -1 and witness.paradox
    note(8, "DI clean on 65536-grid and 10^6 random; LOR and EX witnesses found")


def test_9_property_battery_bulk():
    lor_summary = property_battery(LOR, 3, 100_000, seed=90)
    assert lor_summary.failures == {
        "monotone": 0, "swap_antisymmetry": 0, "conditional_invariance": 0,
    }

    from bintab import evaluate, rescale_conditional_pair

    for kind in (DI, EX):
        summary = property_battery(kind, 3, 3000, seed=91)
        assert summary.failures["monotone"] == 0
        assert summary.failures["swap_antisymmetry"] == 0
        assert summary.failures["conditional_invariance"] > 0
        w = summary.witnesses["conditional_invariance"][0]
        rescaled = w["table"]
        for op in w["rescales"]:
            rescaled = rescale_conditional_pair(
                rescaled, op["variable"], op["suffix"], op["factor"]
            )
        before, after = evaluate(w["table"], kind), evaluate(rescaled, kind)
        assert abs(after - before) > 1e-9 * max(abs(before), abs(after))
    note(9, "LOR clean over 10^5 trials; DI/EX fail conditional invariance reproducibly")
