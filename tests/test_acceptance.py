"""End-to-end acceptance checks.

Each test covers one headline guarantee at its stated tolerance and prints
one ACCEPTANCE line on success, so ``pytest -v`` yields a pass/fail line
per guarantee.  Golden numbers were computed independently (high-precision
direct evaluation of the defining formulas, plus scipy for binomial
tails) and are frozen here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from bintab import (
    BAHADUR,
    DI,
    EX,
    LOR,
    AggregateContrastKind,
    BinaryTable,
    ParamSet,
    bahadur,
    canonicalize,
    collapse,
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
    prob_di_positive_exact,
    prob_di_positive_normal,
    property_battery,
    random_table,
    recompose,
    sign,
    simpson_scan,
    simulate_decisions,
    slice_table,
    table_with_even_mass,
)
from bintab.assoc import _measure_rows
from bintab.collapsibility import _first_reversal, _reversals, _strata
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
        assert _first_reversal(rows, 3, DI) is None
        if chunk == 0:
            # the batched scan must agree with the per-table API row by row
            for row in rows[:2000]:
                assert not any(r.paradox for r in simpson_scan(BinaryTable(3, row), [DI]))
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


def _stratifications(k):
    """Every set S of variables with 1 <= |S| <= k - 2, as ascending tuples."""
    return [s for size in range(1, k - 1) for s in itertools.combinations(range(1, k + 1), size)]


@pytest.mark.bits
def test_10_dichotomy_over_every_stratification():
    # the paper's two claims, over every set S of pooled variables: DI and a
    # monotone function of the parity totals never reverse and sign alike,
    # while LOR, a parameter of the conditional distributions, reverses, as
    # do EX and Bahadur
    start = time.perf_counter()
    values = np.array([1.0, 2.0, 3.0, 5.0])
    grid = np.stack(np.meshgrid(*([values] * 8), indexing="ij")).reshape(8, -1).T
    stacks = {3: grid.reshape((-1,) + (2,) * 3)}
    for k in (4, 5, 6):  # 64 000 cells at each k
        count = 4000 >> (k - 4)
        rows = np.exp(np.random.default_rng((1000, k)).uniform(-3.0, 3.0, size=(count, 2**k)))
        stacks[k] = rows.reshape((-1,) + (2,) * k)
    log_totals = AggregateContrastKind("log-totals", math.log)

    reversals = {kind.name: 0 for kind in (LOR, EX, BAHADUR)}
    witnesses = {}
    sets = 0
    for k, arr in stacks.items():
        for axes in _stratifications(k):
            sets += 1
            for kind in (DI,) if k == 3 else (DI, LOR, EX, BAHADUR):
                reversed_rows, failed = _reversals(arr, k, kind, axes)
                assert not failed.any()
                if kind == DI:
                    assert not reversed_rows.any(), (k, axes)
                elif len(axes) >= 2:
                    reversals[kind.name] += int(reversed_rows.sum())
                    if reversed_rows.any() and kind.name not in witnesses:
                        row = int(np.argmax(reversed_rows))
                        witnesses[kind.name] = (kind, k, axes, arr[row].reshape(-1))

            # a directionally collapsible parameter signs like DI on every
            # stratum and every collapse; the aggregate kind is measured row by row
            few = arr[:: len(arr) // 64]
            reversed_rows, failed = _reversals(few, k, log_totals, axes)
            assert not failed.any() and not reversed_rows.any(), (k, axes)
            parts = np.concatenate(_strata(few, axes)).reshape(-1, 2 ** (k - len(axes)))
            di_signs = _measure_rows(parts, k - len(axes), DI).signs
            assert np.array_equal(_measure_rows(parts, k - len(axes), log_totals).signs, di_signs)
    assert sets == 3 + 10 + 25 + 56

    # each reversing kind has a witness pooling two or more variables, which
    # replays through the public API (the highest variable sliced first)
    assert set(witnesses) == {"lor", "ex", "bahadur"}
    for kind, k, axes, entries in witnesses.values():
        table = BinaryTable(k, entries)
        strata = []
        for cell in itertools.product((1, 2), repeat=len(axes)):
            part = table
            for variable, category in sorted(zip(axes, cell), reverse=True):
                part = slice_table(part, variable, category)
            strata.append(sign(part, kind))
        pooled = table
        for variable in sorted(axes, reverse=True):
            pooled = collapse(pooled, variable)
        assert len(set(strata)) == 1 and strata[0] != 0 and sign(pooled, kind) != strata[0]
    elapsed = time.perf_counter() - start
    note(10, f"DI and log-totals never reverse over {sets} stratifications; with |S| >= 2 "
             f"LOR/EX/Bahadur reverse {reversals['lor']}/{reversals['ex']}/"
             f"{reversals['bahadur']} times ({elapsed:.1f}s)")


def test_12_simpson_rate_of_uniform_2x2x2_tables():
    # Pavlides & Perlman (2009, The American Statistician 63(3):226-233): for a
    # 2x2x2 table drawn uniformly from the probability simplex, the odds ratio
    # reverses over a given stratifier with probability 1/60.  An external
    # number, so it checks the reversal rule itself, not only its two paths.
    start = time.perf_counter()
    n, rate = 200_000, 1 / 60
    rows = np.random.default_rng((2009, 12)).dirichlet(np.ones(8), size=n)
    arr = rows.reshape((n,) + (2,) * 3)
    band = 4 * math.sqrt(rate * (1 - rate) / n)
    flags = {}
    for variable in (1, 2, 3):
        flags[variable], failed = _reversals(arr, 3, LOR, (variable,))
        assert not failed.any()
        assert abs(flags[variable].mean() - rate) < band, (variable, flags[variable].mean())
    reversed_rows, failed = _reversals(arr, 3, DI, (1,), (2,), (3,))
    assert not failed.any() and not reversed_rows.any()

    # the batched rule flags what the public one does, table by table
    for variable in (1, 2, 3):
        public = [collapse_check(BinaryTable(3, row), LOR, variable).paradox
                  for row in rows[:1000]]
        assert public == flags[variable][:1000].tolist() and any(public)
    elapsed = time.perf_counter() - start
    rates = "/".join(f"{flags[v].mean():.5f}" for v in (1, 2, 3))
    note(12, f"LOR reverses over variables 1/2/3 of {n} Dirichlet(1^8) tables at rates {rates} "
             f"(1/60 = {rate:.5f}, band {band:.5f}); DI never ({elapsed:.2f}s)")
