"""Simpson's paradox detection, DI additivity, the property battery and seed checks."""

import math

import numpy as np
import pytest

from bintab import (
    DI,
    EX,
    LOR,
    BinaryTable,
    InvalidTableError,
    collapse_check,
    evaluate,
    paradox_search,
    property_battery,
    random_table,
    rescale_conditional_pair,
    simpson_scan,
    simulate_decisions,
)
from bintab.collapsibility import PropertyBatterySummary
from oracles import additivity_sign_check

# three binary variables; collapsing over the third reverses EX but not LOR
STACK = BinaryTable.from_entries([6, 5, 5, 7, 3, 1, 3, 7])

# both layers of variable 3 have odds ratio 1.25, the collapse has 49/81
LOR_WITNESS = BinaryTable.from_entries([2, 5, 8, 1, 1, 8, 5, 2])


class TestCollapseCheck:
    def test_ex_reversal_on_stack(self):
        r = collapse_check(STACK, EX, 3)
        assert r.kind == "ex" and r.variable == 3
        assert r.layer_signs == (1, 1)
        assert r.collapsed_sign == -1
        assert r.paradox
        assert r.values[0] == pytest.approx(255.0156343901585, rel=1e-9)
        assert r.values[1] == pytest.approx(145.69487727411755, rel=1e-9)
        assert r.values[2] == pytest.approx(-80908.78205903251, rel=1e-9)

    def test_lor_sees_no_reversal_anywhere_on_stack(self):
        reports = simpson_scan(STACK, [LOR])
        assert len(reports) == 3
        assert not any(r.paradox for r in reports)
        assert all(r.collapsed_sign == 1 for r in reports)

    def test_di_additive_on_stack(self):
        v1, v2, v3 = collapse_check(STACK, DI, 3).values
        assert (v1, v2, v3) == (1.0, 4.0, 5.0)
        assert v3 == v1 + v2
        assert not collapse_check(STACK, DI, 3).paradox

    def test_di_additivity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = random_table(4, rng)
            for i in range(1, 5):
                v1, v2, v3 = collapse_check(t, DI, i).values
                assert v3 == pytest.approx(v1 + v2, rel=1e-12, abs=1e-12 * t.total)

    def test_constructed_lor_witness(self):
        r = collapse_check(LOR_WITNESS, LOR, 3)
        assert r.paradox
        assert r.layer_signs == (1, 1) and r.collapsed_sign == -1
        assert r.values[0] == pytest.approx(math.log(1.25), rel=1e-12)
        assert r.values[1] == pytest.approx(math.log(1.25), rel=1e-12)
        assert r.values[2] == pytest.approx(math.log(49 / 81), rel=1e-12)

    def test_scan_covers_variable_kind_grid(self):
        reports = simpson_scan(STACK, [LOR, DI])
        assert [(r.variable, r.kind) for r in reports] == [
            (1, "lor"), (1, "di"), (2, "lor"), (2, "di"), (3, "lor"), (3, "di"),
        ]


class TestParadoxSearch:
    def test_lor_witness_found_quickly(self):
        w = paradox_search(LOR, 3, 100, seed=0)
        assert w is not None
        assert any(r.paradox for r in simpson_scan(w, [LOR]))

    def test_ex_witness_found(self):
        assert paradox_search(EX, 3, 300, seed=0) is not None

    def test_di_never_finds_one(self):
        assert paradox_search(DI, 3, 300, seed=0) is None

    def test_deterministic(self):
        a = paradox_search(LOR, 3, 100, seed=0)
        b = paradox_search(LOR, 3, 100, seed=0)
        assert np.array_equal(a.entries, b.entries)
        c = paradox_search(LOR, 3, 100, seed=1)
        assert not np.array_equal(a.entries, c.entries)

    def test_needs_two_variables(self):
        with pytest.raises(InvalidTableError):
            paradox_search(LOR, 1, 10, seed=0)


class TestAdditivitySign:
    def test_di_true_on_fixture(self):
        p = BinaryTable.from_entries([3, 1, 1, 2])
        q = BinaryTable.from_entries([1, 2, 1, 2])
        assert additivity_sign_check(p, q, DI)

    def test_di_true_on_random_cubes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_table(3, rng)
            base = np.full(8, float(rng.uniform(0.1, 1.0)))
            load = float(rng.uniform(0.5, 5.0))
            base[0] += load
            base[1] += load
            assert additivity_sign_check(p, BinaryTable(3, base), DI)

    def test_ex_can_flip(self):
        # exp-entries of q are (4, 3, 3, 2): zero EX, but reweights p's cells
        q = BinaryTable.from_entries(np.log([4.0, 3.0, 3.0, 2.0]))
        p = BinaryTable.from_entries(np.log([1.05, 1.5, 1.5, 2.0]))
        assert not additivity_sign_check(p, q, EX)

    def test_rejects_nonzero_sign_q(self):
        p = BinaryTable.from_entries([3, 1, 1, 2])
        with pytest.raises(InvalidTableError):
            additivity_sign_check(p, BinaryTable.from_entries([2, 1, 1, 2]), DI)

    def test_rejects_mismatched_k(self):
        with pytest.raises(InvalidTableError):
            additivity_sign_check(
                BinaryTable.constant(2, 1.0), BinaryTable.constant(3, 1.0), DI
            )


class TestPropertyBattery:
    def test_lor_passes_everything(self):
        s = property_battery(LOR, 3, 200, seed=7)
        assert s.failures == {name: 0 for name in PropertyBatterySummary.PROPERTIES}
        assert all(not w for w in s.witnesses.values())

    @pytest.mark.parametrize("kind", (DI, EX))
    def test_conditional_invariance_fails_for_value_scaled_kinds(self, kind):
        s = property_battery(kind, 3, 200, seed=7)
        assert s.failures["monotone"] == 0
        assert s.failures["swap_antisymmetry"] == 0
        assert s.failures["conditional_invariance"] >= 190
        assert len(s.witnesses["conditional_invariance"]) == 10

    def test_witness_cap(self):
        s = property_battery(DI, 3, 50, seed=7, witness_cap=3)
        assert s.failures["conditional_invariance"] == 50
        assert len(s.witnesses["conditional_invariance"]) == 3

    def test_witness_replays(self):
        s = property_battery(DI, 3, 20, seed=7)
        w = s.witnesses["conditional_invariance"][0]
        table = w["table"]
        rescaled = table
        for op in w["rescales"]:
            rescaled = rescale_conditional_pair(
                rescaled, op["variable"], op["suffix"], op["factor"]
            )
        before, after = evaluate(table, DI), evaluate(rescaled, DI)
        assert abs(after - before) > 1e-9 * max(abs(before), abs(after))

    def test_deterministic(self):
        a = property_battery(EX, 3, 100, seed=3)
        b = property_battery(EX, 3, 100, seed=3)
        assert a.failures == b.failures
        wa = a.witnesses["conditional_invariance"][0]["table"]
        wb = b.witnesses["conditional_invariance"][0]["table"]
        assert np.array_equal(wa.entries, wb.entries)

    def test_rescale_overflow_counts_as_invariance_failure(self):
        # seed 0, trial 28: compounded rescales push an entry past exp range
        s = property_battery(EX, 3, 30, seed=0)
        assert s.failures["conditional_invariance"] == 30
        assert s.failures["monotone"] == 0 and s.failures["swap_antisymmetry"] == 0


def test_random_table_range_and_determinism():
    t = random_table(4, np.random.default_rng(9))
    assert np.all(t.entries >= math.exp(-3.0)) and np.all(t.entries <= math.exp(3.0))
    again = random_table(4, np.random.default_rng(9))
    assert np.array_equal(t.entries, again.entries)


SEEDED_RUNS = {
    "paradox_search": lambda seed: paradox_search(LOR, 3, 50, seed),
    "property_battery": lambda seed: property_battery(DI, 3, 5, seed).witnesses,
    "simulate_decisions": lambda seed: simulate_decisions(
        BinaryTable.constant(2, 1.0), 10, DI, 5, seed
    ),
}


@pytest.mark.parametrize("name", sorted(SEEDED_RUNS))
def test_negative_seed_is_typed_error(name):
    with pytest.raises(InvalidTableError, match="seed must be an integer >= 0, got -1"):
        SEEDED_RUNS[name](-1)


@pytest.mark.parametrize("name", sorted(SEEDED_RUNS))
def test_numpy_integer_seed_accepted(name):
    assert repr(SEEDED_RUNS[name](np.int64(3))) == repr(SEEDED_RUNS[name](3))


BUDGETED_RUNS = {
    "paradox_search": lambda trials: paradox_search(LOR, 3, trials, 0),
    "property_battery": lambda trials: property_battery(LOR, 3, trials, 0),
}


@pytest.mark.parametrize("name", sorted(BUDGETED_RUNS))
def test_negative_trials_is_typed_error(name):
    with pytest.raises(InvalidTableError, match="trials must be an integer >= 0, got -5"):
        BUDGETED_RUNS[name](-5)


@pytest.mark.parametrize("name", sorted(BUDGETED_RUNS))
def test_bool_trials_is_typed_error(name):
    with pytest.raises(InvalidTableError, match="trials must be an integer >= 0, got True"):
        BUDGETED_RUNS[name](True)


@pytest.mark.parametrize("k", [0, -1])
def test_battery_k_below_one_is_typed_error(k):
    with pytest.raises(InvalidTableError, match=rf"k must be an integer in \[1, 20\], got {k}"):
        property_battery(LOR, k, 5, 0)


def test_zero_trials_is_an_empty_budget():
    assert BUDGETED_RUNS["paradox_search"](0) is None
    s = BUDGETED_RUNS["property_battery"](0)
    assert s.trials == 0
    assert s.failures == {name: 0 for name in PropertyBatterySummary.PROPERTIES}
