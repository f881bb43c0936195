"""Simpson's paradox detection, DI additivity, the property battery and seed checks."""

import contextlib
import gc
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from bintab import (
    BAHADUR,
    DI,
    EX,
    LOR,
    AggregateContrastKind,
    BinaryTable,
    BintabError,
    ContrastKind,
    EvaluationError,
    InvalidTableError,
    collapse_check,
    evaluate,
    paradox_search,
    property_battery,
    cell_to_index,
    random_table,
    rescale_conditional_pair,
    simpson_scan,
    simulate_decisions,
)
from bintab import collapsibility
from bintab.collapsibility import (
    PropertyBatterySummary,
    _battery_draws,
    _CELL_BUDGET,
    _first_reversal,
    _keyed_blocks,
    _rescale_walk,
    _uniforms,
)
from oracles import additivity_sign_check, generator_rescales, scalar_battery, scalar_search

# three binary variables; collapsing over the third reverses EX but not LOR
STACK = BinaryTable.from_entries([6, 5, 5, 7, 3, 1, 3, 7])

# both layers of variable 3 have odds ratio 1.25, the collapse has 49/81
LOR_WITNESS = BinaryTable.from_entries([2, 5, 8, 1, 1, 8, 5, 2])

# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@pytest.mark.bits
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


def unlucky_log(x):
    """``log``, except on two narrow bands of entries, where it fails."""
    if 30.0 < x < 30.6 or 47.0 < x < 48.0:
        raise ValueError(f"unlucky entry {x!r}")
    return math.log(x)


def fragile_log(x):
    """``log``, except on a band that many collapsed entries fall in."""
    if 24.0 < x < 36.0:
        raise ValueError(f"fragile entry {x!r}")
    return math.log(x)


# the vectorized kinds, kinds measured row by row (a custom h, a kind that
# only borrows LOR's name, an aggregate, Bahadur), a custom h that raises on
# a few collapsed or bumped entries and one that raises on many, so a
# trial's scan often meets several errors
ORACLE_KINDS = {
    "lor": LOR, "di": DI, "ex": EX, "bahadur": BAHADUR,
    "sqrt": ContrastKind("sqrt", math.sqrt),
    "lor-look-alike": ContrastKind("lor", math.sqrt),
    "aggregate": AggregateContrastKind("log-totals", math.log),
    "unlucky": ContrastKind("unlucky", unlucky_log),
    "fragile": ContrastKind("fragile", fragile_log),
}


def fragile_sqrt(x):
    """``sqrt``, except on ``fragile_log``'s band."""
    if 24.0 < x < 36.0:
        raise ValueError(f"fragile entry {x!r}")
    return math.sqrt(x)


# at k=10 a battery block holds 8 trials; the fragile sqrt kind fails the
# invariance check on every trial, so a cross-block run either ends with all
# of them failed (seed 2) or raises after every earlier trial failed (trials
# 13 and 16 at seeds 1 and 3)
CROSS_BLOCK_KINDS = {**ORACLE_KINDS, "fragile-sqrt": ContrastKind("fragile-sqrt", fragile_sqrt)}


def outcome(call):
    """``repr`` of the result, or the type and message of the typed error raised."""
    try:
        return repr(call())
    except BintabError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.bits
class TestBlockedLoopsMatchScalarOracle:
    """The blocked search and battery return what one trial at a time returns."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(ORACLE_KINDS))
    def test_search(self, name, k):
        kind = ORACLE_KINDS[name]
        for seed in (0, 1, 7):
            got = outcome(lambda: paradox_search(kind, k, 60, seed))
            assert got == outcome(lambda: scalar_search(kind, k, 60, seed)), (name, k, seed)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(ORACLE_KINDS))
    def test_battery(self, name, k):
        kind = ORACLE_KINDS[name]
        for seed in (0, 3):
            def blocked():
                s = property_battery(kind, k, 40, seed, witness_cap=3)
                return s.failures, s.witnesses
            got = outcome(blocked)
            assert got == outcome(lambda: scalar_battery(kind, k, 40, seed, 3)), (name, k, seed)

    @pytest.mark.parametrize("name", sorted(CROSS_BLOCK_KINDS))
    def test_battery_across_blocks(self, name):
        kind = CROSS_BLOCK_KINDS[name]
        for seed in (1, 3):
            def blocked():
                s = property_battery(kind, 10, 24, seed, witness_cap=3)
                return s.failures, s.witnesses
            got = outcome(blocked)
            assert got == outcome(lambda: scalar_battery(kind, 10, 24, seed, 3)), (name, seed)

    def test_cross_block_corpus_has_capped_witnesses_and_late_errors(self):
        # the witness cap is met in the first block and the count runs on; an
        # error is raised in a later block than failures already counted
        kind = CROSS_BLOCK_KINDS["fragile-sqrt"]
        s = property_battery(kind, 10, 24, 2, witness_cap=3)
        assert s.failures["conditional_invariance"] == 24
        assert len(s.witnesses["conditional_invariance"]) == 3
        assert repr((s.failures, s.witnesses)) == repr(scalar_battery(kind, 10, 24, 2, 3))
        for seed, erring in ((1, 13), (3, 16)):
            s = property_battery(kind, 10, erring, seed, witness_cap=3)
            assert s.failures["conditional_invariance"] == erring
            with pytest.raises(EvaluationError, match="fragile entry"):
                property_battery(kind, 10, erring + 1, seed, witness_cap=3)

    # at large k the error bounds are wide enough that some invariance
    # (LOR, EX at k=10) and monotonicity (EX at k=12) comparisons fall back
    @pytest.mark.parametrize("kind, k", [(LOR, 12), (EX, 10), (EX, 12)],
                             ids=["lor-12", "ex-10", "ex-12"])
    def test_battery_comparisons_the_bounds_cannot_settle(self, kind, k):
        s = property_battery(kind, k, 4, 1)
        assert repr((s.failures, s.witnesses)) == repr(scalar_battery(kind, k, 4, 1))

    def test_oracle_corpus_has_witnesses_and_errors(self):
        # the comparisons above cover a witness found before a later trial's
        # error, an error before any witness, and failures in every property
        unlucky = ORACLE_KINDS["unlucky"]
        assert paradox_search(unlucky, 3, 60, 0) is not None
        with pytest.raises(BintabError, match="unlucky entry"):
            paradox_search(unlucky, 2, 60, 0)
        with pytest.raises(BintabError, match="unlucky entry"):
            property_battery(unlucky, 5, 40, 0)
        s = property_battery(BAHADUR, 3, 40, 0)
        assert s.failures["monotone"] > 0 and s.failures["conditional_invariance"] > 0
        with pytest.raises(InvalidTableError, match="bahadur requires k >= 2"):
            paradox_search(BAHADUR, 2, 60, 0)

    @pytest.mark.parametrize("after", [0, 1], ids=["alone", "before-a-reversal"])
    def test_row_reversing_before_its_scan_fails(self, after):
        # reverses over variable 1 and fails on variable 3, where a scan of
        # the row alone raises; row (1, 18) only reverses
        fragile = ORACLE_KINDS["fragile"]
        row = random_table(3, np.random.default_rng((1, 13))).entries
        reverses = random_table(3, np.random.default_rng((1, 18))).entries
        assert collapse_check(BinaryTable(3, row), fragile, 1).paradox
        assert any(r.paradox for r in simpson_scan(BinaryTable(3, reverses), [fragile]))
        message = "h failed on a table entry: fragile entry 26.65036701114654"
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
            simpson_scan(BinaryTable(3, row), [fragile])
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
            _first_reversal(np.stack([row, reverses][: after + 1]), 3, fragile)

    def test_first_error_of_a_variable_is_its_lower_layers(self):
        # both layers of variable 1 fail; random entries never fail in a layer
        def small_log(x):
            if x < 1.0:
                raise ValueError(f"small entry {x!r}")
            return math.log(x)

        kind, row = ContrastKind("small", small_log), np.array([0.5, 2.0, 0.7, 3.0])
        for scan in (lambda: simpson_scan(BinaryTable(2, row), [kind]),
                     lambda: _first_reversal(row[None], 2, kind)):
            with pytest.raises(EvaluationError, match="small entry 0.5$"):
                scan()

    @pytest.mark.parametrize("trials", [0, 1, 7, 8, 9, 23, 24, 25])
    def test_search_stops_at_its_budget(self, trials):
        # blocks of 8, 16, 32, ... trials, cut at the budget
        assert outcome(lambda: paradox_search(DI, 3, trials, 2)) == "None"
        assert outcome(lambda: paradox_search(LOR, 3, trials, 0)) == outcome(
            lambda: scalar_search(LOR, 3, trials, 0))


@pytest.mark.bits
class TestShortBlocks:
    """Blocks of one to seven keys, and a seed of 2^63 - 1, match the scalar oracle."""

    @pytest.mark.parametrize("trials", range(1, 8))
    def test_search(self, trials):
        for kind in (LOR, EX):
            got = outcome(lambda: paradox_search(kind, 3, trials, 2**63 - 1))
            assert got == outcome(lambda: scalar_search(kind, 3, trials, 2**63 - 1)), kind

    def test_battery_k11(self):
        s = property_battery(EX, 11, 3, 2**63 - 1, witness_cap=3)
        assert repr((s.failures, s.witnesses)) == repr(scalar_battery(EX, 11, 3, 2**63 - 1, 3))


@pytest.mark.bits
class TestLoopDigest:
    """The search's and the battery's outcomes over kinds, k and seeds, pinned by one digest.

    Each battery contributes its failure counts and each witness's table bytes
    and operation, each search its witness's bytes or None; a typed error
    contributes its type and message.  The seeds cover both seeding paths of
    ``_keyed_blocks``: below 2^96 the vectorized pass, at 2^96 ``PCG64((seed, key))``.
    """

    SEEDS = (0, 5, 2**32 - 1, 2**32, 2**63 - 1, 2**96)
    DIGEST = "271e08d5da709c7e2f66eec137ad6e5892688d3907e93de68f9f6b2e233b04ba"

    def test_search_and_battery_bits(self):
        def battery(kind, k, seed):
            s = property_battery(kind, k, 300, seed, witness_cap=6)
            return s.failures, [(name, w["table"].entries.tobytes(),
                                 {key: value for key, value in w.items() if key != "table"})
                                for name, found in s.witnesses.items() for w in found]

        def search(kind, k, seed):
            witness = paradox_search(kind, k, 400, seed)
            return None if witness is None else witness.entries.tobytes()

        digest = hashlib.sha256()
        for kind in (LOR, DI, EX, BAHADUR):
            for k in range(1, 7):
                for seed in self.SEEDS:
                    digest.update(outcome(lambda: battery(kind, k, seed)).encode())
                    if k >= 2:
                        digest.update(outcome(lambda: search(kind, k, seed)).encode())
        assert digest.hexdigest() == self.DIGEST


class TestBahadurLayers:
    """Bahadur needs k >= 2 in each layer; the error names the k the caller passed."""

    MESSAGE = "bahadur requires k >= 2 in every layer, so this needs k >= 3, got k={}"

    @pytest.mark.parametrize("trials", [0, 1, 60])
    def test_search_raises_before_drawing(self, trials, monkeypatch):
        monkeypatch.setattr(collapsibility, "_keyed_blocks", None)  # a draw would fail on it
        with pytest.raises(InvalidTableError, match=f"^{re.escape(self.MESSAGE.format(2))}$"):
            paradox_search(BAHADUR, 2, trials, 0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_collapse_check_raises_before_slicing(self, k, monkeypatch):
        monkeypatch.setattr(collapsibility, "_strata", None)
        table = BinaryTable.constant(k, 1.0)
        for check in (lambda: collapse_check(table, BAHADUR, 1),
                      lambda: simpson_scan(table, [BAHADUR])):
            with pytest.raises(InvalidTableError,
                               match=f"^{re.escape(self.MESSAGE.format(k))}$"):
                check()


class TestBahadurDimension:
    """A Bahadur battery at k = 1 raises the kernel's check of k before drawing, at any budget."""

    @pytest.mark.parametrize("trials", [0, 1, 5000])
    def test_battery_raises_before_drawing(self, trials, monkeypatch):
        monkeypatch.setattr(collapsibility, "_keyed_blocks", None)  # a draw would fail on it
        with pytest.raises(InvalidTableError, match=r"^bahadur requires k >= 2, got k=1$"):
            property_battery(BAHADUR, 1, trials, 0)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _live_errors() -> int:
    gc.collect()
    return sum(isinstance(o, BintabError) for o in gc.get_objects())


class TestMemoryBound:
    """Blocked loops hold one block of trials at a time, whatever ``trials`` is."""

    def test_battery_memory_does_not_grow_with_trials(self):
        # at k=10 a block holds 8 trials, so 640 trials are 80 blocks
        few = _peak_bytes(lambda: property_battery(LOR, 10, 64, 0))
        many = _peak_bytes(lambda: property_battery(LOR, 10, 640, 0))
        assert many < 1.5 * few + 2**18
        assert many < 2**21

    def test_search_memory_does_not_grow_with_trials(self):
        few = _peak_bytes(lambda: paradox_search(DI, 10, 64, 0))
        many = _peak_bytes(lambda: paradox_search(DI, 10, 640, 0))
        assert many < 1.5 * few + 2**18
        assert many < 2**21

    @pytest.mark.parametrize("run", [
        lambda: paradox_search(DI, 16, 2, 0),
        lambda: property_battery(LOR, 16, 2, 0),
    ], ids=["search", "battery"])
    def test_large_k_stays_small(self, run):
        # one k=16 table is 512 KiB; a block is one trial
        assert _peak_bytes(run) < 2**23


class TestErrorsAreFreed:
    """An error the blocked loops keep or raise is freed once nothing holds it."""

    @pytest.mark.parametrize("run", [
        lambda: paradox_search(ORACLE_KINDS["unlucky"], 2, 60, 0),
        lambda: property_battery(ORACLE_KINDS["unlucky"], 5, 40, 0),
        lambda: property_battery(CROSS_BLOCK_KINDS["fragile-sqrt"], 10, 24, 2),
        lambda: simulate_decisions(BinaryTable.from_entries([1, 1, 1, 30]), 50,
                                   ContrastKind("floor", lambda x: math.log(x - 0.05)), 20, 1),
    ], ids=["search-raises", "battery-raises", "battery-keeps-errors", "monte-carlo-raises"])
    def test_after_the_call(self, run):
        # an error's traceback holds frames, and frames hold the error columns, whose
        # references the cycle collector cannot see: a kept error would never be freed
        before = _live_errors()
        with contextlib.suppress(BintabError):
            run()
        assert _live_errors() == before


def _emitting(word: int) -> np.random.Generator:
    """A PCG64 Generator whose next raw word is ``word``.

    PCG64 steps its 128-bit state s to ``s * M + inc`` and outputs the xor of the
    new state's 64-bit halves rotated by its top 6 bits, so the state ``word``
    (high half 0) outputs ``word``.  The state before it is one step inverted,
    ``(word - inc) / M`` mod 2^128, since the multiplier M is odd.
    """
    inc = 0xDA3E39CB94B95BDB
    generator = np.random.Generator(np.random.PCG64(0))
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (word - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


@pytest.mark.bits
class TestMeasureCalls:
    """A block's stacks are measured in runs of at most ``_CELL_BUDGET`` cells, one call a run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = []
        measure_rows = collapsibility._measure_rows

        def recording(rows, k, kind):
            shapes.append(rows.shape)
            return measure_rows(rows, k, kind)

        monkeypatch.setattr(collapsibility, "_measure_rows", recording)
        return shapes

    @pytest.mark.parametrize("kind", [LOR, DI, EX, BAHADUR], ids=lambda kind: kind.name)
    def test_battery_block_is_one_call(self, calls, kind):
        # base, constant, bumped, rescaled and 3 swapped stacks of 30 rows
        for seed in (0, 1, 2):
            calls.clear()
            property_battery(kind, 3, 30, seed)
            assert calls == [(7 * 30, 8)], seed

    def test_search_block_is_one_call(self, calls):
        assert paradox_search(DI, 3, 40, 0) is None
        # blocks of 8, 16 and 16 trials: 3 variables x 3 parts of each trial
        assert calls == [(9 * 8, 4), (9 * 16, 4), (9 * 16, 4)]

    @pytest.mark.parametrize("run, stack_cells, count", [
        (lambda: paradox_search(DI, 16, 2, 0), 3 * 2**15, 2 * 16),
        (lambda: property_battery(LOR, 16, 2, 0), 2**16, 2 * (4 + 16)),
    ], ids=["search", "battery"])
    def test_a_stack_past_the_budget_is_a_call_alone(self, calls, run, stack_cells, count):
        # at k=16 a block is one trial, and each of its stacks outgrows the budget
        run()
        assert len(calls) == count
        assert all(rows * cells <= max(_CELL_BUDGET, stack_cells) for rows, cells in calls)

    @pytest.mark.parametrize("name", ["lor", "ex", "fragile"])
    def test_runs_of_two_stacks_match_the_scalar_oracle(self, calls, name):
        # at k=8 a block of 8 trials has 3072-cell stacks, two to a run; the
        # fragile kind errs on several variables of each trial, so the runs'
        # errors meet in one dict, keyed by their rows in the block
        kind = ORACLE_KINDS[name]
        for seed in (0, 1, 2):
            calls.clear()
            got = outcome(lambda: paradox_search(kind, 8, 8, seed))
            assert got == outcome(lambda: scalar_search(kind, 8, 8, seed)), (name, seed)
            assert calls == [(2 * 3 * 8, 2**7)] * 4

    def test_k12_search_matches_the_scalar_oracle(self):
        # blocks of 2 trials and 1; each 6144- or 12288-cell stack is a run
        for seed in (0, 1, 2):
            got = outcome(lambda: paradox_search(LOR, 12, 3, seed))
            assert got == outcome(lambda: scalar_search(LOR, 12, 3, seed)), seed


@pytest.mark.bits
class TestRescaleWalk:
    """The walk over raw words draws the rescales numpy's Generator draws, rejections included."""

    # (first word, k, words numpy's integers(1, 4) takes): a low half of 0 is
    # rejected for every r that is not a power of two, r = 3 and 5 here
    CASES = [
        (0xFFFFFFFF_00000000, 3, 1),  # the rescale count rejects its first half
        (0, 3, 2),  # it rejects both halves of the word
        (0x00000000_FFFFFFFF, 3, 1),  # 3 rescales; the first variable rejects a half
        (0x00000000_FFFFFFFF, 5, 1),
        (0, 1, 2),  # k = 1 draws no variable and no suffix
        (0, 2, 2),
    ]

    @pytest.mark.parametrize("word, k, taken", CASES,
                             ids=["rejection", "double-rejection", "variable-rejection",
                                  "variable-rejection-k5", "k1", "k2"])
    def test_walk_equals_generator_draws(self, word, k, taken):
        rng = _emitting(word)
        rng.integers(1, 4)
        after_count = _emitting(word)
        after_count.bit_generator.random_raw(taken)
        assert rng.bit_generator.state["state"] == after_count.bit_generator.state["state"]
        words = _emitting(word).bit_generator.random_raw(3 * k + 12).tolist()
        expected = [(i, cell_to_index(suffix[: i - 1] + (1,) + suffix[i - 1 :]), uniform)
                    for i, suffix, uniform in generator_rescales(_emitting(word), k)]
        walked = None
        for count in range(1, len(words) + 1):
            try:
                walked = _rescale_walk(words[:count], k)
            except IndexError:  # the words run out: the battery draws the trial again
                assert walked is None
                continue
            decoded = [(i, first, float(_uniforms(np.uint64(w), -2.0, 2.0)))
                       for i, first, w in walked]
            assert decoded == expected, count
        assert walked is not None


@pytest.mark.bits
class TestDecodedDraws:
    """Search rows and battery draws decoded from raw words replay through the public API."""

    @pytest.mark.parametrize("spare", [29, 1], ids=["enough-words", "redrawn"])
    @pytest.mark.parametrize("seed", [5, 2**96], ids=["vectorized-seeding", "default_rng"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_battery_draws_replay(self, k, seed, spare):
        # one word past the bump factor is too few for any trial's rescales, so
        # every trial is drawn again; 29 words hold them (13 at most at k = 6)
        trials = 20
        (start, words), = _keyed_blocks(k, range(trials), seed, _CELL_BUDGET,
                                        2**k + 2 + spare)
        rows, constants, factors, rescaled_rows, rescales = _battery_draws(words, k, seed, start)
        for j in range(trials):
            rng = np.random.default_rng((seed, start + j))
            table = random_table(k, rng)
            assert rows[j].tobytes() == table.entries.tobytes()
            assert constants[j] == np.exp(rng.uniform(-3.0, 3.0))
            assert factors[j] == np.exp(rng.uniform(0.1, 1.0))
            replayed = table
            for op in rescales(j):
                replayed = rescale_conditional_pair(replayed, op["variable"], op["suffix"],
                                                    op["factor"])
            assert replayed.entries.tobytes() == rescaled_rows[j].tobytes()
            assert [(op["variable"], op["suffix"], op["factor"]) for op in rescales(j)] == [
                (i, suffix, float(np.exp(uniform)))
                for i, suffix, uniform in generator_rescales(rng, k)]
        summary = property_battery(EX, k, trials, seed)
        witnesses = summary.witnesses["conditional_invariance"]
        assert witnesses or k == 1
        for witness in witnesses:
            entries = witness["table"].entries.tobytes()
            j, = [j for j in range(trials) if rows[j].tobytes() == entries]
            assert witness["rescales"] == rescales(j)

    @pytest.mark.parametrize("seed", [5, 2**96], ids=["vectorized-seeding", "default_rng"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_search_rows_and_witnesses_replay(self, k, seed, monkeypatch):
        # every row the search measures, over blocks of 8, 16 and 32 trials, is its
        # trial's random_table; at k = 2 no kind reverses, so there is no witness
        measured = []

        def recording(rows, k, kind):
            measured.extend(rows)
            return _first_reversal(rows, k, kind)

        monkeypatch.setattr(collapsibility, "_first_reversal", recording)
        assert paradox_search(DI, k, 50, seed) is None
        assert [row.tobytes() for row in measured] == [
            random_table(k, np.random.default_rng((seed, trial))).entries.tobytes()
            for trial in range(50)]
        for kind in (LOR, EX):
            witness = paradox_search(kind, k, 200, seed)
            assert (witness is None) == (k == 2)
            if witness is not None:
                assert any(random_table(k, np.random.default_rng((seed, trial))).entries.tobytes()
                           == witness.entries.tobytes() for trial in range(200))
