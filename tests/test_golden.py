"""Seeded outputs frozen bit for bit.

Each value was recorded once and must not move: a witness, a failure count,
a Monte Carlo frequency or an exact tail that changes in its last bit means
a kernel changed its arithmetic or a keyed stream changed its draws.
"""

import numpy as np
import pytest

from bintab import (
    BAHADUR,
    EX,
    LOR,
    BinaryTable,
    paradox_search,
    prob_di_positive_exact,
    property_battery,
    random_table,
    simulate_decisions,
)


def test_lor_search_witness_is_trial_8():
    witness = paradox_search(LOR, 3, 100, seed=0)
    replay = random_table(3, np.random.default_rng((0, 8)))
    assert np.array_equal(witness.entries, replay.entries)
    assert paradox_search(LOR, 3, 8, seed=0) is None


def test_ex_battery_failures_and_first_witness():
    s = property_battery(EX, 3, 100, seed=3)
    assert s.failures == {"monotone": 0, "swap_antisymmetry": 0, "conditional_invariance": 99}
    w = s.witnesses["conditional_invariance"][0]
    assert w["table"].entries.tolist() == [
        0.08323353086510055, 0.2061529395974695, 6.096085179113302, 1.6371750341184128,
        0.08757776420321, 0.6694904632210241, 0.8818862397625695, 0.1298251787787845,
    ]
    assert w["rescales"] == [
        {"variable": 2, "suffix": (2, 2), "factor": 0.7576847186343422},
        {"variable": 2, "suffix": (2, 1), "factor": 6.203223146724869},
    ]


@pytest.mark.parametrize(
    "kind, seed, positive, negative",
    [(LOR, 11, 58, 542), (EX, 12, 54, 546), (BAHADUR, 13, 74, 526)],
    ids=["lor", "ex", "bahadur"],
)
def test_simulated_frequencies(kind, seed, positive, negative):
    t = BinaryTable.from_entries([1.0, 1.1, 1.05, 1.0, 1.2, 0.9, 1.0, 1.1])
    freqs = simulate_decisions(t, 400, kind, 600, seed)
    assert freqs == {"positive": positive / 600, "zero": 0.0, "negative": negative / 600}


@pytest.mark.parametrize(
    "N, p, bits",
    [(10**5, 0.501, "0x1.7889419652c61p-1"), (10**6, 0.4995, "0x1.446e2ef5e25a3p-3")],
)
def test_exact_tail_bits(N, p, bits):
    assert prob_di_positive_exact(N, p).hex() == bits
