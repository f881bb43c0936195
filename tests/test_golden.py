"""Seeded outputs frozen bit for bit.

Each value was recorded once and must not move: a witness, a failure count,
a Monte Carlo frequency or an exact tail that changes in its last bit means
a kernel changed its arithmetic or a keyed stream changed its draws.  The
CLI envelopes are frozen as digests of their parsed JSON, so a change in a
result's JSON form shows as well, but the order of keys does not.
"""

import hashlib
import json

import numpy as np
import pytest

from bintab import (
    BAHADUR,
    DI,
    EX,
    LOR,
    BinaryTable,
    __version__,
    full_params,
    paradox_search,
    prob_di_positive_exact,
    property_battery,
    random_table,
    save_paramset,
    save_table,
    simulate_decisions,
    table_with_even_mass,
)
from bintab.cli import main
from bintab.sampling import CHUNK

pytestmark = pytest.mark.bits


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
    "kind, k, replications, seed, positive, zero, negative",
    [(DI, 2, 9 * CHUNK + 5, 7, 19994, 0, 16875),
     (DI, 2, 9 * CHUNK + 5, 2**63 - 1, 19878, 0, 16991),
     (EX, 3, 12 * CHUNK, 7, 12407, 66, 36679),
     (EX, 3, 12 * CHUNK, 2**63 - 1, 12478, 58, 36616)],
    ids=["di-7", "di-2^63-1", "ex-7", "ex-2^63-1"],
)
def test_chunked_frequencies(kind, k, replications, seed, positive, zero, negative):
    # ten and twelve chunks, each drawn from default_rng((seed, chunk index))
    t = (table_with_even_mass(2, 0.505) if k == 2 else
         BinaryTable.from_entries([1.0, 1.1, 1.05, 1.0, 1.2, 0.9, 1.0, 1.1]))
    freqs = simulate_decisions(t, 101 if k == 2 else 100, kind, replications, seed)
    assert freqs == {"positive": positive / replications, "zero": zero / replications,
                     "negative": negative / replications}


@pytest.mark.parametrize(
    "N, p, bits",
    [(10**5, 0.501, "0x1.7889419652c61p-1"), (10**6, 0.4995, "0x1.446e2ef5e25a3p-3")],
)
def test_exact_tail_bits(N, p, bits):
    assert prob_di_positive_exact(N, p).hex() == bits


CLI_TABLES = {
    "t2": [2, 3, 4, 5],
    "t3": [1.5, 0.7, 2.2, 3.1, 0.4, 1.9, 2.6, 0.8],
    "stack": [6, 5, 5, 7, 3, 1, 3, 7],
    "lorw": [2, 5, 8, 1, 1, 8, 5, 2],
    "big": [1000.0, 1.0, 1.0, 1.0],
}

# argv (file names in braces) and exit code
CLI_RUNS = {
    "params-lor": (["params", "{t2}"], 0),
    "params-ex": (["params", "{stack}", "--kind", "ex"], 0),
    "params-bahadur": (["params", "{stack}", "--kind", "bahadur"], 0),
    "params-di-full-out": (["params", "{t3}", "--kind", "di", "--full", "--out", "{out}"], 0),
    "params-lor-full": (["params", "{t3}", "--kind", "lor", "--full"], 0),
    "reconstruct-di": (["reconstruct", "{di3}", "--out", "{out}"], 0),
    "reconstruct-lor": (["reconstruct", "{lor3}", "--tol", "1e-10"], 0),
    "simpson-default": (["simpson", "{stack}"], 0),
    "simpson-kinds": (["simpson", "{lorw}", "--kind", "lor,ex,di,bahadur"], 0),
    "search-lor": (["search", "--kind", "lor", "--k", "3", "--trials", "200", "--seed", "5",
                    "--out", "{out}"], 0),
    "search-di-exhausted": (["search", "--kind", "di", "--k", "3", "--trials", "20",
                             "--seed", "3"], 4),
    "canonical-t3": (["canonical", "{t3}", "--out", "{out}"], 0),
    "canonical-t2": (["canonical", "{t2}"], 0),
    "decompose-t3": (["decompose", "{t3}"], 0),
    "decompose-stack": (["decompose", "{stack}"], 0),
    "decompose-t2": (["decompose", "{t2}"], 0),
    "power-p": (["power", "--N", "1000", "--p", "0.525"], 0),
    "power-table-mc": (["power", "--N", "200", "--table", "{t3}", "--mc", "500",
                        "--seed", "11"], 0),
    "power-csv-mc": (["power", "--N", "100", "--p", "0.55", "--mc", "300", "--seed", "4",
                      "--format", "csv"], 0),
    "power-csv": (["power", "--N", "100", "--p", "0.55", "--format", "csv"], 0),
    "params-bad-entries": (["params", "{bad}"], 2),
    "params-ex-overflow": (["params", "{big}", "--kind", "ex"], 3),
}

# SHA-256 of ``json.dumps(parsed stdout, sort_keys=True)``, the envelope
# without "version"; for CSV the stdout text is the parsed value
CLI_DIGESTS = {
    "canonical-t2": "29784577580b09f24de898b617cfc3751f6068fb1748e664eb01538477280514",
    "canonical-t3": "9bf2de78e05c100fd6fd719dff1025e729c6d64731e4fe19f6db977b8db86410",
    "decompose-stack": "e181feb608d9f6db5ed4a08416094c8928da0b1969203a5952c23150d4267520",
    "decompose-t2": "ab4b18f90798810c1550e0d26f3db15bb8ec1aeb0e1c122bb6934933c49cc1b9",
    "decompose-t3": "77c680995e872d0d0f8436784fb815ae7f0b601a5cee46ceb595feceda7db0db",
    "params-bad-entries": "5e27cf8933ddcdefc6db27603f14fb1a0dd47f73eec97d983ddf2ddf13cfddf8",
    "params-bahadur": "df6cb01163907d83dfcd4da07371d4ce1bfe369019c117939b7f579f0c700438",
    "params-di-full-out": "2dacd0c55b171f1aae4be3a81b37f0ca0a3c81ec43760ee86ecdf0a22e6ce28c",
    "params-ex": "f97835e2e75655f5137744e0eedc7b7af15a364f67e43f266abad8c07ab9ac40",
    "params-ex-overflow": "f255ec093d7f0d028a6f305f96c284edbed436bc715d7b8aa26dc816694e6d32",
    "params-lor": "48df4c93408ba03bf2eec31814bef6e1abb0e0d8cc024839b07d11cbceffd47d",
    "params-lor-full": "f98e388fa0003c1583467659970f9ace9f617189092ad79c16b3d1bbc629ca49",
    "power-csv": "b3e1a816a7af7f31a175e3e7d4773f982fc99025e7eee98841a49c2323b11bc6",
    "power-csv-mc": "418fcb4a086a44f45b05cff5cd795f0456f6a6ddd3e3ac99505eb54867968573",
    "power-p": "ed3aa7132e656ff9718340b7bc73bc489ac79a7cfca0c7ea8a0a37ce6516892a",
    "power-table-mc": "caec85b64b765c42864660f5f8d2ab2b1c2a27e7f544abd4212eb0cfa5e0211c",
    "reconstruct-di": "3a9ff0d99ac16b51e2fdebc7e5ca4049182b488a7153aacee8c1965fc21de53b",
    "reconstruct-lor": "bd88fd6356762c29ab889d2ae76c4a2f3b025cbf020ecd522ee9cc6cb83ee5bc",
    "search-di-exhausted": "bed2e301739cdba0b3bb703642eeb93b8552204beb17e741115a8b09bb56ad26",
    "search-lor": "b016d76ee88611435fc9071834f864c501da1cdcfc13f63f52eeca10aee27b9c",
    "simpson-default": "4d8e481cd72446f248c8681b7bd845581107438802b66fac00ca9f046406bd7e",
    "simpson-kinds": "1819a3f029e55b6ae89699b0df8442ac7302c51ada11470968ff19ea58ee0dc3",
}


def _reject_constant(name):
    # NaN and Infinity are not JSON; strict parsers refuse them
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_envelope_digests(name, tmp_path, capsys):
    files = {"out": str(tmp_path / "out.json"), "bad": str(tmp_path / "bad.json")}
    for key, entries in CLI_TABLES.items():
        files[key] = str(tmp_path / f"{key}.json")
        save_table(BinaryTable.from_entries(entries), files[key])
    for kind in ("di", "lor"):
        files[f"{kind}3"] = str(tmp_path / f"{kind}3.json")
        save_paramset(full_params(BinaryTable.from_entries(CLI_TABLES["t3"]), kind),
                      files[f"{kind}3"])
    (tmp_path / "bad.json").write_text('{"entries": [1, 2, 3]}')
    argv, code = CLI_RUNS[name]
    assert main([a.format(**files) for a in argv]) == code
    out = capsys.readouterr().out
    if "csv" in argv:
        parsed = out
    else:
        parsed = json.loads(out, parse_constant=_reject_constant)
        assert parsed.pop("version") == __version__
    got = hashlib.sha256(json.dumps(parsed, sort_keys=True).encode()).hexdigest()
    assert got == CLI_DIGESTS[name], out


def test_reconstruct_lor_envelope_is_the_table(tmp_path, capsys):
    # the envelope the digest above pins: the t3 table itself, to 1e-12
    path = str(tmp_path / "lor3.json")
    save_paramset(full_params(BinaryTable.from_entries(CLI_TABLES["t3"]), "lor"), path)
    assert main(["reconstruct", path, "--tol", "1e-10"]) == 0
    entries = np.array(json.loads(capsys.readouterr().out)["result"]["entries"])
    assert np.max(np.abs(entries / CLI_TABLES["t3"] - 1.0)) < 1e-12
