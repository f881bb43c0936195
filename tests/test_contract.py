"""The contract, checked by machine: every admitted input ends in a result or a typed error.

Hypothesis draws the inputs, derandomized so that each run draws the same
cases.  Every case runs with Python warnings raised as errors and numpy in
its default error state, so a leaked overflow or invalid-operation warning
fails a case just as an untyped exception does.  A case passes when it
returns a well-formed result or raises a ``BintabError`` subclass.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

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
    canonicalize,
    collapse_check,
    decompose,
    di_inverse,
    even_parity_mass,
    full_params,
    lor_inverse,
    marginal,
    paradox_search,
    prob_di_positive_exact,
    prob_di_positive_normal,
    property_battery,
    recompose,
    rescale_conditional_pair,
    simpson_scan,
    simulate_decisions,
    swap_category,
    table_with_even_mass,
)
from bintab import cli
from bintab.assoc import _measure
from bintab.sampling import MAX_EXACT_N, MAX_N

KINDS = (LOR, DI, EX, BAHADUR)

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# the table, parameter, structure and sampling entry points, at fewer examples a call: most
# of their cost is drawing the case
SLICE = settings(CONTRACT, max_examples=100)

# every positive finite float, the subnormals and the largest ones included
ENTRIES = st.floats(min_value=5e-324, max_value=1.8e308)

# seeds on both sides of each seeding boundary: one, two and three 32-bit
# words, and 2^96, past which a block is seeded key by key
SEEDS = st.one_of(st.integers(0, 2**100),
                  st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**96 - 1, 2**96, 2**100]))


@st.composite
def entry_lists(draw, max_k=5):
    """``(k, entries)`` for a table of 1 to ``max_k`` variables over the whole float range."""
    k = draw(st.integers(1, max_k))
    return k, draw(st.lists(ENTRIES, min_size=2**k, max_size=2**k))


def answer(call):
    """``call()``'s result, or None when it raised a typed error.

    A warning or an exception of any other type propagates and fails the case.
    """
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        try:
            return call()
        except BintabError:
            return None


def check_report(report, kind, variable):
    assert report.kind == kind.name and report.variable == variable
    assert all(isinstance(value, float) for value in report.values)
    signs = (*report.layer_signs, report.collapsed_sign)
    assert set(signs) <= {-1, 0, 1}
    assert report.paradox == (signs[0] == signs[1] != 0 and signs[2] != signs[0])


@given(entry_lists(), st.sampled_from(KINDS), st.data())
@CONTRACT
def test_collapse_check(case, kind, data):
    k, entries = case
    variable = data.draw(st.integers(1, k))
    report = answer(lambda: collapse_check(BinaryTable(k, entries), kind, variable))
    if report is not None:
        check_report(report, kind, variable)


@given(entry_lists(), st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
@CONTRACT
def test_simpson_scan(case, kinds):
    k, entries = case
    reports = answer(lambda: simpson_scan(BinaryTable(k, entries), kinds))
    if reports is not None:
        grid = [(variable, kind) for variable in range(1, k + 1) for kind in kinds]
        assert len(reports) == len(grid)
        for report, (variable, kind) in zip(reports, grid):
            check_report(report, kind, variable)


@given(st.sampled_from(KINDS), st.integers(1, 6), st.integers(0, 40), SEEDS)
@CONTRACT
def test_paradox_search(kind, k, trials, seed):
    witness = answer(lambda: paradox_search(kind, k, trials, seed))
    if witness is not None:
        assert isinstance(witness, BinaryTable) and witness.k == k
        assert any(report.paradox for report in simpson_scan(witness, [kind]))


@given(st.sampled_from(KINDS), st.integers(1, 6), st.integers(0, 40), SEEDS,
       st.integers(0, 3))
@CONTRACT
def test_property_battery(kind, k, trials, seed, witness_cap):
    summary = answer(lambda: property_battery(kind, k, trials, seed, witness_cap))
    if summary is not None:
        assert (summary.kind, summary.k, summary.trials, summary.seed) == (kind.name, k, trials,
                                                                           seed)
        for name in summary.PROPERTIES:
            assert 0 <= summary.failures[name] <= trials
            assert len(summary.witnesses[name]) == min(summary.failures[name], witness_cap)


def check_table(table, k):
    assert isinstance(table, BinaryTable) and table.k == k
    assert table.entries.shape == (2**k,) and np.all(table.entries > 0)
    assert np.all(np.isfinite(table.entries))


def tables(max_k=5):
    """Valid tables of 1 to ``max_k`` variables, entries over the whole finite float range."""
    finite = st.floats(min_value=5e-324, max_value=sys.float_info.max)
    return st.integers(1, max_k).flatmap(lambda k: st.lists(
        finite, min_size=2**k, max_size=2**k).map(lambda entries: BinaryTable(k, entries)))


# kinds whose h or d raises ValueError below 1 or above 1e6, which _measure reports as
# EvaluationError, besides the built-in ones
RAISING_KINDS = (ContrastKind("log-minus-1", lambda x: math.log(x - 1.0)),
                 ContrastKind("sqrt-below-1e6", lambda x: math.sqrt(1e6 - x)),
                 AggregateContrastKind("log-minus-1", lambda t: math.log(t - 1.0)))


@given(tables().filter(lambda table: table.k >= 2), st.sampled_from(KINDS + RAISING_KINDS))
@CONTRACT
def test_measure_raises_only_evaluation_error(table, kind):
    # past _check_dimension, which refuses Bahadur at k < 2 alone, _measure returns or raises
    # EvaluationError: the battery counts a rescaled table's error as an invariance failure
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error")
        try:
            value, scale = _measure(table.entries, table.k, kind)
        except BintabError as exc:
            assert type(exc) is EvaluationError, exc
            return
    assert math.isfinite(value) and scale >= 0.0


# any float, and any int of the size the checks of N and k meet
NUMBERS = st.one_of(st.floats(), st.integers(-2, 2**70), st.booleans())

OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def admitted_or_any(admitted, *anything):
    """Argument tuples: all admitted half the time, each drawn from ``anything`` the rest."""
    return st.one_of(st.tuples(*admitted), st.tuples(*anything))


@given(st.lists(st.one_of(st.floats(), ENTRIES), max_size=33),
       st.one_of(st.none(), st.integers(-1, 6)))
@SLICE
def test_from_entries(entries, k):
    table = answer(lambda: BinaryTable.from_entries(entries, k))
    if table is not None:
        assert 2**table.k == len(entries) and (k is None or table.k == k)
        check_table(table, table.k)
        assert table.entries.tolist() == [float(x) for x in entries]


@given(tables(), st.data())
@SLICE
def test_marginal(table, data):
    mask = data.draw(st.integers(0, 2**table.k - 1))
    result = answer(lambda: marginal(table, mask))
    if result is not None:
        check_table(result, mask.bit_count())


@given(tables(), st.data())
@SLICE
def test_swap_category(table, data):
    variable = data.draw(st.integers(1, table.k))
    swapped = answer(lambda: swap_category(table, variable))
    check_table(swapped, table.k)  # a permutation of a valid table never fails
    assert sorted(swapped.entries.tolist()) == sorted(table.entries.tolist())


@given(tables(), ENTRIES, st.data())
@SLICE
def test_rescale_conditional_pair(table, c, data):
    variable = data.draw(st.integers(1, table.k))
    suffix = data.draw(st.lists(st.integers(1, 2), min_size=table.k - 1, max_size=table.k - 1))
    result = answer(lambda: rescale_conditional_pair(table, variable, suffix, c))
    if result is not None:
        check_table(result, table.k)
        assert np.count_nonzero(result.entries != table.entries) <= 2


@given(tables())
@SLICE
def test_di_params_and_inverse(table):
    params = answer(lambda: full_params(table, DI))
    if params is not None:
        assert params.kind == "di" and np.all(np.isfinite(params.values))
        result = answer(lambda: di_inverse(params))
        if result is not None:
            check_table(result, table.k)


@given(tables(max_k=4))
@SLICE
def test_lor_params_and_inverse(table):
    params = answer(lambda: full_params(table, LOR))
    if params is not None:
        assert params.kind == "lor" and np.all(np.isfinite(params.values))
        result = answer(lambda: lor_inverse(params))
        if result is not None:
            check_table(result, table.k)


@given(tables())
@SLICE
def test_canonicalize(table):
    trace = answer(lambda: canonicalize(table))
    if trace is not None:
        assert [step.variable for step in trace.steps] == list(range(1, table.k + 1))
        check_table(trace.final, table.k)
        assert trace.final.entries[1:].tolist() == [1.0] * (2**table.k - 1)


@given(tables())
@SLICE
def test_decompose_and_recompose(table):
    d = answer(lambda: decompose(table))
    if d is not None:
        assert d.case in ("positive", "negative", "zero") and d.increment > 0
        result = answer(lambda: recompose(d))
        if result is not None:
            check_table(result, table.k)


@given(tables())
@SLICE
def test_even_parity_mass(table):
    mass = answer(lambda: even_parity_mass(table))
    assert 0.0 <= mass <= 1.0  # a valid table always has one


@given(admitted_or_any((st.integers(1, 8), OPEN_UNIT), NUMBERS, NUMBERS))
@SLICE
def test_table_with_even_mass(args):
    k, p_even = args
    table = answer(lambda: table_with_even_mass(k, p_even))
    if table is not None:
        check_table(table, k)


# the exact tail holds its window of about 2 sqrt(373.5 N) terms at once, so an admitted N
# runs to 10^6, where the window is small, and every other N drawn is refused
EXACT_N = st.one_of(st.integers(-1, 10**6), st.integers(MAX_EXACT_N + 1, 2**70), st.floats(),
                    st.booleans())


@given(admitted_or_any((st.integers(1, 10**6), OPEN_UNIT), EXACT_N, NUMBERS))
@SLICE
def test_prob_di_positive_exact(args):
    N, p = args
    prob = answer(lambda: prob_di_positive_exact(N, p))
    if prob is not None:
        assert 0.0 <= prob <= 1.0


@given(admitted_or_any((st.integers(1, MAX_N), OPEN_UNIT),
                       st.one_of(NUMBERS, st.just(MAX_N + 1)), NUMBERS))
@SLICE
def test_prob_di_positive_normal(args):
    N, p = args
    prob = answer(lambda: prob_di_positive_normal(N, p))
    if prob is not None:
        assert 0.0 <= prob <= 1.0


@given(tables(max_k=3), st.one_of(st.integers(1, 10**6), st.just(MAX_N)),
       st.sampled_from(KINDS), st.integers(1, 40), SEEDS)
@SLICE
def test_simulate_decisions(table, N, kind, replications, seed):
    freqs = answer(lambda: simulate_decisions(table, N, kind, replications, seed))
    if freqs is not None:
        assert list(freqs) == ["positive", "zero", "negative"]
        assert math.isclose(sum(freqs.values()), 1.0)
        assert all(math.isclose(f * replications, round(f * replications)) for f in freqs.values())


# the CLI, in-process on generated files: every subcommand exits 0, 2, 3 or 4 with output
# that parses, never with a traceback or a warning
CLI = settings(CONTRACT, max_examples=60)

# table files of 0 to 4 variables, entries over the positive floats and infinity
TABLE_FILES = st.integers(0, 4).flatmap(lambda k: st.fixed_dictionaries(
    {"k": st.just(k), "entries": st.lists(ENTRIES, min_size=2**k, max_size=2**k)}))

# parameter files of 0 to 3 variables, every mask's value, mask 0 included, any float but NaN
PARAM_FILES = st.tuples(st.integers(0, 3), st.sampled_from(["di", "lor"])).flatmap(
    lambda case: st.lists(st.floats(-1.8e308, 1.8e308), min_size=2**case[0],
                          max_size=2**case[0]).map(lambda values: {
        "k": case[0], "kind": case[1],
        **{format(m, f"0{case[0]}b") if case[0] else "": v for m, v in enumerate(values)}}))

KIND_NAMES = st.sampled_from(["lor", "di", "ex", "bahadur"])

# a seed of 0 draws one from entropy, which no derandomized run repeats: -1, refused, for it
CLI_SEEDS = SEEDS.map(lambda seed: seed or -1)


def strict_json(text: str) -> object:
    """``text`` parsed as JSON, which has no NaN or infinities."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run_cli(argv: list[str], files: dict) -> tuple[int, str, dict]:
    """``cli.main(argv)`` in a fresh folder holding ``files``, JSON payloads by name, with
    warnings as errors: its exit code, its output, and the JSON files it wrote by name.

    Each argument that names a ``.json`` file names it in the folder.
    """
    with tempfile.TemporaryDirectory() as folder:
        for name, payload in files.items():
            with open(os.path.join(folder, name), "w", encoding="utf-8") as fp:
                json.dump(payload, fp)
        argv = [os.path.join(folder, arg) if arg.endswith(".json") else arg for arg in argv]
        out = io.StringIO()
        with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"), \
                contextlib.redirect_stdout(out):
            warnings.simplefilter("error")
            code = cli.main(argv)
        written = {}
        for name in sorted(set(os.listdir(folder)) - set(files)):
            with open(os.path.join(folder, name), encoding="utf-8") as fp:
                written[name] = strict_json(fp.read())
    assert code in (0, 2, 3, 4), code
    return code, out.getvalue(), written


def check_envelope(code: int, out: str, command: str) -> dict:
    """The report of a run that exits 0 or 4, or the error of one that exits 2 or 3."""
    payload = strict_json(out)
    assert payload["tool"] == "bintab"
    if code in (2, 3):
        assert set(payload) == {"tool", "version", "error"}
        assert payload["error"]["type"].endswith("Error")
        return payload["error"]
    assert payload["command"] == command
    return payload["result"]


@given(TABLE_FILES, KIND_NAMES, st.booleans(), st.booleans())
@CLI
def test_cli_params(table, kind, full, out):
    argv = ["params", "t.json", "--kind", kind] + ["--full"] * full + ["--out", "p.json"] * out
    code, text, written = run_cli(argv, {"t.json": table})
    assert code in (0, 2, 3)
    result = check_envelope(code, text, "params")
    if code == 0 and out:
        assert written == {"p.json": result}


@given(PARAM_FILES, st.booleans())
@CLI
def test_cli_reconstruct(params, out):
    argv = ["reconstruct", "p.json"] + ["--out", "t.json"] * out
    code, text, written = run_cli(argv, {"p.json": params})
    assert code in (0, 2, 3)
    result = check_envelope(code, text, "reconstruct")
    if code == 0:
        assert result["k"] == params["k"] and all(x > 0 for x in result["entries"])
        assert written == ({"t.json": result} if out else {})


@given(TABLE_FILES, st.lists(KIND_NAMES, min_size=1, max_size=4))
@CLI
def test_cli_simpson(table, kinds):
    code, text, _ = run_cli(["simpson", "t.json", "--kind", ",".join(kinds)], {"t.json": table})
    assert code in (0, 2, 3)
    result = check_envelope(code, text, "simpson")
    if code == 0:
        assert result["any_paradox"] == any(r["paradox"] for r in result["reports"])


@given(KIND_NAMES, st.integers(0, 6), st.integers(-1, 30), CLI_SEEDS, st.booleans())
@CLI
def test_cli_search(kind, k, trials, seed, out):
    argv = ["search", "--kind", kind, "--k", str(k), "--trials", str(trials),
            "--seed", str(seed)] + ["--out", "w.json"] * out
    code, text, written = run_cli(argv, {})
    result = check_envelope(code, text, "search")
    if code == 0:
        assert result["reports"] and all(r["paradox"] for r in result["reports"])
        assert written == ({"w.json": result["witness"]} if out else {})
    if code == 4:
        assert result == {"witness": None, "trials": trials} and not written


@given(TABLE_FILES, st.booleans())
@CLI
def test_cli_canonical(table, out):
    code, text, written = run_cli(["canonical", "t.json"] + ["--out", "c.json"] * out,
                                  {"t.json": table})
    assert code in (0, 2, 3)
    result = check_envelope(code, text, "canonical")
    if code == 0:
        assert written == ({"c.json": result["final"]} if out else {})


@given(TABLE_FILES)
@CLI
def test_cli_decompose(table):
    code, text, _ = run_cli(["decompose", "t.json"], {"t.json": table})
    assert code in (0, 2, 3)
    check_envelope(code, text, "decompose")


# the even-parity mass from --p or --table (a Monte Carlo table of k <= 3), or from neither
MASS_SOURCES = st.one_of(
    st.one_of(OPEN_UNIT, st.floats()).map(lambda p: (p, None)),
    TABLE_FILES.filter(lambda table: table["k"] <= 3).map(lambda table: (None, table)),
    st.just((None, None)))


@given(st.integers(-1, 10**6), MASS_SOURCES, st.integers(0, 20), CLI_SEEDS,
       st.sampled_from(["json", "csv"]))
@CLI
def test_cli_power(N, source, mc, seed, output_format):
    p, table = source
    argv = [f"--N={N}", f"--mc={mc}", f"--seed={seed}", "--format", output_format]
    argv += [] if p is None else [f"--p={p!r}"]
    argv += [] if table is None else ["--table", "t.json"]
    code, text, _ = run_cli(["power"] + argv, {} if table is None else {"t.json": table})
    assert code in (0, 2, 3)
    if code == 0 and output_format == "csv":
        header, row = csv.reader(text.splitlines())
        assert header == ["N", "p", "exact", "normal", "empirical"]
        assert 0.0 <= float(row[2]) <= 1.0 and (row[4] == "") == (mc == 0)
    else:
        result = check_envelope(code, text, "power")
        if code == 0:
            assert 0.0 <= result["exact"] <= 1.0 and 0.0 <= result["normal"] <= 1.0
