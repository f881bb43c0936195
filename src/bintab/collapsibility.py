"""Collapsibility analysis: stratum-versus-collapsed signs and property batteries.

Collapsing a table over a set S of variables pools its 2^|S| strata and can
reverse the direction of association a parameter reports (Simpson's
paradox).  DI is immune: the collapsed DI is the literal sum of the stratum
DIs, so equal stratum signs force its sign.  LOR and EX are not; one kernel
serves every S, and :func:`paradox_search` hunts for witnesses at random.

:func:`property_battery` stress-tests the defining properties of an
association parameter on random tables: vanishing on constant tables plus
strict monotonicity in the (1, ..., 1) entry, exact sign flip under
single-variable category swaps, and invariance under conditional-pair
rescaling.  Failures are expected for some kinds (DI and EX both depend
on more than the conditional structure) and are reported with replayable
witnesses rather than raised.

Both loops draw each trial from its own stream keyed by (seed, trial), the
stream of ``np.random.default_rng((seed, trial))`` bit for bit: a block of
trials takes one row of raw words a trial from ``_keyed_blocks``,
decoded as numpy's Generator would draw from them.  A search trial's 2^k
words are its entries; a battery trial's are laid out in ``_battery_draws``.
The loops measure blocks of at most ``_CELL_BUDGET >> k`` trials (one at
least) with the batched kernel ``assoc._measure_rows``, one call a run of a
block's stacks of rows (a search's strata for each variable; a battery's
base, constant, bumped, rescaled and swapped tables) of at most
``_CELL_BUDGET`` cells or one larger stack, so memory does not grow with the
trials.  Signs and the battery's rise and invariance comparisons are decided
by the kernel's one rule, ``assoc._decided``, so they are the ones the
scalar ``_measure`` gives; a row's error, or None, sits in a column aligned
with its signs.  A search's outcome is the first trial that reverses or
fails; a battery reads each check as a failure mask over a block and raises
the first error a loop over single trials meets, so witnesses, failure
counts and typed errors are those of one trial at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .assoc import (
    AssociationKind,
    BahadurKind,
    SIGN_TAU,
    _check_dimension,
    _decided,
    _measure,
    _measure_rows,
    _pop_error,
    _Rows,
    resolve_kind,
    thresholded_sign,
)
from .errors import EvaluationError, InvalidTableError
from .table import MAX_DIM, BinaryTable, _check_count, index_to_cell

#: Entry cells that a search or battery measures in one ``_measure_rows`` call
#: (64 KiB of float64), unless one stack alone holds more.  A block holds
#: ``_CELL_BUDGET >> k`` trials, at least one, so memory does not grow with
#: ``trials``, nor with k until a single table outgrows the budget.
_CELL_BUDGET = 1 << 13

#: Trials in a search's first block; each further block doubles, up to the
#: cell budget, so a witness found early costs few draws past it.
_FIRST_BLOCK = 8


def random_table(k: int, rng: np.random.Generator) -> BinaryTable:
    """Entrywise log-uniform table on [e^-3, e^3]."""
    k = _check_count("k", k, 0, MAX_DIM)  # before 2^k draws are allocated
    return BinaryTable(k, np.exp(rng.uniform(-3.0, 3.0, size=2**k)))


def _hashmixes(init: int, mult: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiplier columns of SeedSequence's hashmixes number ``indices``: the
    i-th xors ``init * mult^i`` and multiplies by ``init * mult^(i + 1)``, mod 2^32."""
    return tuple(np.array([init * pow(mult, i + step, 1 << 32) % (1 << 32) for i in indices],
                          dtype=np.uint32)[:, None] for step in (0, 1))


#: numpy's ``SeedSequence`` with its 4-word pool, in uint32 columns over the
#: lanes: hashmixes 0-3 fill the pool, and source lane s mixes into each other
#: lane d with hashmix ``4 + 3 s + d - (d > s)`` (row s is discarded).  Eight
#: state hashes make PCG64's four uint64 seed words.  Scalars are 0-d arrays,
#: which numpy broadcasts faster than scalars.
_FILL = _hashmixes(0x43B0D7E5, 0x931E8875, range(4))
_MIXES = [_hashmixes(0x43B0D7E5, 0x931E8875, [4 + 3 * s + d - (d > s) for d in range(4)])
          for s in range(4)]
_STATE = _hashmixes(0x8B51F9DD, 0x58F38DED, range(8))
_MIX_L, _MIX_R, _SHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hashmix(values: np.ndarray, columns: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values`` with that row's constants."""
    xor, mult = columns
    values = (values ^ xor) * mult
    return values ^ values >> _SHIFT


def _pcg64_seeds(seed: int, keys: range) -> np.ndarray:
    """``SeedSequence((seed, key)).generate_state(4, np.uint64)`` for each key, one row a key.

    The seed's 32-bit words (at most 3) and one word per key fill the 4-word
    pool.  The pools of all keys are mixed at once, in uint32 lanes that wrap
    as SeedSequence's C arithmetic does.
    """
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool = np.zeros((4, len(keys)), dtype=np.uint32)
    pool[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = np.arange(keys.start, keys.stop, keys.step, dtype=np.uint32)
    pool = _hashmix(pool, _FILL)
    for src, columns in enumerate(_MIXES):  # each lane mixes into the other three
        mixed = pool * _MIX_L - _hashmix(pool[src], columns) * _MIX_R
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << np.uint64(32)).T)


@dataclass
class _SeedWords(ISeedSequence):
    """A row of :func:`_pcg64_seeds`, which PCG64 takes as its ``generate_state(4, uint64)``."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _keyed_blocks(k: int, keys: range, seed: int, first: int, count: int):
    """``(start, words)`` for the keys in blocks: ``words[j]`` holds the first ``count`` raw
    words of ``np.random.default_rng((seed, start + j))``; ``first`` keys, then twice as many
    each time, within the cell budget.  Each key's PCG64 is seeded as ``default_rng`` seeds
    it: when the seed is below 2^96 and a block's keys below 2^32, they fit SeedSequence's
    4-word pool, and one vectorized pass (:func:`_pcg64_seeds`) makes the block's seed words."""
    start, size = keys.start, first
    while start < keys.stop:
        block = range(start, min(keys.stop, start + min(size, max(1, _CELL_BUDGET >> k))))
        entropy = ([(seed, key) for key in block] if seed >= 1 << 96 or block.stop > 1 << 32
                   else map(_SeedWords, _pcg64_seeds(seed, block)))
        yield start, np.array([np.random.PCG64(each).random_raw(count) for each in entropy])
        start, size = block.stop, 2 * size


def _uniforms(words: np.ndarray, low: float, high: float) -> np.ndarray:
    """The doubles ``Generator.uniform(low, high)`` makes of raw PCG64 words, one a word."""
    return low + (high - low) * ((words >> 11) * 2.0**-53)


def _strata(arr: np.ndarray, axes: tuple[int, ...]) -> list[np.ndarray]:
    """The 2^|S| strata of ``arr`` over the axes S in cell order (the highest axis
    split first, so the lower axes keep their numbers), then their sum."""
    strata = [arr]
    for axis in sorted(axes, reverse=True):
        strata = [part.take(j, axis) for j in (0, 1) for part in strata]
    return strata + [sum(strata[1:], strata[0])]


def _reverses(signs):
    """The reversal rule on the signs of ``_strata``'s parts, numbers or arrays:
    every stratum has the same nonzero sign, and the collapse does not."""
    first = signs[0]
    agree = first != 0
    for stratum in signs[1:-1]:
        agree &= stratum == first
    return agree & (signs[-1] != first)


def _check_layers(kind: AssociationKind, k: int) -> None:
    """InvalidTableError naming k when ``kind`` is Bahadur and a layer has fewer than 2 variables."""
    if isinstance(kind, BahadurKind) and k < 3:
        raise InvalidTableError(f"bahadur requires k >= 2 in every layer, so this needs k >= 3, "
                                f"got k={k}")


@dataclass(frozen=True)
class CollapseReport:
    """Signs of one parameter across both layers of a variable and the collapse."""

    variable: int
    kind: str
    values: tuple[float, float, float]
    layer_signs: tuple[int, int]
    collapsed_sign: int
    paradox: bool


def collapse_check(table: BinaryTable, kind: AssociationKind | str, i: int) -> CollapseReport:
    """Evaluate ``kind`` on both layers of variable ``i`` and on the collapse.

    ``paradox`` is set when the layer signs agree, are nonzero, and the
    collapsed sign differs from them.
    """
    kind = resolve_kind(kind)
    i = _check_count("variable", i, 1, table.k)
    _check_layers(kind, table.k)
    with np.errstate(over="ignore"):  # an infinite collapsed entry fails in _measure
        parts = _strata(table.array(), (i - 1,))
    measured = [_measure(part.reshape(-1), table.k - 1, kind) for part in parts]
    values = tuple(value for value, _ in measured)
    signs = tuple(thresholded_sign(value, scale) for value, scale in measured)
    return CollapseReport(variable=i, kind=kind.name, values=values, layer_signs=signs[:2],
                          collapsed_sign=signs[2], paradox=_reverses(signs))


def simpson_scan(
    table: BinaryTable, kinds: Sequence[AssociationKind | str]
) -> list[CollapseReport]:
    """One collapse report per (variable, kind) pair."""
    kinds = [resolve_kind(kind) for kind in kinds]
    return [collapse_check(table, kind, i) for i in range(1, table.k + 1) for kind in kinds]


def paradox_search(
    kind: AssociationKind | str, k: int, trials: int, seed: int
) -> Optional[BinaryTable]:
    """Random search for a table where collapsing reverses the sign of ``kind``.

    Each trial draws its table from a stream keyed by (seed, trial), so the
    outcome does not depend on evaluation order.  Returns the first witness
    table, or None when the budget runs out (always None for DI).  Trials
    are drawn and measured in blocks that start small and double up to the
    cell budget, and no trial past ``trials`` is drawn.  The witness, and an
    error ``simpson_scan`` raises on a trial before it, are the ones a scan
    of one trial after another would meet first.
    """
    kind = resolve_kind(kind)
    k = _check_count("k", k, 2, MAX_DIM)  # one variable to collapse, one left
    trials = _check_count("trials", trials)
    seed = _check_count("seed", seed)
    _check_layers(kind, k)
    for _, words in _keyed_blocks(k, range(trials), seed, _FIRST_BLOCK, 2**k):
        rows = np.exp(_uniforms(words, -3.0, 3.0))
        hit = _first_reversal(rows, k, kind)
        if hit is not None:
            return BinaryTable(k, rows[hit])
    return None


def _first_reversal(rows: np.ndarray, k: int, kind: AssociationKind) -> Optional[int]:
    """Index of the first row whose scan reverses or raises, or None.

    If that row raised, its first error in scan order (variable, then lower
    layer, upper layer, collapse) is raised, as ``simpson_scan`` raises it.
    """
    arr = rows.reshape((len(rows),) + (2,) * k)
    hit, errors = _reversals(arr, k, kind, *((variable,) for variable in range(1, k + 1)))
    hit |= errors != None
    if not hit.any():
        return None
    row = int(np.argmax(hit))
    if errors[row] is not None:
        raise _pop_error(errors, row)
    return row


def _reversals(arr: np.ndarray, k: int, kind: AssociationKind, *scans: tuple[int, ...]):
    """Which tables of a ``(B,) + (2,) * k`` stack reverse when collapsed over any of ``scans``,
    tuples of variables (the stack's axes past the first), all of one length.  Returns the
    reversal mask and each table's first error in scan, then part order, or None."""
    count, rest = len(arr), k - len(scans[0])
    measured = _measure_stacks((np.concatenate(_strata(arr, axes)).reshape(-1, 2**rest)
                                for axes in scans), rest, kind)
    errors = measured.errors.reshape(-1, count)  # scan-, then part-major rows of each table
    first = errors[(errors != None).argmax(axis=0), np.arange(count)]
    return _reverses(measured.signs.reshape(len(scans), -1, count).swapaxes(0, 1)).any(0), first


def _measure_stacks(stacks, k: int, kind: AssociationKind) -> _Rows:
    """``_measure_rows`` of ``(B, 2^k)`` stacks taken one at a time, as one ``_Rows`` over their
    rows: one call a run of consecutive stacks of at most ``_CELL_BUDGET`` cells, or one larger."""
    runs, run = [], []
    for stack in stacks:
        if run and sum(part.size for part in run) + stack.size > _CELL_BUDGET:
            runs.append(_measure_rows(np.concatenate(run) if len(run) > 1 else run[0], k, kind))
            run = []
        run.append(stack)
    runs.append(_measure_rows(np.concatenate(run) if len(run) > 1 else run[0], k, kind))
    return runs[0] if len(runs) == 1 else _Rows(*map(np.concatenate, zip(*runs)))


@dataclass(frozen=True)
class PropertyBatterySummary:
    """Outcome of a randomized property battery for one parameter kind."""

    kind: str
    k: int
    trials: int
    seed: int
    failures: dict[str, int]
    witnesses: dict[str, list[dict]] = field(repr=False)

    PROPERTIES = ("monotone", "swap_antisymmetry", "conditional_invariance")


def property_battery(
    kind: AssociationKind | str, k: int, trials: int, seed: int, witness_cap: int = 10
) -> PropertyBatterySummary:
    """Randomized check of the three defining properties of ``kind``.

    Per trial (stream keyed by (seed, trial)): draw a table, then check

    - monotone: sign 0 on a random constant table, and the value strictly
      increases when the (1, ..., 1) entry is scaled up;
    - swap_antisymmetry: every single-variable category swap flips the
      thresholded sign;
    - conditional_invariance: a random sequence of conditional-pair
      rescalings leaves the value unchanged (up to FP noise).

    Failures are counted per property; up to ``witness_cap`` witnesses per
    property record the table and the exact operation for replay.  Trials
    are drawn one after another and measured in blocks within the cell
    budget, each check a mask over a block; the error raised is the first
    that a loop over single trials, stopping at it, would meet.
    """
    kind = resolve_kind(kind)
    k = _check_count("k", k, 1, MAX_DIM)
    trials = _check_count("trials", trials)
    seed = _check_count("seed", seed)
    witness_cap = _check_count("witness_cap", witness_cap)
    _check_dimension(kind, k)  # before any draw, at trials=0 too
    counts = {name: 0 for name in PropertyBatterySummary.PROPERTIES}
    witnesses: dict[str, list[dict]] = {name: [] for name in PropertyBatterySummary.PROPERTIES}
    # 2^k entries, constant, bump factor, 1 + 3 (k - 1 + (k > 1)) halves, 3 factors
    count = 2**k + 2 + (2 + 3 * (k - 1 + (k > 1))) // 2 + 3
    for start, words in _keyed_blocks(k, range(trials), seed, _CELL_BUDGET, count):
        draws = _battery_draws(words, k, seed, start)
        failures = _battery_failures(draws, k, kind)
        for name, (failing, operation) in zip(PropertyBatterySummary.PROPERTIES, failures):
            counts[name] += len(failing)
            for j in failing[: witness_cap - len(witnesses[name])].tolist():
                witnesses[name].append({"table": BinaryTable(k, draws[0][j]), **operation(j)})
    return PropertyBatterySummary(kind=kind.name, k=k, trials=trials, seed=seed,
                                  failures=counts, witnesses=witnesses)


def _battery_draws(words: np.ndarray, k: int, seed: int, start: int) -> tuple:
    """Entry rows, constants, bump factors, rescaled rows and a function giving a trial's
    rescale operations, from a block's words: per trial its 2^k entries, constant and bump
    factor, a double a word, then the words :func:`_rescale_walk` walks, drawn again twice as
    many when they run out.  One pass per rescale step multiplies the cells in draw order."""
    n = 2**k
    rows = np.exp(_uniforms(words[:, :n], -3.0, 3.0))
    constants = np.exp(_uniforms(words[:, n], -3.0, 3.0))
    factors = np.exp(_uniforms(words[:, n + 1], 0.1, 1.0))
    walks = []
    for trial, tail in enumerate(words[:, n + 2:].tolist(), start):
        while True:
            try:
                walks.append(_rescale_walk(tail, k))
                break
            except IndexError:  # rejections ran past the words drawn, about 2^-32 a draw
                (_, redrawn), = _keyed_blocks(k, range(trial, trial + 1), seed, 1,
                                              n + 2 + 2 * len(tail))
                tail = redrawn[0, n + 2:].tolist()
    # up to three rescales a trial, the missing ones by 1.0 (the word 2^63), which is exact
    ops = np.array([walk + [(1, 0, 1 << 63)] * (3 - len(walk)) for walk in walks], np.uint64)
    rescale_factors = np.exp(_uniforms(ops[..., 2], -2.0, 2.0))
    rescaled_rows, every = rows.copy(), np.arange(len(walks))
    for variables, firsts, c in zip(ops[..., 0].T, ops[..., 1].T, rescale_factors.T):
        for cells in (firsts, firsts | 1 << (k - variables)):
            rescaled_rows[every, cells] *= c

    def rescales(j: int) -> list[dict]:
        cells = [index_to_cell(first, k) for _, first, _ in walks[j]]
        return [{"variable": i, "suffix": cell[:i - 1] + cell[i:], "factor": float(c)}
                for (i, _, _), cell, c in zip(walks[j], cells, rescale_factors[j])]

    return rows, constants, factors, rescaled_rows, rescales


def _rescale_walk(words: list[int], k: int) -> list[tuple[int, int, int]]:
    """A battery trial's rescales, ``(variable, first pair cell, factor word)`` each, drawn as
    numpy's Generator draws ``integers(1, 4)`` rescales of ``integers(1, k + 1)``,
    ``integers(1, 3, size=k - 1)`` and ``uniform(-2, 2)``: an integer below r > 1 is
    Lemire's ``half * r >> 32`` of a 32-bit half (low half first, the high one kept), taking
    the next half while ``half * r`` mod 2^32 is below ``(2^32 - r) % r``; a double takes a
    fresh word.  IndexError when the words run out."""
    at, spare = 0, []

    def below(r: int) -> int:
        nonlocal at
        while r > 1:
            if not spare:
                spare.extend((words[at] >> 32, words[at] & 0xFFFFFFFF))
                at += 1
            high, low = divmod(spare.pop() * r, 1 << 32)
            if low >= (2**32 - r) % r:
                return high
        return 0

    walk = []
    for _ in range(1 + below(3)):
        variable = 1 + below(k)
        first = sum(below(2) << (k - p) for p in range(1, k + 1) if p != variable)
        walk.append((variable, first, words[at]))
        at += 1
    return walk


def _battery_failures(draws: tuple, k: int, kind: AssociationKind) -> list:
    """Each property's failing trials of a block, with a function giving one's witness operation.

    The trials' tables and their constant, bumped, rescaled and swapped tables
    are measured as stacks in runs, and each check is one mask over the block.  An
    error is the lowest erring trial's first in the one-trial order: base,
    constant, bumped (when the constant signs 0), the swaps up to the first
    that does not flip, then a rescaled-table error other than an
    ``EvaluationError`` (which fails the invariance check).
    """
    rows, const_values, factors, rescaled_rows, rescales = draws
    count, n = rows.shape
    bumped_rows = rows.copy()
    bumped_rows[:, 0] *= factors
    flips = (np.flip(rows.reshape((count,) + (2,) * k), axis).reshape(count, n)
             for axis in range(1, k + 1))
    measured = _measure_stacks(itertools.chain((rows, np.repeat(const_values[:, None], n, axis=1),
                                                bumped_rows, rescaled_rows), flips), k, kind)
    base, constant, bumped, rescaled, *swaps = (  # one view of each column a stack
        _Rows(*columns) for columns in zip(*(c.reshape(-1, count) for c in measured)))
    rises = _decided(_rise, k, kind, (base, rows), (bumped, bumped_rows))
    invariant = _decided(_invariance, k, kind, (base, rows), (rescaled, rescaled_rows))
    flat = constant.signs == 0
    stops = np.array([swap.signs != -base.signs for swap in swaps])
    last = np.where(stops.any(axis=0), stops.argmax(axis=0), k)  # the first swap not to flip
    evaluable = np.array([not isinstance(e, EvaluationError) for e in rescaled.errors], bool)
    stages = [base, constant, bumped, *swaps, rescaled]
    reached = [True, True, flat, *(last >= axis for axis in range(k)), evaluable]
    erred = np.array([(stage.errors != None) & mask for stage, mask in zip(stages, reached)])
    if erred.any():  # the lowest erring trial, then its first stage
        j = int(np.argmax(erred.any(axis=0)))
        raise _pop_error(stages[int(np.argmax(erred[:, j]))].errors, j)
    return [(np.flatnonzero(~(flat & rises)),
             lambda j: {"constant": float(const_values[j]), "factor": float(factors[j])}),
            (np.flatnonzero(last < k), lambda j: {"variable": int(last[j]) + 1}),
            (np.flatnonzero(~(invariant & evaluable)), lambda j: {"rescales": rescales(j)})]


def _rise(base: _Rows, bumped: _Rows):
    """Whether each bumped value exceeds its base value."""
    return bumped.values > base.values, (bumped.values - base.values,)


def _invariance(base: _Rows, rescaled: _Rows):
    """Invariance up to FP noise: within 1e-9 of the larger value, or both below the sign floor."""
    before, after = np.abs(base.values), np.abs(rescaled.values)
    drift = np.abs(rescaled.values - base.values)
    tolerance = 1e-9 * np.maximum(before, after)
    floor = SIGN_TAU * base.scales
    matches = (drift <= tolerance) | ((before <= floor) & (after <= floor))
    return matches, (tolerance - drift, floor - before, floor - after)
