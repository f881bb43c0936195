"""Decision probabilities for the sign of DI under multinomial sampling.

With N multinomial draws from a normalized table, the sampled DI is
positive exactly when more than N/2 observations land in even-parity
cells, so the decision probability is a binomial tail in the even-parity
mass p alone.  ``prob_di_positive_exact`` sums that tail in log space
over the one window around Np outside which Pinsker's inequality puts
every term below the float range, O(sqrt(N)) terms formed in one numpy
pass from a bounded cache of log-factorials (at most 4 MB);
``prob_di_positive_normal`` is the CLT approximation
``Phi(sqrt(N) (p - 1/2) / sqrt(p (1 - p)))``.  Ties (even count exactly
N/2) count as not-positive.  Tables whose total overflows a float are
scaled by a power of two first (``table._finite_totals``).

``simulate_decisions`` cross-checks by Monte Carlo for any association
kind.  Sampled tables may contain empty cells, which valid tables cannot,
so signs are computed on the raw count vectors: the kind ``DI`` in integer
arithmetic, the kind ``LOR`` by a continuity convention when zeros appear
(a zero cell pushes the log contrast to the infinity of the opposite parity
class; zeros in both classes leave the sign undefined and raise), all other
kinds on the empirical proportions.  Kinds are matched by equality, name
and ``h`` alike, so a kind that only borrows a name takes the general path.
Each chunk of count rows is signed as one stack: the zero rule is
vectorized and the rest goes through the batched kernel of ``assoc``, whose
signs are those of the scalar one.  A sample whose sign is undefined aborts
the study with the error of the first such row.  Chunk c draws from
``np.random.default_rng((seed, c))``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .assoc import (DI, LOR, AssociationKind, _check_dimension, _measure_rows, _pop_error,
                    resolve_kind)
from .errors import EvaluationError
from .table import (
    MAX_DIM,
    BinaryTable,
    _check_count,
    _check_real,
    _derived_table,
    _finite_totals,
    parity_signs,
)

#: Replications drawn per keyed stream.  Chunks bound the memory of one
#: draw to CHUNK count rows, and each chunk draws from its own stream keyed
#: by (seed, chunk index), so a run's first chunks are the same draws
#: whatever the replication count.
CHUNK = 4096

SIGN_LABELS = {1: "positive", 0: "zero", -1: "negative"}


def even_parity_mass(table: BinaryTable) -> float:
    """Fraction of the table total carried by the even-parity cells."""
    even = parity_signs(table.k) > 0
    entries = _finite_totals(table.entries)
    return float(math.fsum(entries[even]) / math.fsum(entries))


def table_with_even_mass(k: int, p_even: float) -> BinaryTable:
    """Normalized table, constant within each parity class, with the given even mass.

    Raises :class:`EvaluationError` when a class's share of its mass underflows to 0.
    """
    k = _check_count("k", k, 1, MAX_DIM)  # k=0 has no odd cell to carry 1 - p_even
    p_even = _check_real("p_even", p_even, 0, 1)
    half = 2 ** (k - 1)
    return _derived_table(k, f"the table with even mass {p_even!r}", lambda: np.where(
        parity_signs(k) > 0, p_even / half, (1.0 - p_even) / half))


#: Log-factorials ``lgamma(x + 1)`` are memoized in blocks of ``_LF_BLOCK``
#: values (8 KiB).  The cache keeps at most ``_LF_BLOCKS`` blocks: 3.5 MiB of
#: values, under 4 MB with the cache's own records.
_LF_BLOCK = 1 << 10
_LF_BLOCKS = 448

#: Log-terms below this are 0.0 after ``math.exp``, which returns 0.0 below
#: about -745.13.
_EXP_FLOOR = -746.0

#: Largest N of the exact tail: its window of about 2 sqrt(373.5 N) terms is
#: held at once (a 150 MB ``tracemalloc`` peak at N = 10^10).
MAX_EXACT_N = 10**10

#: Largest N of the normal tail and the Monte Carlo, whose counts are int64.
MAX_N = 2**63 - 1

#: Largest k of the Monte Carlo, whose chunks hold CHUNK x 2^k counts (a ``tracemalloc``
#: peak of 128 MiB for LOR and 193 MiB for Bahadur at k = 10, x2 per k).
MAX_SIMULATE_K = 10


@functools.lru_cache(maxsize=_LF_BLOCKS)
def _log_factorial_block(block: int) -> np.ndarray:
    """Read-only ``math.lgamma(x + 1)`` for the x of one block."""
    first = block * _LF_BLOCK + 1
    # math.lgamma takes floats faster than ints, and x + 1 <= 2^53 converts exactly
    x = np.arange(first, first + _LF_BLOCK, dtype=np.float64).tolist()
    values = np.fromiter(map(math.lgamma, x), np.float64, _LF_BLOCK)
    values.flags.writeable = False
    return values


def _log_factorials(lo: int, hi: int) -> np.ndarray:
    """``math.lgamma(x + 1)`` for x in ``[lo, hi)``, from the memoized blocks."""
    first = lo // _LF_BLOCK
    blocks = [_log_factorial_block(b) for b in range(first, (hi - 1) // _LF_BLOCK + 1)]
    start = lo - first * _LF_BLOCK
    return np.concatenate(blocks)[start:start + hi - lo]


def prob_di_positive_exact(N: int, p: float) -> float:
    """P(sampled DI > 0): binomial tail P(X > N/2) for X ~ Bin(N, p).

    Terms are summed from log-binomial form so large N stays stable; the
    lower limit floor(N/2) + 1 excludes ties.  By Pinsker's inequality
    ``log P(X = x) <= -2 (x - Np)^2 / N``, so every term farther than
    ``r = sqrt((1 - _EXP_FLOOR) N / 2) + 1`` from Np has a log below
    ``_EXP_FLOOR - 1`` (the 1 is a margin for the rounding of the computed
    log) and is 0.0 after ``math.exp``: the sum runs over the one window
    ``|x - Np| <= r`` of the tail, in O(sqrt(N)) time and memory, and
    ``math.fsum`` is exactly rounded, so the result is the full sum's.

    The window's log-terms are formed in one numpy pass from memoized
    log-factorials, in the order of operations of ``lgamma(N+1) -
    lgamma(x+1) - lgamma(N-x+1) + x log p + (N-x) log q``, and ``math.exp``
    (not ``np.exp``, which can differ by an ulp) is applied to those above
    the underflow limit, so every term is the float a scalar loop over x
    would give (for N below 2^53, where x converts to a float exactly).
    """
    p = _check_real("p", p, 0, 1)
    N = _check_count("N", N, 1)  # a bool or a float gets the message of every N check
    N = _check_count("N", N, 1, MAX_EXACT_N)  # before the window is allocated
    r = math.sqrt((1 - _EXP_FLOOR) * N / 2) + 1
    a, b = max(N // 2 + 1, math.floor(N * p - r)), min(N, math.ceil(N * p + r)) + 1  # x in [a, b)
    if a >= b:
        return 0.0
    xs = np.arange(a, b, dtype=np.float64)
    lf_x, lf_rest = _log_factorials(a, b), _log_factorials(N - b + 1, N - a + 1)[::-1]
    logs = math.lgamma(N + 1) - lf_x - lf_rest + xs * math.log(p) + (N - xs) * math.log1p(-p)
    return min(math.fsum(map(math.exp, logs[logs >= _EXP_FLOOR].tolist())), 1.0)


def prob_di_positive_normal(N: int, p: float) -> float:
    """Normal approximation Phi(sqrt(N) (p - 1/2) / sqrt(p (1 - p)))."""
    p = _check_real("p", p, 0, 1)
    N = _check_count("N", N, 1)
    N = _check_count("N", N, 1, MAX_N)
    z = math.sqrt(N) * (p - 0.5) / math.sqrt(p * (1.0 - p))
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _multinomial_rows(rng: np.random.Generator, probs: np.ndarray, N: int,
                      rows: int) -> np.ndarray:
    """``rows`` multinomial count vectors via sequential binomial conditioning."""
    n = probs.size
    counts = np.zeros((rows, n), dtype=np.int64)
    remaining = np.full(rows, N, dtype=np.int64)
    rest = 1.0
    for i in range(n - 1):
        cond = min(max(probs[i] / rest, 0.0), 1.0) if rest > 0 else 1.0
        draw = rng.binomial(remaining, cond)
        counts[:, i] = draw
        remaining -= draw
        rest -= probs[i]
    counts[:, n - 1] = remaining
    return counts


def _sample_sign(counts: np.ndarray, k: int, kind: AssociationKind) -> np.ndarray:
    """Sign of ``kind`` on each sampled count vector of ``(..., 2**k)`` (zeros permitted).

    DI is signed in integer arithmetic and LOR by its zero-cell rule; the
    rest are measured on the empirical proportions as one stack.  Raises
    the error of the first vector, in row order, whose sign is undefined.
    """
    if kind == DI:
        return np.sign(counts @ parity_signs(k).astype(np.int64))
    rows = counts.reshape(-1, 2**k)
    signs = np.zeros(len(rows), dtype=np.int8)
    free = np.ones(len(rows), dtype=bool)
    if kind == LOR:
        even = parity_signs(k) > 0
        zero_even = (rows[:, even] == 0).any(axis=1)
        zero_odd = (rows[:, ~even] == 0).any(axis=1)
        if (zero_even & zero_odd).any():
            raise EvaluationError("empty cells in both parity classes: LOR sign undefined")
        signs[zero_odd] = 1
        signs[zero_even] = -1
        free = ~(zero_even | zero_odd)
    rows = rows[free]
    measured = _measure_rows(rows / rows.sum(axis=1, keepdims=True), k, kind)
    erred = np.flatnonzero(measured.errors)
    if erred.size:
        raise _pop_error(measured.errors, erred[0])
    signs[free] = measured.signs
    return signs.reshape(counts.shape[:-1])


def simulate_decisions(
    true_table: BinaryTable,
    N: int,
    kind: AssociationKind | str,
    replications: int,
    seed: int,
) -> dict[str, float]:
    """Empirical frequency of each sign of ``kind`` over multinomial samples.

    The true table, of k up to ``MAX_SIMULATE_K``, is normalized internally.
    Replications are drawn in chunks of ``CHUNK`` rows, each from a stream
    keyed by (seed, chunk index), so the result is reproducible.  Returns
    frequencies keyed "positive" / "zero" / "negative".
    """
    kind = resolve_kind(kind)
    N = _check_count("N", N, 1)
    N = _check_count("N", N, 1, MAX_N)
    replications = _check_count("replications", replications, 1)
    seed = _check_count("seed", seed)
    k = _check_count("k", true_table.k, 0, MAX_SIMULATE_K)  # before the first chunk is drawn
    _check_dimension(kind, k)
    entries = _finite_totals(true_table.entries)
    probs = entries / entries.sum()

    tally = {1: 0, 0: 0, -1: 0}
    for chunk, done in enumerate(range(0, replications, CHUNK)):
        rng = np.random.default_rng((seed, chunk))
        rows = min(CHUNK, replications - done)
        signs = _sample_sign(_multinomial_rows(rng, probs, N, rows), k, kind)
        for s in tally:
            tally[s] += int(np.count_nonzero(signs == s))
    return {SIGN_LABELS[s]: tally[s] / replications for s in (1, 0, -1)}
