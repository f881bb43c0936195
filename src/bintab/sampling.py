"""Decision probabilities for the sign of DI under multinomial sampling.

With N multinomial draws from a normalized table, the sampled DI is
positive exactly when more than N/2 observations land in even-parity
cells, so the decision probability is a binomial tail in the even-parity
mass p alone.  ``prob_di_positive_exact`` sums that tail in log space;
``prob_di_positive_normal`` is the CLT approximation
``Phi(sqrt(N) (p - 1/2) / sqrt(p (1 - p)))``.  Ties (even count exactly
N/2) count as not-positive.

``simulate_decisions`` cross-checks by Monte Carlo for any association
kind.  Sampled tables may contain empty cells, which valid tables cannot,
so signs are computed on the raw count vectors: the kind ``DI`` in integer
arithmetic, the kind ``LOR`` by a continuity convention when zeros appear
(a zero cell pushes the log contrast to the infinity of the opposite parity
class; zeros in both classes leave the sign undefined and raise), all other
kinds on the empirical proportions.  Kinds are matched by equality, name
and ``h`` alike, so a kind that only borrows a name takes the general path.
"""

from __future__ import annotations

import math

import numpy as np

from .assoc import DI, LOR, AssociationKind, _measure, thresholded_sign
from .errors import EvaluationError, InvalidTableError
from .table import BinaryTable, _check_seed, parity_signs

#: Replications drawn per derived stream; fixed so results never depend on
#: how the chunks are scheduled.
CHUNK = 4096

SIGN_LABELS = {1: "positive", 0: "zero", -1: "negative"}


def even_parity_mass(table: BinaryTable) -> float:
    """Fraction of the table total carried by the even-parity cells."""
    even = parity_signs(table.k) > 0
    return float(math.fsum(table.entries[even]) / math.fsum(table.entries))


def table_with_even_mass(k: int, p_even: float) -> BinaryTable:
    """Normalized table, constant within each parity class, with the given even mass."""
    if not 0.0 < p_even < 1.0:
        raise InvalidTableError(f"p_even must lie in (0, 1), got {p_even!r}")
    half = 2 ** (k - 1)
    entries = np.where(parity_signs(k) > 0, p_even / half, (1.0 - p_even) / half)
    return BinaryTable(k, entries)


def _check_sample(N: int, p: float | None = None) -> None:
    """Reject a sample size N that is not a positive integer, or p outside (0, 1)."""
    if not (isinstance(N, int) and N >= 1):
        raise InvalidTableError(f"N must be a positive integer, got {N!r}")
    if p is not None and not 0.0 < p < 1.0:
        raise InvalidTableError(f"p must lie in (0, 1), got {p!r}")


def prob_di_positive_exact(N: int, p: float) -> float:
    """P(sampled DI > 0): binomial tail P(X > N/2) for X ~ Bin(N, p).

    Terms are accumulated from log-binomial form so large N stays stable;
    the lower limit floor(N/2) + 1 excludes ties.
    """
    _check_sample(N, p)
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n_fact = math.lgamma(N + 1)
    total = math.fsum(
        math.exp(
            log_n_fact
            - math.lgamma(x + 1)
            - math.lgamma(N - x + 1)
            + x * log_p
            + (N - x) * log_q
        )
        for x in range(N // 2 + 1, N + 1)
    )
    return min(total, 1.0)


def prob_di_positive_normal(N: int, p: float) -> float:
    """Normal approximation Phi(sqrt(N) (p - 1/2) / sqrt(p (1 - p)))."""
    _check_sample(N, p)
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


def _sample_sign(counts: np.ndarray, k: int, kind: AssociationKind) -> int:
    """Sign of ``kind`` on one sampled count vector (zeros permitted)."""
    if kind == LOR:
        even = parity_signs(k) > 0
        zero_even = bool((counts[even] == 0).any())
        zero_odd = bool((counts[~even] == 0).any())
        if zero_even and zero_odd:
            raise EvaluationError("empty cells in both parity classes: LOR sign undefined")
        if zero_odd:
            return 1
        if zero_even:
            return -1
    return thresholded_sign(*_measure(counts / counts.sum(), k, kind))


def simulate_decisions(
    true_table: BinaryTable,
    N: int,
    kind: AssociationKind,
    replications: int,
    seed: int,
) -> dict[str, float]:
    """Empirical frequency of each sign of ``kind`` over multinomial samples.

    The true table is normalized internally.  Replications are drawn in
    fixed-size chunks, each from a stream keyed by (seed, chunk index), so
    the result is reproducible and independent of scheduling.  Returns
    frequencies keyed "positive" / "zero" / "negative".
    """
    _check_sample(N)
    if not (isinstance(replications, int) and replications >= 1):
        raise InvalidTableError(f"replications must be >= 1, got {replications!r}")
    _check_seed(seed)
    probs = true_table.entries / true_table.entries.sum()
    k = true_table.k
    is_di = kind == DI
    signs_vec = parity_signs(k).astype(np.int64)

    tally = {1: 0, 0: 0, -1: 0}
    done = 0
    chunk_index = 0
    while done < replications:
        rows = min(CHUNK, replications - done)
        rng = np.random.default_rng((seed, chunk_index))
        counts = _multinomial_rows(rng, probs, N, rows)
        if is_di:
            values = counts @ signs_vec
            tally[1] += int((values > 0).sum())
            tally[0] += int((values == 0).sum())
            tally[-1] += int((values < 0).sum())
        else:
            for row in counts:
                tally[_sample_sign(row, k, kind)] += 1
        done += rows
        chunk_index += 1
    return {SIGN_LABELS[s]: tally[s] / replications for s in (1, 0, -1)}
