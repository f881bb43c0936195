"""Independent reference implementations and checks the library is tested against.

``sign_matrix``, ``naive_full_params`` and ``recursive_contrast`` evaluate
defining formulas directly and share no code path with the library's
butterfly, marginal-lattice or one-pass contrast kernels.
``additivity_sign_check`` and ``conditional_equal`` state the DI additivity
and conditional-invariance properties the tests assert.  ``scalar_search``
and ``scalar_battery`` run the seeded search and property battery one
trial and one table at a time, the reference for the library's blocked
loops; ``generator_rescales`` draws a battery trial's rescales as numpy's
Generator draws them.  ``scalar_exact_tail`` sums the exact binomial tail
one term at a time, the reference for its one-pass window.  All of them
call public library names only.
"""

import math

import numpy as np

from bintab import (
    SIGN_TAU,
    BinaryTable,
    EvaluationError,
    InvalidTableError,
    di,
    evaluate,
    lor,
    magnitude_scale,
    marginal,
    random_table,
    rescale_conditional_pair,
    sign,
    simpson_scan,
    slice_table,
    swap_category,
)


def sign_matrix(k: int) -> np.ndarray:
    """The full coefficient matrix ``A[m, t] = (-1)^{popcount(m & t)}``."""
    idx = np.arange(2**k, dtype=np.uint64)
    return np.where(np.bitwise_count(idx[:, None] & idx[None, :]) % 2 == 0, 1.0, -1.0)


def naive_full_params(table: BinaryTable, kind: str) -> np.ndarray:
    """One DI or LOR value per mask: marginalize, then contrast, in ``O(4^k)``."""
    n = 2**table.k
    values = np.empty(n)
    for m in range(n):
        if m == 0:
            if kind == "di":
                values[0] = table.entries.sum()
            else:
                values[0] = math.fsum(math.log(x) for x in table.entries)
            continue
        marg = marginal(table, m)
        values[m] = di(marg) if kind == "di" else lor(marg)
    return values


def recursive_contrast(table: BinaryTable, h, i: int) -> float:
    """Parity contrast evaluated by the slice recursion along variable ``i``.

    ``f_k = f_{k-1}(V_i = 1 part) - f_{k-1}(V_i = 2 part)``, down to
    ``f_1 = h(p(1)) - h(p(2))``; equal to ``contrast`` for every ``i``.
    """
    if table.k == 0:
        return h(float(table.entries[0]))
    if table.k == 1:
        return h(float(table.entries[0])) - h(float(table.entries[1]))
    upper = recursive_contrast(slice_table(table, i, 1), h, 1)
    lower = recursive_contrast(slice_table(table, i, 2), h, 1)
    return upper - lower


def additivity_sign_check(p: BinaryTable, q: BinaryTable, kind) -> bool:
    """Whether adding the zero-sign table ``q`` leaves the sign of ``kind`` on ``p``.

    Compares the sign on the entrywise sum p + q against the sign on p
    alone.  Always true for DI (the value is literally additive); other
    kinds can fail.
    """
    if p.k != q.k:
        raise InvalidTableError(f"tables disagree on k: {p.k} != {q.k}")
    if sign(q, kind) != 0:
        raise InvalidTableError("q must have zero sign under the given kind")
    total = BinaryTable(p.k, p.entries + q.entries)
    return sign(total, kind) == sign(p, kind)


def conditional_equal(p: BinaryTable, q: BinaryTable, i: int, tol: float = 1e-9) -> bool:
    """Whether ``V_i`` has the same conditional distribution given the rest in p and q.

    Compares ``p(1, t) / p(+, t)`` with ``q(1, t) / q(+, t)`` over all cells
    ``t`` of the other variables, to relative tolerance ``tol``.
    """
    if p.k != q.k:
        raise InvalidTableError(f"dimension mismatch: {p.k} != {q.k}")
    if not 1 <= i <= p.k:
        raise IndexError(f"variable index {i} outside 1..{p.k}")
    ap = np.moveaxis(p.array(), i - 1, 0)
    aq = np.moveaxis(q.array(), i - 1, 0)
    rp = ap[0] / (ap[0] + ap[1])
    rq = aq[0] / (aq[0] + aq[1])
    return bool(np.all(np.abs(rp - rq) <= tol * np.maximum(rp, rq)))


def scalar_search(kind, k: int, trials: int, seed: int):
    """First keyed table whose ``simpson_scan`` shows a reversal, or None."""
    for trial in range(trials):
        table = random_table(k, np.random.default_rng((seed, trial)))
        if any(report.paradox for report in simpson_scan(table, [kind])):
            return table
    return None


def generator_rescales(rng: np.random.Generator, k: int) -> list:
    """``(variable, suffix, uniform)`` of each rescale, drawn as a battery trial draws them."""
    rescales = []
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(1, k + 1))
        suffix = tuple(int(j) for j in rng.integers(1, 3, size=k - 1))
        rescales.append((i, suffix, rng.uniform(-2.0, 2.0)))
    return rescales


def scalar_battery(kind, k: int, trials: int, seed: int, witness_cap: int = 10):
    """``(failures, witnesses)`` of ``property_battery``, one table at a time."""
    names = ("monotone", "swap_antisymmetry", "conditional_invariance")
    failures = {name: 0 for name in names}
    witnesses = {name: [] for name in names}

    def record(name, payload):
        failures[name] += 1
        if len(witnesses[name]) < witness_cap:
            witnesses[name].append(payload)

    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        table = random_table(k, rng)
        const_value = float(np.exp(rng.uniform(-3.0, 3.0)))
        factor = float(np.exp(rng.uniform(0.1, 1.0)))
        value, scale = evaluate(table, kind), magnitude_scale(table, kind)
        bumped = table.entries.copy()
        bumped[0] *= factor
        if (sign(BinaryTable.constant(k, const_value), kind) != 0
                or not evaluate(BinaryTable(k, bumped), kind) > value):
            record("monotone", {"table": table, "constant": const_value, "factor": factor})
        base_sign = sign(table, kind)
        for i in range(1, k + 1):
            if sign(swap_category(table, i), kind) != -base_sign:
                record("swap_antisymmetry", {"table": table, "variable": i})
                break
        rescaled, ops = table, []
        for i, suffix, uniform in generator_rescales(rng, k):
            c = float(np.exp(uniform))
            rescaled = rescale_conditional_pair(rescaled, i, suffix, c)
            ops.append({"variable": i, "suffix": suffix, "factor": c})
        try:
            after = evaluate(rescaled, kind)
        except EvaluationError:
            after = None
        # equal up to FP noise, or both below the sign floor of the table
        floor = SIGN_TAU * scale
        if after is None or not (
            abs(after - value) <= 1e-9 * max(abs(value), abs(after))
            or (abs(value) <= floor and abs(after) <= floor)
        ):
            record("conditional_invariance", {"table": table, "rescales": ops})
    return failures, witnesses


def scalar_exact_tail(N: int, p: float) -> float:
    """``prob_di_positive_exact`` one term at a time, two ``lgamma`` and one ``exp`` each.

    Walks out from the mode (clamped into the tail x > N/2) in both
    directions and stops each walk at its first term that underflows to 0.0.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n_fact = math.lgamma(N + 1)
    lo = N // 2 + 1
    start = min(max(int((N + 1) * p), lo), N)
    terms = []
    for walk in (range(start, N + 1), range(start - 1, lo - 1, -1)):
        for x in walk:
            term = math.exp(
                log_n_fact
                - math.lgamma(x + 1)
                - math.lgamma(N - x + 1)
                + x * log_p
                + (N - x) * log_q
            )
            if term == 0.0:
                break
            terms.append(term)
    return min(math.fsum(terms), 1.0)
