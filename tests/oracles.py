"""Independent reference implementations and checks the library is tested against.

``sign_matrix``, ``naive_full_params`` and ``recursive_contrast`` evaluate
defining formulas directly and share no code path with the library's
butterfly, marginal-lattice or one-pass contrast kernels.
``additivity_sign_check`` and ``conditional_equal`` state the DI additivity
and conditional-invariance properties the tests assert.  All of them call
public library names only.
"""

import math

import numpy as np

from bintab import BinaryTable, InvalidTableError, di, lor, marginal, sign, slice_table


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
