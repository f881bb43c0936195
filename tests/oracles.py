"""Reference implementations the fast parameter transforms are checked against.

Each one evaluates a defining formula directly and shares no code path with
the library's butterfly or marginal-lattice kernels.
"""

import math

import numpy as np

from bintab import BinaryTable, di, lor, marginal


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
