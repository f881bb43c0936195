"""Core 2^k table type: indexing, parity, slicing, collapsing, marginals.

Conventions used throughout the package:

* A table over k binary variables ``V_1 .. V_k`` has ``2**k`` cells. A cell
  is a tuple ``(j_1, ..., j_k)`` with every ``j_i`` in ``{1, 2}``.
* Entries are stored flat in row-major order with variable 1 most
  significant: ``linear index = sum_i (j_i - 1) * 2**(k - i)``.  This is
  exactly the C-order flattening of an array of shape ``(2,) * k``, so
  ``table.array()[j_1 - 1, ..., j_k - 1]`` is the entry at the cell.
* A cell is *even* when the number of 2's among its indices is even, *odd*
  otherwise; equivalently, even iff the popcount of its linear index is
  even.  Exactly half of the cells of a k >= 1 table are even.
* Variable indices in the public API are 1-based, matching the cell
  notation.
* Entries are strictly positive reals; they need not sum to 1.  Arrays
  with zeros (e.g. sampled counts) are handled by dedicated code paths
  outside this module, never by ``BinaryTable``.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidTableError

Cell = tuple[int, ...]

#: Hard cap on the table dimension; 2**k entries are materialized densely.
MAX_DIM = 20


def validate_cell(cell: Sequence[int], k: int) -> Cell:
    """Check that ``cell`` is a length-k sequence of 1's and 2's; return it as a tuple."""
    t = tuple(int(j) for j in cell)
    if len(t) != k:
        raise InvalidTableError(f"cell {t} has length {len(t)}, expected {k}")
    if any(j not in (1, 2) for j in t):
        raise InvalidTableError(f"cell {t} has components outside {{1, 2}}")
    return t


def cell_to_index(cell: Sequence[int]) -> int:
    """Linear index of a cell (variable 1 most significant)."""
    idx = 0
    for j in cell:
        idx = (idx << 1) | (j - 1)
    return idx


def index_to_cell(index: int, k: int) -> Cell:
    """Inverse of :func:`cell_to_index`."""
    return tuple(((index >> (k - 1 - i)) & 1) + 1 for i in range(k))


def parity(cell: Sequence[int]) -> Literal["even", "odd"]:
    """Parity of a cell: ``"even"`` iff the count of 2's among its indices is even."""
    twos = sum(1 for j in cell if j == 2)
    if any(j not in (1, 2) for j in cell):
        raise InvalidTableError(f"cell {tuple(cell)} has components outside {{1, 2}}")
    return "even" if twos % 2 == 0 else "odd"


@functools.lru_cache(maxsize=256)
def parity_signs(k: int, mask: int | None = None) -> np.ndarray:
    """Read-only vector of +/-1 over linear indices t: ``(-1)^popcount(t & mask)``.

    Without a mask every variable counts, so the vector is +1 on even cells
    and -1 on odd ones (``parity_signs(k) > 0`` marks the even cells).  With
    a mask integer ``m`` only the variables of ``m`` count: row ``m`` of the
    Sylvester-ordered Hadamard matrix, the signs of the mask-m contrast.
    Vectors are memoized per ``(k, mask)`` in a bounded cache and shared
    between callers, hence read-only.
    """
    idx = np.arange(2**k, dtype=np.uint64)
    if mask is not None:
        idx &= np.uint64(mask)
    signs = np.where(np.bitwise_count(idx) % 2 == 0, 1.0, -1.0)
    signs.flags.writeable = False
    return signs


@dataclass(frozen=True, eq=False)
class BinaryTable:
    """Strictly positive entries over the 2^k cells of a k-variable binary table.

    Immutable value type; every operation returns a new table.  ``entries``
    is a read-only float64 array in the row-major order documented in the
    module docstring.
    """

    k: int
    entries: np.ndarray

    def __post_init__(self):
        if not (0 <= self.k <= MAX_DIM):
            raise InvalidTableError(f"dimension k={self.k} outside [0, {MAX_DIM}]")
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.shape != (2**self.k,):
            raise InvalidTableError(
                f"expected {2**self.k} entries for k={self.k}, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidTableError("entries must be finite")
        if not np.all(arr > 0):
            bad = int(np.argmin(arr))
            raise InvalidTableError(
                f"entry {arr[bad]!r} at cell {index_to_cell(bad, self.k)} is not "
                "strictly positive"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_entries(cls, entries: Sequence[float], k: int | None = None) -> "BinaryTable":
        """Build from a flat entry sequence; infer k from the length when omitted."""
        arr = np.asarray(entries, dtype=np.float64).reshape(-1)
        if k is None:
            n = arr.size
            k = max(n - 1, 0).bit_length()
            if 2**k != n:
                raise InvalidTableError(f"entry count {n} is not a power of two")
        return cls(k, arr)

    @classmethod
    def from_array(cls, array) -> "BinaryTable":
        """Build from an array of shape ``(2,) * k``."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.shape != (2,) * arr.ndim:
            raise InvalidTableError(f"expected shape (2,)*k, got {arr.shape}")
        return cls(arr.ndim, arr.reshape(-1))

    @classmethod
    def constant(cls, k: int, value: float) -> "BinaryTable":
        return cls(k, np.full(2**k, float(value)))

    def array(self) -> np.ndarray:
        """Read-only view of shape ``(2,) * k``."""
        return self.entries.reshape((2,) * self.k)

    def __getitem__(self, cell: Sequence[int]) -> float:
        t = validate_cell(cell, self.k)
        return float(self.entries[cell_to_index(t)])

    @property
    def total(self) -> float:
        return float(self.entries.sum())

    def normalized(self) -> "BinaryTable":
        """Same table scaled to sum 1."""
        return BinaryTable(self.k, self.entries / self.entries.sum())

    def allclose(self, other: "BinaryTable", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        return self.k == other.k and bool(
            np.allclose(self.entries, other.entries, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:
        return f"BinaryTable(k={self.k}, entries={self.entries.tolist()})"


def _check_variable(table: BinaryTable, i: int) -> int:
    if not 1 <= i <= table.k:
        raise IndexError(f"variable index {i} outside 1..{table.k}")
    return i


def _check_seed(seed: int) -> None:
    """Reject a seed that cannot key a ``default_rng((seed, index))`` stream."""
    if operator.index(seed) < 0:
        raise InvalidTableError(f"seed must be non-negative, got {seed}")


def swap_category(table: BinaryTable, i: int) -> BinaryTable:
    """Swap the two categories of variable ``V_i`` (an involution).

    The entry at ``(..., j_i, ...)`` of the result equals the input entry at
    ``(..., 3 - j_i, ...)``; even- and odd-parity cells exchange roles.
    """
    _check_variable(table, i)
    arr = np.flip(table.array(), axis=i - 1)
    return BinaryTable(table.k, arr.reshape(-1))


def slice_table(table: BinaryTable, i: int, j: int) -> BinaryTable:
    """The (k-1)-dimensional part of the table where ``V_i = j``.

    Remaining variables keep their original order.
    """
    _check_variable(table, i)
    if j not in (1, 2):
        raise IndexError(f"category {j} outside {{1, 2}}")
    arr = np.take(table.array(), j - 1, axis=i - 1)
    return BinaryTable(table.k - 1, arr.reshape(-1))


def collapse(table: BinaryTable, i: int) -> BinaryTable:
    """Marginalize over ``V_i``: entrywise sum of the two ``V_i`` slices."""
    _check_variable(table, i)
    arr = table.array().sum(axis=i - 1)
    return BinaryTable(table.k - 1, arr.reshape(-1))


def marginal(table: BinaryTable, mask: int) -> BinaryTable:
    """Marginal table over the variables selected by the mask integer ``mask``.

    Bit ``k - i`` of ``mask`` (variable 1 most significant, the layout of
    cell indices) keeps variable ``V_i``; every other variable is collapsed.
    Mask 0 yields the one-cell table holding the grand total.  The result
    does not depend on the collapse order.
    """
    k = table.k
    if not 0 <= mask < 2**k:
        raise InvalidTableError(f"mask {mask!r} outside [0, {2**k}) for k={k}")
    dropped = tuple(axis for axis in range(k) if not mask >> (k - 1 - axis) & 1)
    if not dropped:
        return table
    arr = table.array().sum(axis=dropped)
    return BinaryTable(k - len(dropped), arr.reshape(-1))


def rescale_conditional_pair(
    table: BinaryTable, i: int, suffix: Sequence[int], c: float
) -> BinaryTable:
    """Multiply both ``V_i`` categories at one remaining-variable cell by ``c``.

    ``suffix`` indexes the other k-1 variables in their original order.  The
    conditional distribution of ``V_i`` given all other variables is
    unchanged.
    """
    _check_variable(table, i)
    if not c > 0:
        raise InvalidTableError(f"scale factor must be positive, got {c}")
    sfx = validate_cell(suffix, table.k - 1)
    arr = np.moveaxis(table.array().copy(), i - 1, 0)
    pos = tuple(j - 1 for j in sfx)
    arr[(slice(None),) + pos] *= c
    return BinaryTable(table.k, np.moveaxis(arr, 0, i - 1).reshape(-1))
