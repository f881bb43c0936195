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

The module also holds the shared checks of every argument.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import EvaluationError, InvalidTableError

Cell = tuple[int, ...]

#: Hard cap on the table dimension; 2**k entries are materialized densely.
MAX_DIM = 20


def _components(cell: Sequence[int]) -> Cell:
    """The components of ``cell`` as a tuple, each checked to be 1 or 2."""
    try:
        items = tuple(cell)
    except TypeError:
        raise InvalidTableError(f"cell must be a sequence of 1's and 2's, got {cell!r}") from None
    return tuple(_check_count("cell component", j, 1, 2) for j in items)


def validate_cell(cell: Sequence[int], k: int) -> Cell:
    """Check that ``cell`` is a length-k sequence of 1's and 2's; return it as a tuple."""
    t = _components(cell)
    if len(t) != k:
        raise InvalidTableError(f"cell {t} has length {len(t)}, expected {k}")
    return t


def cell_to_index(cell: Sequence[int]) -> int:
    """Linear index of a cell (variable 1 most significant)."""
    idx = 0
    for j in _components(cell):
        idx = (idx << 1) | (j - 1)
    return idx


def index_to_cell(index: int, k: int) -> Cell:
    """Inverse of :func:`cell_to_index`."""
    k = _check_count("k", k, 0, MAX_DIM)
    index = _check_count("index", index, 0, 2**k - 1)
    return tuple(((index >> (k - 1 - i)) & 1) + 1 for i in range(k))


def parity(cell: Sequence[int]) -> Literal["even", "odd"]:
    """Parity of a cell: ``"even"`` iff the count of 2's among its indices is even."""
    return "even" if cell_to_index(cell).bit_count() % 2 == 0 else "odd"


@functools.lru_cache(maxsize=MAX_DIM + 1)
def parity_signs(k: int) -> np.ndarray:
    """Read-only vector of +/-1 over linear indices: +1 on even cells, -1 on odd ones.

    ``parity_signs(k) > 0`` marks the even cells.  Vectors are memoized per
    k and shared between callers, hence read-only.
    """
    signs = np.where(np.bitwise_count(np.arange(2**k)) % 2 == 0, 1.0, -1.0)
    signs.flags.writeable = False
    return signs


def _float_range_shift(largest, n: int):
    """The ``s`` at which ``n`` magnitudes up to ``largest`` sum below 2^1022 when scaled by 2^-s.

    ``largest`` is a float or an array of them; ``s <= 0`` needs no scaling.
    """
    return np.frexp(largest)[1] + (n - 1).bit_length() - 1022


def _finite_totals(entries: np.ndarray) -> np.ndarray:
    """``entries`` scaled by ``2^-s`` along the last axis so that each row's total is finite.

    ``s`` is the least shift, per row, that keeps the total below 2^1022
    (:func:`_float_range_shift`), so rows that cannot overflow come back as
    they are, bit for bit.  A scaled row keeps every ratio of its entries
    unless an entry turns subnormal.
    """
    largest = entries.max(axis=-1, keepdims=True)
    shift = np.maximum(_float_range_shift(largest, entries.shape[-1]), 0)
    return np.ldexp(entries, -shift) if shift.any() else entries


def _check_count(name: str, value: int, low: int = 0, high: int | None = None) -> int:
    """The one integer check: return ``value`` as an int or raise InvalidTableError.

    A bool, anything ``operator.index`` refuses (a float, a str) and any
    integer outside ``[low, high]`` fail with one message; numpy integers
    pass.  Callers: every k, seed, trial budget, ``witness_cap``, N,
    ``replications`` and ``max_iter``, and every position: a variable in
    ``[1, k]``, a category or cell component in ``[1, 2]``, a mask in
    ``[0, 2^k - 1]`` and the index of :func:`index_to_cell`.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < low or (high is not None and n > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidTableError(f"{name} must be an integer {bound}, got {value!r}")
    return n


def _check_real(name: str, value: float, low: float, high: float = math.inf) -> float:
    """The one real-number check: return ``value`` as a float strictly inside ``(low, high)``.

    A bool, a non-``numbers.Real`` (a str), NaN and an int beyond the float range
    fail with one message.  Callers: ``p``, ``p_even``, the rescale factor ``c``, ``tol``.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and low < value < high:
        with contextlib.suppress(OverflowError):
            return float(value)
    raise InvalidTableError(f"{name} must be a number in ({low}, {high}), got {value!r}")


def _numbers(values, noun: str) -> np.ndarray:
    """``values`` as a numpy array of any shape, or InvalidTableError when numpy refuses them."""
    try:
        return np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidTableError(f"{noun} must be numbers: {exc}") from None


def _frozen_vector(k: int, values, noun: str) -> tuple[int, np.ndarray]:
    """Check k and ``2**k`` finite float64 ``values``; return k and a read-only copy."""
    k = _check_count("k", k, 0, MAX_DIM)
    arr = _numbers(values, noun)
    if arr.shape != (2**k,):
        raise InvalidTableError(f"expected {2**k} {noun} for k={k}, got shape {arr.shape}")
    return k, _frozen(arr, noun)


def _frozen(arr: np.ndarray, noun: str) -> np.ndarray:
    """``arr`` itself, made read-only once every value is found finite."""
    # min and max need no mask the size of a block of rows, and a NaN reaches both
    if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise InvalidTableError(f"{noun} must be finite")
    arr.flags.writeable = False
    return arr


def _positive(k: int, arr: np.ndarray) -> None:
    """InvalidTableError naming the least entry of rows of ``2**k`` unless all are positive."""
    if not arr.min() > 0:
        bad = int(np.argmin(arr))
        raise InvalidTableError(f"entry {float(arr.flat[bad])!r} at cell "
                                f"{index_to_cell(bad % 2**k, k)} is not strictly positive")


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
        k, arr = _frozen_vector(self.k, self.entries, "entries")
        _positive(k, arr)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_entries(cls, entries: Sequence[float], k: int | None = None) -> "BinaryTable":
        """Build from a flat entry sequence; infer k from the length when omitted."""
        arr = _numbers(entries, "entries").reshape(-1)
        if k is None:
            n = arr.size
            k = max(n - 1, 0).bit_length()
            if 2**k != n:
                raise InvalidTableError(f"entry count {n} is not a power of two")
        return cls(k, arr)

    @classmethod
    def from_array(cls, array) -> "BinaryTable":
        """Build from an array of shape ``(2,) * k``."""
        arr = _numbers(array, "entries")
        if arr.shape != (2,) * arr.ndim:
            raise InvalidTableError(f"expected shape (2,)*k, got {arr.shape}")
        return cls(arr.ndim, arr.reshape(-1))

    @classmethod
    def constant(cls, k: int, value: float) -> "BinaryTable":
        """The table with every one of its ``2**k`` entries equal to ``value`` > 0."""
        k = _check_count("k", k, 0, MAX_DIM)  # before 2^k entries are allocated
        return cls(k, np.full(2**k, _check_real("value", value, 0)))

    def array(self) -> np.ndarray:
        """Read-only view of shape ``(2,) * k``."""
        return self.entries.reshape((2,) * self.k)

    def __getitem__(self, cell: Sequence[int]) -> float:
        t = validate_cell(cell, self.k)
        return float(self.entries[cell_to_index(t)])

    @property
    def total(self) -> float:
        """Sum of the entries; EvaluationError when it passes the float range."""
        total = _derived_table(0, "the total", lambda: self.entries.sum(keepdims=True))
        return float(total.entries[0])

    def normalized(self) -> "BinaryTable":
        """Same table scaled to sum 1, by way of :func:`_finite_totals` when the total overflows."""
        entries = _finite_totals(self.entries)
        return BinaryTable(self.k, entries / entries.sum())

    def allclose(self, other: "BinaryTable", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        return self.k == other.k and bool(
            np.allclose(self.entries, other.entries, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:
        return f"BinaryTable(k={self.k}, entries={self.entries.tolist()})"


def _table_rows(k: int, block: np.ndarray) -> list[BinaryTable]:
    """One table per row of the ``(C, 2**k)`` float64 ``block``, checked once by the rules
    of :class:`BinaryTable` and frozen in place: the tables' entries are views of its rows."""
    _positive(k, _frozen(block, "entries"))
    tables = [object.__new__(BinaryTable) for _ in range(len(block))]
    for table, row in zip(tables, block):
        object.__setattr__(table, "k", k)
        object.__setattr__(table, "entries", row)
    return tables


def swap_category(table: BinaryTable, i: int) -> BinaryTable:
    """Swap the two categories of variable ``V_i`` (an involution).

    The entry at ``(..., j_i, ...)`` of the result equals the input entry at
    ``(..., 3 - j_i, ...)``; even- and odd-parity cells exchange roles.
    """
    i = _check_count("variable", i, 1, table.k)
    arr = np.flip(table.array(), axis=i - 1)
    return BinaryTable(table.k, arr.reshape(-1))


def slice_table(table: BinaryTable, i: int, j: int) -> BinaryTable:
    """The (k-1)-dimensional part of the table where ``V_i = j``.

    Remaining variables keep their original order.
    """
    i = _check_count("variable", i, 1, table.k)
    j = _check_count("category", j, 1, 2)
    arr = np.take(table.array(), j - 1, axis=i - 1)
    return BinaryTable(table.k - 1, arr.reshape(-1))


def collapse(table: BinaryTable, i: int) -> BinaryTable:
    """Marginalize over ``V_i``: the marginal of the other k-1 variables."""
    i = _check_count("variable", i, 1, table.k)
    return marginal(table, (2**table.k - 1) ^ (1 << (table.k - i)))


def marginal(table: BinaryTable, mask: int) -> BinaryTable:
    """Marginal table over the variables selected by the mask integer ``mask``.

    Bit ``k - i`` of ``mask`` (variable 1 most significant, the layout of
    cell indices) keeps variable ``V_i``; every other variable is collapsed.
    Mask 0 yields the one-cell table holding the grand total.  The result
    does not depend on the collapse order.
    """
    k = table.k
    mask = _check_count("mask", mask, 0, 2**k - 1)
    dropped = tuple(axis for axis in range(k) if not mask >> (k - 1 - axis) & 1)
    if not dropped:
        return table
    return _derived_table(k - len(dropped), f"the marginal over mask {mask}",
                          lambda: table.array().sum(axis=dropped).reshape(-1))


def rescale_conditional_pair(
    table: BinaryTable, i: int, suffix: Sequence[int], c: float
) -> BinaryTable:
    """Multiply both ``V_i`` categories at one remaining-variable cell by ``c``.

    ``suffix`` indexes the other k-1 variables in their original order.  The
    conditional distribution of ``V_i`` given all other variables is
    unchanged.
    """
    i = _check_count("variable", i, 1, table.k)
    c = _check_real("c", c, 0)
    sfx = validate_cell(suffix, table.k - 1)
    first = cell_to_index(sfx[: i - 1] + (1,) + sfx[i - 1 :])
    factors = np.ones(2**table.k)
    factors[[first, first | 1 << (table.k - i)]] = c
    return _derived_table(table.k, f"the rescale by {c!r}", lambda: table.entries * factors)


def _derived_table(k: int, what: str, entries) -> BinaryTable:
    """The table of ``entries()``, computed from a valid table with overflow and underflow
    silenced: the one float-range rule for derived tables.  An entry out of range (inf,
    or 0.0 from positive inputs) raises EvaluationError naming ``what`` and the entry."""
    with np.errstate(over="ignore", under="ignore"):
        values = entries()
    try:
        return BinaryTable(k, values)
    except InvalidTableError as exc:  # the input was valid: inf or 0 from the arithmetic
        raise EvaluationError(f"{what} leaves the float range: {exc}") from exc
