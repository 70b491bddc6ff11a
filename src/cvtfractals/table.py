"""Carry-value tables over [0, n^k)^2 and sparse carry-value patterns.

A CvTable holds cvt(a, b, base) for every pair below n^k; a CellSet is the
sparse set of grid cells sharing one carry value. Every such pattern is a
substitution fractal: each digit level substitutes the triangle x + y < n or
x + y >= n into every retained cell. The zero-carry set, the canonical
fractal, uses x + y < n at every level. The dense table is kept for the
`table` subcommand and as the reference the patterns are tested against.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .output import ascii_rows, write_chunks
from .radix import _check_base

MAX_TABLE_EXTENT = 4096
MAX_SPARSE_EXTENT = 1 << 20
MAX_CELLS = 1 << 24
# largest CellSet extent: row * extent + col must fit an int64 key
MAX_KEY_EXTENT = 1 << 31


@dataclass(frozen=True, eq=False)
class CvTable:
    """Dense grid of carry values; row index is the augend, column the addend."""

    base: int
    digits_k: int
    values: np.ndarray

    def __post_init__(self) -> None:
        extent = self.extent
        if self.values.shape != (extent, extent):
            raise ValueError(f"values must be {extent}x{extent}, got {self.values.shape}")
        self.values.setflags(write=False)

    @property
    def extent(self) -> int:
        return self.base**self.digits_k


@dataclass(frozen=True, eq=False, init=False)
class CellSet:
    """Sparse set of (row, col) cells on a base**depth grid.

    A cell enters and is held as its key row * extent + col, so row-major
    order is key order: the constructor takes a 1-D integer array or iterable
    of keys, and `keys` is one read-only, sorted, duplicate-free int64 array.
    Iteration builds sorted (row, col) tuples on demand. The private `_boxes`,
    outside the fields, holds (box size, sorted box keys) of the last box count.
    """

    base: int
    depth: int
    keys: np.ndarray

    def __init__(self, base: int, depth: int, keys) -> None:
        base = _check_base(base)
        depth = operator.index(depth)
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        _check_extent(base, depth, MAX_KEY_EXTENT, "grid")
        extent = base**depth
        # no dtype: forcing int64 here would truncate float keys instead of refusing them
        keys = keys if isinstance(keys, np.ndarray) else np.array(list(keys))
        if keys.ndim != 1 or keys.size and not np.issubdtype(keys.dtype, np.integer):
            raise ValueError(f"cell keys must be 1-D integers, got {keys.dtype} {keys.shape}")
        # a copy, so the caller's array is never sorted; unsigned keys past int64 turn negative
        keys = _sort_unique(keys.astype(np.int64))
        if keys.size and (keys[0] < 0 or keys[-1] >= extent * extent):
            raise ValueError(f"cell keys out of range for extent {extent}")
        keys.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "_boxes", (1, keys))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.depth) == (other.base, other.depth) and np.array_equal(
            self.keys, other.keys
        )

    def __hash__(self) -> int:
        return hash((self.base, self.depth, self.keys.tobytes()))

    @property
    def extent(self) -> int:
        return self.base**self.depth

    def __len__(self) -> int:
        return self.keys.size

    def __iter__(self):
        rows, cols = np.divmod(self.keys, self.extent)
        return zip(rows.tolist(), cols.tolist())

    def to_array(self) -> np.ndarray:
        """Cells as an (n, 2) int64 array in sorted order (shape (0, 2) when empty)."""
        return np.stack(np.divmod(self.keys, self.extent), axis=1)


def _check_extent(base: int, depth: int, limit: int, what: str) -> None:
    """Refuse a base**depth grid wider than limit, naming the grid `what`.

    The depth test comes first, so base**depth is never computed for absurd depths.
    """
    if depth >= limit.bit_length() or base**depth > limit:
        raise SizeLimitError(f"{what} extent {base}**{depth} exceeds limit {limit}")


def _sort_unique(keys: np.ndarray) -> np.ndarray:
    """Sort a fresh int64 array in place and drop repeats, without np.unique.

    np.unique is many times slower than a sort plus an adjacent-difference
    mask on large int64 arrays.
    """
    keys.sort()
    if keys.size < 2:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys if keep.all() else keys[keep]


def build_table(base: int, digits_k: int) -> CvTable:
    """Populate the full carry-value table for operands below base**digits_k."""
    base = _check_base(base)
    digits_k = operator.index(digits_k)
    if digits_k < 1:
        raise ValueError(f"digits_k must be >= 1, got {digits_k}")
    _check_extent(base, digits_k, MAX_TABLE_EXTENT, "table")
    extent = base**digits_k
    values = np.zeros((extent, extent), dtype=np.int64)
    quotients = np.arange(extent, dtype=np.int64)
    place = base
    for _ in range(digits_k):
        digit = quotients % base
        # carry digit at this position is 1 exactly when the digit sum reaches base
        values += ((digit[:, None] + digit[None, :]) >= base) * place
        quotients //= base
        place *= base
    return CvTable(base, digits_k, values)


def value_cells(table: CvTable, v: int) -> CellSet:
    """All cells of the table holding carry value v; a row-major flat index is a key."""
    v = operator.index(v)
    return CellSet(table.base, table.digits_k, np.flatnonzero(table.values == v))


def _substitute(levels, modulus: int) -> CellSet:
    """Place levels[i], digit-pair keys x * modulus + y, in every cell kept by levels < i.

    Extent and cell count are checked against their limits before any allocation.
    """
    depth = len(levels)
    _check_extent(modulus, depth, MAX_SPARSE_EXTENT, "pattern")
    count = math.prod(len(level) for level in levels)
    if count > MAX_CELLS:
        raise SizeLimitError(f"pattern of {count} cells exceeds limit {MAX_CELLS}")
    extent = modulus**depth
    keys = np.zeros(1, dtype=np.int64)
    for level in levels:
        # one Horner step: a key is linear in the digit pairs of every level
        x, y = np.divmod(level, modulus)
        keys = (keys[:, None] * modulus + (x * extent + y)).ravel()
    return CellSet(modulus, depth, keys)


def _carry_triangle(base: int, carry: int) -> np.ndarray:
    """Sorted digit-pair keys x * base + y carrying 0 (x + y < base) or 1 (its mirror).

    A triangle above MAX_CELLS is refused unbuilt: any pattern using it is larger.
    """
    if (size := (base - carry) * (base - carry + 1) // 2) > MAX_CELLS:
        raise SizeLimitError(f"pattern of at least {size} cells exceeds limit {MAX_CELLS}")
    # x + y < base - carry is the pair (i, j - i) for i <= j < base - carry
    rows, cols = np.triu_indices(base - carry)
    keys = rows * base + cols - rows
    return base * base - 1 - keys[::-1] if carry else keys


def carry_value_set(base: int, depth: int, value: int = 0) -> CellSet:
    """Cells of [0, base**depth)^2 with carry value `value`, built by substitution.

    Digit j of value // base is the carry out of digit position j, and no carry
    propagates, so each level takes the triangle x + y < base for a 0 digit and
    x + y >= base for a 1 digit. The pattern is empty unless base divides value
    and value // base has at most depth digits, all 0 or 1; with p of them 1 it
    has (base*(base+1)/2)**(depth-p) * (base*(base-1)/2)**p cells.
    """
    base = _check_base(base)
    depth = operator.index(depth)
    value = operator.index(value)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if value and not depth:
        raise ValueError(f"carry value {value} needs depth >= 1")
    _check_extent(base, depth, MAX_SPARSE_EXTENT, "pattern")
    carries, rest = divmod(value, base)
    digits = []
    for _ in range(depth):
        carries, digit = divmod(carries, base)
        digits.append(digit)
    if rest or carries or max(digits, default=0) > 1:
        return CellSet(base, depth, ())
    triangles = {d: _carry_triangle(base, d) for d in set(digits)}
    return _substitute([triangles[d] for d in reversed(digits)], base)


def zero_carry_set(base: int, depth: int) -> CellSet:
    """Cells with carry value 0 over [0, base**depth)^2: (base*(base+1)/2)**depth cells."""
    return carry_value_set(base, depth)


def write_table_csv(table: CvTable, path) -> None:
    """CSV dump with a header row and column of the integers 0..extent-1.

    The top-left corner cell is left empty; body cells are decimal carry values.
    """
    index = np.arange(table.extent)
    header = ascii_rows(index[None, :], ",")
    body = ascii_rows(np.column_stack((index, table.values)), ",")
    write_chunks(path, itertools.chain([b","], header, body))


def write_cells_csv(cells: CellSet, path) -> None:
    """One "row,col" line per cell, in the set's sorted order."""
    write_chunks(path, ascii_rows(cells.to_array(), ","))
