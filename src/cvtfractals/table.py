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
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeLimitError, _check_base, _check_int, _int_array
from .output import ascii_rows, write_chunks

MAX_TABLE_EXTENT = 4096
MAX_SPARSE_EXTENT = 1 << 20
MAX_CELLS = 1 << 24
# largest CellSet extent: row * extent + col must fit an int64 key
MAX_KEY_EXTENT = 1 << 31


@dataclass(frozen=True, eq=False)
class CvTable:
    """Dense grid of carry values, computed on construction as one read-only int64
    array for operands below base**digits_k; row index is the augend, column the addend."""

    base: int
    digits_k: int
    values: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", _check_base(self.base))
        object.__setattr__(self, "digits_k", _check_int("digits_k", self.digits_k, 1))
        base, digits_k = self.base, self.digits_k
        _check_extent(base, digits_k, MAX_TABLE_EXTENT, "table")
        carry = _carries(base)
        values = np.zeros((1, 1), dtype=np.int64)
        for level in range(digits_k):
            # with a = a1 * base**level + A,
            # cvt(a, b) = cvt(A, B) + carry[a1, b1] * base**(level + 1),
            # so each add runs along a row of the previous table
            side = values.shape[0] * base
            top = np.multiply(carry, base ** (level + 1), dtype=np.int64)
            values = np.add(values[None, :, None, :], top[:, None, :, None]).reshape(side, side)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def extent(self) -> int:
        return self.base**self.digits_k

    @property
    def max_value(self) -> int:
        """The largest carry value n + ... + n**k: at a = b = n**k - 1 every digit carries."""
        return self.base * (self.extent - 1) // (self.base - 1)


class _Fresh:
    """An array built for one CellSet (its sorted keys, of its key type) or one RasterImage
    (its pixels) and held by nothing else: adopted, not copied."""

    def __init__(self, array: np.ndarray) -> None:  # no dataclass: it costs ~0.8 ms per import
        self.array = array


@dataclass(frozen=True, eq=False, init=False)
class CellSet:
    """Sparse set of (row, col) cells on a base**depth grid.

    A cell enters and is held as its key row * extent + col, so row-major
    order is key order: the constructor takes a 1-D integer array or iterable
    of keys, and `keys` is one read-only, sorted, duplicate-free array of the
    narrowest unsigned type holding extent**2 - 1 up to 32 bits, else int64.
    A set is its keys: divmod(keys, extent) gives back the rows and columns.
    The constructor sorts a copy of its keys; a substituted set adopts _substitute's.
    """

    base: int
    depth: int
    keys: np.ndarray

    def __init__(self, base: int, depth: int, keys) -> None:
        base = _check_base(base)
        depth = _check_int("depth", depth, 0)
        _check_extent(base, depth, MAX_KEY_EXTENT, "grid")
        extent = base**depth
        if not isinstance(keys, _Fresh):
            # no dtype: forcing one here would truncate float keys instead of refusing them;
            # every key is bounded before the copy narrows it, so none wraps
            keys = _int_array("keys", keys if isinstance(keys, np.ndarray) else list(keys), 1,
                              0, extent * extent - 1)
            keys = _Fresh(keys.astype(_key_type(extent)))  # a copy: the caller's stays as it is
        keys = keys.array
        if not (keys[1:] > keys[:-1]).all():  # one pass tells sorted and unique
            keys = _sort_unique(keys)
        keys.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "keys", keys)

    @property
    def extent(self) -> int:
        return self.base**self.depth

    def __len__(self) -> int:
        return self.keys.size


def _check_extent(base: int, depth: int, limit: int, what: str) -> None:
    """Refuse a base**depth grid wider than limit, naming the grid `what`.

    The depth test comes first, so base**depth is never computed for absurd depths.
    """
    if depth >= limit.bit_length() or base**depth > limit:
        raise SizeLimitError(f"{what} extent {base}**{depth} exceeds limit {limit}")


def _key_type(width: int) -> np.dtype:
    """Narrowest type of a key row * width + col: unsigned up to 32 bits, else int64.

    Never uint64, which numpy 1.x promotes with a Python int to float64.
    """
    dtype = np.min_scalar_type(width * width - 1)
    return dtype if dtype.itemsize <= 4 else np.dtype(np.int64)


def _sort_unique(keys: np.ndarray) -> np.ndarray:
    """Sort a fresh integer array in place and drop repeats, without np.unique.

    np.unique is many times slower than a sort plus an adjacent-difference
    mask on large arrays. The sort is stable because numpy's default integer
    sort costs as much on presorted input as on random input, while the stable
    one (timsort above 16 bits) merges the runs it finds: the narrow box keys
    that dimension.box_count builds in blocks arrive as one run per grid row,
    and keys that _substitute sorted come here as one run, and only with repeats.
    """
    keys.sort(kind="stable")
    if keys.size < 2:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys if keep.all() else keys[keep]


def build_table(base: int, digits_k: int) -> CvTable:
    """Populate the full carry-value table for operands below base**digits_k."""
    return CvTable(base, digits_k)


def value_cells(table: CvTable, v: int) -> CellSet:
    """All cells of the table holding carry value v; a row-major flat index is a key."""
    v = _check_int("v", v, 0)
    return CellSet(table.base, table.digits_k, np.flatnonzero(table.values == v))


def _substitute(levels, modulus: int) -> CellSet:
    """Place levels[i], digit-pair keys x * modulus + y, in every cell kept by levels < i.

    Extent and cell count are checked against their limits before any allocation.
    The keys are sorted, in the set's key type, after every level, so CellSet adopts them.
    """
    depth = len(levels)
    _check_extent(modulus, depth, MAX_SPARSE_EXTENT, "pattern")
    count = math.prod(len(level) for level in levels)
    if count > MAX_CELLS:
        raise SizeLimitError(f"pattern of {count} cells exceeds limit {MAX_CELLS}")
    extent = modulus**depth
    keys = np.zeros(1, _key_type(extent))
    for i, level in enumerate(levels):
        # one Horner step, x * extent + y, in place: level is x * modulus + y
        level = level.astype(keys.dtype, copy=False)
        pairs = level // modulus
        pairs *= extent - modulus
        pairs += level
        # the sorted keys give one sorted run per digit pair, and a sorted level one per
        # key: laid out with the fewer runs, the stable sort merges them
        if not i:  # the first level's offsets are the keys themselves: no level-size sum
            keys = pairs
        elif pairs.size < keys.size:
            keys = (pairs[:, None] + keys * modulus).ravel()
        else:
            keys = (keys[:, None] * modulus + pairs).ravel()
        keys.sort(kind="stable")
    return CellSet(modulus, depth, _Fresh(keys))


def _carries(base: int) -> np.ndarray:
    """carries[x, y]: whether digits x and y carry out of their position, x + y >= base."""
    digit = np.arange(base)
    return digit[:, None] >= base - digit


def _carry_triangle(base: int, carry: int) -> np.ndarray:
    """Sorted digit-pair keys x * base + y carrying 0 (x + y < base) or 1 (x + y >= base).

    Row x keeps y < base - x, or y >= base - x, so a key is its index in the triangle plus
    its row's first key less that key's index: in _key_type(base), with no base**2 mask
    or int64 index. A triangle above MAX_CELLS is refused unbuilt: any pattern using it
    is larger.
    """
    if (size := (base - carry) * (base - carry + 1) // 2) > MAX_CELLS:
        raise SizeLimitError(f"pattern of at least {size} cells exceeds limit {MAX_CELLS}")
    rows = np.arange(carry, base)
    lengths = rows if carry else base - rows
    offsets = rows * base + (base - rows) * carry - (np.cumsum(lengths) - lengths)
    keys = np.repeat(offsets.astype(_key_type(base)), lengths)
    keys += np.arange(size, dtype=keys.dtype)
    return keys


def carry_value_set(base: int, depth: int, value: int = 0) -> CellSet:
    """Cells of [0, base**depth)^2 with carry value `value`, built by substitution.

    Digit j of value // base is the carry out of digit position j, and no carry
    propagates, so each level takes the triangle x + y < base for a 0 digit and
    x + y >= base for a 1 digit. The pattern is empty unless base divides value
    and value // base has at most depth digits, all 0 or 1; with p of them 1 it
    has (base*(base+1)/2)**(depth-p) * (base*(base-1)/2)**p cells.
    """
    base = _check_base(base)
    depth = _check_int("depth", depth, 0)
    value = _check_int("value", value, 0)
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
    index, values = np.arange(table.extent), table.values
    header = ascii_rows(1, table.extent, table.extent - 1, lambda rows: index, ",")
    # the maximum carry value is at least extent - 1, the largest index
    body = ascii_rows(table.extent, table.extent + 1, table.max_value,
                      lambda rows: np.column_stack((index[rows], values[rows])), ",")
    write_chunks(path, itertools.chain([b","], header, body))


def write_cells_csv(cells: CellSet, path) -> None:
    """One "row,col" line per cell, in the set's sorted order."""
    keys, extent = cells.keys, cells.extent
    write_chunks(path, ascii_rows(keys.size, 2, extent - 1,
                                  lambda rows: np.column_stack(np.divmod(keys[rows], extent)), ","))
