import hashlib
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvtfractals import (
    MAX_TABLE_EXTENT,
    CellSet,
    CvTable,
    SizeLimitError,
    build_table,
    cvt,
    value_cells,
    write_cells_csv,
    write_table_csv,
    zero_carry_set,
)
from cvtfractals.table import _sort_unique
from helpers import cell_keys, digits

INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


@st.composite
def grids_and_pairs(draw, max_cells=40):
    """(base, depth, pairs) with pairs anywhere on the base**depth grid, repeats allowed."""
    base = draw(st.integers(min_value=2, max_value=4))
    depth = draw(st.integers(min_value=0, max_value=3))
    coord = st.integers(min_value=0, max_value=base**depth - 1)
    pairs = draw(st.lists(st.tuples(coord, coord), max_size=max_cells))
    return base, depth, pairs


class TestBuildTable:
    def test_matches_direct_cvt_calls(self):
        table = build_table(2, 2)
        assert table.extent == 4
        assert table.values[1, 1] == cvt(1, 1, 2) == 2
        assert table.values[3, 3] == cvt(3, 3, 2) == 6

    def test_zero_row_and_column(self):
        table = build_table(2, 2)
        assert not table.values[0].any()
        assert not table.values[:, 0].any()

    def test_ternary_single_digit(self):
        table = build_table(3, 1)
        nonzero = {tuple(rc) for rc in np.argwhere(table.values != 0).tolist()}
        assert nonzero == {(1, 2), (2, 1), (2, 2)}

    @pytest.mark.parametrize("base,k", [(2, 5), (3, 3), (7, 2), (10, 1)])
    def test_sampled_cells_equal_scalar_cvt(self, base, k):
        table = build_table(base, k)
        rng = random.Random(base * 100 + k)
        for _ in range(200):
            a = rng.randrange(table.extent)
            b = rng.randrange(table.extent)
            assert table.values[a, b] == cvt(a, b, base)

    @pytest.mark.parametrize(
        "base,k", [(b, k) for b in range(2, 82) for k in range(1, 7) if b**k <= 81]
    )
    def test_equals_digit_oracle(self, base, k):
        # the carry out of digit position j is worth base**(j + 1)
        def oracle(a, b):
            da, db = digits(a, base) + [0] * k, digits(b, base) + [0] * k
            return sum(base ** (j + 1) for j in range(k) if da[j] + db[j] >= base)

        extent = base**k
        expected = [[oracle(a, b) for b in range(extent)] for a in range(extent)]
        assert build_table(base, k).values.tolist() == expected

    @pytest.mark.parametrize("base,k,digest", [
        (2, 12, "a002394aaba0a184531a1369c808530170b895207b9280d0282591427531b096"),
        (64, 2, "f119f29a17a88066eb94401a578bfb3946ebb6a270eb08337e0753a3ff74c253"),
        (4096, 1, "239fc712f3903d2071b06f777c3842ee028d6e70bcb368a7916d41af950ad8fd"),
    ])
    def test_tables_at_the_extent_limit_are_pinned(self, base, k, digest):
        values = build_table(base, k).values
        assert values.dtype == np.int64
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_symmetric(self):
        table = build_table(4, 2)
        assert np.array_equal(table.values, table.values.T)

    def test_extent_limit(self):
        with pytest.raises(SizeLimitError):
            build_table(2, 13)  # 8192 > 4096
        # one digit of base MAX_TABLE_EXTENT is the cheapest table at the limit
        assert build_table(MAX_TABLE_EXTENT, 1).extent == MAX_TABLE_EXTENT

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            build_table(2, 0)

    def test_values_immutable(self):
        table = build_table(2, 2)
        with pytest.raises(ValueError):
            table.values[0, 0] = 5

    def test_table_computes_its_own_values(self):
        table = CvTable(3, 2)
        assert np.array_equal(table.values, build_table(3, 2).values)
        assert table.values.dtype == np.int64
        assert not table.values.flags.writeable

    def test_table_takes_no_values(self):
        with pytest.raises(TypeError):
            CvTable(2, 1, np.zeros((2, 2), dtype=np.int64))

    def test_table_checks_its_extent(self):
        with pytest.raises(SizeLimitError):
            CvTable(2, 13)


class TestValueCells:
    def test_zero_pattern_count(self):
        # pairs below 4 with no shared binary digit carry: 3 * 3 of them
        cells = value_cells(build_table(2, 2), 0)
        assert len(cells) == 9

    @pytest.mark.parametrize("base", [2, 3, 5])
    def test_value_one_is_unreachable(self, base):
        assert len(value_cells(build_table(base, 2), 1)) == 0

    def test_value_two_in_binary(self):
        cells = value_cells(build_table(2, 2), 2)
        assert tuple(cells) == ((1, 1), (1, 3), (3, 1))

    @pytest.mark.parametrize("v", [0, 2, 4, 6])
    def test_patterns_symmetric_about_diagonal(self, v):
        cells = value_cells(build_table(2, 3), v)
        mirrored = {(c, r) for r, c in cells}
        assert mirrored == set(cells)


class TestZeroCarrySet:
    def test_depth_one_binary(self):
        cells = zero_carry_set(2, 1)
        assert tuple(cells) == ((0, 0), (0, 1), (1, 0))

    @pytest.mark.parametrize("base", range(2, 10))
    def test_generator_count(self, base):
        assert len(zero_carry_set(base, 1)) == base * (base + 1) // 2

    def test_depth_zero(self):
        cells = zero_carry_set(2, 0)
        assert tuple(cells) == ((0, 0),)
        assert cells.extent == 1

    def test_three_squared(self):
        cells = zero_carry_set(3, 2)
        assert len(cells) == 36
        assert tuple(cells) == tuple(value_cells(build_table(3, 2), 0))

    @pytest.mark.parametrize("base", range(2, 7))
    @pytest.mark.parametrize("depth", range(1, 5))
    def test_equals_table_oracle(self, base, depth):
        recursive = zero_carry_set(base, depth)
        direct = value_cells(build_table(base, depth), 0)
        assert tuple(recursive) == tuple(direct)

    @pytest.mark.parametrize("base,depth", [(2, 10), (3, 6), (5, 4), (6, 4)])
    def test_count_law(self, base, depth):
        assert len(zero_carry_set(base, depth)) == (base * (base + 1) // 2) ** depth

    @pytest.mark.parametrize("base,depth", [(2, 6), (3, 4), (5, 3)])
    def test_digit_criterion(self, base, depth):
        cells = zero_carry_set(base, depth)
        members = set(cells)
        rng = random.Random(base * 10 + depth)
        extent = cells.extent
        for _ in range(300):
            a = rng.randrange(extent)
            b = rng.randrange(extent)
            # a digit facing the shorter operand's implicit 0 never carries,
            # so pairing stops at the shorter digit vector
            expect = all(x + y < base for x, y in zip(digits(a, base), digits(b, base)))
            assert ((a, b) in members) == expect

    def test_extent_limit(self):
        with pytest.raises(SizeLimitError):
            zero_carry_set(2, 21)

    def test_cell_count_limit(self):
        # extent 2**19 is allowed but 3**19 cells are not
        with pytest.raises(SizeLimitError):
            zero_carry_set(2, 19)


class TestSortUnique:
    @given(st.lists(st.one_of(INT64, st.integers(-3, 3))))
    def test_equals_the_sorted_set(self, values):
        assert _sort_unique(np.array(values, dtype=np.int64)).tolist() == sorted(set(values))

    @given(st.lists(st.lists(st.one_of(INT64, st.integers(-3, 3))).map(sorted), max_size=8))
    def test_equals_the_sorted_set_on_sorted_runs(self, runs):
        # the input shapes substitution and box counting give it: runs already in order
        values = [v for run in runs for v in run]
        assert _sort_unique(np.array(values, dtype=np.int64)).tolist() == sorted(set(values))


class TestCellSet:
    def test_normalizes_order_and_duplicates(self):
        cells = CellSet(2, 1, cell_keys([(1, 0), (0, 1), (0, 0), (0, 1)], 2))
        assert tuple(cells) == ((0, 0), (0, 1), (1, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CellSet(2, 1, [4])  # extent**2
        with pytest.raises(ValueError):
            CellSet(2, 1, [-1, 0])
        with pytest.raises(ValueError):
            CellSet(2, 1, [0, 2**70])  # beyond int64: an object array
        assert tuple(CellSet(2, 1, [3])) == ((1, 1),)

    def test_accepts_numpy_array(self):
        arr = np.array([2, 0])
        assert tuple(CellSet(2, 1, arr)) == ((0, 0), (1, 0))
        assert arr.tolist() == [2, 0]  # the caller's array is not sorted in place
        assert tuple(CellSet(2, 1, np.array([3, 1], dtype=np.uint8))) == ((0, 1), (1, 1))

    @given(grids_and_pairs())
    def test_normalization_matches_sorted_set(self, grid):
        base, depth, pairs = grid
        expected = tuple(sorted(set(pairs)))
        keys = cell_keys(pairs, base**depth)
        cells = CellSet(base, depth, keys)
        assert tuple(cells) == expected
        from_array = CellSet(base, depth, np.array(keys, dtype=np.int64))
        assert tuple(from_array) == expected
        assert from_array.to_array().tolist() == [list(rc) for rc in expected]
        assert CellSet(base, depth, cells.keys) == cells

    def test_keys_are_sorted_row_major_and_read_only(self):
        cells = CellSet(3, 1, cell_keys([(2, 0), (0, 1), (2, 0)], 3))
        assert cells.keys.dtype == np.int64
        assert cells.keys.tolist() == [1, 6]
        with pytest.raises(ValueError):
            cells.keys[0] = 0

    def test_equality_compares_base_depth_and_cells(self):
        cells = CellSet(2, 2, cell_keys([(0, 1), (3, 3)], 4))
        assert cells == CellSet(2, 2, np.array(cell_keys([(3, 3), (0, 1), (0, 1)], 4)))
        assert hash(cells) == hash(CellSet(2, 2, cell_keys([(3, 3), (0, 1)], 4)))
        assert cells != CellSet(4, 1, cell_keys([(0, 1), (3, 3)], 4))  # same extent, other base
        assert cells != CellSet(2, 3, cell_keys([(0, 1), (3, 3)], 8))
        assert cells != CellSet(2, 2, cell_keys([(0, 1)], 4))
        assert cells != ((0, 1), (3, 3))

    def test_immutable(self):
        cells = CellSet(2, 1, [0])
        with pytest.raises(AttributeError):
            cells.depth = 2

    def test_rejects_extent_whose_keys_overflow_int64(self):
        # keys row * extent + col must fit an int64, so the extent stops at 2**31
        with pytest.raises(SizeLimitError):
            CellSet(2, 32, [0])
        with pytest.raises(SizeLimitError):
            CellSet(2, 10**9, [])
        corner = 2**31 - 1
        widest = CellSet(2, 31, cell_keys([(corner, corner), (0, 0)], 2**31))
        assert tuple(widest) == ((0, 0), (corner, corner))

    def test_rejects_malformed_arrays(self):
        # cells enter only as keys: pairs are refused, never read as keys
        with pytest.raises(ValueError):
            CellSet(2, 1, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            CellSet(2, 1, np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            CellSet(2, 1, np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            CellSet(2, 1, np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            CellSet(2, 1, [1.0])
        with pytest.raises(ValueError):
            CellSet(2, 1, np.array([True, False]))

    def test_to_array_empty(self):
        # an empty list is accepted
        cells = CellSet(2, 1, [])
        assert len(cells) == 0
        assert cells.to_array().shape == (0, 2)

    def test_len_and_iter(self):
        cells = zero_carry_set(2, 2)
        assert len(cells) == 9
        assert list(cells)[0] == (0, 0)


class TestCsvExports:
    def test_table_csv_golden(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table_csv(build_table(3, 1), path)
        assert path.read_bytes() == b",0,1,2\n0,0,0,0\n1,0,0,3\n2,0,3,3\n"

    def test_cells_csv_golden(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_cells_csv(zero_carry_set(2, 1), path)
        assert path.read_bytes() == b"0,0\n0,1\n1,0\n"

    @given(grids_and_pairs())
    def test_cells_csv_matches_sorted_pairs(self, tmp_path_factory, grid):
        base, depth, pairs = grid
        path = tmp_path_factory.mktemp("cells") / "cells.csv"
        write_cells_csv(CellSet(base, depth, cell_keys(pairs, base**depth)), path)
        expected = "".join(f"{r},{c}\n" for r, c in sorted(set(pairs)))
        assert path.read_bytes() == expected.encode("ascii")

    def test_cells_csv_spans_several_blocks(self, tmp_path):
        pairs = np.random.default_rng(0).integers(0, 1024, size=(150_000, 2))
        path = tmp_path / "cells.csv"
        write_cells_csv(CellSet(2, 10, cell_keys(pairs.tolist(), 1024)), path)
        expected = "".join(f"{r},{c}\n" for r, c in sorted(set(map(tuple, pairs.tolist()))))
        assert path.read_bytes() == expected.encode("ascii")

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        table = build_table(4, 2)
        write_table_csv(table, a)
        write_table_csv(table, b)
        assert a.read_bytes() == b.read_bytes()
