import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvtfractals import (
    CellSet,
    RasterImage,
    SizeLimitError,
    build_table,
    render_cellset,
    render_table,
    write_pnm,
    zero_carry_set,
)
from cvtfractals.table import _Fresh
from helpers import cell_keys, parse_pnm


class TestRenderCellset:
    def test_generator_golden(self):
        image = render_cellset(zero_carry_set(2, 1), zoom=1)
        assert image.mode == "bilevel"
        assert image.pixels.tolist() == [[1, 1], [1, 0]]

    def test_empty_set(self):
        image = render_cellset(CellSet(2, 2, []))
        assert image.width == image.height == 4
        assert not image.pixels.any()

    def test_depth_eight_foreground_count(self):
        image = render_cellset(zero_carry_set(2, 8))
        assert image.width == 256
        assert int(image.pixels.sum()) == 6561

    @pytest.mark.parametrize("zoom", [1, 2, 5])
    def test_foreground_scales_with_zoom(self, zoom):
        cells = zero_carry_set(3, 2)
        image = render_cellset(cells, zoom=zoom)
        assert image.width == cells.extent * zoom
        assert int(image.pixels.sum()) == len(cells) * zoom**2

    def test_zoom_blocks(self):
        image = render_cellset(CellSet(2, 1, cell_keys([(1, 0)], 2)), zoom=3)
        assert image.pixels[3:6, 0:3].all()
        assert not image.pixels[0:3, :].any()

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_pixels_mark_exactly_the_cells(self, base, depth, zoom, data):
        extent = base**depth
        coord = st.integers(min_value=0, max_value=extent - 1)
        pairs = set(data.draw(st.lists(st.tuples(coord, coord), max_size=30)))
        cells = CellSet(base, depth, cell_keys(pairs, extent))
        pixels = render_cellset(cells, zoom=zoom).pixels.tolist()
        side = range(extent * zoom)
        assert pixels == [[int((i // zoom, j // zoom) in pairs) for j in side] for i in side]

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            render_cellset(zero_carry_set(2, 8), zoom=65)  # 256 * 65 > 2**14
        with pytest.raises(ValueError):
            render_cellset(zero_carry_set(2, 1), zoom=0)


class TestRenderTable:
    def test_single_digit_binary(self):
        image = render_table(build_table(2, 1))
        assert image.mode == "gray"
        assert image.pixels.tolist() == [[0, 0], [0, 255]]

    @pytest.mark.parametrize("base", [2, 3, 7])
    def test_origin_is_black(self, base):
        assert render_table(build_table(base, 1)).pixels[0, 0] == 0

    def test_maximum_at_largest_operands(self):
        image = render_table(build_table(2, 2))
        assert image.pixels[3, 3] == 255
        assert image.pixels.max() == 255

    def test_rounding_half_up(self):
        # the maximum of build_table(3, 4) is 120, so 255 * 36 / 120 = 76.5 must
        # round up to 77, not to even
        table = build_table(3, 4)
        assert int(table.values.max()) == 120
        half = table.values == 36
        assert half.sum() == 324
        assert set(render_table(table).pixels[half].tolist()) == {77}

    def test_zoom_repeats_each_gray_value(self):
        table, zoom = build_table(3, 2), 3
        values = table.values.tolist()
        top = max(map(max, values))
        gray = [[math.floor(Fraction(255 * v, top) + Fraction(1, 2)) for v in row]
                for row in values]
        side = range(table.extent * zoom)
        expected = [[gray[i // zoom][j // zoom] for j in side] for i in side]
        assert render_table(table, zoom=zoom).pixels.tolist() == expected

    def test_renormalization_idempotent(self):
        table = build_table(3, 2)
        first = render_table(table)
        second = render_table(table)
        assert np.array_equal(first.pixels, second.pixels)


class TestWritePnm:
    def test_pbm_golden(self, tmp_path):
        path = tmp_path / "gen.pbm"
        write_pnm(render_cellset(zero_carry_set(2, 1)), path)
        assert path.read_bytes() == b"P1\n2 2\n1 1\n1 0\n"

    def test_pgm_golden_single_pixel(self, tmp_path):
        image = RasterImage(np.array([[128]], dtype=np.uint8), "gray")
        path = tmp_path / "one.pgm"
        write_pnm(image, path)
        assert path.read_bytes() == b"P2\n1 1\n255\n128\n"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
        cells = zero_carry_set(3, 3)
        write_pnm(render_cellset(cells, zoom=2), a)
        write_pnm(render_cellset(cells, zoom=2), b)
        assert a.read_bytes() == b.read_bytes()

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip(self, width, height, bilevel, seed):
        rng = np.random.default_rng(seed)
        if bilevel:
            pixels = rng.integers(0, 2, size=(height, width)).astype(np.uint8)
            image = RasterImage(pixels, "bilevel")
        else:
            pixels = rng.integers(0, 256, size=(height, width)).astype(np.uint8)
            image = RasterImage(pixels, "gray")
        with tempfile.TemporaryDirectory() as tmp:  # no tmp_path: it outlives one example
            path = os.path.join(tmp, "image.pnm")
            write_pnm(image, path)
            with open(path, "rb") as f:
                mode, w, h, rows = parse_pnm(f.read())
        assert (mode, w, h) == (image.mode, width, height)
        assert rows == pixels.tolist()

    def test_parser_reads_written_file(self, tmp_path):
        table = build_table(3, 2)
        path = tmp_path / "table.pgm"
        write_pnm(render_table(table), path)
        mode, w, h, rows = parse_pnm(path.read_bytes())
        assert (mode, w, h) == ("gray", 9, 9)
        assert rows == render_table(table).pixels.tolist()


class TestRasterImage:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            RasterImage(np.zeros((2, 2), dtype=np.uint8), "rgb")

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            RasterImage(np.zeros(4, dtype=np.uint8), "gray")

    def test_pixels_immutable(self):
        image = render_cellset(zero_carry_set(2, 1))
        with pytest.raises(ValueError):
            image.pixels[0, 0] = 0

    def test_callers_array_stays_writable(self):
        pixels = np.zeros((2, 2), dtype=np.uint8)
        image = RasterImage(pixels, "bilevel")
        pixels[0, 0] = 1
        assert image.pixels.tolist() == [[0, 0], [0, 0]]
        with pytest.raises(ValueError):
            image.pixels[0, 0] = 1

    @pytest.mark.parametrize("mode,value,head", [("bilevel", 5, b"P1\n2 2\n"),
                                                 ("gray", 300, b"P2\n2 2\n255\n")])
    def test_a_write_through_a_views_base_changes_nothing(self, tmp_path, mode, value, head):
        # the image holds a copy of the view, so its checked values stay the ones written
        base = np.zeros((2, 4), dtype=np.uint16)
        image = RasterImage(base[:, :2], mode)
        base[0, 0] = value
        assert image.pixels.tolist() == [[0, 0], [0, 0]]
        write_pnm(image, tmp_path / "x.pnm")
        assert (tmp_path / "x.pnm").read_bytes() == head + b"0 0\n0 0\n"

    def test_accepts_a_list_of_rows(self, tmp_path):
        image = RasterImage([[0, 1], [1, 0]], "bilevel")
        assert (image.width, image.height) == (2, 2)
        write_pnm(image, tmp_path / "x.pbm")
        assert (tmp_path / "x.pbm").read_bytes() == b"P1\n2 2\n0 1\n1 0\n"

    def test_a_rendered_grid_is_adopted_not_copied(self):
        pixels = np.ones((2, 2), dtype=np.uint8)
        assert RasterImage(_Fresh(pixels), "gray").pixels is pixels


class TestRasterImageValues:
    @pytest.mark.parametrize("value", [2, 255])
    def test_bilevel_rejects_values_above_one(self, value):
        with pytest.raises(ValueError):
            RasterImage(np.array([[value]]), "bilevel")

    @pytest.mark.parametrize("value", [256, 300, -1])
    def test_gray_rejects_values_outside_maxval(self, value):
        with pytest.raises(ValueError):
            RasterImage(np.array([[0, value]]), "gray")

    def test_bilevel_rejects_negative(self):
        with pytest.raises(ValueError):
            RasterImage(np.array([[1, -1]], dtype=np.int8), "bilevel")

    @pytest.mark.parametrize("pixels", [np.array([[0.0, 1.0]]), np.array([[True, False]])])
    def test_rejects_non_integer_dtype(self, pixels):
        with pytest.raises(ValueError):
            RasterImage(pixels, "bilevel")

    def test_accepts_full_ranges(self):
        assert RasterImage(np.array([[0, 1]], dtype=np.int64), "bilevel").width == 2
        assert RasterImage(np.array([[0, 255]], dtype=np.uint16), "gray").width == 2
        assert RasterImage(np.zeros((0, 3), dtype=np.uint8), "gray").height == 0


class TestRenderTableRounding:
    @pytest.mark.parametrize("base", range(2, 17))
    def test_equals_float_round_half_up(self, base):
        digits = 1
        while base**digits <= 256:
            table = build_table(base, digits)
            expected = np.floor(table.values * 255.0 / table.values.max() + 0.5).astype(np.uint8)
            assert np.array_equal(render_table(table).pixels, expected)
            digits += 1
