import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cvtfractals import (
    CellSet,
    build_table,
    dimension,
    melody,
    output,
    overlay,
    raster,
    table,
    write_cells_csv,
    write_table_csv,
    zero_carry_set,
)
from cvtfractals.output import ascii_rows, write_chunks
from cvtfractals.raster import RasterImage, _pnm_chunks
from helpers import cell_keys, csv_bytes, pnm_bytes

EDGE_VALUES = (0, 1, 9, 10, 99, 100, 255)
SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12)


def table_csv_oracle(tab):
    header = "," + ",".join(str(i) for i in range(tab.extent))
    return csv_bytes([[i, *row] for i, row in enumerate(tab.values.tolist())], header)


class TestPnmBytes:
    @given(arrays(np.uint8, SHAPES, elements=st.integers(0, 1)))
    def test_bilevel_matches_oracle(self, pixels):
        image = RasterImage(pixels, "bilevel")
        assert b"".join(_pnm_chunks(image)) == pnm_bytes(pixels, "bilevel")

    @given(arrays(np.uint8, SHAPES, elements=st.sampled_from(EDGE_VALUES) | st.integers(0, 255)))
    def test_gray_matches_oracle(self, pixels):
        assert b"".join(_pnm_chunks(RasterImage(pixels, "gray"))) == pnm_bytes(pixels, "gray")

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0)])
    @pytest.mark.parametrize("mode", ["bilevel", "gray"])
    def test_empty_shapes(self, shape, mode):
        pixels = np.zeros(shape, dtype=np.uint8)
        assert b"".join(_pnm_chunks(RasterImage(pixels, mode))) == pnm_bytes(pixels, mode)

    def test_wide_int64_gray(self):
        pixels = np.array([EDGE_VALUES, EDGE_VALUES[::-1]], dtype=np.int64)
        assert b"".join(_pnm_chunks(RasterImage(pixels, "gray"))) == (
            b"P2\n7 2\n255\n0 1 9 10 99 100 255\n255 100 99 10 9 1 0\n"
        )


class TestCsvBytes:
    @pytest.mark.parametrize(
        "base,digits",
        [(b, k) for b in range(2, 17) for k in range(1, 9) if b**k <= 256],
    )
    def test_table_csv_matches_oracle(self, base, digits, tmp_path):
        tab = build_table(base, digits)
        path = tmp_path / "t.csv"
        write_table_csv(tab, path)
        assert path.read_bytes() == table_csv_oracle(tab)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_cells_csv_matches_oracle(self, data, tmp_path_factory):
        # grids up to the 2**31 key limit, so coordinates take up to 10 digits
        base = data.draw(st.integers(min_value=2, max_value=7))
        depth = data.draw(st.integers(min_value=0, max_value=31).filter(lambda d: base**d <= 2**31))
        coord = st.integers(min_value=0, max_value=base**depth - 1)
        pairs = data.draw(st.lists(st.tuples(coord, coord), max_size=30))
        path = tmp_path_factory.mktemp("cells") / "c.csv"
        write_cells_csv(CellSet(base, depth, cell_keys(pairs, base**depth)), path)
        assert path.read_bytes() == csv_bytes(sorted(set(pairs)))


class TestAsciiRows:
    @pytest.mark.parametrize("table_limit", [0, output._TABLE_LIMIT])
    @given(
        arrays(
            np.int64,
            SHAPES,
            elements=st.sampled_from(EDGE_VALUES) | st.integers(0, 2**62),
        ),
        st.sampled_from([" ", ","]),
    )
    def test_matches_join(self, table_limit, values, sep):
        # a limit of 0 forces the four-digit-group path on every array, never the lookup table
        old = output._TABLE_LIMIT
        output._TABLE_LIMIT = table_limit
        try:
            got = b"".join(ascii_rows(values, sep))
        finally:
            output._TABLE_LIMIT = old
        assert got == "".join(sep.join(map(str, row)) + "\n" for row in values.tolist()).encode()

    @given(
        st.sampled_from([np.uint8, np.int8, np.uint16, np.int32, np.int64, np.uint64]).flatmap(
            lambda dtype: arrays(
                dtype, SHAPES | st.tuples(st.integers(0, 12), st.just(1)),
                elements=st.integers(0, 9),
            )
        ),
        st.sampled_from([" ", ","]),
        st.sampled_from([1, 3, 7, output.BLOCK_VALUES]),
        st.booleans(),
    )
    def test_one_digit_values_match_join(self, values, sep, block, transpose):
        # one-digit arrays are spelled by one 16-bit add per value, not gathered;
        # blocks of 1, 3 and 7 values end mid-row, and a transpose is not contiguous
        if transpose:
            values = values.T
        old = output.BLOCK_VALUES
        output.BLOCK_VALUES = block
        try:
            got = b"".join(ascii_rows(values, sep))
        finally:
            output.BLOCK_VALUES = old
        assert got == "".join(sep.join(map(str, row)) + "\n" for row in values.tolist()).encode()

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 64])
    def test_block_boundaries(self, block, monkeypatch, tmp_path):
        # with 7 columns most of these block sizes end a block mid-row;
        # _TABLE_LIMIT = 0 sends every array down the four-digit-group path
        monkeypatch.setattr(output, "BLOCK_VALUES", block)
        for table_limit in (0, output._TABLE_LIMIT):
            monkeypatch.setattr(output, "_TABLE_LIMIT", table_limit)
            rng = np.random.default_rng(block)
            gray = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
            assert b"".join(_pnm_chunks(RasterImage(gray, "gray"))) == pnm_bytes(gray, "gray")
            bits = rng.integers(0, 2, size=(6, 7)).astype(np.uint8)
            image = RasterImage(bits, "bilevel")
            assert b"".join(_pnm_chunks(image)) == pnm_bytes(bits, "bilevel")
            tab = build_table(3, 2)
            write_table_csv(tab, tmp_path / "t.csv")
            assert (tmp_path / "t.csv").read_bytes() == table_csv_oracle(tab)
            assert len(list(ascii_rows(gray, " "))) == -(-gray.size // block)
            wide = rng.integers(0, 10**13, size=(4, 7))
            expected = "".join(",".join(map(str, row)) + "\n" for row in wide.tolist())
            assert b"".join(ascii_rows(wide, ",")) == expected.encode()

    @pytest.mark.parametrize("table_limit", [0, output._TABLE_LIMIT])
    @pytest.mark.parametrize("sep", [" ", ","])
    def test_four_digit_group_boundaries(self, table_limit, sep, monkeypatch):
        # the values on each side of every group boundary, mixed with short ones
        monkeypatch.setattr(output, "_TABLE_LIMIT", table_limit)
        edges = [10 ** (4 * j) + d for j in range(1, 5) for d in (-1, 0, 1)]
        values = np.array([edges, [0, 1, 9, 10, 99, 100, 2**63 - 1, 2**16, 2**16 - 1, 7, 0, 5]])
        expected = "".join(sep.join(map(str, row)) + "\n" for row in values.tolist())
        assert b"".join(ascii_rows(values, sep)) == expected.encode()

    @pytest.mark.parametrize("table_limit", [0, output._TABLE_LIMIT])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
    def test_narrow_dtypes(self, table_limit, dtype, monkeypatch):
        monkeypatch.setattr(output, "_TABLE_LIMIT", table_limit)
        top = np.iinfo(dtype).max
        values = np.array([[0, top, 1], [top // 3, 10, top - 1]], dtype=dtype)
        expected = "".join(",".join(map(str, row)) + "\n" for row in values.tolist())
        assert b"".join(ascii_rows(values, ",")) == expected.encode()


def failing_chunks():
    yield b"partial "
    raise RuntimeError("encoder failed")


class TestWriteChunks:
    def test_writes_all_chunks(self, tmp_path):
        path = tmp_path / "out.bin"
        write_chunks(path, [b"ab", bytearray(b"cd"), b""])
        assert path.read_bytes() == b"abcd"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failure_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            write_chunks(path, failing_chunks())
        assert os.listdir(tmp_path) == []

    def test_failure_keeps_old_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        with pytest.raises(RuntimeError):
            write_chunks(path, failing_chunks())
        assert path.read_bytes() == b"old contents"
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_matches_open(self, umask, tmp_path):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            write_chunks(tmp_path / "written", [b"x"])
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "written").st_mode == os.stat(tmp_path / "reference").st_mode

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        os.chmod(path, 0o640)
        write_chunks(path, [b"new"])
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert path.read_bytes() == b"new"

    def test_writes_through_symlink(self, tmp_path):
        target = tmp_path / "target.bin"
        target.write_bytes(b"old")
        link = tmp_path / "link.bin"
        link.symlink_to(target)
        write_chunks(link, [b"new"])
        assert link.is_symlink()
        assert target.read_bytes() == b"new"

    def test_fifo_is_written_directly(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        write_chunks(fifo, [b"through ", b"the pipe"])
        reader.join(timeout=10)
        assert received == [b"through the pipe"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_bytes_path_is_written_as_open_writes_it(self, tmp_path):
        # the temporary's name was built from the bytes repr and refused as mixed types
        new, old = tmp_path / "out.bin", tmp_path / "old.bin"
        old.write_bytes(b"old")
        write_chunks(os.fsencode(new), [b"new"])
        write_chunks(os.fsencode(old), [b"newer"])
        assert new.read_bytes() == b"new"
        assert old.read_bytes() == b"newer"
        assert sorted(os.listdir(tmp_path)) == ["old.bin", "out.bin"]

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "out.bin"
        with pytest.raises(FileNotFoundError) as info:
            write_chunks(path, [b"x"])
        assert info.value.filename == str(path)

    def test_empty_path_is_refused_before_anything_is_created(self, tmp_path, monkeypatch):
        # "" once resolved to the working directory, so the temporary was made in its parent
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(FileNotFoundError) as info:
            write_chunks("", [b"x"])
        assert info.value.filename == ""
        assert os.listdir(tmp_path) == ["work"]
        assert os.listdir(work) == []

    def test_path_ending_in_a_separator_is_refused(self, tmp_path):
        # it was written as the file the path names without its separator
        path = os.path.join(tmp_path, "newdir") + os.sep
        with pytest.raises(IsADirectoryError) as info:
            write_chunks(path, [b"x"])
        assert info.value.filename == path
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name", ["missing/../x", "missing/."])
    def test_path_through_a_missing_directory_is_refused(self, tmp_path, monkeypatch, name):
        # normalised, these named x and missing, and were written as those files
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as info:
            write_chunks(name, [b"x"])
        assert info.value.filename == name
        assert os.listdir(tmp_path) == []

    def test_failed_pnm_keeps_old_image(self, tmp_path, monkeypatch):
        path = tmp_path / "img.pbm"
        path.write_bytes(b"old image")
        monkeypatch.setattr(raster, "ascii_rows", lambda values, sep: failing_chunks())
        with pytest.raises(RuntimeError):
            raster.write_pnm(RasterImage(np.ones((2, 2), dtype=np.uint8), "bilevel"), path)
        assert path.read_bytes() == b"old image"
        assert os.listdir(tmp_path) == ["img.pbm"]


def every_writer(tmp_path):
    """(module, call) for each of the package's eight file writers."""
    cells = zero_carry_set(2, 2)
    estimate = dimension.estimate_dimension(cells)
    notes = melody.cells_to_notes(cells)
    report = overlay.analyze_overlay(2, 2)
    image = raster.render_cellset(cells)
    tab = build_table(2, 1)
    path = tmp_path / "out"
    return [
        (raster, lambda: raster.write_pnm(image, path)),
        (table, lambda: table.write_table_csv(tab, path)),
        (table, lambda: table.write_cells_csv(cells, path)),
        (melody, lambda: melody.write_midi(notes, 120, path)),
        (melody, lambda: melody.write_notes_csv(notes, path)),
        (dimension, lambda: dimension.write_dimension_csv(estimate, path)),
        (overlay, lambda: overlay.write_overlay_report(report, path)),
        (overlay, lambda: overlay.write_overlay_scales_csv(report, path)),
    ]


def test_every_writer_is_atomic(tmp_path, monkeypatch):
    for module, write in every_writer(tmp_path):
        calls = []

        def spy(path, chunks):
            calls.append(path)
            write_chunks(path, chunks)

        monkeypatch.setattr(module, "write_chunks", spy)
        write()
        monkeypatch.undo()
        assert calls == [tmp_path / "out"]
        assert os.listdir(tmp_path) == ["out"]
