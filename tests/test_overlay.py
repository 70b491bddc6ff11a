import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtfractals import (
    CLAIMED_INCREMENT,
    CellSet,
    InsufficientScalesError,
    InvalidBaseError,
    SizeLimitError,
    analyze_overlay,
    box_count,
    iterate_overflow_fractal,
    overflow_generator,
    write_overlay_report,
    write_overlay_scales_csv,
    zero_carry_set,
)
from helpers import cell_keys, cell_pairs, substituted_cells


class TestOverflowGenerator:
    def test_binary_over_ternary(self):
        gen = overflow_generator(2)
        assert cell_pairs(gen) == [(0, 2), (1, 1), (2, 0)]
        assert len(gen) == 3

    def test_ternary_over_quaternary(self):
        assert cell_pairs(overflow_generator(3)) == [(0, 3), (1, 2), (2, 1), (3, 0)]

    @pytest.mark.parametrize("k", range(2, 10))
    def test_is_the_anti_diagonal(self, k):
        gen = overflow_generator(k)
        assert set(cell_pairs(gen)) == {(x, k - x) for x in range(k + 1)}
        assert len(gen) == k + 1

    @pytest.mark.parametrize("k", range(2, 10))
    def test_disjoint_union_rebuilds_large_generator(self, k):
        overflow = set(cell_pairs(overflow_generator(k)))
        small = set(cell_pairs(zero_carry_set(k, 1)))
        large = set(cell_pairs(zero_carry_set(k + 1, 1)))
        assert overflow & small == set()
        assert overflow | small == large

    def test_rejects_invalid_base(self):
        with pytest.raises(InvalidBaseError):
            overflow_generator(1)


class TestIterateOverflowFractal:
    def test_depth_one_is_identity(self):
        gen = overflow_generator(2)
        assert cell_pairs(iterate_overflow_fractal(gen, 1)) == cell_pairs(gen)

    def test_depth_three_count(self):
        assert len(iterate_overflow_fractal(overflow_generator(2), 3)) == 27

    def test_single_cell_generator(self):
        lone = CellSet(3, 1, cell_keys([(1, 1)], 3))
        result = iterate_overflow_fractal(lone, 4)
        assert len(result) == 1
        assert result.extent == 81

    @pytest.mark.parametrize("k,depth", [(2, 4), (3, 3), (4, 2)])
    def test_count_law(self, k, depth):
        gen = overflow_generator(k)
        assert len(iterate_overflow_fractal(gen, depth)) == len(gen) ** depth

    def test_substitution_self_similarity(self):
        # k + 1 times fewer boxes at each coarser scale: the overlay's measured
        # slope of 1 is exact
        depth = 4
        for k in range(2, 6):
            iterated = iterate_overflow_fractal(overflow_generator(k), depth)
            for j in range(depth + 1):
                assert box_count(iterated, (k + 1) ** j) == (k + 1) ** (depth - j)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_closed_form(self, k):
        # every level places x + y = k, so a cell is a + b = E - 1 with no
        # carry: row a holds the one column E - 1 - a
        depth = 1
        while (extent := (k + 1) ** depth) <= 10**5:
            a = np.arange(extent)
            keys = iterate_overflow_fractal(overflow_generator(k), depth).keys
            assert np.array_equal(keys, a * (extent - 1) + (extent - 1))
            depth += 1

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            iterate_overflow_fractal(overflow_generator(2), 0)

    def test_extent_limit(self):
        with pytest.raises(SizeLimitError):
            iterate_overflow_fractal(overflow_generator(2), 14)  # 3**14 > 2**20

    @pytest.mark.parametrize("depth", [3, 10**9])
    def test_one_cell_wide_generator_refused(self, depth):
        # a 1-wide grid is no base: the refusal names the generator's grid
        with pytest.raises(ValueError, match=r"generator grid 2\*\*0 is 1 cell wide"):
            iterate_overflow_fractal(CellSet(2, 0, [0]), depth)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_substitution_oracle(self, data):
        modulus = data.draw(st.integers(min_value=2, max_value=5), label="modulus")
        depth = data.draw(st.integers(min_value=1, max_value=4), label="depth")
        digit = st.integers(min_value=0, max_value=modulus - 1)
        # any nonempty subset of the digit grid, kept to a few thousand cells
        most = min(modulus**2, int(4096 ** (1 / depth)))
        pairs = data.draw(st.sets(st.tuples(digit, digit), min_size=1, max_size=most))
        gen = CellSet(modulus, 1, cell_keys(pairs, modulus))
        result = iterate_overflow_fractal(gen, depth)
        assert result.extent == modulus**depth
        assert cell_pairs(result) == sorted(substituted_cells([pairs] * depth, modulus))


class TestAnalyzeOverlay:
    def test_binary_overlay_measures_unit_slope(self):
        report = analyze_overlay(2, 6)
        assert len(report.overflow_cells) == 3
        assert report.measured.slope == pytest.approx(1.0, abs=0.02)
        assert report.measured.slope == pytest.approx(math.log(3) / math.log(3), abs=0.02)

    def test_ternary_overlay(self):
        report = analyze_overlay(3, 5)
        assert len(report.overflow_cells) == 4
        assert report.measured.slope == pytest.approx(math.log(4) / math.log(4), abs=0.02)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_internal_consistency(self, k):
        report = analyze_overlay(k, 4)
        gen = report.overflow_cells
        expected = math.log(len(gen)) / math.log(gen.extent)
        assert report.measured.slope == pytest.approx(expected, abs=0.02)

    def test_single_scale_cannot_fit(self):
        with pytest.raises(InsufficientScalesError):
            analyze_overlay(2, 1)

    def test_report_carries_both_values(self):
        report = analyze_overlay(2, 5)
        assert CLAIMED_INCREMENT == pytest.approx(1.585, abs=1e-3)
        text = report.to_text()
        assert f"claimed dimension increment: {CLAIMED_INCREMENT:.6f}" in text
        assert f"measured box-count dimension: {report.measured.slope:.6f}" in text
        assert text.endswith(f"scale 1/3, which measures {report.measured.slope:.6f}.")

    def test_bases_recorded(self):
        report = analyze_overlay(4, 3)
        assert report.overflow_cells.extent == 5
        assert report.to_text().startswith("overlay: base-4 generator over base-5 generator\n")

    def test_report_holds_generator_and_measurement(self):
        report = analyze_overlay(2, 3)
        assert [f.name for f in fields(report)] == ["overflow_cells", "measured"]


class TestOverlaySerialization:
    def test_text_report_file(self, tmp_path):
        report = analyze_overlay(2, 5)
        path = tmp_path / "overlay.txt"
        write_overlay_report(report, path)
        assert path.read_text() == report.to_text() + "\n"

    def test_scales_csv(self, tmp_path):
        report = analyze_overlay(2, 4)
        path = tmp_path / "scales.csv"
        write_overlay_scales_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scale,count"
        assert lines[1:] == [
            f"{s},{c}" for s, c in zip(report.measured.scales, report.measured.counts)
        ]
