import dataclasses
import functools
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvtfractals import output
from cvtfractals import (
    SEARCH_CAP,
    CellSet,
    DimensionEstimate,
    DimensionRangeError,
    EmptyInputError,
    InsufficientScalesError,
    InvalidBaseError,
    InvalidScaleError,
    SizeLimitError,
    base_for_target_dimension,
    box_count,
    dimension_gap,
    estimate_dimension,
    similarity_dimension,
    write_dimension_csv,
    zero_carry_set,
)
from cvtfractals.table import MAX_KEY_EXTENT
from helpers import brute_force_box_count, cell_keys, cell_pairs, set_box_count


@st.composite
def random_cellsets(draw, min_depth=0):
    base = draw(st.integers(min_value=2, max_value=6))
    depth = draw(st.integers(min_value=min_depth, max_value=3 if base <= 3 else 2))
    coord = st.integers(min_value=0, max_value=base**depth - 1)
    pairs = draw(st.lists(st.tuples(coord, coord), max_size=50))
    return CellSet(base, depth, cell_keys(pairs, base**depth))


# grids whose boxes-across counts lie on both sides of 2**4, 2**8 and 2**16,
# where the type of the box keys changes, up to the widest grid a CellSet admits
WIDE_GRIDS = [
    (15, 1), (4, 2), (17, 1), (255, 1), (2, 8), (257, 1), (255, 2), (257, 2),
    (65535, 1), (2, 16), (65537, 1), (2, 17), (46340, 2), (2, 31),
]
assert max(base**depth for base, depth in WIDE_GRIDS) == MAX_KEY_EXTENT


@functools.cache
def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


@st.composite
def sparse_wide_cellsets(draw):
    base, depth = draw(st.sampled_from(WIDE_GRIDS))
    extent = base**depth
    # the grid's edges give keys up to extent**2 - 1, next to each other
    coord = st.integers(0, extent - 1) | st.sampled_from([0, 1, extent - 2, extent - 1])
    pairs = draw(st.lists(st.tuples(coord, coord), max_size=40))
    return CellSet(base, depth, cell_keys(pairs, extent))


class TestSimilarityDimension:
    @pytest.mark.parametrize(
        "base,expected,tol",
        [
            (2, 1.585, 1e-3),
            (3, 1.630929, 1e-6),
            (4, 1.6609, 1e-4),
            (5, 1.682606, 1e-6),
        ],
    )
    def test_published_values(self, base, expected, tol):
        assert similarity_dimension(base) == pytest.approx(expected, abs=tol)

    def test_binary_is_sierpinski(self):
        assert similarity_dimension(2) == math.log(3) / math.log(2)

    def test_invalid_base(self):
        with pytest.raises(InvalidBaseError):
            similarity_dimension(1)

    def test_strictly_increasing_below_two(self):
        previous = similarity_dimension(2)
        for n in range(3, 10_001):
            current = similarity_dimension(n)
            assert previous < current < 2
            previous = current


class TestDimensionGap:
    def test_base_two(self):
        assert dimension_gap(2) == pytest.approx(2 - math.log(3) / math.log(2), abs=1e-12)

    def test_base_thousand(self):
        # log(2000/1001)/log(1000), about 0.10020
        assert dimension_gap(1000) == pytest.approx(0.1002, abs=2e-4)

    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 10**6])
    def test_defining_identity(self, n):
        assert dimension_gap(n) * math.log(n) == pytest.approx(
            math.log(2 * n / (n + 1)), rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 5, 100, 12345])
    def test_complements_similarity_dimension(self, n):
        assert dimension_gap(n) + similarity_dimension(n) == pytest.approx(2.0, abs=1e-9)


class TestBaseForTarget:
    def test_music_anchor(self):
        base, achieved = base_for_target_dimension(1.68)
        assert base == 5
        assert achieved == similarity_dimension(5)

    def test_lower_endpoint_exact(self):
        target = math.log(3) / math.log(2)
        base, achieved = base_for_target_dimension(target)
        assert base == 2
        assert achieved == target

    def test_one_point_six_six(self):
        # brute-force scan over n = 2..10 picks base 4
        scan = min(range(2, 11), key=lambda n: (abs(similarity_dimension(n) - 1.66), n))
        base, _ = base_for_target_dimension(1.66)
        assert base == scan == 4

    @pytest.mark.parametrize("target", [1.0, 1.58, 2.0, 2.5])
    def test_out_of_range(self, target):
        with pytest.raises(DimensionRangeError):
            base_for_target_dimension(target)

    def test_covers_interval_within_tolerance(self):
        for target in np.linspace(1.585, 1.95, 74):
            _, achieved = base_for_target_dimension(float(target))
            assert abs(achieved - target) < 0.03

    def test_matches_linear_scan(self):
        exact = [similarity_dimension(n) for n in range(2, 60)]
        # exact dimensions, and midpoints that tie toward the smaller base
        midpoints = [(lo + hi) / 2 for lo, hi in zip(exact, exact[1:])]
        for target in [*np.linspace(1.59, 1.80, 22), *exact, *midpoints]:
            expected = min(range(2, 60), key=lambda n: (abs(similarity_dimension(n) - target), n))
            base, _ = base_for_target_dimension(float(target))
            assert base == expected

    def test_capped_search(self):
        assert base_for_target_dimension(1.99) == (SEARCH_CAP, similarity_dimension(SEARCH_CAP))


class TestBoxCount:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_binary_self_similarity(self, depth):
        cells = zero_carry_set(2, depth)
        for j in range(depth + 1):
            size = 2 ** (depth - j)
            assert box_count(cells, size) == 3**j

    @pytest.mark.parametrize("base,depth", [(2, 3), (3, 2), (5, 2)])
    def test_against_brute_force(self, base, depth):
        cells = zero_carry_set(base, depth)
        for j in range(depth + 1):
            size = base**j
            assert box_count(cells, size) == brute_force_box_count(
                cell_pairs(cells), cells.extent, size
            )

    def test_single_covering_box(self):
        cells = zero_carry_set(3, 2)
        assert box_count(cells, cells.extent) == 1

    def test_generator_boxes(self):
        assert box_count(zero_carry_set(3, 2), 3) == 6

    def test_empty_set(self):
        assert box_count(CellSet(2, 2, []), 2) == 0

    @given(random_cellsets())
    def test_random_sets_against_brute_force_at_every_divisor(self, cells):
        extent = cells.extent
        for size in (s for s in range(1, extent + 1) if extent % s == 0):
            assert box_count(cells, size) == brute_force_box_count(cell_pairs(cells), extent, size)

    @given(st.data())
    def test_count_does_not_depend_on_earlier_counts(self, data):
        # the set remembers its last count's boxes; any order of sizes, with
        # repeats, coarser-then-finer and non-dividing steps, must count alike
        cells = data.draw(random_cellsets())
        extent = cells.extent
        divisors = [s for s in range(1, extent + 1) if extent % s == 0]
        for size in data.draw(st.lists(st.sampled_from(divisors), max_size=8)):
            assert box_count(cells, size) == brute_force_box_count(cell_pairs(cells), extent, size)

    @pytest.mark.parametrize("sizes", [
        (4, 6, 12), (12, 4, 36), (2, 2, 18, 1), (3, 9, 18, 36), (36, 1, 6, 3),
    ])
    def test_size_sequences_on_extent_36(self, sizes):
        pairs = [(r, (r * 7 + 5) % 36) for r in range(0, 36, 5)] + [(35, 35), (0, 0), (17, 18)]
        cells = CellSet(6, 2, cell_keys(pairs, 36))
        for size in sizes:
            assert box_count(cells, size) == brute_force_box_count(cell_pairs(cells), 36, size)

    def test_counting_leaves_the_set_unchanged(self):
        cells = zero_carry_set(3, 4)
        before = (cell_pairs(cells), repr(cells))
        for size in (3, 9, 27, 9, 81, 1, 3):
            box_count(cells, size)
        assert (cell_pairs(cells), repr(cells)) == before
        assert not cells.keys.flags.writeable
        assert [f.name for f in dataclasses.fields(cells)] == ["base", "depth", "keys"]
        assert "_boxes" not in repr(cells)

    @given(sparse_wide_cellsets(), st.sampled_from([1, 3, 7, output.BLOCK_VALUES]), st.data())
    def test_sparse_wide_grids_against_set_oracle(self, cells, block, data):
        # random sequences of sizes, sorted or not, so that the narrow box keys one
        # count remembers feed the next; blocks of 1, 3 and 7 keys end mid-array
        sizes = data.draw(st.lists(st.sampled_from(divisors(cells.extent)), max_size=6))
        if data.draw(st.booleans()):
            sizes.sort()
        old = output.BLOCK_VALUES
        output.BLOCK_VALUES = block
        try:
            counts = [box_count(cells, size) for size in sizes]
        finally:
            output.BLOCK_VALUES = old
        assert counts == [set_box_count(cell_pairs(cells), size) for size in sizes]

    def test_finest_scale_builds_no_wide_temporaries(self):
        # 279,936 cells: two int64 temporaries of every box key would take 4.48 MB;
        # narrow keys built in blocks take under 2 MB
        cells = zero_carry_set(3, 7)
        tracemalloc.start()
        try:
            assert box_count(cells, 3) == 6**6
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_threads_sharing_a_set_count_alike(self):
        # a lost update of the remembered boxes may only cost time, never a count
        cells = zero_carry_set(6, 3)
        sizes = [s for s in range(1, 217) if 216 % s == 0]
        expected = {s: box_count(CellSet(6, 3, cells.keys), s) for s in sizes}
        wrong = []

        def work(seed):
            rng = random.Random(seed)
            for _ in range(150):
                size = rng.choice(sizes)
                if box_count(cells, size) != expected[size]:
                    wrong.append(size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_wide_grid_is_refused_not_miscounted(self):
        # row * extent + col keys of a 2**40-wide grid overflow int64; the four
        # cells lie in four distinct unit boxes, so any count but 4 is wrong
        try:
            pairs = [(0, 0), (1, 0), (2**33, 0), (1, 2**33)]
            count = box_count(CellSet(2, 40, cell_keys(pairs, 2**40)), 1)
        except SizeLimitError:
            return
        assert count == 4

    def test_non_divisor_scale(self):
        with pytest.raises(InvalidScaleError):
            box_count(zero_carry_set(2, 2), 3)
        with pytest.raises(InvalidScaleError):
            box_count(zero_carry_set(2, 2), 0)


class TestEstimateDimension:
    def test_binary_depth_eight(self):
        est = estimate_dimension(zero_carry_set(2, 8))
        assert est.slope == pytest.approx(1.585, abs=0.01)
        assert est.fit_quality > 0.999
        assert est.scales == tuple(2**j for j in range(8))

    def test_base_five(self):
        est = estimate_dimension(zero_carry_set(5, 4))
        assert est.slope == pytest.approx(1.6826, abs=0.01)

    def test_full_square_is_plane_filling(self):
        extent = 2**4
        full = CellSet(2, 4, range(extent * extent))
        est = estimate_dimension(full)
        assert est.slope == pytest.approx(2.0, abs=0.01)

    def test_counts_are_exactly_geometric(self):
        est = estimate_dimension(zero_carry_set(3, 4))
        assert est.counts == tuple(6 ** (4 - j) for j in range(4))

    @pytest.mark.parametrize("base,depth", [(2, 6), (3, 4), (4, 3)])
    def test_counts_positive_and_non_increasing_with_box_size(self, base, depth):
        est = estimate_dimension(zero_carry_set(base, depth))
        assert all(c > 0 for c in est.counts)
        assert all(a >= b for a, b in zip(est.counts, est.counts[1:]))

    @given(random_cellsets(min_depth=2))
    def test_counts_match_brute_force(self, cells):
        expected = tuple(
            brute_force_box_count(cell_pairs(cells), cells.extent, cells.base**j)
            for j in range(cells.depth)
        )
        if len(set(expected)) > 1:
            assert estimate_dimension(cells).counts == expected
        else:
            with pytest.raises((EmptyInputError, InsufficientScalesError)):
                estimate_dimension(cells)

    def test_insufficient_scales(self):
        with pytest.raises(InsufficientScalesError):
            estimate_dimension(zero_carry_set(2, 1))

    def test_empty_cells(self):
        with pytest.raises(EmptyInputError):
            estimate_dimension(CellSet(2, 3, []))

    def test_constant_counts_rejected(self):
        lone = CellSet(2, 4, cell_keys([(0, 0)], 16))
        with pytest.raises(InsufficientScalesError):
            estimate_dimension(lone)


class TestDimensionCsv:
    def test_report_layout(self, tmp_path):
        est = estimate_dimension(zero_carry_set(2, 3))
        path = tmp_path / "report.csv"
        write_dimension_csv(est, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scale,count,log_scale,log_count"
        assert lines[1].startswith("1,27,")
        assert lines[-2] == f"slope,{est.slope:.6f}"
        assert lines[-1] == f"fit_quality,{est.fit_quality:.6f}"

    def test_extent_inferred(self, tmp_path):
        est = estimate_dimension(zero_carry_set(2, 3))
        path = tmp_path / "report.csv"
        write_dimension_csv(est, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:-2]]
        assert [int(r[0]) for r in rows] == [1, 2, 4]
        assert [r[2] for r in rows] == [f"{math.log(8 / s):.6f}" for s in (1, 2, 4)]

    @pytest.mark.parametrize("scales,counts,error", [
        ((1,), (1,), InsufficientScalesError),
        ((), (), InsufficientScalesError),
        ((1, 2), (4,), ValueError),
        ((1, 2, 4), (9, 3), ValueError),
        ((1, 2, 3), (9, 3, 1), ValueError),
        ((1, 1), (9, 3), ValueError),
        ((0, 2), (9, 3), ValueError),
        ((2, 1), (3, 9), ValueError),
        ((1, 3, 6), (9, 3, 1), ValueError),
    ], ids=["one-scale", "no-scale", "short-counts", "long-scales", "arithmetic",
            "ratio-one", "zero-scale", "shrinking", "ratio-changes"])
    def test_malformed_estimate_refused(self, tmp_path, scales, counts, error):
        with pytest.raises(error):
            write_dimension_csv(DimensionEstimate(scales, counts, 0.0, 1.0), tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()
