"""carry_value_set, the substitution construction of every carry-value pattern,
checked against the dense table and the count law."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvtfractals import (
    CellSet,
    SizeLimitError,
    build_table,
    carry_value_set,
    iterate_overflow_fractal,
    overflow_generator,
    value_cells,
    zero_carry_set,
)
from cvtfractals.radix import cvt
from cvtfractals.table import MAX_CELLS, _carry_triangle, _key_type, _substitute
from helpers import cell_keys, cell_pairs, digit_pair_keys, digits, substituted_cells

# largest digit count per base whose dense table stays small enough to scan often
MAX_DEPTH = {2: 6, 3: 4, 4: 3, 5: 3, 6: 3}


@functools.lru_cache(maxsize=None)
def _table(base, depth):
    return build_table(base, depth)


def _table_values(base, depth):
    return np.unique(_table(base, depth).values).tolist()


def _with_digit_two(base, q, position):
    """q with its base-`base` digit at `position` replaced by 2."""
    place = base**position
    return q - (q // place % base) * place + 2 * place


@st.composite
def patterns(draw):
    """(base, depth, value): a value the table holds or one it cannot hold."""
    base = draw(st.integers(2, 6))
    depth = draw(st.integers(1, MAX_DEPTH[base]))
    top = base ** (depth + 1)  # every carry value lies below this
    unattainable = [
        st.integers(0, top).filter(lambda v: v % base),  # not a multiple of the base
        st.integers(top, 4 * top),  # needs a carry above the top digit
        st.just(10**30),
    ]
    if base > 2:  # a digit 2 in value // base: no digit pair carries 2
        unattainable.append(
            st.builds(lambda q, j: base * _with_digit_two(base, q, j),
                      st.integers(0, base**depth - 1), st.integers(0, depth - 1)))
    value = draw(st.one_of(st.sampled_from(_table_values(base, depth)), *unattainable))
    return base, depth, value


@settings(max_examples=300, deadline=None)
@given(patterns())
def test_equals_the_dense_table_scan(case):
    base, depth, value = case
    assert cell_pairs(carry_value_set(base, depth, value)) == cell_pairs(
        value_cells(_table(base, depth), value))


@pytest.mark.parametrize("base,depth", [(2, 1), (2, 5), (3, 3), (3, 6), (4, 3), (5, 2), (7, 2)])
def test_every_table_value_and_unattainable_values(base, depth):
    table = _table(base, depth)
    values = _table_values(base, depth) + [1, base, base ** (depth + 1), base ** (depth + 2),
                                           10**30]
    for value in values:
        assert cell_pairs(carry_value_set(base, depth, value)) == cell_pairs(
            value_cells(table, value)), value


@pytest.mark.parametrize("base,depth", [(2, 6), (3, 4), (4, 3), (5, 3), (6, 2), (9, 2)])
def test_count_law_for_every_attainable_value(base, depth):
    for value in _table_values(base, depth):
        ones = sum(d == 1 for d in digits(value // base, base))
        law = (base * (base + 1) // 2) ** (depth - ones) * (base * (base - 1) // 2) ** ones
        assert len(carry_value_set(base, depth, value)) == law


def test_binary_value_two_at_depth_two():
    assert cell_pairs(carry_value_set(2, 2, 2)) == [(1, 1), (1, 3), (3, 1)]


def test_zero_carry_set_is_value_zero():
    for base, depth in [(2, 0), (2, 7), (3, 4), (10, 2)]:
        assert cell_pairs(zero_carry_set(base, depth)) == cell_pairs(carry_value_set(base, depth))


def test_depth_zero_holds_only_value_zero():
    assert cell_pairs(carry_value_set(3, 0)) == [(0, 0)]
    with pytest.raises(ValueError):
        carry_value_set(3, 0, 3)
    with pytest.raises(ValueError):
        carry_value_set(3, -1)


def test_extent_limit_checked_for_empty_patterns_too():
    with pytest.raises(SizeLimitError, match="exceeds limit"):
        carry_value_set(2, 21, 2**21)
    with pytest.raises(SizeLimitError, match="exceeds limit"):
        carry_value_set(2, 21, 3)  # odd: no cell holds it
    assert len(carry_value_set(2, 20, 3)) == 0


def test_cell_limit_refuses_before_allocating():
    # 3**19 cells on the admitted 2**20 grid
    with pytest.raises(SizeLimitError, match="exceeds limit"):
        carry_value_set(2, 20, 2)
    # one triangle of 2**20 digit pairs would alone hold ~5.5e11 cells
    for value in (0, 2**20):
        with pytest.raises(SizeLimitError, match="exceeds limit"):
            carry_value_set(2**20, 1, value)


def test_unattainable_value_on_a_large_base_builds_nothing():
    assert len(carry_value_set(2**20, 1, 2**20 + 1)) == 0


@given(st.integers(2, 40), st.sampled_from([0, 1]))
def test_carry_triangle_is_every_digit_pair_with_that_carry(base, carry):
    # a pair of single digits has carry value base exactly when it carries
    expected = [x * base + y for x in range(base) for y in range(base)
                if cvt(x, y, base) == carry * base]
    assert _carry_triangle(base, carry).tolist() == expected


@st.composite
def level_stacks(draw):
    """(modulus, levels): a different generator of (x, y) digit pairs at each level.

    Among them are the full grid and, after it, a single pair, so at least one
    level has fewer pairs than there are keys so far (the first always has at
    least as many). Pairs come in any order, repeats allowed.
    """
    modulus = draw(st.integers(2, 5))
    grid = [(x, y) for x in range(modulus) for y in range(modulus)]
    levels = draw(st.lists(st.lists(st.sampled_from(grid), min_size=1, max_size=12), max_size=2))
    full = draw(st.integers(0, len(levels)))
    levels.insert(full, grid)
    levels.insert(draw(st.integers(full + 1, len(levels))), [draw(st.sampled_from(grid))])
    return modulus, levels


@settings(max_examples=150, deadline=None)
@given(level_stacks())
def test_substitution_with_a_generator_per_level_matches_the_oracle(case):
    modulus, levels = case
    cells = _substitute([np.array([x * modulus + y for x, y in level]) for level in levels],
                        modulus)
    assert cells.extent == modulus ** len(levels)
    assert cell_pairs(cells) == sorted(substituted_cells(levels, modulus))


@st.composite
def repeating_level_stacks(draw):
    """level_stacks, half of them with one level given a second copy of one of its pairs."""
    modulus, levels = draw(level_stacks())
    if draw(st.booleans()):
        i = draw(st.integers(0, len(levels) - 1))
        levels[i] = levels[i] + [draw(st.sampled_from(levels[i]))]
    return modulus, levels


@settings(max_examples=150, deadline=None)
@given(repeating_level_stacks(), st.randoms(use_true_random=False))
def test_substituted_keys_are_the_keys_the_constructor_makes(case, rng):
    modulus, levels = case
    cells = _substitute([np.array([x * modulus + y for x, y in level]) for level in levels],
                        modulus)
    keys = cells.keys
    assert keys.dtype == _key_type(cells.extent) and not keys.flags.writeable
    assert (keys[1:] > keys[:-1]).all()
    shuffled = keys.tolist() * 2
    rng.shuffle(shuffled)
    assert keys.tolist() == CellSet(modulus, len(levels), shuffled).keys.tolist()


def test_the_constructor_copies_its_callers_keys():
    # sorted or not, the caller's array is neither sorted nor frozen nor shared
    for given_keys in ([5, 0, 3, 0], [0, 3, 5]):
        keys = np.array(given_keys)
        cells = CellSet(3, 1, keys)
        assert cells.keys.tolist() == [0, 3, 5] and not cells.keys.flags.writeable
        assert keys.tolist() == given_keys and keys.flags.writeable
        assert not np.shares_memory(cells.keys, keys)


@pytest.mark.parametrize("base,depth,bound", [(3, 8, 1.75), (2000, 1, 4), (2000, 1, 2.5)])
def test_substitution_peaks_near_the_size_of_its_keys(base, depth, bound):
    # 1,679,616 and 2,001,000 keys: the set adopts the sorted uint32 keys that substitution
    # built instead of copying them, a level's offsets are computed in place, and the
    # carry triangle is built from its rows' offsets, with no base**2 mask or int64 index;
    # the first level's offsets are its keys, so at depth 1 only the triangle is held
    # beside them. bound counts 4-byte words a cell: 7, 16 and 10 B/cell, where the
    # int64 keys' bounds were 14, 32 and 20 B/cell
    tracemalloc.start()
    try:
        cells = zero_carry_set(base, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 4 * len(cells)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 2000), st.sampled_from([0, 1]))
@example(2000, 0)
@example(2000, 1)
def test_wide_bases_match_the_digit_sum_oracle(base, carry):
    cells = carry_value_set(base, 1, carry * base)
    assert np.array_equal(cells.keys, digit_pair_keys(base, carry * base))


# base-2 depths on both sides of each key type's last extent: 16 (uint8), 256 (uint16),
# 65,536 (uint32)
KEY_TYPES = {4: np.uint8, 5: np.uint16, 8: np.uint16, 9: np.uint32, 16: np.uint32, 17: np.int64}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(KEY_TYPES)), st.data())
def test_value_pattern_keys_match_the_oracle_in_their_key_type(depth, data):
    # a base-2 digit position carrying 1 keeps one digit pair, one carrying 0 keeps three;
    # at most 7 positions without a carry keep the oracle's product small
    free = data.draw(st.sets(st.integers(0, depth - 1), max_size=7))
    carries = [j not in free for j in range(depth)]
    cells = carry_value_set(2, depth, 2 * sum(1 << j for j, bit in enumerate(carries) if bit))
    levels = [[divmod(int(k), 2) for k in digit_pair_keys(2, 2 * bit)] for bit in carries[::-1]]
    extent = 2**depth
    assert cells.keys.tolist() == cell_keys(sorted(substituted_cells(levels, 2)), extent)
    assert cells.keys.dtype == KEY_TYPES[depth] == _key_type(extent)


def test_triangle_limit_matches_the_pattern_count():
    # at base 5793 only the no-carry triangle exceeds MAX_CELLS on its own
    base = 5793
    assert base * (base - 1) // 2 <= MAX_CELLS < base * (base + 1) // 2
    with pytest.raises(SizeLimitError, match=f"{base * (base + 1) // 2} cells"):
        carry_value_set(base, 1, 0)


def test_overflow_fractal_limits():
    gen = overflow_generator(2)
    assert len(iterate_overflow_fractal(gen, 3)) == 27
    with pytest.raises(SizeLimitError, match="exceeds limit"):
        iterate_overflow_fractal(gen, 13)  # 3**13 > 2**20
    # a full 4x4 generator at depth 10: extent 2**20 is admitted, 2**40 cells are not
    full = CellSet(4, 1, cell_keys([(r, c) for r in range(4) for c in range(4)], 4))
    with pytest.raises(SizeLimitError, match="cells exceeds limit"):
        iterate_overflow_fractal(full, 10)


@pytest.mark.parametrize("depth", [10**6, 10**9])
def test_absurd_depth_is_refused_without_per_level_work(depth):
    with pytest.raises(SizeLimitError, match=rf"pattern extent 2\*\*{depth} exceeds limit"):
        carry_value_set(2, depth, 2)
    with pytest.raises(SizeLimitError, match=rf"pattern extent 3\*\*{depth} exceeds limit"):
        iterate_overflow_fractal(overflow_generator(2), depth)
