"""carry_value_set, the substitution construction of every carry-value pattern,
checked against the dense table and the count law."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
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
from cvtfractals.table import MAX_CELLS
from helpers import cell_keys, digits

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
    assert carry_value_set(base, depth, value) == value_cells(_table(base, depth), value)


@pytest.mark.parametrize("base,depth", [(2, 1), (2, 5), (3, 3), (3, 6), (4, 3), (5, 2), (7, 2)])
def test_every_table_value_and_unattainable_values(base, depth):
    table = _table(base, depth)
    values = _table_values(base, depth) + [1, base, base ** (depth + 1), base ** (depth + 2),
                                           10**30]
    for value in values:
        assert carry_value_set(base, depth, value) == value_cells(table, value), value


@pytest.mark.parametrize("base,depth", [(2, 6), (3, 4), (4, 3), (5, 3), (6, 2), (9, 2)])
def test_count_law_for_every_attainable_value(base, depth):
    for value in _table_values(base, depth):
        ones = sum(d == 1 for d in digits(value // base, base))
        law = (base * (base + 1) // 2) ** (depth - ones) * (base * (base - 1) // 2) ** ones
        assert len(carry_value_set(base, depth, value)) == law


def test_binary_value_two_at_depth_two():
    assert tuple(carry_value_set(2, 2, 2)) == ((1, 1), (1, 3), (3, 1))


def test_zero_carry_set_is_value_zero():
    for base, depth in [(2, 0), (2, 7), (3, 4), (10, 2)]:
        assert zero_carry_set(base, depth) == carry_value_set(base, depth)


def test_depth_zero_holds_only_value_zero():
    assert tuple(carry_value_set(3, 0)) == ((0, 0),)
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
