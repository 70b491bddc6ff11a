"""Exact digit arithmetic in an arbitrary integer base.

The carry value of an addition is the string of per-digit carries shifted one
digit toward the most significant end; together with the carry-free digit sum
it decomposes ordinary addition exactly:

    a + b == cvt(a, b, base) + sum_without_carry(a, b, base)

All operations are pure and exact for arbitrarily large operands.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import InvalidBaseError


def _check_base(base: int) -> int:
    try:
        base = operator.index(base)
    except TypeError:
        raise InvalidBaseError(f"base must be an integer >= 2, got {base!r}") from None
    if base < 2:
        raise InvalidBaseError(f"base must be an integer >= 2, got {base}")
    return base


def _check_value(name: str, value: int) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return value


def to_digits(value: int, base: int, min_width: int = 0) -> tuple[int, ...]:
    """Digits of a non-negative integer in base `base`, least significant first.

    Zero has no digits; the result is zero padded to at least `min_width` digits.
    """
    base = _check_base(base)
    value = _check_value("value", value)
    min_width = _check_value("min_width", min_width)
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    while len(digits) < min_width:
        digits.append(0)
    return tuple(digits)


def from_digits(digits: Sequence[int], base: int) -> int:
    """Evaluate a least-significant-first digit vector as an integer."""
    base = _check_base(base)
    value = 0
    for d in reversed(digits):
        d = operator.index(d)
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
        value = value * base + d
    return value


def _digit_sums(a: int, b: int, base: int):
    """Yield (place, a_i + b_i) for each digit position i of the longer operand."""
    a = _check_value("a", a)
    b = _check_value("b", b)
    place = 1
    while a or b:
        a, da = divmod(a, base)
        b, db = divmod(b, base)
        yield place, da + db
        place *= base


def cvt(a: int, b: int, base: int) -> int:
    """Carry value of a + b in the given base.

    Operands are compared digit by digit (the shorter one is implicitly zero
    padded); each position contributes a carry digit (a_i + b_i) // base,
    which is 0 or 1, and the carry string is shifted one digit left so that
    the least significant digit of the result is always 0.
    """
    base = _check_base(base)
    # carries land one position above the digits producing them
    return sum(place * base for place, total in _digit_sums(a, b, base) if total >= base)


def sum_without_carry(a: int, b: int, base: int) -> int:
    """Digit-wise (a_i + b_i) mod base, the carry-free part of the addition."""
    base = _check_base(base)
    return sum(place * (total % base) for place, total in _digit_sums(a, b, base))
