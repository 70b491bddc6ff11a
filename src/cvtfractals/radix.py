"""Exact digit arithmetic in an arbitrary integer base.

The carry value of an addition is the string of per-digit carries shifted one
digit toward the most significant end; together with the carry-free digit sum
it decomposes ordinary addition exactly:

    a + b == cvt(a, b, base) + sum_without_carry(a, b, base)

All operations are pure and exact for arbitrarily large operands.
"""

from __future__ import annotations

from .errors import _check_base, _check_int


def _digit_sums(a: int, b: int, base: int):
    """Yield (place, a_i + b_i) for each digit position i of the longer operand."""
    a = _check_int("a", a, 0)
    b = _check_int("b", b, 0)
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
