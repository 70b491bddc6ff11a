import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvtfractals import InvalidBaseError, cvt, sum_without_carry

values = st.integers(min_value=0, max_value=2**128)
bases = st.integers(min_value=2, max_value=1000)


class TestCvt:
    def test_worked_example_binary(self):
        assert cvt(13, 14, 2) == 24

    def test_worked_example_ternary(self):
        assert cvt(13, 14, 3) == 3

    @pytest.mark.parametrize("x", [0, 1, 7, 255, 10**9])
    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_zero_never_carries(self, x, base):
        assert cvt(0, x, base) == 0
        assert cvt(x, 0, base) == 0

    def test_single_digit_carry(self):
        # 7 + 7 = 14 in base 10: carry digit 1, shifted one place left
        assert cvt(7, 7, 10) == 10

    def test_invalid_base(self):
        with pytest.raises(InvalidBaseError):
            cvt(1, 1, 1)

    def test_negative_operand(self):
        with pytest.raises(ValueError):
            cvt(-1, 1, 2)

    @given(values, values, bases)
    def test_symmetric(self, a, b, base):
        assert cvt(a, b, base) == cvt(b, a, base)

    @given(values, values, bases)
    def test_divisible_by_base(self, a, b, base):
        assert cvt(a, b, base) % base == 0

    @given(values, values)
    def test_binary_matches_machine_and(self, a, b):
        assert cvt(a, b, 2) == 2 * (a & b)


class TestSumWithoutCarry:
    def test_worked_example_binary(self):
        assert sum_without_carry(13, 14, 2) == 3

    def test_worked_example_ternary(self):
        # digit-wise sums mod 3 spell (220) base 3 = 24
        assert sum_without_carry(13, 14, 3) == 24

    @pytest.mark.parametrize("x", [0, 1, 9, 512])
    def test_zero_is_identity(self, x):
        assert sum_without_carry(x, 0, 5) == x

    def test_invalid_base(self):
        with pytest.raises(InvalidBaseError):
            sum_without_carry(1, 1, 0)


class TestCarryDecomposition:
    @given(values, values, bases)
    @settings(max_examples=300)
    def test_random(self, a, b, base):
        assert cvt(a, b, base) + sum_without_carry(a, b, base) == a + b

    @pytest.mark.parametrize("base", range(2, 11))
    def test_exhaustive_small(self, base):
        for a in range(64):
            for b in range(64):
                assert cvt(a, b, base) + sum_without_carry(a, b, base) == a + b

    def test_exact_for_huge_operands(self):
        a = 7**50 + 123456789
        b = 11**45 + 987654321
        for base in (2, 3, 7, 60):
            assert cvt(a, b, base) + sum_without_carry(a, b, base) == a + b
