from fractions import Fraction

import pytest

from cnl.numeric import format_decimal, fraction_text, hp_ln, int_text, log_bits, sqrt_lower

LN2_NUM = 12786308645202655659  # floor(2**64 * ln 2) is this or this + 1


class TestHpLn:
    def test_ln_one_is_zero(self):
        assert hp_ln(1) == 0
        assert hp_ln(Fraction(7, 7)) == 0

    def test_ln_two_fixed_point(self):
        value = hp_ln(2, bits=64)
        assert (1 << 64) % value.denominator == 0
        assert abs(value * (1 << 64) - LN2_NUM) <= 1

    def test_additivity_within_grid(self):
        lhs = hp_ln(6, bits=80)
        rhs = hp_ln(2, bits=80) + hp_ln(3, bits=80)
        assert abs(lhs - rhs) <= Fraction(3, 1 << 80)

    def test_fraction_argument(self):
        val = hp_ln(Fraction(3, 4), bits=64)
        assert val < 0
        assert abs(val + hp_ln(Fraction(4, 3), bits=64)) <= Fraction(2, 1 << 64)

    def test_huge_integer(self):
        val = hp_ln(1 << 40_000, bits=64)
        expected = 40_000 * hp_ln(2, bits=64)
        assert abs(val - expected) <= Fraction(40_001, 1 << 64)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hp_ln(0)


class TestSqrtLower:
    def test_never_exceeds_truth(self):
        for num, den in ((3, 4), (1, 2), (99, 100), (2, 1)):
            x = Fraction(num, den)
            root = sqrt_lower(x, bits=64)
            assert root * root <= x

    def test_within_grid_of_truth(self):
        x = Fraction(3, 4)
        root = sqrt_lower(x, bits=64)
        above = root + Fraction(2, 1 << 64)
        assert above * above > x

    def test_perfect_square(self):
        assert sqrt_lower(Fraction(9, 4), bits=16) == Fraction(3, 2)


class TestFormatDecimal:
    def test_plain(self):
        assert format_decimal(Fraction(1, 4), 6) == "0.250000"

    def test_rounding_half_up(self):
        assert format_decimal(Fraction(1, 3), 4) == "0.3333"
        assert format_decimal(Fraction(2, 3), 4) == "0.6667"

    def test_negative(self):
        assert format_decimal(Fraction(-5, 2), 3) == "-2.500"

    def test_negative_rounding_to_zero(self):
        assert format_decimal(Fraction(-1, 10**9), 3) == "0.000"


class TestEnvPrecision:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("CNL_PRECISION_BITS", raising=False)
        assert log_bits() == 64

    def test_override_flows_into_logs(self, monkeypatch):
        monkeypatch.setenv("CNL_PRECISION_BITS", "32")
        assert log_bits() == 32
        assert (1 << 32) % hp_ln(2).denominator == 0
        assert (1 << 32) % hp_ln(3).denominator == 0

    def test_rejects_tiny(self, monkeypatch):
        monkeypatch.setenv("CNL_PRECISION_BITS", "4")
        with pytest.raises(ValueError):
            log_bits()


class TestIntegerText:
    @pytest.mark.parametrize("value", [0, 7, -7, 10**40, -(2**200)])
    def test_matches_str(self, value):
        assert int_text(value) == str(value)

    @pytest.mark.parametrize(
        "value", [Fraction(0), Fraction(5), Fraction(-3, 4), Fraction(2**100, 3)]
    )
    def test_fraction_matches_str(self, value):
        assert fraction_text(value) == str(value)

    def test_past_the_digit_limit(self):
        import sys

        value = 10**6000 + 123  # 6001 digits
        text = int_text(value)
        assert text == "1" + "0" * 5997 + "123"
        assert fraction_text(Fraction(value, 7)) == text + "/7"
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() in (0, 4300)
