import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnl import numeric
from cnl.numeric import (
    IntTexts,
    _ln_int,
    format_decimal,
    format_ratio,
    fraction_text,
    hp_ln,
    int_text,
    log_bits,
    sqrt_lower,
)

LN2_NUM = 12786308645202655659  # floor(2**64 * ln 2) is this or this + 1


def reference_ln(num: int, den: int, bits: int) -> tuple[Decimal, Decimal]:
    """2**bits * ln(num/den) by ``Decimal.ln``, about 100 digits past the
    unit of the result and widened by 10**-30 for its own rounding; an
    interval independent of the integer kernel."""
    mag = max(num.bit_length(), den.bit_length())
    with localcontext() as ctx:
        ctx.prec = len(str(mag)) + (bits * 302) // 1000 + 100
        truth = (Decimal(num).ln() - Decimal(den).ln()) * (Decimal(2) ** bits)
        slack = Decimal(10) ** -30
        return truth - slack, truth + slack


def assert_encloses(x, bits: int) -> None:
    x = Fraction(x)
    lo, hi = hp_ln(x, bits)
    below, above = reference_ln(x.numerator, x.denominator, bits)
    assert lo <= above and below <= hi, (x, bits, lo, hi, below)
    assert hi - lo <= 2


class TestHpLn:
    def test_ln_one_is_zero(self):
        assert hp_ln(1) == (0, 0)
        assert hp_ln(Fraction(7, 7)) == (0, 0)

    def test_ln_two_fixed_point(self):
        for end in hp_ln(2, bits=64):
            assert abs(end - LN2_NUM) <= 1

    def test_additivity_within_grid(self):
        lhs = hp_ln(6, bits=80)
        two, three = hp_ln(2, bits=80), hp_ln(3, bits=80)
        for end in (0, 1):
            assert abs(lhs[end] - (two[end] + three[end])) <= 3

    def test_fraction_argument(self):
        val = hp_ln(Fraction(3, 4), bits=64)
        inverse = hp_ln(Fraction(4, 3), bits=64)
        assert val[1] < 0
        for end in (0, 1):
            assert abs(val[end] + inverse[1 - end]) <= 2

    def test_huge_integer(self):
        val = hp_ln(1 << 40_000, bits=64)
        two = hp_ln(2, bits=64)
        for end in (0, 1):
            assert abs(val[end] - 40_000 * two[end]) <= 40_001

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hp_ln(0)

    @pytest.mark.parametrize("bits", [8, 64, 200])
    def test_encloses_random_integers(self, bits):
        rng = random.Random(bits)
        for _ in range(25):
            assert_encloses(rng.getrandbits(rng.randrange(1, 40_001)) | 1, bits)
            assert_encloses(rng.randrange(2, 1 << 20), bits)

    @pytest.mark.parametrize("bits", [8, 64, 200])
    def test_encloses_powers_of_two(self, bits):
        for e in (1, 2, 63, 64, 65, bits, bits + 21, 1000, 40_000):
            assert_encloses(1 << e, bits)
            assert_encloses(Fraction(1, 1 << e), bits)

    @pytest.mark.parametrize("work", [28, 84, 250])
    def test_working_precision_enclosure(self, work):
        # The output rounds outward from this enclosure with 20 guard
        # bits to spare, so only here does an understated error show.
        rng = random.Random(work)
        sizes = [rng.getrandbits(rng.randrange(2, 40_001)) | 1 for _ in range(25)]
        for n in [2, 3, (1 << 40) + 1] + sizes:
            lo, hi = _ln_int(n, work)
            below, above = reference_ln(n, 1, work)
            assert lo <= above and below <= hi, (n, work, lo, hi, below)

    @pytest.mark.parametrize("bits", [8, 64, 200])
    def test_encloses_gap_factors(self, bits):
        rng = random.Random(bits + 1)
        sizes = [2, 3, 5, 1 << 10, (1 << 64) - 1, 1 << 5000]
        sizes += [rng.getrandbits(rng.randrange(2, 5001)) | 2 for _ in range(10)]
        for a in sizes:
            assert_encloses(Fraction(a * a - 1, a * a), bits)

    @pytest.mark.parametrize("bits", [8, 64, 200])
    def test_encloses_random_fractions(self, bits):
        rng = random.Random(bits + 2)
        for _ in range(25):
            num = rng.getrandbits(rng.randrange(1, 4001)) | 1
            den = rng.getrandbits(rng.randrange(1, 4001)) | 1
            assert_encloses(Fraction(num, den), bits)


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

    @pytest.mark.parametrize(
        "value, text",
        [(Fraction(5, 2), "3"), (Fraction(7, 3), "2"), (Fraction(-5, 2), "-3"), (Fraction(-1, 3), "0")],
    )
    def test_no_fraction_digits(self, value, text):
        assert format_decimal(value, 0) == text

    def test_rejects_negative_digits(self):
        with pytest.raises(ValueError):
            format_decimal(Fraction(1, 2), -1)


class TestFormatRatio:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(10**30), 10**30),
        st.integers(1, 10**20),
        st.integers(1, 10**6),
        st.integers(0, 15),
    )
    def test_equals_format_decimal_of_the_fraction(self, num, den, factor, digits):
        # Unreduced pairs: the common factor changes no digit.
        text = format_decimal(Fraction(num, den), digits)
        assert format_ratio(num, den, digits) == text
        assert format_ratio(num * factor, den * factor, digits) == text

    @pytest.mark.parametrize(
        "num, den, text",
        [(1, 8, "0.13"), (-1, 8, "-0.13"), (3, 24, "0.13"), (-3, 24, "-0.13"), (1, 200, "0.01")],
    )
    def test_ties_round_half_away_from_zero(self, num, den, text):
        assert format_ratio(num, den, 2) == text
        assert format_decimal(Fraction(num, den), 2) == text

    def test_rejects_negative_digits(self):
        with pytest.raises(ValueError):
            format_ratio(1, 2, -1)


class TestEnvPrecision:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("CNL_PRECISION_BITS", raising=False)
        assert log_bits() == 64

    def test_override_flows_into_logs(self, monkeypatch):
        # The override reaches a logarithm only through log_bits, which
        # `cnl dim` reads; a library call without bits stays at 64.
        monkeypatch.setenv("CNL_PRECISION_BITS", "32")
        assert log_bits() == 32
        assert hp_ln(2) == hp_ln(2, bits=64)
        assert hp_ln(3) == hp_ln(3, bits=64)
        for end in hp_ln(2):
            assert abs(end - LN2_NUM) <= 1
        x = Fraction(2, 3)
        assert sqrt_lower(x) == sqrt_lower(x, bits=64) != sqrt_lower(x, bits=32)

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
        value = 10**6000 + 123  # 6001 digits
        text = int_text(value)
        assert text == "1" + "0" * 5997 + "123"
        assert fraction_text(Fraction(value, 7)) == text + "/7"
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() in (0, 4300)

    @pytest.mark.parametrize("digits", [4299, 4300, 4301])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_both_sides_of_the_digit_limit(self, digits, sign):
        value = sign * (10 ** (digits - 1) + 987654321)
        assert len(int_text(abs(value))) == digits
        assert int_text(value) == str(Decimal(value))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_under_a_lowered_digit_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for value in (10**639 + 1, -(10**639) - 1, 10**640 + 1, -(3**5000)):
                assert int_text(value) == str(Decimal(value))
            assert fraction_text(Fraction(10**700 + 1, 3)) == f"{Decimal(10**700 + 1)}/3"
        finally:
            sys.set_int_max_str_digits(old)
        assert sys.get_int_max_str_digits() == old


def decimal_digits(text: str) -> int:
    """The integer with decimal ``text``, built 4000 digits at a time, so it
    needs no conversion past the int-to-str digit limit."""
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestSplitIntegerText:
    """Past the str limit, int_text splits at powers of two and joins the
    halves' decimals exactly; ``str(Decimal(v))`` is the reference."""

    @pytest.mark.parametrize("digits", [4301, 5000, 9999, 40_000, 90_000])
    def test_random_integers(self, digits):
        rng = random.Random(digits)
        for _ in range(3):
            value = rng.randrange(10 ** (digits - 1), 10**digits)
            assert int_text(value) == str(Decimal(value))
            assert int_text(-value) == str(Decimal(-value))

    @pytest.mark.parametrize("digits", [4300, 16_384, 87_000])
    def test_powers_of_ten_and_their_neighbours(self, digits):
        power = 10**digits
        for value in (power - 1, power, power + 1, -power):
            assert int_text(value) == str(Decimal(value))

    def test_three_hundred_thousand_digits(self):
        rng = random.Random(300_000)
        text = str(rng.randrange(1, 10)) + "".join(
            str(rng.randrange(10**9)).zfill(9) for _ in range(33_333)
        ) + "42"
        value = decimal_digits(text)
        assert len(text) == 300_000
        assert int_text(value) == text
        assert int_text(-value) == "-" + text
        assert int_text(10**300_000) == "1" + "0" * 300_000

    @pytest.mark.parametrize("bits", [8191, 8192, 8193, 16_384, 16_385, 65_536])
    def test_powers_of_two_at_the_split_widths(self, bits):
        for value in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1):
            assert str(numeric._decimal(value)) == str(Decimal(value))


def int_text_runs():
    """Runs of integers for ``IntTexts``, each step of a kind it must handle."""
    start = 2**14270  # 4296 digits: doubling crosses 4300 within a few steps
    yield [start << i for i in range(20)]
    yield [7, 21, 210, 630, 6300, 3**2000, 3**2001, 10 * 3**2001, 10 * 3**2001]
    # x(2**64 + 1) adds 65 bits to 2**9000 - 1, past the quotient bound, and
    # 64 to 5**3000, within it; x(2**64 - 1) adds at most 64.
    big = 2**9000 - 1
    yield [big, big * (2**64 + 1), big * (2**64 + 1) * (2**64 - 1), 2**64 * big]
    yield [5**3000, 5**3000 * (2**64 + 1), 5**3000 * (2**64 + 1) * 2]
    yield [big, big // 3, big // 3 + 1, 0, 0, 12, -24, -48, 96, -(big << 1), big << 2, 1, -1]
    # Near-multiples prev * m + r with |r| < 2**64: positive r, negative r
    # (3 prev - 1 is prev * 3 - 1, not prev * 2 + (prev - 1)), 65-bit r
    # either way, which falls back to int_text, and negative values.
    third = 3**2000
    yield near_multiples(third, [(3, 1), (3, 2), (3, 2**64 - 1), (1, 5), (2**64, 1)])
    yield near_multiples(third, [(3, -1), (3, -2), (3, 1 - 2**64), (2, -7)])
    yield near_multiples(third, [(3, 2**64), (3, -(2**64)), (3, 1), (3, 2**65 + 1)])
    yield near_multiples(-third, [(3, 0), (-3, 2), (3, -(2**63)), (-1, 0), (2, 1), (-3, -1)])


def near_multiples(start: int, steps) -> list[int]:
    """``start``, then each value the previous one times m plus r, for (m, r) in ``steps``."""
    run = [start]
    for m, r in steps:
        run.append(m * run[-1] + r)
    return run


class TestIntTexts:
    @pytest.mark.parametrize("run", list(int_text_runs()))
    def test_matches_int_text(self, run):
        texts = IntTexts()
        assert [texts(value) for value in run] == [int_text(value) for value in run]

    def test_multiples_skip_int_text(self, monkeypatch):
        # Only the first value and the step of 65 more bits are converted whole.
        converted = []
        monkeypatch.setattr(numeric, "int_text", lambda v: converted.append(v) or str(v))
        run = [(2**9000 - 1) << i for i in range(50)]
        run += [run[-1] * (2**64 + 1), run[-1] * (2**64 + 1) * 3]
        texts = IntTexts()
        assert [texts(value) for value in run] == [str(value) for value in run]
        assert converted == [run[0], run[-2]]

    def test_near_multiples_skip_int_text(self, monkeypatch):
        # Only the first value and the steps whose remainder needs 65 bits
        # either way (prev * 3 + 2**64 and prev * -3 - 2**64 - 1) are
        # converted whole.
        converted = []
        monkeypatch.setattr(numeric, "int_text", lambda v: converted.append(v) or str(v))
        steps = [(3, -1), (3, 1), (3, 2**64 - 1), (3, 2**64), (-3, -(2**64) - 1), (9, -3), (3, 5)]
        run = near_multiples(3**2000, steps)
        texts = IntTexts()
        assert [texts(value) for value in run] == [str(value) for value in run]
        assert converted == [run[0], run[4], run[5]]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("run", list(int_text_runs()))
    def test_under_a_lowered_digit_limit(self, run):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            texts = IntTexts()
            assert [texts(value) for value in run] == [int_text(value) for value in run]
            assert [int_text(value) for value in run] == [str(Decimal(value)) for value in run]
        finally:
            sys.set_int_max_str_digits(old)
