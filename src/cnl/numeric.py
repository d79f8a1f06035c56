"""Fixed-point numeric helpers backing the otherwise exact rational pipeline.

Everything else in the package computes with exact rationals.  The two
quantities that cannot be exact are natural logarithms (growth traces,
dimension traces) and the square root inside the refined discrepancy
bound.  A logarithm is an enclosure of two integers over 2**bits, for a
configurable number of fractional bits; the square root is rounded
downward.  Either way, bounds built from them stay valid.
"""

from __future__ import annotations

import os
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import lru_cache
from math import isqrt

_ENV_BITS = "CNL_PRECISION_BITS"
_DEFAULT_BITS = 64
_MIN_BITS = 8


def log_bits() -> int:
    """CNL_PRECISION_BITS, or 64: the ``bits`` that ``cnl dim`` passes down."""
    raw = os.environ.get(_ENV_BITS)
    if raw is None:
        return _DEFAULT_BITS
    bits = int(raw)
    if bits < _MIN_BITS:
        raise ValueError(f"{_ENV_BITS} must be at least {_MIN_BITS}, got {bits}")
    return bits


def hp_ln(x: int | Fraction, bits: int | None = None) -> tuple[int, int]:
    """Integers ``(lo, hi)`` with lo <= 2**bits * ln(x) <= hi <= lo + 2, for a
    positive integer or fraction x.

    Numerator and denominator are each n = 2**e * y with y in [1, 2), and
    ln y = 2 atanh((y - 1)/(y + 1)) is summed in integers with guard bits.
    ``bits`` None means 64.
    """
    bits = _DEFAULT_BITS if bits is None else bits
    if x <= 0:
        raise ValueError("hp_ln requires a positive argument")
    # Extra guard bits absorb e * (error of ln 2) for exponents e < 2**mag.
    if isinstance(x, int):  # the denominator 1 adds ln 1 = 0
        work = bits + 20 + x.bit_length().bit_length() + bits.bit_length()
        lo, hi = _ln_int(x, work)
        return lo >> (work - bits), -(-hi >> (work - bits))
    num, den = x.numerator, x.denominator
    mag = max(num.bit_length(), den.bit_length()).bit_length()
    work = bits + 20 + mag + bits.bit_length()
    num_lo, num_hi = _ln_int(num, work)
    den_lo, den_hi = _ln_int(den, work)
    shift = work - bits
    return (num_lo - den_hi) >> shift, -((den_lo - num_hi) >> shift)


def _ln_int(n: int, work: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2**work * ln(n) <= hi, for an integer n >= 1."""
    e = n.bit_length() - 1
    if e == 0:
        return 0, 0
    # y as Y / 2**work, cut down by less than 2**-work: ln y rises by less
    # than one unit between the two, hence the + 1.
    y = n >> (e - work) if e > work else n << (work - e)
    y_lo, y_err = _atanh_series(y - (1 << work), y + (1 << work), work)
    two_lo, two_err = _ln2(work)
    return e * two_lo + y_lo, e * (two_lo + two_err) + y_lo + y_err + 1


@lru_cache(maxsize=None)
def _ln2(work: int) -> tuple[int, int]:
    return _atanh_series(1, 3, work)


def _atanh_series(num: int, den: int, work: int) -> tuple[int, int]:
    """A lower bound of 2**work * 2 atanh(num/den), for 0 <= num/den <= 1/3,
    and the most it can fall short by: every step truncates down, cutting z
    costs under 9/4 units, each term under 3 and the tail under 4.
    """
    z = (num << work) // den
    z2 = (z * z) >> work
    total, power, k = 0, z, 1
    while power:
        total += power // k
        power = (power * z2) >> work
        k += 2
    return 2 * total, 3 * (k // 2) + 7


def sqrt_lower(x: Fraction, bits: int | None = None) -> Fraction:
    """A rational lower bound for sqrt(x), within 2**-bits of the truth;
    ``bits`` None means 64."""
    bits = _DEFAULT_BITS if bits is None else bits
    if x < 0:
        raise ValueError("sqrt_lower requires a nonnegative argument")
    shifted = (x.numerator << (2 * bits)) // x.denominator
    return Fraction(isqrt(shifted), 1 << bits)


# Exact decimal arithmetic: any rounding raises instead of happening.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
# Integers up to this many bits convert directly; Decimal(int) is quadratic.
_SPLIT_BITS = 8192


def int_text(value: int) -> str:
    """Exact decimal text of an integer of any size; ``IntTexts`` writes a
    run of related integers in linear time.

    ``str`` serves integers within the interpreter's limit on int-to-str
    digits (4300 by default on 3.10.7+ and 3.11+; the limit is left as it
    is) and raises ``ValueError`` past it; those go through ``_decimal``,
    which is exact, not bound by the limit, and subquadratic.
    """
    try:
        return str(value)
    except ValueError:
        return str(_decimal(value))


def _decimal(value: int) -> Decimal:
    """``Decimal(value)``, in time subquadratic in the digits: a wide value
    is split at 2**k, k the largest power of two below its width, and the
    halves' decimals are joined by an exact multiply by 2**k and an add."""
    bits = value.bit_length()
    if bits <= _SPLIT_BITS:
        return Decimal(value)
    k = 1 << ((bits - 1).bit_length() - 1)
    high = _EXACT.multiply(_decimal(value >> k), _power_of_two(k))
    return _EXACT.add(high, _decimal(value & ((1 << k) - 1)))


@lru_cache(maxsize=None)
def _power_of_two(k: int) -> Decimal:
    return _EXACT.power(2, k)


class IntTexts:
    """``int_text`` across a run of integers.  A value of at most 64 more
    bits than the previous one that is the previous one times an integer m
    plus r, |r| < 2**64, is the previous ``Decimal`` times m plus r, exact
    or raising, and one ``str``, all linear in the digits; others go
    through ``int_text``.  A shift and a compare find m when it is a power
    of two (doubling omega_k), else one ``divmod`` gives m or m + 1 (ratio-3
    omega_k is 3 omega_(k-1) plus or minus a small remainder)."""

    def __init__(self) -> None:
        self._prev, self._decimal = 0, Decimal(0)

    def __call__(self, value: int) -> str:
        prev, self._prev = self._prev, value
        shift = value.bit_length() - prev.bit_length()
        if prev and 0 <= shift <= 64:
            if value == prev << shift:
                m, rem = 1 << shift, 0
            else:
                m, rem = divmod(value, prev)
                if rem.bit_length() > 64:
                    m, rem = m + 1, rem - prev
            if rem.bit_length() <= 64:
                self._decimal = _EXACT.multiply(self._decimal, m)
                if rem:
                    self._decimal = _EXACT.add(self._decimal, rem)
                return str(self._decimal)
        text = int_text(value)
        self._decimal = Decimal(text)
        return text


def fraction_text(value: Fraction) -> str:
    """``str(value)`` ("num/den", or "num" for an integer), without a digit limit."""
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


def format_ratio(num: int, den: int, digits: int = 12) -> str:
    """Fixed-point decimal text of num/den, for den > 0 and any common factor,
    rounded half away from zero."""
    if digits < 0:
        raise ValueError(f"need digits >= 0, got {digits}")
    scaled, rem = divmod(abs(num) * 10**digits, den)
    if 2 * rem >= den:
        scaled += 1
    text = str(scaled).rjust(digits + 1, "0")
    body = f"{text[:-digits]}.{text[-digits:]}" if digits else text
    return f"-{body}" if num < 0 and scaled else body


def format_decimal(value: Fraction, digits: int = 12) -> str:
    """``format_ratio`` of a ``Fraction``."""
    return format_ratio(value.numerator, value.denominator, digits)
