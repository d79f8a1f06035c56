"""Fixed-point numeric helpers backing the otherwise exact rational pipeline.

Everything else in the package computes with exact rationals.  The two
quantities that cannot be exact are natural logarithms (growth traces,
dimension traces) and the square root inside the refined discrepancy
bound.  Logarithms are returned as fractions with a power-of-two
denominator carrying a configurable number of fractional bits; the
square root is rounded downward so bounds built from it stay valid.
"""

from __future__ import annotations

import os
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import isqrt

_ENV_BITS = "CNL_PRECISION_BITS"
_DEFAULT_BITS = 64
_MIN_BITS = 8


def log_bits() -> int:
    """Fractional bits used for logarithm fixed points (env override)."""
    raw = os.environ.get(_ENV_BITS)
    if raw is None:
        return _DEFAULT_BITS
    bits = int(raw)
    if bits < _MIN_BITS:
        raise ValueError(f"{_ENV_BITS} must be at least {_MIN_BITS}, got {bits}")
    return bits


def hp_ln(x: int | Fraction, bits: int | None = None) -> Fraction:
    """Natural log of a positive integer or fraction, as a dyadic fraction.

    The result has denominator 2**bits and is correctly rounded to that
    grid, so the absolute error is at most 2**-(bits+1).
    """
    if bits is None:
        bits = log_bits()
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
    else:
        num, den = int(x), 1
    if num <= 0:
        raise ValueError("hp_ln requires a positive argument")
    if num == den:
        return Fraction(0)
    # Integer part of ln never exceeds 0.694 * bit length; size the
    # working precision from that plus the requested fractional digits.
    mag = max(num.bit_length(), den.bit_length())
    prec = len(str(mag)) + 1 + (bits * 302) // 1000 + 25
    scale = 1 << bits
    with localcontext() as ctx:
        ctx.prec = prec
        val = Decimal(num).ln()
        if den != 1:
            val -= Decimal(den).ln()
        scaled = (val * scale).to_integral_value(rounding=ROUND_HALF_EVEN)
    return Fraction(int(scaled), scale)


def sqrt_lower(x: Fraction, bits: int | None = None) -> Fraction:
    """A rational lower bound for sqrt(x), within 2**-bits of the truth."""
    if bits is None:
        bits = log_bits()
    if x < 0:
        raise ValueError("sqrt_lower requires a nonnegative argument")
    shifted = (x.numerator << (2 * bits)) // x.denominator
    return Fraction(isqrt(shifted), 1 << bits)


def int_text(value: int) -> str:
    """Exact decimal text of an integer of any size.

    Goes through ``Decimal``, which converts exactly and is not bound by
    the interpreter's limit on int-to-str digits (4300 by default on
    3.10.7+ and 3.11+); the process-wide limit is left as it is.
    """
    return str(Decimal(value))


def fraction_text(value: Fraction) -> str:
    """``str(value)`` ("num/den", or "num" for an integer), without a digit limit."""
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


def format_decimal(value: Fraction, digits: int = 12) -> str:
    """Fixed-point decimal rendering, deterministic half-up rounding."""
    num, den = value.numerator, value.denominator
    negative = num < 0
    num = abs(num)
    scaled, rem = divmod(num * 10**digits, den)
    if 2 * rem >= den:
        scaled += 1
    text = str(scaled).rjust(digits + 1, "0")
    body = f"{text[:-digits]}.{text[-digits:]}"
    return f"-{body}" if negative and scaled else body
