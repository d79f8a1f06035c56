"""Shared fixtures: the doubling-chain test configuration and oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import pytest

from cnl.dimension import DimensionTraceRow, theta_dimension_trace
from cnl.expansion import DigitStream
from cnl.numeric import _ln_int, hp_ln
from cnl.sequences import (
    ChainSpec,
    ConstantRule,
    ExplicitListRule,
    GeometricRule,
    growth_condition_trace,
)
from cnl.theta import (
    SelectionPolicy,
    build_schedule,
    extract_y_prefix,
    generate_digits,
    prefix_bound_check,
)

STREAM_LEN = 5000


def doubling_spec(depth: int = 4) -> ChainSpec:
    """q_n = 2**(n+3) contracted by a constant step of 2."""
    return ChainSpec(base=GeometricRule(8, 2), s=ConstantRule(2), depth=depth)


def short_list_spec(length=200):
    """The doubling base cut to ``length`` values: the schedule builds (its
    level openings and thresholds lie inside the list) but covers 36288."""
    base = ExplicitListRule([2 ** (n + 3) for n in range(1, length + 1)], monotone_tail_from=1)
    return ChainSpec(base=base, s=ConstantRule(2), depth=4)


@pytest.fixture(scope="session")
def spec_a() -> ChainSpec:
    return doubling_spec()


@pytest.fixture(scope="session")
def schedule_a(spec_a):
    return build_schedule(spec_a)


@pytest.fixture(scope="session")
def stream_a(schedule_a):
    return generated(schedule_a, SelectionPolicy("min"), STREAM_LEN)


def generated(schedule, policy, n: int) -> DigitStream:
    """The first n digits ``generate_digits`` draws, held for random access."""
    return DigitStream(schedule.spec.base, generate_digits(schedule, policy, n))


def trace_rows(schedule, horizon: int, bits: int | None = None) -> list[DimensionTraceRow]:
    """The rows of ``theta_dimension_trace``, collected through its ``emit``."""
    rows: list[DimensionTraceRow] = []
    theta_dimension_trace(schedule, horizon, bits, emit=rows.append, growth=lambda *_: None)
    return rows


class Ratios(NamedTuple):
    log2_eps: Fraction
    d_exact: Fraction
    d_bound: Fraction


def row_ratios(row: DimensionTraceRow) -> Ratios:
    """A trace row's integer pairs as ``Fraction``s."""
    return Ratios(
        Fraction(row.log2_eps_num, row.ln2_lo),
        Fraction(row.d_exact_num, row.d_exact_den),
        Fraction(row.d_bound_num, row.d_bound_den),
    )


def hp_ln_reference(x: int | Fraction, bits: int | None = None) -> tuple[int, int]:
    """``hp_ln`` as one formula for integers and fractions alike: an
    integer is read as a fraction over 1, whose ln is taken too."""
    bits = 64 if bits is None else bits
    num, den = x.numerator, x.denominator
    mag = max(num.bit_length(), den.bit_length()).bit_length()
    work = bits + 20 + mag + bits.bit_length()
    num_lo, num_hi = _ln_int(num, work)
    den_lo, den_hi = _ln_int(den, work)
    shift = work - bits
    return (num_lo - den_hi) >> shift, -((den_lo - num_hi) >> shift)


def ln_enclosures(rule, bits: int | None = None):
    """``hp_ln(q, bits)`` for the rule's values q_1, q_2, ..."""
    return (hp_ln(q, bits) for q in rule.iter_values())


def growth_ratios(rule, horizon: int, bits: int | None = None) -> tuple[list[Fraction], str]:
    """The ratios ``growth_condition_trace`` emits for k = 2 .. horizon, and its flag."""
    ratios: list[Fraction] = []

    def collect(k: int, hi: int, running: int) -> None:
        assert k == len(ratios) + 2 and running > 0
        ratios.append(Fraction(hi, running))

    return ratios, growth_condition_trace(ln_enclosures(rule, bits), horizon, emit=collect)


def envelope_check(schedule, stream, j: int, lengths):
    """``prefix_bound_check`` over level j's sampled points in the whole stream."""
    nums, dens = extract_y_prefix(schedule, stream, j, stream.limit)
    return prefix_bound_check(schedule, j, nums, dens, lengths)


def walk_filter_y_prefix(schedule, stream, j: int, n: int) -> tuple[list[int], list[int]]:
    """Reference for ``extract_y_prefix``: walk every position past L_j up
    to n and keep those at block offsets 1, 1 + S_j, ... ."""
    nums: list[int] = []
    dens: list[int] = []
    start, step = schedule.big_l(j) + 1, schedule.big_s(j)
    if n < start:
        return nums, dens
    for info, q in islice(schedule.walk(start), n - start + 1):
        if (info.offset - 1) % step == 0:
            nums.append(stream.digit(info.n))
            dens.append(q)
    return nums, dens


def brute_force_star_discrepancy(points) -> Fraction:
    """Independent oracle: breakpoint supremum by direct counting.

    The empirical count A(gamma) = #{x < gamma} is a step function, so
    the supremum of |A/n - gamma| is attained as a one-sided limit at a
    point value: evaluate |#{x < v}/n - v| and |#{x <= v}/n - v| at
    every distinct v (the right limit covers gamma just above v).
    """
    values = [Fraction(p) for p in points]
    n = len(values)
    best = Fraction(0)
    for v in sorted(set(values)):
        c_lt = sum(1 for x in values if x < v)
        c_le = sum(1 for x in values if x <= v)
        for candidate in (abs(Fraction(c_lt, n) - v), abs(Fraction(c_le, n) - v)):
            if candidate > best:
                best = candidate
    return best
