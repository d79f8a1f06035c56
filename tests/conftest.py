"""Shared fixtures: the doubling-chain test configuration and oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cnl.dimension import DimensionTraceRow, theta_dimension_trace
from cnl.numeric import hp_ln
from cnl.sequences import ChainSpec, ConstantRule, GeometricRule, growth_condition_trace
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


@pytest.fixture(scope="session")
def spec_a() -> ChainSpec:
    return doubling_spec()


@pytest.fixture(scope="session")
def schedule_a(spec_a):
    return build_schedule(spec_a)


@pytest.fixture(scope="session")
def stream_a(schedule_a):
    return generate_digits(schedule_a, SelectionPolicy("min"), STREAM_LEN)


def trace_rows(schedule, horizon: int, bits: int | None = None) -> list[DimensionTraceRow]:
    """The rows of ``theta_dimension_trace``, collected through its ``emit``."""
    rows: list[DimensionTraceRow] = []
    theta_dimension_trace(schedule, horizon, bits, emit=rows.append, growth=lambda *_: None)
    return rows


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
