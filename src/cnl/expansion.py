"""Digit expansion, evaluation, orbit enclosures, and chain transcoding.

The digit system is mixed radix: a number x in [0,1) has digits E_n
with 0 <= E_n <= q_n - 1 and value sum E_n / (q_1 ... q_n).  Expansions
of rationals use the greedy floor recurrence, which realizes the
uniqueness convention (the forbidden tail is the all-(q_n - 1) one, so
terminating expansions carry trailing zeros).

Pointwise evaluation of the shift orbit T_n(x) = (q_1 ... q_n) x mod 1
is not finitely computable for an infinitely specified number, so
``t_enclosure`` returns an interval certified to contain it; claims
like "T_n(x) < 1/2" become decidable whenever the upper edge clears
the threshold.

``level_points`` is the one way to get packed points with their bases:
a finite stream's digits at a chain level and shift, each packed
position's base computed once.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from .sequences import (
    BasicSequenceRule,
    ChainSpec,
    rule_from_json,
    rule_to_json,
)

__all__ = [
    "DigitError",
    "DigitStream",
    "expand",
    "mixed_radix",
    "evaluate",
    "t_enclosure",
    "count_block",
    "transcode",
    "transcode_inverse",
    "level_points",
    "Census",
    "digit_census",
    "atomic_write",
    "save_jsonl",
    "load_jsonl",
]

class DigitError(ValueError):
    """Digit out of range, missing, or otherwise invalid."""


class DigitStream:
    """Lazily generated digit sequence against a base rule.

    Digits are produced by a pure position-indexed function and cached,
    or given as a list (``from_list``).  ``limit`` bounds the available
    positions for finitely described sources.
    """

    def __init__(
        self,
        rule: BasicSequenceRule,
        digit_fn: Callable[[int], int],
        limit: Optional[int] = None,
    ):
        self.rule = rule
        self._fn = digit_fn
        self._limit = limit
        self._cache: list[int] = []

    @property
    def limit(self) -> Optional[int]:
        return self._limit

    def digit(self, n: int) -> int:
        if n < 1:
            raise DigitError(f"digit positions start at 1, got {n}")
        if self._limit is not None and n > self._limit:
            raise DigitError(f"digit {n} unavailable (stream ends at {self._limit})")
        have = len(self._cache)
        if have < n:
            new = map(self._fn, range(have + 1, n + 1))
            self._cache.extend(_checked(self.rule, new, have + 1))
            if n == self._limit:
                # Every digit is cached; drop the function and what it holds.
                self._fn = None
        return self._cache[n - 1]

    def prefix(self, n: int) -> list[int]:
        if n >= 1:
            self.digit(n)
        return self._cache[:n]

    @staticmethod
    def from_list(rule: BasicSequenceRule, digits: Iterable[int]) -> "DigitStream":
        """A finite stream of ``digits``, range-checked now along one walk
        of ``rule``; the checked list is the stream's cache."""
        stream = DigitStream(rule, None)
        stream._cache = list(_checked(rule, map(int, digits), 1))
        stream._limit = len(stream._cache)
        return stream


def _checked(rule: BasicSequenceRule, digits: Iterable[int], start: int) -> Iterator[int]:
    """``digits``, the digits at positions start, start + 1, ..., each
    checked against its base from one walk of ``rule``."""
    for pos, (value, q) in enumerate(zip(digits, rule.iter_values(start)), start):
        if not 0 <= value <= q - 1:
            raise DigitError(f"digit {value} out of range [0, {q - 1}] at position {pos}")
        yield value


def expand(x: Fraction, rule: BasicSequenceRule, n_digits: int) -> DigitStream:
    """Greedy digit expansion of a rational in [0,1).

    The digits satisfy E_n = floor(q_1..q_n x) - q_n floor(q_1..q_{n-1} x)
    and the evaluated prefix differs from x by less than 1/(q_1..q_N).
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise DigitError(f"expand requires x in [0,1), got {x}")
    if n_digits < 1:
        raise DigitError("need at least one digit")
    digits: list[int] = []
    num, den = x.numerator, x.denominator
    for q in islice(rule.iter_values(), n_digits):
        digit, num = divmod(num * q, den)
        digits.append(digit)
    return DigitStream.from_list(rule, digits)


def mixed_radix(
    stream: DigitStream, rule: BasicSequenceRule, positions: range
) -> tuple[int, int]:
    """The digits at ``positions``, a range of consecutive positions, read
    as one mixed-radix fraction.

    Returns (num, den): den is the product of the bases q_p of ``rule``,
    read from one walk, and num / den = sum of E_p over the running base
    products.
    """
    num, den = 0, 1
    for pos, q in zip(positions, rule.iter_values(positions.start)):
        num = num * q + stream.digit(pos)
        den *= q
    return num, den


def evaluate(stream: DigitStream, rule: BasicSequenceRule, n: int) -> Fraction:
    """Exact value of the n-digit prefix, in [0, 1)."""
    if n < 0:
        raise DigitError("prefix length must be >= 0")
    return Fraction(*mixed_radix(stream, rule, range(1, n + 1)))


def t_enclosure(
    stream: DigitStream, rule: BasicSequenceRule, n: int, depth: int
) -> tuple[Fraction, Fraction]:
    """Interval certain to contain T_n(x) for any tail extension.

    The lower edge is the value of the digits n+1 .. n+depth read in
    the shifted base; the upper edge adds one ulp of that prefix.
    """
    if depth < 1:
        raise DigitError("enclosure depth must be >= 1")
    num, den = mixed_radix(stream, rule, range(n + 1, n + depth + 1))
    return Fraction(num, den), Fraction(num + 1, den)


def count_block(stream: DigitStream, block: Sequence[int], n: int) -> int:
    """Occurrences of the block starting at positions 1..n."""
    entries = [int(b) for b in block]
    if not entries:
        raise DigitError("blocks must be nonempty")
    if n < 0:
        raise DigitError("prefix length must be >= 0")
    if n == 0:
        return 0
    digits = stream.prefix(n + len(entries) - 1)
    count = 0
    for p in range(n):
        if digits[p : p + len(entries)] == entries:
            count += 1
    return count


def transcode(stream: DigitStream, spec: ChainSpec, j: int) -> DigitStream:
    """Digits of the same number in chain base j.

    Each coarse digit packs a block of S_j source digits with their
    mixed-radix weights, so prefix values are preserved exactly.  Lazy,
    so unlimited sources transcode too; ``level_points`` serves finite ones.
    """
    rule = spec.rule(j)
    if rule is spec.base:
        return stream

    def packed_digit(n: int) -> int:
        return mixed_radix(stream, spec.base, rule.block(n))[0]

    limit = None if stream.limit is None else rule.blocks_in(stream.limit)
    return DigitStream(rule, packed_digit, limit=limit)


def transcode_inverse(stream: DigitStream, spec: ChainSpec, j: int) -> DigitStream:
    """Base digits recovered from a level-j digit stream.

    Inverse of ``transcode``: each coarse digit is decomposed by
    successive division into its block of S_j base digits, once, with
    the block's bases from one walk; the last block decomposed is kept
    for the rest of its digits.
    """
    rule = spec.rule(j)
    if rule is spec.base:
        return stream
    base = spec.base
    decoded = (0, [])  # (block index, its base digits); blocks start at 1

    def fine_digit(n: int) -> int:
        nonlocal decoded
        block, offset = divmod(n - 1, rule.s)
        if decoded[0] != block + 1:
            positions = rule.block(block + 1)
            value = stream.digit(block + 1)
            digits = []
            for q in reversed(base.values(len(positions), positions.start)):
                value, d = divmod(value, q)
                digits.append(d)
            if value:
                raise DigitError(f"coarse digit at block {block + 1} exceeds its base")
            digits.reverse()
            decoded = (block + 1, digits)
        return decoded[1][offset]

    limit = None if stream.limit is None else stream.limit * rule.s
    return DigitStream(base, fine_digit, limit=limit)


def level_points(
    stream: DigitStream, spec: ChainSpec, j: int, k: int = 0
) -> tuple[list[int], list[int]]:
    """A finite stream's digits at chain level j and shift k, with their bases.

    Point n is nums[n-1] / dens[n-1], the source digits at
    ``spec.rule(j, k).block(n)`` read as one mixed-radix fraction; only
    complete blocks count.  dens equals ``spec.rule(j, k).values(len(dens))``,
    but the bases come from one walk of the base rule, each consumed by
    the Horner step that packs its digit: a shift for a power-of-two
    base, whose exponent is summed, and a multiply for any other.  At
    level 1 the points are the digits themselves.
    """
    rule = spec.rule(j, k)
    total = stream.limit
    if total is None:
        raise DigitError("level points need a finite stream")
    if rule is spec.base:
        return stream.prefix(total), spec.base.values(total)
    stream.digit(total)  # range-check every digit, then read the cache in place
    digits = iter(stream._cache)
    bases = spec.base.iter_values()
    width = rule.k
    nums, dens = [], []
    for _ in range(rule.blocks_in(total)):
        num, den, e = 0, 1, 0
        for digit, q in zip(islice(digits, width), bases):
            shift = q.bit_length() - 1
            if q == 1 << shift:
                # The Horner step by 2**shift is a shift; den keeps the exponent.
                num = (num << shift) + digit
                e += shift
            else:
                num = num * q + digit
                den *= q
        nums.append(num)
        dens.append(den << e)
        width = rule.s
    return nums, dens


class Census(NamedTuple):
    zero_count: int
    value_set: frozenset[int]


def digit_census(digits: Sequence[int]) -> Census:
    """Zero count and the set of positive values among ``digits``."""
    zeros = sum(1 for d in digits if d == 0)
    return Census(zero_count=zeros, value_set=frozenset(d for d in digits if d > 0))


@contextmanager
def atomic_write(path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """A text file opened beside ``path`` and renamed into place when the
    block ends; on any exception it is removed, so no partial file shows."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_jsonl(stream: DigitStream, n: int, path) -> None:
    """Header {"format": 2, "ints": "hex", "rule": <stream.rule>}, then one
    {"n": pos, "E": "<hex>"} per line, written through ``atomic_write``."""
    header = {"format": 2, "ints": "hex", "rule": rule_to_json(stream.rule)}
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for pos in range(1, n + 1):
            fh.write('{"n": %d, "E": "%x"}\n' % (pos, stream.digit(pos)))


def load_jsonl(path, rule: Optional[BasicSequenceRule] = None) -> DigitStream:
    """Read a digit file written by ``save_jsonl``.  A given ``rule`` must
    serialize to the header's; each digit is checked against its base."""
    digits: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            if (header["format"], header["ints"]) != (2, "hex"):
                raise DigitError(f"format {header['format']!r} is not 2 with hex digits")
            file_rule = rule_from_json(header["rule"])
            if rule is not None and rule_to_json(rule) != rule_to_json(file_rule):
                raise DigitError("written for a different base rule")
            for pos, line in enumerate(fh, start=1):
                record = json.loads(line)
                if record["n"] != pos:
                    raise DigitError(f"record {pos} carries position {record['n']!r}")
                digits.append(int(record["E"], 16))
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DigitError(f"bad digit file {path}: {exc!r}") from exc
    if not digits:
        raise DigitError(f"digit file {path} holds no digits")
    return DigitStream.from_list(rule or file_rule, digits)
