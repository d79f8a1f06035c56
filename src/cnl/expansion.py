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

A ``DigitStream`` is a finite list of digits, checked against its base
rule when it is built; functions that read a stream read its rule too.
``level_points`` is the one way to get packed points with their bases:
a stream's digits at a chain level and shift, each packed position's
base computed once.
"""

from __future__ import annotations

import json
import operator
import os
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

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
    """A finite digit sequence against a base rule, checked when built.

    ``digits`` become a list of ints by ``operator.index``, range-checked
    along one walk of ``rule`` by one ``min`` and one C-level comparison
    against the walk; a digit out of range sends the list through
    ``_checked``, which raises its error at its position.  ``limit`` is
    the number of digits.
    """

    def __init__(self, rule: BasicSequenceRule, digits: Iterable[int]):
        try:
            values = list(map(operator.index, digits))
        except TypeError as exc:
            raise DigitError(f"digits must be integers: {exc}") from exc
        if values and (min(values) < 0 or any(map(operator.ge, values, rule.iter_values(1)))):
            values = list(_checked(rule, values))
        self.rule = rule
        self.digit_list = values
        self.limit = len(values)

    def digit(self, n: int) -> int:
        if n < 1:
            raise DigitError(f"digit positions start at 1, got {n}")
        if n > self.limit:
            raise DigitError(f"digit {n} unavailable (stream ends at {self.limit})")
        return self.digit_list[n - 1]

    def prefix(self, n: int) -> list[int]:
        return self.digits(range(1, n + 1))

    def digits(self, positions: range) -> list[int]:
        """The digits at ``positions``, a range of positions with a positive
        step, as one slice of the list."""
        if not positions:
            return []
        self.digit(positions.start)
        self.digit(positions[-1])
        return self.digit_list[positions.start - 1 : positions[-1] : positions.step]


def _checked(rule: BasicSequenceRule, digits: Iterable[int]) -> Iterator[int]:
    """``digits``, the digits at positions 1, 2, ..., each checked against
    its base from one walk of ``rule``."""
    for pos, (value, q) in enumerate(zip(digits, rule.iter_values()), 1):
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
    return DigitStream(rule, digits)


def mixed_radix(stream: DigitStream, positions: range) -> tuple[int, int]:
    """The digits at ``positions``, a range of consecutive positions, read
    as one mixed-radix fraction.

    Returns (num, den): den is the product of the bases q_p of the
    stream's rule, read from one walk, and num / den = sum of E_p over the
    running base products.
    """
    num, den = 0, 1
    for pos, q in zip(positions, stream.rule.iter_values(positions.start)):
        num = num * q + stream.digit(pos)
        den *= q
    return num, den


def evaluate(stream: DigitStream, n: int) -> Fraction:
    """Exact value of the n-digit prefix, in [0, 1)."""
    if n < 0:
        raise DigitError("prefix length must be >= 0")
    return Fraction(*mixed_radix(stream, range(1, n + 1)))


def t_enclosure(stream: DigitStream, n: int, depth: int) -> tuple[Fraction, Fraction]:
    """Interval certain to contain T_n(x) for any tail extension.

    The lower edge is the value of the digits n+1 .. n+depth read in
    the shifted base; the upper edge adds one ulp of that prefix.
    """
    if depth < 1:
        raise DigitError("enclosure depth must be >= 1")
    num, den = mixed_radix(stream, range(n + 1, n + depth + 1))
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
    return sum(digits[p : p + len(entries)] == entries for p in range(n))


def transcode(stream: DigitStream, spec: ChainSpec, j: int) -> DigitStream:
    """Digits of the same number in chain base j.

    Each coarse digit packs a block of S_j source digits with their
    mixed-radix weights, so prefix values are preserved exactly.  Only
    complete blocks count.  Independent of ``level_points``, which tests
    read against it.
    """
    rule = spec.rule(j)
    if rule is spec.base:
        return stream
    blocks = map(rule.block, range(1, rule.blocks_in(stream.limit) + 1))
    return DigitStream(rule, (mixed_radix(stream, block)[0] for block in blocks))


def transcode_inverse(stream: DigitStream, spec: ChainSpec, j: int) -> DigitStream:
    """Base digits recovered from a level-j digit stream.

    Inverse of ``transcode``: each coarse digit is decomposed once, by
    successive division, into its block of S_j base digits, the bases
    read from one walk of the base rule.
    """
    rule = spec.rule(j)
    if rule is spec.base:
        return stream
    bases = spec.base.iter_values()
    fine: list[int] = []
    for block, value in enumerate(stream.digit_list, 1):
        digits = []
        for q in reversed(list(islice(bases, rule.s))):
            value, d = divmod(value, q)
            digits.append(d)
        if value:
            raise DigitError(f"coarse digit at block {block} exceeds its base")
        fine.extend(reversed(digits))
    return DigitStream(spec.base, fine)


def level_points(
    stream: DigitStream, spec: ChainSpec, j: int, k: int = 0
) -> tuple[list[int], list[int]]:
    """The stream's digits at chain level j and shift k, with their bases.

    Point n is nums[n-1] / dens[n-1], the source digits at
    ``spec.rule(j, k).block(n)`` read as one mixed-radix fraction; only
    complete blocks count.  dens equals ``spec.rule(j, k).values(len(dens))``,
    but the bases come from one walk of the base rule, a chunk of blocks
    at a time, packed one Horner column (digit c of each block) at a time:
    by shifts if the column's bases are powers of two, else multiplies.
    At level 1 the points are the digits themselves.
    """
    rule = spec.rule(j, k)
    total = stream.limit
    if rule is spec.base:
        return stream.prefix(total), spec.base.values(total)
    bases = spec.base.iter_values()
    nums, dens = [], []
    pos, width, left = 0, rule.k, rule.blocks_in(total)
    while left > 0:
        size = min(left, -(-512 // width) if pos else 1)  # block 1 alone
        end = pos + size * width
        ds, qs = stream.digit_list[pos:end], list(islice(bases, end - pos))
        num, den = ds[::width], qs[::width]
        for c in range(1, width):
            q = qs[c::width]
            step = operator.mul
            if not any(map(operator.and_, q, map(operator.sub, q, repeat(1)))):
                step, q = operator.lshift, list(map(operator.sub, map(int.bit_length, q), repeat(1)))
            num = map(operator.add, map(step, num, q), ds[c::width])
            den = map(step, den, q)
        nums += num
        dens += den
        pos, width, left = end, rule.s, left - size
    return nums, dens


class Census(NamedTuple):
    zero_count: int
    value_set: frozenset[int]


def digit_census(digits: Sequence[int]) -> Census:
    """Zero count and the set of positive values among ``digits``."""
    return Census(zero_count=digits.count(0), value_set=frozenset(d for d in digits if d > 0))


@contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """A text file opened beside ``path`` and renamed into place when the
    block ends; on any exception it is removed, so no partial file shows.
    Line ends are written as given."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_RECORD = '{"n": %d, "E": "%x"}\n'


def save_jsonl(rule: BasicSequenceRule, digits: Iterable[int], path) -> None:
    """Header {"format": 2, "ints": "hex", "rule": <rule>}, then one
    {"n": pos, "E": "<hex>"} per digit, written through ``atomic_write``
    as ``digits`` yields it; the digits are not checked here, and
    ``load_jsonl`` checks them against the rule."""
    header = {"format": 2, "ints": "hex", "rule": rule_to_json(rule)}
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.writelines(_RECORD % record for record in enumerate(digits, 1))


def load_jsonl(path, rule: Optional[BasicSequenceRule] = None) -> DigitStream:
    """Read a digit file written by ``save_jsonl``.  A given ``rule`` must
    serialize to the header's; each digit is checked against its base.

    A record line that equals ``_RECORD % (pos, int(text, 16))`` for its own
    digit text is read without a JSON parse; any other line, and so every
    malformed one, goes through ``json.loads`` and keeps its error.
    """
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
                try:
                    value = int(line[line.find('"E": "') + 6 : -3], 16)
                except ValueError:
                    value = None
                if value is None or line != _RECORD % (pos, value):
                    record = json.loads(line)
                    if record["n"] != pos:
                        raise DigitError(f"record {pos} carries position {record['n']!r}")
                    value = int(record["E"], 16)
                digits.append(value)
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DigitError(f"bad digit file {path}: {exc!r}") from exc
    if not digits:
        raise DigitError(f"digit file {path} holds no digits")
    return DigitStream(rule or file_rule, digits)
