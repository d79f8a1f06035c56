"""Basic-sequence rules, contraction chains, and growth diagnostics.

A basic sequence is an integer sequence q_1, q_2, ... with every
q_n >= 2.  Rules here are finitely describable generators rather than
materialized arrays, because downstream digit schedules query positions
up to 10**5 whose values run to thousands of bits.

One contraction type serves every chain level: ``ContractionRule(base,
s, k)`` multiplies the first k base values, then s at a time, and
``ChainSpec.rule(j, k)`` is chain level j with shift k as one such rule
of the base.

``q(n)`` is random access: it derives position n from the rule's
parameters alone.  Bulk readers instead take ``iter_values(start)``, one
sequential walk, so a prefix of N values costs N steps rather than N
position lookups.  A walk raises ``OutOfDomainError`` at the same
position, with the same message, as ``q`` would.

Limit properties ("infinite in limit", "k-divergent") are never decided
by this module.  Operations emit finite-horizon evidence only, and the
schedule machinery requires callers to certify tail monotonicity via
``monotone_tail_from`` before anything scans for a threshold crossing.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from contextlib import suppress
from fractions import Fraction
from itertools import accumulate, chain, count, groupby, islice, repeat
from math import isqrt, prod
from typing import Callable, Iterable, Iterator, Optional

from .numeric import hp_ln  # noqa: F401  bench/test_harness.py reads this binding

__all__ = [
    "OutOfDomainError",
    "RuleError",
    "BasicSequenceRule",
    "ExplicitListRule",
    "ConstantRule",
    "GeometricRule",
    "BlockRepetitionRule",
    "ContractionRule",
    "block_positions",
    "ChainSpec",
    "reciprocal_sums",
    "partial_sum_qnk",
    "growth_condition_trace",
    "rule_to_json",
    "json_int",
    "rule_from_json",
]


class OutOfDomainError(ValueError):
    """Query past the end of a finitely described rule."""


class RuleError(ValueError):
    """Invalid rule parameters."""


def _index(value, name: str) -> int:
    """An integer argument: what ``operator.index`` takes, so no float is truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise RuleError(f"{name} must be an integer, got {value!r}") from None


class BasicSequenceRule:
    """Generator of integer bases q_n >= 2 for n = 1, 2, ...

    ``monotone_tail_from`` is the index from which q is certified
    nondecreasing, or None when no certificate exists.  Values are pure
    functions of the position, immutable after construction, and safe
    to query concurrently.
    """

    kind = "abstract"

    def __init__(self, monotone_tail_from: Optional[int] = None):
        if monotone_tail_from is not None and _index(monotone_tail_from, "monotone_tail_from") < 1:
            raise RuleError("monotone_tail_from must be a positive index")
        self.monotone_tail_from = monotone_tail_from

    @property
    def domain_max(self) -> Optional[int]:
        return None

    def q(self, n: int) -> int:
        raise NotImplementedError

    def _check_position(self, n: int) -> None:
        if n < 1:
            raise OutOfDomainError(f"positions start at 1, got {n}")
        limit = self.domain_max
        if limit is not None and n > limit:
            raise OutOfDomainError(f"position {n} past end of {self.kind} rule (length {limit})")

    def iter_values(self, start: int = 1) -> Iterator[int]:
        """q(start), q(start + 1), ... as one sequential walk.

        Each rule kind gives it as a few C-level runs (``_runs``),
        chained and checked from the first read; it raises where ``q`` would.
        """
        return chain.from_iterable(self._runs(start))

    def _runs(self, start: int) -> Iterator[Iterable[int]]:
        raise NotImplementedError

    def values(self, count: int) -> list[int]:
        """q(1) .. q(count), from one walk."""
        return list(islice(self.iter_values(), count))

    def params_json(self) -> dict:
        raise NotImplementedError


class ExplicitListRule(BasicSequenceRule):
    kind = "explicit-list"

    def __init__(self, values, monotone_tail_from: Optional[int] = None):
        vals = [_index(v, "explicit-list value") for v in values]
        if not vals:
            raise RuleError("explicit-list rule needs at least one value")
        for v in vals:
            if v < 2:
                raise RuleError(f"basic sequence values must be >= 2, got {v}")
        super().__init__(monotone_tail_from)
        if self.monotone_tail_from is not None:
            tail = vals[self.monotone_tail_from - 1 :]
            if any(a > b for a, b in zip(tail, tail[1:])):
                raise RuleError("claimed monotone tail is not nondecreasing")
        self._values = vals

    @property
    def domain_max(self) -> Optional[int]:
        return len(self._values)

    def q(self, n: int) -> int:
        self._check_position(n)
        return self._values[n - 1]

    def _runs(self, start: int) -> Iterator[Iterable[int]]:
        self._check_position(start)
        yield self._values[start - 1 :]
        self._check_position(len(self._values) + 1)

    def params_json(self) -> dict:
        return {"values": [str(v) for v in self._values]}


class GeometricRule(BasicSequenceRule):
    """q_n = coefficient * ratio**n."""

    kind = "geometric"

    def __init__(self, coefficient: int, ratio: int):
        coefficient = _index(coefficient, "geometric coefficient")
        ratio = _index(ratio, "geometric ratio")
        if coefficient < 1 or ratio < 1:
            raise RuleError("geometric rule needs coefficient >= 1 and ratio >= 1")
        if coefficient * ratio < 2:
            raise RuleError("geometric rule must start at q_1 >= 2")
        super().__init__(monotone_tail_from=1)
        self.coefficient = coefficient
        self.ratio = ratio

    def q(self, n: int) -> int:
        self._check_position(n)
        return self.coefficient * self.ratio**n

    def _runs(self, start: int) -> Iterator[Iterable[int]]:
        self._check_position(start)
        yield accumulate(repeat(self.ratio), operator.mul, initial=self.coefficient * self.ratio**start)

    def params_json(self) -> dict:
        return {"coefficient": str(self.coefficient), "ratio": str(self.ratio)}


class ConstantRule(GeometricRule):
    """q_n = value: the geometric rule of ratio 1."""

    kind = "constant"

    def __init__(self, value: int):
        value = _index(value, "constant value")
        if value < 2:
            raise RuleError(f"constant base must be >= 2, got {value}")
        super().__init__(value, 1)
        self.value = value

    def params_json(self) -> dict:
        return {"value": str(self.value)}


class BlockRepetitionRule(BasicSequenceRule):
    """Value v_m repeated t_m times, for m = 1, 2, ...

    Two parameterizations of one block table (``_block``): an explicit
    finite list of (value, repeat) pairs, or affine maps v_m = va*m + vb
    and t_m = ta*m + tb that extend without bound.
    """

    kind = "block-repetition"

    def __init__(self, pairs=None, value_affine=None, repeat_affine=None):
        if (pairs is None) == (value_affine is None):
            raise RuleError("give either pairs or the two affine maps")
        if pairs is not None:
            pairs = [(_index(v, "block value"), _index(t, "block repeat")) for v, t in pairs]
            if not pairs:
                raise RuleError("block-repetition needs at least one block")
            for v, t in pairs:
                if v < 2:
                    raise RuleError(f"block value must be >= 2, got {v}")
                if t < 1:
                    raise RuleError(f"block repeat must be >= 1, got {t}")
            self._pairs = pairs
            self._cum = list(accumulate((t for _, t in pairs), initial=0))
            vals = [v for v, _ in pairs]
            tail_from = 1 if all(a <= b for a, b in zip(vals, vals[1:])) else None
        else:
            va, vb = (_index(v, "block value map") for v in value_affine)
            ta, tb = (_index(t, "block repeat map") for t in repeat_affine)
            if va < 0 or ta < 0:
                raise RuleError("affine block maps must be nondecreasing in m")
            if va + vb < 2:
                raise RuleError("first block value must be >= 2")
            if ta + tb < 1:
                raise RuleError("first block repeat must be >= 1")
            self._pairs = self._cum = None
            self._value_affine = (va, vb)
            self._repeat_affine = (ta, tb)
            tail_from = 1
        super().__init__(monotone_tail_from=tail_from)

    @property
    def domain_max(self) -> Optional[int]:
        return None if self._cum is None else self._cum[-1]

    def _block(self, m: int) -> tuple[int, int]:
        """(v_m, t_m); past the last listed block, the past-end error."""
        if self._pairs is None:
            (va, vb), (ta, tb) = self._value_affine, self._repeat_affine
            return va * m + vb, ta * m + tb
        if m > len(self._pairs):
            self._check_position(self._cum[-1] + 1)  # raises
        return self._pairs[m - 1]

    def block_of(self, n: int) -> tuple[int, int]:
        """Block index m and 1-based offset inside it for position n."""
        self._check_position(n)
        cum = self._cum
        if cum is not None:
            m = bisect_left(cum, n)  # the least m with cum[m] >= n
            return m, n - cum[m - 1]
        # Blocks 1..m cover cum(m) = ta*m(m+1)/2 + tb*m positions, and n
        # lies in the least m with cum(m) >= n.  For ta > 0 that is the
        # ceiling of the positive root of ta*m^2 + b*m = 2n, b = ta + 2tb;
        # the isqrt floor of the root is off by at most one.
        ta, tb = self._repeat_affine
        if ta == 0:
            m = (n + tb - 1) // tb
        else:
            b = ta + 2 * tb
            m = (isqrt(b * b + 8 * ta * n) - b) // (2 * ta)
            if ta * m * m + b * m < 2 * n:
                m += 1
        return m, n - ta * m * (m - 1) // 2 - tb * (m - 1)

    def q(self, n: int) -> int:
        return self._block(self.block_of(n)[0])[0]

    def _runs(self, start: int) -> Iterator[Iterable[int]]:
        # One block lookup, then each block's value t_m times as one
        # ``repeat``; the first block is entered at the offset of ``start``.
        m, offset = self.block_of(start)
        value, t = self._block(m)
        yield repeat(value, t - offset + 1)
        for m in count(m + 1):
            yield repeat(*self._block(m))

    def params_json(self) -> dict:
        if self._pairs is not None:
            return {"pairs": [[str(v), str(t)] for v, t in self._pairs]}
        va, vb = self._value_affine
        ta, tb = self._repeat_affine
        return {
            "value_slope": str(va),
            "value_intercept": str(vb),
            "repeat_slope": str(ta),
            "repeat_intercept": str(tb),
        }


def block_positions(n: int, s: int, k: int) -> range:
    """Source positions packed into block n when block 1 has width k and
    every later block width s: 1..k, then k+1..k+s, k+s+1..k+2s, ...

    k = s is the plain s-contraction.
    """
    if n == 1:
        return range(1, k + 1)
    start = k + s * (n - 2)
    return range(start + 1, start + s + 1)


class ContractionRule(BasicSequenceRule):
    """Products of consecutive base values: value 1 merges base positions
    1..k and every later value the next s (``block_positions``), so the
    blocks tile the base.

    k = s, the default, is the plain s-contraction; 1 <= k < s is its
    k-shifted variant, serialized as ``shifted-contraction``.
    """

    def __init__(self, base: BasicSequenceRule, s: int, k: Optional[int] = None):
        s = _index(s, "contraction step")
        if s < 1:
            raise RuleError(f"contraction step must be >= 1, got {s}")
        k = s if k is None else _index(k, "contraction shift")
        if not 1 <= k <= s:
            raise RuleError(f"first block width must lie in 1..{s}, got {k}")
        tail_from = None
        if base.monotone_tail_from is not None:
            # Products of nondecreasing values >= 2 over blocks of equal
            # width are nondecreasing: certify from the first width-s
            # block that starts inside the base's certified tail.
            tail_from = (base.monotone_tail_from - k - 2 + s) // s + 2
        super().__init__(monotone_tail_from=tail_from)
        self.base = base
        self.s = s
        self.k = k

    @property
    def kind(self) -> str:
        return "composed-contraction" if self.k == self.s else "shifted-contraction"

    def block(self, n: int) -> range:
        """The base positions whose values make up value n."""
        return block_positions(n, self.s, self.k)

    def blocks_in(self, total: int) -> int:
        """The number of complete blocks in base positions 1..total."""
        return (total - self.k) // self.s + 1

    @property
    def domain_max(self) -> Optional[int]:
        limit = self.base.domain_max
        if limit is None:
            return None
        return self.blocks_in(limit)

    def q(self, n: int) -> int:
        return next(self.iter_values(n))

    def _runs(self, start: int) -> Iterator[Iterable[int]]:
        # Products of consecutive chunks of one walk of the base: the chunk
        # of ``start``, then s values at a time by one ``zip``; q(n) is the
        # first value of the walk from n.
        self._check_position(start)
        limit = self.domain_max
        values = self.base.iter_values(self.block(start).start)
        yield [prod(islice(values, self.k if start == 1 else self.s))]
        rest = map(prod, zip(*[values] * self.s))
        yield rest if limit is None else islice(rest, limit - start)
        self._check_position(limit + 1)  # reached by a finite walk only

    def params_json(self) -> dict:
        params = {"base": rule_to_json(self.base), "s": str(self.s)}
        if self.k != self.s:
            params["shift"] = str(self.k)
        return params


class ChainSpec:
    """A base sequence, a contraction-step sequence, and a chain depth.

    The chain is Q_1 = base and Q_{j+1} the s_j-contraction of Q_j,
    where s_j is the j-th value of the step sequence.  S_j denotes the
    cumulative product s_1 * ... * s_{j-1} (so S_1 = 1), which is the
    block length of Q_j relative to the base, so Q_j is one
    S_j-contraction of the base rather than j-1 nested ones.  Nothing is
    memoized: S_j and each level rule are formed on every call, and a
    schedule keeps its own table of S_j.
    """

    def __init__(self, base: BasicSequenceRule, s: BasicSequenceRule, depth: int):
        if _index(depth, "chain depth") < 1:
            raise RuleError(f"chain depth must be >= 1, got {depth}")
        self.base = base
        self.s = s
        self.depth = depth

    def s_value(self, j: int) -> int:
        return self.s.q(j)

    def big_s(self, j: int) -> int:
        """S_j: product of the first j-1 contraction steps (S_1 = 1)."""
        if j < 1:
            raise RuleError(f"S_j defined for j >= 1, got {j}")
        return prod(self.s.values(j - 1))

    def rule(self, j: int, k: int = 0) -> BasicSequenceRule:
        """Chain level j with shift k: ``ContractionRule(base, S_j, k or
        S_j)``, and the base itself when S_j = 1."""
        if not 1 <= j <= self.depth:
            raise OutOfDomainError(f"chain level {j} outside 1..{self.depth}")
        big_s = self.big_s(j)
        if not 0 <= k < big_s:
            raise OutOfDomainError(f"shift {k} outside 0..{big_s - 1} at level {j}")
        return self.base if big_s == 1 else ContractionRule(self.base, big_s, k or big_s)


def reciprocal_sums(bases: Iterable[int], stops: Iterable[int]) -> list[Fraction]:
    """Running sums over j <= n of 1/q_j, one per stop n.

    ``bases`` yields q_1, q_2, ... and is read only as far as the last
    stop; ``stops`` must be nondecreasing, so one pass serves a whole
    prefix ladder.  Each run of equal bases enters the sum once.  Bases
    that are powers of two 2**e add up as one integer over 2**w, w the
    largest e so far; only other bases and each stop's sum are formed as
    ``Fraction``.
    """
    values = iter(bases)
    other = Fraction(0)
    dyadic, width = 0, 0  # the power-of-two terms: dyadic / 2**width
    covered = 0
    sums = []
    for n in stops:
        if n < covered:
            raise ValueError(f"stops must be nondecreasing from 0; got {n} after {covered}")
        for q, run in groupby(islice(values, n - covered)):
            length = len(list(run))
            covered += length
            e = q.bit_length() - 1
            if q != 1 << e:
                other += Fraction(length, q)
                continue
            if e > width:
                dyadic <<= e - width
                width = e
            dyadic += length << (width - e)
        if covered < n:
            raise OutOfDomainError(f"stop {n} needs {n} bases; fewer were given")
        sums.append(other + Fraction(dyadic, 1 << width))
    return sums


def partial_sum_qnk(rule: BasicSequenceRule, n: int, k: int) -> Fraction:
    """Sum over j <= n of 1/(q_j * ... * q_{j+k-1}); 0 for n = 0."""
    if n < 0:
        raise OutOfDomainError(f"prefix length must be >= 0, got {n}")
    if k < 1:
        raise OutOfDomainError(f"window length must be >= 1, got {k}")
    values = rule.values(n + k - 1) if n else []
    return reciprocal_sums((prod(values[j : j + k]) for j in range(n)), [n])[0]


def growth_condition_trace(
    enclosures: Iterable[tuple[int, int]], horizon: int,
    *, emit: Callable[[int, int, int], None],
) -> str:
    """Evidence for the slow-growth hypothesis log q_k = o(sum log q_n).

    ``enclosures`` yields the ``hp_ln`` enclosures (lo, hi) of ln q_1,
    ln q_2, ..., and is read for k = 1 .. horizon.  Calls
    ``emit(k, hi, running)`` for each k = 2 .. horizon, where
    hi / running = hi(ln q_k) / sum_{n<k} lo(ln q_n) is an upper bound of
    the ratio, as an unreduced integer pair with running > 0.  Returns
    "decreasing at horizon" when the final ratio has dropped below three
    quarters of the mid-horizon ratio, which is what a ratio tending to
    zero looks like at any finite horizon, and "not decreasing" otherwise."""
    if horizon < 2:
        raise OutOfDomainError("growth trace needs horizon >= 2")
    logs = iter(enclosures)
    lo = next(logs, (0, 0))[0]
    running, k = 0, 1
    for k, (q_lo, hi) in enumerate(islice(logs, horizon - 1), start=2):
        running += lo
        lo = q_lo
        emit(k, hi, running)
        if k == horizon // 2 + 1:  # the mid-horizon ratio
            mid_hi, mid_den = hi, running
    if k < horizon:
        raise OutOfDomainError(f"growth trace needs {horizon} enclosures; fewer were given")
    # hi / running <= (3/4) * mid_hi / mid_den, cross-multiplied.
    decreasing = 4 * hi * mid_den <= 3 * mid_hi * running
    return "decreasing at horizon" if decreasing else "not decreasing"


def rule_to_json(rule: BasicSequenceRule) -> dict:
    """Serialize a rule; integers travel as decimal strings."""
    return {
        "kind": rule.kind,
        "params": rule.params_json(),
        "monotone_tail_from": rule.monotone_tail_from,
    }


def json_int(value, name: str, *shape: int):
    """A config integer: a JSON int (not a bool) or a string that ``int()`` parses;
    with a shape, a JSON array of them (``0, 2``: any number of 2-entry arrays)."""
    if shape:
        if not isinstance(value, list) or shape[0] not in (0, len(value)):
            raise RuleError(f"{name} must be a JSON array, got {value!r}")
        return [json_int(v, name, *shape[1:]) for v in value]
    if type(value) is int or isinstance(value, str):
        with suppress(ValueError):
            return int(value)
    raise RuleError(f"{name} must be an integer or a decimal string, got {value!r}")


def rule_from_json(obj: dict) -> BasicSequenceRule:
    kind = obj.get("kind")
    params = obj.get("params", {})
    tail = obj.get("monotone_tail_from")
    # Read on every kind; only an explicit list takes it, the others certify their own.
    tail = None if tail is None else json_int(tail, "monotone_tail_from")

    def arg(key: str, *shape: int):
        return json_int(params[key], f"{kind} {key}", *shape)

    if kind == "explicit-list":
        return ExplicitListRule(arg("values", 0), monotone_tail_from=tail)
    if kind == "constant":
        return ConstantRule(arg("value"))
    if kind == "geometric":
        return GeometricRule(arg("coefficient"), arg("ratio"))
    if kind == "block-repetition":
        if "pairs" in params:
            return BlockRepetitionRule(pairs=arg("pairs", 0, 2))
        return BlockRepetitionRule(
            value_affine=(arg("value_slope"), arg("value_intercept")),
            repeat_affine=(arg("repeat_slope"), arg("repeat_intercept")),
        )
    if kind == "composed-contraction":
        return ContractionRule(rule_from_json(params["base"]), arg("s"))
    if kind == "shifted-contraction":
        s, k = arg("s"), arg("shift")
        if not 1 <= k <= s - 1:
            raise RuleError(f"shift must lie in 1..{s - 1}, got {k}")
        return ContractionRule(rule_from_json(params["base"]), s, k)
    raise RuleError(f"unknown rule kind {kind!r}")
