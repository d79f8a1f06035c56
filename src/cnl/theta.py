"""Digit schedules for streams equidistributed across a contraction chain.

The schedule organizes base positions into levels: level j consists of
l_j blocks of S_j consecutive positions, laid out after all earlier
levels, and the map phi(j, b, c) = L_{j-1} + (b-1) S_j + c addresses
position c of block b at level j.  Each position carries a rational
window; any digit stream whose ratios E_n / q_n land inside the windows
is, at every chain level j, a concatenation of near-arithmetic point
blocks whose discrepancy envelopes shrink to zero, while every digit
stays nonzero in every chain base.

Window convention: the level-j window for offset c covers
[(c-1)/a + 1/a^2, (c-1)/a + 2/a^2) with a = S_j, half open, and the
level-1 window is [1/q_n, 2/q_n).  In integers (``_window_bounds``) a
window is [lo/den, hi/den) with

    (lo, hi, den) = (1, 2, q_n)                         at level 1,
    (lo, hi, den) = ((c-1)a + 1, (c-1)a + 2, a^2)        at level j >= 2,

and the digits F of position n with F/q_n in it are
ceil(q_n lo / den) <= F <= ceil(q_n hi / den) - 1, clamped to
1 .. q_n - 1.  The (c-1) shift keeps the last offset's window inside
[0, 1) and makes the sampled point blocks (taken at offsets 1, 1+S_j,
..., S_k - S_j + 1) satisfy the progression conditions exactly;
half-openness drops the unreachable right-edge digit, changing
candidate counts by at most one.  Schedule dumps record both
conventions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence

from .equidist import DiscrepancyReport, DiscrepancyRow, star_discrepancy_ladder
from .expansion import DigitStream
from .sequences import ChainSpec, OutOfDomainError

__all__ = [
    "ScheduleError",
    "TailCertificateError",
    "SelectionPolicy",
    "CandidateSet",
    "PositionInfo",
    "ThetaSchedule",
    "compute_nu",
    "build_schedule",
    "digit_candidates",
    "generate_digits",
    "extract_y",
    "extract_y_prefix",
    "envelope",
    "envelope_sup",
    "YPrefixDecomposition",
    "position_decomposition",
    "prefix_bound_check",
]

SCAN_BUDGET = 1_000_000  # positions compute_nu scans past the certified tail


class ScheduleError(ValueError):
    """Schedule construction or lookup failure."""


class TailCertificateError(ScheduleError):
    """Rule lacks the monotone-tail certificate threshold scans need."""


class _Policy(NamedTuple):
    kind: str
    seed: Optional[int] = None


class SelectionPolicy(_Policy):
    """Deterministic digit choice inside a candidate window.

    min, max, and mid probe the window extremes and middle; seeded
    draws a pseudo-random candidate from a keyed hash of the position,
    so runs are reproducible given the seed.
    """

    __slots__ = ()

    def __new__(cls, kind: str, seed: Optional[int] = None):
        if kind not in ("min", "max", "mid", "seeded"):
            raise ScheduleError(f"unknown policy kind {kind!r}")
        if kind == "seeded":
            if seed is None or not 0 <= seed < 1 << 64:
                raise ScheduleError("seeded policy needs a 64-bit seed")
        return super().__new__(cls, kind, seed)

    def pick(self, candidates: "CandidateSet", n: int) -> int:
        if self.kind == "min":
            return candidates.f_min
        if self.kind == "max":
            return candidates.f_max
        if self.kind == "mid":
            return candidates.f_min + (candidates.count - 1) // 2
        import hashlib  # only seeded draws load it

        digest = hashlib.sha256(f"{self.seed}:{n}".encode("ascii")).digest()
        draw = int.from_bytes(digest[:8], "big")
        return candidates.f_min + draw % candidates.count

    def describe(self) -> str:
        return self.kind if self.kind != "seeded" else f"seeded:{self.seed}"


_new_tuple = tuple.__new__  # builds a NamedTuple without its Python-level __new__


class CandidateSet(NamedTuple):
    """Consecutive integers F with F / q_n inside the position window."""

    f_min: int
    f_max: int

    @property
    def count(self) -> int:
        return self.f_max - self.f_min + 1

    def __contains__(self, value: int) -> bool:
        return self.f_min <= value <= self.f_max


class PositionInfo(NamedTuple):
    """Decoded coordinates of a scheduled position."""

    n: int
    level: int
    block: int
    offset: int
    a: int


class ThetaSchedule:
    """Level tables plus the position bijection and window lookups.

    For a chain of depth J the schedule lays out levels 1 .. max(J-1, 1)
    and records S_j, the threshold indices nu_j, the block counts l_j,
    and the cumulative lengths L_j.  All table entries are exact
    integers and every structural identity is verified at build time.
    """

    def __init__(self, spec: ChainSpec, levels: int, nu: dict, ell: list, big_l: list):
        self.spec = spec
        self.levels = levels
        self._big_s = [spec.big_s(j) for j in range(1, levels + 2)]
        self._nu = nu
        self._ell = ell
        self._big_l = big_l

    # Table accessors (1-based level indices).

    def big_s(self, j: int) -> int:
        if not 1 <= j <= self.levels + 1:
            raise ScheduleError(f"S_{j} not computed (levels 1..{self.levels + 1})")
        return self._big_s[j - 1]

    def nu(self, j: int) -> int:
        if j not in self._nu:
            raise ScheduleError(f"nu_{j} not computed (levels 2..{self.levels + 1})")
        return self._nu[j]

    def ell(self, j: int) -> int:
        if not 1 <= j <= self.levels:
            raise ScheduleError(f"l_{j} not computed (levels 1..{self.levels})")
        return self._ell[j - 1]

    def big_l(self, j: int) -> int:
        if j == 0:
            return 0
        if not 1 <= j <= self.levels:
            raise ScheduleError(f"L_{j} not computed (levels 1..{self.levels})")
        return self._big_l[j - 1]

    @property
    def coverage(self) -> int:
        return self.big_l(self.levels)

    def q(self, n: int) -> int:
        return self.spec.base.q(n)

    # Position bijection.

    def phi(self, j: int, b: int, c: int) -> int:
        if not 1 <= j <= self.levels:
            raise ScheduleError(f"level {j} outside 1..{self.levels}")
        ell = self._ell[j - 1]
        if not 1 <= b <= ell:
            raise ScheduleError(f"block {b} outside 1..{ell} at level {j}")
        big_s = self.big_s(j)
        if not 1 <= c <= big_s:
            raise ScheduleError(f"offset {c} outside 1..{big_s} at level {j}")
        return (self._big_l[j - 2] if j > 1 else 0) + (b - 1) * big_s + c

    def phi_inv(self, n: int) -> PositionInfo:
        big_l = self._big_l
        if not 1 <= n <= big_l[-1]:
            raise ScheduleError(f"position {n} outside scheduled range 1..{big_l[-1]}")
        level = 1
        while n > big_l[level - 1]:
            level += 1
        offset_in_level = n - big_l[level - 2] if level > 1 else n
        big_s = self.big_s(level)
        block = (offset_in_level - 1) // big_s + 1
        offset = offset_in_level - (block - 1) * big_s
        return PositionInfo(n=n, level=level, block=block, offset=offset, a=big_s)

    def walk(self, start: int = 1) -> Iterator[tuple[PositionInfo, int]]:
        """``(phi_inv(n), q(n))`` for n = start .. coverage, in one
        sequential pass.

        One ``phi_inv(start)`` places the walk; from there the
        coordinates step offset -> block -> level over the S_j and l_j
        tables, and the bases come from one walk of the base rule, which
        raises ``OutOfDomainError`` at the position where ``q`` would.
        ``digit_candidates(self, n, info, q)`` gives the window of each
        step without reading the schedule again.
        """
        info = self.phi_inv(start)
        n, level, block, offset = start, info.level, info.block, info.offset
        bases = self.spec.base.iter_values(start)
        while level <= self.levels:
            a = self.big_s(level)
            blocks = self.ell(level)
            while block <= blocks:
                while offset <= a:
                    q = next(bases)
                    yield _new_tuple(PositionInfo, (n, level, block, offset, a)), q
                    n += 1
                    offset += 1
                block += 1
                offset = 1
            level += 1
            block = 1

    def window(self, level: int, offset: int, n: int) -> tuple[Fraction, Fraction]:
        q = self.q(n) if level == 1 else None
        lo, hi, den = _window_bounds(level, offset, self.big_s(level), q)
        return Fraction(lo, den), Fraction(hi, den)

    def dump_json(self) -> dict:
        return {
            "S": list(self._big_s),
            "nu": [None, *map(self._nu.__getitem__, range(2, self.levels + 2))],
            "l": list(self._ell),
            "L": list(self._big_l),
            "window_shift": "c-1",
            "y_index_base": 0,
        }

    def verify(self) -> list[tuple[str, bool, str]]:
        """Structural identities; build_schedule raises on any failure."""
        checks: list[tuple[str, bool, str]] = []
        for j in range(1, self.levels + 1):
            s_j = self.spec.s_value(j)
            l_j = self.ell(j)
            checks.append(
                (f"l_{j} >= j*s_{j}", l_j >= j * s_j, f"{l_j} >= {j * s_j}")
            )
            rem = self.big_l(j) % self.big_s(j + 1)
            checks.append(
                (f"S_{j + 1} divides L_{j}", rem == 0, f"{self.big_l(j)} mod {self.big_s(j + 1)} = {rem}")
            )
            nu_next = self.nu(j + 1)
            checks.append(
                (
                    f"L_{j} >= nu_{j + 1} - 1",
                    self.big_l(j) >= nu_next - 1,
                    f"{self.big_l(j)} >= {nu_next - 1}",
                )
            )
            if j >= 2:
                lhs = l_j * self.big_s(j)
                rhs = self.big_l(j - 1) * (2 * j * s_j * nu_next - 1)
                checks.append(
                    (f"l_{j} recurrence at level {j}", lhs == rhs, f"{lhs} == {rhs}")
                )
        for j in range(2, self.levels + 1):
            # Every q_m with m >= nu_j clears S_j^(2j) (compute_nu), so no base
            # is read: at depth 7 the doubling q_(L_5 + 1) has 2.4e10 bits.
            first = self.big_l(j - 1) + 1
            checks.append(
                (
                    f"level {j} opens past its threshold",
                    first >= self.nu(j),
                    f"q_{first} >= S_{j}^{2 * j}",
                )
            )
        return checks


def compute_nu(spec: ChainSpec, j: int) -> int:
    """Smallest index from which every base value clears S_j^(2j).

    Requires the base rule to certify a nondecreasing tail: one walk of
    the base from the certified tail, through at most ``SCAN_BUDGET``
    positions past it, finds the first crossing (all later positions then
    clear the threshold by monotonicity), and the answer extends leftward
    over the finitely many earlier positions.
    """
    if j < 2:
        raise ScheduleError("threshold indices are defined for levels >= 2")
    base = spec.base
    if base.monotone_tail_from is None:
        raise TailCertificateError(
            "cannot decide a tail-minimum threshold for a rule without a "
            "certified monotone tail; set monotone_tail_from"
        )
    thresh = spec.big_s(j) ** (2 * j)
    tail = base.monotone_tail_from
    m = tail
    try:
        for q in islice(base.iter_values(tail), SCAN_BUDGET + 1):
            if q >= thresh:
                break
            m += 1
        else:
            raise ScheduleError(
                f"threshold S_{j}^{2 * j} not crossed within {SCAN_BUDGET} positions"
            )
    except OutOfDomainError as exc:
        raise ScheduleError(f"threshold never crossed within rule domain: {exc}") from exc
    if m > tail:
        return m
    probe = tail - 1
    while probe >= 1 and base.q(probe) >= thresh:
        probe -= 1
    return probe + 1


def build_schedule(spec: ChainSpec) -> ThetaSchedule:
    """Compute and verify the level tables for the chain depth.

    Depth J yields levels 1 .. J-1 (a depth-1 build still schedules the
    first level, whose block count depends only on the first
    contraction step).  The build fails loudly if any structural
    identity is violated.
    """
    levels = max(1, spec.depth - 1)
    nu = {j: compute_nu(spec, j) for j in range(2, levels + 2)}
    ell = [spec.s_value(1) * nu[2]]
    big_l = [ell[0]]
    for j in range(2, levels + 1):
        numer = big_l[-1] * (2 * j * spec.s_value(j) * nu[j + 1] - 1)
        big_s = spec.big_s(j)
        if numer % big_s:
            raise ScheduleError(f"l_{j} is not an integer: {numer} not divisible by {big_s}")
        ell.append(numer // big_s)
        big_l.append(big_l[-1] + big_s * ell[-1])
    schedule = ThetaSchedule(spec, levels, nu, ell, big_l)
    for name, ok, detail in schedule.verify():
        if not ok:
            raise ScheduleError(f"schedule invariant failed: {name} ({detail})")
    return schedule


def _window_bounds(level: int, offset: int, a: int, q: Optional[int]) -> tuple[int, int, int]:
    """The window of offset ``offset`` at level ``level`` (a = S_level),
    as in the module docstring; q, the position's base, is read at level 1."""
    if level == 1:
        return 1, 2, q
    lo = (offset - 1) * a + 1
    return lo, lo + 1, a * a


def digit_candidates(
    schedule: ThetaSchedule,
    n: int,
    info: Optional[PositionInfo] = None,
    q: Optional[int] = None,
) -> CandidateSet:
    """All digits whose ratio falls in the position window.

    The integer bounds are given in the module docstring.  Level-1
    positions admit exactly the digit 1.  Deeper positions admit every
    integer in a half-open window of width q_n / a^2, so the count is
    at least floor(q_n / a^2) >= 1 and every candidate is nonzero.  The
    set is returned as a range, because counts grow with q_n.  Readers
    of consecutive positions pass each step of ``ThetaSchedule.walk`` as
    ``info`` and ``q``; without them the position is looked up with
    ``phi_inv(n)`` and ``q(n)``.
    """
    if info is None:
        info, q = schedule.phi_inv(n), schedule.q(n)
    lo, hi, den = _window_bounds(info.level, info.offset, info.a, q)
    # ceil(q x / den) = whole x + ceil(part x / den), from one division of q
    # (a shift when den is a power of two); with hi = lo + 1, f_max - f_min
    # is whole plus the small ``extra``.  Neither clamp to 1 .. q - 1
    # changes a nonempty window: f_min >= 1, and f_max passes q - 1 only
    # when hi > den, where lo >= den puts f_min past it too.
    e = den.bit_length() - 1
    whole, part = (q >> e, q & (den - 1)) if den == 1 << e else divmod(q, den)
    c_lo = -(-part * lo // den)
    extra = -(-part * hi // den) - c_lo - 1
    if whole < -extra or hi > den:
        raise ScheduleError(f"empty candidate window at position {n}")
    f_min = whole * lo + c_lo
    return _new_tuple(CandidateSet, (f_min, f_min + whole + extra))


def generate_digits(schedule: ThetaSchedule, policy: SelectionPolicy, n: int) -> Iterator[int]:
    """The first n digits, each drawn by ``policy`` from its position
    window as one walk reaches it.  A bad n raises here, not on the first
    read; ``DigitStream(schedule.spec.base, ...)`` holds the digits for
    random access."""
    if not 1 <= n <= schedule.coverage:
        raise ScheduleError(f"requested {n} digits; schedule covers 1..{schedule.coverage}")
    return (
        policy.pick(digit_candidates(schedule, info.n, info, q), info.n)
        for info, q in islice(schedule.walk(), n)
    )


def extract_y(
    schedule: ThetaSchedule, stream: DigitStream, j: int, k: int, b: int
) -> list[Fraction]:
    """The level-k block-b point sample for chain level j.

    Points are the digit ratios at offsets 1, 1 + S_j, ..., S_k - S_j + 1
    of the block, S_k / S_j of them, strictly increasing across their
    disjoint windows.
    """
    if not 1 <= j < k:
        raise ScheduleError(f"need j < k, got j={j}, k={k}")
    if k > schedule.levels:
        raise ScheduleError(f"level {k} outside scheduled levels 1..{schedule.levels}")
    step = schedule.big_s(j)
    span = schedule.big_s(k) // step
    points = []
    for m in range(span):
        pos = schedule.phi(k, b, 1 + step * m)
        points.append(Fraction(stream.digit(pos), schedule.q(pos)))
    return points


def extract_y_prefix(
    schedule: ThetaSchedule, stream: DigitStream, j: int, n: int
) -> tuple[list[int], list[int]]:
    """Level j's sampled points at positions <= n, in position order, as
    (nums, dens), the digits and their bases: block offsets 1, 1 + S_j, ...
    of the levels t > j.

    Level t's blocks start at L_(t-1) + 1 + multiples of S_t, and S_j
    divides S_t and L_(t-1) (the verified invariant "S_(j+1) divides L_j",
    and S_j | S_(j+1) | ... as products of the steps), so those offsets are
    exactly the positions L_j + 1, L_j + 1 + S_j, ... .  The digits are one
    slice of the stream (``DigitStream.digits``) and the bases one strided
    base walk, which runs through position n and so raises
    ``OutOfDomainError`` where ``q`` would.
    """
    if not 1 <= j <= schedule.levels:
        raise ScheduleError(f"level {j} outside 1..{schedule.levels}")
    if n > schedule.coverage:
        raise ScheduleError(f"position {n} beyond coverage {schedule.coverage}")
    start, step = schedule.big_l(j) + 1, schedule.big_s(j)
    if n < start:
        return [], []
    dens = list(islice(schedule.spec.base.iter_values(start), 0, n - start + 1, step))
    return stream.digits(range(start, n + 1, step)), dens


def envelope(schedule: ThetaSchedule, j: int, t: int, w: int, z: int) -> Fraction:
    """The concatenation-bound envelope value f at block progress (w, z).

    The denominator counts sampled points: the padded offset L_j / S_j,
    the completed interior levels, w complete level-t blocks, and z
    leftover points.  The numerator charges 2 per completed block and 1
    per leftover or padding point, which is exactly the weighted
    per-block discrepancy budget of the concatenation bound.
    """
    if not 1 <= j < t <= schedule.levels + 1:
        raise ScheduleError(f"need 1 <= j < t <= {schedule.levels + 1}, got ({j}, {t})")
    span = schedule.big_s(t) // schedule.big_s(j)
    if not 0 <= z <= span:
        raise ScheduleError(f"z outside 0..{span}")
    if w < 0 or (t <= schedule.levels and w > schedule.ell(t)):
        raise ScheduleError(f"w outside 0..l_{t}")
    step = schedule.big_s(j)
    offset = schedule.big_l(j) // step
    num = offset + 2 * w + z
    den = offset + span * w + z
    for k in range(j + 1, t):
        l_k = schedule.ell(k)
        num += 2 * l_k
        den += l_k * (schedule.big_s(k) // step)
    return Fraction(num, den)


def envelope_sup(schedule: ThetaSchedule, j: int, t: int) -> Fraction:
    """Envelope supremum over a level: the value at (w, z) = (0, S_t/S_j)."""
    span = schedule.big_s(t) // schedule.big_s(j)
    return envelope(schedule, j, t, 0, span)


class YPrefixDecomposition(NamedTuple):
    """Accounting coordinates of a sampled-point prefix length.

    ``level`` is the accounted level t, and prefix = L_{t-1}/S_j + m
    with m = alpha * (S_t/S_j) + beta, 0 <= alpha <= l_t and
    0 <= beta < S_t/S_j.  The accounting lags the actual points by
    L_j/S_j positions; those stragglers are charged the trivial
    per-point budget inside the envelope.
    """

    prefix: int
    level: int
    m: int
    alpha: int
    beta: int


def position_decomposition(
    schedule: ThetaSchedule, j: int, n: int
) -> YPrefixDecomposition:
    if not 1 <= j <= schedule.levels:
        raise ScheduleError(f"level {j} outside 1..{schedule.levels}")
    step = schedule.big_s(j)
    if n < schedule.big_l(j) // step:
        raise ScheduleError(
            f"prefix {n} below the accounting horizon L_{j}/S_{j} = "
            f"{schedule.big_l(j) // step}"
        )
    for t in range(j + 1, schedule.levels + 1):
        if n <= schedule.big_l(t) // step:
            m = n - schedule.big_l(t - 1) // step
            span = schedule.big_s(t) // step
            return YPrefixDecomposition(n, t, m, m // span, m % span)
    raise ScheduleError(
        f"prefix {n} beyond the scheduled range (max {schedule.big_l(schedule.levels) // step})"
    )


def prefix_bound_check(
    schedule: ThetaSchedule, j: int, nums: list[int], dens: list[int], prefix_lengths: Sequence[int]
) -> DiscrepancyReport:
    """Pair exact prefix discrepancies with their envelope bounds.

    ``nums`` and ``dens`` are level j's sampled points, as from
    ``extract_y_prefix``.  Both are consumed and left empty, so no
    caller holds the points past the check.  The discrepancies of all
    prefixes come from one exact integer sweep,
    ``star_discrepancy_ladder``: power-of-two bases put every point
    over one common denominator, the largest base; other bases sort
    their points by floor keys over 2**(2b+1), b the widest base's bit
    length, never forming an lcm.  Each row
    checks D*(prefix) <= f <= ebar exactly.  Prefixes shorter
    than the accounting horizon L_j/S_j get the trivial bound 1 and a
    "below-horizon" certificate.  Violating rows are flagged fatal; the
    envelope trend over available levels rides along so the shrink
    toward zero is visible.
    """
    report = DiscrepancyReport(
        header_note=(
            f"level {j} sampled-point prefixes; window shift c-1, "
            "sample offsets 1 + m*S_j for m >= 0"
        )
    )
    horizon = schedule.big_l(j) // schedule.big_s(j)
    lengths = sorted(set(int(p) for p in prefix_lengths))
    if lengths and not 1 <= lengths[0] <= lengths[-1] <= len(nums):
        raise ScheduleError(f"prefix lengths must lie in 1..{len(nums)} sampled points")
    dstars = star_discrepancy_ladder(nums, dens, lengths)
    for n, dstar in zip(lengths, dstars):
        if n < horizon:
            report.rows.append(
                DiscrepancyRow(n=n, dstar=dstar, bound=Fraction(1), certificate="below-horizon")
            )
            continue
        decomp = position_decomposition(schedule, j, n)
        f_val = envelope(schedule, j, decomp.level, decomp.alpha, decomp.beta)
        ebar = envelope_sup(schedule, j, decomp.level)
        ok = dstar <= f_val <= ebar
        report.rows.append(
            DiscrepancyRow(
                n=n,
                dstar=dstar,
                bound=f_val,
                certificate="pass" if ok else "fatal",
                envelope=ebar,
            )
        )
    return report
