"""Exact star discrepancy, progression certificates, and normality ratios.

Every computation here is exact over rationals.  The one quantity that
cannot be exact, the square root inside the refined progression bound,
is rounded in the direction that keeps the reported bound valid.

Certificates from ``verify_aap`` are proofs rather than heuristics: the
admissible spacing parameter is found by exact interval intersection,
and an accepted certificate stores a witness that re-verifies all three
defining conditions.
"""

from __future__ import annotations

import csv
import operator
from fractions import Fraction
from itertools import compress, count, islice, repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from .expansion import DigitStream, atomic_write, count_block
from .numeric import int_text, sqrt_lower
from .sequences import partial_sum_qnk, reciprocal_sums

__all__ = [
    "COND_START",
    "COND_GAP",
    "COND_END",
    "AAPCertificate",
    "AapBound",
    "star_discrepancy",
    "star_discrepancy_ladder",
    "verify_aap",
    "aap_bound",
    "concat_bound",
    "NormalityRow",
    "NormalityReport",
    "normality_report",
    "DiscrepancyRow",
    "DiscrepancyReport",
    "dn_diagnostic",
]

# Condition codes stored on certificates (wire-format values).
COND_START = 61
COND_GAP = 62
COND_END = 63


def _validate_unit_points(points: Sequence[Fraction]) -> list[Fraction]:
    values = [Fraction(p) for p in points]
    for v in values:
        if not 0 <= v < 1:
            raise ValueError(f"point {v} outside [0, 1)")
    return values


def _popped(values: list[int]) -> Iterator[int]:
    """The items of ``values`` in order, each popped from the list as it is taken."""
    values.reverse()
    return iter(values.pop, None)


def _ladder(keys: Iterator[int], w: int, lengths: Sequence[int], exact, one) -> list[Fraction]:
    """The star discrepancy of each prefix of points x_i, sorted by
    integer keys K_i <= x_i*2**w < K_i + 1 taken lazily from ``keys``;
    ``exact(K)`` is one*x for the point x of key K.

    With rank i counted from 0, D*_n = max(max left, 1 - min left)/n for
    left_i = x_(i)*n - i.  Each prefix is swept on the truncated terms
    A_i = (K_(i) >> s)*n - i*2**(w - s), s = max(w + b - 63, 0) for b the
    bit length of n: |A_i| < 2**63, and 2**w*left_i - A_i*2**s lies in
    [0, n*2**s), as the floor in K_(i) loses less than 1 and the s bits
    cut off at most 2**s - 1.  So only ranks with A_i > max A - n can hold
    the largest left_i and only ranks with A_i < min A + n the smallest;
    just those are settled by ``exact``.  The A_i are one list per
    prefix, read by ``max``, ``min`` and the two rank scans.
    """
    out = []
    run: list[int] = []
    for n in lengths:
        # The sorted shorter prefix stays one run, so each sort is a merge.
        run.extend(islice(keys, n - len(run)))
        run.sort()
        s = max(w + n.bit_length() - 63, 0)
        step = 1 << (w - s)
        heads = map(operator.rshift, run, repeat(s)) if s else run
        truncated = list(map(operator.sub, map(operator.mul, heads, repeat(n)), range(0, n * step, step)))

        def settled(cut, side):
            ranks = compress(count(), map(side, truncated, repeat(cut)))
            return (exact(run[i]) * n - i * one for i in ranks)

        high = max(settled(max(truncated) - n, operator.gt))
        low = min(settled(min(truncated) + n, operator.lt))
        del truncated  # before the next prefix builds its own
        out.append(Fraction(max(high, one - low), n * one))
    return out


def star_discrepancy_ladder(
    nums: list[int], dens: list[int], prefix_lengths: Sequence[int]
) -> list[Fraction]:
    """Exact star discrepancy of the first n points nums[i]/dens[i], per n.

    Each point must satisfy 0 <= nums[i] < dens[i]; denominators need
    not be reduced.  ``prefix_lengths`` must be nondecreasing, from 1 to
    len(nums).  Both lists are consumed and left empty, so no second
    copy of the points is held.

    Each prefix is sorted by merging its new points into the sorted
    shorter prefix, then evaluated by the closed form of Kuipers and
    Niederreiter,

        D*_n = max_i max(x_(i) - (i-1)/n, i/n - x_(i)),

    in one sweep (``_ladder``) over integer keys K_i < 2**w that sort
    the points.  Power-of-two denominators share one common denominator
    d = 2**w, the largest, and their keys are the exact numerators
    X_i = x_i*d.  Other denominators, whose lcm can be far wider than
    any one point, take floor keys K_i = floor(x_i*2**w) with w = 2b + 1,
    b the widest denominator's bit length.  Distinct points with
    denominators below 2**b differ by more than 2**(-2b), so these keys
    sort them, and x_i is the one such fraction within 2**(-2b-1) of
    K_i/2**w: ``limit_denominator`` recovers it for the few ranks settled
    exactly.  Each prefix forms one ``Fraction``, its result.
    """
    lengths = list(prefix_lengths)
    if not lengths:
        nums.clear()
        dens.clear()
        return []
    if lengths[0] < 1:
        raise ValueError("star discrepancy of an empty sequence is undefined")
    if lengths != sorted(lengths) or lengths[-1] > len(nums) or len(dens) != len(nums):
        raise ValueError(
            f"need nondecreasing prefix lengths up to {len(nums)}, one denominator per point"
        )
    for num, den in zip(nums, dens):
        if not 0 <= num < den:
            raise ValueError(f"point {Fraction(num, den)} outside [0, 1)")
    w = max(dens).bit_length()
    if not any(map(operator.and_, dens, map(operator.sub, dens, repeat(1)))):  # powers of two
        shifts = map(operator.sub, repeat(w), map(int.bit_length, _popped(dens)))
        keys = map(operator.lshift, _popped(nums), shifts)
        out = _ladder(keys, w - 1, lengths, lambda x: x, 1 << (w - 1))
    else:
        top = (1 << w) - 1
        w = 2 * w + 1
        heads = map(operator.lshift, _popped(nums), repeat(w))
        keys = map(operator.floordiv, heads, _popped(dens))
        out = _ladder(keys, w, lengths, lambda k: Fraction(k, 1 << w).limit_denominator(top), 1)
    nums.clear()
    dens.clear()
    return out


def star_discrepancy(points: Sequence[Fraction]) -> Fraction:
    """Exact sup over gamma of |#{x_i < gamma}/N - gamma|.

    Uses the sorted-points closed form: with x_(1) <= ... <= x_(N) the
    supremum equals max over i of max(x_(i) - (i-1)/N, i/N - x_(i)),
    evaluated by ``star_discrepancy_ladder``.
    """
    values = _validate_unit_points(points)
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    return star_discrepancy_ladder(nums, dens, [len(nums)])[0]


class AAPCertificate(NamedTuple):
    """Outcome of an almost-arithmetic-progression check.

    ``accepted`` implies the stored eta satisfies all three conditions
    (initial point, inter-point gaps, final point) exactly for the
    stored delta.  On rejection ``failing_condition`` names the first
    condition whose exact constraint interval is empty.
    """

    delta: Fraction
    epsilon: Fraction
    eta: Optional[Fraction]
    accepted: bool
    failing_condition: Optional[int] = None
    n_points: int = 0


def _check_conditions(
    points: Sequence[Fraction], delta: Fraction, eta: Fraction
) -> bool:
    slack = eta + delta * eta
    tight = eta - delta * eta
    if not 0 <= points[0] <= slack:
        return False
    for a, b in zip(points, points[1:]):
        if not tight <= b - a <= slack:
            return False
    return 1 - slack <= points[-1] < 1


def verify_aap(
    points: Sequence[Fraction], delta: Fraction, epsilon: Fraction
) -> AAPCertificate:
    """Search exactly for an admissible spacing parameter eta.

    The three conditions translate into rational constraints on eta:
    lower bounds from the initial point, every gap, and the final
    point, and upper bounds from every gap and the cap epsilon.  The
    certificate is accepted iff the intersection is a nonempty
    subinterval of (0, epsilon]; the stored witness is its upper end.
    """
    delta = Fraction(delta)
    epsilon = Fraction(epsilon)
    if not 0 <= delta < 1:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    values = _validate_unit_points(points)
    if not values:
        raise ValueError("empty point sequence")
    for a, b in zip(values, values[1:]):
        if not a < b:
            raise ValueError("points must be strictly increasing")

    def reject(code: int) -> AAPCertificate:
        return AAPCertificate(
            delta=delta, epsilon=epsilon, eta=None, accepted=False,
            failing_condition=code, n_points=len(values),
        )

    one_plus = 1 + delta
    one_minus = 1 - delta
    gaps = [b - a for a, b in zip(values, values[1:])]
    eta_hi = epsilon
    for g in gaps:
        eta_hi = min(eta_hi, g / one_minus)
    if eta_hi <= 0:
        return reject(COND_GAP)
    if values[0] / one_plus > eta_hi:
        return reject(COND_START)
    for g in gaps:
        if g / one_plus > eta_hi:
            return reject(COND_GAP)
    if values[-1] >= 1 or (1 - values[-1]) / one_plus > eta_hi:
        return reject(COND_END)
    eta = eta_hi
    assert _check_conditions(values, delta, eta)
    return AAPCertificate(
        delta=delta, epsilon=epsilon, eta=eta, accepted=True,
        failing_condition=None, n_points=len(values),
    )


class AapBound(NamedTuple):
    """Discrepancy bounds implied by a progression certificate.

    ``fine`` is 1/N + delta/(1 + sqrt(1 - delta^2)) for positive delta
    (computed with a downward-rounded square root, so the bound stays
    valid) and min(eta, 1/N) for delta = 0.  ``coarse`` is 1/N + delta.
    """

    fine: Fraction
    coarse: Fraction


def aap_bound(
    n: int, delta: Fraction, eta: Optional[Fraction] = None, bits: int | None = None
) -> AapBound:
    delta = Fraction(delta)
    if not 0 <= delta < 1:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if n < 1:
        raise ValueError("bound needs at least one point")
    coarse = Fraction(1, n) + delta
    if delta == 0:
        if eta is None:
            raise ValueError("delta = 0 bound needs the certificate eta")
        fine = min(Fraction(eta), Fraction(1, n))
    else:
        root = sqrt_lower(1 - delta * delta, bits=bits)
        fine = Fraction(1, n) + delta / (1 + root)
    return AapBound(fine=fine, coarse=coarse)


def concat_bound(blocks: Sequence[tuple[int, Fraction]]) -> Fraction:
    """Length-weighted mean of per-block discrepancy bounds.

    The star discrepancy of a concatenation never exceeds this value.
    """
    if not blocks:
        raise ValueError("concat bound of an empty block list is undefined")
    num = Fraction(0)
    den = 0
    for length, bound in blocks:
        if length < 1:
            raise ValueError(f"block lengths must be positive, got {length}")
        bound = Fraction(bound)
        if not 0 <= bound <= 1:
            raise ValueError(f"per-block bounds must lie in [0, 1], got {bound}")
        num += length * bound
        den += length
    return num / den


class NormalityRow(NamedTuple):
    block: tuple[int, ...]
    count: int
    expected: Fraction
    ratio: Optional[Fraction]


class NormalityReport(NamedTuple):
    """Block-count ratios at a fixed prefix length.

    ``rows`` pairs each block with its count and count/expected ratio;
    ``pairwise`` maps (block_a, block_b) to count_a/count_b, or None
    where the denominator count is zero.  Ratios about an empty prefix
    or a zero count are reported as undefined rather than inferred,
    because the limit statements they feed concern tails, not prefixes.
    """

    n: int
    k: int
    rows: tuple[NormalityRow, ...]
    pairwise: dict

    def pairwise_ratio(self, a, b):
        return self.pairwise[(tuple(a), tuple(b))]


def normality_report(
    stream: DigitStream,
    k: int,
    n: int,
    blocks: Sequence[Sequence[int]],
) -> NormalityReport:
    blocks = [tuple(int(b) for b in blk) for blk in blocks]
    for blk in blocks:
        if len(blk) != k:
            raise ValueError(f"block {blk} does not have the stated length {k}")
    expected = partial_sum_qnk(stream.rule, n, k) if n > 0 else Fraction(0)
    counts = {blk: count_block(stream, blk, n) for blk in blocks}
    rows = tuple(
        NormalityRow(
            block=blk,
            count=counts[blk],
            expected=expected,
            ratio=(Fraction(counts[blk]) / expected if expected > 0 else None),
        )
        for blk in blocks
    )
    pairwise = {
        (a, b): Fraction(counts[a], counts[b]) if counts[b] > 0 else None
        for a in blocks for b in blocks if a != b
    }
    return NormalityReport(n=n, k=k, rows=rows, pairwise=pairwise)


class DiscrepancyRow(NamedTuple):
    n: int
    dstar: Fraction
    bound: Optional[Fraction] = None
    certificate: str = ""
    proxy: Optional[Fraction] = None
    envelope: Optional[Fraction] = None


class DiscrepancyReport:
    """Per-prefix star discrepancy rows with bounds and certificates."""

    def __init__(self, rows: Optional[list[DiscrepancyRow]] = None, header_note: str = ""):
        self.rows = [] if rows is None else rows
        self.header_note = header_note

    def all_pass(self) -> bool:
        return all(row.certificate != "fatal" for row in self.rows)

    def write_csv(self, path) -> None:
        with_proxy = any(row.proxy is not None for row in self.rows)
        with_env = any(row.envelope is not None for row in self.rows)
        columns = ["N", "Dstar_num", "Dstar_den", "bound_num", "bound_den", "certificate"]
        if with_proxy:
            columns += ["proxy_num", "proxy_den"]
        if with_env:
            columns += ["ebar_num", "ebar_den"]
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            if self.header_note:
                fh.write(f"# {self.header_note}\n")
            writer.writerow(columns)
            for row in self.rows:
                record = [row.n, *_cells(row.dstar), *_cells(row.bound), row.certificate]
                if with_proxy:
                    record += _cells(row.proxy)
                if with_env:
                    record += _cells(row.envelope)
                writer.writerow(record)


def _cells(value: Optional[Fraction]) -> list[str]:
    """Numerator and denominator cells, exact at any size; blank for None."""
    if value is None:
        return ["", ""]
    return [int_text(value.numerator), int_text(value.denominator)]


def dn_diagnostic(
    nums: list[int], dens: list[int], prefix_lengths: Sequence[int]
) -> DiscrepancyReport:
    """Star discrepancy of the digit ratios E_n / q_n at each prefix.

    ``nums`` holds the digits E_n and ``dens`` their bases q_n, as from
    ``expansion.level_points``; both lists are consumed, as by
    ``star_discrepancy_ladder``, whose exact integer sweep gives every
    D*, and the proxies come from one running sum (``reciprocal_sums``).

    Each row carries the averaged-reciprocal proxy (1/N) sum 1/q_n: the
    equivalence between digit-ratio equidistribution and orbit
    equidistribution holds under the hypothesis that this proxy tends
    to zero, which a finite prefix cannot decide, so the number is
    reported and the inference left to the reader.
    """
    report = DiscrepancyReport(header_note="dn diagnostic over digit ratios E_n/q_n")
    lengths = sorted(set(int(p) for p in prefix_lengths))
    if lengths and not 1 <= lengths[0] <= lengths[-1] <= len(dens):
        raise ValueError(f"prefix lengths must lie in 1..{len(dens)}")
    sums = reciprocal_sums(dens, lengths)
    dstars = star_discrepancy_ladder(nums, dens, lengths)
    report.rows = [
        DiscrepancyRow(n=n, dstar=dstar, bound=Fraction(1), certificate="trivial", proxy=recip / n)
        for n, dstar, recip in zip(lengths, dstars, sums)
    ]
    return report
