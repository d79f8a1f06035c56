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
from itertools import compress, count, repeat
from typing import Iterable, NamedTuple, Optional, Sequence

from .expansion import DigitStream, atomic_write, count_block
from .numeric import int_text, sqrt_lower
from .sequences import BasicSequenceRule, partial_sum_qnk, window_reciprocal_sums

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


def _dyadic(dens: Iterable[int]) -> bool:
    return all(den == 1 << (den.bit_length() - 1) for den in dens)


def _shift_to_common(nums: list[int], dens: list[int]) -> int:
    """Rewrite nums[i]/dens[i] in place over d, the largest (power-of-two)
    denominator.  ``dens`` is emptied as the points are shifted, so the
    widened points and the denominators are never all held at once."""
    d = max(dens)
    width = d.bit_length()
    for i in range(len(nums) - 1, -1, -1):
        nums[i] <<= width - dens.pop().bit_length()
    return d


def _integer_ladder(scaled: list[int], d: int, lengths: Sequence[int]) -> list[Fraction]:
    """The ladder over integer numerators X_i of points X_i/d, d = 2**w.

    The terms are left_i = X_(i)*n - (i-1)*d and i*d - X_(i)*n = d - left_i.
    Each prefix is swept on truncations first: with s = max(w - 62, 0) and
    A_i = (X_(i) >> s)*n - (i-1)*(d >> s), A_i*2**s <= left_i < (A_i + n)*2**s,
    so only ranks with A_i > max A - n can hold the largest left_i and only
    ranks with A_i < min A + n the smallest; just those are evaluated exactly.
    The A_i are regenerated per pass, never held.
    """
    s = max(d.bit_length() - 63, 0)
    step = d >> s
    out = []
    run: list[int] = []
    for n in lengths:
        # The sorted shorter prefix stays one run, so each sort is a merge.
        run.extend(scaled[len(run) : n])
        run.sort()

        def truncated():
            heads = map(operator.mul, map(operator.rshift, run, repeat(s)), repeat(n))
            return map(operator.sub, heads, range(0, n * step, step))

        def exact(cut, side):
            ranks = compress(count(), map(side, truncated(), repeat(cut)))
            return (run[i] * n - i * d for i in ranks)

        high = max(exact(max(truncated()) - n, operator.gt))
        low = min(exact(min(truncated()) + n, operator.lt))
        out.append(Fraction(max(high, d - low), n * d))
    return out


def _ratio_ladder(nums: list[int], dens: list[int], lengths: Sequence[int]) -> list[Fraction]:
    """The ladder for any denominators, each point nums[i]/dens[i] over its own.

    Distinct ratios with denominators below 2**b differ by more than
    2**(-2b), reduced or not, so floor(num * 2**(2b) / den) sorts them
    exactly; each point sorts as that key shifted past the width of its
    index i, which reads nums[i] and dens[i] back.  With x_(i) = a/c the
    term x_(i)*n - (i-1) is (a*n - (i-1)*c)/c; terms are compared by
    cross-multiplication, so no lcm is formed and every product stays
    near the size of one point.
    """
    shift = 2 * max(dens).bit_length()
    width = len(nums).bit_length()
    mask = (1 << width) - 1
    out = []
    run: list[int] = []
    for n in lengths:
        run.extend(
            (((nums[i] << shift) // dens[i]) << width) | i for i in range(len(run), n)
        )
        run.sort()
        i = run[0] & mask
        high_num = low_num = nums[i] * n
        high_den = low_den = dens[i]
        for rank, key in enumerate(run):
            i = key & mask
            den = dens[i]
            left = nums[i] * n - rank * den
            if left * high_den > high_num * den:
                high_num, high_den = left, den
            elif left * low_den < low_num * den:
                low_num, low_den = left, den
        # The right term i - x_(i)*n is 1 - left_i; both are in units of 1/n.
        right_num = low_den - low_num
        if right_num * high_den > high_num * low_den:
            high_num, high_den = right_num, low_den
        out.append(Fraction(high_num, high_den * n))
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
    shorter prefix, then evaluated in integers by the closed form of
    Kuipers and Niederreiter,

        D*_n = max_i max(x_(i) - (i-1)/n, i/n - x_(i)).

    Power-of-two denominators share one common denominator d, the
    largest: with X_i = x_i * d the terms are X_(i)*n - (i-1)*d and
    i*d - X_(i)*n over n*d, and one d serves the whole ladder.  Other
    denominators keep each point over its own (``_ratio_ladder``):
    their lcm can be far wider than any one point, so it is never
    formed.  Those points sort by exact integer keys, and each prefix
    forms one ``Fraction``, its result.
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
    if _dyadic(dens):
        out = _integer_ladder(nums, _shift_to_common(nums, dens), lengths)
    else:
        out = _ratio_ladder(nums, dens, lengths)
        dens.clear()
    nums.clear()
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
            delta=delta,
            epsilon=epsilon,
            eta=None,
            accepted=False,
            failing_condition=code,
            n_points=len(values),
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
        delta=delta,
        epsilon=epsilon,
        eta=eta,
        accepted=True,
        failing_condition=None,
        n_points=len(values),
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
    rule: BasicSequenceRule,
    k: int,
    n: int,
    blocks: Sequence[Sequence[int]],
) -> NormalityReport:
    blocks = [tuple(int(b) for b in blk) for blk in blocks]
    for blk in blocks:
        if len(blk) != k:
            raise ValueError(f"block {blk} does not have the stated length {k}")
    expected = partial_sum_qnk(rule, n, k) if n > 0 else Fraction(0)
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
    pairwise = {}
    for a in blocks:
        for b in blocks:
            if a == b:
                continue
            pairwise[(a, b)] = (
                Fraction(counts[a], counts[b]) if counts[b] > 0 else None
            )
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
    ``star_discrepancy_ladder``.  The whole ladder is one exact integer
    sweep, and the proxies come from one running sum
    (``window_reciprocal_sums``).  Power-of-two bases put every ratio
    over one common denominator, the largest base, by a shift; other
    bases sort their ratios by exact integer keys and compare them by
    cross-multiplication, so no lcm is formed.  Each prefix forms one
    ``Fraction``, its result.

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
    sums = window_reciprocal_sums(dens, 1, lengths)
    dstars = star_discrepancy_ladder(nums, dens, lengths)
    for n, dstar, running_recip in zip(lengths, dstars, sums):
        report.rows.append(
            DiscrepancyRow(
                n=n,
                dstar=dstar,
                bound=Fraction(1),
                certificate="trivial",
                proxy=running_recip / n,
            )
        )
    return report
