"""Nested-interval geometry and Falconer-style dimension lower bounds.

The lower bound machinery takes per-level child counts m_k and minimal
gaps eps_k and evaluates d_k = log(m_1 ... m_{k-1}) / -log(m_k eps_k);
the running trace plus a trailing-window minimum stand in for the
liminf, with no limit claimed.

For schedule-generated streams two traces are produced: the exact one
uses the true candidate count omega(k) per position (any valid child
count yields a valid bound, and the exact count is sharper), and the
bound-substituted one replaces omega(k) by the structural floor
q_k^(1 - 1/i(k)) with the pure cylinder gap, which is the closed form
the slow-growth hypothesis drives to 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .expansion import DigitStream, mixed_radix
from .numeric import format_ratio, hp_ln, int_text
from .sequences import growth_condition_trace
from .theta import ScheduleError, ThetaSchedule, digit_candidates

__all__ = [
    "GeometryError",
    "LevelGeometry",
    "basic_intervals",
    "theta_geometry",
    "falconer_lower_bound",
    "DimensionTraceRow",
    "theta_dimension_trace",
]

INTERVAL_GUARD = 100_000
GEOMETRY_EXACT_GUARD = 600


class GeometryError(ValueError):
    """Invalid nested-interval data."""


class _Level(NamedTuple):
    k: int
    m: int
    eps: Fraction


class LevelGeometry(_Level):
    """Children per parent and minimal child gap at one level."""

    __slots__ = ()

    def __new__(cls, k: int, m: int, eps: Fraction):
        if m < 1:
            raise GeometryError(f"level {k}: child count {m} < 1")
        if eps <= 0:
            raise GeometryError(f"level {k}: gap {eps} is not positive")
        return super().__new__(cls, k, m, eps)


def basic_intervals(
    schedule: ThetaSchedule, stream: DigitStream, k: int
) -> list[tuple[Fraction, Fraction]]:
    """Level-k enclosures: one interval per digit choice at position k-1.

    The stream fixes digits 1 .. k-2; the digit at position k-1 ranges
    over its candidates, and each interval is that prefix value plus the
    position-k window scaled into the prefix cylinder.  Consecutive
    candidates sit one cylinder apart minus the window width, so the
    pairwise gap is exactly (1 - 1/a(k)^2) / (q_1 ... q_{k-1}).
    Level 1 yields the single window slice of position 1.
    """
    if k < 1 or k > schedule.coverage:
        raise GeometryError(f"level index {k} outside 1..{schedule.coverage}")
    info = schedule.phi_inv(k)
    wlo, whi = schedule.window(info.level, info.offset, k)
    if k == 1:
        return [(wlo, whi)]
    candidates = digit_candidates(schedule, k - 1)
    if candidates.count > INTERVAL_GUARD:
        raise GeometryError(
            f"{candidates.count} intervals at level {k} exceed the guard {INTERVAL_GUARD}"
        )
    num, den = mixed_radix(stream, range(1, k - 1))
    prefix_value = Fraction(num, den)
    q_prod_prev = den * schedule.q(k - 1)
    intervals = []
    for digit in range(candidates.f_min, candidates.f_max + 1):
        lo = prefix_value + (digit + wlo) / q_prod_prev
        hi = prefix_value + (digit + whi) / q_prod_prev
        intervals.append((lo, hi))
    return intervals


def theta_geometry(schedule: ThetaSchedule, depth: int) -> list[LevelGeometry]:
    """Exact child counts and gap floors for levels 1 .. depth.

    m_k is the candidate count omega(k); eps_k is the enclosure gap
    (1 - 1/a(k)^2) / (q_1 ... q_{k-1}), with the single-candidate
    levels (a = 1, no siblings to separate) assigned the full cylinder
    scale 1 / (q_1 ... q_{k-1}).  Exact rationals only, so the depth is
    guarded; use the dimension trace for long horizons.
    """
    if depth < 1:
        raise GeometryError("need depth >= 1")
    if depth > GEOMETRY_EXACT_GUARD:
        raise GeometryError(
            f"exact geometry is guarded at {GEOMETRY_EXACT_GUARD} levels; "
            "use theta_dimension_trace beyond"
        )
    if depth > schedule.coverage:
        raise ScheduleError(f"depth {depth} exceeds schedule coverage {schedule.coverage}")
    out = []
    q_prod_prev = 1
    prev_eps: Optional[Fraction] = None
    for info, q in islice(schedule.walk(), depth):
        k = info.n
        if info.a == 1:
            eps = Fraction(1, q_prod_prev)
        else:
            eps = Fraction(info.a * info.a - 1, info.a * info.a) / q_prod_prev
        if prev_eps is not None and not eps < prev_eps:
            raise GeometryError(f"gap floor fails to decrease at level {k}")
        out.append(LevelGeometry(k=k, m=digit_candidates(schedule, k, info, q).count, eps=eps))
        prev_eps = eps
        q_prod_prev *= q
    return out


def falconer_lower_bound(
    geometry: Sequence[LevelGeometry], bits: int | None = None
) -> tuple[Fraction, ...]:
    """The lower-bound sequence d_k for an explicit geometry list.

    d_k = log(m_1 ... m_{k-1}) / -log(m_k eps_k), for k = 2 .. K, from
    the lower ends of the ``hp_ln`` enclosures, so d_k is a lower bound.
    A level with m_k * eps_k >= 1 has no contracting geometry and is
    rejected.
    """
    if len(geometry) < 2:
        raise GeometryError("need at least two levels")
    for a, b in zip(geometry, geometry[1:]):
        if not b.eps < a.eps:
            raise GeometryError(f"gaps must strictly decrease (level {b.k})")
    log_m = [hp_ln(g.m, bits)[0] for g in geometry]
    ds = []
    numer = 0
    for idx in range(1, len(geometry)):
        numer += log_m[idx - 1]
        g = geometry[idx]
        if g.m * g.eps >= 1:
            raise GeometryError(
                f"level {g.k}: m*eps = {g.m * g.eps} >= 1, no contraction to measure"
            )
        denom = -(log_m[idx] + hp_ln(g.eps, bits)[0])
        ds.append(Fraction(numer, denom))
    return tuple(ds)


class DimensionTraceRow(NamedTuple):
    """One trace row; each ratio is an unreduced integer pair (num, den), den > 0."""

    k: int
    level: int
    omega: int
    log2_eps_num: int
    ln2_lo: int  # the denominator of log2_eps
    d_exact_num: int
    d_exact_den: int
    d_bound_num: int
    d_bound_den: int

    csv_header = "k,i_k,omega_k,eps_log2,d_exact,d_bound\n"

    def csv_line(self, omega_text: Callable[[int], str] = int_text) -> str:
        """The row's line of ``dim_trace.csv``, newline included."""
        k, level, omega, eps_num, ln2_lo, exact_num, exact_den, bound_num, bound_den = self
        return (
            f"{k},{level},{omega_text(omega)},{format_ratio(eps_num, ln2_lo)},"
            f"{format_ratio(exact_num, exact_den)},{format_ratio(bound_num, bound_den)}\n"
        )


def theta_dimension_trace(
    schedule: ThetaSchedule,
    horizon: int,
    bits: int | None = None,
    *,
    emit: Callable[[DimensionTraceRow], None],
    growth: Callable[[int, int, int], None],
) -> str:
    """Exact-count and bound-substituted d_k traces to the horizon.

    Everything streams in log space so gap denominators (products of
    all earlier bases) never materialize.  Row k reports the level i(k),
    the exact candidate count omega(k), log2 of the exact gap, and both
    d_k variants; rows start at k = 2.  omega(k) is the count of the walk
    step's ``digit_candidates`` window, from the window bounds: one
    division of q_k and two small ceilings, with no clamp.  Every
    sum of ``hp_ln`` enclosure ends rounds in the direction that keeps
    each d_k a lower bound.

    Each ``DimensionTraceRow`` goes to ``emit`` as soon as it is made;
    none is kept.  Its ratios are the integer pairs of the log sums, so
    no ``Fraction`` is formed per row, and it is built by ``tuple.__new__``
    without the record's Python-level ``__new__``.  The same walk's ln q_n
    enclosures feed ``growth_condition_trace(..., emit=growth)``, whose
    flag is returned.
    """
    if not 2 <= horizon <= schedule.coverage:
        raise GeometryError(f"horizon must lie in 2..{schedule.coverage}")
    ln2_lo = hp_ln(2, bits)[0]

    def enclosures() -> Iterator[tuple[int, int]]:
        gap_logs = {1: 0}  # lo(ln((a^2 - 1)/a^2)) by a, one per level; 0 when a = 1
        sum_log_q = 0  # sum of hi(ln q_n) for n < k
        sum_log_omega = 0  # exact-count numerator
        sum_log_bound = 0  # bound-substituted numerator
        for info, q in islice(schedule.walk(), horizon):
            k = info.n
            omega = digit_candidates(schedule, k, info, q).count
            q_lo, q_hi = hp_ln(q, bits)
            log_omega = hp_ln(omega, bits)[0]
            weighted = (info.level - 1) * q_lo // info.level  # rounded down
            if k >= 2:
                if info.a not in gap_logs:
                    a2 = info.a * info.a
                    gap_logs[info.a] = hp_ln(Fraction(a2 - 1, a2), bits)[0]
                log_gap_factor = gap_logs[info.a]
                denom_exact = sum_log_q - log_omega - log_gap_factor
                denom_bound = sum_log_q - weighted
                if denom_exact <= 0 or denom_bound <= 0:
                    raise GeometryError(f"no contraction to measure at k = {k}")
                emit(tuple.__new__(DimensionTraceRow, (
                    k, info.level, omega, log_gap_factor - sum_log_q, ln2_lo,
                    sum_log_omega, denom_exact, sum_log_bound, denom_bound,
                )))
            sum_log_q += q_hi
            sum_log_omega += log_omega
            sum_log_bound += weighted
            yield q_lo, q_hi

    return growth_condition_trace(enclosures(), horizon, emit=growth)
