import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from cnl import theta
from cnl.equidist import star_discrepancy, verify_aap
from cnl.expansion import DigitError, DigitStream
from cnl.sequences import (
    BlockRepetitionRule,
    ChainSpec,
    ConstantRule,
    ExplicitListRule,
    GeometricRule,
    OutOfDomainError,
)
from cnl.theta import (
    PositionInfo,
    ScheduleError,
    SelectionPolicy,
    TailCertificateError,
    ThetaSchedule,
    build_schedule,
    compute_nu,
    digit_candidates,
    envelope,
    envelope_sup,
    extract_y,
    extract_y_prefix,
    generate_digits,
    position_decomposition,
    prefix_bound_check,
)

from .conftest import (
    STREAM_LEN,
    doubling_spec,
    envelope_check,
    generated,
    short_list_spec,
    walk_filter_y_prefix,
)


class TestComputeNu:
    def test_doubling_thresholds(self, spec_a):
        assert compute_nu(spec_a, 2) == 1
        assert compute_nu(spec_a, 3) == 9
        assert compute_nu(spec_a, 4) == 21

    def test_uncertified_rule_refused(self):
        rule = ExplicitListRule([2**k for k in range(4, 40)])
        rule.monotone_tail_from = None
        spec = ChainSpec(base=rule, s=ConstantRule(2), depth=3)
        with pytest.raises(TailCertificateError):
            compute_nu(spec, 2)

    def test_left_extension_stops_at_dip(self):
        values = [16, 2, 16, 16, 16, 16, 16, 16]
        rule = ExplicitListRule(values, monotone_tail_from=2)
        spec = ChainSpec(base=rule, s=ConstantRule(2), depth=2)
        # threshold 16: position 2 dips below, so the tail starts at 3
        assert compute_nu(spec, 2) == 3

    def test_domain_exhaustion(self):
        rule = ExplicitListRule([2, 2, 2], monotone_tail_from=1)
        spec = ChainSpec(base=rule, s=ConstantRule(2), depth=2)
        with pytest.raises(ScheduleError):
            compute_nu(spec, 2)

    def test_scan_budget(self):
        # q_n = 2 never reaches S_2^4 = 16; the scan stops after the
        # full budget past the certified tail.
        spec = ChainSpec(base=ConstantRule(2), s=ConstantRule(2), depth=2)
        budget = theta.SCAN_BUDGET
        with pytest.raises(ScheduleError, match=f"not crossed within {budget} positions"):
            compute_nu(spec, 2)

    @pytest.mark.parametrize("tail", [1, 4])
    def test_scan_reads_through_tail_plus_budget(self, monkeypatch, tail):
        # q = 2 through position tail + 4, then 16 = S_2^4: with a budget
        # of 5 the last position scanned crosses; with 4 the scan gives up.
        rule = ExplicitListRule([2] * (tail + 4) + [16] * 3, monotone_tail_from=tail)
        spec = ChainSpec(base=rule, s=ConstantRule(2), depth=2)
        monkeypatch.setattr(theta, "SCAN_BUDGET", 5)
        assert compute_nu(spec, 2) == tail + 5
        monkeypatch.setattr(theta, "SCAN_BUDGET", 4)
        with pytest.raises(ScheduleError, match="not crossed within 4 positions"):
            compute_nu(spec, 2)

    def test_scan_past_the_domain_says_so(self, monkeypatch):
        rule = ExplicitListRule([2] * 6, monotone_tail_from=1)
        spec = ChainSpec(base=rule, s=ConstantRule(2), depth=2)
        monkeypatch.setattr(theta, "SCAN_BUDGET", 5)
        with pytest.raises(ScheduleError, match="not crossed within 5 positions"):
            compute_nu(spec, 2)
        monkeypatch.setattr(theta, "SCAN_BUDGET", 6)
        with pytest.raises(ScheduleError, match="never crossed within rule domain: position 7 past end"):
            compute_nu(spec, 2)


class TestBuildSchedule:
    def test_tables(self, schedule_a):
        assert [schedule_a.nu(j) for j in (2, 3, 4)] == [1, 9, 21]
        assert [schedule_a.ell(j) for j in (1, 2, 3)] == [2, 71, 9036]
        assert [schedule_a.big_l(j) for j in (1, 2, 3)] == [2, 144, 36288]
        assert schedule_a.coverage == 36288

    def test_identities(self, schedule_a, spec_a):
        for j in (1, 2, 3):
            assert schedule_a.ell(j) >= j * spec_a.s_value(j)
            assert schedule_a.big_l(j) % spec_a.big_s(j + 1) == 0
            assert schedule_a.big_l(j) >= schedule_a.nu(j + 1) - 1
        for j in (2, 3):
            lhs = schedule_a.ell(j) * spec_a.big_s(j)
            rhs = schedule_a.big_l(j - 1) * (
                2 * j * spec_a.s_value(j) * schedule_a.nu(j + 1) - 1
            )
            assert lhs == rhs

    def test_deep_config_reads_no_huge_base(self, monkeypatch):
        # At depth 7 the doubling base's q at L_5 + 1 has about 2.4e10
        # bits; every verify row must be decided without it.
        def small_q(self, n):
            assert n <= 10**8, f"schedule read q_{n}"
            return self.spec.base.q(n)

        monkeypatch.setattr(ThetaSchedule, "q", small_q)
        for depth in (7, 8, 10):
            schedule = build_schedule(doubling_spec(depth=depth))
            assert schedule.levels == depth - 1
            assert schedule.big_l(5) == 24_490_045_440
            rows = {name: (ok, detail) for name, ok, detail in schedule.verify()}
            first = schedule.big_l(5) + 1
            assert rows["level 6 opens past its threshold"] == (True, f"q_{first} >= S_6^12")

    def test_s_table_ends_one_level_past_the_schedule(self, schedule_a):
        # S_j is tabulated for j = 1 .. levels + 1 and read from the table.
        assert [schedule_a.big_s(j) for j in range(1, 5)] == [1, 2, 4, 8]
        for j in (0, 5):
            with pytest.raises(ScheduleError, match=rf"^S_{j} not computed \(levels 1\.\.4\)$"):
                schedule_a.big_s(j)

    def test_depth_one_schedules_first_level(self):
        schedule = build_schedule(doubling_spec(depth=1))
        assert schedule.levels == 1
        assert schedule.coverage == 2
        stream = generated(schedule, SelectionPolicy("min"), 2)
        assert stream.prefix(2) == [1, 1]

    def test_dump_shape(self, schedule_a):
        dump = schedule_a.dump_json()
        assert dump["S"] == [1, 2, 4, 8]
        assert dump["nu"] == [None, 1, 9, 21]
        assert dump["l"] == [2, 71, 9036]
        assert dump["L"] == [2, 144, 36288]
        assert dump["window_shift"] == "c-1"
        assert dump["y_index_base"] == 0


class TestBijection:
    def test_first_position(self, schedule_a):
        assert schedule_a.phi(1, 1, 1) == 1

    def test_level_two_start(self, schedule_a):
        assert schedule_a.phi(2, 1, 1) == 3

    def test_last_level_two_position(self, schedule_a):
        info = schedule_a.phi_inv(144)
        assert (info.level, info.block, info.offset) == (2, 71, 2)

    def test_exhaustive_roundtrip(self, schedule_a):
        for n in range(1, schedule_a.coverage + 1):
            info = schedule_a.phi_inv(n)
            assert schedule_a.phi(info.level, info.block, info.offset) == n

    def test_out_of_range(self, schedule_a):
        with pytest.raises(ScheduleError):
            schedule_a.phi_inv(schedule_a.coverage + 1)
        with pytest.raises(ScheduleError):
            schedule_a.phi(2, 72, 1)


class TestCandidates:
    def test_level_one_forced(self, schedule_a):
        for n in (1, 2):
            cand = digit_candidates(schedule_a, n)
            assert (cand.f_min, cand.f_max) == (1, 1)

    def test_position_three_window(self, schedule_a):
        cand = digit_candidates(schedule_a, 3)
        assert (cand.f_min, cand.f_max, cand.count) == (16, 31, 16)
        info = schedule_a.phi_inv(3)
        assert schedule_a.window(info.level, info.offset, 3) == (Fraction(1, 4), Fraction(1, 2))

    def test_integer_bounds_match_the_fraction_window(self, schedule_a):
        ends = []
        for j in range(1, schedule_a.levels + 1):
            ends += [schedule_a.big_l(j - 1) + 1, schedule_a.big_l(j)]
        assert ends[-1] == schedule_a.coverage == 36288
        for n in sorted(set(range(1, 5001)) | set(ends)):
            info = schedule_a.phi_inv(n)
            q = schedule_a.q(n)
            if info.level == 1:
                lo, hi = Fraction(1, q), Fraction(2, q)
            else:
                a = info.a
                lo = Fraction(info.offset - 1, a) + Fraction(1, a * a)
                hi = lo + Fraction(1, a * a)
            assert schedule_a.window(info.level, info.offset, n) == (lo, hi)
            cand = digit_candidates(schedule_a, n)
            assert cand.f_min == max(math.ceil(q * lo), 1)
            assert cand.f_max == min(math.ceil(q * hi) - 1, q - 1)

    @pytest.mark.parametrize("ratio", [3, 5])
    def test_integer_bounds_with_remainders(self, ratio):
        # q_n = ratio**(n+1) leaves a remainder mod every a**2, so both
        # ceilings of the window bounds are taken on nonzero parts.
        spec = ChainSpec(base=GeometricRule(ratio, ratio), s=ConstantRule(2), depth=4)
        schedule = build_schedule(spec)
        for info, q in islice(schedule.walk(), 3000):
            lo, hi = schedule.window(info.level, info.offset, info.n)
            cand = digit_candidates(schedule, info.n, info, q)
            assert cand.f_min == max(math.ceil(q * lo), 1)
            assert cand.f_max == min(math.ceil(q * hi) - 1, q - 1)

    def test_position_four_window(self, schedule_a):
        cand = digit_candidates(schedule_a, 4)
        assert (cand.f_min, cand.f_max, cand.count) == (96, 127, 32)
        # count clears the structural floor q^(1 - 1/level)
        assert cand.count**2 >= schedule_a.q(4)

    def test_floor_bound_and_nonzero(self, schedule_a):
        for n in range(1, 600):
            info = schedule_a.phi_inv(n)
            cand = digit_candidates(schedule_a, n)
            assert cand.f_min >= 1
            assert cand.f_max <= schedule_a.q(n) - 1
            if info.level >= 2:
                assert cand.count >= max(1, schedule_a.q(n) // (info.a * info.a))
                if schedule_a.q(n) >= 16:
                    assert cand.count > 2
            else:
                assert cand.count == 1


def one_position(schedule, n):
    """Position n's coordinates, base and window from the one-position readers."""
    return schedule.phi_inv(n), schedule.spec.base.q(n), digit_candidates(schedule, n)


def walked(schedule, start, count=None):
    """The walk from ``start``, each step with the window it gives."""
    return [
        (info, q, digit_candidates(schedule, info.n, info, q))
        for info, q in islice(schedule.walk(start), count)
    ]


def walk_starts(schedule):
    """1, every L_j and L_j + 1 inside the coverage, and the coverage."""
    starts = {1, schedule.coverage}
    for j in range(1, schedule.levels + 1):
        starts |= {schedule.big_l(j), schedule.big_l(j) + 1}
    return sorted(n for n in starts if n <= schedule.coverage)


class TestWalk:
    def test_geometric_base_every_start(self):
        schedule = build_schedule(doubling_spec(depth=3))
        assert schedule.coverage == 144
        for start in range(1, schedule.coverage + 1):
            steps = walked(schedule, start)
            assert [w[0].n for w in steps] == list(range(start, schedule.coverage + 1))
            for n in (start, start + 1, schedule.coverage):
                if n <= schedule.coverage:
                    assert steps[n - start] == one_position(schedule, n)
        assert walked(schedule, 1) == [
            one_position(schedule, n) for n in range(1, schedule.coverage + 1)
        ]

    def test_geometric_base_at_level_boundaries(self, schedule_a):
        starts = walk_starts(schedule_a)
        assert starts == [1, 2, 3, 144, 145, 36288]
        for start in starts:
            steps = walked(schedule_a, start, 40)
            assert len(steps) == min(40, schedule_a.coverage - start + 1)
            for offset, entry in enumerate(steps):
                assert entry == one_position(schedule_a, start + offset)

    def test_ends_after_coverage(self, schedule_a):
        walk = schedule_a.walk(schedule_a.coverage)
        info, q = next(walk)
        assert info == PositionInfo(n=36288, level=3, block=9036, offset=4, a=4)
        assert q == 2 ** 36291
        with pytest.raises(StopIteration):
            next(walk)
        with pytest.raises(ScheduleError):
            next(schedule_a.walk(schedule_a.coverage + 1))
        with pytest.raises(ScheduleError):
            next(schedule_a.walk(0))

    @pytest.mark.parametrize("start", [1, 2, 3, 144, 145, 199, 200])
    def test_short_list_base_raises_where_q_does(self, start):
        spec = short_list_spec()
        schedule = build_schedule(spec)
        assert schedule.coverage == 36288
        with pytest.raises(OutOfDomainError) as q_error:
            spec.base.q(201)
        with pytest.raises(OutOfDomainError) as cand_error:
            digit_candidates(schedule, 201)
        steps = []
        with pytest.raises(OutOfDomainError) as walk_error:
            for info, q in schedule.walk(start):
                steps.append((info, q, digit_candidates(schedule, info.n, info, q)))
        assert str(walk_error.value) == str(q_error.value) == str(cand_error.value)
        assert steps == [one_position(schedule, n) for n in range(start, 201)]

    def test_short_list_base_past_its_end(self):
        spec = short_list_spec()
        schedule = build_schedule(spec)
        for start in (201, 36288):
            with pytest.raises(OutOfDomainError) as walk_error:
                next(schedule.walk(start))
            with pytest.raises(OutOfDomainError) as q_error:
                spec.base.q(start)
            assert str(walk_error.value) == str(q_error.value)

    def test_block_repetition_base(self):
        base = BlockRepetitionRule(value_affine=(2**20, 2), repeat_affine=(1, 1))
        schedule = build_schedule(ChainSpec(base=base, s=ConstantRule(2), depth=4))
        assert [schedule.big_l(j) for j in (1, 2, 3)] == [2, 16, 26112]
        for start in walk_starts(schedule):
            assert walked(schedule, start, 300) == [
                one_position(schedule, n)
                for n in range(start, min(start + 300, schedule.coverage + 1))
            ]


class TestGenerate:
    def test_min_policy_prefix(self, stream_a):
        assert stream_a.prefix(4) == [1, 1, 16, 96]

    def test_max_policy(self, schedule_a):
        stream = generated(schedule_a, SelectionPolicy("max"), 4)
        assert stream.digit(3) == 31

    def test_mid_policy(self, schedule_a):
        stream = generated(schedule_a, SelectionPolicy("mid"), 4)
        assert stream.digit(3) == 16 + 7

    def test_seeded_policy_deterministic(self, schedule_a):
        a = generated(schedule_a, SelectionPolicy("seeded", seed=42), 100)
        b = generated(schedule_a, SelectionPolicy("seeded", seed=42), 100)
        c = generated(schedule_a, SelectionPolicy("seeded", seed=43), 100)
        assert a.prefix(100) == b.prefix(100)
        assert a.prefix(100) != c.prefix(100)

    def test_all_digits_in_window_and_nonzero(self, schedule_a):
        for policy in (SelectionPolicy("min"), SelectionPolicy("max"),
                       SelectionPolicy("mid"), SelectionPolicy("seeded", seed=7)):
            stream = generated(schedule_a, policy, 300)
            for n in range(1, 301):
                digit = stream.digit(n)
                assert digit != 0
                assert digit in digit_candidates(schedule_a, n)

    def test_no_zero_blocks(self, schedule_a, stream_a):
        from cnl.expansion import count_block

        assert count_block(stream_a, (0,), 2000) == 0

    def test_coverage_guard(self, schedule_a):
        # A bad count raises at the call, before any digit is read.
        for n in (0, schedule_a.coverage + 1):
            with pytest.raises(ScheduleError):
                generate_digits(schedule_a, SelectionPolicy("min"), n)

    def test_stream_ends_at_n(self, schedule_a):
        stream = generated(schedule_a, SelectionPolicy("min"), 50)
        assert stream.limit == 50
        with pytest.raises(DigitError):
            stream.digit(51)

    def test_base_ending_early_raises(self):
        schedule = build_schedule(short_list_spec())
        assert len(list(generate_digits(schedule, SelectionPolicy("min"), 200))) == 200
        digits = generate_digits(schedule, SelectionPolicy("min"), 201)  # raises on the read
        with pytest.raises(OutOfDomainError, match="position 201 past end"):
            list(digits)


class TestExtractY:
    def test_first_level_two_block(self, schedule_a, stream_a):
        assert extract_y(schedule_a, stream_a, 1, 2, 1) == [
            Fraction(1, 4),
            Fraction(3, 4),
        ]

    def test_j_must_be_less_than_k(self, schedule_a, stream_a):
        with pytest.raises(ScheduleError):
            extract_y(schedule_a, stream_a, 2, 2, 1)

    def test_level_three_sampling_offsets(self, schedule_a, stream_a):
        points = extract_y(schedule_a, stream_a, 2, 3, 1)
        assert len(points) == 2
        p1 = schedule_a.phi(3, 1, 1)
        p3 = schedule_a.phi(3, 1, 3)
        assert points == [
            Fraction(stream_a.digit(p1), schedule_a.q(p1)),
            Fraction(stream_a.digit(p3), schedule_a.q(p3)),
        ]

    def test_prefix_collects_in_position_order(self, schedule_a, stream_a):
        nums, dens = extract_y_prefix(schedule_a, stream_a, 1, 146)
        assert len(nums) == len(dens) == 144  # 142 level-2 samples plus two level-3 ones
        assert (nums[:2], dens[:2]) == ([16, 96], [64, 128])  # 1/4 and 3/4

    def test_prefix_skips_coarser_offsets(self, schedule_a, stream_a):
        nums, _ = extract_y_prefix(schedule_a, stream_a, 2, 152)
        # only offsets 1 and 3 of the first two level-3 blocks qualify
        assert len(nums) == 4

    def test_y_prefix_points_count(self, schedule_a, stream_a):
        # every position past L_1 = 2 is sampled at S_1 = 1
        nums, dens = extract_y_prefix(schedule_a, stream_a, 1, STREAM_LEN)
        assert len(nums) == len(dens) == STREAM_LEN - 2

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_prefix_up_to_level_j_is_empty(self, schedule_a, stream_a, j):
        n = min(schedule_a.big_l(j), STREAM_LEN)
        assert extract_y_prefix(schedule_a, stream_a, j, n) == ([], [])
        if n < STREAM_LEN:
            assert len(extract_y_prefix(schedule_a, stream_a, j, n + 1)[0]) == 1

    @pytest.mark.parametrize("j, n", [(1, 146), (2, 152), (1, 5000), (2, 5000)])
    def test_prefix_runs_are_the_block_samples(self, schedule_a, stream_a, j, n):
        # The walk filter against the random-access reader: each complete
        # level-t block inside the prefix is one run of the prefix's points.
        nums, dens = extract_y_prefix(schedule_a, stream_a, j, n)
        points = [Fraction(num, den) for num, den in zip(nums, dens)]
        at = 0
        for t in range(j + 1, schedule_a.levels + 1):
            span = schedule_a.big_s(t) // schedule_a.big_s(j)
            for b in range(1, schedule_a.ell(t) + 1):
                if schedule_a.phi(t, b, schedule_a.big_s(t)) > n:
                    break
                assert points[at : at + span] == extract_y(schedule_a, stream_a, j, t, b)
                at += span
        assert at > 0 and len(points) - at < span


def periodic_stream(rule, length):
    """A stream whose digit at n is n mod 7, inside every base >= 8."""
    return DigitStream(rule, [n % 7 for n in range(1, length + 1)])


STRIDE_SPECS = {
    "readme": ChainSpec(base=GeometricRule(8, 2), s=ConstantRule(2), depth=4),
    "ratio-3": ChainSpec(base=GeometricRule(9, 3), s=ConstantRule(2), depth=4),
    "constant-s-3": ChainSpec(base=GeometricRule(27, 3), s=ConstantRule(3), depth=3),
}


class TestStrideYPrefix:
    """extract_y_prefix takes positions L_j + 1, L_j + 1 + S_j, ... by stride;
    the walk filter in conftest is the reference."""

    @pytest.fixture(scope="class", params=sorted(STRIDE_SPECS))
    def scheduled(self, request):
        schedule = build_schedule(STRIDE_SPECS[request.param])
        return schedule, periodic_stream(schedule.spec.base, schedule.coverage)

    def test_matches_the_walk_filter_around_each_level_end(self, scheduled):
        schedule, stream = scheduled
        ends = [schedule.big_l(t) for t in range(1, schedule.levels + 1)]
        for j in range(1, schedule.levels + 1):
            for n in sorted({m for end in ends for m in (end - 1, end, end + 1)}):
                if n > schedule.coverage:
                    with pytest.raises(ScheduleError, match="beyond coverage"):
                        extract_y_prefix(schedule, stream, j, n)
                    continue
                assert extract_y_prefix(schedule, stream, j, n) == walk_filter_y_prefix(
                    schedule, stream, j, n
                ), (j, n)

    @pytest.mark.parametrize("length, n", [(100, 146), (11, 12), (11, 11), (10, 11)])
    def test_a_base_that_ends_before_n(self, schedule_a, length, n):
        # The schedule's tables over a base cut after ``length`` positions:
        # the stride walks the base through n, as the filter does, so both
        # raise where q would, also past the last sampled position.
        short = ChainSpec(
            base=ExplicitListRule(schedule_a.spec.base.values(length)),
            s=ConstantRule(2),
            depth=4,
        )
        schedule = ThetaSchedule(
            short, schedule_a.levels, schedule_a._nu, schedule_a._ell, schedule_a._big_l
        )
        stream = periodic_stream(schedule_a.spec.base, n)
        for j in (1, 2):
            if n <= length or n <= schedule.big_l(j):
                assert extract_y_prefix(schedule, stream, j, n) == walk_filter_y_prefix(
                    schedule, stream, j, n
                )
                continue
            with pytest.raises(OutOfDomainError) as stride:
                extract_y_prefix(schedule, stream, j, n)
            with pytest.raises(OutOfDomainError) as walk:
                walk_filter_y_prefix(schedule, stream, j, n)
            first = max(length, schedule.big_l(j)) + 1
            assert str(stride.value) == str(walk.value) == (
                f"position {first} past end of explicit-list rule (length {length})"
            )

    def test_a_stream_that_ends_before_a_sampled_position(self, schedule_a, stream_a):
        short = DigitStream(schedule_a.spec.base, stream_a.prefix(150))
        assert extract_y_prefix(schedule_a, short, 2, 150) == walk_filter_y_prefix(
            schedule_a, short, 2, 150
        )
        with pytest.raises(DigitError, match="unavailable"):
            extract_y_prefix(schedule_a, short, 2, 151)


class TestEnvelope:
    def test_sup_values(self, schedule_a):
        assert envelope_sup(schedule_a, 1, 2) == 1
        assert envelope_sup(schedule_a, 1, 3) == 1
        assert envelope_sup(schedule_a, 1, 4) == Fraction(18224, 36296)

    def test_sup_nonincreasing(self, schedule_a):
        values = [envelope_sup(schedule_a, 1, t) for t in (2, 3, 4)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_sup_dominates_grid(self, schedule_a):
        # full grid wherever it fits a 10^4-point budget, subsampled beyond
        for j, t in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)):
            span = schedule_a.big_s(t) // schedule_a.big_s(j)
            sup = envelope_sup(schedule_a, j, t)
            w_max = schedule_a.ell(t) if t <= schedule_a.levels else 2000
            if (w_max + 1) * (span + 1) <= 10_000:
                w_values = range(w_max + 1)
            else:
                stride = max(1, w_max // (10_000 // (span + 1)))
                w_values = sorted(set(list(range(0, w_max + 1, stride)) + [w_max]))
            for w in w_values:
                for z in range(span + 1):
                    assert envelope(schedule_a, j, t, w, z) <= sup

    def test_strictly_below_sup_when_informative(self, schedule_a):
        # the only envelope below 1 at this depth separates strictly
        sup = envelope_sup(schedule_a, 1, 4)
        for w in (0, 1, 2, 17, 1000):
            for z in range(9):
                if (w, z) == (0, 8):
                    continue
                assert envelope(schedule_a, 1, 4, w, z) < sup

    def test_domain_checks(self, schedule_a):
        with pytest.raises(ScheduleError):
            envelope(schedule_a, 2, 2, 0, 0)
        with pytest.raises(ScheduleError):
            envelope(schedule_a, 1, 3, 0, 5)


class TestPositionDecomposition:
    def test_first_sample_of_new_level(self, schedule_a):
        d = position_decomposition(schedule_a, 1, 3)
        assert (d.level, d.m, d.alpha, d.beta) == (2, 1, 0, 1)

    def test_two_complete_blocks(self, schedule_a):
        d = position_decomposition(schedule_a, 1, 4)
        assert (d.level, d.alpha, d.beta) == (2, 1, 0)

    def test_boundary_prefix(self, schedule_a):
        d = position_decomposition(schedule_a, 1, 144)
        assert (d.level, d.alpha, d.beta) == (2, 71, 0)
        d = position_decomposition(schedule_a, 1, 145)
        assert (d.level, d.alpha, d.beta) == (3, 0, 1)

    def test_beta_range(self, schedule_a):
        for n in range(2, 400):
            d = position_decomposition(schedule_a, 1, n)
            span = schedule_a.big_s(d.level)
            assert 0 <= d.beta < span
            assert 0 <= d.alpha <= schedule_a.ell(d.level)
            assert d.m == d.alpha * span + d.beta

    def test_below_horizon_rejected(self, schedule_a):
        with pytest.raises(ScheduleError):
            position_decomposition(schedule_a, 2, 71)


class TestPrefixBoundCheck:
    def test_short_prefix_trivial_envelope(self, schedule_a, stream_a):
        rep = envelope_check(schedule_a, stream_a, 1, [2])
        row = rep.rows[0]
        assert row.dstar == Fraction(1, 4)
        assert row.bound == 1
        assert row.certificate == "pass"

    def test_rows_pass_exactly(self, schedule_a, stream_a):
        lengths = [2, 3, 4, 16, 142, 143, 144, 145, 500, 1024, 4096, 4998]
        rep = envelope_check(schedule_a, stream_a, 1, lengths)
        assert rep.all_pass()
        for row in rep.rows:
            assert row.dstar <= row.bound
            if row.envelope is not None:
                assert row.bound <= row.envelope

    def test_rows_equal_star_discrepancy_of_each_prefix(self, schedule_a, stream_a):
        lengths = [600, 3, 1, 144, 3, 145, 600, 2]
        rep = envelope_check(schedule_a, stream_a, 1, lengths)
        assert [row.n for row in rep.rows] == sorted(set(lengths))
        nums, dens = extract_y_prefix(schedule_a, stream_a, 1, STREAM_LEN)
        points = [Fraction(num, den) for num, den in zip(nums, dens)]
        for row in rep.rows:
            assert row.dstar == star_discrepancy(points[: row.n])

    def test_prefix_beyond_the_samples_rejected(self, schedule_a, stream_a):
        with pytest.raises(ScheduleError):
            envelope_check(schedule_a, stream_a, 3, [1, 10**6])
        with pytest.raises(ScheduleError):
            envelope_check(schedule_a, stream_a, 1, [STREAM_LEN - 1])

    def test_trend_reported(self, schedule_a, stream_a):
        trend = {t: envelope_sup(schedule_a, 1, t) for t in (2, 3, 4)}
        assert trend == {2: Fraction(1), 3: Fraction(1), 4: Fraction(18224, 36296)}
        # Each row past the horizon carries the supremum of its accounted level.
        rep = envelope_check(schedule_a, stream_a, 1, [4, 100, 500, 4998])
        for row in rep.rows:
            assert row.envelope == trend[position_decomposition(schedule_a, 1, row.n).level]

    def test_deep_prefix_strictly_inside_informative_envelope(
        self, schedule_a, stream_a
    ):
        rep = envelope_check(schedule_a, stream_a, 2, [72, 100, 1000, 2428])
        assert rep.all_pass()


class TestYBlockProgressions:
    def test_every_complete_block_certifies(self, spec_a, schedule_a, stream_a):
        rng = random.Random(9)
        checked = 0
        for k in (2, 3):
            for b in range(1, schedule_a.ell(k) + 1):
                if schedule_a.big_l(k - 1) + b * schedule_a.big_s(k) > 600:
                    break
                for j in range(1, k):
                    points = extract_y(schedule_a, stream_a, j, k, b)
                    delta = Fraction(1, spec_a.big_s(j) * spec_a.big_s(k))
                    eps = Fraction(spec_a.big_s(j), spec_a.big_s(k))
                    cert = verify_aap(points, delta, eps)
                    assert cert.accepted
                    assert star_discrepancy(points) <= 2 * eps
                    checked += 1
        assert checked > 100


class TestOtherConfigurations:
    def test_depth_five_reaches_informative_envelope(self):
        # fast-growing base keeps the level-4 region small enough to enter
        spec = ChainSpec(base=GeometricRule(1, 16), s=ConstantRule(2), depth=5)
        schedule = build_schedule(spec)
        assert schedule.levels == 4
        horizon = schedule.big_l(3) + 400
        stream = generated(schedule, SelectionPolicy("min"), horizon)
        nums, dens = extract_y_prefix(schedule, stream, 1, horizon)
        n_points = len(nums)
        rep = prefix_bound_check(schedule, 1, nums, dens, [n_points])
        assert (nums, dens) == ([], [])  # consumed, so no caller holds the points
        assert rep.all_pass()
        row = rep.rows[0]
        decomp = position_decomposition(schedule, 1, n_points)
        assert decomp.level == 4
        sup = envelope_sup(schedule, 1, 4)
        assert sup < 1
        assert row.dstar <= row.bound < sup

    def test_triple_contraction_chain(self):
        spec = ChainSpec(base=GeometricRule(27, 3), s=ConstantRule(3), depth=3)
        schedule = build_schedule(spec)
        stream = generated(schedule, SelectionPolicy("min"), schedule.big_l(2))
        for n in range(1, schedule.big_l(2) + 1):
            assert stream.digit(n) != 0
        rep = envelope_check(schedule, stream, 1, [schedule.big_l(1), schedule.big_l(2) // 3])
        assert rep.all_pass()

    def test_envelope_grid_strict_near_sup_with_step_three(self):
        spec = ChainSpec(base=GeometricRule(27, 3), s=ConstantRule(3), depth=4)
        schedule = build_schedule(spec)
        for j, t in ((1, 3), (1, 4), (2, 4)):
            sup = envelope_sup(schedule, j, t)
            span = schedule.big_s(t) // schedule.big_s(j)
            w_max = schedule.ell(t) if t <= schedule.levels else 100
            for w in sorted(set([0, 1, 2, w_max // 2, w_max])):
                for z in range(span + 1):
                    val = envelope(schedule, j, t, w, z)
                    assert val <= sup
                    if w >= 1 and span > 2:
                        assert val < sup
