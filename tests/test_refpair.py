from fractions import Fraction

import pytest

from cnl.expansion import DigitStream, evaluate, t_enclosure, transcode
from cnl.refpair import (
    _MAX_ENCLOSURE_DEPTH,
    ORBIT_THRESHOLD,
    REFERENCE_X_COARSE_DIGITS,
    REFERENCE_Y_FINE_DIGITS,
    _orbit_check,
    build_report,
    coarse_base_rule,
    coarse_digit,
    coarse_stream,
    fine_base_rule,
    fine_digit,
    fine_stream,
)
from cnl.sequences import ChainSpec, ConstantRule


class TestPatterns:
    def test_fine_base_blocks(self):
        rule = fine_base_rule()
        assert rule.values(12) == [2, 2, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6]

    def test_coarse_base_blocks(self):
        rule = coarse_base_rule()
        assert rule.values(10) == [4, 16, 16, 36, 36, 36, 64, 64, 64, 64]

    def test_fine_digit_interleave(self):
        digits = [fine_digit(n) for n in range(1, 21)]
        assert digits == [0, 1, 0, 2, 1, 3, 0, 3, 1, 4, 2, 5, 0, 4, 1, 5, 2, 6, 3, 7]

    def test_coarse_digit_ramp(self):
        assert coarse_stream(10).digit_list == [0, 0, 8, 0, 12, 24, 0, 16, 32, 48]

    def test_digits_stay_in_range(self):
        fine = fine_stream(2000)
        coarse = coarse_stream(500)
        for n in range(1, 2000):
            assert 0 <= fine.digit(n) <= fine_base_rule().q(n) - 1
        for n in range(1, 500):
            assert 0 <= coarse.digit(n) <= coarse_base_rule().q(n) - 1

    def test_block_walks_match_the_per_position_digits(self):
        n = 20_000
        assert fine_stream(n).digit_list == [fine_digit(p) for p in range(1, n + 1)]
        assert coarse_stream(n).digit_list == [coarse_digit(p) for p in range(1, n + 1)]


class TestCrossBaseStructure:
    def test_x_transcodes_to_listed_tail(self):
        spec = ChainSpec(base=fine_base_rule(), s=ConstantRule(2), depth=2)
        coarse = transcode(fine_stream(20), spec, 2)
        assert coarse.prefix(10)[1:] == list(REFERENCE_X_COARSE_DIGITS[1:])
        assert coarse.digit(1) == 1

    def test_y_fine_rewrite_value_preserved(self):
        spec = ChainSpec(base=fine_base_rule(), s=ConstantRule(2), depth=2)
        from cnl.expansion import transcode_inverse

        y = coarse_stream(10)
        fine = transcode_inverse(y, spec, 2)
        assert fine.prefix(20) == list(REFERENCE_Y_FINE_DIGITS)
        assert evaluate(fine, 20) == evaluate(y, 10)

    def test_orbit_stays_low_sample(self):
        spec = ChainSpec(base=fine_base_rule(), s=ConstantRule(2), depth=2)
        coarse = transcode(fine_stream(2 * (200 + _MAX_ENCLOSURE_DEPTH)), spec, 2)
        for n in range(0, 200):
            depth = 1
            while True:
                lo, hi = t_enclosure(coarse, n, depth)
                if hi < Fraction(1, 2) or depth > 6:
                    break
                depth += 1
            assert hi < Fraction(1, 2)


class TestReport:
    def test_full_report_passes(self):
        report = build_report(orbit_horizon=400)
        assert report.ok
        names = [name for name, _ in report.checks]
        assert any("contraction" in n for n in names)
        assert any("orbit enclosure" in n for n in names)

    def test_report_flags_both_listing_disagreements(self):
        report = build_report(orbit_horizon=50)
        text = report.render()
        assert "computed 1, listing prints 2" in text
        assert "listing prints 64" in text
        assert "48" in text


def enclosure_loop(x_coarse, horizon):
    """Check (d) by its first definition: per n, ``t_enclosure`` at depth
    1, 2, ... until its upper edge drops below the threshold.  Returns
    (orbit_ok, worst upper bound, deepest depth used)."""
    worst_hi, deepest = Fraction(0), 0
    for n in range(0, horizon + 1):
        depth = 1
        while True:
            _, hi = t_enclosure(x_coarse, n, depth)
            if hi < ORBIT_THRESHOLD:
                break
            depth += 1
            if depth > _MAX_ENCLOSURE_DEPTH:
                return False, worst_hi, depth - 1
        deepest = max(deepest, depth)
        if hi > worst_hi:
            worst_hi = hi
    return True, worst_hi, deepest


class TestOrbitCheck:
    spec = ChainSpec(base=fine_base_rule(), s=ConstantRule(2), depth=2)

    @pytest.mark.parametrize("horizon", [1, 200, 3000])
    def test_report_matches_the_enclosure_loop(self, horizon):
        x_fine = fine_stream(2 * (horizon + _MAX_ENCLOSURE_DEPTH))
        ok, worst, deepest = enclosure_loop(transcode(x_fine, self.spec, 2), horizon)
        assert ok and deepest >= 2  # n = 0 already needs depth 2
        report = build_report(orbit_horizon=horizon)
        name = f"orbit enclosure upper bound < 1/2 for all n <= {horizon}"
        assert dict(report.checks)[name] is True
        assert any(
            line.startswith(f"[PASS] {name}: worst upper bound {worst} (")
            for line in report.lines
        )

    def test_failure_keeps_the_worst_bound_before_it(self):
        # Maximal fine digits at positions 41, 42 make coarse digit 21
        # maximal, so no depth certifies T_20(x) < 1/2.
        rule = fine_base_rule()
        horizon = 100
        values = rule.values(2 * (horizon + _MAX_ENCLOSURE_DEPTH))
        digits = [q - 1 if n in (41, 42) else fine_digit(n) for n, q in enumerate(values, 1)]
        x_fine = DigitStream(rule, digits)
        x_coarse = transcode(x_fine, self.spec, 2)
        ok, worst, _ = enclosure_loop(x_coarse, horizon)
        assert not ok and worst > 0
        assert _orbit_check(x_fine, self.spec, horizon) == (False, worst)
        assert _orbit_check(x_fine, self.spec, 19) == enclosure_loop(x_coarse, 19)[:2]
