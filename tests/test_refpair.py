import random
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
    (orbit_ok, worst upper bound, deepest depth that certified an n); on a
    failure, the bound and depth from before it."""
    worst_hi, deepest = Fraction(0), 0
    for n in range(0, horizon + 1):
        depth = 1
        while True:
            _, hi = t_enclosure(x_coarse, n, depth)
            if hi < ORBIT_THRESHOLD:
                break
            depth += 1
            if depth > _MAX_ENCLOSURE_DEPTH:
                return False, worst_hi, deepest
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


class TestOrbitCheckPerturbed:
    """``_orbit_check`` against ``enclosure_loop`` on x with some fine digit
    pairs set to their maximum, which makes that coarse digit maximal: no
    depth certifies T_n(x) < 1/2 for the n just before it, and an n that
    already needed depth 2 needs depth 3 when the maximal digit follows its
    first."""

    spec = ChainSpec(base=fine_base_rule(), s=ConstantRule(2), depth=2)

    def perturbed(self, horizon, coarse_positions):
        rule = fine_base_rule()
        values = rule.values(2 * (horizon + _MAX_ENCLOSURE_DEPTH))
        fine = {p for c in coarse_positions for p in (2 * c - 1, 2 * c)}
        digits = [q - 1 if n in fine else fine_digit(n) for n, q in enumerate(values, 1)]
        return DigitStream(rule, digits)

    def test_random_maximal_pairs(self):
        rng = random.Random(41)
        plain = transcode(fine_stream(2 * (300 + _MAX_ENCLOSURE_DEPTH)), self.spec, 2)
        # n whose T_n(x) needs depth 2 as it stands: its first coarse digit is q/2 - 1.
        deep = [n for n in range(300) if 2 * (plain.digit(n + 1) + 1) >= plain.rule.q(n + 1)]
        seen = set()
        for _ in range(40):
            horizon = rng.randint(1, 300)
            choices = [1, horizon + 1, rng.choice(deep) + 2, rng.randint(1, horizon + 8)]
            picks = rng.sample(choices, rng.randint(0, 3))
            x_fine = self.perturbed(horizon, picks)
            ok, worst, deepest = enclosure_loop(transcode(x_fine, self.spec, 2), horizon)
            assert _orbit_check(x_fine, self.spec, horizon) == (ok, worst), (horizon, picks)
            failure = min(picks, default=horizon + 2) - 1
            assert ok == (failure > horizon)
            seen.add("fails at 0" if failure == 0 else "fails at the horizon" if failure == horizon
                     else "keeps the bound before a failure" if not ok else "passes")
            if deepest >= 3:
                seen.add("needs depth 3")
        assert seen == {"fails at 0", "fails at the horizon", "keeps the bound before a failure",
                        "passes", "needs depth 3"}

    def test_worst_bound_past_the_first_screen(self):
        # x's digits all 0 but coarse digit 1300, q/2 - 2: T_1299(x) has the
        # worst bound, at depth 1, past the first 1024 positions screened.
        rule, horizon = fine_base_rule(), 1500
        digits = [0] * (2 * (horizon + _MAX_ENCLOSURE_DEPTH))
        m = rule.q(2600) // 2
        digits[2598], digits[2599] = m - 1, 2 * m - 2  # fine positions 2599, 2600
        x_fine = DigitStream(rule, digits)
        ok, worst, _ = enclosure_loop(transcode(x_fine, self.spec, 2), horizon)
        assert ok and worst == Fraction(2 * m * m - 1, 4 * m * m)
        assert _orbit_check(x_fine, self.spec, horizon) == (True, worst)

    @pytest.mark.parametrize("horizon", range(13))
    def test_short_horizons(self, horizon):
        # At horizon 0 the one position, n = 0, needs depth 2.
        x_fine = fine_stream(2 * (horizon + _MAX_ENCLOSURE_DEPTH))
        ok, worst, _ = enclosure_loop(transcode(x_fine, self.spec, 2), horizon)
        assert _orbit_check(x_fine, self.spec, horizon) == (ok, worst) == (True, worst)

    def test_failure_at_zero_reports_zero(self):
        x_fine = self.perturbed(50, [1])
        assert _orbit_check(x_fine, self.spec, 50) == (False, Fraction(0))

    def test_position_needing_depth_three(self):
        # T_5(x) needs depth 2 as it stands; a maximal coarse digit 7 makes
        # it need depth 3, and T_6(x) then fails.
        x_fine = self.perturbed(6, [7])
        x_coarse = transcode(x_fine, self.spec, 2)
        ok, worst, deepest = enclosure_loop(x_coarse, 5)
        assert ok and deepest == 3
        assert _orbit_check(x_fine, self.spec, 5) == (True, worst)
        assert _orbit_check(x_fine, self.spec, 6) == (False, worst) == enclosure_loop(x_coarse, 6)[:2]
