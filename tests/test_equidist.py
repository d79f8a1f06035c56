import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnl.equidist import (
    COND_END,
    COND_GAP,
    COND_START,
    aap_bound,
    concat_bound,
    dn_diagnostic,
    normality_report,
    star_discrepancy,
    star_discrepancy_ladder,
    verify_aap,
)
from cnl.expansion import DigitStream
from cnl.refpair import fine_base_rule, fine_stream
from cnl.sequences import ConstantRule, ExplicitListRule

from .conftest import brute_force_star_discrepancy

unit_fractions = st.builds(
    lambda num, den: Fraction(num % den, den),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=64),
)


class TestStarDiscrepancy:
    def test_point_mass_at_zero(self):
        assert star_discrepancy([Fraction(0)]) == 1

    def test_half(self):
        assert star_discrepancy([Fraction(1, 2)]) == Fraction(1, 2)

    def test_balanced_pair(self):
        assert star_discrepancy([Fraction(1, 4), Fraction(3, 4)]) == Fraction(1, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            star_discrepancy([])

    def test_matches_brute_force_on_seeded_draws(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randrange(1, 51)
            points = [
                Fraction(rng.randrange(0, 64), 64) for _ in range(n)
            ]
            assert star_discrepancy(points) == brute_force_star_discrepancy(points)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(unit_fractions, min_size=1, max_size=30))
    def test_matches_brute_force_property(self, points):
        assert star_discrepancy(points) == brute_force_star_discrepancy(points)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(unit_fractions, min_size=1, max_size=30))
    def test_universal_range(self, points):
        d = star_discrepancy(points)
        assert Fraction(1, 2 * len(points)) <= d <= 1


dyadic_fractions = st.integers(min_value=0, max_value=90).flatmap(
    lambda k: st.builds(lambda num: Fraction(num, 2**k), st.integers(0, 2**k - 1))
)

# Small bases, and large primes coprime to them and to each other.
MIXED_DENOMINATORS = (2, 3, 5, 6, 12, 49, 64, 2**61 - 1, 2**89 - 1, 10**9 + 7, 3**80)
mixed_fractions = st.sampled_from(MIXED_DENOMINATORS).flatmap(
    lambda den: st.builds(lambda num: Fraction(num, den), st.integers(0, den - 1))
)


def ladder_of(points, lengths):
    """star_discrepancy_ladder on fresh lists (it consumes its inputs)."""
    nums = [Fraction(p).numerator for p in points]
    dens = [Fraction(p).denominator for p in points]
    return star_discrepancy_ladder(nums, dens, lengths)


def assert_ladder_matches_brute_force(points):
    lengths = list(range(1, len(points) + 1))
    got = ladder_of(points, lengths)
    want = [brute_force_star_discrepancy(points[:n]) for n in lengths]
    assert got == want
    assert star_discrepancy(points) == want[-1]


class TestStarDiscrepancyLadder:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(dyadic_fractions, min_size=1, max_size=25))
    def test_dyadic_matches_brute_force(self, points):
        assert_ladder_matches_brute_force(points)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(mixed_fractions, min_size=1, max_size=25))
    def test_mixed_coprime_denominators_match_brute_force(self, points):
        assert_ladder_matches_brute_force(points)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.one_of(dyadic_fractions, mixed_fractions), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), min_size=1, max_size=25),
    )
    def test_duplicates_match_brute_force(self, pool, picks):
        assert_ladder_matches_brute_force([pool[i % len(pool)] for i in picks])

    def test_points_pressed_against_window_edges(self):
        # Seeded digits sit within a hair of their window's left edge, so
        # any fixed-width rounding of the ratios would tie them.
        tiny = Fraction(1, 2**300)
        edges = [Fraction(1, 16), Fraction(5, 16), Fraction(1, 3), Fraction(1, 2)]
        points = []
        for j in range(8):
            for edge in edges:
                points.append(edge + j * tiny)
                points.append(edge - tiny if j % 2 else edge)
        assert_ladder_matches_brute_force(points)
        assert_ladder_matches_brute_force([p for p in points if p.denominator & 1 == 0])

    def test_unreduced_denominators(self):
        assert star_discrepancy_ladder([2, 6, 1], [8, 8, 3], [1, 2, 3]) == [
            brute_force_star_discrepancy([Fraction(1, 4)]),
            brute_force_star_discrepancy([Fraction(1, 4), Fraction(3, 4)]),
            brute_force_star_discrepancy([Fraction(1, 4), Fraction(3, 4), Fraction(1, 3)]),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(mixed_fractions, st.integers(1, 12)), min_size=1, max_size=25
        )
    )
    def test_unreduced_non_dyadic_points_match_brute_force(self, scaled):
        # Each point scaled by its own factor: one value may come in
        # several forms, and no denominator need be reduced.
        nums = [p.numerator * c for p, c in scaled]
        dens = [p.denominator * c for p, c in scaled]
        points = [p for p, _ in scaled]
        lengths = list(range(1, len(points) + 1))
        assert star_discrepancy_ladder(nums, dens, lengths) == [
            brute_force_star_discrepancy(points[:n]) for n in lengths
        ]

    def test_equal_values_in_unreduced_forms(self):
        # 1/2 = 2/4 = 3/6 and 1/3 = 2/6 = 3/9: ties between forms, inside
        # a prefix and across the prefixes of the ladder.
        nums = [1, 2, 1, 3, 2, 3, 0, 5, 4]
        dens = [2, 4, 3, 6, 6, 9, 9, 6, 8]
        points = [Fraction(a, b) for a, b in zip(nums, dens)]
        lengths = [1, 2, 2, 3, 5, 6, 9]
        assert star_discrepancy_ladder(nums, dens, lengths) == [
            brute_force_star_discrepancy(points[:n]) for n in lengths
        ]

    def test_denominators_up_to_two_to_the_300(self):
        # (2**300 - 1) / 3 over 2**300 - 1 and 2**298 over 3 * 2**298 are
        # both 1/3, unreduced; the next points sit within 2**-299 of it.
        # The last two are Farey neighbours, 1/((2**300 - 1)(2**300 - 3))
        # apart, listed larger first, so only a key of 2b bits orders them.
        big = 2**300
        upper = pow(big - 1, -1, big - 3)
        lower = (upper * (big - 1) - 1) // (big - 3)
        pairs = [
            ((big - 1) // 3, big - 1),
            (1, 3),
            ((big - 3) // 3, big - 3),
            (big // 4, 3 * big // 4),
            ((big - 1) // 3 + 1, big - 1),
            (big // 3, big),
            (big // 2 - 1, big - 1),
            (1, 2),
            (upper, big - 3),
            (lower, big - 1),
        ]
        nums = [a for a, _ in pairs]
        dens = [b for _, b in pairs]
        points = [Fraction(a, b) for a, b in pairs]
        lengths = list(range(1, len(pairs) + 1))
        assert star_discrepancy_ladder(nums, dens, lengths) == [
            brute_force_star_discrepancy(points[:n]) for n in lengths
        ]

    @pytest.mark.parametrize(
        "dens",
        [[2, 4, 8], [2, 3, 4], [7, 3**50, 2**80 - 1], [2**62] * 3, [2**63, 2**64, 2**300]],
    )
    def test_both_lists_are_emptied(self, dens):
        nums = [1, 1, 1]
        star_discrepancy_ladder(nums, dens, [1, 3])
        assert nums == [] and dens == []

    def test_repeated_lengths_give_repeated_rows(self):
        points = [Fraction(k, 7) for k in (3, 1, 6, 1, 0)]
        assert ladder_of(points, [2, 2, 5]) == [
            brute_force_star_discrepancy(points[:2]),
            brute_force_star_discrepancy(points[:2]),
            brute_force_star_discrepancy(points),
        ]

    def test_inputs_are_consumed(self):
        nums, dens = [1, 1], [2, 4]
        star_discrepancy_ladder(nums, dens, [2])
        assert dens == []

    @pytest.mark.parametrize(
        "nums, dens, lengths",
        [
            ([1, 1], [2, 4], [2, 1]),  # unsorted
            ([1, 1], [2, 4], [3]),  # beyond the points
            ([1, 1], [2, 4], [0, 2]),  # empty prefix
            ([2], [2], [1]),  # point at 1
            ([1, 1], [2], [1]),  # missing denominator
        ],
    )
    def test_rejects_bad_input(self, nums, dens, lengths):
        with pytest.raises(ValueError):
            star_discrepancy_ladder(nums, dens, lengths)

    @pytest.mark.parametrize(
        "nums, dens, message",
        [
            ([1, 3, 0], [4, 3, 5], "point 1 outside [0, 1)"),  # num = den
            ([1, -2, 5], [4, 3, 3], "point -2/3 outside [0, 1)"),  # num < 0, then num > den
            ([0, 1, 9], [2, 2**70, 2**3], "point 9/8 outside [0, 1)"),  # the last point
            ([5, 0], [3, 2], "point 5/3 outside [0, 1)"),  # num > den first
        ],
    )
    def test_names_the_first_point_outside(self, nums, dens, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            star_discrepancy_ladder(nums, dens, [1, len(nums)])

    def test_popped_stops_at_the_end_of_its_list(self):
        from cnl.equidist import _popped

        values = [4, 7, 1]
        items = _popped(values)
        assert list(items) == [4, 7, 1]
        assert next(items, None) is None
        assert values == []


def assert_dyadic_ladder(nums, w, lengths=None):
    """The ladder of nums[i] / 2**w, every den unreduced, against the brute force."""
    points = [Fraction(x, 1 << w) for x in nums]
    lengths = lengths or list(range(1, len(nums) + 1))
    dens = [1 << w] * len(nums)
    got = star_discrepancy_ladder(list(nums), dens, lengths)
    assert got == [brute_force_star_discrepancy(points[:n]) for n in lengths]
    assert dens == []


class TestTruncatedDyadicLadder:
    """The dyadic sweep ranks a prefix of n points by their top 63 - b bits,
    b the bit length of n, and settles the ranks within n of the extremes
    exactly; these cases sit on that cut."""

    @pytest.mark.parametrize("w", [6, 62, 63, 100, 300])
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 40])
    def test_exact_progressions_where_every_term_ties(self, w, count):
        # X_i = (i * 2**w) // N: each left term is within one unit of the
        # others, so every rank survives the truncated pass.
        progression = [(i << w) // count for i in range(count)]
        lengths = sorted({1, (count + 1) // 2, count})
        assert_dyadic_ladder(progression, w, lengths)
        assert_dyadic_ladder(progression[::-1], w, lengths)
        random.Random(count * w).shuffle(progression)
        assert_dyadic_ladder(progression, w, lengths)

    @pytest.mark.parametrize("centre", [0, Fraction(1, 3), Fraction(1, 2), 1])
    def test_points_clustered_within_two_to_the_minus_100(self, centre):
        # 30 points in a window of 2**-100 over 2**300, with repeats, so the
        # truncations to 62 bits coincide and only exact terms tell them apart.
        w = 300
        rng = random.Random(7)
        base = min(int(centre * (1 << w)), (1 << w) - (1 << 200))
        offsets = [rng.randrange(1 << 200) for _ in range(20)]
        nums = [base + off for off in offsets + offsets[:10]]
        rng.shuffle(nums)
        assert_dyadic_ladder(nums, w)

    @pytest.mark.parametrize("w", [63, 64, 100])
    def test_maximum_one_below_the_truncated_maximum(self, w):
        # Three points, s = w - 62: the second's truncated term is one below
        # the first's, yet its cut-off low bits make its exact term larger.
        s = w - 62
        first = 1 << (w - 1)
        second = first + ((1 << 62) - 1) // 3 * (1 << s) + (1 << s) - 1
        left = [3 * first, 3 * second - (1 << w)]
        assert left[1] > left[0]
        assert_dyadic_ladder([first, second, second], w, [3])

    def test_maximum_two_below_the_truncated_maximum(self):
        # The same for s = w + 2 - 63, the cut of three points: the second's
        # truncated term is two below the first's, within n = 3 of it.
        for w in (63, 64, 100):
            s = w - 61
            first = 1 << (w - 1)
            second = first + ((1 << 61) - 2) // 3 * (1 << s) + (1 << s) - 1
            assert 3 * second - (1 << w) > 3 * first
            assert_dyadic_ladder([first, second, second], w, [3])

    @pytest.mark.parametrize("w", [57, 58, 59, 61, 62, 63, 64, 65])
    def test_widths_around_the_cut(self, w):
        rng = random.Random(w)
        nums = [rng.randrange(1 << w) for _ in range(25)]
        nums += [0, (1 << w) - 1, (1 << w) - 2, 1, nums[0]]
        assert_dyadic_ladder(nums, w)
        # Narrower dens widened to 2**w in the ladder, mixed with full-width ones.
        mixed = [rng.randrange(1 << (w - 3)) for _ in range(12)]
        points = [Fraction(x, 1 << (w - 3)) for x in mixed] + [
            Fraction(x, 1 << w) for x in nums[:12]
        ]
        lengths = list(range(1, len(points) + 1))
        dens = [1 << (w - 3)] * 12 + [1 << w] * 12
        got = star_discrepancy_ladder(mixed + nums[:12], dens, lengths)
        assert got == [brute_force_star_discrepancy(points[:n]) for n in lengths]

    @pytest.mark.parametrize("w", [3, 20, 56, 57, 58, 59, 62, 63, 64, 90, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_points_with_ties_zeros_and_repeated_lengths(self, w, seed):
        # Draws from a small pool, so values repeat, with zeros and the
        # largest point, over repeated and increasing prefix lengths.
        rng = random.Random(1000 * w + seed)
        pool = [0, (1 << w) - 1] + [rng.randrange(1 << w) for _ in range(6)]
        nums = [rng.choice(pool) for _ in range(rng.randrange(1, 40))]
        lengths = sorted(rng.randrange(1, len(nums) + 1) for _ in range(8))
        assert_dyadic_ladder(nums, w, lengths + lengths[-1:] + [len(nums)])

    @pytest.mark.parametrize("w", [0, 1, 61, 62, 63, 64, 65, 300])
    def test_single_point_prefixes(self, w):
        for x in {0, (1 << w) // 3, (1 << w) - 1}:
            assert_dyadic_ladder([x], w, [1, 1])
        assert_dyadic_ladder([(1 << w) - 1, 0, (1 << w) // 2], w, [1, 1, 2, 3])



class TestFloorKeyLadder:
    """A ladder with any denominator that is not a power of two sorts its
    points x by floor keys K = floor(x * 2**w), w = 2b + 1 for b the widest
    denominator's bit length.  It sweeps A_i = (K_(i) >> s)*n - i*2**(w - s),
    s = max(w + bit length of n - 63, 0), settles the ranks within n of the
    extremes exactly, and recovers their points from the keys alone."""

    @pytest.mark.parametrize(
        "pairs, rank, side",
        [
            # x_(1) is a hair over x_(0) + 1/3, so rank 1 holds the largest
            # term, yet its truncated term is n - 1 below rank 0's.
            ([(1110262555, 1925072638), (1580160255, 1736303723), (1580160255, 1736303723)],
             1, max),
            # x_(2) is a hair under x_(0) + 2/3, so rank 2 holds the smallest
            # term, yet its truncated term is n - 1 above rank 0's.
            ([(241289951, 1494655898), (1, 2), (1648970215, 1991265139)], 2, min),
        ],
    )
    def test_extreme_term_n_minus_one_from_the_truncated_extreme(self, pairs, rank, side):
        # b = 31, so w = 63 and, at n = 3, s = 2: both the floor and the cut
        # bits move the truncated terms.
        n, w, s = 3, 63, 2
        assert max(c for _, c in pairs).bit_length() == 31
        given = [Fraction(a, c) for a, c in pairs]
        points = sorted(given)
        keys = [(p.numerator << w) // p.denominator for p in points]
        truncated = [(k >> s) * n - i * (1 << (w - s)) for i, k in enumerate(keys)]
        left = [x * n - i for i, x in enumerate(points)]
        assert left.index(side(left)) == rank
        assert abs(truncated[rank] - side(truncated)) == n - 1
        assert brute_force_star_discrepancy(points) == (
            left[rank] if side is max else 1 - left[rank]
        ) / n
        assert ladder_of(given, [1, 2, 3]) == [
            brute_force_star_discrepancy(given[:k]) for k in (1, 2, 3)
        ]

    @pytest.mark.parametrize("b", [20, 28, 29, 30, 31, 32, 45])
    @pytest.mark.parametrize("seed", range(3))
    def test_widths_around_the_cut(self, b, seed):
        # The first point is over 2**b - 1, so every prefix has keys of
        # 2b + 1 bits.  At b = 29 and 30 the prefixes up to 15 and 3 points
        # sweep with s = 0 and the longer ones with s > 0; narrower b never
        # cut bits, wider b always do.
        rng = random.Random(100 * b + seed)
        dens = [rng.randrange(1 << (b - 1), 1 << b) | 1 for _ in range(4)] + [3, 12]
        pool = [Fraction(rng.randrange(c), c) for c in dens] + [Fraction(0), Fraction(1, 2)]
        widest = Fraction((1 << b) - 2, (1 << b) - 1)
        points = [widest] + [rng.choice(pool + [widest]) for _ in range(24)]
        lengths = list(range(1, 26))
        assert ladder_of(points, lengths) == [
            brute_force_star_discrepancy(points[:n]) for n in lengths
        ]

    @pytest.mark.parametrize("b", range(1, 7))
    def test_every_fraction_below_the_widest_denominator(self, b):
        # Each a/c with c < 2**b alone, and beside a point over 2**b - 1 (so
        # the keys have 2b + 1 bits) in either order: in a two-point prefix
        # both ranks are settled, so each point is recovered from its key.
        top = (1 << b) - 1
        for c in range(1, 1 << b):
            for a in range(c):
                point = Fraction(a, c)
                assert star_discrepancy_ladder([a], [c], [1]) == [
                    brute_force_star_discrepancy([point])
                ]
                for pair in ([(a, c), (top // 2, top)], [(top // 2, top), (a, c)]):
                    nums, dens = map(list, zip(*pair))
                    points = [Fraction(*p) for p in pair]
                    assert star_discrepancy_ladder(nums, dens, [1, 2]) == [
                        brute_force_star_discrepancy(points[:1]),
                        brute_force_star_discrepancy(points),
                    ]

class TestVerifyAap:
    def test_equal_gaps_accepted(self):
        cert = verify_aap(
            [Fraction(1, 4), Fraction(2, 4), Fraction(3, 4)], Fraction(0), Fraction(1, 4)
        )
        assert cert.accepted and cert.eta == Fraction(1, 4)

    def test_wide_gap_rejected_on_gap_condition(self):
        cert = verify_aap(
            [Fraction(1, 10), Fraction(9, 10)], Fraction(0), Fraction(1, 4)
        )
        assert not cert.accepted
        assert cert.failing_condition == COND_GAP

    def test_late_start_rejected_on_start_condition(self):
        cert = verify_aap([Fraction(9, 10)], Fraction(0), Fraction(1, 4))
        assert not cert.accepted
        assert cert.failing_condition == COND_START

    def test_early_end_rejected_on_end_condition(self):
        cert = verify_aap([Fraction(1, 10)], Fraction(0), Fraction(1, 4))
        assert not cert.accepted
        assert cert.failing_condition == COND_END

    def test_two_point_block(self):
        cert = verify_aap(
            [Fraction(1, 4), Fraction(3, 4)], Fraction(1, 2), Fraction(1, 2)
        )
        assert cert.accepted and cert.eta == Fraction(1, 2)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            verify_aap([Fraction(1, 2), Fraction(1, 4)], Fraction(0), Fraction(1, 2))

    def test_accept_implies_coarse_bound(self):
        rng = random.Random(77)
        checked = 0
        while checked < 60:
            n = rng.randrange(1, 12)
            pts = sorted(set(Fraction(rng.randrange(0, 128), 128) for _ in range(n)))
            if not pts:
                continue
            delta = Fraction(rng.randrange(0, 4), 8)
            eps = Fraction(rng.randrange(1, 9), 8)
            cert = verify_aap(pts, delta, eps)
            if cert.accepted:
                assert star_discrepancy(pts) <= Fraction(1, len(pts)) + delta
                checked += 1
            else:
                checked += 1


class TestAapBound:
    def test_zero_delta_uses_eta(self):
        bound = aap_bound(8, Fraction(0), eta=Fraction(1, 4))
        assert bound.fine == Fraction(1, 8)
        assert bound.coarse == Fraction(1, 8)

    def test_coarse_half_delta(self):
        bound = aap_bound(4, Fraction(1, 2))
        assert bound.coarse == Fraction(3, 4)
        assert bound.fine <= bound.coarse

    def test_fine_bound_is_valid_upper_bound(self):
        # directed rounding must keep fine >= 1/N + delta/(1+sqrt(1-d^2))
        delta = Fraction(1, 2)
        bound = aap_bound(4, delta)
        true_root_sq = 1 - delta * delta
        assert (bound.fine - Fraction(1, 4)) > 0
        ratio = delta / (bound.fine - Fraction(1, 4)) - 1
        assert ratio * ratio <= true_root_sq

    def test_delta_zero_consistency_spot_check(self):
        eta = Fraction(1, 4)
        base = aap_bound(8, Fraction(0), eta=eta).fine
        for num in (1, 2, 3):
            delta = Fraction(num, 8)
            assert base <= aap_bound(8, delta).fine + delta


class TestConcatBound:
    def test_single_block(self):
        assert concat_bound([(7, Fraction(1, 3))]) == Fraction(1, 3)

    def test_weighted_mean(self):
        assert concat_bound([(10, Fraction(1, 10)), (10, Fraction(3, 10))]) == Fraction(1, 5)

    def test_all_ones(self):
        assert concat_bound([(3, Fraction(1)), (9, Fraction(1))]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_bound([])

    def test_dominates_concatenation_discrepancy(self):
        rng = random.Random(5150)
        for _ in range(40):
            blocks = []
            concat = []
            for _ in range(rng.randrange(1, 5)):
                n = rng.randrange(1, 9)
                pts = [Fraction(rng.randrange(0, 64), 64) for _ in range(n)]
                blocks.append((n, star_discrepancy(pts)))
                concat.extend(pts)
            assert star_discrepancy(concat) <= concat_bound(blocks)


class TestNormalityReport:
    def test_alternating_stream(self):
        rule = ConstantRule(2)
        stream = DigitStream(rule, [(n + 1) % 2 for n in range(1, 101)])
        rep = normality_report(stream, 1, 100, [(0,), (1,)])
        row = rep.rows[0]
        assert row.count == 50
        assert row.expected == 50
        assert row.ratio == 1

    def test_empty_prefix_undefined(self):
        rule = ConstantRule(2)
        stream = DigitStream(rule, [0])
        rep = normality_report(stream, 1, 0, [(0,), (1,)])
        assert rep.rows[0].ratio is None
        assert rep.pairwise_ratio((0,), (1,)) is None

    def test_pairwise_reciprocal(self):
        rng = random.Random(8)
        rule = ConstantRule(4)
        digits = [rng.randrange(0, 4) for _ in range(200)]
        stream = DigitStream(rule, digits)
        rep = normality_report(stream, 1, 150, [(0,), (1,), (2,)])
        for a in ((0,), (1,), (2,)):
            for b in ((0,), (1,), (2,)):
                if a == b:
                    continue
                r_ab = rep.pairwise_ratio(a, b)
                r_ba = rep.pairwise_ratio(b, a)
                if r_ab is not None and r_ba is not None and r_ab != 0:
                    assert r_ab * r_ba == 1

    def test_block_length_enforced(self):
        rule = ConstantRule(2)
        stream = DigitStream(rule, [0] * 11)
        with pytest.raises(ValueError):
            normality_report(stream, 2, 10, [(0,)])


class TestDnDiagnostic:
    def test_all_zero_stream(self):
        rule = ConstantRule(4)
        stream = DigitStream(rule, [0] * 20)
        rep = dn_diagnostic(stream.prefix(20), rule.values(20), [1, 5, 20])
        assert all(row.dstar == 1 for row in rep.rows)

    def test_lengths_past_the_points_rejected(self):
        with pytest.raises(ValueError, match="1..2"):
            dn_diagnostic([1, 1], [4, 4], [1, 3])

    def test_proxy_is_mean_reciprocal(self):
        rule = ExplicitListRule([2, 4, 8, 16])
        rep = dn_diagnostic([1, 1, 1, 1], rule.values(4), [4])
        expected = (Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 8) + Fraction(1, 16)) / 4
        assert rep.rows[0].proxy == expected

    @pytest.mark.parametrize("kind", ["dyadic", "non-dyadic"])
    def test_rows_equal_star_discrepancy_of_each_prefix(self, kind, stream_a, spec_a):
        if kind == "dyadic":
            stream, rule = stream_a, spec_a.base
        else:
            stream, rule = fine_stream(500), fine_base_rule()
        lengths = [500, 1, 2, 5, 10, 2, 20, 50, 100, 200, 500]
        rep = dn_diagnostic(stream.prefix(500), rule.values(500), lengths)
        assert [row.n for row in rep.rows] == sorted(set(lengths))
        for row in rep.rows:
            ratios = [Fraction(stream.digit(n), rule.q(n)) for n in range(1, row.n + 1)]
            assert row.dstar == star_discrepancy(ratios)
            assert row.proxy == sum(Fraction(1, rule.q(n)) for n in range(1, row.n + 1)) / row.n

    def test_csv_round_digits(self, tmp_path):
        rule = ConstantRule(4)
        stream = DigitStream(rule, [n % 4 for n in range(1, 9)])
        rep = dn_diagnostic(stream.prefix(8), rule.values(8), [2, 8])
        path = tmp_path / "dn.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[1].startswith("N,Dstar_num,Dstar_den,bound_num,bound_den,certificate")
        assert len(lines) == 4

    def test_csv_line_endings(self, tmp_path):
        from cnl.equidist import DiscrepancyReport, DiscrepancyRow

        rows = [
            DiscrepancyRow(n=3, dstar=Fraction(1, 3), bound=Fraction(1), certificate="pass",
                           envelope=Fraction(2, 5)),
            DiscrepancyRow(n=10, dstar=Fraction(1, 10)),
        ]
        path = tmp_path / "envelope.csv"
        DiscrepancyReport(rows=rows, header_note="a note").write_csv(path)
        assert path.read_bytes() == (
            b"# a note\n"
            b"N,Dstar_num,Dstar_den,bound_num,bound_den,certificate,ebar_num,ebar_den\r\n"
            b"3,1,3,1,1,pass,2,5\r\n"
            b"10,1,10,,,,,\r\n"
        )
        DiscrepancyReport(rows=rows[1:]).write_csv(path)
        assert path.read_bytes() == b"N,Dstar_num,Dstar_den,bound_num,bound_den,certificate\r\n10,1,10,,,\r\n"

    def test_csv_writes_integers_past_the_str_digit_limit(self, tmp_path):
        from decimal import Decimal

        from cnl.equidist import DiscrepancyReport, DiscrepancyRow

        den = 7**6000  # 5071 decimal digits, over the default 4300-digit limit
        value = Fraction(den // 3, den)
        report = DiscrepancyReport(rows=[DiscrepancyRow(n=1, dstar=value, proxy=value)])
        path = tmp_path / "dn.csv"
        report.write_csv(path)
        cells = path.read_text().splitlines()[1].split(",")
        assert len(cells[2]) == 5071
        num, den_text = cells[1], cells[2]
        assert Fraction(int(Decimal(num)), int(Decimal(den_text))) == value
        assert cells[6:8] == cells[1:3]
