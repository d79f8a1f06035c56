import json
import random
from fractions import Fraction
from itertools import count, islice
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnl.numeric import hp_ln
from cnl.sequences import (
    BlockRepetitionRule,
    ChainSpec,
    ConstantRule,
    ContractionRule,
    ExplicitListRule,
    GeometricRule,
    OutOfDomainError,
    BasicSequenceRule,
    RuleError,
    block_positions,
    growth_condition_trace,
    json_int,
    partial_sum_qnk,
    rule_from_json,
    rule_to_json,
    window_reciprocal_sums,
)

from .conftest import doubling_spec, growth_ratios, ln_enclosures


def ramp_rule():
    """Value 2m repeated 2m times."""
    return BlockRepetitionRule(value_affine=(2, 0), repeat_affine=(2, 0))


class TestQn:
    def test_constant(self):
        assert ConstantRule(2).q(7) == 2

    def test_geometric(self):
        assert GeometricRule(8, 2).q(1) == 16

    def test_block_rule_prefix(self):
        rule = ramp_rule()
        assert rule.values(8) == [2, 2, 4, 4, 4, 4, 6, 6]
        assert rule.q(5) == 4

    def test_explicit_list_out_of_domain(self):
        rule = ExplicitListRule([2, 3, 4])
        with pytest.raises(OutOfDomainError):
            rule.q(4)

    def test_all_kinds_stay_at_least_two(self):
        rng = random.Random(1105)
        rules = [
            ConstantRule(5),
            GeometricRule(3, 2),
            ramp_rule(),
            ExplicitListRule([rng.randrange(2, 50) for _ in range(200)]),
            ContractionRule(GeometricRule(2, 3), 2),
        ]
        for rule in rules:
            limit = rule.domain_max or 10_000
            for _ in range(10_000):
                n = rng.randrange(1, limit + 1)
                assert rule.q(n) >= 2


class TestPartialSums:
    def test_constant_two(self):
        assert partial_sum_qnk(ConstantRule(2), 4, 1) == 2

    def test_mixed_base_k1(self):
        assert partial_sum_qnk(ExplicitListRule([2, 3, 4]), 3, 1) == Fraction(13, 12)

    def test_mixed_base_k2(self):
        assert partial_sum_qnk(ExplicitListRule([2, 3, 4]), 2, 2) == Fraction(1, 4)

    def test_empty_sum(self):
        assert partial_sum_qnk(ConstantRule(3), 0, 2) == 0

    def test_strictly_increasing_in_n(self):
        rule = GeometricRule(2, 2)
        prev = Fraction(0)
        for n in range(1, 30):
            cur = partial_sum_qnk(rule, n, 2)
            assert cur > prev
            prev = cur


def direct_window_sum(values, n, k):
    total = Fraction(0)
    for j in range(n):
        window = 1
        for q in values[j : j + k]:
            window *= q
        total += Fraction(1, window)
    return total


class TestWindowReciprocalSums:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2, 10**6), min_size=6, max_size=30),
        st.integers(1, 5),
        st.lists(st.integers(0, 25), max_size=8),
    )
    def test_matches_direct_sums_on_a_ladder(self, values, k, stops):
        stops = sorted(n for n in stops if n + k - 1 <= len(values))
        got = window_reciprocal_sums(values, k, stops)
        assert got == [direct_window_sum(values, n, k) for n in stops]

    def test_reads_only_the_bases_it_needs(self):
        def bases():
            yield from (2, 3, 4)
            raise AssertionError("read past q_3")

        assert window_reciprocal_sums(bases(), 2, [1, 2]) == [
            Fraction(1, 6),
            Fraction(1, 6) + Fraction(1, 12),
        ]

    def test_partial_sums_agree_with_ladder(self):
        rule = ramp_rule()
        stops = [1, 7, 7, 40, 300]
        assert window_reciprocal_sums(rule.values(302), 3, stops) == [
            partial_sum_qnk(rule, n, 3) for n in stops
        ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_runs_sum_like_single_terms(self, k):
        # Fine refpair runs end at positions m(m+1), coarse ones at
        # m(m+1)/2; the stops land inside runs, at their ends, twice on
        # one position, and on bases with no runs at all.
        stops = [1, 2, 3, 5, 6, 6, 10, 11, 12, 20, 57, 90, 90, 200]
        for rule in (ramp_rule(), ContractionRule(ramp_rule(), 2), GeometricRule(8, 2)):
            values = rule.values(stops[-1] + k - 1)
            assert window_reciprocal_sums(values, k, stops) == [
                direct_window_sum(values, n, k) for n in stops
            ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_powers_of_two_mixed_with_other_products(self, k):
        # Some window products are powers of two and some are not; the last
        # stop reads every listed value, and the list's end is not touched.
        rule = ExplicitListRule([2, 3, 4, 6, 8, 8, 12, 16])
        values = rule.values(8)
        stops = [0, *range(1, 10 - k), 9 - k]
        got = window_reciprocal_sums(rule.iter_values(), k, stops)
        assert got == [direct_window_sum(values, n, k) for n in stops]
        assert all(type(total) is Fraction for total in got)

    @pytest.mark.parametrize("k", [1, 2])
    def test_power_of_two_products_in_any_order(self, k):
        # Exponents that fall as well as rise; at k = 1, a run of equal ones.
        values = [2**e for e in (3, 1, 7, 7, 2, 40, 1)]
        stops = [1, 2, 4, 4, 6]
        assert window_reciprocal_sums(values, k, stops) == [
            direct_window_sum(values, n, k) for n in stops
        ]

    def test_rejects_too_few_bases(self):
        with pytest.raises(OutOfDomainError, match="stop 2 needs 3 bases"):
            window_reciprocal_sums([2, 3], 2, [1, 2])

    def test_rejects_empty_window(self):
        with pytest.raises(OutOfDomainError):
            window_reciprocal_sums([2, 3], 0, [1])


class TestContract:
    def test_reference_block_rule(self):
        coarse = ContractionRule(ramp_rule(), 2)
        assert coarse.values(7) == [4, 16, 16, 36, 36, 36, 64]

    def test_constant_power(self):
        assert ContractionRule(ConstantRule(3), 4).values(3) == [81, 81, 81]

    def test_small_products(self):
        assert ContractionRule(ExplicitListRule([2, 3, 4, 5]), 2).values(2) == [6, 20]

    def test_identity_step(self):
        # A 1-contraction repeats its base; chain level 1 is the base itself.
        rule = ExplicitListRule([2, 3, 4, 5])
        assert ContractionRule(rule, 1).values(4) == rule.values(4)
        assert ChainSpec(base=rule, s=ConstantRule(2), depth=2).rule(1) is rule

    def test_rejects_bad_step_and_width(self):
        for s, k in ((0, None), (2, 0), (2, 3)):
            with pytest.raises(RuleError):
                ContractionRule(ConstantRule(2), s, k)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=9), min_size=12, max_size=24),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    )
    def test_composition(self, values, a, b):
        rule = ExplicitListRule(values)
        lhs = ContractionRule(ContractionRule(rule, a), b)
        rhs = ContractionRule(rule, a * b)
        for n in range(1, len(values) // (a * b) + 1):
            assert lhs.q(n) == rhs.q(n)

    def test_composition_long_range(self):
        rule = GeometricRule(2, 2)
        lhs = ContractionRule(ContractionRule(rule, 2), 3)
        rhs = ContractionRule(rule, 6)
        for n in range(1, 101):
            assert lhs.q(n) == rhs.q(n)


def chain(spec):
    """Levels Q_1 .. Q_depth of a chain."""
    return [spec.rule(j) for j in range(1, spec.depth + 1)]


class TestChain:
    def test_depth_one_is_base(self):
        spec = doubling_spec(depth=1)
        levels = chain(spec)
        assert len(levels) == 1 and levels[0] is spec.base

    def test_doubling_products(self):
        spec = doubling_spec()
        levels = chain(spec)
        assert levels[1].q(1) == 16 * 32
        assert levels[2].q(1) == 2**22

    def test_block_product_identity(self):
        spec = ChainSpec(base=GeometricRule(2, 2), s=ConstantRule(2), depth=5)
        levels = chain(spec)
        for j in range(1, 5):
            s_j = spec.s_value(j)
            for n in range(1, 51):
                prod = 1
                for w in range(1, s_j + 1):
                    prod *= levels[j - 1].q(s_j * (n - 1) + w)
                assert levels[j].q(n) == prod

    def test_flattened_block_identity(self):
        spec = doubling_spec()
        levels = chain(spec)
        for j in range(1, 5):
            big_s = spec.big_s(j)
            for n in range(1, 20):
                prod = 1
                for w in range(1, big_s + 1):
                    prod *= spec.base.q(big_s * (n - 1) + w)
                assert levels[j - 1].q(n) == prod

    def test_flat_levels_match_nested_contractions(self):
        values = [2 + (n * n) % 7 for n in range(1, 40)] + list(range(3, 53))
        base = ExplicitListRule(values, monotone_tail_from=40)
        spec = ChainSpec(base=base, s=ExplicitListRule([2, 3, 2]), depth=4)
        nested = [base]
        for j in range(1, 4):
            nested.append(ContractionRule(nested[-1], spec.s_value(j)))
        for flat, ref in zip(chain(spec), nested):
            assert flat.domain_max == ref.domain_max
            assert flat.monotone_tail_from == ref.monotone_tail_from
            assert flat.values(ref.domain_max) == ref.values(ref.domain_max)

    def test_levels_are_cached(self):
        spec = doubling_spec()
        assert spec.rule(3) is spec.rule(3, 0)
        assert spec.rule(3, 1) is spec.rule(3, 1)

    @pytest.mark.parametrize("j, k", [(0, 0), (5, 0), (1, 1), (2, 2), (3, 4), (2, -1)])
    def test_level_or_shift_out_of_range(self, j, k):
        with pytest.raises(OutOfDomainError):
            doubling_spec().rule(j, k)


class TestShiftedRule:
    def test_zero_shift_is_level(self):
        spec = doubling_spec()
        assert spec.rule(2, 0) is spec.rule(2)
        assert spec.rule(2).kind == "composed-contraction"

    def test_shift_one(self):
        spec = doubling_spec()
        rule = spec.rule(2, 1)
        assert rule.kind == "shifted-contraction"
        assert rule.q(1) == 16
        assert rule.q(2) == 32 * 64
        assert rule.q(3) == 128 * 256

    def test_level_one_rejects_shifts(self):
        spec = doubling_spec()
        with pytest.raises(OutOfDomainError):
            spec.rule(1, 1)

    def test_shift_out_of_range(self):
        spec = doubling_spec()
        with pytest.raises(OutOfDomainError):
            spec.rule(2, 2)


class TestGrowthTrace:
    def test_power_of_two_ratio(self):
        ratios, flag = growth_ratios(GeometricRule(8, 2), 10)
        assert abs(ratios[-1] - Fraction(13, 72)) <= Fraction(1, 10**9)
        assert flag == "decreasing at horizon"

    def test_constant_base_ratio(self):
        ratios, _ = growth_ratios(ConstantRule(7), 12)
        for k, ratio in enumerate(ratios, start=2):
            assert abs(ratio - Fraction(1, k - 1)) <= Fraction(1, 10**9)

    def test_doubly_exponential_not_decreasing(self):
        rule = ExplicitListRule([2 ** (2**n) for n in range(1, 13)])
        ratios, flag = growth_ratios(rule, 12)
        assert ratios[-1] > Fraction(9, 10)
        assert flag == "not decreasing"


def fraction_growth_trace(rule, horizon: int) -> tuple[list[Fraction], str]:
    """The growth ratios and flag as ``Fraction``s, from the rule's first values."""
    qs = list(islice(rule.iter_values(), horizon))
    ratios = [
        Fraction(hp_ln(qs[k - 1])[1], sum(hp_ln(q)[0] for q in qs[: k - 1]))
        for k in range(2, horizon + 1)
    ]
    mid = ratios[horizon // 2 - 1]  # k = horizon // 2 + 1
    decreasing = ratios[-1] <= Fraction(3, 4) * mid
    return ratios, "decreasing at horizon" if decreasing else "not decreasing"


class TestGrowthTracePairs:
    @pytest.mark.parametrize(
        "rule",
        [
            GeometricRule(8, 2),
            GeometricRule(9, 3),
            ExplicitListRule([2 ** (2**n) for n in range(1, 13)]),
            ExplicitListRule([5, 3, 1000, 7, 7, 2, 10**6, 3, 4, 4, 9, 2**40, 6]),
        ],
    )
    @pytest.mark.parametrize("horizon", [2, 3, 5, 8, 12])
    def test_pairs_reduce_to_the_fraction_ratios_and_flag(self, rule, horizon):
        pairs = []
        flag = growth_condition_trace(
            ln_enclosures(rule), horizon, emit=lambda k, hi, running: pairs.append((k, hi, running))
        )
        assert [k for k, _, _ in pairs] == list(range(2, horizon + 1))
        for _, hi, running in pairs:
            assert type(hi) is int and type(running) is int and running > 0
        ratios, want = fraction_growth_trace(rule, horizon)
        assert [Fraction(hi, running) for _, hi, running in pairs] == ratios
        assert flag == want

    @pytest.mark.parametrize("given", [0, 1, 4])
    def test_too_few_enclosures(self, given):
        enclosures = [(1, 2)] * given
        with pytest.raises(OutOfDomainError, match="needs 5 enclosures"):
            growth_condition_trace(enclosures, 5, emit=lambda *pair: None)


class TestJsonRoundtrip:
    @pytest.mark.parametrize(
        "rule",
        [
            ConstantRule(4),
            GeometricRule(8, 2),
            ExplicitListRule([2, 5, 9], monotone_tail_from=1),
            BlockRepetitionRule(pairs=[(2, 2), (4, 4)]),
            BlockRepetitionRule(value_affine=(2, 0), repeat_affine=(2, 0)),
            ContractionRule(GeometricRule(8, 2), 3),
            ContractionRule(GeometricRule(8, 2), 3, 2),
        ],
    )
    def test_roundtrip(self, rule):
        clone = rule_from_json(rule_to_json(rule))
        limit = rule.domain_max or 30
        assert clone.values(min(limit, 30)) == rule.values(min(limit, 30))

    def test_integers_travel_as_strings(self):
        payload = rule_to_json(GeometricRule(8, 2))
        assert payload["params"]["coefficient"] == "8"

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "explicit-list", "params": {"values": "23456789"}},
            {"kind": "explicit-list", "params": {"values": ["2", 3.0]}},
            {"kind": "explicit-list", "params": {"values": ["2", "3"]}, "monotone_tail_from": True},
            {"kind": "constant", "params": {"value": True}},
            {"kind": "constant", "params": {"value": "two"}},
            {"kind": "geometric", "params": {"coefficient": 8.9, "ratio": "2"}},
            {"kind": "block-repetition", "params": {"pairs": ["23", "45"]}},
            {"kind": "block-repetition", "params": {"pairs": [["2", "3", "4"]]}},
            {"kind": "block-repetition", "params": {"pairs": {"2": "3"}}},
            {
                "kind": "block-repetition",
                "params": {"value_slope": "2", "value_intercept": 0.5,
                           "repeat_slope": "2", "repeat_intercept": "0"},
            },
            {"kind": "composed-contraction",
             "params": {"base": rule_to_json(GeometricRule(8, 2)), "s": 2.0}},
            {"kind": "shifted-contraction",
             "params": {"base": rule_to_json(GeometricRule(8, 2)), "s": "3", "shift": 1.5}},
            {"kind": "composed-contraction",
             "params": {"base": {"kind": "constant", "params": {"value": 2.5}}, "s": "2"}},
            {"kind": "geometric", "params": {"coefficient": "8", "ratio": "2"},
             "monotone_tail_from": 2.5},
            {"kind": "constant", "params": {"value": "2"}, "monotone_tail_from": True},
            {"kind": "block-repetition", "params": {"pairs": [["2", "3"]]},
             "monotone_tail_from": "one"},
            {"kind": "composed-contraction", "params": {
                "base": {**rule_to_json(GeometricRule(8, 2)), "monotone_tail_from": 1.0},
                "s": "2"}},
        ],
    )
    def test_integers_are_json_ints_or_decimal_strings(self, payload):
        with pytest.raises(RuleError):
            rule_from_json(payload)

    def test_json_ints_read_like_strings(self):
        pairs = rule_from_json({"kind": "block-repetition", "params": {"pairs": [[2, "3"], ["4", 1]]}})
        assert pairs.values(4) == [2, 2, 2, 4]
        listed = rule_from_json(
            {"kind": "explicit-list", "params": {"values": [2, "5"]}, "monotone_tail_from": "1"}
        )
        assert (listed.values(2), listed.monotone_tail_from) == ([2, 5], 1)
        shifted = {"base": rule_to_json(GeometricRule(8, 2)), "s": 3, "shift": 2}
        assert rule_from_json({"kind": "shifted-contraction", "params": shifted}).values(2) == [
            16 * 32,
            64 * 128 * 256,
        ]

    @pytest.mark.parametrize("tail", [None, 7, "7", "absent"])
    def test_tail_certificate_is_the_rules_own_past_explicit_lists(self, tail):
        # A valid monotone_tail_from is read on every kind; only an explicit
        # list takes it, the other kinds certify their own tail.
        payload = rule_to_json(GeometricRule(8, 2))
        if tail == "absent":
            del payload["monotone_tail_from"]
        else:
            payload["monotone_tail_from"] = tail
        assert rule_from_json(payload).monotone_tail_from == 1

    def test_json_int(self):
        assert [json_int(v, "x") for v in (7, "7", " -7 ")] == [7, 7, -7]
        assert json_int([["1", 2]], "x", 0, 2) == [[1, 2]]
        assert json_int([], "x", 0) == []
        for bad, shape in [(False, ()), (7.0, ()), (None, ()), ("1e3", ()), ([1], ()),
                           ("12", (0,)), ([1, 2, 3], (2,)), ([[1]], (0, 2))]:
            with pytest.raises(RuleError):
                json_int(bad, "x", *shape)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RuleError):
            rule_from_json({"kind": "fibonacci", "params": {}})

    @pytest.mark.parametrize("shift", ["0", "3"])
    def test_shift_outside_one_to_s_minus_one_rejected(self, shift):
        payload = rule_to_json(ContractionRule(GeometricRule(8, 2), 3, 1))
        payload["params"]["shift"] = shift
        with pytest.raises(RuleError):
            rule_from_json(payload)

    def test_serialized_contractions_are_pinned(self):
        # The strings the separate composed and shifted contraction
        # classes wrote; one class must write them byte for byte.
        geometric = (
            '{"kind": "geometric", "monotone_tail_from": 1, '
            '"params": {"coefficient": "8", "ratio": "2"}}'
        )
        values = [2 + (n * n) % 7 for n in range(1, 40)] + list(range(3, 53))
        listed = (
            '{"kind": "explicit-list", "monotone_tail_from": 40, "params": {"values": ['
            + ", ".join(f'"{v}"' for v in values)
            + "]}}"
        )
        cases = [
            (ContractionRule(GeometricRule(8, 2), 3),
             '{"kind": "composed-contraction", "monotone_tail_from": 1, '
             '"params": {"base": ' + geometric + ', "s": "3"}}'),
            (ContractionRule(GeometricRule(8, 2), 3, 2),
             '{"kind": "shifted-contraction", "monotone_tail_from": 2, '
             '"params": {"base": ' + geometric + ', "s": "3", "shift": "2"}}'),
            (ContractionRule(ExplicitListRule(values, monotone_tail_from=40), 6),
             '{"kind": "composed-contraction", "monotone_tail_from": 8, '
             '"params": {"base": ' + listed + ', "s": "6"}}'),
            (ContractionRule(ExplicitListRule(values, monotone_tail_from=40), 6, 4),
             '{"kind": "shifted-contraction", "monotone_tail_from": 8, '
             '"params": {"base": ' + listed + ', "s": "6", "shift": "4"}}'),
        ]
        for rule, expected in cases:
            assert json.dumps(rule_to_json(rule), sort_keys=True) == expected
            clone = rule_from_json(json.loads(expected))
            assert json.dumps(rule_to_json(clone), sort_keys=True) == expected


class TestBlockOf:
    @pytest.mark.parametrize("ta, tb", [(0, 1), (0, 3), (1, 0), (2, 0), (2, -1), (3, -2), (4, 5)])
    def test_matches_a_cumulative_walk(self, ta, tb):
        rule = BlockRepetitionRule(value_affine=(1, 1), repeat_affine=(ta, tb))
        n = 0
        for m in count(1):
            for offset in range(1, ta * m + tb + 1):
                n += 1
                assert rule.block_of(n) == (m, offset)
            if n > 3000:
                break

    @pytest.mark.parametrize("ta, tb", [(0, 7), (1, 0), (2, -1), (3, 5)])
    def test_huge_position(self, ta, tb):
        rule = BlockRepetitionRule(value_affine=(1, 1), repeat_affine=(ta, tb))
        n = 10**40
        m, offset = rule.block_of(n)
        assert 1 <= offset <= ta * m + tb
        assert ta * (m - 1) * m // 2 + tb * (m - 1) + offset == n


def walk_rules():
    """One rule of every kind and parameterization, and a contraction and
    two shifted contractions of each, by test id."""
    rng = random.Random(4099)
    bases = {
        "geometric": GeometricRule(8, 2),
        "geometric-ratio1": GeometricRule(3, 1),
        "constant": ConstantRule(5),
        "list": ExplicitListRule([rng.randrange(2, 40) for _ in range(37)]),
        "pairs": BlockRepetitionRule(pairs=[(3, 2), (2, 1), (7, 4), (5, 3)]),
        "affine": ramp_rule(),
        "affine-ta0": BlockRepetitionRule(value_affine=(1, 1), repeat_affine=(0, 3)),
        "affine-tb-neg": BlockRepetitionRule(value_affine=(3, 2), repeat_affine=(3, -2)),
    }
    rules = dict(bases)
    for name, base in bases.items():
        rules[f"contract3-{name}"] = ContractionRule(base, 3)
        rules[f"shift3.2-{name}"] = ContractionRule(base, 3, 2)
        rules[f"shift2.1-{name}"] = ContractionRule(base, 2, 1)
    return rules


WALK_RULES = walk_rules()
FINITE_WALK_RULES = {
    name: rule for name, rule in WALK_RULES.items() if rule.domain_max is not None
}


def outcome(read):
    """What a read returns, or the OutOfDomainError it raises."""
    try:
        return read()
    except OutOfDomainError as exc:
        return ("raises", str(exc))


def reference_q(rule, n):
    """q_n by definition: a contraction multiplies its block of base values."""
    if isinstance(rule, ContractionRule):
        return prod(map(rule.base.q, block_positions(n, rule.s, rule.k)))
    return rule.q(n)


def random_access(rule, start, count):
    return outcome(lambda: [rule.q(n) for n in range(start, start + count)])


class TestWalks:
    @pytest.mark.parametrize("rule", WALK_RULES.values(), ids=WALK_RULES.keys())
    def test_walk_equals_random_access(self, rule):
        limit = rule.domain_max or 60
        for start in range(1, limit + 1):
            for count in {0, 1, 2, 5, limit + 1 - start}:
                if start + count - 1 > limit:
                    continue
                expected = [reference_q(rule, n) for n in range(start, start + count)]
                assert [rule.q(n) for n in range(start, start + count)] == expected
                assert list(islice(rule.iter_values(start), count)) == expected
                assert rule.values(count, start) == expected

    @pytest.mark.parametrize(
        "rule", FINITE_WALK_RULES.values(), ids=FINITE_WALK_RULES.keys()
    )
    def test_walk_raises_where_q_raises(self, rule):
        limit = rule.domain_max
        for start, count in ((1, limit + 1), (limit, 2), (limit + 1, 1), (limit + 3, 4), (0, 3), (-2, 1)):
            expected = random_access(rule, start, count)
            assert expected[0] == "raises"
            assert outcome(lambda: rule.values(count, start)) == expected
            assert outcome(lambda: list(islice(rule.iter_values(start), count))) == expected

    def test_past_end_messages(self):
        rule = ExplicitListRule([2, 3, 4])
        with pytest.raises(OutOfDomainError, match="position 4 past end of explicit-list rule"):
            rule.values(5, 2)
        assert rule.values(2, 2) == [3, 4]
        assert rule.values(0, 4) == []
        pairs = ContractionRule(rule, 2)
        with pytest.raises(OutOfDomainError, match="position 2 past end of composed-contraction rule"):
            list(pairs.iter_values())

    def test_walk_of_an_infinite_rule_never_ends(self):
        walk = ramp_rule().iter_values(10**12)
        assert list(islice(walk, 3)) == [2 * 10**6] * 3

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(WALK_RULES.values())), st.integers(-2, 70), st.integers(0, 40))
    def test_walk_matches_q_at_any_start_and_count(self, rule, start, count):
        expected = random_access(rule, start, count)
        assert outcome(lambda: rule.values(count, start)) == expected
        assert outcome(lambda: list(islice(rule.iter_values(start), count))) == expected


def old_contraction_tail(t, s, k):
    """monotone_tail_from of the separate contraction classes: plain, then
    shifted."""
    if k == s:
        return (t - 1 + s - 1) // s + 1
    return max(2, (t - k - 1 + s - 1) // s + 2)


def old_contraction_domain(limit, s, k):
    """domain_max of the separate contraction classes: plain, then shifted."""
    if k == s:
        return limit // s
    return (limit - k) // s + 1


class TestOneContractionRule:
    @pytest.mark.parametrize("rule", WALK_RULES.values(), ids=WALK_RULES.keys())
    def test_layout_matches_the_old_classes_and_round_trips(self, rule):
        if isinstance(rule, ContractionRule):
            tail, limit = rule.base.monotone_tail_from, rule.base.domain_max
            expected_tail = None if tail is None else old_contraction_tail(tail, rule.s, rule.k)
            expected_domain = None if limit is None else old_contraction_domain(limit, rule.s, rule.k)
            assert rule.monotone_tail_from == expected_tail
            assert rule.domain_max == expected_domain
        clone = rule_from_json(rule_to_json(rule))
        assert rule_to_json(clone) == rule_to_json(rule)
        count = min(rule.domain_max or 40, 40)
        assert clone.values(count) == rule.values(count)

    def test_formulas_over_a_grid(self):
        for s in range(1, 9):
            for k in range(1, s + 1):
                for t in range(1, 60):
                    rule = ContractionRule(BasicSequenceRule(monotone_tail_from=t), s, k)
                    assert rule.monotone_tail_from == old_contraction_tail(t, s, k)
                for limit in range(1, 80):
                    rule = ContractionRule(ExplicitListRule([2] * limit), s, k)
                    assert rule.domain_max == old_contraction_domain(limit, s, k)
                    assert rule.blocks_in(limit) == rule.domain_max

    def test_blocks_tile_the_base(self):
        rule = ContractionRule(GeometricRule(8, 2), 4, 3)
        assert [rule.block(n) for n in (1, 2, 3)] == [range(1, 4), range(4, 8), range(8, 12)]
        assert [rule.blocks_in(total) for total in (2, 3, 6, 7, 11)] == [0, 1, 1, 2, 3]


class TestConstructorIntegers:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExplicitListRule([2, 3.5]),
            lambda: ExplicitListRule([2, 3], monotone_tail_from=1.0),
            lambda: ConstantRule(2.0),
            lambda: GeometricRule(8.9, 2),
            lambda: GeometricRule(8, 2.0),
            lambda: BlockRepetitionRule(pairs=[(2.5, 1)]),
            lambda: BlockRepetitionRule(pairs=[(2, 1.5)]),
            lambda: BlockRepetitionRule(value_affine=(1, 1.0), repeat_affine=(1, 0)),
            lambda: BlockRepetitionRule(value_affine=(1, 1), repeat_affine=(0.5, 1)),
            lambda: ContractionRule(GeometricRule(8, 2), 2.0),
            lambda: ContractionRule(GeometricRule(8, 2), 3, 1.5),
            lambda: ChainSpec(base=GeometricRule(8, 2), s=ConstantRule(2), depth=2.5),
        ],
        ids=[
            "list-value", "list-tail", "constant", "geometric-coefficient",
            "geometric-ratio", "pair-value", "pair-repeat", "value-map", "repeat-map",
            "contraction-step", "contraction-shift", "chain-depth",
        ],
    )
    def test_floats_are_refused_not_truncated(self, build):
        with pytest.raises(RuleError, match="must be an integer"):
            build()
