import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnl.expansion import (
    DigitError,
    DigitStream,
    _checked,
    count_block,
    digit_census,
    evaluate,
    expand,
    level_points,
    load_jsonl,
    mixed_radix,
    save_jsonl,
    t_enclosure,
    transcode,
    transcode_inverse,
)
from cnl.sequences import (
    BlockRepetitionRule,
    ChainSpec,
    OutOfDomainError,
    ConstantRule,
    ExplicitListRule,
    GeometricRule,
    block_positions,
    rule_to_json,
)

from .conftest import doubling_spec


def listed(values, digits):
    return DigitStream(ExplicitListRule(values), digits)


class TestExpand:
    def test_zero(self):
        rule = ExplicitListRule([2, 3, 4])
        assert expand(Fraction(0), rule, 3).prefix(3) == [0, 0, 0]

    def test_five_sixths(self):
        rule = ExplicitListRule([2, 3, 4, 5])
        assert expand(Fraction(5, 6), rule, 4).prefix(4) == [1, 2, 0, 0]

    def test_dyadic(self):
        assert expand(Fraction(1, 2), ConstantRule(2), 5).prefix(5) == [1, 0, 0, 0, 0]

    def test_rejects_outside_unit(self):
        with pytest.raises(DigitError):
            expand(Fraction(3, 2), ConstantRule(2), 3)

    def test_floor_identity(self):
        rng = random.Random(7)
        rule = ExplicitListRule([rng.randrange(2, 12) for _ in range(12)])
        for _ in range(50):
            x = Fraction(rng.randrange(0, 9999), 10_000)
            stream = expand(x, rule, 12)
            prod = 1
            prev_floor = 0
            for n in range(1, 13):
                prod *= rule.q(n)
                cur_floor = (prod * x.numerator) // x.denominator
                assert stream.digit(n) == cur_floor - rule.q(n) * prev_floor
                prev_floor = cur_floor

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=9999),
        st.integers(min_value=1, max_value=10_000),
        st.lists(st.integers(min_value=2, max_value=10), min_size=10, max_size=10),
    )
    def test_roundtrip_bracket(self, num, den, bases):
        x = Fraction(num % den, den)
        rule = ExplicitListRule(bases)
        stream = expand(x, rule, 10)
        value = evaluate(stream, 10)
        prod = 1
        for n in range(1, 11):
            prod *= rule.q(n)
        assert value <= x < value + Fraction(1, prod)

    def test_roundtrip_bracket_seeded_sweep(self):
        rng = random.Random(500)
        for _ in range(500):
            den = rng.randrange(1, 10_001)
            x = Fraction(rng.randrange(0, den), den)
            rule = ExplicitListRule([rng.randrange(2, 11) for _ in range(10)])
            stream = expand(x, rule, 10)
            value = evaluate(stream, 10)
            prod = 1
            for n in range(1, 11):
                prod *= rule.q(n)
            assert value <= x < value + Fraction(1, prod)


class TestEvaluate:
    def test_all_zero(self):
        stream = listed([2, 3, 4], [0, 0, 0])
        assert evaluate(stream, 3) == 0

    def test_small(self):
        stream = listed([2, 3], [1, 2])
        assert evaluate(stream, 2) == Fraction(5, 6)

    def test_reference_y_prefix(self):
        stream = listed([4, 16, 16], [0, 0, 8])
        assert evaluate(stream, 3) == Fraction(1, 128)

    def test_digit_out_of_range(self):
        # Such a digit never reaches evaluate: its stream is not built.
        with pytest.raises(DigitError, match="out of range"):
            evaluate(DigitStream(ExplicitListRule([2, 3]), [5]), 1)


class TestConstructor:
    def test_digit_out_of_range(self):
        with pytest.raises(DigitError, match=r"digit 3 out of range \[0, 2\] at position 2"):
            DigitStream(ExplicitListRule([2, 3, 4]), [1, 3, 0])
        ramp = BlockRepetitionRule(value_affine=(2, 0), repeat_affine=(2, 0))
        digits = [6 if n == 7 else q - 1 for n, q in enumerate(ramp.values(30), 1)]
        with pytest.raises(DigitError, match=r"digit 6 out of range \[0, 5\] at position 7"):
            DigitStream(ramp, digits)

    def test_digits_past_the_rule_end(self):
        with pytest.raises(OutOfDomainError, match="position 3 past end"):
            DigitStream(ExplicitListRule([2, 3]), [1, 1, 1])

    def test_any_iterable_of_integers(self):
        stream = DigitStream(ConstantRule(10), iter((7, 3, True)))
        assert stream.limit == 3 and stream.prefix(3) == [7, 3, 1]
        with pytest.raises(DigitError, match="unavailable"):
            stream.digit(4)
        empty = DigitStream(ConstantRule(10), [])
        assert empty.limit == 0 and empty.prefix(0) == []

    @pytest.mark.parametrize("digits", [[3.7, 2.2], [1, 2.0], ["7", 3], [Fraction(1)]])
    def test_refuses_digits_that_are_not_integers(self, digits):
        with pytest.raises(DigitError, match="digits must be integers"):
            DigitStream(ConstantRule(10), digits)

    def test_checks_along_one_walk(self):
        base = CountingListRule([3, 5, 7, 9])
        stream = DigitStream(base, [2, 4, 6, 8])
        assert base.calls == 4
        assert stream.prefix(4) == [2, 4, 6, 8]
        assert base.calls == 4

    @pytest.mark.parametrize("seed", range(20))
    def test_first_bad_position_as_the_checked_walk(self, seed):
        # Digits in range but for one to three bad ones (negative, or at or
        # past their base), and sometimes more digits than the rule has.
        rng = random.Random(seed)
        bases = [rng.randrange(2, 40) for _ in range(60)]
        digits = [rng.randrange(q) for q in bases]
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(digits))
            digits[i] = rng.choice([-1, -bases[i], bases[i], bases[i] + 5])
        if seed % 4 == 0:
            digits += [0] * rng.randrange(1, 5)
        rule = ExplicitListRule(bases)
        with pytest.raises((DigitError, OutOfDomainError)) as fast:
            DigitStream(rule, digits)
        with pytest.raises((DigitError, OutOfDomainError)) as walk:
            list(_checked(rule, digits))
        assert type(fast.value) is type(walk.value)
        assert str(fast.value) == str(walk.value)


class TestDigitsByRange:
    def test_slices_of_the_list(self):
        stream = DigitStream(ConstantRule(10), [n % 10 for n in range(1, 13)])
        assert stream.digits(range(3, 12, 4)) == [3, 7, 1]
        assert stream.digits(range(5, 5)) == [] and stream.digits(range(1, 0)) == []
        assert stream.digits(range(1, 6)) == stream.prefix(5)

    def test_positions_outside_the_stream(self):
        stream = DigitStream(ConstantRule(10), [1, 2, 3, 4, 5])
        assert stream.digits(range(2, 8, 3)) == [2, 5]
        with pytest.raises(DigitError, match="start at 1"):
            stream.digits(range(0, 3))
        with pytest.raises(DigitError, match="digit 8 unavailable"):
            stream.digits(range(2, 9, 3))


class TestEnclosure:
    def test_zero_tail(self):
        stream = listed([2, 3, 4, 5], [0, 0, 0, 0])
        assert t_enclosure(stream, 1, 3) == (Fraction(0), Fraction(1, 60))

    def test_five_sixths(self):
        rule = ExplicitListRule([2, 3])
        stream = expand(Fraction(5, 6), rule, 2)
        assert t_enclosure(stream, 1, 1) == (Fraction(2, 3), Fraction(1))

    def test_contains_true_orbit_for_rationals(self):
        rng = random.Random(11)
        rule = ExplicitListRule([rng.randrange(2, 9) for _ in range(14)])
        for _ in range(40):
            x = Fraction(rng.randrange(0, 719), 720)
            stream = expand(x, rule, 14)
            prod = 1
            for n in range(1, 7):
                prod *= rule.q(n)
            orbit = (prod * x) % 1
            lo, hi = t_enclosure(stream, 6, 8)
            assert lo <= orbit <= hi


class TestBlocks:
    def test_empty_prefix(self):
        stream = listed([2, 2, 2, 2], [0, 1, 0, 1])
        assert count_block(stream, (0,), 0) == 0

    def test_single_digit_block(self):
        stream = listed([2, 2, 2, 2], [0, 1, 0, 1])
        assert count_block(stream, (0,), 3) == 2

    def test_pair_block(self):
        stream = listed([2, 2, 2, 2, 2], [0, 1, 0, 1, 0])
        assert count_block(stream, (0, 1), 3) == 2

    def test_monotone_and_additive(self):
        rng = random.Random(3)
        rule = ConstantRule(3)
        digits = [rng.randrange(0, 3) for _ in range(60)]
        stream = DigitStream(rule, digits)
        prev = 0
        for n in range(1, 50):
            cur = count_block(stream, (1,), n)
            assert cur >= prev
            prev = cur
        mid = 25
        total = count_block(stream, (1,), 50)
        assert total == count_block(stream, (1,), mid) + sum(
            1 for p in range(mid, 50) if digits[p] == 1
        )


class TestTranscode:
    def test_level_one_identity(self):
        spec = doubling_spec()
        stream = listed([16, 32], [3, 7])
        assert transcode(stream, spec, 1) is stream

    def test_value_preservation(self, schedule_a, stream_a, spec_a):
        for j in range(2, 5):
            coarse = transcode(stream_a, spec_a, j)
            big_s = spec_a.big_s(j)
            for n_blocks in (1, 3, 20):
                lhs = evaluate(coarse, n_blocks)
                rhs = evaluate(stream_a, big_s * n_blocks)
                assert lhs == rhs

    def test_random_stream_preservation(self):
        rng = random.Random(23)
        base = ExplicitListRule([rng.randrange(2, 7) for _ in range(240)])
        spec = ChainSpec(base=base, s=ConstantRule(2), depth=3)
        digits = [rng.randrange(0, base.q(n)) for n in range(1, 241)]
        stream = DigitStream(base, digits)
        for j in (2, 3):
            coarse = transcode(stream, spec, j)
            n = 240 // spec.big_s(j)
            assert evaluate(coarse, n) == evaluate(stream, n * spec.big_s(j))

    def test_inverse_roundtrip(self, spec_a, stream_a):
        coarse = transcode(stream_a, spec_a, 3)
        back = transcode_inverse(coarse, spec_a, 3)
        assert back.prefix(40) == stream_a.prefix(40)

    def test_complete_blocks_only(self, stream_a):
        # Lengths at every remainder mod S_j: a partial last block is
        # dropped both ways.
        for spec, full in counting_cases(stream_a):
            for j in range(2, spec.depth + 1):
                rule, big_s = spec.rule(j), spec.big_s(j)
                for length in range(full.limit - big_s, full.limit + 1):
                    stream = DigitStream(spec.base, full.prefix(length))
                    coarse = transcode(stream, spec, j)
                    assert rule_to_json(coarse.rule) == rule_to_json(rule)
                    assert coarse.limit == rule.blocks_in(length) == length // big_s
                    assert coarse.digit_list == level_points(stream, spec, j)[0]
                    back = transcode_inverse(coarse, spec, j)
                    assert back.digit_list == full.prefix(coarse.limit * big_s)

    def test_shifted_first_digit_packs_prefix(self, spec_a, stream_a):
        finite = DigitStream(spec_a.base, stream_a.prefix(8))
        nums, _ = level_points(finite, spec_a, 2, 1)
        assert nums[0] == stream_a.digit(1)
        assert nums[1] == stream_a.digit(2) * spec_a.base.q(3) + stream_a.digit(3)


class CountingQ:
    """Mixin for a base rule that counts the values it produces: its q
    calls and the values its walks yield."""

    calls = 0

    def q(self, n):
        self.calls += 1
        return super().q(n)

    def iter_values(self, start=1):
        for value in super().iter_values(start):
            self.calls += 1
            yield value


class CountingGeometricRule(CountingQ, GeometricRule):
    pass


class CountingListRule(CountingQ, ExplicitListRule):
    pass


def counting_cases(stream_a):
    """(spec, finite stream) pairs whose base rule counts its q calls: the
    min-policy doubling stream, and a random stream over a listed base.
    Lengths are not multiples of the widest block, so partial blocks occur."""
    doubling = CountingGeometricRule(8, 2)
    yield ChainSpec(base=doubling, s=ConstantRule(2), depth=4), DigitStream(
        doubling, stream_a.prefix(203)
    )
    rng = random.Random(29)
    listed_base = CountingListRule([rng.randrange(2, 9) for _ in range(150)])
    digits = [rng.randrange(0, listed_base.q(n)) for n in range(1, 148)]
    yield ChainSpec(base=listed_base, s=ConstantRule(3), depth=3), DigitStream(
        listed_base, digits
    )


class TestTranscodeInverseReads:
    def test_each_block_decomposed_once(self, spec_a, stream_a):
        # 64 fine digits at level 4 (S_4 = 8) are 8 coarse blocks.  Reading
        # them reads each base value once for the fine stream's range check
        # and once for its block's decomposition: 64 + 64 values, where
        # decomposing a whole block for every fine digit read 8 * 64.
        base = CountingGeometricRule(8, 2)
        spec = ChainSpec(base=base, s=ConstantRule(2), depth=4)
        coarse = transcode(DigitStream(spec_a.base, stream_a.prefix(64)), spec_a, 4)
        base.calls = 0
        DigitStream(base, stream_a.prefix(64)).prefix(64)
        range_check = base.calls
        assert range_check == 64
        base.calls = 0
        back = transcode_inverse(coarse, spec, 4)
        assert back.prefix(64) == stream_a.prefix(64)
        assert base.calls == range_check + 64

    def test_out_of_order_reads(self, spec_a, stream_a):
        coarse = transcode(stream_a, spec_a, 3)
        back = transcode_inverse(coarse, spec_a, 3)
        for n in (9, 2, 16, 1, 4, 12):
            assert back.digit(n) == stream_a.digit(n)

    def test_oversized_coarse_digit_rejected(self, spec_a):
        rule = spec_a.rule(2)
        coarse = DigitStream(rule, [rule.q(1) - 1, rule.q(2) - 1])
        assert transcode_inverse(coarse, spec_a, 2).prefix(4) == [15, 31, 63, 127]
        # Block 3's base is 256 * 512; a stream in a wider base can carry it.
        oversized = DigitStream(ConstantRule(10**6), [0, rule.q(2) - 1, rule.q(3)])
        with pytest.raises(DigitError, match="coarse digit at block 3 exceeds its base"):
            transcode_inverse(oversized, spec_a, 2)


class TestLevelPoints:
    def test_every_level_and_shift(self, stream_a):
        for spec, stream in counting_cases(stream_a):
            total = stream.limit
            for j in range(1, spec.depth + 1):
                big_s = spec.big_s(j)
                for k in range(big_s):
                    spec.base.calls = 0
                    nums, dens = level_points(stream, spec, j, k)
                    first = k or big_s
                    assert len(nums) == len(dens) == (total - first) // big_s + 1
                    assert spec.base.calls == first + (len(nums) - 1) * big_s
                    assert dens == spec.rule(j, k).values(len(dens))
                    if k == 0:
                        assert nums == transcode(stream, spec, j).digit_list
                    for n in (1, len(nums)):
                        assert (nums[n - 1], dens[n - 1]) == mixed_radix(
                            stream, block_positions(n, big_s, first)
                        )

    def test_mixed_power_of_two_and_other_bases(self):
        # Powers of two pack by shifts, the other bases by Horner steps,
        # inside one block.
        base = ExplicitListRule([2, 3, 4, 6, 8, 8, 12, 16] * 5 + [2**70, 3**40, 2**5])
        rng = random.Random(37)
        digits = [rng.choice((0, q - 1, rng.randrange(q))) for q in base.values(43)]
        stream = DigitStream(base, digits)
        spec = ChainSpec(base=base, s=ConstantRule(2), depth=4)
        for j in range(1, spec.depth + 1):
            big_s = spec.big_s(j)
            for k in range(big_s):
                nums, dens = level_points(stream, spec, j, k)
                assert list(zip(nums, dens)) == [
                    mixed_radix(stream, block_positions(n, big_s, k or big_s))
                    for n in range(1, len(nums) + 1)
                ]

    def test_level_and_shift_out_of_range(self, spec_a, stream_a):
        finite = DigitStream(spec_a.base, stream_a.prefix(8))
        with pytest.raises(OutOfDomainError):
            level_points(finite, spec_a, 5)
        with pytest.raises(OutOfDomainError):
            level_points(finite, spec_a, 2, 2)


class TestCensus:
    def test_all_zero(self):
        stream = listed([2, 2, 2, 2, 2], [0, 0, 0, 0, 0])
        census = digit_census(stream.prefix(5))
        assert census.zero_count == 5
        assert census.value_set == frozenset()

    def test_mixed(self):
        stream = listed([2, 2, 4, 4, 4, 4], [0, 1, 0, 2, 1, 3])
        census = digit_census(stream.prefix(6))
        assert census.zero_count == 2
        assert census.value_set == frozenset({1, 2, 3})

    def test_generated_stream_has_no_zeros(self, stream_a):
        assert digit_census(stream_a.prefix(2000)).zero_count == 0


def json_only_read(path, rule) -> list[int]:
    """Reference for ``load_jsonl``'s records: every line through
    ``json.loads``, each digit checked by ``_checked``."""
    digits = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        try:
            for pos, line in enumerate(fh, start=1):
                record = json.loads(line)
                if record["n"] != pos:
                    raise DigitError(f"record {pos} carries position {record['n']!r}")
                digits.append(int(record["E"], 16))
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DigitError(f"bad digit file {path}: {exc!r}") from exc
    return list(_checked(rule, digits))


class TestJsonl:
    def test_roundtrip(self, tmp_path, spec_a, stream_a):
        path = tmp_path / "digits.jsonl"
        save_jsonl(stream_a.rule, stream_a.prefix(50), path)
        loaded = load_jsonl(path, rule=spec_a.base)
        assert loaded.prefix(50) == stream_a.prefix(50)

    @staticmethod
    def write(tmp_path, rule, *records):
        path = tmp_path / "digits.jsonl"
        header = {"format": 2, "ints": "hex", "rule": rule_to_json(rule)}
        path.write_text("".join(line + "\n" for line in (json.dumps(header), *records)))
        return path

    def test_rejects_bad_position_order(self, tmp_path):
        path = self.write(tmp_path, ConstantRule(4), '{"n": 2, "E": "1"}')
        with pytest.raises(DigitError, match="position"):
            load_jsonl(path)

    def test_rejects_digit_out_of_range(self, tmp_path):
        path = self.write(tmp_path, ConstantRule(4), '{"n": 1, "E": "4"}')
        with pytest.raises(DigitError, match="out of range"):
            load_jsonl(path)

    def test_rejects_rule_mismatch(self, tmp_path):
        path = self.write(tmp_path, ConstantRule(4), '{"n": 1, "E": "1"}')
        with pytest.raises(DigitError, match="different base rule"):
            load_jsonl(path, rule=ConstantRule(8))

    def test_self_validating_without_rule(self, tmp_path):
        path = self.write(tmp_path, ExplicitListRule([4, 5]), '{"n": 1, "E": "3"}', '{"n": 2, "E": "0"}')
        stream = load_jsonl(path)
        assert stream.prefix(2) == [3, 0]
        assert stream.rule.q(2) == 5

    def test_rejects_v1_file(self, tmp_path):
        path = tmp_path / "digits.jsonl"
        path.write_text('{"n": 1, "q": "4", "E": "1"}\n')
        with pytest.raises(DigitError, match="format"):
            load_jsonl(path, rule=ConstantRule(4))

    @pytest.mark.parametrize(
        "record",
        [
            '{"n": 2, "E": "1f"}',
            '{"n": 2, "E": "01f"}',
            '{"n": 2, "E": "1F"}',
            '{"n": 2, "E": "0x1f"}',
            '{"n": 2, "E": " 1f"}',
            '{"n": 2, "E": "1_f"}',
            '{"n": 2, "E": "-1"}',
            '{"n": 2, "E": "40"}',
            '{"n": 2, "E": ""}',
            '{"n": 2, "E": "1f", "x": 0}',
            '{"E": "1f", "n": 2}',
            '{"n":2,"E":"1f"}',
            '{"n": 3, "E": "1f"}',
            '{"n": 2, "E": 31}',
            '{"n": 2}',
            '{"n": 2, "E": "1f"',
        ],
    )
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_records_read_as_by_json_alone(self, tmp_path, record, final_newline):
        rule = ConstantRule(64)
        path = self.write(tmp_path, rule, '{"n": 1, "E": "3"}', record, '{"n": 3, "E": "2a"}')
        if not final_newline:
            path.write_text(path.read_text()[:-1])
        try:
            want = json_only_read(path, rule)
        except DigitError as exc:
            with pytest.raises(DigitError) as got:
                load_jsonl(path, rule=rule)
            assert str(got.value) == str(exc)
        else:
            assert load_jsonl(path, rule=rule).prefix(3) == want

    def test_only_other_lines_are_parsed_as_json(self, tmp_path, monkeypatch, stream_a, spec_a):
        path = tmp_path / "digits.jsonl"
        save_jsonl(stream_a.rule, stream_a.prefix(300), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = lines[5].replace('"E": "', '"E": "0')  # a leading zero
        lines[-1] = lines[-1].rstrip("\n")
        path.write_text("".join(lines))
        parsed = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or real(text))
        assert load_jsonl(path, rule=spec_a.base).prefix(300) == stream_a.prefix(300)
        assert parsed == [lines[0], lines[5], lines[-1]]

    def test_failed_save_leaves_no_file(self, tmp_path):
        def digits():
            yield from [1, 1, 1, 1]
            raise DigitError("digit 5 unavailable")

        with pytest.raises(DigitError, match="digit 5 unavailable"):
            save_jsonl(ConstantRule(4), digits(), tmp_path / "digits.jsonl")
        assert list(tmp_path.iterdir()) == []
