"""Differential tests over small chain configs of every rule kind.

Each example builds a config, runs seeded ``theta generate``, then
``analyze`` over every level and every shift the level allows, then
``dim``, all through ``cli.main``, and checks every ``dn_j*`` and
``rn_j*`` row against a reference computed here from the digits alone:
the brute-force star discrepancy of the level's points and a direct
``Fraction`` sum of 1/q over the level's bases, and every ``dim_trace.csv``
omega_k against ``digit_candidates``, which looks the position up with
``phi_inv`` and ``q``, and against a count of the digits in the position's
``Fraction`` window.  Composed- and shifted-contraction bases reach the CLI
only here.  ``level_points`` is also checked directly, at every level and
shift of drawn configs of every kind, against the level rule's bases,
``transcode`` and ``mixed_radix``.  Geometric bases whose c and r are
not powers of two take the non-dyadic paths: the floor-key ladder and the
``Fraction`` proxy sums.  Chains of depth 4 and 5, some with an
explicit list of unequal steps, run the same checks where S_(j+1) / S_j
changes with j.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, note, settings
from hypothesis import strategies as st

from cnl.cli import main
from cnl.expansion import DigitStream, level_points, load_jsonl, mixed_radix, transcode
from cnl.numeric import hp_ln
from cnl.sequences import (
    BlockRepetitionRule,
    ChainSpec,
    ConstantRule,
    ContractionRule,
    ExplicitListRule,
    GeometricRule,
    OutOfDomainError,
    RuleError,
    block_positions,
    rule_to_json,
)
from cnl.theta import ScheduleError, build_schedule, digit_candidates

from .conftest import brute_force_star_discrepancy, hp_ln_reference

EXAMPLES = 3  # per rule kind
MIN_COVERAGE = 20
MAX_DIGITS = 200


def not_a_power_of_two(x: int) -> bool:
    return x & (x - 1) != 0


COPRIME = [
    (c, r) for c in range(3, 100) for r in range(3, 16)
    if math.gcd(c, r) == 1 and not_a_power_of_two(c) and not_a_power_of_two(r)
]

# Bases by rule kind, with small parameters.  A constant base schedules
# at least 20 positions only at depth 3 with step 3, once it clears 3**12.
# The three geometric radices below are never powers of two: c and r
# coprime (so not powers of a common base), r = 1, and c = 1.
SIMPLE = {
    "explicit-list": st.lists(st.integers(2, 10**7), min_size=30, max_size=300).map(
        lambda values: ExplicitListRule(sorted(values), monotone_tail_from=1)
    ),
    "constant": st.integers(3**12, 10**7).map(ConstantRule),
    "geometric": st.builds(GeometricRule, st.integers(1, 9), st.integers(2, 5)),
    "geometric coprime": st.sampled_from(COPRIME).map(lambda cr: GeometricRule(*cr)),
    "geometric r = 1": st.integers(3**12, 10**7).filter(not_a_power_of_two).map(
        lambda c: GeometricRule(c, 1)
    ),
    "geometric c = 1": st.sampled_from([3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]).map(
        lambda r: GeometricRule(1, r)
    ),
    "block-repetition pairs": st.lists(
        st.tuples(st.integers(2, 10**7), st.integers(1, 40)), min_size=1, max_size=8
    ).map(lambda pairs: BlockRepetitionRule(pairs=sorted(pairs))),
    "block-repetition affine": st.builds(
        lambda va, vb, ta, tb: BlockRepetitionRule(value_affine=(va, vb), repeat_affine=(ta, tb)),
        st.integers(1, 500), st.integers(2, 1000), st.integers(0, 3), st.integers(1, 5),
    ),
}


@st.composite
def contractions(draw, shifted: bool):
    base = draw(st.one_of(*SIMPLE.values()))
    s = draw(st.integers(2 if shifted else 1, 3))
    return ContractionRule(base, s, draw(st.integers(1, s - 1)) if shifted else s)


BASES = {**SIMPLE, "composed-contraction": contractions(False), "shifted-contraction": contractions(True)}


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


def csv_rows(path: Path) -> list[dict]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def fraction(num: str, den: str) -> Fraction:
    """A report's two decimal cells; ``Decimal`` reads text past 4300 digits."""
    return Fraction(int(Decimal(num)), int(Decimal(den)))


def level_reference(stream: DigitStream, spec: ChainSpec, j: int, k: int) -> list[Fraction]:
    """Level j's points at shift k: ``transcode`` at shift 0, and each
    block of ``spec.rule(j, k)`` read by ``mixed_radix`` at other shifts."""
    if k == 0:
        coarse = transcode(stream, spec, j)
        return [Fraction(d, q) for d, q in zip(coarse.digit_list, coarse.rule.values(coarse.limit))]
    rule = spec.rule(j, k)
    blocks = range(1, rule.blocks_in(stream.limit) + 1)
    return [Fraction(*mixed_radix(stream, rule.block(n))) for n in blocks]


@pytest.mark.parametrize("kind", BASES)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    data=st.data(),
    depth=st.integers(2, 3),
    step=st.sampled_from([2, 3]),
    n=st.integers(2, MAX_DIGITS),
    seed=st.integers(0, 2**64 - 1),
)
def test_commands_agree_with_references(tmp_path_factory, kind, data, depth, step, n, seed):
    spec = ChainSpec(base=data.draw(BASES[kind]), s=ConstantRule(step), depth=depth)
    try:
        schedule = build_schedule(spec)
    except (ScheduleError, RuleError, OutOfDomainError):
        schedule = None
    assume(schedule is not None and schedule.coverage >= MIN_COVERAGE)
    # A contraction's value multiplies s base values: read at most
    # MAX_DIGITS base positions in all.
    width = spec.base.s if isinstance(spec.base, ContractionRule) else 1
    n = min(n // width, schedule.coverage, spec.base.domain_max or n)
    assume(n >= 2)
    note(json.dumps(rule_to_json(spec.base)))
    check_commands(tmp_path_factory.mktemp("run"), spec, n, seed)


# Deep chains: bases from 2**64 on, which clears every threshold S_j^(2j)
# of depth 5 (at most 81**10 < 2**64) from the first position, so L_2 is at
# most 36 and level 2's points, S_2 apart, cross level-3 blocks of S_3 in
# the first digits; and steps that are one constant or an explicit list of
# unequal steps.
DEEP_BASES = st.one_of(
    st.builds(GeometricRule, st.integers(2**64, 2**66), st.integers(1, 7)),
    st.lists(st.integers(2**64, 2**72), min_size=40, max_size=300).map(
        lambda values: ExplicitListRule(sorted(values), monotone_tail_from=1)
    ),
    st.builds(
        lambda vb, tb: BlockRepetitionRule(value_affine=(3, vb), repeat_affine=(1, tb)),
        st.integers(2**64, 2**66), st.integers(1, 4),
    ),
)
STEPS = st.one_of(
    st.sampled_from([2, 3]).map(ConstantRule),
    st.lists(st.sampled_from([2, 3]), min_size=5, max_size=5)
    .filter(lambda steps: len(set(steps[:3])) > 1)
    .map(ExplicitListRule),
)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    base=DEEP_BASES,
    steps=STEPS,
    depth=st.integers(4, 5),
    n=st.integers(2, MAX_DIGITS),
    seed=st.integers(0, 2**64 - 1),
)
def test_deep_chains_agree_with_references(tmp_path_factory, base, steps, depth, n, seed):
    spec = ChainSpec(base=base, s=steps, depth=depth)
    schedule = build_schedule(spec)
    # At most 8000 bits of bases in all: the floor-key ladder's recovery of
    # wide non-dyadic points is quadratic in their width.
    bits = accumulate(q.bit_length() for q in base.values(min(n, base.domain_max or n)))
    n = min(sum(1 for total in bits if total <= 8000), schedule.coverage)
    assume(n >= 2)
    note(json.dumps(rule_to_json(spec.base)))
    note(json.dumps(rule_to_json(spec.s)))
    check_commands(tmp_path_factory.mktemp("deep"), spec, n, seed)


def check_level_points(stream: DigitStream, spec: ChainSpec) -> None:
    """``level_points`` at every level j and shift k < S_j: its bases are
    the level rule's, its points ``transcode``'s at k = 0, and each point is
    ``mixed_radix`` over its block's positions."""
    for j in range(1, spec.depth + 1):
        big_s = spec.big_s(j)
        for k in range(big_s):
            nums, dens = level_points(stream, spec, j, k)
            assert len(nums) == len(dens) == max((stream.limit - (k or big_s)) // big_s + 1, 0)
            assert dens == spec.rule(j, k).values(len(dens)), (j, k)
            if k == 0:
                assert nums == transcode(stream, spec, j).digit_list, j
            for n, point in enumerate(zip(nums, dens), 1):
                assert point == mixed_radix(stream, block_positions(n, big_s, k or big_s)), (j, k, n)


def random_stream(base, n: int, seed: int) -> DigitStream:
    """n seeded digits, each anywhere in its base's range: 0 and q - 1 included."""
    rng = random.Random(seed)
    return DigitStream(base, [rng.choice((0, q - 1, rng.randrange(q))) for q in base.values(n)])


@pytest.mark.parametrize("kind", BASES)
@settings(max_examples=8, deadline=None)
@given(
    data=st.data(),
    depth=st.integers(1, 4),
    step=st.sampled_from([2, 3]),
    n=st.integers(1, 1100),
    seed=st.integers(0, 2**32),
)
def test_level_points_agree_with_their_references(kind, data, depth, step, n, seed):
    # Streams run past level_points' 512-position chunks, and most end
    # inside a block of the wider levels.
    spec = ChainSpec(base=data.draw(BASES[kind]), s=ConstantRule(step), depth=depth)
    # At most 20000 bits of bases in all, so fast-growing bases stay quick.
    bits = accumulate(q.bit_length() for q in spec.base.values(min(n, spec.base.domain_max or n)))
    n = max(sum(1 for total in bits if total <= 20000), 1)
    note(json.dumps(rule_to_json(spec.base)))
    check_level_points(random_stream(spec.base, n, seed), spec)


@pytest.mark.parametrize("base", [GeometricRule(8, 2), GeometricRule(9, 3), ExplicitListRule(
    [2, 3, 4, 6, 8, 8, 12, 16, 2**70, 3**40, 2**5, 5] * 100)], ids=["doubling", "ratio-3", "mixed"])
def test_level_points_across_chunks_and_a_partial_block(base):
    # 1031 positions: two whole 512-position chunks and more at every
    # level, ending 7 positions into a block of 8 at level 4.
    check_level_points(random_stream(base, 1031, 5), ChainSpec(base, ConstantRule(2), 4))


def test_dim_rejects_a_base_that_outgrows_its_prefix(tmp_path):
    # Found by the test above: q_3 = 9**3 * 5**18 of this shifted
    # contraction exceeds q_1 * q_2 = 45 * 9**3 * 5**9 by far.
    spec = ChainSpec(ContractionRule(GeometricRule(9, 5), 3, 1), ConstantRule(2), 3)
    assert check_commands(tmp_path, spec, 27, 10) == 1


def check_commands(root: Path, spec: ChainSpec, n: int, seed: int) -> int:
    """Run seeded generate, analyze and dim on ``spec`` under ``root``,
    check every report against the references, and return dim's exit code."""
    config_path = root / "config.json"
    config_path.write_text(
        json.dumps({"Q": rule_to_json(spec.base), "S": rule_to_json(spec.s), "depth": spec.depth})
    )
    cfg = ["--config", str(config_path)]
    run(["theta", "generate", *cfg, "--out", str(root / "gen"), "--n", str(n),
         "--policy", "seeded", "--seed", str(seed)])
    assert json.loads((root / "gen" / "summary.json").read_text())["all_pass"]

    levels = range(1, spec.depth + 1)
    shifts = range(spec.big_s(spec.depth))
    run(["analyze", *cfg, "--digits", str(root / "gen" / "digits.jsonl"),
         "--out", str(root / "an"), "--levels", ",".join(map(str, levels)),
         "--shifts", ",".join(map(str, shifts))])
    summary = json.loads((root / "an" / "analyze_summary.json").read_text())
    assert summary["schedule_conformant"] and summary["envelope_violations"] == 0

    stream = load_jsonl(root / "gen" / "digits.jsonl", rule=spec.base)
    for j in levels:
        for k in range(spec.big_s(j)):
            points = level_reference(stream, spec, j, k)
            name = f"dn_j{j}_k{k}.csv" if k else f"dn_j{j}.csv"
            assert (root / "an" / name).exists() == bool(points), name
            if not points:
                continue
            for row in csv_rows(root / "an" / name):
                dstar = brute_force_star_discrepancy(points[: int(row["N"])])
                assert fraction(row["Dstar_num"], row["Dstar_den"]) == dstar, (name, row["N"])
            if k:
                continue
            bases = spec.rule(j).values(len(points))
            for row in csv_rows(root / "an" / f"rn_j{j}.csv"):
                expected = sum((Fraction(1, q) for q in bases[: int(row["n"])]), Fraction(0))
                assert fraction(row["expected_num"], row["expected_den"]) == expected, (j, row["n"])

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["dim", *cfg, "--out", str(root / "dim"), "--n", str(n)])
    # dim may reject only a chain with a base q_k at least the product
    # of the bases before it, which can leave no gap to measure (shifted
    # contractions of fast geometric bases do): a verification failure
    # that leaves no summary.  Every other chain must pass.
    if code:
        assert code == 1 and outgrows_its_prefix(spec.base.values(n)), err.getvalue()
        assert err.getvalue().startswith("dimension trace rejected: no contraction to measure")
        assert not (root / "dim" / "dim_summary.json").exists()
        return code
    schedule = build_schedule(spec)
    rows = csv_rows(root / "dim" / "dim_trace.csv")
    assert [int(row["k"]) for row in rows] == list(range(2, n + 1))
    for row in rows:
        k = int(row["k"])
        omega = int(Decimal(row["omega_k"]))
        assert omega == digit_candidates(schedule, k).count == window_count(schedule, k), k
    return code


def window_count(schedule, k: int) -> int:
    """The digits F in 1 .. q_k - 1 with F / q_k in position k's window,
    counted from the window's ``Fraction`` ends."""
    info, q = schedule.phi_inv(k), schedule.q(k)
    lo, hi = schedule.window(info.level, info.offset, k)
    return min(math.ceil(q * hi) - 1, q - 1) - max(math.ceil(q * lo), 1) + 1


def outgrows_its_prefix(bases: list[int]) -> bool:
    """Whether some q_k, k >= 2, is at least q_1 * ... * q_(k-1)."""
    before = bases[0]
    for q in bases[1:]:
        if q >= before:
            return True
        before *= q
    return False


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(
        st.integers(1, 2**80),
        st.integers(1, 2**6000),
        st.integers(0, 6000).map(lambda e: 1 << e),
        st.integers(0, 3000).map(lambda e: 3**e),
    ),
    bits=st.one_of(st.none(), st.integers(8, 300)),
)
def test_hp_ln_of_an_integer_is_the_fraction_formula(x, bits):
    # hp_ln skips the ln of an integer's denominator 1; the reference takes it.
    assert hp_ln(x, bits) == hp_ln_reference(x, bits)
