"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are stated inline; nothing is deferred to calibration.
"""

import json
import random
import time
from fractions import Fraction

from cnl.cli import main
from cnl.dimension import basic_intervals, theta_geometry
from cnl.equidist import star_discrepancy, verify_aap, concat_bound
from cnl.expansion import digit_census, transcode
from cnl.refpair import build_report
from cnl.sequences import ConstantRule, GeometricRule, rule_to_json
from cnl.theta import digit_candidates, envelope_sup, extract_y

from .conftest import (
    STREAM_LEN, brute_force_star_discrepancy, envelope_check, row_ratios, trace_rows
)

TOL = Fraction(1, 10**9)


def verdict(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_reference_pair_reproduction():
    started = time.monotonic()
    report = build_report(orbit_horizon=5000)
    elapsed = time.monotonic() - started

    by_name = dict(report.checks)
    assert by_name["contraction matches listed coarse bases"]
    assert by_name["x contracted digits match listing at positions 2..10"]
    assert by_name["position-1 disagreement is exactly the documented one"]
    assert by_name["y coarse digits match listing except the documented tenth"]
    assert by_name["y fine rewrite matches the listed 20 digits"]
    assert by_name["orbit enclosure upper bound < 1/2 for all n <= 5000"]
    assert report.ok
    text = report.render()
    assert "listing prints 2" in text and "listing prints 64" in text
    assert elapsed < 60, f"reproduction took {elapsed:.1f}s"
    verdict(1, "reference pair reproduction")


def test_criterion_2_schedule_exactness(spec_a):
    from cnl.theta import build_schedule

    started = time.monotonic()
    schedule = build_schedule(spec_a)
    elapsed = time.monotonic() - started

    assert [schedule.nu(j) for j in (2, 3, 4)] == [1, 9, 21]
    assert [schedule.ell(j) for j in (1, 2, 3)] == [2, 71, 9036]
    assert [schedule.big_l(j) for j in (1, 2, 3)] == [2, 144, 36288]
    for j in (1, 2, 3):
        assert schedule.big_l(j) % spec_a.big_s(j + 1) == 0
        assert schedule.ell(j) >= j * spec_a.s_value(j)
        assert schedule.big_l(j) >= schedule.nu(j + 1) - 1
        assert schedule.big_l(j) == schedule.big_l(j - 1) + spec_a.big_s(j) * schedule.ell(j)
    for j in (2, 3):
        assert schedule.ell(j) * spec_a.big_s(j) == schedule.big_l(j - 1) * (
            2 * j * spec_a.s_value(j) * schedule.nu(j + 1) - 1
        )
    assert elapsed < 1, f"schedule build took {elapsed:.3f}s"
    verdict(2, "schedule exactness")


def test_criterion_3_bijection_and_window_suite(spec_a, schedule_a, stream_a):
    started = time.monotonic()
    for n in range(1, 36288 + 1):
        info = schedule_a.phi_inv(n)
        assert schedule_a.phi(info.level, info.block, info.offset) == n
    for n in range(1, 5001):
        info = schedule_a.phi_inv(n)
        count = digit_candidates(schedule_a, n).count
        if info.level == 1:
            assert count == 1
        else:
            assert count >= schedule_a.q(n) // (info.a * info.a) >= 1
    for j in range(1, 5):
        coarse = transcode(stream_a, spec_a, j)
        length = STREAM_LEN // spec_a.big_s(j)
        assert digit_census(coarse.prefix(length)).zero_count == 0
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"bijection and window suite took {elapsed:.1f}s"
    verdict(3, "bijection and window suite")


def test_criterion_4_equidistribution_suite(spec_a, schedule_a, stream_a):
    blocks_checked = 0
    for k in range(2, schedule_a.levels + 1):
        for b in range(1, schedule_a.ell(k) + 1):
            if schedule_a.big_l(k - 1) + b * schedule_a.big_s(k) > STREAM_LEN:
                break
            for j in range(1, k):
                points = extract_y(schedule_a, stream_a, j, k, b)
                delta = Fraction(1, spec_a.big_s(j) * spec_a.big_s(k))
                epsilon = Fraction(spec_a.big_s(j), spec_a.big_s(k))
                cert = verify_aap(points, delta, epsilon)
                assert cert.accepted and cert.eta is not None
                assert star_discrepancy(points) <= 2 * epsilon
                blocks_checked += 1
    assert blocks_checked == 2499  # 71 + 1214 + 1214 complete blocks

    lengths_j1 = [2, 3, 4, 8, 16, 32, 64, 128, 142, 143, 144, 145, 146,
                  256, 512, 1024, 2048, 4096, 4998]
    rep1 = envelope_check(schedule_a, stream_a, 1, lengths_j1)
    assert rep1.all_pass()
    assert all(
        row.dstar <= row.bound for row in rep1.rows
    )
    rep2 = envelope_check(schedule_a, stream_a, 2, [72, 73, 100, 500, 1000, 2428])
    assert rep2.all_pass()

    assert envelope_sup(schedule_a, 1, 2) == 1
    assert envelope_sup(schedule_a, 1, 3) == 1
    assert envelope_sup(schedule_a, 1, 4) == Fraction(18224, 36296)
    verdict(4, "equidistribution suite")


def test_criterion_5_discrepancy_oracle(spec_a, schedule_a, stream_a):
    rng = random.Random(1729)
    for _ in range(200):
        n = rng.randrange(1, 51)
        den = rng.choice([7, 16, 32, 64, 100])
        points = [Fraction(rng.randrange(0, den), den) for _ in range(n)]
        assert star_discrepancy(points) == brute_force_star_discrepancy(points)

    # every certified progression obeys both progression bounds exactly
    from cnl.equidist import aap_bound

    certified = 0
    for k in (2, 3):
        for b in (1, 2, 3, 50):
            if schedule_a.big_l(k - 1) + b * schedule_a.big_s(k) > STREAM_LEN:
                continue
            for j in range(1, k):
                points = extract_y(schedule_a, stream_a, j, k, b)
                delta = Fraction(1, spec_a.big_s(j) * spec_a.big_s(k))
                cert = verify_aap(points, delta, Fraction(spec_a.big_s(j), spec_a.big_s(k)))
                assert cert.accepted
                dstar = star_discrepancy(points)
                bounds = aap_bound(len(points), delta, eta=cert.eta)
                assert dstar <= Fraction(1, len(points)) + delta
                assert dstar <= bounds.fine <= bounds.coarse
                certified += 1
    assert certified >= 8

    # concatenation bound dominates on random assemblies
    for _ in range(50):
        blocks = []
        concat = []
        for _ in range(rng.randrange(1, 6)):
            n = rng.randrange(1, 10)
            pts = [Fraction(rng.randrange(0, 64), 64) for _ in range(n)]
            blocks.append((n, star_discrepancy(pts)))
            concat.extend(pts)
        assert star_discrepancy(concat) <= concat_bound(blocks)
    verdict(5, "discrepancy oracle")


def test_criterion_6_dimension_trace(schedule_a, stream_a):
    started = time.monotonic()
    rows = trace_rows(schedule_a, 2000)
    final = rows[-1]
    assert Fraction(3, 5) <= row_ratios(final).d_bound <= Fraction(7, 10)

    # independent exact oracle: for the doubling base every log is a
    # multiple of ln 2, so the closed form is a rational in the exponents
    def closed_form(k: int) -> Fraction:
        num = Fraction(0)
        den = Fraction(0)
        for n in range(1, k):
            level = schedule_a.phi_inv(n).level
            num += Fraction(level - 1, level) * (n + 3)
            den += n + 3
        level_k = schedule_a.phi_inv(k).level
        den -= Fraction(level_k - 1, level_k) * (k + 3)
        return num / den

    for row in rows[::97] + [rows[-1]]:
        assert abs(row_ratios(row).d_bound - closed_form(row.k)) <= TOL
        assert row_ratios(row).d_bound <= closed_form(row.k)
        assert row_ratios(row).d_exact >= row_ratios(row).d_bound - TOL

    geoms = theta_geometry(schedule_a, 14)
    for k in range(1, 14):
        intervals = basic_intervals(schedule_a, stream_a, k)
        if len(intervals) <= 1:
            continue
        assert len(intervals) <= 10_000
        eps = geoms[k - 1].eps
        for (lo_a, hi_a), (lo_b, hi_b) in zip(intervals, intervals[1:]):
            assert hi_a < lo_b
            assert lo_b - hi_a >= eps
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"dimension trace took {elapsed:.1f}s"
    verdict(6, "dimension trace")


def test_criterion_7_determinism(tmp_path):
    config = {
        "Q": rule_to_json(GeometricRule(8, 2)),
        "S": rule_to_json(ConstantRule(2)),
        "depth": 4,
        "policy": "seeded",
        "seed": 20260808,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        code = main(
            ["theta", "generate", "--config", str(config_path), "--out", str(out),
             "--n", "500"]
        )
        assert code == 0
        outputs.append(
            tuple((out / name).read_bytes()
                  for name in ("digits.jsonl", "schedule.json", "summary.json"))
        )
    assert outputs[0] == outputs[1]
    verdict(7, "determinism")
