"""Tests of the benchmark harness itself: wrapping, span arithmetic, checks.

    python3 -m pytest bench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(run.CONFIG))
    return path


def test_each_function_is_wrapped_once(tmp_path, cfg):
    import cnl
    import cnl.cli
    import cnl.dimension
    import cnl.equidist
    import cnl.numeric
    import cnl.sequences
    import cnl.theta

    original = cnl.theta.digit_candidates
    tracer = Tracer()
    run.install(tracer)
    try:
        wrapper = cnl.theta.digit_candidates
        assert wrapper is not original
        assert cnl.cli.digit_candidates is wrapper
        assert cnl.dimension.digit_candidates is wrapper
        assert cnl.digit_candidates is wrapper
        assert cnl.sequences.hp_ln is cnl.dimension.hp_ln is cnl.numeric.hp_ln
        assert cnl.equidist.partial_sum_qnk is cnl.sequences.partial_sum_qnk
        with pytest.raises(ValueError):
            tracer.wrap(wrapper, "again")
        gen = run.generate_step(cfg, tmp_path / "gen", 50, seed=3)
        dim = run.dim_step(cfg, tmp_path / "dim", 20)
        spans = []
        for step in (gen, dim):
            lo = len(tracer)
            _, problems = run.run_in_process(step, oracle=False)
            assert problems == []
            spans.append(tracer.summarize(lo, len(tracer)))
    finally:
        tracer.restore()
    assert cnl.theta.digit_candidates is original
    assert cnl.cli.digit_candidates is original
    assert cnl.dimension.digit_candidates is original
    assert not hasattr(cnl.sequences.GeometricRule.q, "bench_span")
    # generate: one window per digit drawn, one per digit checked.
    assert spans[0]["theta.digit_candidates"].calls == 2 * 50
    # dim: one per trace position, through the binding in cnl.dimension.
    assert spans[1]["theta.digit_candidates"].calls == 20
    assert spans[0]["numeric.hp_ln"].calls == 0 < spans[1]["numeric.hp_ln"].calls


def test_total_and_self_time_arithmetic():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")

    def rec(k):
        return leaf() if k == 0 else rec_w(k - 1)

    rec_w = tracer.wrap(rec, "rec")

    def top():
        rec_w(1)
        leaf()

    tracer.wrap(top, "top")()
    # Clock readings: top 0..9, rec(1) 1..6, rec(0) 2..5, leaf 3..4, leaf 7..8.
    totals = tracer.summarize()
    assert (totals["top"].calls, totals["top"].total_s, totals["top"].self_s) == (1, 9, 3)
    # Recursion counts once in the total; self time is 5-3 plus 3-1.
    assert (totals["rec"].calls, totals["rec"].total_s, totals["rec"].self_s) == (2, 5, 4)
    assert (totals["leaf"].calls, totals["leaf"].total_s, totals["leaf"].self_s) == (2, 2, 2)
    assert list(tracer.parent) == [-1, 0, 1, 2, 0]
    inner = tracer.summarize(1, 4)
    assert (inner["rec"].total_s, inner["leaf"].calls, inner["top"].calls) == (5, 1, 0)


def test_failures_are_counted(tmp_path, cfg):
    tally = run.Tally()
    runner = run.Runner(time.perf_counter() + 60, tmp_path)
    _, problems = runner.step(run.generate_step(cfg, tmp_path / "bad", 0))
    assert problems and "exit 2" in problems[0]
    tally.record("probe", problems, probe=True)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, True)

    gen = run.generate_step(cfg, tmp_path / "gen", 200, seed=5)
    child, problems = runner.step(gen)
    assert child.code == 0 and problems == [] and child.rss_mb > 0
    tally.record("generate", problems)
    analyze = run.analyze_step(cfg, gen.digits, tmp_path / "rep", (1, 2))
    _, problems = runner.step(analyze, oracle=True)
    tally.record("analyze", problems)
    assert (tally.attempted, tally.failed, tally.correct) == (3, 1, True)

    # A run that exits 0 but whose own verdict fails is a failure.
    summary = json.loads((gen.out / "summary.json").read_text())
    summary["all_pass"] = False
    (gen.out / "summary.json").write_text(json.dumps(summary))
    tally.record("generate", run.step_problems(gen, oracle=False))
    assert (tally.attempted, tally.failed, tally.correct) == (4, 2, False)


def test_oracle_catches_a_wrong_row(tmp_path, cfg):
    runner = run.Runner(time.perf_counter() + 60, tmp_path)
    gen = run.generate_step(cfg, tmp_path / "gen", 120, seed=7)
    analyze = run.analyze_step(cfg, gen.digits, tmp_path / "rep", (1,))
    for step in (gen, analyze):
        assert runner.step(step, oracle=True)[1] == []
    dn = analyze.out / "dn_j1.csv"
    lines = dn.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("50,"))
    fields = lines[row].split(",")
    fields[1] = str(int(fields[1]) + 1)
    lines[row] = ",".join(fields)
    dn.write_text("\n".join(lines) + "\n")
    problems = checks.dn_oracle_problems(gen.digits, dn, run.base_q)
    assert len(problems) == 1 and "D*(50)" in problems[0]


def test_hex_digit_records_are_read(tmp_path):
    path = tmp_path / "digits.jsonl"
    path.write_text('{"format": 2, "ints": "hex"}\n{"n": 1, "E": "1"}\n{"n": 2, "E": "1f"}\n')
    assert checks.read_digits(path, 2) == [1, 31]


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    emitted = {(metric, unit) for metric, _, _, unit in run.LAYER_METRICS}
    emitted |= {(f"trace.overhead_{label}_s", "s") for label in run.OVERHEAD_COMMANDS}
    assert listed == emitted
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
