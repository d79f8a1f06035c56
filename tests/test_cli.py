import json
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from decimal import Decimal
from pathlib import Path

import pytest

import cnl
from cnl import cli, dimension, theta
from cnl.cli import main
from cnl.dimension import DimensionTraceRow
from cnl.numeric import format_decimal
from cnl.theta import CandidateSet, ThetaSchedule, digit_candidates
from cnl.sequences import rule_from_json, rule_to_json, ConstantRule, GeometricRule

from .conftest import growth_ratios, row_ratios, short_list_spec, trace_rows


def write_config(tmp_path, depth=4, policy="min", name="config.json"):
    config = {
        "Q": rule_to_json(GeometricRule(8, 2)),
        "S": rule_to_json(ConstantRule(2)),
        "depth": depth,
        "policy": policy,
    }
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


class TestThetaGenerate:
    def test_generates_and_validates(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["theta", "generate", "--config", str(config), "--out", str(out), "--n", "100"]
        )
        assert code == 0
        header, *digits = (out / "digits.jsonl").read_text().splitlines()
        header = json.loads(header)
        assert header == {"format": 2, "ints": "hex", "rule": rule_to_json(GeometricRule(8, 2))}
        assert rule_from_json(header["rule"]).q(1) == 16
        assert len(digits) == 100
        first = json.loads(digits[0])
        assert first == {"n": 1, "E": "1"}
        fourth = json.loads(digits[3])
        assert fourth["E"] == "60"  # 96
        schedule = json.loads((out / "schedule.json").read_text())
        assert schedule["l"] == [2, 71, 9036]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_pass"] is True

    def test_walk_coordinates_checked_against_phi_inv(self, tmp_path, monkeypatch):
        # A walk whose coordinates differ from phi_inv at one position, in a
        # field phi does not read, fails the roundtrip check alone.
        walk = ThetaSchedule.walk

        def skewed(self, start=1):
            for info, q in walk(self, start):
                if info.n == 7:
                    info = info._replace(a=info.a + 1)
                yield info, q

        monkeypatch.setattr(ThetaSchedule, "walk", skewed)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["theta", "generate", "--config", str(config), "--out", str(out), "--n", "20"]
        )
        assert code == 1
        checks = {c["name"]: c["ok"] for c in json.loads((out / "summary.json").read_text())["checks"]}
        assert checks.pop("positions roundtrip through the bijection") is False
        assert all(checks.values())

    def test_depth_one_all_level_one(self, tmp_path):
        config = write_config(tmp_path, depth=1)
        out = tmp_path / "out"
        code = main(
            ["theta", "generate", "--config", str(config), "--out", str(out), "--n", "2"]
        )
        assert code == 0
        lines = (out / "digits.jsonl").read_text().splitlines()[1:]
        assert [json.loads(l)["E"] for l in lines] == ["1", "1"]

    def test_uncertified_rule_exits_two(self, tmp_path):
        config = {
            "Q": {
                "kind": "explicit-list",
                "params": {"values": [str(2 ** (n + 4)) for n in range(40)]},
                "monotone_tail_from": None,
            },
            "S": rule_to_json(ConstantRule(2)),
            "depth": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(
            ["theta", "generate", "--config", str(path), "--out", str(tmp_path / "o"), "--n", "5"]
        )
        assert code == 2

    def test_bad_n_exits_two(self, tmp_path):
        config = write_config(tmp_path)
        code = main(
            ["theta", "generate", "--config", str(config), "--out", str(tmp_path / "o"),
             "--n", "999999"]
        )
        assert code == 2

    def test_past_4300_decimal_digits(self, tmp_path, spec_a):
        """q_n passes 4300 decimal digits at n = 14282.  The digits go to
        the file as they are drawn, so the run's traced peak stays far
        below the 13.7 MiB that holding all of them took."""
        from cnl.expansion import load_jsonl
        from cnl.theta import SelectionPolicy, build_schedule, generate_digits

        config = write_config(tmp_path)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(
                ["theta", "generate", "--config", str(config), "--out", str(out), "--n", "14300"]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20
        assert json.loads((out / "summary.json").read_text())["all_pass"] is True
        loaded = load_jsonl(out / "digits.jsonl", rule=spec_a.base)
        want = generate_digits(build_schedule(spec_a), SelectionPolicy("min"), 14300)
        assert loaded.digit(14300) == deque(want, maxlen=1)[0]

    def test_base_ending_before_n_leaves_no_file(self, tmp_path, capsys):
        spec = short_list_spec()  # 200 base values, coverage 36288
        config = tmp_path / "short.json"
        config.write_text(json.dumps(
            {"Q": rule_to_json(spec.base), "S": rule_to_json(spec.s), "depth": spec.depth}
        ))
        argv = ["theta", "generate", "--config", str(config)]
        # The checks' walk stops with the digits, so all 200 values serve.
        assert main(argv + ["--out", str(tmp_path / "full"), "--n", "200"]) == 0
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out), "--n", "201"]) == 1
        assert "position 201 past end" in capsys.readouterr().err
        # No digits.jsonl, no temporary file beside it, and no summary.
        assert list(out.iterdir()) == []

    def test_digit_outside_its_checked_window_fails(self, tmp_path, monkeypatch):
        """The checks read their own windows: one that leaves out the drawn
        digit fails the run, and the file holds the same digits."""
        config = write_config(tmp_path)
        argv = ["theta", "generate", "--config", str(config), "--n", "300"]
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert main(argv + ["--out", str(good)]) == 0
        real = cli.digit_candidates

        def shifted(schedule, n, info=None, q=None):
            cand = real(schedule, n, info, q)
            # The min policy draws f_min; the window moved up by one drops it.
            return CandidateSet(cand.f_min + 1, cand.f_max + 1) if n == 150 else cand

        monkeypatch.setattr(cli, "digit_candidates", shifted)
        assert main(argv + ["--out", str(bad)]) == 1
        checks = json.loads((bad / "summary.json").read_text())["checks"]
        assert [c["name"] for c in checks if not c["ok"]] == [
            "digits nonzero and inside their windows"
        ]
        assert (bad / "digits.jsonl").read_bytes() == (good / "digits.jsonl").read_bytes()

    def test_byte_identical_runs(self, tmp_path):
        config = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["theta", "generate", "--config", str(config), "--out", str(out),
                 "--n", "100", "--policy", "seeded", "--seed", "31337"]
            ) == 0
        for name in ("digits.jsonl", "schedule.json", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestAnalyze:
    @pytest.fixture()
    def generated(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "gen"
        assert main(
            ["theta", "generate", "--config", str(config), "--out", str(out), "--n", "400"]
        ) == 0
        return config, out / "digits.jsonl"

    def test_reports_no_zero_digits(self, tmp_path, generated):
        config, digits = generated
        out = tmp_path / "analysis"
        code = main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(out), "--levels", "1,2,3,4"]
        )
        assert code == 0
        summary = json.loads((out / "analyze_summary.json").read_text())
        assert summary["schedule_conformant"] is True
        for j in ("1", "2", "3", "4"):
            assert summary["levels"][j]["zero_count"] == 0
            assert summary["levels"][j]["zero_digit_found"] is False
        assert (out / "dn_j1.csv").exists()
        assert (out / "rn_j2.csv").exists()
        assert (out / "envelope_j1.csv").exists()
        assert summary["envelope_violations"] == 0

    def test_shifted_base_reports(self, tmp_path, generated):
        config, digits = generated
        out = tmp_path / "analysis"
        code = main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(out), "--levels", "2", "--shifts", "0,1"]
        )
        assert code == 0
        summary = json.loads((out / "analyze_summary.json").read_text())
        assert summary["levels"]["2"]["shift_1_zero_count"] == 0
        assert (out / "dn_j2_k1.csv").exists()

    def test_envelope_rows_labelled(self, tmp_path, generated):
        config, digits = generated
        out = tmp_path / "analysis"
        main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(out), "--levels", "1"]
        )
        body = (out / "envelope_j1.csv").read_text()
        assert "window shift c-1" in body
        assert "pass" in body
        assert "fatal" not in body

    def test_shift_out_of_range_exits_two(self, tmp_path, generated):
        config, digits = generated
        code = main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(tmp_path / "x"), "--levels", "2", "--shifts", "0,2"]
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--levels", "--shifts"])
    @pytest.mark.parametrize("raw", [",", ",,", ""])
    def test_list_of_no_integer_exits_two_before_out(self, tmp_path, generated, flag, raw, capsys):
        config, digits = generated
        out = tmp_path / "x"
        code = main(["analyze", "--config", str(config), "--digits", str(digits),
                     "--out", str(out), flag, raw])
        assert code == 2
        assert "expected comma-separated integers" in capsys.readouterr().err
        assert not out.exists()

    def test_shift_too_large_for_one_level_is_skipped_there(self, tmp_path, generated):
        config, digits = generated
        out = tmp_path / "analysis"
        code = main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(out), "--levels", "2,3", "--shifts", "0,3"]
        )
        assert code == 0
        levels = json.loads((out / "analyze_summary.json").read_text())["levels"]
        assert levels["2"]["shift_3_skipped"] == "needs S_2 > 3"
        assert "shift_3_zero_count" not in levels["2"]
        assert levels["3"]["shift_3_zero_count"] == 0
        assert not (out / "dn_j2_k3.csv").exists()
        assert (out / "dn_j3_k3.csv").exists()

    def test_repeated_levels_and_shifts_run_once(self, tmp_path, generated, monkeypatch):
        config, digits = generated
        argv = ["analyze", "--config", str(config), "--digits", str(digits), "--out"]
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert main(argv + [str(once), "--levels", "2", "--shifts", "1"]) == 0
        calls = []
        real = cli.level_points

        def level_points(stream, spec, j, k=0):
            calls.append((j, k))
            return real(stream, spec, j, k)

        monkeypatch.setattr(cli, "level_points", level_points)
        assert main(argv + [str(twice), "--levels", "2,2", "--shifts", "1,1"]) == 0
        assert sorted(calls) == [(2, 0), (2, 1)]
        assert sorted(p.name for p in twice.iterdir()) == sorted(p.name for p in once.iterdir())
        for path in once.iterdir():
            assert (twice / path.name).read_bytes() == path.read_bytes()

    def test_rn_rows_match_normality_report(self, tmp_path, generated):
        from fractions import Fraction

        from cnl.equidist import normality_report
        from cnl.expansion import load_jsonl, transcode
        from cnl.sequences import ChainSpec

        config, digits = generated
        out = tmp_path / "analysis"
        assert main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(out), "--levels", "2"]
        ) == 0
        spec = ChainSpec(base=GeometricRule(8, 2), s=ConstantRule(2), depth=4)
        coarse = transcode(load_jsonl(digits, rule=spec.base), spec, 2)
        lines = (out / "rn_j2.csv").read_text().splitlines()
        assert lines[0] == "n,block,count,expected_num,expected_den,ratio"
        for line in lines[1:]:
            n, block, count, num, den, ratio = line.split(",")
            row = normality_report(coarse, 1, int(n), [(0,)]).rows[0]
            assert (block, int(count)) == ("0", row.count)
            assert Fraction(int(num), int(den)) == row.expected
            assert Fraction(ratio) == row.ratio

    def test_malformed_digit_file_exits_one(self, tmp_path, generated, capsys):
        config, _ = generated
        bad = tmp_path / "bad.jsonl"
        header = {"format": 2, "ints": "hex", "rule": rule_to_json(GeometricRule(8, 2))}
        bad.write_text(json.dumps(header) + '\n{"n": 1, "E": "99"}\n')  # 153 >= q_1 = 16
        code = main(
            ["analyze", "--config", str(config), "--digits", str(bad),
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_zero_digits_flagged_for_expanded_rational(self, tmp_path):
        from fractions import Fraction

        from cnl.expansion import expand, save_jsonl
        from cnl.sequences import GeometricRule

        config = write_config(tmp_path)
        stream = expand(Fraction(1, 16), GeometricRule(8, 2), 60)
        digits = tmp_path / "rational.jsonl"
        save_jsonl(stream.rule, stream.digit_list, digits)
        out = tmp_path / "analysis"
        code = main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(out), "--levels", "1,2"]
        )
        assert code == 0
        summary = json.loads((out / "analyze_summary.json").read_text())
        assert summary["schedule_conformant"] is False
        assert summary["levels"]["1"]["zero_digit_found"] is True


class TestReadmeExample:
    def test_generate_then_analyze_verbatim(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path)
        assert main(
            ["theta", "generate", "--config", "config.json", "--out", "gen", "--n", "1000"]
        ) == 0
        code = main(
            ["analyze", "--config", "config.json", "--digits", "gen/digits.jsonl",
             "--out", "rep", "--levels", "1,2,3,4", "--shifts", "0,1"]
        )
        assert code == 0
        summary = json.loads((tmp_path / "rep" / "analyze_summary.json").read_text())
        levels = summary["levels"]
        assert levels["1"]["shift_1_skipped"] == "needs S_1 > 1"
        for j in ("2", "3", "4"):
            assert levels[j]["shift_1_zero_count"] == 0
            assert (tmp_path / "rep" / f"dn_j{j}_k1.csv").exists()
        assert summary["envelope_violations"] == 0


class TestBigIntegerReports:
    def test_all_levels_on_5000_seeded_digits(self, tmp_path, spec_a):
        """Level-3 and level-4 values pass 4300 decimal digits at 5000 digits."""
        from decimal import Decimal
        from fractions import Fraction

        from cnl.equidist import dn_diagnostic
        from cnl.expansion import load_jsonl, transcode

        def exact(num_text, den_text):
            return Fraction(int(Decimal(num_text)), int(Decimal(den_text)))

        config = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert main(
            ["theta", "generate", "--config", str(config), "--out", str(gen),
             "--n", "5000", "--policy", "seeded", "--seed", "7"]
        ) == 0
        out = tmp_path / "analysis"
        code = main(
            ["analyze", "--config", str(config), "--digits", str(gen / "digits.jsonl"),
             "--out", str(out), "--levels", "1,2,3,4"]
        )
        assert code == 0
        cells = (out / "dn_j4.csv").read_text().splitlines()[-1].split(",")
        n = int(cells[0])
        assert n == 5000 // 8
        assert len(cells[7]) > 4300  # proxy_den
        stream = transcode(load_jsonl(gen / "digits.jsonl", rule=spec_a.base), spec_a, 4)
        want = dn_diagnostic(stream.prefix(n), spec_a.rule(4).values(n), [n]).rows[0]
        assert exact(cells[1], cells[2]) == want.dstar
        assert exact(cells[6], cells[7]) == want.proxy
        rn_cells = (out / "rn_j4.csv").read_text().splitlines()[-1].split(",")
        assert len(rn_cells[4]) > 4300
        assert exact(rn_cells[3], rn_cells[4]) == want.proxy * n


class TestDim:
    def test_reports_byte_identical_across_runs(self, tmp_path):
        config = write_config(tmp_path)
        blobs = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert main(["dim", "--config", str(config), "--out", str(out), "--n", "60"]) == 0
            blobs.append(
                (out / "dim_trace.csv").read_bytes()
                + (out / "growth_trace.csv").read_bytes()
                + (out / "dim_summary.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_trace_outputs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "dim"
        code = main(
            ["dim", "--config", str(config), "--out", str(out), "--n", "200"]
        )
        assert code == 0
        lines = (out / "dim_trace.csv").read_text().splitlines()
        assert lines[0] == "k,i_k,omega_k,eps_log2,d_exact,d_bound"
        assert len(lines) == 200  # header plus k = 2..200
        summary = json.loads((out / "dim_summary.json").read_text())
        assert summary["growth_flag"] == "decreasing at horizon"
        assert (out / "growth_trace.csv").exists()

    def test_growth_rows_are_the_reduced_ratios(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "dim"
        assert main(["dim", "--config", str(config), "--out", str(out), "--n", "60"]) == 0
        header, *lines = (out / "growth_trace.csv").read_text().splitlines()
        assert header == "k,ratio_num,ratio_den,ratio_decimal"
        ratios, flag = growth_ratios(GeometricRule(8, 2), 60)
        assert lines == [
            f"{k},{r.numerator},{r.denominator},{format_decimal(r)}"
            for k, r in enumerate(ratios, start=2)
        ]
        assert json.loads((out / "dim_summary.json").read_text())["growth_flag"] == flag

    def test_growth_violator_flagged(self, tmp_path):
        config = {
            "Q": {
                "kind": "explicit-list",
                "params": {"values": [str(2 ** (2**n)) for n in range(1, 13)]},
                "monotone_tail_from": 1,
            },
            "S": rule_to_json(ConstantRule(2)),
            "depth": 2,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "dim"
        code = main(["dim", "--config", str(path), "--out", str(out), "--n", "4"])
        assert code == 0
        summary = json.loads((out / "dim_summary.json").read_text())
        assert summary["growth_flag"] == "not decreasing"


    def test_past_4300_decimal_digits(self, tmp_path, schedule_a):
        config = write_config(tmp_path)
        out = tmp_path / "dim"
        assert main(["dim", "--config", str(config), "--out", str(out), "--n", "14300"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "dim_summary.json", "dim_trace.csv", "growth_trace.csv"
        ]
        rows = (out / "dim_trace.csv").read_text().splitlines()[1:]
        for k in (14286, 14287, 14293, 14300):
            cells = rows[k - 2].split(",")
            assert cells[0] == str(k)
            assert len(cells[2]) > 4300
            assert int(Decimal(cells[2])) == digit_candidates(schedule_a, k).count
        summary = json.loads((out / "dim_summary.json").read_text())
        assert (summary["log_rounding"], summary["precision_bits"]) == ("directed", 64)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_omega_past_a_lowered_digit_limit(self, tmp_path, schedule_a):
        # omega_k passes 640 digits from k = 2128 on, where str(int) raises;
        # omega_k doubles at every k > 145, so those rows are Decimal products.
        config = write_config(tmp_path)
        out = tmp_path / "dim"
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["dim", "--config", str(config), "--out", str(out), "--n", "2200"]) == 0
        finally:
            sys.set_int_max_str_digits(old)
        rows = (out / "dim_trace.csv").read_text().splitlines()[1:]
        assert len(rows[-1].split(",")[2]) > 640
        for k, row in enumerate(rows, start=2):
            cells = row.split(",")
            assert cells[0] == str(k)
            assert Decimal(cells[2]) == digit_candidates(schedule_a, k).count

    @pytest.mark.parametrize("n", [2, 11, 12, 200])
    def test_summary_from_the_streamed_rows(self, tmp_path, schedule_a, n):
        config = write_config(tmp_path)
        out = tmp_path / "dim"
        assert main(["dim", "--config", str(config), "--out", str(out), "--n", str(n)]) == 0
        rows = trace_rows(schedule_a, n)
        lines = (out / "dim_trace.csv").read_text().splitlines()[1:]
        assert lines == [row.csv_line().rstrip("\n") for row in rows]
        window = max(1, len(rows) // 10)
        summary = json.loads((out / "dim_summary.json").read_text())
        assert summary["trailing_window"] == window
        assert summary["trailing_min_d_exact"] == format_decimal(
            min(row_ratios(r).d_exact for r in rows[-window:])
        )
        assert summary["trailing_min_d_bound"] == format_decimal(
            min(row_ratios(r).d_bound for r in rows[-window:])
        )
        assert summary["final_d_exact"] == format_decimal(row_ratios(rows[-1]).d_exact)
        assert summary["final_d_bound"] == format_decimal(row_ratios(rows[-1]).d_bound)

    def test_precision_bits_from_the_environment(self, tmp_path, schedule_a, monkeypatch):
        # dim reads CNL_PRECISION_BITS and passes it down; a library trace
        # without bits stays at 64 under the same environment.
        monkeypatch.setenv("CNL_PRECISION_BITS", "32")
        config = write_config(tmp_path)
        out = tmp_path / "dim"
        assert main(["dim", "--config", str(config), "--out", str(out), "--n", "60"]) == 0
        assert json.loads((out / "dim_summary.json").read_text())["precision_bits"] == 32
        lines = (out / "dim_trace.csv").read_text().splitlines()[1:]
        assert lines == [row.csv_line().rstrip("\n") for row in trace_rows(schedule_a, 60, 32)]
        assert lines != [row.csv_line().rstrip("\n") for row in trace_rows(schedule_a, 60)]

    def test_geometry_error_mid_trace_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # A candidate count at k = 50 wider than the cylinder leaves nothing
        # to contract; rows 2..49 were already written when the trace stops.
        def inflated(schedule, n, info=None, q=None):
            if n == 50:
                return CandidateSet(1, q**60)
            return digit_candidates(schedule, n, info, q)

        monkeypatch.setattr(dimension, "digit_candidates", inflated)
        config = write_config(tmp_path)
        out = tmp_path / "dim"
        assert main(["dim", "--config", str(config), "--out", str(out), "--n", "100"]) == 1
        err = capsys.readouterr().err
        assert "dimension trace rejected: no contraction to measure at k = 50" in err
        assert list(out.iterdir()) == []

    def test_failed_csv_write_leaves_no_file(self, tmp_path, monkeypatch):
        line = DimensionTraceRow.csv_line

        def failing(row, omega_text):
            if row.k == 50:
                raise RuntimeError("disk full")
            return line(row, omega_text)

        monkeypatch.setattr(DimensionTraceRow, "csv_line", failing)
        config = write_config(tmp_path)
        out = tmp_path / "dim"
        assert main(["dim", "--config", str(config), "--out", str(out), "--n", "100"]) == 3
        assert list(out.iterdir()) == []


class TestRepro:
    def test_short_horizon_passes(self, tmp_path):
        out = tmp_path / "repro"
        code = main(["repro-sec1", "--out", str(out), "--n", "250"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "[PASS]" in report and "[FAIL]" not in report
        summary = json.loads((out / "repro_summary.json").read_text())
        assert summary["all_pass"] is True


def stop(*args, **kwargs):
    raise RuntimeError("stopped")


class TestStoppedRunLeavesNoSummary:
    """Each command removes its own summary before it writes anything and
    writes it last, so a run that stops part way leaves none behind."""

    def test_analyze_stopped_at_level_three(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert main(
            ["theta", "generate", "--config", str(config), "--out", str(gen), "--n", "400"]
        ) == 0
        out = tmp_path / "rep"
        argv = ["analyze", "--config", str(config), "--digits", str(gen / "digits.jsonl"),
                "--out", str(out), "--levels", "1,2,3,4"]
        assert main(argv) == 0
        assert (out / "analyze_summary.json").is_file() and (out / "dn_j3.csv").is_file()
        real = cli.level_points

        def level_points(stream, spec, j, k=0):
            return stop() if j == 3 else real(stream, spec, j, k)

        monkeypatch.setattr(cli, "level_points", level_points)
        assert main(argv) == 3
        assert "internal error: RuntimeError: stopped" in capsys.readouterr().err
        assert not (out / "analyze_summary.json").exists()
        assert (out / "dn_j2.csv").is_file()

    @pytest.mark.parametrize(
        "argv, summary, step",
        [
            (["theta", "generate", "--n", "20"], "summary.json", "save_jsonl"),
            (["dim", "--n", "20"], "dim_summary.json", "theta_dimension_trace"),
            (["repro-sec1", "--n", "200"], "repro_summary.json", "build_report"),
        ],
    )
    def test_other_commands(self, tmp_path, monkeypatch, argv, summary, step):
        argv = argv + ["--out", str(tmp_path / "out")]
        if argv[0] != "repro-sec1":
            argv += ["--config", str(write_config(tmp_path))]
        assert main(argv) == 0
        assert (tmp_path / "out" / summary).is_file()
        monkeypatch.setattr(cli, step, stop)
        assert main(argv) == 3
        assert not (tmp_path / "out" / summary).exists()


class TestRerunLeavesOnlyItsReports:
    """``analyze`` removes the reports an earlier run wrote into its --out,
    and nothing else there."""

    @staticmethod
    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    def test_unreadable_digit_file_keeps_the_earlier_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert main(
            ["theta", "generate", "--config", str(config), "--out", str(gen), "--n", "400"]
        ) == 0
        out = tmp_path / "rep"
        base = ["analyze", "--config", str(config), "--out", str(out), "--levels", "1,2"]
        assert main(base + ["--digits", str(gen / "digits.jsonl")]) == 0
        before = self.files(out)
        assert "analyze_summary.json" in before and "envelope_j2.csv" in before
        header, _, *records = (gen / "digits.jsonl").read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(header + '{"n": 1, "E": "99"}\n' + "".join(records))  # 153 >= q_1
        assert main(base + ["--digits", str(bad)]) == 1
        assert "out of range" in capsys.readouterr().err
        assert self.files(out) == before
        assert main(base + ["--digits", str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read digit file" in capsys.readouterr().err
        assert self.files(out) == before

    def test_fewer_levels_equal_a_fresh_run(self, tmp_path):
        config = write_config(tmp_path, policy="seeded")
        gen = tmp_path / "gen"
        assert main(
            ["theta", "generate", "--config", str(config), "--out", str(gen), "--n", "400"]
        ) == 0
        base = ["analyze", "--config", str(config), "--digits", str(gen / "digits.jsonl")]
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        assert main(base + ["--out", str(rerun), "--levels", "1,2,3", "--shifts", "0,1"]) == 0
        assert {"dn_j2_k1.csv", "dn_j3.csv", "rn_j3.csv", "envelope_j2.csv"} <= set(
            self.files(rerun)
        )
        assert main(base + ["--out", str(rerun), "--levels", "1"]) == 0
        assert main(base + ["--out", str(fresh), "--levels", "1"]) == 0
        assert self.files(rerun) == self.files(fresh)

    def test_other_files_survive(self, tmp_path):
        config = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert main(
            ["theta", "generate", "--config", str(config), "--out", str(gen), "--n", "200"]
        ) == 0
        out = tmp_path / "out"
        out.mkdir()
        others = ["notes.txt", "dn_j.csv", "dn_jx.csv", "rn_j2.txt", "summary.json"]
        for name in others:
            (out / name).write_text(name)
        (out / "dn_j9.csv").write_text("stale")
        argv = ["analyze", "--config", str(config), "--digits", str(gen / "digits.jsonl"),
                "--out", str(out), "--levels", "2"]
        assert main(argv) == 0
        assert all((out / name).read_text() == name for name in others)
        assert not (out / "dn_j9.csv").exists()
        assert (out / "dn_j2.csv").is_file()

    @pytest.mark.parametrize("bad", [["--levels", "5"], ["--shifts", "2"]])
    def test_bad_levels_or_shifts_leave_the_earlier_run(self, tmp_path, bad):
        config = write_config(tmp_path)
        gen = tmp_path / "gen"
        assert main(
            ["theta", "generate", "--config", str(config), "--out", str(gen), "--n", "200"]
        ) == 0
        out = tmp_path / "out"
        argv = ["analyze", "--config", str(config), "--digits", str(gen / "digits.jsonl"),
                "--out", str(out), "--levels", "1,2"]
        assert main(argv) == 0
        before = self.files(out)
        assert main(argv[:-2] + bad) == 2
        assert self.files(out) == before


class TestExitCodes:
    def test_unexpected_exception_is_internal_error(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "cmd_repro", broken)
        assert main(["repro-sec1", "--out", str(tmp_path / "r")]) == 3
        assert "internal error: ValueError: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["abc", "4"])
    def test_bad_precision_bits_exits_two(self, tmp_path, monkeypatch, raw):
        monkeypatch.setenv("CNL_PRECISION_BITS", raw)
        config = write_config(tmp_path)
        assert main(["dim", "--config", str(config), "--out", str(tmp_path / "d"), "--n", "10"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [
            {"policy": {"kind": "seeded", "seed": "x"}},
            {"policy": "seeded", "seed": [1]},
            {"policy": "seeded", "seed": -1},
            {"policy": "bogus"},
            {"policy": {"kind": "seeded", "seed": 3}},
            # A seed no policy reads is still an integer field of the config.
            {"seed": "notanint"},
            {"policy": "mid", "seed": 1.5},
        ],
    )
    def test_bad_policy_exits_two(self, tmp_path, extra):
        config = write_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), **extra}))
        code = main(["theta", "generate", "--config", str(config), "--out", str(tmp_path / "o"), "--n", "5"])
        assert code == 2

    @pytest.mark.parametrize("policy", [[], ["--policy", "min"], ["--policy", "mid"]])
    def test_seed_flag_without_the_seeded_policy_exits_two(self, tmp_path, policy, capsys):
        config = write_config(tmp_path)  # "policy": "min"
        out = tmp_path / "o"
        argv = ["theta", "generate", "--config", str(config), "--out", str(out), "--n", "5"]
        assert main(argv + policy + ["--seed", "5"]) == 2
        assert "--seed needs the seeded policy" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_with_a_seeded_config_policy(self, tmp_path):
        config = write_config(tmp_path, policy="seeded")
        out = tmp_path / "o"
        assert main(["theta", "generate", "--config", str(config), "--out", str(out),
                     "--n", "5", "--seed", "5"]) == 0
        assert json.loads((out / "summary.json").read_text())["policy"] == "seeded:5"

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "generate", "--n", "5"],
            ["analyze", "--digits", "none.jsonl"],
            ["dim", "--n", "10"],
            ["repro-sec1", "--n", "10"],
        ],
    )
    def test_unusable_out_exits_two(self, tmp_path, argv, capsys):
        config = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("a regular file\n")
        if argv[0] != "repro-sec1":
            argv = argv + ["--config", str(config)]
        assert main(argv + ["--out", str(taken)]) == 2
        assert "cannot use --out" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["theta", "generate"], ["dim"], ["repro-sec1"]])
    def test_bad_n_creates_no_output(self, tmp_path, command):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        if command[0] != "repro-sec1":
            command = command + ["--config", str(config)]
        for n in ("0", "-5"):
            assert main(command + ["--out", str(out), "--n", n]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("command", [["theta", "generate"], ["dim"]])
    def test_n_past_coverage_creates_no_output(self, tmp_path, command, capsys):
        config = write_config(tmp_path)  # coverage 36288
        out = tmp_path / "out"
        assert main(command + ["--config", str(config), "--out", str(out), "--n", "36289"]) == 2
        assert "exceeds schedule coverage 36288" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_rejects_generate_flags(self, tmp_path):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", str(config), "--digits", "d.jsonl",
                  "--out", str(tmp_path / "x"), "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["theta", "generate", "--n", "5"], ["analyze", "--digits", "d.jsonl"], ["dim", "--n", "10"]]
    )
    def test_depth_comes_from_the_config_only(self, tmp_path, argv):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(config), "--out", str(tmp_path / "x"), "--depth", "4"])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("depth", 4.7),
            ("depth", True),
            ("depth", "four"),
            ("Q", {"kind": "geometric", "params": {"coefficient": 8.9, "ratio": "2"}}),
            ("Q", {"kind": "explicit-list", "params": {"values": "23456789"}}),
            ("Q", {"kind": "block-repetition", "params": {"pairs": ["23", "45"]}}),
            ("S", {"kind": "constant", "params": {"value": 2.0}}),
            ("Q", "geometric"),
        ],
    )
    def test_non_integer_config_field_exits_two(self, tmp_path, capsys, field, value):
        config = write_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), field: value}))
        out = tmp_path / "out"
        # One digit: a depth of True read as 1 would still cover it.
        assert main(["theta", "generate", "--config", str(config), "--out", str(out), "--n", "1"]) == 2
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_fields_as_json_ints(self, tmp_path):
        config = write_config(tmp_path)
        payload = json.loads(config.read_text())
        payload["Q"]["params"] = {"coefficient": 8, "ratio": 2}
        config.write_text(json.dumps({**payload, "depth": "4"}))
        out = tmp_path / "out"
        assert main(["theta", "generate", "--config", str(config), "--out", str(out), "--n", "5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["depth"] == 4

    @pytest.mark.parametrize(
        "params",
        [{"coefficient": 8.9, "ratio": "2"}, {"coefficient": "8", "ratio": False}],
    )
    def test_non_integer_digit_file_rule_exits_one(self, tmp_path, capsys, params):
        config = write_config(tmp_path)
        digits = tmp_path / "digits.jsonl"
        header = {"format": 2, "ints": "hex", "rule": {"kind": "geometric", "params": params}}
        digits.write_text(json.dumps(header) + '\n{"n": 1, "E": "1"}\n')
        code = main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "malformed digit file" in capsys.readouterr().err

    @pytest.mark.parametrize("q_tail, s_tail", [(2.5, 1), (1, True), (2.5, True)])
    def test_non_integer_monotone_tail_exits_two(self, tmp_path, capsys, q_tail, s_tail):
        # Every rule kind reads monotone_tail_from, although only an
        # explicit list keeps it.
        config = write_config(tmp_path)
        payload = json.loads(config.read_text())
        payload["Q"]["monotone_tail_from"] = q_tail
        payload["S"]["monotone_tail_from"] = s_tail
        config.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["theta", "generate", "--config", str(config), "--out", str(out), "--n", "5"]) == 2
        assert "monotone_tail_from must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_monotone_tail_in_digit_file_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        digits = tmp_path / "digits.jsonl"
        rule = {**rule_to_json(GeometricRule(8, 2)), "monotone_tail_from": 2.5}
        header = {"format": 2, "ints": "hex", "rule": rule}
        digits.write_text(json.dumps(header) + '\n{"n": 1, "E": "1"}\n')
        code = main(
            ["analyze", "--config", str(config), "--digits", str(digits),
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "malformed digit file" in capsys.readouterr().err

    def test_threshold_never_crossed_exits_one(self, tmp_path, monkeypatch, capsys):
        # The base q_n = 2 never reaches S_2^4 = 16; a small budget keeps
        # the scan short.
        monkeypatch.setattr(theta, "SCAN_BUDGET", 100)
        config = tmp_path / "config.json"
        constant = rule_to_json(ConstantRule(2))
        config.write_text(json.dumps({"Q": constant, "S": constant, "depth": 2}))
        code = main(["theta", "generate", "--config", str(config), "--out", str(tmp_path / "o"), "--n", "5"])
        assert code == 1
        assert "not crossed within 100 positions" in capsys.readouterr().err

    def test_depth_seven_runs_every_command(self, tmp_path, monkeypatch):
        # L_5 = 24,490,045,440 at depth 7: no command may read a base that
        # far out (q there has some 2.4e10 bits), so such a read fails here.
        schedule_q = ThetaSchedule.q

        def small_q(self, n):
            assert n <= 10**8, f"schedule read q_{n}"
            return schedule_q(self, n)

        monkeypatch.setattr(ThetaSchedule, "q", small_q)
        config = str(write_config(tmp_path, depth=7))
        gen = tmp_path / "gen"
        assert main(["theta", "generate", "--config", config, "--n", "10", "--out", str(gen)]) == 0
        assert json.loads((gen / "summary.json").read_text())["all_pass"]
        assert json.loads((gen / "schedule.json").read_text())["L"][4] == 24_490_045_440
        assert main(["analyze", "--config", config, "--digits", str(gen / "digits.jsonl"),
                     "--levels", "1,2,3,4,5,6,7", "--out", str(tmp_path / "an")]) == 0
        assert json.loads((tmp_path / "an" / "analyze_summary.json").read_text())["schedule_conformant"]
        assert main(["dim", "--config", config, "--n", "5", "--out", str(tmp_path / "dim")]) == 0

    def test_missing_digit_file_exits_two(self, tmp_path):
        config = write_config(tmp_path)
        code = main(
            ["analyze", "--config", str(config), "--digits", str(tmp_path / "none.jsonl"),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2


# Runs one command in a fresh interpreter (pytest itself imports dataclasses),
# then prints, last, its exit code and which of the heavy modules it loaded.
COLD_START = """
import sys
from cnl.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *(m for m in ("dataclasses", "hashlib") if m in sys.modules))
"""


def cold_run(*argv) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(cnl.__file__).parents[1]))
    # -S: no site-packages hooks, so only cnl and the stdlib it imports are seen.
    done = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()[-1].split()


class TestColdStart:
    def test_import_loads_neither_dataclasses_nor_hashlib(self):
        assert cold_run() == ["0"]

    def test_commands_load_neither(self, tmp_path):
        config = write_config(tmp_path)
        assert cold_run("dim", "--config", config, "--out", tmp_path / "dim", "--n", "20") == ["0"]
        assert cold_run("repro-sec1", "--out", tmp_path / "repro", "--n", "200") == ["0"]
        assert main(["theta", "generate", "--config", str(config), "--out", str(tmp_path / "gen"),
                     "--n", "20"]) == 0
        assert cold_run(
            "analyze", "--config", config, "--digits", tmp_path / "gen" / "digits.jsonl",
            "--out", tmp_path / "analyze", "--levels", "1,2",
        ) == ["0"]

    def test_seeded_generate_loads_hashlib_and_matches_in_process(self, tmp_path):
        config = write_config(tmp_path)
        argv = ["theta", "generate", "--config", config, "--n", "50", "--policy", "seeded",
                "--seed", "5", "--out"]
        assert cold_run(*argv, tmp_path / "cold") == ["0", "hashlib"]
        assert main([*map(str, argv), str(tmp_path / "warm")]) == 0
        for name in ("digits.jsonl", "summary.json", "schedule.json"):
            assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()
