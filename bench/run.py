#!/usr/bin/env python3
"""Benchmark of the cnl command line, end to end and layer by layer.

Run from the repository root; it runs cnl from ./src:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

--trace 0 times real CLI runs in child processes, one at a time, and
reports the end-to-end metrics.  --trace 1 runs the same commands
in-process, once plain and once with span wrappers on the layers'
public functions, and reports the per-layer metrics and the tracing
overhead.  Every operation's outputs are checked (see checks.py); an
operation that fails its check counts in ``failed``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record of the run goes to
bench/results/.  Workloads and metrics are described in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import checks
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

WORKLOADS = ("pipeline", "dim-trace", "refpair")

# The README's doubling chain: q_n = 8 * 2**n, s = 2, depth 4 (coverage 36288).
CONFIG = {
    "Q": {"kind": "geometric", "params": {"coefficient": "8", "ratio": "2"}, "monotone_tail_from": 1},
    "S": {"kind": "constant", "params": {"value": "2"}, "monotone_tail_from": 1},
    "depth": 4,
    "policy": "min",
}


def base_q(n: int) -> int:
    return 8 * 2**n


def block_len(j: int) -> int:
    """S_j, the level-j block length of the doubling chain."""
    return 2 ** (j - 1)


# Level 2 of an n-digit file stays under the 4300-digit str() limit for n <= 7141.
PIPELINE_N = 7000
DIM_N = 10_000
REPRO_N = 50_000
# Smallest sizes each command accepts with a passing verdict; repro-sec1's
# shrinking-discrepancy check first holds between 150 and 200.
SETUP_N = {"generate": 1, "dim": 2, "repro": 200}
MIN_REPS = 2
SETUP_PER_REP = 4
# Children are killed once the run has lasted this long, so it ends within 180 s.
HARD_LIMIT_S = 170.0


@dataclass
class Step:
    """One CLI command and what its outputs must satisfy."""

    label: str
    argv: list[str]
    out: Path
    n: int = 0
    levels: tuple[int, ...] = ()
    digits: Optional[Path] = None  # digit file written (generate) or read (analyze)


def generate_step(cfg: Path, out: Path, n: int, seed: Optional[int] = None) -> Step:
    argv = ["theta", "generate", "--config", str(cfg), "--out", str(out), "--n", str(n)]
    if seed is not None:
        argv += ["--policy", "seeded", "--seed", str(seed)]
    return Step("generate", argv, out, n=n, digits=out / "digits.jsonl")


def analyze_step(cfg: Path, digits: Path, out: Path, levels: tuple[int, ...], shifts: str = "0") -> Step:
    argv = [
        "analyze", "--config", str(cfg), "--digits", str(digits), "--out", str(out),
        "--levels", ",".join(map(str, levels)),
    ]
    if shifts != "0":
        argv += ["--shifts", shifts]
    return Step("analyze", argv, out, levels=levels, digits=digits)


def dim_step(cfg: Path, out: Path, n: int) -> Step:
    return Step("dim", ["dim", "--config", str(cfg), "--out", str(out), "--n", str(n)], out, n=n)


def repro_step(out: Path, n: int) -> Step:
    return Step("repro", ["repro-sec1", "--out", str(out), "--n", str(n)], out, n=n)


def timed_steps(workload: str, seed: int, cfg: Path, base: Path) -> list[Step]:
    if workload == "pipeline":
        gen = generate_step(cfg, base / "gen", PIPELINE_N, seed)
        return [gen, analyze_step(cfg, gen.digits, base / "rep", (1, 2))]
    if workload == "dim-trace":
        return [dim_step(cfg, base / "dim", DIM_N)]
    return [repro_step(base / "repro", REPRO_N)]


def setup_steps(workload: str, seed: int, cfg: Path, base: Path) -> list[Step]:
    if workload == "pipeline":
        gen = generate_step(cfg, base / "gen", SETUP_N["generate"], seed)
        return [gen, analyze_step(cfg, gen.digits, base / "rep", (1, 2))]
    if workload == "dim-trace":
        return [dim_step(cfg, base / "dim", SETUP_N["dim"])]
    return [repro_step(base / "repro", SETUP_N["repro"])]


def probe_steps(cfg: Path, base: Path, pipeline_digits: Path) -> list[tuple[str, list[Step]]]:
    """The ROADMAP item-1 sizes, all inside schedule coverage; untimed."""
    readme = generate_step(cfg, base / "probe_c" / "gen", 1000)
    return [
        ("probe a: generate --n 14300", [generate_step(cfg, base / "probe_a", 14300)]),
        ("probe b: analyze --levels 3,4",
         [analyze_step(cfg, pipeline_digits, base / "probe_b", (3, 4))]),
        ("probe c: README example",
         [readme, analyze_step(cfg, readme.digits, base / "probe_c" / "rep", (1, 2, 3, 4), "0,1")]),
    ]


def step_problems(step: Step, oracle: bool) -> list[str]:
    """Problems with a finished step's outputs (its exit code is checked by the caller)."""
    if step.label == "generate":
        return checks.generate_problems(step.out, step.n)
    if step.label == "dim":
        return checks.dim_problems(step.out, step.n)
    if step.label == "repro":
        return checks.repro_problems(step.out)
    problems = checks.analyze_problems(step.out, list(step.levels), block_len)
    if oracle and not problems and 1 in step.levels:
        problems += checks.dn_oracle_problems(step.digits, step.out / "dn_j1.csv", base_q)
    return problems


@dataclass
class Tally:
    """Operations attempted and failed; a failure outside the probes makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str], probe: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and probe
            self.failures.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


class Runner:
    """Runs ``python -m cnl.cli`` children one at a time against ./src."""

    def __init__(self, deadline: float, work: Path):
        self.deadline = deadline
        self.stderr_path = work / "stderr.txt"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> Child:
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.stderr_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "cnl.cli", *argv],
                stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read().decode("utf-8", "replace").strip()[-300:]
        # ru_maxrss is in KiB on Linux.
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024, tail)

    def step(self, step: Step, oracle: bool = False) -> tuple[Child, list[str]]:
        child = self.run(step.argv)
        if child.code != 0:
            return child, [f"{step.label} exit {child.code}: {child.stderr}"]
        return child, step_problems(step, oracle)


def run_probes(runner: Runner, tally: Tally, cfg: Path, pipeline_digits: Path) -> None:
    for what, steps in probe_steps(cfg, WORK / "probes", pipeline_digits):
        problems: list[str] = []
        for step in steps:
            _, problems = runner.step(step, oracle=True)
            if problems:
                break
        tally.record(what, problems, probe=True)
    shutil.rmtree(WORK / "probes", ignore_errors=True)


def measure_end_to_end(workload: str, seed: int, seconds: int, runner: Runner, tally: Tally, cfg: Path):
    setup_walls: list[float] = []
    rep_walls: list[dict[str, float]] = []
    file_bytes: dict[str, int] = {}
    peak_rss = 0.0
    first_digests: dict[str, dict[str, str]] = {}
    t0 = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or (time.perf_counter() - t0) * (rep + 1) / rep <= seconds:
        if time.perf_counter() > runner.deadline:
            break
        if rep < MIN_REPS:
            # Set-up samples are spread over the timed window, where the
            # host's speed varies, rather than bunched before it.
            for _ in range(SETUP_PER_REP):
                wall = 0.0
                for step in setup_steps(workload, seed, cfg, WORK / f"setup{len(setup_walls)}"):
                    child, problems = runner.step(step)
                    tally.record(f"setup {step.label}", problems)
                    wall += child.wall_s
                setup_walls.append(wall)
        base = WORK / f"rep{rep}"
        walls = {}
        for step in timed_steps(workload, seed, cfg, base):
            child, problems = runner.step(step, oracle=rep == 0)
            walls[step.label] = child.wall_s
            peak_rss = max(peak_rss, child.rss_mb)
            if not problems:
                got = checks.digests(step.out)
                if rep == 0:
                    first_digests[step.label] = got
                elif got != first_digests.get(step.label):
                    problems = [f"{step.label} outputs differ from repetition 0"]
            tally.record(f"{step.label} repetition {rep}", problems)
        rep_walls.append(walls)
        if rep == 0:
            file_bytes = {str(p.relative_to(base)): p.stat().st_size for p in base.rglob("*") if p.is_file()}
        else:
            shutil.rmtree(base)
        rep += 1

    if workload == "pipeline":
        run_probes(runner, tally, cfg, WORK / "rep0" / "gen" / "digits.jsonl")

    metrics = {
        "command_s": (statistics.median(sum(w.values()) for w in rep_walls), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "output_mb": (sum(file_bytes.values()) / 1e6, "MB"),
        "pass_share": ((tally.attempted - tally.failed) / tally.attempted, "share"),
    }
    per_command = {
        label: {"median_s": statistics.median(w[label] for w in rep_walls), "samples": [w[label] for w in rep_walls]}
        for label in rep_walls[0]
    }
    record = {
        "samples": {"setup_s": len(setup_walls), "command_s": len(rep_walls)},
        "setup_s_samples": setup_walls,
        "command_s_samples": [sum(w.values()) for w in rep_walls],
        "per_command": per_command,
        "output_file_bytes": file_bytes,
        "fail_share": tally.failed / tally.attempted,
    }
    return metrics, record


# Per-layer metrics: (metric, span name, what to report, unit).  "s" is the
# time inside the span's calls, recursion counted once; "self_s" leaves out
# the time of wrapped callees; "counter" sums the wrapper's measure;
# "per_position" is calls in the workload's first command per its --n.
LAYER_METRICS = (
    ("sequences.q_calls", "sequences.q", "calls", "count"),
    ("sequences.q_per_position", "sequences.q", "per_position", "calls/position"),
    ("sequences.q_s", "sequences.q", "s", "s"),
    ("sequences.partial_sum_qnk_calls", "sequences.partial_sum_qnk", "calls", "count"),
    ("sequences.partial_sum_qnk_s", "sequences.partial_sum_qnk", "s", "s"),
    ("sequences.growth_condition_trace_s", "sequences.growth_condition_trace", "s", "s"),
    ("theta.build_schedule_s", "theta.build_schedule", "s", "s"),
    ("theta.phi_inv_calls", "theta.phi_inv", "calls", "count"),
    ("theta.phi_inv_s", "theta.phi_inv", "s", "s"),
    ("theta.digit_candidates_calls", "theta.digit_candidates", "calls", "count"),
    ("theta.candidates_per_position", "theta.digit_candidates", "per_position", "calls/position"),
    ("theta.digit_candidates_s", "theta.digit_candidates", "s", "s"),
    ("theta.prefix_bound_check_s", "theta.prefix_bound_check", "s", "s"),
    ("expansion.save_jsonl_s", "expansion.save_jsonl", "s", "s"),
    ("expansion.bytes_written", "expansion.save_jsonl", "counter", "bytes"),
    ("expansion.load_jsonl_s", "expansion.load_jsonl", "s", "s"),
    ("expansion.bytes_read", "expansion.load_jsonl", "counter", "bytes"),
    ("expansion.digit_census_s", "expansion.digit_census", "s", "s"),
    ("expansion.t_enclosure_calls", "expansion.t_enclosure", "calls", "count"),
    ("expansion.t_enclosure_s", "expansion.t_enclosure", "s", "s"),
    ("equidist.star_discrepancy_calls", "equidist.star_discrepancy", "calls", "count"),
    ("equidist.star_discrepancy_points", "equidist.star_discrepancy", "counter", "count"),
    ("equidist.star_discrepancy_s", "equidist.star_discrepancy", "s", "s"),
    ("equidist.dn_diagnostic_s", "equidist.dn_diagnostic", "s", "s"),
    ("equidist.normality_report_s", "equidist.normality_report", "s", "s"),
    ("dimension.theta_dimension_trace_s", "dimension.theta_dimension_trace", "self_s", "s"),
    ("numeric.hp_ln_calls", "numeric.hp_ln", "calls", "count"),
    ("numeric.hp_ln_input_bits", "numeric.hp_ln", "counter", "bits"),
    ("numeric.hp_ln_s", "numeric.hp_ln", "s", "s"),
    ("numeric.format_decimal_s", "numeric.format_decimal", "s", "s"),
    ("refpair.build_report_s", "refpair.build_report", "self_s", "s"),
    ("cli.generate_self_s", "cli.cmd_theta_generate", "self_s", "s"),
    ("cli.analyze_self_s", "cli.cmd_analyze", "self_s", "s"),
    ("cli.dim_self_s", "cli.cmd_dim", "self_s", "s"),
)
OVERHEAD_COMMANDS = ("generate", "analyze", "dim", "repro")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _input_bits(args, kwargs, result) -> int:
    x = Fraction(_arg(args, kwargs, 0, "x"))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# Functions wrapped for the traced run, by defining module, with the measure
# each one adds to its counter.
FUNCTIONS = (
    ("sequences", "partial_sum_qnk", None),
    ("sequences", "growth_condition_trace", None),
    ("theta", "build_schedule", None),
    ("theta", "digit_candidates", None),
    ("theta", "prefix_bound_check", None),
    ("expansion", "save_jsonl", lambda a, k, r: os.path.getsize(_arg(a, k, 2, "path"))),
    ("expansion", "load_jsonl", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    ("expansion", "digit_census", None),
    ("expansion", "t_enclosure", None),
    ("equidist", "star_discrepancy", lambda a, k, r: len(_arg(a, k, 0, "points"))),
    ("equidist", "dn_diagnostic", None),
    ("equidist", "normality_report", None),
    ("dimension", "theta_dimension_trace", None),
    ("numeric", "hp_ln", _input_bits),
    ("numeric", "format_decimal", None),
    ("refpair", "build_report", None),
    ("cli", "cmd_theta_generate", None),
    ("cli", "cmd_analyze", None),
    ("cli", "cmd_dim", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of cnl once."""
    homes = {module: importlib.import_module(f"cnl.{module}") for module, _, _ in FUNCTIONS}
    modules = [m for name, m in sys.modules.items() if name == "cnl" or name.startswith("cnl.")]
    for module, attr, measure in FUNCTIONS:
        tracer.patch_function(homes[module], attr, modules, measure)
    sequences = importlib.import_module("cnl.sequences")
    pending = list(sequences.BasicSequenceRule.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "q" in cls.__dict__:
            tracer.patch_method(cls, "q", "sequences.q")
    theta = importlib.import_module("cnl.theta")
    tracer.patch_method(theta.ThetaSchedule, "phi_inv", "theta.phi_inv")


def layer_metrics(tracer: Tracer, ranges: list[tuple[str, int, int]], first_n: int,
                  overhead: dict[str, float]) -> dict[str, tuple[float, str]]:
    totals = tracer.summarize()
    _, lo, hi = ranges[0]
    first = tracer.summarize(lo, hi)
    metrics = {}
    for metric, span, kind, unit in LAYER_METRICS:
        if kind == "calls":
            value = totals[span].calls
        elif kind == "per_position":
            value = first[span].calls / first_n
        elif kind == "counter":
            value = tracer.counters[span]
        elif kind == "self_s":
            value = totals[span].self_s
        else:
            value = totals[span].total_s
        metrics[metric] = (value, unit)
    for label in OVERHEAD_COMMANDS:
        metrics[f"trace.overhead_{label}_s"] = (overhead.get(label, 0.0), "s")
    return metrics


def run_in_process(step: Step, oracle: bool) -> tuple[float, list[str]]:
    from cnl.cli import main

    sink = io.StringIO()
    gc.collect()  # start plain and traced runs from a like heap
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(step.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an internal error is a failed operation, not a crashed benchmark
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if code != 0:
        return wall, [f"{step.label} exit {code}: {sink.getvalue().strip()[-300:]}"]
    return wall, step_problems(step, oracle)


def measure_layers(workload: str, seed: int, runner: Runner, tally: Tally, cfg: Path, spans_path: Path):
    plain_walls, plain_digests = {}, {}
    for step in timed_steps(workload, seed, cfg, WORK / "plain"):
        plain_walls[step.label], problems = run_in_process(step, oracle=True)
        plain_digests[step.label] = checks.digests(step.out)
        tally.record(f"{step.label} in-process", problems)

    tracer = Tracer()
    traced_walls, ranges = {}, []
    steps = timed_steps(workload, seed, cfg, WORK / "traced")
    try:
        install(tracer)
        for step in steps:
            lo = len(tracer)
            traced_walls[step.label], problems = run_in_process(step, oracle=False)
            ranges.append((step.label, lo, len(tracer)))
            if not problems and checks.digests(step.out) != plain_digests[step.label]:
                problems = [f"{step.label} traced outputs differ from the plain run"]
            tally.record(f"{step.label} traced", problems)
    finally:
        tracer.restore()

    overhead = {label: traced_walls[label] - plain_walls[label] for label in traced_walls}
    metrics = layer_metrics(tracer, ranges, steps[0].n, overhead)
    tracer.write_csv_gz(spans_path, ranges)
    if workload == "pipeline":
        run_probes(runner, tally, cfg, WORK / "plain" / "gen" / "digits.jsonl")
    record = {
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "plain_wall_s": plain_walls,
        "traced_wall_s": traced_walls,
        "tracing_overhead_s": overhead,
        "per_command": {
            label: {name: vars(t) for name, t in tracer.summarize(lo, hi).items() if t.calls}
            for label, lo, hi in ranges
        },
        "counters": dict(tracer.counters),
    }
    return metrics, record


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int, help="seed of the seeded digit policy (0 <= seed < 2**64)")
    parser.add_argument("--seconds", required=True, type=int, help="time to spend on timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must lie in 0 .. 2**64 - 1")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cnl" / "cli.py").is_file():
        print(f"bench: no cnl sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cnl
    from cnl.numeric import log_bits

    if Path(cnl.__file__).resolve().parent != SRC / "cnl":
        print(f"bench: imported cnl from {cnl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # A terminated run still stops and reaps its child (see Runner.run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = Runner(started + HARD_LIMIT_S, WORK)
    tally = Tally()
    RESULTS.mkdir(exist_ok=True)
    cfg = WORK / "config.json"
    cfg.write_text(json.dumps(CONFIG, indent=2) + "\n", encoding="utf-8")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans_path = RESULTS / f"{args.workload}.spans.csv.gz"
            metrics, detail = measure_layers(args.workload, args.seed, runner, tally, cfg, spans_path)
        else:
            metrics, detail = measure_end_to_end(args.workload, args.seed, args.seconds, runner, tally, cfg)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cnl_version": cnl.__version__,
        "git_commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cnl_precision_bits": {"env": os.environ.get("CNL_PRECISION_BITS"), "effective": log_bits()},
        "run_wall_s": time.perf_counter() - started,
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **detail,
    }
    (RESULTS / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for failure in tally.failures:
        print(f"bench: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
