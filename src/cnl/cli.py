"""Batch command-line front end.

Commands:
  cnl theta generate   write a scheduled digit file with its tables
  cnl analyze          per-level digit reports for an existing file
  cnl dim              dimension and growth traces for a schedule
  cnl repro-sec1       verify the bundled reference pair end to end

Exit codes: 0 success, 1 invariant or verification failure, 2 invalid
input, 3 internal error (any other exception, reported with its type).
Outputs are deterministic for a fixed config and seed: reports
carry no timestamps, and digit selection is a pure function of the
policy, seed, and position.  CNL_PRECISION_BITS (default 64) sets the
fractional bits of the logarithms in ``dim``, the one command that takes any.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate, islice
from math import gcd
from pathlib import Path

from .dimension import DimensionTraceRow, GeometryError, theta_dimension_trace
from .equidist import dn_diagnostic
from .expansion import (
    DigitError,
    atomic_write,
    level_points,
    load_jsonl,
    save_jsonl,
)
from .numeric import IntTexts, format_ratio, fraction_text, int_text, log_bits
from .refpair import build_report
from .sequences import (
    ChainSpec,
    OutOfDomainError,
    RuleError,
    json_int,
    rule_from_json,
)
from .theta import (
    ScheduleError,
    SelectionPolicy,
    TailCertificateError,
    build_schedule,
    digit_candidates,
    extract_y_prefix,
    generate_digits,
    prefix_bound_check,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


def _write_json(path: Path, payload) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RuleError(f"cannot read config {path}: {exc}") from exc


def _spec_from_config(config: dict) -> ChainSpec:
    try:
        base = rule_from_json(config["Q"])
        steps = rule_from_json(config["S"])
        depth = json_int(config["depth"], "depth")
    except (AttributeError, KeyError, TypeError) as exc:
        raise RuleError(f"config needs Q, S, and depth: {exc}") from exc
    return ChainSpec(base=base, s=steps, depth=depth)


def _policy_from_args(config: dict, args) -> SelectionPolicy:
    kind = args.policy or config.get("policy", "min")
    seed = json_int(config.get("seed", 0), "seed")  # read whatever the policy
    if args.seed is not None and kind != "seeded":
        raise RuleError(f"--seed needs the seeded policy, not {kind!r}")
    try:
        return SelectionPolicy(kind=kind, seed=seed if args.seed is None else args.seed)
    except ScheduleError as exc:
        raise RuleError(str(exc)) from exc


def _out_dir(args, *stale: str) -> Path:
    """The --out directory, made if missing, without any file matching the
    glob patterns ``stale``: the command's own summary and the reports it
    writes.  A command writes its summary last, so that exists only after
    a run that finished, beside only that run's reports."""
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for pattern in stale:
            for path in out_dir.glob(pattern):
                path.unlink()
    except OSError as exc:
        raise RuleError(f"cannot use --out {args.out}: {exc}") from exc
    return out_dir


def _int_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise RuleError(f"expected comma-separated integers, got {raw!r}")
    return values


def _sample_prefixes(limit: int) -> list[int]:
    """1, 2, 5 ladder up to the limit, always including the limit."""
    out = []
    scale = 1
    while scale <= limit:
        for mult in (1, 2, 5):
            value = mult * scale
            if value <= limit:
                out.append(value)
        scale *= 10
    if limit not in out:
        out.append(limit)
    return out


def _covering_schedule(spec: ChainSpec, n: int):
    """The schedule of ``spec``; --n past its coverage is bad input."""
    schedule = build_schedule(spec)
    if n > schedule.coverage:
        raise RuleError(f"--n {n} exceeds schedule coverage {schedule.coverage}")
    return schedule


def cmd_theta_generate(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    policy = _policy_from_args(config, args)
    if args.n is None or args.n < 1:
        raise RuleError("--n must be a positive digit count")
    schedule = _covering_schedule(spec, args.n)
    out_dir = _out_dir(args, "summary.json")
    digit_ok = roundtrip_ok = omega_ok = True

    def checked(digits):
        """``digits``, each checked on a second walk as it goes to the file."""
        nonlocal digit_ok, roundtrip_ok, omega_ok
        # The digits go first, so the walk never steps past position n.
        for digit, (info, q) in zip(digits, schedule.walk()):
            n = info.n
            # The walk's coordinates must be phi_inv's, and phi must invert them.
            if schedule.phi_inv(n) != info or schedule.phi(info.level, info.block, info.offset) != n:
                roundtrip_ok = False
            cand = digit_candidates(schedule, n, info, q)
            if digit == 0 or digit not in cand:
                digit_ok = False
            if info.level >= 2 and cand.count < max(1, q // (info.a * info.a)):
                omega_ok = False
            yield digit

    digits = checked(generate_digits(schedule, policy, args.n))
    save_jsonl(spec.base, digits, out_dir / "digits.jsonl")
    _write_json(out_dir / "schedule.json", schedule.dump_json())
    checks = [
        {"name": name, "ok": ok, "detail": detail}
        for name, ok, detail in [
            *schedule.verify(),
            ("positions roundtrip through the bijection", roundtrip_ok, f"n <= {args.n}"),
            ("digits nonzero and inside their windows", digit_ok, f"n <= {args.n}"),
            ("candidate counts clear the window floor", omega_ok, f"n <= {args.n}"),
        ]
    ]
    all_pass = all(c["ok"] for c in checks)
    _write_json(
        out_dir / "summary.json",
        {
            "command": "theta-generate",
            "n": args.n,
            "depth": spec.depth,
            "policy": policy.describe(),
            "coverage": schedule.coverage,
            "checks": checks,
            "all_pass": all_pass,
        },
    )
    return EXIT_OK if all_pass else EXIT_VERIFICATION


def _level_reports(stream, spec: ChainSpec, j: int, k: int, out_dir: Path) -> int | None:
    """Write level j's discrepancy report at shift k, and at k = 0 its
    zero-block ratios; return the zero-digit count, or None when the
    stream holds no complete level-j point.  The points are built once
    and dropped on return, since the discrepancy sweep rewrites them."""
    nums, dens = level_points(stream, spec, j, k)
    if not nums:
        return None
    samples = _sample_prefixes(len(nums))
    windows = zip([0, *samples], samples)
    zero_counts = list(accumulate(nums[lo:hi].count(0) for lo, hi in windows))
    dn = dn_diagnostic(nums, dens, samples)
    dn.write_csv(out_dir / (f"dn_j{j}_k{k}.csv" if k else f"dn_j{j}.csv"))
    if k:
        return zero_counts[-1]
    # Zero-block ratios; expected = proxy * n = sum_{i <= n} 1/q_i.
    with atomic_write(out_dir / f"rn_j{j}.csv") as fh:
        fh.write("n,block,count,expected_num,expected_den,ratio\n")
        for row, count in zip(dn.rows, zero_counts):
            expected = row.proxy * row.n
            fh.write(
                f"{row.n},0,{count},{int_text(expected.numerator)},"
                f"{int_text(expected.denominator)},{fraction_text(count / expected)}\n"
            )
    return zero_counts[-1]


def cmd_analyze(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    levels = _int_list(args.levels)
    shifts = _int_list(args.shifts)
    for j in levels:
        if not 1 <= j <= spec.depth:
            raise RuleError(f"level {j} outside chain depth 1..{spec.depth}")
    # A shift runs at each requested level j with S_j > k and is skipped
    # at the others; one that no requested level can take is bad input.
    widest = max((spec.big_s(j) for j in levels), default=1)
    for k in shifts:
        if not 0 <= k < widest:
            raise RuleError(f"shift {k} out of range 0..{widest - 1} at every requested level")
    _out_dir(args)  # an unusable --out is reported before the digit file is read
    try:
        stream = load_jsonl(args.digits, rule=spec.base)
    except DigitError as exc:
        print(f"malformed digit file: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        raise RuleError(f"cannot read digit file: {exc}") from exc
    # Only a readable digit file clears the earlier run.
    out_dir = _out_dir(
        args, "analyze_summary.json", "dn_j[0-9]*.csv", "rn_j[0-9]*.csv", "envelope_j[0-9]*.csv"
    )
    total = stream.limit

    conformant = False  # true only once the schedule is built and every digit fits it
    try:
        schedule = build_schedule(spec)
        conformant = all(
            stream.digit(info.n) in digit_candidates(schedule, info.n, info, q)
            for info, q in islice(schedule.walk(), min(total, schedule.coverage))
        )
    except ScheduleError:
        pass

    summary = {
        "command": "analyze",
        "digits": total,
        "levels": {},
        "schedule_conformant": conformant,
    }
    envelope_violations = 0
    for j in dict.fromkeys(levels):
        level_info = {}
        for k in dict.fromkeys([0, *shifts]):
            if k >= spec.big_s(j):
                level_info[f"shift_{k}_skipped"] = f"needs S_{j} > {k}"
                continue
            zeros = _level_reports(stream, spec, j, k, out_dir)
            if zeros is None:
                continue
            if k:
                level_info[f"shift_{k}_zero_count"] = zeros
            else:
                level_info.update(zero_count=zeros, zero_digit_found=zeros > 0)
        if conformant and j <= schedule.levels:
            nums, dens = extract_y_prefix(schedule, stream, j, min(total, schedule.coverage))
            if nums:
                env = prefix_bound_check(schedule, j, nums, dens, _sample_prefixes(len(nums)))
                env.write_csv(out_dir / f"envelope_j{j}.csv")
                fatal = sum(1 for r in env.rows if r.certificate == "fatal")
                envelope_violations += fatal
                level_info["envelope_rows"] = len(env.rows)
                level_info["envelope_fatal"] = fatal
        summary["levels"][str(j)] = level_info
    summary["envelope_violations"] = envelope_violations
    _write_json(out_dir / "analyze_summary.json", summary)
    return EXIT_OK if envelope_violations == 0 else EXIT_VERIFICATION


def _lower(pair: tuple[int, int], low: tuple[int, int] | None) -> tuple[int, int]:
    """The smaller of two ratios (num, den) with den > 0; ``low`` on a tie."""
    return pair if low is None or pair[0] * low[1] < low[0] * pair[1] else low


def cmd_dim(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    if args.n is None or args.n < 2:
        raise RuleError("--n must be at least 2")
    try:
        bits = log_bits()
    except ValueError as exc:
        raise RuleError(str(exc)) from exc
    schedule = _covering_schedule(spec, args.n)
    out_dir = _out_dir(args, "dim_summary.json")
    # Rows k = 2 .. n are written as they are made; the summary needs
    # only the last one and the minima over the trailing window, each
    # ratio an integer pair (num, den > 0) compared by cross-multiplication.
    window = max(1, (args.n - 1) // 10)
    tail: dict = {}
    omega_text = IntTexts()

    def write_row(row) -> None:
        fh.write(row.csv_line(omega_text))
        if row.k > args.n - window:
            tail["d_exact"] = _lower((row.d_exact_num, row.d_exact_den), tail.get("d_exact"))
            tail["d_bound"] = _lower((row.d_bound_num, row.d_bound_den), tail.get("d_bound"))
            tail["last"] = row

    def write_ratio(k: int, num: int, den: int) -> None:
        g = gcd(num, den)
        num, den = num // g, den // g
        gh.write(f"{k},{num},{den},{format_ratio(num, den)}\n")

    # One walk writes both CSVs; an error in it leaves neither.
    try:
        with atomic_write(out_dir / "dim_trace.csv") as fh, \
                atomic_write(out_dir / "growth_trace.csv") as gh:
            fh.write(DimensionTraceRow.csv_header)
            gh.write("k,ratio_num,ratio_den,ratio_decimal\n")
            growth_flag = theta_dimension_trace(
                schedule, args.n, bits, emit=write_row, growth=write_ratio
            )
    except GeometryError as exc:
        print(f"dimension trace rejected: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION

    last = tail["last"]
    summary = {
        "command": "dim",
        "horizon": args.n,
        "trailing_window": window,
        "trailing_min_d_exact": format_ratio(*tail["d_exact"]),
        "trailing_min_d_bound": format_ratio(*tail["d_bound"]),
        "final_d_exact": format_ratio(last.d_exact_num, last.d_exact_den),
        "final_d_bound": format_ratio(last.d_bound_num, last.d_bound_den),
        "growth_flag": growth_flag,
        "log_rounding": "directed",
        "precision_bits": bits,
    }
    _write_json(out_dir / "dim_summary.json", summary)
    return EXIT_OK


def cmd_repro(args) -> int:
    if args.n < 1:
        raise RuleError("--n must be a positive orbit horizon")
    out_dir = _out_dir(args, "repro_summary.json")
    report = build_report(orbit_horizon=args.n)
    with atomic_write(out_dir / "report.txt") as fh:
        fh.write(report.render())
    _write_json(
        out_dir / "repro_summary.json",
        {
            "command": "repro-sec1",
            "orbit_horizon": args.n,
            "checks": [{"name": name, "ok": ok} for name, ok in report.checks],
            "all_pass": report.ok,
        },
    )
    print(report.render(), end="")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnl",
        description="Exact-arithmetic toolkit for Cantor series digit systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    theta = sub.add_parser("theta", help="schedule-driven digit generation")
    theta_sub = theta.add_subparsers(dest="subcommand", required=True)
    gen = theta_sub.add_parser("generate", help="write digits.jsonl, schedule.json, summary.json")
    _config_flags(gen)
    gen.add_argument("--n", type=int, default=None, help="digit count")
    gen.add_argument("--policy", default=None, help="min, max, mid, or seeded")
    gen.add_argument("--seed", type=int, default=None, help="seed for the seeded policy")
    gen.set_defaults(handler=cmd_theta_generate)

    analyze = sub.add_parser("analyze", help="per-level reports for a digit file")
    _config_flags(analyze)
    analyze.add_argument("--digits", required=True, help="digit file (JSONL)")
    analyze.add_argument("--levels", default="1", help="comma-separated chain levels")
    analyze.add_argument("--shifts", default="0", help="comma-separated shifts")
    analyze.set_defaults(handler=cmd_analyze)

    dim = sub.add_parser("dim", help="dimension trace and growth trace")
    _config_flags(dim)
    dim.add_argument("--n", type=int, default=None, help="horizon")
    dim.set_defaults(handler=cmd_dim)

    repro = sub.add_parser("repro-sec1", help="verify the bundled reference pair")
    repro.add_argument("--out", required=True, help="output directory")
    repro.add_argument("--n", type=int, default=5000, help="orbit horizon")
    repro.set_defaults(handler=cmd_repro)
    return parser


def _config_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--config", required=True, help="chain config JSON")
    cmd.add_argument("--out", required=True, help="output directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (RuleError, TailCertificateError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (DigitError, ScheduleError, GeometryError, OutOfDomainError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
