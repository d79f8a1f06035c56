"""Output checks for cnl CLI runs.

Each check returns a list of problems; an empty list means the outputs
hold.  The checks read the verdicts the commands write themselves, and
recompute a few small-N discrepancy rows exactly from the digit file.
They pin no byte digest of a digit file or trace, whose format is
expected to change; byte equality is only required between repetitions
of one benchmark run.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Callable


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def generate_problems(out: Path, n: int) -> list[str]:
    problems: list[str] = []
    summary = _read_json(out / "summary.json", problems)
    if summary is not None:
        if summary.get("all_pass") is not True:
            problems.append("summary.json: all_pass is not true")
        if summary.get("n") != n:
            problems.append(f"summary.json: n is {summary.get('n')}, expected {n}")
    return problems


def analyze_problems(out: Path, levels: list[int], level_block: Callable[[int], int]) -> list[str]:
    """Verdicts of analyze_summary.json; ``level_block(j)`` is S_j."""
    problems: list[str] = []
    summary = _read_json(out / "analyze_summary.json", problems)
    if summary is None:
        return problems
    if summary.get("schedule_conformant") is not True:
        problems.append("analyze: digit file not schedule conformant")
    if summary.get("envelope_violations") != 0:
        problems.append(f"analyze: envelope_violations = {summary.get('envelope_violations')}")
    digits = summary.get("digits", 0)
    for j in levels:
        info = summary.get("levels", {}).get(str(j))
        if info is None:
            problems.append(f"analyze: level {j} missing")
        elif digits // level_block(j) >= 1 and info.get("zero_count") != 0:
            problems.append(f"analyze: level {j} zero_count = {info.get('zero_count')}")
    return problems


def dim_problems(out: Path, n: int) -> list[str]:
    problems: list[str] = []
    summary = _read_json(out / "dim_summary.json", problems)
    if summary is not None:
        if summary.get("horizon") != n:
            problems.append(f"dim_summary.json: horizon {summary.get('horizon')}, expected {n}")
        for key in ("final_d_exact", "final_d_bound"):
            try:
                value = float(summary[key])
            except (KeyError, TypeError, ValueError):
                problems.append(f"dim_summary.json: {key} missing or not a number")
                continue
            if not 0.0 <= value <= 1.0:
                problems.append(f"dim_summary.json: {key} = {value} outside [0, 1]")
    for name in ("dim_trace.csv", "growth_trace.csv"):
        try:
            rows = (out / name).read_text(encoding="utf-8").count("\n") - 1
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if rows != n - 1:
            problems.append(f"{name}: {rows} rows, expected {n - 1}")
    return problems


def repro_problems(out: Path) -> list[str]:
    problems: list[str] = []
    summary = _read_json(out / "repro_summary.json", problems)
    if summary is not None and summary.get("all_pass") is not True:
        problems.append("repro_summary.json: all_pass is not true")
    return problems


def _parse_int(value, hex_ints: bool) -> int:
    if isinstance(value, int):
        return value
    text = str(value).strip().lower()
    if hex_ints or text.startswith("0x"):
        return int(text, 16)
    return int(text, 10)


def read_digits(path: Path, count: int) -> list[int]:
    """The first ``count`` digits E_n of a JSONL digit file.

    Reads one record per line with the digit under "E".  A leading line
    without "E" is taken as a format header; if it mentions hex, digits
    are read as hexadecimal.  Base values are not read from the file.
    """
    digits: list[int] = []
    hex_ints = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if len(digits) == count:
                break
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "E" not in record:
                hex_ints = "hex" in line.lower()
                continue
            digits.append(_parse_int(record["E"], hex_ints))
    return digits


def brute_force_star_discrepancy(points) -> Fraction:
    """Breakpoint supremum of |#{x < g}/n - g| by direct counting.

    The count is a step function, so the supremum is a one-sided limit
    at a point value: evaluate |#{x < v}/n - v| and |#{x <= v}/n - v| at
    every distinct v.
    """
    values = [Fraction(p) for p in points]
    n = len(values)
    best = Fraction(0)
    for v in sorted(set(values)):
        c_lt = sum(1 for x in values if x < v)
        c_le = sum(1 for x in values if x <= v)
        best = max(best, abs(Fraction(c_lt, n) - v), abs(Fraction(c_le, n) - v))
    return best


def dn_oracle_problems(digit_file: Path, dn_csv: Path, q: Callable[[int], int], max_n: int = 100) -> list[str]:
    """Compare the dn CSV rows with N <= max_n (at least three) against the oracle."""
    try:
        with open(dn_csv, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        wanted = [row for row in rows if int(row["N"]) <= max_n]
        top = max((int(row["N"]) for row in wanted), default=0)
        digits = read_digits(digit_file, top)
    except (OSError, KeyError, ValueError) as exc:
        return [f"dn oracle: cannot read inputs: {exc}"]
    if len(wanted) < 3:
        return [f"dn oracle: only {len(wanted)} rows with N <= {max_n}"]
    if len(digits) < top:
        return [f"dn oracle: digit file has {len(digits)} digits, need {top}"]
    points = [Fraction(e, q(pos)) for pos, e in enumerate(digits, start=1)]
    problems = []
    for row in wanted:
        n = int(row["N"])
        got = Fraction(_parse_int(row["Dstar_num"], False), _parse_int(row["Dstar_den"], False))
        want = brute_force_star_discrepancy(points[:n])
        if got != want:
            problems.append(f"{dn_csv.name}: D*({n}) = {got}, oracle gives {want}")
    return problems
