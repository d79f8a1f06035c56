"""Golden SHA-256 digests of command outputs, kept in golden_digests.json.

The manifest maps a section to {path under the run directory: digest}.
Section "small" holds every report and the stdout of the runs in
``SMALL_RUNS``; ``tests/test_golden.py`` reruns them in-process on each
tier-1 run.  Section "full-coverage" holds the doubling config's
``generate``, ``analyze`` and ``dim`` outputs at n = 36288, the
ratio-3 config's seeded ``generate --n 4000`` and its ``analyze`` as
gen3 and analyze3, and its ``dim --n 16128`` (full coverage) as dim3,
which the CI job of that name checks:

    python3 tests/golden.py check full-coverage OUT gen analyze dim gen3 analyze3 dim3

A change that alters report bytes on purpose rewrites a section, says so
in CHANGES.md, and commits the new manifest:

    PYTHONPATH=src python3 tests/golden.py write small
    python3 tests/golden.py write full-coverage OUT gen analyze dim gen3 analyze3 dim3
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("golden_digests.json")

DOUBLING = {
    "Q": {"kind": "geometric", "params": {"coefficient": "8", "ratio": "2"}, "monotone_tail_from": 1},
    "S": {"kind": "constant", "params": {"value": "2"}, "monotone_tail_from": 1},
    "depth": 4,
    "policy": "min",
}
RATIO3 = {**DOUBLING, "Q": {**DOUBLING["Q"], "params": {"coefficient": "9", "ratio": "3"}}}
# Block-repetition bases at depth 3: v_m = 4m + 100 repeated m times
# (coverage 7,976,032), and six listed (value, repeat) pairs (coverage 284,736).
AFFINE = {**DOUBLING, "depth": 3, "Q": {"kind": "block-repetition", "params": {
    "value_slope": "4", "value_intercept": "100", "repeat_slope": "1", "repeat_intercept": "0"}}}
PAIRS = {**DOUBLING, "depth": 3, "Q": {"kind": "block-repetition", "params": {"pairs": [
    ["4", "3"], ["16", "5"], ["64", "40"], ["256", "400"], ["1024", "4000"], ["8192", "100000"]]}}}
CONFIGS = {"config.json": DOUBLING, "config3.json": RATIO3,
           "config_affine.json": AFFINE, "config_pairs.json": PAIRS}

ALL = ("--levels", "1,2,3,4", "--shifts", "0,1")
ALL3 = ("--levels", "1,2,3", "--shifts", "0,1")
SEEDED = ("--policy", "seeded", "--seed", "1")
# (run name, argv); {config}, {config3}, {config_affine}, {config_pairs} and
# {root} name the configs and the run directory.  Each run writes into {root}/<name> and its stdout to
# {root}/<name>.stdout.  "mixed.jsonl" is made between the runs.
SMALL_RUNS = [
    ("gen", ["theta", "generate", "--config", "{config}", "--n", "3000", *SEEDED]),
    ("analyze", ["analyze", "--config", "{config}", "--digits", "{root}/gen/digits.jsonl", *ALL]),
    ("analyze_mixed", ["analyze", "--config", "{config}", "--digits", "{root}/mixed.jsonl", *ALL]),
    ("dim", ["dim", "--config", "{config}", "--n", "10000"]),
    ("dim15000", ["dim", "--config", "{config}", "--n", "15000"]),
    ("repro200", ["repro-sec1", "--n", "200"]),
    ("repro5000", ["repro-sec1", "--n", "5000"]),
    ("repro50000", ["repro-sec1", "--n", "50000"]),
    ("gen3", ["theta", "generate", "--config", "{config3}", "--n", "1000", *SEEDED]),
    ("analyze3", ["analyze", "--config", "{config3}", "--digits", "{root}/gen3/digits.jsonl", *ALL]),
    ("dim3", ["dim", "--config", "{config3}", "--n", "3000"]),
    ("gen_affine", ["theta", "generate", "--config", "{config_affine}", "--n", "3000", *SEEDED]),
    ("analyze_affine", ["analyze", "--config", "{config_affine}",
                        "--digits", "{root}/gen_affine/digits.jsonl", *ALL3]),
    ("dim_affine", ["dim", "--config", "{config_affine}", "--n", "3000"]),
    ("gen_pairs", ["theta", "generate", "--config", "{config_pairs}", "--n", "3000", *SEEDED]),
    ("analyze_pairs", ["analyze", "--config", "{config_pairs}",
                       "--digits", "{root}/gen_pairs/digits.jsonl", *ALL3]),
    ("dim_pairs", ["dim", "--config", "{config_pairs}", "--n", "3000"]),
]


def mixed_case(text: str) -> str:
    """The digit file ``text`` with leading zeros on lines 2, 9, 16, ...
    and upper-case hex on lines 5, 16, 27, ...: the records that
    ``load_jsonl`` reads through ``json.loads``, not its fast path."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines, start=1):
        if i % 7 == 2:
            line = line.replace('"E": "', '"E": "00', 1)
        if i % 11 == 5:
            line = re.sub("[a-f]", lambda m: m.group().upper(), line)
        lines[i - 1] = line
    return "".join(lines)


def run_small(root: Path, config_dir: Path) -> None:
    """Run ``SMALL_RUNS`` through ``cli.main`` into ``root``, with the
    configs written to ``config_dir``; every run must exit 0."""
    from cnl.cli import main

    fill = {"root": str(root)}
    for name, config in CONFIGS.items():
        path = config_dir / name
        path.write_text(json.dumps(config))
        fill[name.removesuffix(".json")] = str(path)
    for name, argv in SMALL_RUNS:
        if name == "analyze_mixed":
            digits = (root / "gen" / "digits.jsonl").read_text()
            (root / "mixed.jsonl").write_text(mixed_case(digits))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([a.format(**fill) for a in argv] + ["--out", str(root / name)])
        if code != 0:
            raise RuntimeError(f"{name} exited {code}")
        (root / f"{name}.stdout").write_text(out.getvalue())


def digests(root: Path, names) -> dict[str, str]:
    """SHA-256 of each file under ``root/<name>`` for each name, keyed by
    its path relative to ``root``; a name may be a file."""
    out = {}
    for name in names:
        path = root / name
        files = [p for p in path.rglob("*") if p.is_file()] if path.is_dir() else [path]
        for file in files:
            sha = hashlib.sha256()
            with open(file, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    sha.update(chunk)
            out[file.relative_to(root).as_posix()] = sha.hexdigest()
    return out


def small_digests(root: Path, config_dir: Path) -> dict[str, str]:
    run_small(root, config_dir)
    return digests(root, [p.name for p in root.iterdir() if p.name != "mixed.jsonl"])


def load(section: str) -> dict[str, str]:
    return json.loads(MANIFEST.read_text())[section]


def main(argv: list[str]) -> int:
    usage = "usage: golden.py check|write small | check|write full-coverage OUT NAME..."
    if len(argv) < 2 or argv[0] not in ("check", "write") or (argv[1] == "small") != (len(argv) == 2):
        print(usage, file=sys.stderr)
        return 2
    action, section = argv[:2]
    if section == "small":
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "runs").mkdir()
            found = small_digests(Path(tmp) / "runs", Path(tmp))
    else:
        found = digests(Path(argv[2]), argv[3:])
    if action == "write":
        manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
        manifest[section] = found
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        return 0
    expected = load(section)
    bad = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
    for key in bad:
        print(f"{key}: expected {expected.get(key)}, found {found.get(key)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
