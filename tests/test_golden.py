"""Every report and stdout of the small golden runs equals its checked-in
SHA-256 (``tests/golden_digests.json``), on every supported Python."""

from .golden import digests, load, small_digests


def test_small_runs_match_the_manifest(tmp_path):
    root = tmp_path / "runs"
    root.mkdir()
    assert small_digests(root, tmp_path) == load("small")
    # The rewritten digit file holds the same digits, so its reports are the original's.
    mixed = digests(root, ["analyze_mixed"])
    assert mixed == {k.replace("analyze/", "analyze_mixed/", 1): v
                     for k, v in digests(root, ["analyze"]).items()}
