"""tools/pair.py on this checkout against itself: one timed orbit-enum batch
(after the warm-up batch), with every outcome equal on both sides."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_pair_runs_one_checkout_against_itself():
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "pair.py"),
            "--parent", str(ROOT), "--change", str(ROOT),
            "--workload", "orbit-enum", "--seed", "2", "--batches", "1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[3].startswith("CSV bytes equal: True (0 of 16 differ; 0 outcomes differ")
    summary = json.loads(lines[-1])
    assert summary["invocations"] == 16 and summary["pairs"] == 1
    assert summary["csv_differences"] == summary["outcome_differences"] == 0
    assert summary["change_wins"] in (0, 1)
    for side in ("parent", "change"):
        assert summary[side]["median_s"] > 0.0
