"""Smoke test of the narrated demos: each runs to completion and prints,
under the same no-warning rule as the test suite. A child process inherits
neither the parent's -X dev nor pytest's warning filters, so each demo runs
with -X dev -W error and must write nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# Each demo with its arguments: a 4-item corpus instead of the 40-item default
# keeps operator_envelopes.py short.
DEMOS = {
    "decomposition_tour.py": [],
    "maximal_profiles.py": [],
    "norm_walkthrough.py": [],
    "operator_envelopes.py": ["--count", "4"],
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(ROOT / "demos" / demo), *DEMOS[demo]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
