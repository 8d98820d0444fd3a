"""Self-test of the benchmark: a reduced-size smoke pass of each workload.

Run from the repo root with `python3 -m pytest bench/test_bench.py`. Each
workload runs once untraced and twice traced with `--smoke` inputs; a
checkout without the varseq sources must be refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    plain = _run(workload, 0)
    traced = [_run(workload, 1) for _ in range(2)]
    for res, kind in ((plain, "end_to_end"), (traced[0], "per_layer"), (traced[1], "per_layer")):
        # correct covers the pinned/repeated report digests, and for traced
        # runs that traced and untraced reports are byte-identical.
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC[kind])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    first, second = ({k: r["metrics"][k]["value"] for k in counts} for r in traced)
    assert first == second
    assert first["maximal.point.calls"] > 0 and first["norm.luxemburg_norm.calls"] > 0
    if workload == "wide-hull":
        assert first["maximal.profile.calls"] == 0


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
