"""varseq benchmark: `varseq verify` workloads timed from fresh processes.

One run, as BENCHMARK.json's contract drives it (run from the repo root):

    python3 bench/run.py --workload verify-default --seed 1 --seconds 40 --trace 0

prints a machine-facts line and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). Every workload,
interleaved over several seeds, with a table of every metric by name:

    python3 bench/run.py --all

Each verify call runs in its own fresh process (bench/worker.py), serially,
with VARSEQ_THREADS unset and no --threads. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import aggregate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_out"  # scratch for reports and spans, removed after each run
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DEFAULT_SEED = 20260814  # the CLI default
HELD_OUT_SEED = 7
SETUP_PROBES = 5  # import-only processes per run, beside the import of each call
RUN_LIMIT_S = 170.0  # no run may outlast the contract's 180 s
ALL_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED, 1)  # rounds of --all


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    # Distinct corpora per run. Wall time depends on the corpus, so a run
    # averages several to keep seed-to-seed spread small; the first corpus
    # seed is the run's own seed.
    corpora: int
    # Reduced-size arguments for the self-test (appended; the last flag wins).
    smoke: tuple[str, ...]
    # SHA-256 of the report bytes for the pinned corpus seeds.
    golden: dict[int, str]


WORKLOADS = {
    "verify-default": Workload(
        (),
        3,
        ("--count", "2", "--width", "12"),
        {
            DEFAULT_SEED: "3b400e8d509e48cad5ffcc53f647842140cd7669b674e535a501c2e8890db102",
            HELD_OUT_SEED: "e8572d625331047ecd0dacfb0706db616dc9874e16d6400fec036effa229da35",
        },
    ),
    "envelopes-sparse": Workload(
        ("--value-law", "spike", "--checks", "strong_type,weak_type"),
        6,
        ("--count", "3", "--width", "12"),
        {
            DEFAULT_SEED: "531b4a4df91e0c0f9e0f17de491888070685fc8d30b3b60cc99a7151f934532e",
            HELD_OUT_SEED: "bfbaa0226100a903098fe42a2d707d3425f222f4224180a654aa4f4c41f70bfb",
        },
    ),
    "wide-hull": Workload(
        ("--count", "12", "--width", "4096",
         "--checks", "norm_modular,scaling,fatou,cz_structure,covering"),
        6,
        ("--count", "2", "--width", "256"),
        {
            DEFAULT_SEED: "2b65790d5abadee93a248b59337e00639d68c22dcf26a17a00c422c86d7c9782",
            HELD_OUT_SEED: "06f35be5524b16fa949ee67d3577b56e116d4bd18eec82c76842ac9ed167dc22",
        },
    ),
}


def corpus_seeds(seed: int, count: int) -> list[int]:
    """The run's own seed, then count - 1 seeds hashed from it."""
    derived = [
        int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode()).digest()[:7], "big")
        for i in range(1, count)
    ]
    return [seed] + derived


@dataclass
class Call:
    """Outcome of one worker process."""

    result: dict
    digest: str | None = None
    error: str | None = None


class Runner:
    """Starts worker processes inside one scratch directory of the checkout."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "VARSEQ_THREADS"}
        self.serial = 0

    def worker(self, verify_args: list[str], trace: bool = False) -> tuple[Call, Path, Path]:
        self.serial += 1
        stem = self.workdir / f"call{self.serial}"
        result, report, spans = (stem.with_suffix(s) for s in (".result", ".report", ".spans"))
        cmd = [sys.executable, str(WORKER), str(SRC), str(result), str(spans) if trace else "-"]
        if verify_args:
            cmd += ["verify", *verify_args, "--out", str(report)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return Call({}, error="worker timed out"), report, spans
        if proc.returncode != 0 or not result.exists():
            return Call({}, error=f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"), report, spans
        call = Call(json.loads(result.read_text()))
        if not call.result["module"].startswith(str(SRC)):
            call.error = f"imported varseq from {call.result['module']}, not {SRC}"
        return call, report, spans

    def setup_probe(self) -> float:
        call, _, _ = self.worker([])
        if call.error:
            raise RuntimeError(call.error)
        return call.result["setup_s"]

    def verify(self, wl: Workload, corpus_seed: int, smoke: bool, trace: bool = False) -> Call:
        args = ["--seed", str(corpus_seed), *wl.args, *(wl.smoke if smoke else ())]
        call, report, spans = self.worker(args, trace)
        r = call.result
        if call.error:
            return call
        if "error" in r:
            call.error = r["error"]
        elif r["rc"] != 0:
            call.error = f"verify exited {r['rc']}"
        else:
            data = report.read_bytes()
            call.digest = hashlib.sha256(data).hexdigest()
            failures = json.loads(data)["failures_total"]
            pin = None if smoke else wl.golden.get(corpus_seed)
            if failures != 0:
                call.error = f"report has failures_total = {failures}"
            elif pin is not None and call.digest != pin:
                call.error = f"report digest {call.digest} differs from pinned {pin}"
        if trace and not call.error:
            dumped = json.loads(spans.read_text())
            r["layers"] = aggregate(dumped["spans"], dumped["counts"])
        return call


def _metric_block(kind: str, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def _agree(calls: list[Call]) -> None:
    """Mark calls whose report differs from the first good one on the same corpus."""
    good = [c for c in calls if not c.error]
    for c in good[1:]:
        if c.digest != good[0].digest:
            c.error = f"report digest {c.digest} differs from an earlier run's {good[0].digest}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One contract run: the result object, plus the numpy version under `numpy`."""
    wl = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + seconds
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        runner = Runner(workdir, start + RUN_LIMIT_S)
        runner.setup_probe()  # warm-up: compiles bytecode on a fresh checkout
        setup = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        if trace:
            calls, values = _traced(runner, wl, seed, deadline, smoke)
        else:
            calls, values = _untraced(runner, wl, seed, deadline, smoke)
            setup += [c.result["setup_s"] for c in calls if not c.error]
            values["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(v != v for v in values.values()):  # NaN: no call succeeded
        first_error = next((c.error for c in calls if c.error), None)
        raise RuntimeError(f"{name}: no successful verify call; first error: {first_error}")
    failed = sum(1 for c in calls if c.error)
    for c in calls:
        if c.error:
            print(f"failed call: {c.error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": _metric_block("per_layer" if trace else "end_to_end", values),
        "numpy": calls[0].result.get("numpy", "") if calls else "",
    }


def _untraced(runner: Runner, wl: Workload, seed: int, deadline: float, smoke: bool):
    """Cycle over the run's corpora until the next call would pass the deadline
    (every corpus at least once). Each metric is the mean over corpora of the
    per-corpus median."""
    seeds = corpus_seeds(seed, 2 if smoke else wl.corpora)
    by_seed: dict[int, list[Call]] = {s: [] for s in seeds}
    took: list[float] = []
    i = 0
    while i < len(seeds) or time.monotonic() + statistics.median(took) <= deadline:
        s = seeds[i % len(seeds)]
        t = time.monotonic()
        call = runner.verify(wl, s, smoke)
        took.append(time.monotonic() - t)
        by_seed[s].append(call)
        i += 1
        if call.error == "worker timed out":
            break
    for calls in by_seed.values():
        _agree(calls)
    values = {}
    for metric in ("wall_s", "peak_rss_mb"):
        per_corpus = [
            statistics.median(c.result[metric] for c in calls if not c.error)
            for calls in by_seed.values()
            if any(not c.error for c in calls)
        ]
        values[metric] = statistics.fmean(per_corpus) if per_corpus else float("nan")
    return [c for calls in by_seed.values() for c in calls], values


def _traced(runner: Runner, wl: Workload, seed: int, deadline: float, smoke: bool):
    """Pairs of untraced and traced calls on the run's own corpus until the
    deadline (at least one pair). Counts come from the first traced call and
    must repeat exactly in the others; times are medians over traced calls."""
    plain: list[Call] = []
    traced: list[Call] = []
    took: list[float] = []
    while not took or time.monotonic() + statistics.median(took) <= deadline:
        t = time.monotonic()
        plain.append(runner.verify(wl, seed, smoke))
        traced.append(runner.verify(wl, seed, smoke, trace=True))
        took.append(time.monotonic() - t)
        if "worker timed out" in (plain[-1].error, traced[-1].error):
            break
    _agree(plain + traced)
    ok_traced = [c for c in traced if not c.error]
    ok_plain = [c for c in plain if not c.error]
    if not (ok_traced and ok_plain):
        return plain + traced, {m["name"]: float("nan") for m in SPEC["per_layer"]}
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    timed = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"]
    layers = [c.result["layers"] for c in ok_traced]
    counts = {k: layers[0].get(k, 0) for k in counted}
    for c in ok_traced[1:]:
        if {k: c.result["layers"].get(k, 0) for k in counted} != counts:
            c.error = "per-layer counts differ between traced calls"
    values = {k: statistics.median(x.get(k, 0.0) for x in layers) for k in timed}
    values.update(counts)
    traced_wall = statistics.median(c.result["wall_s"] for c in ok_traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(c.result["wall_s"] for c in ok_plain)
    return plain + traced, values


def machine_facts(numpy_version: str) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_all(seconds: float, record: str | None) -> int:
    """Every workload, interleaved round by round, then one traced run each;
    prints every metric by name with its unit."""
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for seed in ALL_SEEDS:
        for name in WORKLOADS:
            runs[name].append(run_workload(name, seed, seconds, trace=False))
            print(f"# {name} seed {seed}: {json.dumps(runs[name][-1]['metrics'])}", flush=True)
    traced = {name: run_workload(name, DEFAULT_SEED, seconds, trace=True) for name in WORKLOADS}
    facts = machine_facts(traced["verify-default"]["numpy"])
    summary: dict = {"machine": facts, "seconds": seconds, "seeds": ALL_SEEDS, "workloads": {}}
    ok = True
    print(f"machine {json.dumps(facts)}")
    for name in WORKLOADS:
        attempted = sum(r["attempted"] for r in runs[name]) + traced[name]["attempted"]
        failed = sum(r["failed"] for r in runs[name]) + traced[name]["failed"]
        ok = ok and failed == 0
        rows = {
            m["name"]: {"value": statistics.median(r["metrics"][m["name"]]["value"] for r in runs[name]),
                        "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
        rows["failed_frac"] = {"value": failed / attempted, "unit": "1"}
        rows.update(traced[name]["metrics"])
        summary["workloads"][name] = rows
        for metric, v in rows.items():
            print(f"{name:17s} {metric:40s} {v['value']:.6g} {v['unit']}")
    if record:
        Path(record).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced-size inputs, for the self-test")
    ap.add_argument("--all", action="store_true", help="every workload, interleaved, as a table")
    ap.add_argument("--record", help="with --all, also write the table as JSON here")
    args = ap.parse_args()
    if not (SRC / "varseq" / "cli.py").is_file():
        print(f"error: no varseq sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seconds, args.record)
    if args.workload is None:
        ap.error("--workload or --all is required")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(f"machine {json.dumps(machine_facts(res.pop('numpy')))}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
