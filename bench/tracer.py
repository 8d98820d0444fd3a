"""Outside-in tracer for the varseq layers.

`install` wraps the public entry points of the harness, maximal, norm, czd
and reports modules once each, then rebinds that one wrapper under every
name that already refers to the original in any loaded varseq module, so a
function imported into several modules is still counted once per call.
Spans stay in memory until `dump`; `aggregate` turns them into the
per-layer metrics named in BENCHMARK.json. Nothing here changes what the
wrapped functions compute; the benchmark checks that traced and untraced
reports are byte-identical.

`lattice` and `exponent` helpers are not wrapped: they are called tens of
thousands of times, and their time stays in their callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_NAME, _START, _END, _PARENT, _CHILD = range(5)  # fields of a span record


class Tracer:
    """Span stack for one single-threaded verify call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, child seconds]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[_START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[_END] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][_CHILD] += rec[_END] - rec[_START]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _rebind(orig, wrapper) -> None:
    functools.update_wrapper(wrapper, orig)
    for name, mod in list(sys.modules.items()):
        if name == "varseq" or name.startswith("varseq."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def _span_function(tracer: Tracer, owner, name: str, span: str, counts=None) -> None:
    """Wrap owner.name in a span; `counts(result)` gives count increments."""
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = tracer.call(span, orig, args, kwargs)
        if counts is not None:
            for metric, n in counts(result).items():
                tracer.counts[metric] += n
        return result

    if isinstance(owner, type):
        setattr(owner, name, functools.update_wrapper(wrapper, orig))
    else:
        _rebind(orig, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; call after importing varseq.cli."""
    from varseq import czd, harness, maximal, norm, reports

    # harness: one span per suite check, obtained by running the public
    # suite entry point one check at a time (each check reseeds from its own
    # name, so the reports are the same as from one call).
    suite = harness.run_verification_suite

    def run_suite(spec, t=0.05, checks=None, threads=1, inject_fault=False):
        names = list(harness.SUITE_CHECKS) if checks is None else list(checks)
        if not names:
            return suite(spec, t, names, threads, inject_fault)

        def each_check():
            out = []
            for i, name in enumerate(names):
                fault = inject_fault and i == len(names) - 1
                out += tracer.call(
                    f"harness.check.{name}", suite, (spec, t, [name], threads, fault), {}
                )
            return out

        return tracer.call("harness.suite", each_check, (), {})

    _rebind(suite, run_suite)
    _span_function(tracer, harness, "generate_corpus", "harness.generate_corpus")

    # maximal: methods of the one evaluator class, plus the weight table.
    ev_cls = maximal.MaximalEvaluator
    point, profile = ev_cls.point, ev_cls.profile

    def traced_point(ev, n):
        hull = ev.hull
        side = "exterior" if hull is not None and not hull.contains(n) else "in_hull"
        return tracer.call(f"maximal.point.{side}", point, (ev, n), {})

    def traced_profile(ev, window):
        hull = ev.hull
        outside = window.hi - window.lo + 1
        if hull is not None:
            outside -= max(0, min(window.hi, hull.hi) - max(window.lo, hull.lo) + 1)
        tracer.counts["maximal.profile.exterior_points"] += outside
        return tracer.call("maximal.profile", profile, (ev, window), {})

    ev_cls.point = functools.update_wrapper(traced_point, point)
    ev_cls.profile = functools.update_wrapper(traced_profile, profile)
    _span_function(tracer, ev_cls, "superlevel", "maximal.superlevel")
    weights = maximal.alpha_weights

    def counted_weights(max_len, alpha):
        tracer.counts["maximal.alpha_weights.calls"] += 1
        tracer.counts["maximal.alpha_weights.entries"] += int(max_len)
        return weights(max_len, alpha)

    _rebind(weights, counted_weights)

    # norm: iteration counts come from the returned NormValue.
    for name in ("luxemburg_norm", "characteristic_norm"):
        _span_function(
            tracer, norm, name, f"norm.{name}",
            lambda r, name=name: {f"norm.{name}.iterations": r.iterations},
        )

    # czd
    _span_function(
        tracer, czd, "cz_decompose", "czd.cz_decompose",
        lambda r: {"czd.cz_decompose.selected": len(r.intervals)},
    )
    _span_function(
        tracer, czd, "level_set_partition", "czd.level_set_partition",
        lambda r: {
            "czd.level_set_partition.levels": len(r.levels),
            "czd.level_set_partition.window_points": r.window.hi - r.window.lo + 1,
        },
    )
    for name in ("domination_check", "covering_check", "cz_nesting_check"):
        _span_function(tracer, czd, name, f"czd.{name}")

    # reports
    _span_function(
        tracer, reports, "render_json", "reports.render_json",
        lambda r: {"reports.bytes": len(r.encode())},
    )


def aggregate(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer metrics from dumped spans: `<span>.calls`, `<span>.s` (self
    time: duration minus the time covered by child spans) and the counts,
    plus the derived point, superlevel and harness figures."""
    metrics: dict[str, float] = defaultdict(int, counts)
    probes = 0
    for name, start, end, parent, child in spans:
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.s"] += end - start - child
        if name.startswith("harness."):
            metrics["harness.self.s"] += end - start - child
        if name.startswith("maximal.point.") and parent >= 0 and spans[parent][_NAME] == "maximal.superlevel":
            probes += 1
    metrics["maximal.point.exterior_calls"] = metrics["maximal.point.exterior.calls"]
    metrics["maximal.point.calls"] = (
        metrics["maximal.point.in_hull.calls"] + metrics["maximal.point.exterior.calls"]
    )
    sl_calls = metrics["maximal.superlevel.calls"]
    metrics["maximal.superlevel.probes_per_call"] = probes / sl_calls if sl_calls else 0.0
    return metrics
