"""Corpus generation and empirical verification of the operator bounds.

All randomness flows through a hand-rolled xorshift64* generator so corpora
and reports are reproducible bit-for-bit across platforms. Checks return
VerificationReport records; the suite runner executes a fixed list of them
and is the engine behind the CLI verify command.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .czd import (
    alpha_average,
    covering_check,
    cz_decompose,
    cz_nesting_check,
    domination_check,
)
from .exponent import (
    ExponentFunction,
    check_lh_equivalences,
    fractional_conjugate,
)
from .lattice import (
    Sequence,
    ZInterval,
    cardinality,
    dilate,
    runs_from_mask,
    runs_intersect,
    truncate,
)
from .maximal import MaximalEvaluator
from .norm import (
    characteristic_norm,
    check_norm_modular_relations,
    check_scaling_bounds,
    luxemburg_norm,
)

__all__ = [
    "XorShift64Star",
    "CorpusSpec",
    "CorpusItem",
    "VerificationReport",
    "HolderReport",
    "KeyComparisonReport",
    "generate_corpus",
    "check_holder_variant",
    "check_key_comparison",
    "estimate_strong_type",
    "estimate_weak_type",
    "strong_type_ratio",
    "weak_type_sup",
    "run_verification_suite",
    "SUITE_CHECKS",
]

VALUE_LAWS = ("uniform01", "spike", "geometric-decay", "bernoulli-sparse")
EXPONENT_LAWS = ("constant", "bump", "lh-decay", "random-range")

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_SEED0 = 0x9E3779B97F4A7C15

STRONG_WINDOW_CAP = 2**14
STRONG_THRESHOLD_DIV = 64.0
WEAK_GRID_SIZE = 40


class XorShift64Star:
    """xorshift64* generator: shifts 12/25/27, odd multiplier, 53-bit floats."""

    def __init__(self, seed: int):
        self._state = (int(seed) & _MASK) or _SEED0

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * _MULT) & _MASK

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_range(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]; modulo reduction, fine for corpus draws."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic recipe for a corpus of (sequence, exponent) pairs.

    p_lo / p_hi default to [1.05, min(8, 0.95/max(alpha_list))] so every
    generated exponent admits the fractional conjugate at each listed alpha.
    """

    seed: int
    count: int
    window_width: int
    value_law: str
    exponent_law: str
    alpha_list: tuple[float, ...]
    p_lo: float | None = None
    p_hi: float | None = None

    def resolved_bounds(self) -> tuple[float, float]:
        a_max = max(self.alpha_list) if self.alpha_list else 0.0
        hi_cap = min(8.0, 0.95 / a_max) if a_max > 0 else 8.0
        lo = 1.05 if self.p_lo is None else float(self.p_lo)
        hi = hi_cap if self.p_hi is None else float(self.p_hi)
        if not (1.0 <= lo <= hi):
            raise ValueError("need 1 <= p_lo <= p_hi")
        if a_max > 0 and hi * a_max >= 1.0:
            raise ValueError("p_hi must stay below 1/max(alpha_list)")
        return lo, hi


@dataclass(frozen=True)
class CorpusItem:
    index: int
    a: Sequence
    p: ExponentFunction


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated outcome of one named check over a corpus."""

    check_name: str
    cases: int
    failures: int
    worst_case: dict
    empirical_constant: float | None

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "cases": self.cases,
            "failures": self.failures,
            "worst_case": self.worst_case,
            "empirical_constant": self.empirical_constant,
        }


def _draw_values(rng: XorShift64Star, law: str, length: int) -> np.ndarray:
    if law == "uniform01":
        return np.array([rng.uniform() for _ in range(length)])
    if law == "spike":
        vals = np.array([0.01 + 0.99 * rng.uniform() for _ in range(length)])
        k = rng.randint(0, length - 1)
        vals[k] = 25.0 * float(vals.max()) * (1.0 + rng.uniform())
        return vals
    if law == "geometric-decay":
        gamma = 0.7 + 0.25 * rng.uniform()
        u = np.array([rng.uniform() for _ in range(length)])
        return u * gamma ** np.arange(length)
    if law == "bernoulli-sparse":
        vals = np.array(
            [rng.uniform() if rng.uniform() < 0.15 else 0.0 for _ in range(length)]
        )
        if not vals.any():
            vals[length // 2] = 0.5 + 0.5 * rng.uniform()
        return vals
    raise ValueError(f"unknown value law {law!r}")


def _draw_exponent(
    rng: XorShift64Star, law: str, offset: int, length: int, p_lo: float, p_hi: float
) -> ExponentFunction:
    pad = 8
    wlo = offset - pad
    ns = np.arange(wlo, offset + length + pad)
    if law == "constant":
        return ExponentFunction.constant(rng.uniform_range(p_lo, p_hi))
    if law == "bump":
        p_inf = p_lo + 0.5 * (p_hi - p_lo) * rng.uniform()
        height = (p_hi - p_inf) * rng.uniform()
        center = offset + rng.randint(0, length - 1)
        radius = rng.randint(4, max(5, length))
        vals = p_inf + height * np.maximum(0.0, 1.0 - np.abs(ns - center) / radius)
        return ExponentFunction(wlo, vals, p_inf)
    if law == "lh-decay":
        p_inf = p_lo + 0.5 * (p_hi - p_lo) * rng.uniform()
        c = (p_hi - p_inf) * rng.uniform()
        vals = p_inf + c / np.log(math.e + np.abs(ns))
        return ExponentFunction(wlo, vals, p_inf)
    if law == "random-range":
        vals = np.array([rng.uniform_range(p_lo, p_hi) for _ in range(ns.size)])
        return ExponentFunction(wlo, vals, rng.uniform_range(p_lo, p_hi))
    raise ValueError(f"unknown exponent law {law!r}")


def generate_corpus(spec: CorpusSpec) -> list[CorpusItem]:
    """Materialize the corpus described by the spec, deterministically."""
    if spec.value_law not in VALUE_LAWS:
        raise ValueError(f"unknown value law {spec.value_law!r}")
    if spec.exponent_law not in EXPONENT_LAWS:
        raise ValueError(f"unknown exponent law {spec.exponent_law!r}")
    if spec.window_width < 4:
        raise ValueError("window_width must be >= 4")
    p_lo, p_hi = spec.resolved_bounds()
    rng = XorShift64Star(spec.seed)
    items = []
    for i in range(spec.count):
        length = rng.randint(max(4, spec.window_width // 2), spec.window_width)
        offset = rng.randint(-spec.window_width - length, spec.window_width)
        vals = _draw_values(rng, spec.value_law, length)
        p = _draw_exponent(rng, spec.exponent_law, offset, length, p_lo, p_hi)
        items.append(CorpusItem(i, Sequence(offset, vals), p))
    return items


def _map_items(fn: Callable, items: Iterable, threads: int) -> list:
    items = list(items)
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class HolderReport:
    ok: bool
    lhs: float
    rhs: float


def check_holder_variant(
    a: Sequence, interval: ZInterval, p0: float, alpha: float, tol: float = 1e-12
) -> HolderReport:
    """|I|^(alpha-1) sum_I |a|  <=  |I|^(alpha-1/p0) (sum_I |a|^p0)^(1/p0).

    Requires 1 < p0 and alpha * p0 < 1 so the right side decays in |I|.
    """
    if not (p0 > 1.0):
        raise ValueError("p0 must exceed 1")
    if not (0.0 <= alpha < 1.0 and alpha * p0 < 1.0):
        raise ValueError("need alpha in [0,1) and alpha * p0 < 1")
    card = float(cardinality(interval))
    lhs = alpha_average(a, interval, alpha)
    piece = truncate(a, interval)
    power_sum = float(np.power(piece.values, p0).sum()) if piece.values.size else 0.0
    rhs = card ** (alpha - 1.0 / p0) * power_sum ** (1.0 / p0)
    return HolderReport(lhs <= rhs * (1.0 + tol), lhs, rhs)


@dataclass(frozen=True)
class KeyComparisonReport:
    """Two-sided comparison of variable and tail modulars on a window."""

    ok: bool
    c5: float
    c6: float
    sum_var: float
    sum_tail: float
    sum_ref: float


def check_key_comparison(
    window: ZInterval, f: Sequence, p: ExponentFunction, n_decay: float
) -> KeyComparisonReport:
    """Minimal constants comparing sum F^p(k) with sum F^p_inf over the window,
    relative to the reference tail R(k) = (e + |k|)^(-n_decay).

    F must take values in [0, 1]; requires n_decay * p_inf > 1.
    """
    if f.max_value() > 1.0:
        raise ValueError("F must take values in [0, 1]")
    if not (n_decay * p.p_inf > 1.0):
        raise ValueError("need n_decay * p_inf > 1")
    ns = np.arange(window.lo, window.hi + 1)
    fv = np.array([f.at(int(n)) for n in ns])
    pv = p.values_on(window)
    ref = np.power(math.e + np.abs(ns), -n_decay)
    s_var = float(np.power(fv, pv).sum())
    s_tail = float(np.power(fv, p.p_inf).sum())
    s_ref = float(np.power(ref, p.p_inf).sum())
    c5 = max(1.0, (s_var - s_tail) / s_ref)
    c6 = max(1.0, s_tail / (s_var + s_ref))
    ok = math.isfinite(c5) and math.isfinite(c6)
    return KeyComparisonReport(ok, c5, c6, s_var, s_tail, s_ref)


def strong_type_ratio(a: Sequence, p: ExponentFunction, alpha: float) -> float:
    """||M_alpha a||_q / ||a||_p with 1/q = 1/p - alpha, on a deterministic
    window (radius = superlevel reach at max(M)/64, capped at 2^14)."""
    q = fractional_conjugate(p, alpha)
    ev = MaximalEvaluator(a, alpha)
    max_m = ev.max_value()
    if max_m == 0.0:
        return 0.0
    s = max_m / STRONG_THRESHOLD_DIV
    radius = min(
        STRONG_WINDOW_CAP, int(math.ceil((ev.total / s) ** (1.0 / (1.0 - alpha))))
    )
    hull = a.support_hull()
    window = ZInterval(hull.lo - radius, hull.hi + radius)
    m_seq = Sequence(window.lo, ev.profile(window))
    return luxemburg_norm(m_seq, q).value / luxemburg_norm(a, p).value


def weak_type_sup(
    a: Sequence,
    p: ExponentFunction,
    alpha: float,
    t_grid: np.ndarray | None = None,
) -> tuple[float, float]:
    """sup over t of t * ||chi_{M_alpha a > 9t}||_q / ||a||_p and its argmax.

    The default grid is 40 geometric points spanning four decades below
    max(M_alpha)/9.
    """
    q = fractional_conjugate(p, alpha)
    ev = MaximalEvaluator(a, alpha)
    max_m = ev.max_value()
    if max_m == 0.0:
        return 0.0, 0.0
    if t_grid is None:
        top = max_m / 9.0
        t_grid = np.geomspace(top * 1e-4, top * 1.1, WEAK_GRID_SIZE)
    na = luxemburg_norm(a, p).value
    best, best_t = 0.0, float(t_grid[0])
    for t in t_grid:
        t = float(t)
        runs = ev.superlevel(9.0 * t)
        val = t * characteristic_norm(runs, q).value / na
        if val > best:
            best, best_t = val, t
    return best, best_t


def _sub_seed(seed: int, name: str) -> int:
    return (seed ^ (zlib.crc32(name.encode()) * 0x9E3779B1)) & _MASK


def estimate_strong_type(
    spec: CorpusSpec, alpha: float, threads: int = 1
) -> VerificationReport:
    """Empirical operator-norm envelope, with exact scale invariance checked."""
    corpus = generate_corpus(spec)

    def one(item: CorpusItem) -> tuple[float, float]:
        r1 = strong_type_ratio(item.a, item.p, alpha)
        r2 = strong_type_ratio(item.a.scaled(10.0), item.p, alpha)
        return r1, r2

    results = _map_items(one, corpus, threads)
    failures = 0
    worst = {"index": -1, "ratio": 0.0}
    for item, (r1, r2) in zip(corpus, results):
        invariant = abs(r2 / r1 - 1.0) <= 1e-9 if r1 > 0 else r2 == r1
        if not (math.isfinite(r1) and r1 >= 0.0 and invariant):
            failures += 1
        if r1 > worst["ratio"]:
            worst = {"index": item.index, "ratio": r1}
    return VerificationReport(
        f"strong_type[alpha={alpha:g}]",
        len(corpus),
        failures,
        worst,
        worst["ratio"],
    )


def estimate_weak_type(
    spec: CorpusSpec,
    alpha: float,
    t_grid: np.ndarray | None = None,
    threads: int = 1,
) -> VerificationReport:
    """Empirical weak-type envelope over a threshold grid."""
    corpus = generate_corpus(spec)
    results = _map_items(
        lambda it: weak_type_sup(it.a, it.p, alpha, t_grid), corpus, threads
    )
    failures = 0
    worst = {"index": -1, "value": 0.0, "t": 0.0}
    for item, (val, t_at) in zip(corpus, results):
        if not (math.isfinite(val) and val >= 0.0):
            failures += 1
        if val > worst["value"]:
            worst = {"index": item.index, "value": val, "t": t_at}
    return VerificationReport(
        f"weak_type[alpha={alpha:g}]",
        len(corpus),
        failures,
        worst,
        worst["value"],
    )


def _check_lh(spec: CorpusSpec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)
    reports = _map_items(lambda it: check_lh_equivalences(it.p), corpus, threads)
    failures = sum(0 if r.ok else 1 for r in reports)
    worst_gap, worst = 0.0, {}
    for item, r in zip(corpus, reports):
        if r.identity_gap >= worst_gap:
            worst_gap = r.identity_gap
            worst = {"index": item.index, "identity_gap": r.identity_gap, "c_p": r.c_p}
    return VerificationReport("lh_equivalences", len(corpus), failures, worst, None)


def _check_norm_modular(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)
    reports = _map_items(
        lambda it: check_norm_modular_relations(it.a, it.p), corpus, threads
    )
    failures = sum(0 if r.ok else 1 for r in reports)
    worst, gap = {}, -1.0
    for item, r in zip(corpus, reports):
        g = abs(r.unit_modular - 1.0)
        if g > gap:
            gap = g
            worst = {"index": item.index, "unit_modular": r.unit_modular}
    return VerificationReport("norm_modular", len(corpus), failures, worst, None)


def _check_scaling(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)
    lams = (0.3, 1.0, 2.7)

    def one(item):
        return [check_scaling_bounds(item.a, item.p, lam) for lam in lams]

    reports = _map_items(one, corpus, threads)
    failures = 0
    worst, gap = {}, -1.0
    for item, rs in zip(corpus, reports):
        for r in rs:
            if not r.ok:
                failures += 1
            g = abs(r.norm_ratio - 1.0)
            if g > gap:
                gap = g
                worst = {"index": item.index, "lam": r.lam, "norm_ratio": r.norm_ratio}
    return VerificationReport("scaling", len(corpus) * len(lams), failures, worst, None)


def _check_fatou(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)

    def one(item):
        hull = item.a.support_hull()
        if hull is None:
            return True, 0.0
        full = luxemburg_norm(item.a, item.p).value
        mid = (hull.lo + hull.hi) // 2
        prev = 0.0
        ok = True
        width = 1
        norms = []
        while True:
            win = ZInterval(mid - width, mid + width)
            norms.append(luxemburg_norm(truncate(item.a, win), item.p).value)
            if win.contains_interval(hull):
                break
            width *= 2
        for v in norms:
            if v < prev - 1e-11 * max(1.0, full):
                ok = False
            prev = v
        gap = abs(norms[-1] - full)
        return ok and gap <= 1e-11 * max(1.0, full), gap

    results = _map_items(one, corpus, threads)
    failures = sum(0 if ok else 1 for ok, _ in results)
    worst = {"max_gap": max((g for _, g in results), default=0.0)}
    return VerificationReport("fatou", len(corpus), failures, worst, None)


def _check_maximal_consistency(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)

    def one(item):
        if item.a.is_zero():
            return True
        hull = item.a.support_hull()
        pad = 2 * cardinality(hull)
        win = ZInterval(hull.lo - pad, hull.hi + pad)
        for alpha in alphas:
            ev = MaximalEvaluator(item.a, alpha)
            prof = ev.profile(win)
            step = max(1, cardinality(win) // 16)
            for n in range(win.lo, win.hi + 1, step):
                if prof[n - win.lo] != ev.point(n):
                    return False
            s = ev.max_value() / 7.0
            if runs_intersect(ev.superlevel(s), [win]) != runs_from_mask(prof > s, win.lo):
                return False
        return True

    results = _map_items(one, corpus, threads)
    failures = sum(0 if ok else 1 for ok in results)
    return VerificationReport(
        "maximal_consistency", len(corpus) * len(alphas), failures, {}, None
    )


def _check_cz_structure(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)

    def one(item):
        if item.a.is_zero():
            return True, 1.0
        worst_ratio = 0.0
        for alpha in alphas:
            d = cz_decompose(item.a, alpha, t)
            bound = 2.0 ** (1.0 - alpha) * t
            prev_hi = None
            ev = MaximalEvaluator(item.a, alpha)
            for r, avg in zip(d.intervals, d.averages):
                if not (t < avg <= bound * (1 + 1e-12)):
                    return False, worst_ratio
                if prev_hi is not None and r.lo <= prev_hi:
                    return False, worst_ratio
                prev_hi = r.hi
                if not (ev.point(r.lo) > t and ev.point(r.hi) > t):
                    return False, worst_ratio
                worst_ratio = max(worst_ratio, avg / t)
            nest = cz_nesting_check(item.a, alpha, t, t / 3.0)
            if not nest.ok:
                return False, worst_ratio
        return True, worst_ratio

    results = _map_items(one, corpus, threads)
    failures = sum(0 if ok else 1 for ok, _ in results)
    worst = max((r for _, r in results), default=0.0)
    return VerificationReport(
        "cz_structure",
        len(corpus) * len(alphas),
        failures,
        {"max_average_ratio": worst},
        worst,
    )


def _check_covering(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)

    def one(item):
        if item.a.is_zero():
            return 0, 0.0
        bad = 0
        worst = 0.0
        for alpha in alphas:
            rep = covering_check(item.a, alpha, t)
            if not (rep.ok and rep.bound_ok):
                bad += 1
            worst = max(worst, rep.max_average_ratio)
        return bad, worst

    results = _map_items(one, corpus, threads)
    failures = sum(b for b, _ in results)
    worst = max((w for _, w in results), default=0.0)
    return VerificationReport(
        "covering",
        len(corpus) * len(alphas),
        failures,
        {"max_average_ratio": worst},
        worst,
    )


def _check_domination(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)

    def one(item):
        if item.a.is_zero():
            return True, 0.0, True
        ok = True
        ratio = 0.0
        corrected = True
        for alpha in alphas:
            rep = domination_check(item.a, item.p, alpha, t)
            ok = ok and rep.ok_derived
            corrected = corrected and rep.ok_corrected
            ratio = max(ratio, rep.ratio)
        return ok, ratio, corrected

    results = _map_items(one, corpus, threads)
    failures = sum(0 if ok else 1 for ok, _, _ in results)
    worst_ratio = max((r for _, r, _ in results), default=0.0)
    corrected_frac = (
        sum(1 for _, _, c in results if c) / len(results) if results else 1.0
    )
    return VerificationReport(
        "domination",
        len(corpus) * len(alphas),
        failures,
        {"max_lhs_over_esum": worst_ratio, "corrected_constant_fraction": corrected_frac},
        worst_ratio,
    )


def _check_holder(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)
    rng = XorShift64Star(_sub_seed(spec.seed, "holder-intervals"))
    cases = []
    for item in corpus:
        hull = item.a.support_hull()
        if hull is None:
            continue
        lo = rng.randint(hull.lo - 4, hull.hi)
        hi = rng.randint(lo, hull.hi + 4)
        alpha = alphas[rng.randint(0, len(alphas) - 1)] if alphas else 0.0
        cap = min(8.0, 0.95 / alpha) if alpha > 0 else 8.0
        if cap <= 1.05:
            alpha, cap = 0.0, 8.0
        p0 = 1.0 + (cap - 1.0) * max(0.05, rng.uniform())
        cases.append((item, ZInterval(lo, hi), p0, alpha))
    reports = [
        (it.index, check_holder_variant(it.a, iv, p0, al)) for it, iv, p0, al in cases
    ]
    failures = sum(0 if r.ok else 1 for _, r in reports)
    worst, gap = {}, -math.inf
    for idx, r in reports:
        g = r.lhs - r.rhs
        if g > gap:
            gap = g
            worst = {"index": idx, "lhs": r.lhs, "rhs": r.rhs}
    return VerificationReport("holder", len(reports), failures, worst, None)


def _check_key_comparison(spec, alphas, t, threads) -> VerificationReport:
    corpus = generate_corpus(spec)
    rng = XorShift64Star(_sub_seed(spec.seed, "key-comparison"))
    failures = 0
    worst = {"index": -1, "c5": 0.0, "c6": 0.0}
    best_c = 0.0
    for item in corpus:
        f = Sequence(item.a.offset, np.minimum(item.a.values, 1.0))
        win = item.a.window
        if win is None:
            continue
        window = dilate(win, 2)
        n_decay = 1.0 / item.p.p_inf + 0.5 + 2.0 * rng.uniform()
        rep = check_key_comparison(window, f, item.p, n_decay)
        if not rep.ok:
            failures += 1
        if max(rep.c5, rep.c6) > best_c:
            best_c = max(rep.c5, rep.c6)
            worst = {"index": item.index, "c5": rep.c5, "c6": rep.c6}
    return VerificationReport("key_comparison", len(corpus), failures, worst, best_c)


def _check_strong(spec, alphas, t, threads) -> VerificationReport:
    reports = [
        estimate_strong_type(replace(spec, seed=_sub_seed(spec.seed, f"strong-{a:g}")), a, threads)
        for a in alphas
    ]
    if not reports:
        return VerificationReport("strong_type", 0, 0, {}, None)
    cases = sum(r.cases for r in reports)
    failures = sum(r.failures for r in reports)
    worst = max(reports, key=lambda r: r.empirical_constant or 0.0)
    return VerificationReport(
        "strong_type", cases, failures, worst.worst_case, worst.empirical_constant
    )


def _check_weak(spec, alphas, t, threads) -> VerificationReport:
    reports = [
        estimate_weak_type(replace(spec, seed=_sub_seed(spec.seed, f"weak-{a:g}")), a, None, threads)
        for a in alphas
    ]
    if not reports:
        return VerificationReport("weak_type", 0, 0, {}, None)
    cases = sum(r.cases for r in reports)
    failures = sum(r.failures for r in reports)
    worst = max(reports, key=lambda r: r.empirical_constant or 0.0)
    return VerificationReport(
        "weak_type", cases, failures, worst.worst_case, worst.empirical_constant
    )


SUITE_CHECKS: dict[str, Callable] = {
    "lh_equivalences": _check_lh,
    "norm_modular": _check_norm_modular,
    "scaling": _check_scaling,
    "fatou": _check_fatou,
    "maximal_consistency": _check_maximal_consistency,
    "cz_structure": _check_cz_structure,
    "covering": _check_covering,
    "domination": _check_domination,
    "holder": _check_holder,
    "key_comparison": _check_key_comparison,
    "strong_type": _check_strong,
    "weak_type": _check_weak,
}


def run_verification_suite(
    spec: CorpusSpec,
    t: float = 0.05,
    checks: list[str] | None = None,
    threads: int = 1,
    inject_fault: bool = False,
) -> list[VerificationReport]:
    """Run the named checks (all by default, fixed order) over corpora derived
    from the spec; each check reseeds deterministically from its name."""
    names = list(SUITE_CHECKS) if checks is None else list(checks)
    unknown = [n for n in names if n not in SUITE_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    alphas = tuple(spec.alpha_list)
    out = []
    for name in names:
        sub = replace(spec, seed=_sub_seed(spec.seed, name))
        out.append(SUITE_CHECKS[name](sub, alphas, t, threads))
    if inject_fault:
        out.append(
            VerificationReport(
                "injected_fault",
                1,
                1,
                {"reason": "fault injection requested"},
                None,
            )
        )
    return out
