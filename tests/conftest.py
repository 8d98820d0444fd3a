"""Shared oracles for the test suite.

The maximal-operator oracle evaluates the library's float formula
|I|^(alpha-1) * sum_I |a| (a power of the float length times a prefix-sum
difference) on every candidate interval of every point, so agreement with
the library's faster evaluators is exact, not approximate. Inside the hull
it takes the intervals length by length, each length's values under one
running max (scipy's maximum_filter1d), independent of the library's dense
pass, chain pairs and row sweep. Outside the hull it is a dense points x W
evaluation, the reference for the library's envelope evaluator.

The norm oracles are the bisection without a certified bracket: one
modular evaluation per midpoint, with the library's float expressions for
the modular, so the library's NormValues must match them bit for bit.

The corpus oracle is generate_corpus with every draw taken by the scalar
XorShift64Star.uniform(), one call per float, as corpora were drawn before
the bulk path: the library's corpora must match it bit for bit.

The decomposition oracle scans the dyadic levels for the top level, then
halves each top block recursively until a half's average exceeds t: the
stopping-time search written out, independent of the library's table of
block averages.

The shell oracle gives every window point its entering rung by one rank
per point, a searchsorted into the rung floats, and cuts the window where
the rung changes: the library's shells must match it on every side of the
hull, whichever path a side takes.

The partition oracle cuts the whole window profile at every rung of the
ladder, one mask and its runs per rung, and decomposes every rung whose
shell is not empty; the E-set oracle raises each E-set run's average to its
slice of the exponents read point by point. The library's partition and
domination sums must match them bit for bit.

numpy_pow names the float64 power numpy dispatches to, for the tables of
pinned digests that depend on it.

adversarial_sequences, a hypothesis strategy of long zero runs and a lone
far spike, feeds both the partition and the exterior profile oracle tests.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d

from varseq.czd import (
    COVERING_FACTOR,
    PARTITION_DEPTH,
    PARTITION_WINDOW_CAP,
    CZDecomposition,
    LevelSetPartition,
    _DyadicTable,
    _rung,
    alpha_average,
)
from varseq.exponent import ExponentFunction, fractional_conjugate
from varseq.harness import CorpusItem, CorpusSpec, XorShift64Star
from varseq.lattice import (
    Sequence,
    ZInterval,
    block_index_of,
    dilate,
    runs_count,
    runs_from_mask,
    runs_intersect,
    runs_subtract,
)
from varseq.maximal import MaximalEvaluator, alpha_weights
from varseq.norm import MAX_BISECT_ITER, NormValue


# Exterior lengths up to this read the weight table; longer ones call
# np.power directly, which bounds the table's size.
DENSE_TABLE_LIMIT = 2**20


def brute_force_profile(a: Sequence, alpha: float, window: ZInterval) -> np.ndarray:
    """Per-point maximum of the candidate-interval values.

    Inside the hull, by length: for each L the values w[L-1] * (P[s+L] - P[s])
    of the L-point intervals [s, s+L-1], the library's expression, and at
    each point the max of those that cover it, a running max over the last
    L starts. Outside: the max over all W intervals from the point to a hull
    index, with weights from one table of every length up to the farthest
    one, built at the first point that reads it (direct powers beyond
    DENSE_TABLE_LIMIT).
    """
    hull = a.support_hull()
    vals = a.values[hull.lo - a.offset : hull.hi - a.offset + 1]
    P = np.concatenate([[0.0], np.cumsum(vals)])
    W = vals.size
    inside = np.full(W, -np.inf)
    if hull.intersects(window):
        w, v = alpha_weights(W, alpha), np.empty(W)
        for L in range(1, W + 1):
            v[: W - L + 1] = w[L - 1] * (P[L:] - P[: W - L + 1])
            v[W - L + 1 :] = -np.inf
            # the window of point k is the starts k - L + 1 .. k
            covering = maximum_filter1d(v, L, mode="constant", cval=-np.inf, origin=(L - 1) // 2)
            np.maximum(inside, covering, out=inside)
    far = max(hull.lo - window.lo, window.hi - hull.hi, 0) + W
    table = None
    x = np.arange(W) + hull.lo
    out = np.zeros(window.hi - window.lo + 1)
    for i, n in enumerate(range(window.lo, window.hi + 1)):
        if hull.contains(n):
            out[i] = inside[n - hull.lo]
            continue
        if n < hull.lo:
            lengths, sums = x - n + 1, P[1:]
        else:
            lengths, sums = n - x + 1, P[-1] - P[:W]
        if int(lengths.max()) <= DENSE_TABLE_LIMIT:
            if table is None:
                table = alpha_weights(min(far, DENSE_TABLE_LIMIT), alpha)
            weights = table[lengths - 1]
        else:
            weights = np.power(lengths.astype(np.float64), alpha - 1.0)
        out[i] = (weights * sums).max()
    return out


def scalar_draw_values(rng: XorShift64Star, law: str, length: int) -> np.ndarray:
    """A corpus item's values, one scalar draw at a time."""
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


def scalar_draw_exponent(
    rng: XorShift64Star, law: str, offset: int, length: int, p_lo: float, p_hi: float
) -> ExponentFunction:
    """A corpus item's exponent, one scalar draw at a time."""
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


def scalar_corpus(spec: CorpusSpec) -> list[CorpusItem]:
    """generate_corpus drawn by scalar_draw_values and scalar_draw_exponent."""
    p_lo, p_hi = spec.resolved_bounds()
    rng = XorShift64Star(spec.seed)
    items = []
    for i in range(spec.count):
        length = rng.randint(max(4, spec.window_width // 2), spec.window_width)
        offset = rng.randint(-spec.window_width - length, spec.window_width)
        vals = scalar_draw_values(rng, spec.value_law, length)
        p = scalar_draw_exponent(rng, spec.exponent_law, offset, length, p_lo, p_hi)
        items.append(CorpusItem(i, Sequence(offset, vals), p))
    return items


def constant_norm_oracle(a: Sequence, p0: float) -> float:
    """(sum |a|^p0)^(1/p0), the closed form for constant exponents."""
    if a.values.size == 0:
        return 0.0
    return float(np.power(a.values, p0).sum() ** (1.0 / p0))


def plain_bisect(mod_at, lo: float, hi: float, rel_tol: float, trace=None) -> NormValue:
    """inf{lam : mod_at(lam) <= 1}, evaluating mod_at at every midpoint;
    each (midpoint, value) pair is appended to trace when one is given. A
    midpoint equal to lo or hi (adjacent floats) returns hi, as in _bisect,
    and where lo + hi overflows the midpoint is 0.5 * lo + 0.5 * hi."""

    def midpoint(lo, hi):
        mid = 0.5 * (lo + hi)
        return mid if mid < math.inf else 0.5 * lo + 0.5 * hi

    if hi <= lo:
        return NormValue(lo, rel_tol, 0)
    it = 0
    while it < MAX_BISECT_ITER and (hi - lo) > rel_tol * hi:
        mid = midpoint(lo, hi)
        if mid == lo or mid == hi:
            return NormValue(hi, rel_tol, it)
        m = mod_at(mid)
        if trace is not None:
            trace.append((mid, m))
        if m > 1.0:
            lo = mid
        else:
            hi = mid
        it += 1
    return NormValue(midpoint(lo, hi), rel_tol, it)


def plain_luxemburg_norm(a: Sequence, p: ExponentFunction, rel_tol=1e-12, trace=None) -> NormValue:
    """luxemburg_norm's bracket and modular, bisected by plain_bisect."""
    if a.window is None or a.is_zero():
        return NormValue(0.0, rel_tol, 0)
    pv = p.values_on(a.window)
    lo = a.max_value()

    def mod_at(lam):
        return float(np.power(a.values / lam, pv).sum())

    return plain_bisect(mod_at, lo, max(lo, a.total()), rel_tol, trace)


def plain_characteristic_norm(runs, p: ExponentFunction, rel_tol=1e-12, trace=None) -> NormValue:
    """characteristic_norm's bracket and modular, bisected by plain_bisect."""
    total = runs_count(runs)
    if total == 0:
        return NormValue(0.0, rel_tol, 0)
    if p.window is None:
        inner, outside = np.zeros(0), total
    else:
        inner_runs = runs_intersect(runs, [p.window])
        inner = np.concatenate([p.values_on(r) for r in inner_runs] or [np.zeros(0)])
        outside = total - runs_count(inner_runs)

    def mod_at(lam):
        s = float(np.power(1.0 / lam, inner).sum()) if inner.size else 0.0
        return s + outside * float(np.power(1.0 / lam, np.float64(p.p_inf)))

    return plain_bisect(mod_at, 1.0, float(total), rel_tol, trace)


def recursive_cz_decompose(a: Sequence, alpha: float, t: float) -> CZDecomposition:
    """Reference stopping-time decomposition: scan the dyadic levels for the
    top level n_t, then halve each top block recursively, selecting each half
    whose average exceeds t, left half first. Same float formula and the same
    ValueErrors as the library's table of block averages."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    if not (t > 0.0):
        raise ValueError("threshold t must be positive")
    if math.isinf(t):
        raise ValueError("threshold t must be finite")
    hull = a.support_hull()
    if hull is None:
        raise ValueError("sequence must not be identically zero")

    def blocks(level: int) -> np.ndarray:
        js = np.arange(block_index_of(level, hull.lo), block_index_of(level, hull.hi) + 1)
        return (js - 1) * (1 << level) + 1

    last_heavy, level = 0, 1
    while True:
        los = blocks(level)
        sums = a.range_sums(los, los + (1 << level) - 1)
        if np.any(np.power(float(1 << level), alpha - 1.0) * sums > t):
            last_heavy = level
        elif los.size == 1 or (los.size == 2 and los[1] == 1):
            break
        level += 1
        if level > 62:
            raise ValueError("threshold too small for the dyadic level search")
    n_t = last_heavy + 1
    intervals: list[ZInterval] = []
    averages: list[float] = []

    def descend(lo: int, hi: int) -> None:
        half = (hi - lo + 1) // 2
        for c_lo, c_hi in ((lo, lo + half - 1), (lo + half, hi)):
            s = a.prefix_sum(c_hi + 1) - a.prefix_sum(c_lo)
            if s <= 0.0:
                continue
            avg = float(np.power(float(c_hi - c_lo + 1), alpha - 1.0)) * s
            if avg > t:
                intervals.append(ZInterval(c_lo, c_hi))
                averages.append(avg)
            elif c_hi > c_lo:
                descend(c_lo, c_hi)

    width = 1 << n_t
    for lo in blocks(n_t).tolist():
        if a.prefix_sum(lo + width) - a.prefix_sum(lo) > 0.0:
            descend(lo, lo + width - 1)
    return CZDecomposition(float(t), float(alpha), intervals, averages, n_t)


# Placements of a window against an interval [lo, hi], for the slice oracles.
WINDOW_PLACEMENTS = (
    "left",
    "right",
    "straddle_lo",
    "straddle_hi",
    "straddle_both",
    "inside",
    "one_point",
)


def placed_window(lo: int, hi: int, where: str, gap: int, width: int) -> ZInterval:
    """A window of the named placement against [lo, hi], for gap, width >= 1:
    wholly left or right of it at distance gap with width points; across one
    end, from gap points outside to at most width points in; across both
    ends; inside it; or one point of [lo - gap, hi + gap]."""
    n = hi - lo + 1
    if where == "left":
        return ZInterval(lo - gap - width + 1, lo - gap)
    if where == "right":
        return ZInterval(hi + gap, hi + gap + width - 1)
    if where == "straddle_lo":
        return ZInterval(lo - gap, min(hi, lo + width - 1))
    if where == "straddle_hi":
        return ZInterval(max(lo, hi - width + 1), hi + gap)
    if where == "straddle_both":
        return ZInterval(lo - gap, hi + width)
    if where == "inside":
        first = lo + gap % n
        return ZInterval(first, min(hi, first + width - 1))
    point = lo - gap + width % (n + 2 * gap)
    return ZInterval(point, point)


def plain_values_on(p: ExponentFunction, interval: ZInterval) -> np.ndarray:
    """p on every integer of the interval, point by point: p_inf, with the
    points whose index falls inside the window read from it by a mask."""
    n = np.arange(interval.lo, interval.hi + 1)
    out = np.full(n.size, p.p_inf)
    if p.values.size:
        i = n - p.window_lo
        mask = (i >= 0) & (i < p.values.size)
        out[mask] = p.values[i[mask]]
    return out


def plain_shells(
    m: np.ndarray, rung_floats: list[float], k_top: int, lo: int
) -> dict[int, list[ZInterval]]:
    """Shell k of the ladder for each rung k that some point enters: every
    point's entering rung is k_top + K minus the number of rung floats below
    its value, and the window is cut wherever that rung changes; m's entry 0
    is point lo and rung_floats[i] is base ** (k_top + i + 1)."""
    ascending = np.array(rung_floats[::-1])
    entry = (k_top + ascending.size) - np.searchsorted(ascending, m, side="left")
    cuts = np.flatnonzero(np.diff(entry)) + 1
    starts = np.concatenate(([0], cuts))
    his = np.concatenate((cuts, [m.size])) + (lo - 1)
    shells: dict[int, list[ZInterval]] = {}
    for k, first, last in zip(entry[starts].tolist(), (starts + lo).tolist(), his.tolist()):
        shells.setdefault(k, []).append(ZInterval(first, last))
    return shells


def plain_level_set_partition(a: Sequence, alpha: float, t: float) -> LevelSetPartition:
    """level_set_partition with the whole window cut at every rung: the mask
    m > base^(k+1), its runs, and their difference with the rung before;
    each rung with a non-empty shell is decomposed and the shell cut into
    E-sets. Same window, ladder and ValueErrors as the library."""
    if not (0.0 < t < 1.0 / 9.0):
        raise ValueError("t must lie in (0, 1/9)")
    ev = MaximalEvaluator(a, alpha)
    hull = ev.hull
    if hull is None:
        raise ValueError("sequence must not be identically zero")
    base = COVERING_FACTOR * t
    max_m = ev.max_value()
    radius = ev.reach(max_m / PARTITION_DEPTH, PARTITION_WINDOW_CAP)
    window = ZInterval(hull.lo - radius, hull.hi + radius)
    m = ev.profile(window)
    table = _DyadicTable(a, alpha)
    k_top = _rung(base, max_m)
    k_end = _rung(base, float(m.min()))
    rungs = k_end + 1 - k_top
    if rungs > 100_000:
        raise ValueError(f"level ladder has {rungs} rungs, more than 100000: t is too close to 1/9")

    levels: list[int] = []
    omega: dict[int, list[ZInterval]] = {k_top: []}
    heights: dict[int, float] = {}
    e_sets: dict[tuple[int, int], list[ZInterval]] = {}
    intervals: dict[tuple[int, int], ZInterval] = {}
    for k in range(k_top, k_end + 1):
        s_next = base ** (k + 1)
        omega[k + 1] = runs_from_mask(m > s_next, window.lo)
        rest = runs_subtract(omega[k + 1], omega[k])
        if not rest:
            continue
        levels.append(k)
        heights[k] = s_next / COVERING_FACTOR
        for j, sel in enumerate(table.decompose(heights[k]).intervals):
            piece = runs_intersect(rest, [dilate(sel, 2)])
            if piece:
                e_sets[(k, j)] = piece
                intervals[(k, j)] = sel
                rest = runs_subtract(rest, piece)
        if rest:
            raise RuntimeError(
                "shell escaped the doubled covering intervals; "
                f"level {k}, {runs_count(rest)} points"
            )
    return LevelSetPartition(
        float(t), float(alpha), base, window, levels, omega, heights, e_sets, intervals, m
    )


def plain_domination_sums(
    a: Sequence, p: ExponentFunction, alpha: float, part: LevelSetPartition
) -> tuple[float, float]:
    """domination_check's (lhs, e_weighted_sum) on a partition: the sum of
    M_alpha^q over the window, and per E-set run one np.power of its
    doubled interval's average to the run's slice of q, point by point."""
    q = fractional_conjugate(p, alpha)
    qv = plain_values_on(q, part.window)
    lhs = float(np.power(part.profile, qv).sum())
    lo = part.window.lo
    e_sum = 0.0
    for key, runs in part.e_sets.items():
        avg = alpha_average(a, dilate(part.intervals[key], 2), alpha)
        for run in runs:
            e_sum += float(np.power(avg, qv[run.lo - lo : run.hi - lo + 1]).sum())
    return lhs, e_sum


@functools.cache
def numpy_pow() -> str:
    """"libm" when np.power gives 1,000 seeded float64 pairs the bits of
    Python's **, the C library's pow; "svml" otherwise, as on AVX-512
    machines, where numpy dispatches float64 power to Intel's SVML."""
    rng = np.random.default_rng(1)
    x, y = 10.0 ** rng.uniform(-6.0, 3.0, 1000), rng.uniform(1.0, 8.0, 1000)
    same = np.power(x, y).tolist() == [b**e for b, e in zip(x.tolist(), y.tolist())]
    return "libm" if same else "svml"


def rebind_everywhere(monkeypatch, real, fake) -> int:
    """Bind fake in place of real in every loaded varseq module; the count."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if name.startswith("varseq"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, fake)
                    rebound += 1
    return rebound


@st.composite
def adversarial_sequences(draw):
    """A body of 1..8 values with interior zeros, and on one side a zero run
    of up to 3,000 points and a lone spike 1e-3..1e3 times the body's peak;
    offsets near 0 or near 2**40."""
    body = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    for i in draw(st.lists(st.integers(1, 6), max_size=3)):
        if i < len(body) - 1:
            body[i] = 0.0
    gap = draw(st.one_of(st.integers(0, 8), st.integers(500, 3000)))
    spike = max(body) * 10.0 ** draw(st.floats(-3.0, 3.0))
    vals = body + [0.0] * gap + [spike]
    if draw(st.booleans()):
        vals.reverse()
    near_2_40 = st.integers(-64, 64).map(lambda d: 2**40 + d)
    offset = draw(st.one_of(st.integers(-1000, 1000), near_2_40))
    return Sequence(offset, vals)
