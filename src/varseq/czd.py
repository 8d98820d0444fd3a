"""Dyadic stopping-time decomposition for the fractional averaging operator.

For threshold t > 0, the top level N_t is the smallest N >= 1 such that every
dyadic block at every level >= N has alpha-average <= t. (For alpha = 0 the
averages are monotone under merging, so this equals the first fully light
level; for alpha > 0 the stronger rule is required for the covering bound.)
The block averages do not depend on t, so one table per (sequence, alpha)
holds them, a row per level over the blocks meeting the support hull, and
each threshold's decomposition is a cut of it: the maximal blocks below
N_t with average above t, sorted and disjoint, with averages in
(t, 2^(1-alpha) t]. The block sums are alpha-free too: one range_sums call
per sequence (_block_sums) sums the blocks of levels 0..L_top, where L_top
is the first level >= 1 at which the hull is one block, or the two blocks
either side of 0|1, and where top_level can first stop. A higher row's
blocks each hold their whole side of the hull, so it has row L_top's sums.

The level-set partition cuts the window profile of M_alpha at the rungs
base^k, base = 9t, from the top rung (max M_alpha, where the set is empty)
to the first rung whose set is the whole window (min M_alpha). Both ends
are read off the profile before any rung is cut; a ladder of more than
100,000 rungs (t too close to 1/9) raises ValueError. One rank pass
(_shells) gives every point its entering rung, the smallest k with
M_alpha > base^(k+1). The K rung floats base ** (k+1), by Python's **, the
floats of a per-rung comparison, fall in k (or repeat, among subnormals),
so reversed they are sorted and the rungs below a point's value are the
last ones: one searchsorted counts them, and the entering rung is k_top + K
minus that count, by the same strict comparisons. One diff cuts the window
into maximal segments of one entering rung, so each shell's runs come out
sorted, disjoint and non-adjacent, and the window is passed over a fixed
number of times, not once per rung. A rung that no point enters shares the
previous rung's run list in omega and is not decomposed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .exponent import ExponentFunction, check_alpha, fractional_conjugate
from .lattice import (
    Sequence,
    ZInterval,
    block_index_of,
    cardinality,
    dilate,
    dyadic_block,
    interval_sum,
    runs_count,
    runs_intersect,
    runs_normalize,
    runs_subtract,
    runs_union,
)
from .maximal import MaximalEvaluator, _geometry_of

__all__ = [
    "CZDecomposition",
    "NestingReport",
    "CoveringReport",
    "LevelSetPartition",
    "DominationReport",
    "alpha_average",
    "cz_decompose",
    "cz_nesting_check",
    "covering_check",
    "level_set_partition",
    "domination_check",
]

COVERING_FACTOR = 9.0
PARTITION_WINDOW_CAP = 2**16
PARTITION_DEPTH = 2**10


def alpha_average(a: Sequence, interval: ZInterval, alpha: float) -> float:
    """|I|^(alpha-1) * sum_I |a|."""
    card = float(cardinality(interval))
    return float(np.power(card, alpha - 1.0)) * interval_sum(a, interval)


@dataclass(frozen=True)
class CZDecomposition:
    """Selected intervals with their averages, plus the top level n_t."""

    t: float
    alpha: float
    intervals: list[ZInterval]
    averages: list[float]
    n_t: int


def _block_sums(a: Sequence) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Row starts (row L is starts[L]:starts[L+1]), sums of the blocks
    meeting a's hull at levels 0..L_top (module docstring), and each level's
    largest sum up to level 62, kept in a's _Geometry."""
    geometry = _geometry_of(a)
    if geometry.blocks is None:
        hull = geometry.hull
        los, his, starts = [], [], [0]
        for level in range(63):
            first, last = block_index_of(level, hull.lo), block_index_of(level, hull.hi)
            lo = (np.arange(first, last + 1) - 1) * (1 << level) + 1
            los.append(lo)
            his.append(lo + ((1 << level) - 1))
            starts.append(starts[-1] + lo.size)
            if level and (first == last or (first == 0 and last == 1)):
                break
        sums = a.range_sums(np.concatenate(los), np.concatenate(his))
        peaks = np.maximum.reduceat(sums, starts[:-1])
        geometry.blocks = starts, sums, np.concatenate([peaks, np.full(63 - peaks.size, peaks[-1])])
    return geometry.blocks


class _DyadicTable:
    """Row L: the level-L blocks meeting the hull and their averages,
    np.power(2^L, alpha-1) times the block sums, all in one product; an
    array power has the bits of scalar ones
    (test_power_of_scalars_matches_array_entries). A positive factor keeps
    float order, so factor times largest sum is the row's peak."""

    def __init__(self, a: Sequence, alpha: float):
        self.alpha = check_alpha(alpha)
        self.hull = _geometry_of(a).hull
        if self.hull is not None:  # decompose rejects a zero sequence
            self._starts, self._sums, peak_sums = _block_sums(a)
            self._factors = np.power(np.ldexp(1.0, np.arange(63)), self.alpha - 1.0)
            per_entry = np.repeat(self._factors[: len(self._starts) - 1], np.diff(self._starts))
            self._avgs = per_entry * self._sums
            self._peaks = (self._factors * peak_sums).tolist()

    def row(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        hull, starts = self.hull, self._starts
        js = np.arange(block_index_of(level, hull.lo), block_index_of(level, hull.hi) + 1)
        if level < len(starts) - 1:
            return js, self._avgs[starts[level] : starts[level + 1]]
        return js, self._factors[level] * self._sums[starts[-2] :]

    def top_level(self, t: float) -> int:
        """N_t. The scan stops at a light row from L_top on; each of its
        blocks holds its whole side of the hull, so higher levels only shrink
        the averages. A row has one above t exactly when its peak is."""
        last_heavy = 0
        for level in range(1, 63):
            if self._peaks[level] > t:
                last_heavy = level
            elif level >= len(self._starts) - 2:
                return last_heavy + 1
        raise ValueError("threshold too small for the dyadic level search")

    def decompose(self, t: float) -> CZDecomposition:
        """Cut at t: the blocks below level n_t with average above t whose
        ancestors below n_t are not, sorted by left end."""
        if not (t > 0.0):
            raise ValueError("threshold t must be positive")
        if self.hull is None:
            raise ValueError("sequence must not be identically zero")
        n_t = self.top_level(t)
        covered = np.zeros(self.row(n_t)[0].size, dtype=bool)
        found: list[tuple[ZInterval, float]] = []
        for level in range(n_t - 1, -1, -1):
            js, avgs = self.row(level)
            # block j sits under block ceil(j/2) one level up
            covered = covered[-((-js) // 2) - block_index_of(level + 1, self.hull.lo)]
            hit = (avgs > t) & ~covered
            covered |= hit
            blocks = [dyadic_block(level, j) for j in js[hit].tolist()]
            found += zip(blocks, avgs[hit].tolist())
            if covered.all():
                break  # every lower block sits inside a selected one
        found.sort()
        intervals = [iv for iv, _ in found]
        averages = [avg for _, avg in found]
        return CZDecomposition(float(t), self.alpha, intervals, averages, n_t)


def cz_decompose(a: Sequence, alpha: float, t: float) -> CZDecomposition:
    """Stopping-time decomposition at threshold t for a nontrivial sequence."""
    return _DyadicTable(a, alpha).decompose(t)


@dataclass(frozen=True)
class NestingReport:
    """Containment of the finer-threshold selection in the coarser one."""

    ok: bool
    t_hi: float
    t_lo: float
    n_t_hi: int
    n_t_lo: int
    containment_failures: int
    count_hi: int
    count_lo: int


def cz_nesting_check(a: Sequence, alpha: float, t1: float, t2: float) -> NestingReport:
    """Each interval selected at the higher threshold must sit inside one
    selected at the lower threshold, with monotone top level and total size."""
    t_hi, t_lo = max(t1, t2), min(t1, t2)
    table = _DyadicTable(a, alpha)
    d_hi = table.decompose(t_hi)
    d_lo = table.decompose(t_lo)
    lows = [r.lo for r in d_lo.intervals]
    failures = 0
    for r in d_hi.intervals:
        k = bisect.bisect_right(lows, r.lo) - 1
        if k < 0 or not d_lo.intervals[k].contains_interval(r):
            failures += 1
    ok = (
        failures == 0
        and d_hi.n_t <= d_lo.n_t
        and runs_count(d_hi.intervals) <= runs_count(d_lo.intervals)
    )
    return NestingReport(
        ok,
        t_hi,
        t_lo,
        d_hi.n_t,
        d_lo.n_t,
        failures,
        runs_count(d_hi.intervals),
        runs_count(d_lo.intervals),
    )


@dataclass(frozen=True)
class CoveringReport:
    """Containment of {M_alpha > 9t} in the union of doubled intervals."""

    ok: bool
    uncovered_count: int
    superlevel_count: int
    selected_count: int
    bound_ok: bool
    max_average_ratio: float
    two_t_fraction: float


def covering_check(a: Sequence, alpha: float, t: float) -> CoveringReport:
    """Verify {M_alpha a > 9t} is covered by the doubled selected intervals,
    and that selected averages obey avg <= 2^(1-alpha) t."""
    d = cz_decompose(a, alpha, t)
    doubled = runs_normalize([dilate(r, 2) for r in d.intervals])
    sup = MaximalEvaluator(a, alpha).superlevel(COVERING_FACTOR * t)
    uncovered = runs_subtract(sup, doubled)
    avgs = d.averages
    top = max(avgs, default=0.0)
    bound_ok = top <= float(2.0 ** (1.0 - alpha)) * t * (1 + 1e-12)
    two_t = sum(avg <= 2.0 * t for avg in avgs) / len(avgs) if avgs else 1.0
    return CoveringReport(
        len(uncovered) == 0,
        runs_count(uncovered),
        runs_count(sup),
        len(d.intervals),
        bound_ok,
        top / t,
        two_t,
    )


@dataclass(frozen=True)
class LevelSetPartition:
    """Geometric level sets of M_alpha with their E-set partition.

    omega[k] is {M_alpha > base^k} inside the window; shell k is
    omega[k+1] minus omega[k]; e_sets[(k, j)] partition shell k using the
    doubled intervals of the decomposition at height base^(k+1) / 9, whose
    covering set is exactly omega[k+1]. profile holds M_alpha on the window.
    """

    t: float
    alpha: float
    base: float
    window: ZInterval
    levels: list[int]
    omega: dict[int, list[ZInterval]]
    heights: dict[int, float]
    e_sets: dict[tuple[int, int], list[ZInterval]]
    intervals: dict[tuple[int, int], ZInterval]
    profile: np.ndarray


def _rung(base: float, x: float) -> int:
    """Largest k with base^k >= x, for 0 < base < 1 and x > 0: the floor of
    log(x) / log(base), moved a step when rounding put it on the wrong side."""
    k = math.floor(math.log(x) / math.log(base))
    while base ** (k + 1) >= x:
        k += 1
    while base**k < x:
        k -= 1
    return k


def _shells(
    m: np.ndarray, rung_floats: list[float], k_top: int, lo: int
) -> dict[int, list[ZInterval]]:
    """Shell k of the ladder for each rung k that some point enters, by the
    rank pass of the module docstring over the window profile m, whose
    entry 0 is point lo; rung_floats[i] is base ** (k_top + i + 1)."""
    ascending = np.array(rung_floats[::-1])
    entry = (k_top + ascending.size) - np.searchsorted(ascending, m, side="left")
    cuts = np.flatnonzero(np.diff(entry)) + 1
    starts = np.concatenate(([0], cuts))
    his = np.concatenate((cuts, [m.size])) + (lo - 1)
    shells: dict[int, list[ZInterval]] = {}
    for k, first, last in zip(entry[starts].tolist(), (starts + lo).tolist(), his.tolist()):
        shells.setdefault(k, []).append(ZInterval(first, last))
    return shells


def level_set_partition(a: Sequence, alpha: float, t: float) -> LevelSetPartition:
    """Partition a window of M_alpha level sets into E-sets; 0 < t < 1/9.
    omega entries of rungs that no point enters are the same list object."""
    if not (0.0 < t < 1.0 / COVERING_FACTOR):
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

    # shells k_top to k_end: omega[k_top] is empty, omega[k_end + 1] the whole window
    k_top = _rung(base, max_m)
    k_end = _rung(base, float(m.min()))
    rungs = k_end + 1 - k_top
    if rungs > 100_000:
        raise ValueError(f"level ladder has {rungs} rungs, more than 100000: t is too close to 1/9")

    rung_floats = [base ** (k + 1) for k in range(k_top, k_end + 1)]
    shells = _shells(m, rung_floats, k_top, window.lo)

    levels: list[int] = []
    omega: dict[int, list[ZInterval]] = {k_top: []}
    heights: dict[int, float] = {}
    e_sets: dict[tuple[int, int], list[ZInterval]] = {}
    intervals: dict[tuple[int, int], ZInterval] = {}

    for k in range(k_top, k_end + 1):
        rest = shells.get(k)  # shell k, less the E-sets cut so far
        if rest is None:
            omega[k + 1] = omega[k]
            continue
        omega[k + 1] = runs_union(omega[k], rest)
        levels.append(k)
        heights[k] = rung_floats[k - k_top] / COVERING_FACTOR
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


@dataclass(frozen=True)
class DominationReport:
    """Pointwise-sum domination of M_alpha^q by E-set averages."""

    ok_corrected: bool
    ok_derived: bool
    ok_literal: bool
    lhs: float
    e_weighted_sum: float
    c_corrected: float
    c_derived: float
    c_literal: float
    ratio: float
    q_minus: float
    q_plus: float
    levels: int
    window: ZInterval


def domination_check(
    a: Sequence, p: ExponentFunction, alpha: float, t: float
) -> DominationReport:
    """Compare sum_window M_alpha^q(n) against the weighted E-set sum.

    Three candidate constants are evaluated: c_corrected = A^q_- 2^((1-alpha)q_+),
    c_literal = A^q_- 2^(q_+(alpha-1)), and c_derived = (2^(1-alpha)/t)^q_+,
    where A = 9t. The derived constant follows from the selected-average
    bounds and is the one guaranteed to hold.
    """
    part = level_set_partition(a, alpha, t)
    q = fractional_conjugate(p, alpha)
    qv = q.values_on(part.window)
    lhs = float(np.power(part.profile, qv).sum())

    # every E-set run lies inside the window: its exponents are a slice of
    # qv. A run outside q's window has exponent p_inf at every point, so its
    # per-point powers are one float, filled in. The fill is the array the
    # per-point power builds because np.power gives a scalar the bits it gives
    # each entry of an array (test_power_of_scalars_matches_array_entries);
    # Python's ** and math.pow do not.
    lo = part.window.lo
    q_window = q.window
    e_sum = 0.0
    for key, runs in part.e_sets.items():
        doubled = dilate(part.intervals[key], 2)
        avg = alpha_average(a, doubled, alpha)
        for run in runs:
            if q_window is None or not q_window.intersects(run):
                e_sum += float(np.full(cardinality(run), np.power(avg, q.p_inf)).sum())
            else:
                e_sum += float(np.power(avg, qv[run.lo - lo : run.hi - lo + 1]).sum())

    A = part.base
    q_m, q_p = q.p_minus, q.p_plus
    c_corr = A**q_m * 2.0 ** ((1.0 - alpha) * q_p)
    c_lit = A**q_m * 2.0 ** (q_p * (alpha - 1.0))
    c_der = (2.0 ** (1.0 - alpha) / t) ** q_p
    slack = 1.0 + 1e-9
    ratio = lhs / e_sum if e_sum > 0 else math.inf
    return DominationReport(
        lhs <= c_corr * e_sum * slack,
        lhs <= c_der * e_sum * slack,
        lhs <= c_lit * e_sum * slack,
        lhs,
        e_sum,
        c_corr,
        c_der,
        c_lit,
        ratio,
        q_m,
        q_p,
        len(part.levels),
        part.window,
    )
