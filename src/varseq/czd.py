"""Dyadic stopping-time decomposition for the fractional averaging operator.

For a finite threshold t > 0, the top level N_t is the smallest N >= 1
such that every dyadic block at every level >= N has alpha-average <= t.
(For alpha = 0 the averages are monotone under merging, so this equals the
first fully light level; for alpha > 0 the stronger rule is required for
the covering bound.)
The block averages do not depend on t, so one table per (sequence, alpha)
holds them, a row per level 0..62 over the blocks meeting the support hull,
and each threshold's decomposition is a cut of it: the maximal blocks below
N_t with average above t, sorted and disjoint, with averages in
(t, 2^(1-alpha) t]. The block sums are alpha-free too: one range_sums call
per sequence (a.dyadic_rows) sums every row. Coordinates lie within +-2^61,
so from level 62 up the hull meets only blocks 0 and 1, each holding the
hull's whole side of 0|1: a higher level keeps the sums and shrinks the
factor. N_t is then read off the rows by its definition: one more than the
last level with an average above t, or 1; a heavy level 62 raises
ValueError.

The level-set partition cuts the window profile of M_alpha at the rungs
base^k, base = 9t, from the top rung (max M_alpha, where the set is empty)
to the first rung whose set is the whole window (min M_alpha). Both ends
are read off the profile before any rung is cut; a ladder of more than
100,000 rungs (t too close to 1/9) raises ValueError. _shells gives every
point its entering rung, the smallest k with M_alpha > base^(k+1). The K
rung floats base ** (k+1), by Python's **, the floats of a per-rung
comparison, fall in k (or repeat, among subnormals), so reversed they are
sorted and the rungs below a point's value are the last ones: the entering
rung is k_top + K minus their count, by the same strict comparisons. In the
hull a rank pass counts them: one searchsorted of the points into the rung
floats, and one comparison of neighbours cuts the hull into maximal
segments of one entering rung. Outside the hull M_alpha only decays away
from it. Once one comparison pass finds that a side's floats do not fall
toward the hull, one searchsorted of the K rung floats into the side finds
where each rung's points begin, and the entering rung changes only there:
O(K log N) in place of N searches and an N-long comparison. A side that
fails the check takes the rank pass. Segments of one entering rung that
meet at a side's edge join, so each shell's runs come out sorted, disjoint
and non-adjacent, and the window is passed over a fixed number of times,
not once per rung. A rung that no point enters shares the previous rung's
run list in omega and is not decomposed.
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
    cardinality,
    dilate,
    dyadic_block,
    interval_sum,
    runs_count,
    runs_intersect,
    runs_normalize,
    runs_subtract,
    runs_union,
    weight,
)
from .maximal import MaximalEvaluator

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
    return float(weight(float(cardinality(interval)), alpha)) * interval_sum(a, interval)


@dataclass(frozen=True)
class CZDecomposition:
    """Selected intervals with their averages, plus the top level n_t."""

    t: float
    alpha: float
    intervals: list[ZInterval]
    averages: list[float]
    n_t: int


class _DyadicTable:
    """Row L: the averages of the level-L blocks meeting the hull, weight(2^L)
    times the block sums in one product; an array power has the bits of
    scalar ones (test_power_of_scalars_matches_array_entries)."""

    def __init__(self, a: Sequence, alpha: float):
        self.alpha = check_alpha(alpha)
        self.hull = a.support_hull()
        if self.hull is not None:  # decompose rejects a zero sequence
            self._starts, self._firsts, sums = a.dyadic_rows
            factors = weight(np.ldexp(1.0, np.arange(63)), self.alpha)
            self._avgs = np.repeat(factors, np.diff(self._starts)) * sums
            self._peaks = np.maximum.reduceat(self._avgs, self._starts[:-1])

    def top_level(self, t: float) -> int:
        """N_t (module docstring), from each row's largest average."""
        heavy = np.flatnonzero(self._peaks > t)
        n_t = int(heavy[-1]) + 1 if heavy.size else 1
        if n_t > 62:
            raise ValueError("threshold too small for the dyadic level search")
        return n_t

    def decompose(self, t: float) -> CZDecomposition:
        """Cut at t: the blocks below level n_t with average above t whose
        ancestors below n_t are not, sorted by left end."""
        if not (t > 0.0):
            raise ValueError("threshold t must be positive")
        if math.isinf(t):
            raise ValueError("threshold t must be finite")
        if self.hull is None:
            raise ValueError("sequence must not be identically zero")
        n_t = self.top_level(t)
        starts, firsts = self._starts, self._firsts
        covered = np.zeros(starts[n_t + 1] - starts[n_t], dtype=bool)
        found: list[tuple[ZInterval, float]] = []
        for level in range(n_t - 1, -1, -1):
            avgs = self._avgs[starts[level] : starts[level + 1]]
            js = np.arange(firsts[level], firsts[level] + avgs.size)
            # block j sits under block ceil(j/2) one level up
            covered = covered[-((-js) // 2) - firsts[level + 1]]
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
    # a NaN loses every comparison, so it is cut (and rejected) either way
    t_hi, t_lo = (t1, t2) if t1 >= t2 else (t2, t1)
    table = _DyadicTable(a, alpha)
    d_hi = table.decompose(t_hi)
    d_lo = table.decompose(t_lo)
    lows = [r.lo for r in d_lo.intervals]
    failures = 0
    for r in d_hi.intervals:
        k = bisect.bisect_right(lows, r.lo) - 1
        if k < 0 or not d_lo.intervals[k].contains_interval(r):
            failures += 1
    count_hi, count_lo = runs_count(d_hi.intervals), runs_count(d_lo.intervals)
    ok = failures == 0 and d_hi.n_t <= d_lo.n_t and count_hi <= count_lo
    return NestingReport(ok, t_hi, t_lo, d_hi.n_t, d_lo.n_t, failures, count_hi, count_lo)


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


def selected_average_bound(alpha: float, t: float) -> float:
    """2^(1-alpha) t, the largest average a cut at t selects, with a relative
    slack of 1e-12 for rounding."""
    return float(2.0 ** (1.0 - alpha)) * t * (1 + 1e-12)


def covering_check(a: Sequence, alpha: float, t: float) -> CoveringReport:
    """Verify {M_alpha a > 9t} is covered by the doubled selected intervals,
    and that selected averages obey avg <= 2^(1-alpha) t."""
    d = cz_decompose(a, alpha, t)
    s = COVERING_FACTOR * d.t
    if math.isinf(s):  # the check would pass vacuously
        raise ValueError(f"covering threshold 9t overflows at t = {t!r}")
    doubled = runs_normalize([dilate(r, 2) for r in d.intervals])
    sup = MaximalEvaluator(a, alpha).superlevel(s)
    uncovered = runs_subtract(sup, doubled)
    avgs = d.averages
    top = max(avgs, default=0.0)
    bound_ok = top <= selected_average_bound(alpha, t)
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


def _heads(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a non-empty a that differ from the one before
    (np.unique would import numpy.ma, half a megabyte)."""
    return np.concatenate(([True], a[1:] != a[:-1]))


def _rank_runs(x: np.ndarray, ascending: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and entering rungs of the maximal runs of x that enter one
    rung, by one rank per point (module docstring); top is k_top + K."""
    entry = top - np.searchsorted(ascending, x, side="left")
    starts = np.flatnonzero(_heads(entry))
    return starts, entry[starts]


def _search_runs(x: np.ndarray, ascending: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """_rank_runs of an x that does not fall, by one search per rung: the
    points above rung float j are those from first[j] on, so a point's rank
    is the number of firsts at or before it, and it changes only at a
    first."""
    first = np.searchsorted(x, ascending, side="right")
    starts = np.concatenate(([0], first[first < x.size]))
    starts = starts[_heads(starts)]
    return starts, top - np.searchsorted(first, starts, side="right")


def _shells(
    m: np.ndarray, rung_floats: list[float], k_top: int, lo: int, hull: ZInterval
) -> dict[int, list[ZInterval]]:
    """Shell k of the ladder for each rung k that some point enters, from the
    window profile m, whose entry 0 is point lo; rung_floats[i] is
    base ** (k_top + i + 1). The hull takes the rank pass of the module
    docstring; a side outside it that does not fall toward the hull takes
    one search per rung from _search_runs, the left side as it is and the
    right side reversed, and any other side the rank pass."""
    ascending = np.array(rung_floats[::-1])
    top = k_top + ascending.size
    i0, i1 = hull.lo - lo, hull.hi - lo + 1
    starts, entries = [], []
    for first, stop, where in ((0, i0, "left"), (i0, i1, "hull"), (i1, m.size, "right")):
        x = m[first:stop]
        if not x.size:
            continue
        if where == "left" and np.all(x[:-1] <= x[1:]):
            s, e = _search_runs(x, ascending, top)
        elif where == "right" and np.all(x[:-1] >= x[1:]):
            s, e = _search_runs(x[::-1], ascending, top)
            # run [s, t] of the reversed side is [n-1-t, n-1-s]
            s, e = (x.size - np.append(s[1:], x.size))[::-1], e[::-1]
        else:
            s, e = _rank_runs(x, ascending, top)
        starts.append(s + first)
        entries.append(e)
    starts, entries = np.concatenate(starts), np.concatenate(entries)
    # runs of one entering rung that meet across a side's edge join
    keep = _heads(entries)
    starts, entries = starts[keep], entries[keep]
    his = np.append(starts[1:], m.size) + (lo - 1)
    shells: dict[int, list[ZInterval]] = {}
    for k, first, last in zip(entries.tolist(), (starts + lo).tolist(), his.tolist()):
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
    shells = _shells(m, rung_floats, k_top, window.lo, hull)

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
