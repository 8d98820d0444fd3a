"""Fractional maximal operator M_alpha on finitely supported sequences.

M_alpha a(n) = sup over intervals I containing n of |I|^(alpha-1) sum_I |a|.
The sup is attained on intervals with endpoints in the support hull, so the
profile over the hull is a finite max over pairs of prefix sums: the left end
among the points (l, P[l]) with l <= n, the right end among (h, P[h]) with
h > n. For a fixed right end the best left end is a vertex of the lower convex
hull of its candidates, and for a fixed left end the best right end is a
vertex of the upper convex hull of its candidates, so the hull profile scores
only (left-vertex x right-vertex) pairs, taken from one persistent monotone
stack per side (_convex_chains). The deeper side's chains are walked one step
at a time for all W points at once, each step scored against the other
side's chains. Inputs whose deepest chains would make that more than W^2
pairs, max(depth_l) * max(depth_r) > W (near-collinear prefix sums), are
swept row by row instead. The chains depend on the prefix sums alone, so
they are built once per Sequence (_hull_chains, cached by identity) and
shared by the evaluators of every alpha.

Outside the hull, at distance d >= 1 from its near end, the candidates are
the intervals from n to each hull index j (counted from that end):
f_j(d) = (d + j + 1)^(alpha-1) * S[j], with S the nondecreasing partial sums
from the near end. For j < k the ratio f_k / f_j grows with d, so two
candidates cross at most once and the best j moves monotonically away from
the near end as d grows: the upper envelope has at most W pieces. The
envelope evaluator takes the distances in ascending order, scores the two
ends of a segment against all candidates, fills the segment from one
candidate when the ends agree, and otherwise scores the midpoint against
only the candidates between the ends' best indices and splits there.
Candidates within a 2^-40 factor of a row's max count as best, so rounding
near a crossing never drops the winner, and every value is the same float
product a dense points x W max would take. Values outside the hull decay
strictly, so a superlevel set has at most one run per side, out to a last
distance read from the closed form for the f_j and settled by the point
values on either side of it (_last_above).

The sets {M_alpha > s} are nested in s, and superlevels takes a whole array
of K thresholds in one pass: one (K, W) comparison of the hull profile and
one (K, W) closed form per side; point() then settles each outer end.
superlevel is the same path with K = 1. Every hull point lies in the whole
hull, whose value V = w[W-1] * P[W] is one of the sweep's floats, so the
profile is at least V everywhere on the hull; when every threshold lies
below V and the profile is not built yet, the hull is inside every set and
the profile is never built.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Sequence, ZInterval, check_coordinates, runs_normalize

__all__ = [
    "MaximalProfile",
    "MaximalEvaluator",
    "alpha_weights",
    "m_alpha_point",
    "m_alpha_profile",
    "superlevel_set",
]

RADIUS_LIMIT = 2**52
# A candidate within this factor of a row's max counts as tied for the max.
# The margin is far wider than the rounding of one power and one product, so
# a candidate left out of a segment's range is strictly below its max.
_NEAR_MAX = 1.0 - 2.0**-40
# A chain point is dropped only when it lies beyond the chord of its
# neighbours by more than this, with prefix sums scaled so that the hull total
# lies in [1/2, 1) (derivation in _convex_chains).
_CHAIN_MARGIN = 2.0**-45


def alpha_weights(max_len: int, alpha: float) -> np.ndarray:
    """Read-only table of |I|^(alpha-1) for lengths 1..max_len."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    w = np.power(np.arange(1, int(max_len) + 1, dtype=np.float64), float(alpha) - 1.0)
    w.flags.writeable = False
    return w


def _scores(d: int, S: np.ndarray, lo: int, hi: int, beta: float) -> np.ndarray:
    """(d + j + 1)^beta * S[j] for the candidates j in [lo, hi] at distance d."""
    lengths = np.arange(d + lo + 1, d + hi + 2).astype(np.float64)
    return np.power(lengths, beta) * S[lo : hi + 1]


def _convex_chains(y: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex chains of the points (i, y[i]) for i = 0, 1, ..., with slack.

    One monotone stack, kept persistent: after point i is pushed the stack is
    the chain i -> pred[i] -> ... of depth[i] points. The stack top b, with
    predecessor a, is popped for the new point c only when b lies above the
    chord from a to c by more than _CHAIN_MARGIN. Returns (pred, depth); the
    bottom of the stack, point 0, is never popped and is its own predecessor.

    Why no dropped point can carry the float max. The hull profile scales
    the prefix sums P by a power of two so that their total T lies in
    [1/2, 1) (exact, as is the sign flip that turns upper chains into lower
    ones), and calls this on y = P[0..W-1] for the left ends and on
    y = -P[W], -P[W-1], ..., -P[1] for the right ends. Take the floats P as
    exact reals, let F(l, h) = (h-l)^(alpha-1) (P[h]-P[l]) be the exact
    interval value and V(l, h) = fl(w[h-l-1] * fl(P[h]-P[l])) the float the
    row sweep and the pair scorer both compute.

    - Domination. For fixed h, {F(., h) >= s} is the region below the convex
      curve x -> P[h] - s (h-x)^(1-alpha). Let q lie above the chord from a
      to c (a < q < c < h) by g. If F(a, h) and F(c, h) were both below
      (1+gamma) F(q, h), then a, c and their chord would lie above the curve
      for s = (1+gamma) F(q, h), which at x = q reads
      P[q] - gamma (P[h]-P[q]); so g < gamma (P[h]-P[q]) <= gamma T. Hence
      g >= gamma T gives max(F(a, h), F(c, h)) >= (1+gamma) F(q, h). For
      right ends the curve x -> P[l] + s (x-l)^(1-alpha) is concave and the
      same steps apply to -P.
    - The exact best left end l* among 0..n for a right end h is never
      dropped (a dropped point is beaten by an earlier or a later point of
      0..n), nor is the best right end h* among n+1..W for l*. So if the
      float max at n sits on a pair (q, h) that was dropped on either side,
      F(l*, h*) >= (1+gamma) F(q, h).
    - Rounding. w[k] is within POW_ULPS = 4 ulps of (k+1)^(alpha-1) (the
      bound norm._bisect assumes), and the subtraction is correctly rounded
      (exactly so when subnormal), so w * fl(P[h]-P[l]) = F (1 + d) with
      |d| < 2^-49.8. Rounding the product is monotone. With gamma = 2^-46,
      (1+gamma)(1-2^-49.8) > 1+2^-49.8, so V(l*, h*) >= V(q, h): the kept
      pairs reach the same float max.
    - The test. cross = (y_b-y_a)(c-a) - (y_c-y_a)(b-a) is g (c-a). Each
      product has magnitude at most T (c-a) < (c-a), and scaling made every
      y exact up to 2^-1075 (underflow only), so the computed cross is within
      2^-50 (c-a) of the exact one. Popping only when it exceeds
      _CHAIN_MARGIN (c-a) = 2^-45 (c-a) leaves g > 2^-46 >= gamma T.
    """
    pred: list[int] = []
    depth: list[int] = []
    stack: list[int] = []
    for c, yc in enumerate(y):
        while len(stack) > 1:
            b, a = stack[-1], stack[-2]
            ya = y[a]
            if (y[b] - ya) * (c - a) - (yc - ya) * (b - a) > _CHAIN_MARGIN * (c - a):
                stack.pop()
            else:
                break
        pred.append(stack[-1] if stack else c)
        stack.append(c)
        depth.append(len(stack))
    return np.array(pred, dtype=np.int64), np.array(depth, dtype=np.int64)


def _steps(pred: np.ndarray, starts: np.ndarray, count: int):
    """The chains from each start, one step per yield for count steps; a
    chain that has ended repeats its last point, its own predecessor."""
    cur = starts
    for _ in range(count):
        yield cur
        cur = pred[cur]


def _sweep_profile(P: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The hull profile with one row of W - l interval values per left end l."""
    W = P.size - 1
    out = np.full(W, -np.inf)
    for lo in range(W):
        row = w[: W - lo] * (P[lo + 1 :] - P[lo])
        # suffix max over hi >= n for this lo
        suff = np.maximum.accumulate(row[::-1])[::-1]
        np.maximum(out[lo:], suff, out=out[lo:])
    return out


def _hull_chains(P: np.ndarray) -> tuple[np.ndarray, int, np.ndarray, int] | None:
    """The left and right convex chains of the hull with prefix sums P, as
    (pred_l, max depth_l, pred_r, max depth_r), or None when scoring their
    pairs would take more than W^2 scores, max(depth_l) * max(depth_r) > W,
    and the hull is swept instead. The chains depend on P alone, not on
    alpha."""
    W = P.size - 1
    y = np.ldexp(P, -int(np.frexp(P[-1])[1]))
    pred_l, depth_l = _convex_chains(y[:W].tolist())
    # right ends h = W, W-1, ..., 1 at positions 0..W-1; point n starts at W-1-n
    pred_r, depth_r = _convex_chains((-y[:0:-1]).tolist())
    deep_l, deep_r = int(depth_l.max()), int(depth_r.max())
    if deep_l * deep_r > W:
        return None
    return pred_l, deep_l, pred_r, deep_r


# _hull_chains per sequence, shared by the evaluators of every alpha. A
# Sequence is frozen and compares by identity, so an entry lives as long as
# its sequence and no longer.
_CHAINS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _pair_profile(P: np.ndarray, w: np.ndarray, chains) -> np.ndarray:
    """The hull profile as a max over the (left-chain x right-chain) pairs of
    each point, from the chains of _hull_chains, or the row sweep when those
    are None.

    The deeper side's chains are walked one step at a time for all W points
    at once, each step scored against one (shallower depth, W) array of the
    other side's chains with the row sweep's float w[h-l-1] * (P[h]-P[l]);
    an ended chain repeats its last point, which only re-scores a pair. Under
    the rule max(depth_l) * max(depth_r) <= W the shallower depth is at most
    sqrt(W), so the temporaries hold min(depth_l, depth_r) * W <= W**1.5
    scores.
    """
    if chains is None:
        return _sweep_profile(P, w)
    pred_l, deep_l, pred_r, deep_r = chains
    W = P.size - 1
    ns = np.arange(W)
    out = np.full(W, -np.inf)
    if deep_l >= deep_r:
        his = W - np.array(list(_steps(pred_r, W - 1 - ns, deep_r)))
        P_his = P[his]
        for lo in _steps(pred_l, ns, deep_l):
            np.maximum(out, (w[his - lo - 1] * (P_his - P[lo])).max(axis=0), out=out)
    else:
        los = np.array(list(_steps(pred_l, ns, deep_l)))
        P_los = P[los]
        for hi in _steps(pred_r, W - 1 - ns, deep_r):
            hi = W - hi
            np.maximum(out, (w[hi - los - 1] * (P[hi] - P_los)).max(axis=0), out=out)
    return out


def _validate_alpha(alpha: float) -> float:
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    return float(alpha)


@dataclass(frozen=True)
class MaximalProfile:
    """Values of M_alpha a on a window of consecutive integers."""

    window: ZInterval
    values: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


class MaximalEvaluator:
    """Shared state for repeated M_alpha evaluations of one sequence.

    Holds the support hull, its prefix sums, and (lazily) the weight table
    and the hull profile, built from the chains shared per sequence; point
    values, window profiles, and superlevel runs all reuse them, so the
    same float formula backs every access path.
    """

    def __init__(self, a: Sequence, alpha: float):
        self.alpha = _validate_alpha(alpha)
        self.a = a
        hull = a.support_hull()
        self.hull = hull
        if hull is None:
            self._vals = np.zeros(0)
            self._P = np.zeros(1)
        else:
            self._vals = a.values[hull.lo - a.offset : hull.hi - a.offset + 1]
            self._P = np.concatenate([[0.0], np.cumsum(self._vals)])
        W = self._vals.size
        # partial sums from the near end of the hull, per side
        self._S_left = self._P[1:]
        self._S_right = (self._P[-1] - self._P[:W])[::-1].copy()
        self._hull_profile: np.ndarray | None = None

    @property
    def total(self) -> float:
        return float(self._P[-1])

    def reach(self, s: float, cap: int) -> int:
        """ceil((total/s)^(1/(1-alpha))), capped at cap. At that distance
        from the hull or more, M_alpha a <= s up to rounding; as alpha -> 1
        the power overflows, and the radius is the cap. A threshold below the
        smallest normal float is rejected, not capped: M_alpha underflows."""
        if not (s >= sys.float_info.min):
            raise ValueError(f"threshold {s!r} is below the smallest normal float: M_alpha a underflows")
        try:
            return min(cap, math.ceil((self.total / s) ** (1.0 / (1.0 - self.alpha))))
        except OverflowError:
            return cap

    @cached_property
    def _weights(self) -> np.ndarray:
        return alpha_weights(self._vals.size, self.alpha)

    def _profile_on_hull(self) -> np.ndarray:
        if self._hull_profile is None:
            if self.a not in _CHAINS:
                _CHAINS[self.a] = _hull_chains(self._P)
            self._hull_profile = _pair_profile(self._P, self._weights, _CHAINS[self.a])
        return self._hull_profile

    def max_value(self) -> float:
        if self.hull is None:
            return 0.0
        return float(self._profile_on_hull().max())

    def _envelope(self, ds: np.ndarray, S: np.ndarray) -> np.ndarray:
        """max_j (d + j + 1)^(alpha-1) * S[j] for ascending distances ds >= 1.

        A segment of ds carries the first near-best candidate at its left end
        and the last one at its right end; by the monotone argmax, no other
        candidate can win strictly inside it. Segments are split at the
        midpoint (explicit stack) until their two candidates agree.
        """
        beta = self.alpha - 1.0
        vals = np.empty(ds.size)

        def score(i: int, lo: int, hi: int) -> tuple[int, int]:
            row = _scores(int(ds[i]), S, lo, hi, beta)
            best = row.max()
            vals[i] = best
            near = np.flatnonzero(row >= best * _NEAR_MAX)
            return lo + int(near[0]), lo + int(near[-1])

        last = ds.size - 1
        first_lo, hi = score(0, 0, S.size - 1)
        if last > 0:
            _, hi = score(last, 0, S.size - 1)
        stack = [(0, last, first_lo, hi)]
        while stack:
            i, k, lo, hi = stack.pop()
            if k - i < 2:
                continue
            if lo == hi:
                lengths = (ds[i + 1 : k] + (lo + 1)).astype(np.float64)
                vals[i + 1 : k] = np.power(lengths, beta) * S[lo]
                continue
            m = (i + k) // 2
            lo_m, hi_m = score(m, lo, hi)
            stack.append((i, m, lo, hi_m))
            stack.append((m, k, lo_m, hi))
        return vals

    def point(self, n: int) -> float:
        hull = self.hull
        if hull is None:
            return 0.0
        if hull.contains(n):
            return float(self._profile_on_hull()[n - hull.lo])
        if n < hull.lo:
            d, S = hull.lo - n, self._S_left
        else:
            d, S = n - hull.hi, self._S_right
        return float(_scores(d, S, 0, S.size - 1, self.alpha - 1.0).max())

    def profile(self, window: ZInterval) -> np.ndarray:
        check_coordinates(window.lo, window.hi, "profile window")
        out = np.zeros(window.hi - window.lo + 1)
        hull = self.hull
        if hull is None:
            return out
        ns = np.arange(window.lo, window.hi + 1)
        inside = (ns >= hull.lo) & (ns <= hull.hi)
        if inside.any():
            hp = self._profile_on_hull()
            out[inside] = hp[ns[inside] - hull.lo]
        left = ns < hull.lo
        if left.any():
            out[left] = self._envelope(hull.lo - ns[left][::-1], self._S_left)[::-1]
        right = ns > hull.hi
        if right.any():
            out[right] = self._envelope(ns[right] - hull.hi, self._S_right)
        return out

    def _last_above(self, ss: np.ndarray, right: bool) -> np.ndarray:
        """Per threshold s of ss, the largest d >= 0 with M_alpha > s at
        distances 1..d from the hull on the given side. The candidate ending
        at hull index j (from the near end) has length d + j + 1 and exceeds s
        up to length ceil((S[j]/s)^(1/(1-alpha))) - 1, so one (K, W) power
        estimates every d. That closed form is exact in real arithmetic; its
        rounding put d one step off at 4 of the 5,775 run ends of default
        verify, so the point values at d and d + 1 settle each estimate.
        """
        hull = self.hull
        S, end, step = (self._S_right, hull.hi, 1) if right else (self._S_left, hull.lo, -1)
        with np.errstate(over="ignore"):
            reach = np.power(S / ss[:, None], 1.0 / (1.0 - self.alpha))
        if float(reach.max()) > RADIUS_LIMIT:
            raise ValueError("superlevel radius exceeds 2**52")
        d = np.maximum((np.ceil(reach).astype(np.int64) - np.arange(2, S.size + 2)).max(axis=1), 0)
        for k, (s, dk) in enumerate(zip(ss.tolist(), d.tolist())):
            while dk > 0 and not self.point(end + step * dk) > s:
                dk -= 1
            while self.point(end + step * (dk + 1)) > s:
                dk += 1
            d[k] = dk
        return d

    def superlevels(self, ss) -> list[list[ZInterval]]:
        """Runs of {n : M_alpha a(n) > s} for each threshold s > 0 of ss, in
        the order given: one (K, W) comparison of the hull profile, with the
        run edges of every threshold from one diff, and the outer ends of
        every threshold from one closed form per side (_last_above)."""
        ss = np.asarray(ss, dtype=np.float64).reshape(-1)
        if not np.all(ss > 0.0):
            raise ValueError("threshold must be positive")
        hull = self.hull
        if hull is None or ss.size == 0:
            return [[] for _ in range(ss.size)]
        if self._hull_profile is None and self._weights[-1] * self._P[-1] > ss.max():
            # every hull point lies in the whole hull, whose float the sweep
            # scores and the pair path reaches, so the profile is >= it there
            runs = [[hull] for _ in range(ss.size)]
        else:
            mask = (self._profile_on_hull() > ss[:, None]).astype(np.int8)
            edges = np.diff(mask, axis=1, prepend=0, append=0)
            rows, starts = np.nonzero(edges == 1)
            _, stops = np.nonzero(edges == -1)
            runs = [[] for _ in range(ss.size)]
            for k, lo, hi in zip(rows.tolist(), starts.tolist(), stops.tolist()):
                runs[k].append(ZInterval(hull.lo + lo, hull.lo + hi - 1))
        left, right = self._last_above(ss, right=False), self._last_above(ss, right=True)
        for k, (dl, dr) in enumerate(zip(left.tolist(), right.tolist())):
            if dl:
                runs[k].append(ZInterval(hull.lo - dl, hull.lo - 1))
            if dr:
                runs[k].append(ZInterval(hull.hi + 1, hull.hi + dr))
            runs[k] = runs_normalize(runs[k])
        return runs

    def superlevel(self, s: float) -> list[ZInterval]:
        """Runs of {n : M_alpha a(n) > s} for s > 0."""
        return self.superlevels([s])[0]


def m_alpha_point(a: Sequence, alpha: float, n: int) -> float:
    """M_alpha a(n) at a single point."""
    return MaximalEvaluator(a, alpha).point(n)


def m_alpha_profile(a: Sequence, alpha: float, window: ZInterval) -> MaximalProfile:
    """M_alpha a on every point of the window."""
    ev = MaximalEvaluator(a, alpha)
    return MaximalProfile(window, ev.profile(window), ev.alpha)


def superlevel_set(a: Sequence, alpha: float, s: float) -> list[ZInterval]:
    """{M_alpha a > s} as sorted disjoint interval runs."""
    return MaximalEvaluator(a, alpha).superlevel(s)
