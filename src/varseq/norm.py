"""Modular and Luxemburg norm for variable-exponent sequence spaces.

The modular is rho(a) = sum |a(k)|^p(k); the norm is the Luxemburg gauge
inf{lam > 0 : rho(a/lam) <= 1}, computed by bisection on a certified bracket.
A few Newton steps on log rho in log lam, each an exact evaluation checked
against a proven rounding bound, certify a narrower bracket around the root.
Midpoints outside it are decided without evaluating the modular, so every
returned bit is that of evaluating each midpoint, at about 6 modular passes
per norm instead of about 45: about 5.9 in the Newton steps, and on default
verify 0.08 plain passes per Luxemburg norm (169 for 2,061 norms over seeds
20260814, 7 and 1) and 0.18 per indicator norm (1,508 for 8,424). The
bound counts the roundings of numpy's pairwise sum, not of the worst order,
so few midpoints fall between the certified ends. A norm returns no modular:
a caller that wants rho at the norm calls modular. _bisect holds the proof
and the bound, including luxemburg_norm's tail (the terms outside p's window,
summed once) and characteristic_norms' batch (one evaluator call per Newton
step for a whole set of indicator norms: about 5.5 calls per grid and 0.16
plain passes per norm on a 40-norm weak-type grid).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence as PySequence

import numpy as np

from .exponent import ExponentFunction
from .lattice import Sequence, ZInterval, runs_count, runs_intersect

__all__ = [
    "NormValue",
    "modular",
    "luxemburg_norm",
    "characteristic_norm",
    "characteristic_norms",
    "check_scaling_bounds",
    "check_norm_modular_relations",
    "ScalingReport",
    "NormModularReport",
]

MAX_BISECT_ITER = 200
# Assumed error bound of numpy's float64 power, in ulps of the result.
POW_ULPS = 4
# Newton steps that _bracket may take before it gives up on certifying.
NEWTON_STEPS = 8
# Relative and absolute slack of the scaling and norm-modular checks.
_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class NormValue:
    """Luxemburg norm with the bisection's tolerance and iteration count."""

    value: float
    tolerance: float
    iterations: int


def modular(a: Sequence, p: ExponentFunction, lam: float = 1.0) -> float:
    """rho(a/lam) = sum_k (|a(k)|/lam)^p(k); entries outside the exponent
    window use p_inf. luxemburg_norm's bisection calls it at each midpoint it
    evaluates, so this 1-D pairwise sum is the one that _bisect's rounding
    bound covers."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    win = a.window
    if win is None:
        return 0.0
    return float(np.power(a.values / lam, p.values_on(win)).sum())


def _rounding_bound(chain: int, p_plus: float) -> float:
    """eps = 2 n u with n = chain + ceil(p_plus) + 2 POW_ULPS: the relative
    error bound of a computed modular whose terms each pass through at most
    `chain` roundings after their pow (derivation in _bisect)."""
    return 2.0 * (chain + math.ceil(p_plus) + 2 * POW_ULPS) * 2.0**-53


# numpy's pairwise sum: blocks of at most this many terms are added directly.
_PAIRWISE_BLOCK = 128


@functools.lru_cache(maxsize=1024)  # a few sizes per split level
def _sum_chain(n: int) -> int:
    """The most roundings a term passes through when numpy sums a 1-D float64
    array of n terms (pairwise_sum in numpy's loops_utils.h.src). Under 8
    terms, one running sum: n - 1. Up to 128, 8 accumulators take every
    eighth term, n // 8 - 1 adds each, a three-level tree joins them, and
    the last n % 8 terms add one by one. Longer arrays split at n // 2
    rounded down to a multiple of 8, and the halves' sums add once more.
    The reduction starts from 0.0, which adds exactly."""
    if n < 8:
        return max(n - 1, 0)
    if n <= _PAIRWISE_BLOCK:
        return n // 8 - 1 + 3 + n % 8
    half = n // 2 - (n // 2) % 8
    return 1 + max(_sum_chain(half), _sum_chain(n - half))


def _bracket(
    mods: Callable, lo: list[float], hi: list[float], eps: float
) -> tuple[list[float], list[float]]:
    """Certified (A[i], B[i]) for each row i of a batch: every lam <= A[i]
    has row i's modular > 1.0 and every lam >= B[i] has it <= 1.0 (proof in
    _bisect); -inf and inf where no evaluation certifies, and for the rows
    with hi <= lo, which are never evaluated.

    mods(lams, rows) returns the modulars m of rows[j] at lams[j], each
    computed within eps of the exact modular, and the sums sum_i p_i t_i of
    their terms t_i.

    Per row, Newton steps on log m in log lam start at lo. log m is convex
    and decreasing there, so the iterates approach the root from the left.
    A step is log m / P, where P = -d log m / d log lam = sum_i p_i t_i / m
    is the term-weighted mean exponent. Once a step falls below delta / 4,
    with delta = 8 eps / P, the next iterate r is not evaluated; two
    evaluations at r (1 -+ delta) bracket the root instead. Every live row
    takes its step in one mods call, and the end pairs of all rows that
    broke out are evaluated in one more: at most NEWTON_STEPS + 1 calls, at
    most NEWTON_STEPS + 2 evaluations of each row, and only evaluated points
    certify: A needs m(A) > 1 + 3 eps, B needs m(B) <= 1 - 3 eps.
    """
    A, B = [-math.inf] * len(lo), [math.inf] * len(lo)
    above, below = 1.0 + 3.0 * eps, 1.0 - 3.0 * eps

    def certify(i: int, lam: float, m: float) -> None:
        if m > above:
            A[i] = max(A[i], lam)
        elif m <= below:
            B[i] = min(B[i], lam)

    live = [i for i in range(len(lo)) if hi[i] > lo[i]]
    lams = [lo[i] for i in live]
    end_rows: list[int] = []
    end_lams: list[float] = []
    for _ in range(NEWTON_STEPS):
        if not live:
            break
        ms, weighted = mods(lams, live)
        rows, at = live, lams
        live, lams = [], []
        for i, lam, m, w in zip(rows, at, ms, weighted):
            certify(i, lam, m)
            if not m > 0.0:
                continue
            slope = w / m
            step = math.log(m) / slope
            lam = min(max(lam * math.exp(step), lo[i]), hi[i])
            delta = 8.0 * eps / slope
            if abs(step) <= 0.25 * delta:
                end_rows += (i, i)
                end_lams += (lam * (1.0 - delta), lam * (1.0 + delta))
            else:
                live.append(i)
                lams.append(lam)
    if end_rows:
        for i, x, m in zip(end_rows, end_lams, mods(end_lams, end_rows)[0]):
            certify(i, x, m)
    return A, B


def _bisect(mod_at: Callable, lo: float, hi: float, rel_tol: float, A: float, B: float) -> NormValue:
    """inf{lam : mod_at(lam) <= 1} by bisection of [lo, hi], where mod_at > 1
    below lo and <= 1 at hi; lo itself when hi <= lo.

    Each midpoint moves lo when mod_at(mid) > 1.0 and hi otherwise. A
    midpoint <= A or >= B of the certified bracket from _bracket is decided
    without evaluating mod_at, and every other midpoint is evaluated as
    before. So the midpoints, the iteration count and every returned bit are
    those of the plain loop.

    A midpoint equal to lo or hi (adjacent floats, only among subnormals:
    rel_tol >= 2^-52 stops normal ones first) returns hi, modular <= 1.

    Why the bracket decides the test. Let m(lam) = sum_i (v_i / lam)^p_i be
    the exact modular of the float inputs; v_i >= 0 and p_i >= 1 make it
    strictly decreasing. Suppose the computed value obeys
    |fl_m - m| <= eps m + eta. If fl_m(A) > 1 + 3 eps, then for lam <= A,
        fl_m(lam) >= (1 - eps) m(A) - eta
                  >  (1 - eps)(1 + 3 eps - eta) / (1 + eps) - eta > 1,
    because (1 - eps)(1 + 3 eps) - (1 + eps) = eps - 3 eps^2 > 0 leaves a
    slack of about eps; likewise fl_m(B) <= 1 - 3 eps gives fl_m(lam) <= 1
    for lam >= B. These tests imply fl_m(A) > (1 + eps) / (1 - eps) and
    fl_m(B) <= (1 - eps) / (1 + eps); 3 eps = 6 n u is exact, and rounding
    1 -+ 3 eps moves it by at most u <= eps / 18.

    Batched certificates. The certificate may come from another evaluator
    of the same exact modular, fl_b, with its own bound eps_b, as long as
    eps_b >= eps: fl_b(A) > 1 + 3 eps_b gives m(A) > (1 + 3 eps_b) /
    (1 + eps_b), so fl_m(lam) >= (1 - eps) m(A) - eta
    >= (1 - eps_b)(1 + 3 eps_b) / (1 + eps_b) - eta > 1 for lam <= A, and
    likewise for B. characteristic_norms certifies all its rows with one
    evaluator over the W window points that span every set's inner points,
    each row's terms masked to zero outside its set. Zeros add exactly, so
    each of a row's terms still passes through at most W - 1 roundings in
    the masked sum, and that evaluator's chain max(W, 3) is at least each
    row's max(n_inner, 3).

    The bound eps, with u = 2^-53 and gamma_n = n u / (1 - n u):
    - the division v_i / lam, or the reciprocal 1 / lam, rounds once, to
      (1 + d) times the exact quotient with |d| <= u;
    - raising to p multiplies the argument error into (1 + d)^p, within
      gamma_ceil(p) of 1: the error grows by a factor of p;
    - pow itself is assumed within POW_ULPS = 4 ulps of the exact power, a
      relative error of at most 2 POW_ULPS u. numpy dispatches float64
      power on AVX-512 machines to SVML, whose documented bound is 4 ulps,
      and elsewhere to the C library's pow (glibc: under 1 ulp); 20,000
      random powers with bases in [1e-12, 1] and exponents in [1, 38],
      checked against 200-bit arithmetic, stayed within 0.65 ulp;
    - a sum of N non-negative terms puts each term through at most N - 1
      roundings in any order, a matrix product with a row of ones included,
      a factor within gamma_(N-1). numpy's 1-D float64 sum adds in one fixed
      pairwise tree, which puts each term through at most _sum_chain(N)
      roundings: 19 at N = 17,624 (test_numpy_sum_is_the_pairwise_tree
      pins the order). luxemburg_norm's modular is such a sum, so its chain
      is _sum_chain(N);
    - characteristic_norm adds outside * lam^-p_inf: converting the count
      to float, the product and the final add are three roundings on that
      term, and the final add is one more on the inner sum, so its chain is
      max(n_inner, 3). Its batch sums by a matrix product, so it keeps the
      any-order bound; its W is the exponent window, a few dozen points on
      the corpora.
    - luxemburg_norm's bracket evaluator, when some of the N window points
      lie outside p's window, sums their n_tail terms once, T = sum
      (v_i/lo)^p_inf with lo = max v_i (so every base is at most 1), and
      adds fl(lo/lam)^p_inf * T to the 1-D sum of the n_inner inner terms.
      A tail term then passes through its first division and pow
      (ceil(p_inf) + 2 POW_ULPS, like any term), at most _sum_chain(n_tail)
      roundings in T, the second division and pow (ceil(p_inf) + 2 POW_ULPS
      more), the product and the final add; an inner term through its
      division, pow, at most _sum_chain(n_inner) roundings and the final
      add. So chain = max(_sum_chain(N), _sum_chain(n_inner),
      _sum_chain(n_tail)) + ceil(p_plus) + 2 POW_ULPS + 2 covers both and the
      plain modular (_sum_chain need not grow with its argument, hence the
      max), and its eps_b >= eps certifies for the plain modular by the
      batched-certificate argument above. Its slope weights may come from
      any product: only the modular certifies.
    Factors within gamma_a and gamma_b multiply to within gamma_(a+b)
    (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.3), so
    |fl_m - m| <= gamma_n m with n = chain + ceil(p_plus) + 2 POW_ULPS, and
    gamma_n <= 2 n u = eps while n u <= 1/2, which holds for any array that
    fits in memory. Underflow breaks the relative bounds only for terms
    below 2^-1022, whose absolute errors sum to eta < 2^-900, far inside the
    slack. Overflow cannot occur: every evaluation is at lam >= lo (1 - delta)
    and both brackets start at lo >= max v_i, so no base exceeds 1 + delta.
    The same holds for the tail: a term (v_i/lo)^p_inf that underflows is
    off by at most 2^-1072 and is scaled by (lo/lam)^p_inf < 2, and an
    underflowed factor (lo/lam)^p_inf is off by at most 2^-1072 and scales
    T <= N, so both add well under 2^-900 to eta.
    """
    if hi <= lo:
        return NormValue(lo, rel_tol, 0)
    it = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == math.inf:  # lo + hi overflowed; halving a normal float is exact
            mid = 0.5 * lo + 0.5 * hi
        if it >= MAX_BISECT_ITER or (hi - lo) <= rel_tol * hi:
            return NormValue(mid, rel_tol, it)
        if mid == lo or mid == hi:
            return NormValue(hi, rel_tol, it)
        if mid <= A or (mid < B and mod_at(mid) > 1.0):
            lo = mid
        else:
            hi = mid
        it += 1


def _check_rel_tol(rel_tol: float) -> None:
    """A rel_tol below 2^-52, the relative spacing of the floats, can never
    be met: the bracket collapses to adjacent floats first."""
    if not (2.0**-52 <= rel_tol < math.inf):
        raise ValueError(f"rel_tol must be positive and finite, and at least 2**-52 (got {rel_tol!r})")


def luxemburg_norm(a: Sequence, p: ExponentFunction, rel_tol: float = 1e-12) -> NormValue:
    """Luxemburg norm by bisection.

    The bracket [max|a|, max(max|a|, sum|a|)] is certified: below the max
    some ratio exceeds 1 so the modular exceeds 1; at the total sum every
    ratio is <= 1 and p >= 1 gives modular <= 1.
    """
    _check_rel_tol(rel_tol)
    win = a.window
    if win is None or a.is_zero():
        return NormValue(0.0, rel_tol, 0)
    pv = p.values_on(win)
    v = a.values
    lo = a.max_value()
    hi = max(lo, a.total())
    # the window points inside p's window are v[i0:i1]; the rest take p_inf
    i0 = min(max(p.window_lo - win.lo, 0), v.size)
    i1 = max(min(p.window_lo + p.values.size - win.lo, v.size), i0)
    inner, inner_pv = v[i0:i1], pv[i0:i1]
    n_tail = v.size - inner.size
    chain, tail, p_inf = max(_sum_chain(v.size), _sum_chain(inner.size)), 0.0, p.p_inf
    if n_tail:
        # the tail's terms are (lo/lam)^p_inf (v_i/lo)^p_inf, summed once
        # here (derivation in _bisect)
        tail = float(np.power(np.concatenate([v[:i0], v[i1:]]) / lo, np.float64(p_inf)).sum())
        if tail:
            chain = max(chain, _sum_chain(n_tail)) + math.ceil(p.p_plus) + 2 * POW_ULPS + 2

    def mods(lams: list[float], rows: list[int]):
        ms, weighted = [], []
        for lam in lams:
            m = w = 0.0
            if inner.size:
                # the modular by numpy's pairwise sum, as the chain assumes
                terms = np.power(inner / lam, inner_pv)
                m, w = float(terms.sum()), float(inner_pv @ terms)
            if tail:
                t = tail * math.pow(lo / lam, p_inf)
                m, w = m + t, w + p_inf * t
            ms.append(m)
            weighted.append(w)
        return ms, weighted

    eps = _rounding_bound(chain, p.p_plus)
    (A,), (B,) = _bracket(mods, [lo], [hi], eps)
    return _bisect(functools.partial(modular, a, p), lo, hi, rel_tol, A, B)


def characteristic_norm(
    runs: PySequence[ZInterval], p: ExponentFunction, rel_tol: float = 1e-12
) -> NormValue:
    """Luxemburg norm of the indicator of a run set, without enumerating it:
    characteristic_norms of that one set."""
    return characteristic_norms([runs], p, rel_tol)[0]


# Float entries in one block of characteristic_norms' batched evaluator.
_BLOCK_ENTRIES = 2**20


def characteristic_norms(
    sets: PySequence[PySequence[ZInterval]], p: ExponentFunction, rel_tol: float = 1e-12
) -> list[NormValue]:
    """Luxemburg norms of the indicators of several run sets, each without
    enumerating its set, and each bit for bit the norm of that set alone.

    Indices inside the exponent window contribute explicit powers; the rest
    contribute count * lam^(-p_inf), so arbitrarily large sets stay
    O(window). One (K, W) mask marks the window points each set holds,
    over the W <= W_p window points from the first to the last that any set
    holds. The brackets of all sets are certified together by one evaluator
    over those W points, each row's terms outside its set masked to zero
    (valid by the batched-certificate argument in _bisect), in blocks of at
    most _BLOCK_ENTRIES floats. Each set then bisects on its own modular,
    the sum of its window points' powers in the order of its runs.
    """
    _check_rel_tol(rel_tol)
    pw = p.window
    totals = [runs_count(runs) for runs in sets]
    nonempty = [k for k, total in enumerate(totals) if total > 0]
    inner = [runs_intersect(sets[k], [pw]) if pw is not None else [] for k in nonempty]
    outside = [totals[k] - runs_count(runs) for k, runs in zip(nonempty, inner)]
    held = [runs for runs in inner if runs]
    first = min((runs[0].lo for runs in held), default=p.window_lo)
    last = max((runs[-1].hi for runs in held), default=first - 1)
    pv = p.values[first - p.window_lo : last - p.window_lo + 1]
    mask = np.zeros((len(nonempty), pv.size), dtype=bool)
    for j, runs in enumerate(inner):
        for r in runs:
            mask[j, r.lo - first : r.hi - first + 1] = True
    p_inf = np.float64(p.p_inf)
    counts = np.array(outside, dtype=np.float64)
    ones_pv = np.ones((pv.size, 2))
    ones_pv[:, 1] = pv
    block = max(1, _BLOCK_ENTRIES // max(pv.size, 1))

    def mods(lams: list[float], rows: list[int]):
        r = 1.0 / np.array(lams)
        rows = np.array(rows)
        sums = np.empty((rows.size, 2))
        for s in range(0, rows.size, block):
            b = slice(s, s + block)
            t = np.zeros((rows[b].size, pv.size))
            np.power(r[b, None], pv, out=t, where=mask[rows[b]])
            sums[b] = t @ ones_pv
        tail = counts[rows] * np.power(r, p_inf)
        return (sums[:, 0] + tail).tolist(), (sums[:, 1] + p.p_inf * tail).tolist()

    lo = [1.0] * len(nonempty)
    hi = [float(totals[k]) for k in nonempty]
    eps = _rounding_bound(max(pv.size, 3), p.p_plus)
    A, B = _bracket(mods, lo, hi, eps)
    out = [NormValue(0.0, rel_tol, 0)] * len(sets)
    for j, k in enumerate(nonempty):
        # set j's modular: its window points' powers in order, plus the rest
        def mod_at(lam: float, inner=pv[mask[j]], count=outside[j]) -> float:
            r = 1.0 / lam
            return float(np.power(r, inner).sum()) + count * float(np.power(r, p_inf))

        out[k] = _bisect(mod_at, 1.0, hi[j], rel_tol, A[j], B[j])
    return out


@dataclass(frozen=True)
class ScalingReport:
    """Modular scaling bounds and norm homogeneity for one scale factor."""

    ok: bool
    lam: float
    modular_lower: float
    modular_value: float
    modular_upper: float
    norm_ratio: float


def check_scaling_bounds(a: Sequence, p: ExponentFunction, lam: float) -> ScalingReport:
    """Verify lam^{p+-} sandwich for the modular and norm homogeneity.

    For lam >= 1: lam^p_minus rho(a) <= rho(lam a) <= lam^p_plus rho(a);
    for lam <= 1 the sandwich reverses. The norm satisfies
    ||lam a|| = lam ||a|| up to bisection tolerance. A lam outside (0, inf),
    or one whose rho(lam a) overflows, raises ValueError.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    rho = modular(a, p)
    e_lo, e_hi = (p.p_minus, p.p_plus) if lam >= 1.0 else (p.p_plus, p.p_minus)
    try:
        with np.errstate(over="raise"):
            b = a.scaled(lam)
            rho_s = modular(b, p)
        lower, upper = lam**e_lo * rho, lam**e_hi * rho
    except (FloatingPointError, OverflowError):
        raise ValueError(f"lam = {lam!r} overflows the scaled modular") from None
    n0 = luxemburg_norm(a, p).value
    n1 = luxemburg_norm(b, p).value
    ratio = n1 / (lam * n0) if n0 > 0 else 1.0
    ok = (
        lower <= rho_s * (1 + _CHECK_TOL) + _CHECK_TOL
        and rho_s <= upper * (1 + _CHECK_TOL) + _CHECK_TOL
        and abs(ratio - 1.0) <= _CHECK_TOL
    )
    return ScalingReport(ok, lam, lower, rho_s, upper, ratio)


@dataclass(frozen=True)
class NormModularReport:
    """Unit-ball relations between the norm and the modular."""

    ok: bool
    norm: float
    modular_value: float
    unit_modular: float


def check_norm_modular_relations(a: Sequence, p: ExponentFunction) -> NormModularReport:
    """Verify the norm-modular sandwich and rho(a/||a||) = 1.

    If ||a|| <= 1 then ||a||^p_plus <= rho(a) <= ||a||^p_minus; for ||a|| >= 1
    the exponents swap. For nontrivial a with p_plus < inf the modular at
    a/||a|| equals 1 up to bisection tolerance.
    """
    nv = luxemburg_norm(a, p)
    rho = modular(a, p)
    if nv.value == 0.0:
        return NormModularReport(rho == 0.0, 0.0, rho, 0.0)
    unit = modular(a.scaled(1.0 / nv.value), p)
    n = nv.value
    e_lo, e_hi = (p.p_plus, p.p_minus) if n <= 1.0 else (p.p_minus, p.p_plus)
    ok = (
        n**e_lo <= rho * (1 + _CHECK_TOL) + _CHECK_TOL
        and rho <= n**e_hi * (1 + _CHECK_TOL) + _CHECK_TOL
        and abs(unit - 1.0) <= max(_CHECK_TOL, 64 * nv.tolerance * p.p_plus)
    )
    return NormModularReport(ok, n, rho, unit)
