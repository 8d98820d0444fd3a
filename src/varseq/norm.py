"""Modular and Luxemburg norm for variable-exponent sequence spaces.

The modular is rho(a) = sum |a(k)|^p(k); the norm is the Luxemburg gauge
inf{lam > 0 : rho(a/lam) <= 1}, computed by bisection on a certified bracket.
A few Newton steps on log rho in log lam, each an exact evaluation checked
against a proven rounding bound, certify a narrower bracket around the root.
Midpoints outside it are decided without evaluating the modular, so every
returned bit is that of evaluating each midpoint, at about 7 modular passes
per norm instead of about 45. Window points outside p's window all take
p_inf, so luxemburg_norm's bracket sums their terms once, at lam = max|a|,
and each evaluation adds that tail times (max|a|/lam)^p_inf to the powers
of the inner points: a strong-type window of up to 2^15 + W points costs
one pass for the tail and then about W + 16 points per Newton step.
characteristic_norms steps the brackets of a whole batch of indicator norms
together, one evaluator call per Newton step for every row still stepping,
so a weak-type grid of 40 norms takes about 5.5 batched calls plus about
1.2 plain passes per norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence as PySequence

import numpy as np

from .exponent import ExponentFunction
from .lattice import Sequence, ZInterval, runs_count, runs_intersect

__all__ = [
    "ModularValue",
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
class ModularValue:
    """Value of the modular together with the number of nonzero terms."""

    value: float
    nonzero_terms: int


@dataclass(frozen=True)
class NormValue:
    """Luxemburg norm with the modular achieved at the returned value."""

    value: float
    achieved_modular: float
    tolerance: float
    iterations: int


def modular(a: Sequence, p: ExponentFunction) -> ModularValue:
    """sum_k |a(k)|^p(k); entries outside the exponent window use p_inf."""
    win = a.window
    if win is None:
        return ModularValue(0.0, 0)
    pv = p.values_on(win)
    terms = np.power(a.values, pv)
    return ModularValue(float(terms.sum()), int(np.count_nonzero(a.values)))


def _rounding_bound(chain: int, p_plus: float) -> float:
    """eps = 2 n u with n = chain + ceil(p_plus) + 2 POW_ULPS: the relative
    error bound of a computed modular whose terms each pass through at most
    `chain` roundings after their pow (derivation in _bisect)."""
    return 2.0 * (chain + math.ceil(p_plus) + 2 * POW_ULPS) * 2.0**-53


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
    without evaluating mod_at, and every other midpoint and the returned
    achieved_modular are evaluated as before; so the midpoints, the
    iteration count and every returned bit are those of the plain loop.

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
    - a sum of N non-negative terms in any order, numpy's pairwise sum
      and a matrix product with a row of ones included, puts each term
      through at most N - 1 roundings, a factor within gamma_(N-1);
    - characteristic_norm adds outside * lam^-p_inf: converting the count
      to float, the product and the final add are three roundings on that
      term, and the final add is one more on the inner sum, so its chain is
      max(n_inner, 3) where luxemburg_norm's is N - 1.
    - luxemburg_norm's bracket evaluator, when some of the N window points
      lie outside p's window, sums their terms once, T = sum (v_i/lo)^p_inf
      with lo = max v_i (so every base is at most 1), and adds
      fl(lo/lam)^p_inf * T to the sum of the inner terms. A tail term then
      passes through its first division and pow (ceil(p_inf) + 2 POW_ULPS,
      like any term), at most N - 1 roundings in T, the second division and
      pow (ceil(p_inf) + 2 POW_ULPS more), the product and the final add;
      an inner term through its division, pow, the inner sum and the final
      add. So chain = N - 1 + ceil(p_plus) + 2 POW_ULPS + 2 covers both, and
      its eps_b >= eps certifies for the plain modular by the
      batched-certificate argument above; the plain modular keeps N - 1.
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
        return NormValue(lo, mod_at(lo), rel_tol, 0)
    it = 0
    while it < MAX_BISECT_ITER and (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mid <= A or (mid < B and mod_at(mid) > 1.0):
            lo = mid
        else:
            hi = mid
        it += 1
    value = 0.5 * (lo + hi)
    return NormValue(value, mod_at(value), rel_tol, it)


def _check_rel_tol(rel_tol: float) -> None:
    """A rel_tol below 2^-52, the relative spacing of the floats, can never
    be met: the bracket collapses to adjacent floats and the bisection runs
    all MAX_BISECT_ITER midpoints."""
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
        return NormValue(0.0, 0.0, rel_tol, 0)
    pv = p.values_on(win)
    v = a.values

    def mod_at(lam: float) -> float:
        return float(np.power(v / lam, pv).sum())

    lo = a.max_value()
    hi = max(lo, a.total())
    # the window points inside p's window are v[i0:i1]; the rest take p_inf
    i0 = min(max(p.window_lo - win.lo, 0), v.size)
    i1 = max(min(p.window_lo + p.values.size - win.lo, v.size), i0)
    inner, inner_pv = v[i0:i1], pv[i0:i1]
    # one product gives the sum of the inner terms (in some order, as the
    # rounding bound allows) and their slope weights
    ones_pv = np.ones((2, inner.size))
    ones_pv[1] = inner_pv
    chain, tail, p_inf = v.size - 1, 0.0, p.p_inf
    if inner.size < v.size:
        # the tail's terms are (lo/lam)^p_inf (v_i/lo)^p_inf, summed once
        # here (derivation in _bisect)
        tail = float(np.power(np.concatenate([v[:i0], v[i1:]]) / lo, np.float64(p_inf)).sum())
        if tail:
            chain += math.ceil(p.p_plus) + 2 * POW_ULPS + 2

    def mods(lams: list[float], rows: list[int]):
        ms, weighted = [], []
        for lam in lams:
            m = w = 0.0
            if inner.size:
                m, w = (ones_pv @ np.power(inner / lam, inner_pv)).tolist()
            if tail:
                t = tail * math.pow(lo / lam, p_inf)
                m, w = m + t, w + p_inf * t
            ms.append(m)
            weighted.append(w)
        return ms, weighted

    eps = _rounding_bound(chain, p.p_plus)
    (A,), (B,) = _bracket(mods, [lo], [hi], eps)
    return _bisect(mod_at, lo, hi, rel_tol, A, B)


def characteristic_norm(
    runs: PySequence[ZInterval], p: ExponentFunction, rel_tol: float = 1e-12
) -> NormValue:
    """Luxemburg norm of the indicator of a run set, without enumerating it:
    characteristic_norms of that one set."""
    return characteristic_norms([runs], p, rel_tol)[0]


# Float entries in one block of characteristic_norms' batched evaluator.
_BLOCK_ENTRIES = 2**20


def _indicator_modular(inner: np.ndarray, outside: int, p_inf: np.float64) -> Callable:
    """The modular of an indicator at lam: the powers of its window points'
    exponents, summed in order, plus outside * lam^-p_inf."""

    def mod_at(lam: float) -> float:
        r = 1.0 / lam
        return float(np.power(r, inner).sum()) + outside * float(np.power(r, p_inf))

    return mod_at


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
    out = [NormValue(0.0, 0.0, rel_tol, 0)] * len(sets)
    for j, k in enumerate(nonempty):
        mod_at = _indicator_modular(pv[mask[j]], outside[j], p_inf)
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
    ||lam a|| = lam ||a|| up to bisection tolerance.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    rho = modular(a, p).value
    rho_s = modular(a.scaled(lam), p).value
    e_lo, e_hi = (p.p_minus, p.p_plus) if lam >= 1.0 else (p.p_plus, p.p_minus)
    lower = lam**e_lo * rho
    upper = lam**e_hi * rho
    n0 = luxemburg_norm(a, p).value
    n1 = luxemburg_norm(a.scaled(lam), p).value
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
    rho = modular(a, p).value
    if nv.value == 0.0:
        return NormModularReport(rho == 0.0, 0.0, rho, 0.0)
    unit = modular(a.scaled(1.0 / nv.value), p).value
    n = nv.value
    e_lo, e_hi = (p.p_plus, p.p_minus) if n <= 1.0 else (p.p_minus, p.p_plus)
    ok = (
        n**e_lo <= rho * (1 + _CHECK_TOL) + _CHECK_TOL
        and rho <= n**e_hi * (1 + _CHECK_TOL) + _CHECK_TOL
        and abs(unit - 1.0) <= max(_CHECK_TOL, 64 * nv.tolerance * p.p_plus)
    )
    return NormModularReport(ok, n, rho, unit)
