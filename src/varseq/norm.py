"""Modular and Luxemburg norm for variable-exponent sequence spaces.

The modular is rho(a) = sum |a(k)|^p(k); the norm is the Luxemburg gauge
inf{lam > 0 : rho(a/lam) <= 1}, computed by bisection on a certified bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence as PySequence

import numpy as np

from .exponent import ExponentFunction
from .lattice import Sequence, ZInterval, runs_count, runs_intersect, runs_subtract

__all__ = [
    "ModularValue",
    "NormValue",
    "modular",
    "luxemburg_norm",
    "characteristic_norm",
    "check_scaling_bounds",
    "check_norm_modular_relations",
    "ScalingReport",
    "NormModularReport",
]

MAX_BISECT_ITER = 200


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


def _modular_scaled(a: Sequence, pv: np.ndarray, lam: float) -> float:
    return float(np.power(a.values / lam, pv).sum())


def _bisect(mod_at: Callable[[float], float], lo: float, hi: float, rel_tol: float) -> NormValue:
    """inf{lam : mod_at(lam) <= 1} by bisection of [lo, hi], where mod_at > 1
    below lo and <= 1 at hi; lo itself when hi <= lo."""
    if hi <= lo:
        return NormValue(lo, mod_at(lo), rel_tol, 0)
    it = 0
    while it < MAX_BISECT_ITER and (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mod_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        it += 1
    value = 0.5 * (lo + hi)
    return NormValue(value, mod_at(value), rel_tol, it)


def luxemburg_norm(a: Sequence, p: ExponentFunction, rel_tol: float = 1e-12) -> NormValue:
    """Luxemburg norm by bisection.

    The bracket [max|a|, max(max|a|, sum|a|)] is certified: below the max
    some ratio exceeds 1 so the modular exceeds 1; at the total sum every
    ratio is <= 1 and p >= 1 gives modular <= 1.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    win = a.window
    if win is None or a.is_zero():
        return NormValue(0.0, 0.0, rel_tol, 0)
    pv = p.values_on(win)
    lo = a.max_value()
    return _bisect(lambda lam: _modular_scaled(a, pv, lam), lo, max(lo, a.total()), rel_tol)


def characteristic_norm(
    runs: PySequence[ZInterval], p: ExponentFunction, rel_tol: float = 1e-12
) -> NormValue:
    """Luxemburg norm of the indicator of a run set, without enumerating it.

    Indices inside the exponent window contribute explicit powers; the rest
    contribute count * lam^(-p_inf), so arbitrarily large sets stay O(window).
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    total = runs_count(runs)
    if total == 0:
        return NormValue(0.0, 0.0, rel_tol, 0)
    pw = p.window
    if pw is None:
        inner = np.zeros(0)
        outside = total
    else:
        inner_runs = runs_intersect(runs, [pw])
        inner = np.concatenate(
            [p.values_on(r) for r in inner_runs] or [np.zeros(0)]
        )
        outside = total - runs_count(inner_runs)

    def mod_at(lam: float) -> float:
        s = float(np.power(1.0 / lam, inner).sum()) if inner.size else 0.0
        return s + outside * float(np.power(1.0 / lam, np.float64(p.p_inf)))

    return _bisect(mod_at, 1.0, float(total), rel_tol)


@dataclass(frozen=True)
class ScalingReport:
    """Modular scaling bounds and norm homogeneity for one scale factor."""

    ok: bool
    lam: float
    modular_lower: float
    modular_value: float
    modular_upper: float
    norm_ratio: float


def check_scaling_bounds(
    a: Sequence, p: ExponentFunction, lam: float, tol: float = 1e-9
) -> ScalingReport:
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
        lower <= rho_s * (1 + tol) + tol
        and rho_s <= upper * (1 + tol) + tol
        and abs(ratio - 1.0) <= tol
    )
    return ScalingReport(ok, lam, lower, rho_s, upper, ratio)


@dataclass(frozen=True)
class NormModularReport:
    """Unit-ball relations between the norm and the modular."""

    ok: bool
    norm: float
    modular_value: float
    unit_modular: float


def check_norm_modular_relations(
    a: Sequence, p: ExponentFunction, tol: float = 1e-9
) -> NormModularReport:
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
        n**e_lo <= rho * (1 + tol) + tol
        and rho <= n**e_hi * (1 + tol) + tol
        and abs(unit - 1.0) <= max(tol, 64 * nv.tolerance * p.p_plus)
    )
    return NormModularReport(ok, n, rho, unit)
