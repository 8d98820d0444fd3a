"""Variable exponent functions on Z and their decay-at-infinity constants.

An exponent is a bounded function p: Z -> [1, inf) that differs from its tail
value p_inf only on a finite window. The decay constant measured here is the
smallest C with |p(n) - p_inf| <= C / log(e + |n|) for all n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import ZInterval, check_coordinates

__all__ = [
    "ExponentFunction",
    "LHConstant",
    "LHEquivalenceReport",
    "lh_infinity_constant",
    "conjugate",
    "fractional_conjugate",
    "check_lh_equivalences",
]

# Absolute slack of the decay-constant equivalences.
_LH_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ExponentFunction:
    """Exponent p(n): explicit values on one window, p_inf everywhere else."""

    window_lo: int
    values: np.ndarray
    p_inf: float
    _indices: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("exponent values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("exponent values must be finite")
        if vals.size and float(vals.min()) < 1.0:
            raise ValueError("exponent values must be >= 1")
        if not (math.isfinite(self.p_inf) and self.p_inf >= 1.0):
            raise ValueError("p_inf must be finite and >= 1")
        if vals.size:
            lo = int(self.window_lo)
            check_coordinates(lo, lo + vals.size - 1, "exponent window")
        vals.flags.writeable = False
        idx = np.arange(self.window_lo, self.window_lo + vals.size)
        idx.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_indices", idx)

    @classmethod
    def constant(cls, p0: float) -> "ExponentFunction":
        return cls(0, np.zeros(0), float(p0))

    @property
    def window(self) -> ZInterval | None:
        if self.values.size == 0:
            return None
        return ZInterval(self.window_lo, self.window_lo + self.values.size - 1)

    @property
    def p_minus(self) -> float:
        if self.values.size == 0:
            return self.p_inf
        return min(float(self.values.min()), self.p_inf)

    @property
    def p_plus(self) -> float:
        if self.values.size == 0:
            return self.p_inf
        return max(float(self.values.max()), self.p_inf)

    def evaluate(self, n: int) -> float:
        i = n - self.window_lo
        if 0 <= i < self.values.size:
            return float(self.values[i])
        return self.p_inf

    def values_on(self, interval: ZInterval) -> np.ndarray:
        """Exponent values on every integer of the interval, as an array: p_inf,
        with the overlap of the interval and the window copied in."""
        out = np.full(interval.hi - interval.lo + 1, self.p_inf)
        lo = max(interval.lo, self.window_lo)
        hi = min(interval.hi, self.window_lo + self.values.size - 1)
        if lo <= hi:
            inner = self.values[lo - self.window_lo : hi - self.window_lo + 1]
            out[lo - interval.lo : hi - interval.lo + 1] = inner
        return out

    def map_values(self, fn) -> "ExponentFunction":
        """New exponent with fn applied to window values and to p_inf."""
        vals = fn(np.asarray(self.values)) if self.values.size else self.values
        return ExponentFunction(self.window_lo, vals, float(fn(np.float64(self.p_inf))))


@dataclass(frozen=True)
class LHConstant:
    """Minimal decay constant sup_n |p(n) - p_inf| * log(e + |n|)."""

    value: float
    witness: int | None
    p_inf: float


def _decay_constant(indices: np.ndarray, values: np.ndarray, limit: float) -> LHConstant:
    """sup of |values - limit| * log(e + |n|) over the window, with the first
    index attaining it."""
    if values.size == 0:
        return LHConstant(0.0, None, limit)
    gaps = np.abs(values - limit) * np.log(math.e + np.abs(indices))
    k = int(np.argmax(gaps))
    return LHConstant(float(gaps[k]), int(indices[k]), limit)


def lh_infinity_constant(p: ExponentFunction) -> LHConstant:
    """Smallest C with |p(n) - p_inf| <= C / log(e + |n|) everywhere.

    Outside the window the gap is zero, so the sup runs over the window; the
    witness is the first index attaining it.
    """
    return _decay_constant(p._indices, p.values, p.p_inf)


def _reciprocal_gap_constant(p: ExponentFunction) -> LHConstant:
    """Decay constant of 1/p, computed from the reciprocal gaps of p."""
    return _decay_constant(p._indices, 1.0 / p.values, 1.0 / p.p_inf)


def conjugate(p: ExponentFunction) -> ExponentFunction:
    """Pointwise conjugate q = p / (p - 1); requires p_minus > 1."""
    if p.p_minus <= 1.0:
        raise ValueError("conjugate requires p_minus > 1")
    return p.map_values(lambda v: v / (v - 1.0))


def fractional_conjugate(p: ExponentFunction, alpha: float) -> ExponentFunction:
    """Exponent q with 1/q = 1/p - alpha, i.e. q = p / (1 - alpha p).

    Requires 0 <= alpha < 1, and alpha * p_plus < 1 when alpha > 0.
    For alpha = 0 this is p itself.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    if alpha == 0.0:
        return p
    if alpha * p.p_plus >= 1.0:
        raise ValueError("fractional conjugate requires p_plus < 1/alpha")
    return p.map_values(lambda v: v / (1.0 - alpha * v))


@dataclass(frozen=True)
class LHEquivalenceReport:
    """Outcome of the decay-constant equivalence checks for one exponent."""

    ok: bool
    c_p: float
    c_recip_p: float
    c_recip_q_identity: float
    c_recip_q_direct: float
    lower_bound: float
    upper_bound: float
    identity_gap: float


def check_lh_equivalences(p: ExponentFunction) -> LHEquivalenceReport:
    """Verify the equivalences between the decay constants of p, 1/p and 1/q.

    Checks C(1/p) <= C(p) / (p_minus * p_inf), C(p) <= p_plus * p_inf * C(1/p),
    and that C(1/q) for the conjugate q equals C(1/p): the reciprocal gaps
    satisfy 1/q(n) - 1/q_inf = -(1/p(n) - 1/p_inf), so the identity value is
    computed from the shared gaps and cross-checked against the constant
    measured directly on q = p/(p-1).
    """
    c_p = lh_infinity_constant(p).value
    c_rp = _reciprocal_gap_constant(p).value
    c_rq_identity = c_rp
    c_rq_direct = _reciprocal_gap_constant(conjugate(p)).value
    lower = c_p / (p.p_minus * p.p_inf)
    upper = p.p_plus * p.p_inf * c_rp
    gap = abs(c_rq_direct - c_rq_identity)
    ok = (c_rp <= lower + _LH_TOL) and (c_p <= upper + _LH_TOL) and (gap <= _LH_TOL)
    return LHEquivalenceReport(ok, c_p, c_rp, c_rq_identity, c_rq_direct, lower, upper, gap)
