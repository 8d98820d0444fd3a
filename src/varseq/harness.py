"""Corpus generation and empirical verification of the operator bounds.

All randomness flows through a hand-rolled xorshift64* generator so corpora
and reports are reproducible bit-for-bit across platforms. Corpora take
their runs of draws in bulk (XorShift64Star.uniforms): the generator's state
step is linear over GF(2), so k steps are one 64 x 64 bit matrix T^k. The
first 64 states come from the scalar step; each further block doubles the
run, states[m:2m] = T^m states[:m], with T^m applied through byte tables
built by squaring on first use. The floats and the final state are those
of the scalar draws, bit for bit; a run of at most 64 draws never builds a
table.

SUITE_CHECKS is the table behind the CLI verify command: each check
produces Case records, one group per corpus item, and one Rule per check
summarizes them into a VerificationReport. The checks run serially (see
run_verification_suite).
"""

from __future__ import annotations

import math
import sys
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .czd import (
    COVERING_FACTOR,
    alpha_average,
    covering_check,
    cz_decompose,
    cz_nesting_check,
    domination_check,
    selected_average_bound,
)
from .exponent import (
    ExponentFunction,
    check_alpha,
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
    characteristic_norms,
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

CORPUS_WIDTH_LIMIT = 2**20
STRONG_WINDOW_CAP = 2**14
STRONG_THRESHOLD_DIV = 64.0
WEAK_GRID_SIZE = 40
_HOLDER_TOL = 1e-12
_P_FLOOR = 1.05  # least default corpus exponent


def _p_cap(alpha: float) -> float:
    """Greatest default corpus exponent at alpha, below 1/alpha."""
    return min(8.0, 0.95 / alpha) if alpha > 0 else 8.0


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

    def uniforms(self, n: int) -> np.ndarray:
        """The floats of n uniform() calls, bit for bit, as one array; the
        generator ends in the state those calls leave."""
        return _unit_floats(self._advance(n))

    def _advance(self, n: int) -> np.ndarray:
        """Take n steps and return the n states passed through, by the
        doubling of the module docstring."""
        head = []
        for _ in range(min(n, _SEED_BLOCK)):
            self.next_u64()
            head.append(self._state)
        states = np.empty(n, dtype=np.uint64)
        states[: len(head)] = head
        m, k = len(head), 0
        while m < n:
            c = min(m, n - m)
            states[m : m + c] = _apply(_jump_tables(k), states[:c])
            m, k = m + c, k + 1
        if n > _SEED_BLOCK:
            self._state = int(states[-1])
        return states


# A bit matrix is kept as its 64 columns (column i is the image of bit i)
# and applied to a uint64 array through 8 byte tables of 256 entries: entry
# v of table b is the XOR of the columns 8b + j over the bits j of v.
# _JUMP_TABLES[k] holds the tables of T^(_SEED_BLOCK * 2^k).
_SEED_BLOCK = 64
_JUMP_TABLES: list[np.ndarray] = []
_BIT = np.arange(64, dtype=np.uint64)
_BYTE_SHIFT = np.arange(0, 64, 8, dtype=np.uint64)


def _unit_floats(states: np.ndarray) -> np.ndarray:
    """uniform()'s float of each state: (state * MULT mod 2^64) >> 11, times 2^-53."""
    return ((states * np.uint64(_MULT)) >> np.uint64(11)) * 2.0**-53


def _apply(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The matrix of the byte tables applied to each element of x."""
    out = tables[0][x & np.uint64(0xFF)]
    for b in range(1, 8):
        out ^= tables[b][(x >> _BYTE_SHIFT[b]) & np.uint64(0xFF)]
    return out


def _square(cols: np.ndarray) -> np.ndarray:
    """Columns of M^2 from those of M: column i of M^2 is M applied to column i."""
    bits = ((cols[:, None] >> _BIT) & np.uint64(1)).astype(bool)
    return np.bitwise_xor.reduce(np.where(bits, cols, np.uint64(0)), axis=1)


def _jump_tables(k: int) -> np.ndarray:
    """(8, 256) byte tables of T^(_SEED_BLOCK * 2^k), cached per process."""
    while len(_JUMP_TABLES) <= k:
        if _JUMP_TABLES:
            cols = _square(_JUMP_TABLES[-1][:, 1 << np.arange(8)].ravel())
        else:
            cols = np.uint64(1) << _BIT  # T's columns: one step of each bit
            cols ^= cols >> np.uint64(12)
            cols ^= cols << np.uint64(25)
            cols ^= cols >> np.uint64(27)
            for _ in range(_SEED_BLOCK.bit_length() - 1):
                cols = _square(cols)
        tables = np.zeros((8, 256), dtype=np.uint64)
        for j in range(8):
            tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ cols[j::8, None]
        tables.flags.writeable = False
        _JUMP_TABLES.append(tables)
    return _JUMP_TABLES[k]


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic recipe for a corpus of (sequence, exponent) pairs; p_lo
    and p_hi default to _P_FLOOR and _p_cap(max(alpha_list))."""

    seed: int
    count: int
    window_width: int
    value_law: str
    exponent_law: str
    alpha_list: tuple[float, ...]
    p_lo: float | None = None
    p_hi: float | None = None

    def resolved_bounds(self) -> tuple[float, float]:
        """(p_lo, p_hi), or a ValueError for any invalid field of the spec."""
        if self.value_law not in VALUE_LAWS:
            raise ValueError(f"unknown value law {self.value_law!r}")
        if self.exponent_law not in EXPONENT_LAWS:
            raise ValueError(f"unknown exponent law {self.exponent_law!r}")
        if self.window_width < 4:
            raise ValueError("window_width must be >= 4")
        if self.window_width > CORPUS_WIDTH_LIMIT:
            raise ValueError("window_width must be <= 2**20")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        a_max = max(map(check_alpha, self.alpha_list), default=0.0)
        lo = _P_FLOOR if self.p_lo is None else float(self.p_lo)
        hi = _p_cap(a_max) if self.p_hi is None else float(self.p_hi)
        if self.p_hi is None and 1.0 <= lo and hi < lo:
            raise ValueError(
                f"max(alpha_list) = {a_max!r} leaves the default p_hi ="
                f" 0.95/max(alpha_list) = {hi:.6g} below p_lo = {lo:g}"
            )
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


def _draw_values(rng: XorShift64Star, law: str, length: int) -> np.ndarray:
    if law == "uniform01":
        return rng.uniforms(length)
    if law == "spike":
        vals = 0.01 + 0.99 * rng.uniforms(length)
        k = rng.randint(0, length - 1)
        vals[k] = 25.0 * float(vals.max()) * (1.0 + rng.uniform())
        return vals
    if law == "geometric-decay":
        gamma = 0.7 + 0.25 * rng.uniform()
        return rng.uniforms(length) * gamma ** np.arange(length)
    if law == "bernoulli-sparse":
        # value i takes a draw, and a second one as its value when the first
        # is below 0.15: draw the most it can take, then step back to the
        # last state used. A draw follows a miss or the value of a hit, so
        # it decides a value exactly when the run of hits just before it
        # has even length; value i's decision lies at or before draw 2i.
        states = rng._advance(2 * length)
        u = _unit_floats(states)
        hit = u < 0.15
        pos = np.arange(u.size)
        last_miss = np.maximum.accumulate(np.where(hit, -1, pos))
        run = np.concatenate([[0], pos[:-1] - last_miss[:-1]])
        decide = np.flatnonzero(run % 2 == 0)[:length]
        vals = np.where(hit[decide], u[decide + 1], 0.0)
        rng._state = int(states[decide[-1] + hit[decide[-1]]])
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
        vals = p_lo + (p_hi - p_lo) * rng.uniforms(ns.size)
        return ExponentFunction(wlo, vals, rng.uniform_range(p_lo, p_hi))
    raise ValueError(f"unknown exponent law {law!r}")


def generate_corpus(spec: CorpusSpec) -> list[CorpusItem]:
    """Materialize the corpus described by the spec, deterministically."""
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


@dataclass(frozen=True)
class HolderReport:
    ok: bool
    lhs: float
    rhs: float


def check_holder_variant(a: Sequence, interval: ZInterval, p0: float, alpha: float) -> HolderReport:
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
    return HolderReport(lhs <= rhs * (1.0 + _HOLDER_TOL), lhs, rhs)


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
    fv = np.zeros(ns.size)
    lo, hi = max(window.lo, f.offset), min(window.hi, f.offset + f.values.size - 1)
    if lo <= hi:
        fv[lo - window.lo : hi - window.lo + 1] = f.values[lo - f.offset : hi - f.offset + 1]
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
    window (radius = superlevel reach at max(M)/64, capped at 2^14).

    The norm is monotone, so this is a lower bound for the ratio over all
    of Z, and it misses most as p -> 1: for a point mass at alpha 0 it reads
    1.503 / 4.358 / 6.995 / 8.174 at p = 2 / 1.2 / 1.05 / 1.01, where the
    true ratio (2 zeta(p) - 1)^(1/p) is 1.513 / 6.917 / 33.69 / 189.9."""
    q = fractional_conjugate(p, alpha)
    ev = MaximalEvaluator(a, alpha)
    max_m = ev.max_value()
    if max_m == 0.0:
        return 0.0
    radius = ev.reach(max_m / STRONG_THRESHOLD_DIV, STRONG_WINDOW_CAP)
    hull = ev.hull
    window = ZInterval(hull.lo - radius, hull.hi + radius)
    m_seq = Sequence(window.lo, ev.profile(window))
    return luxemburg_norm(m_seq, q).value / luxemburg_norm(a, p).value


def weak_type_sup(a: Sequence, p: ExponentFunction, alpha: float) -> tuple[float, float]:
    """sup over t of t * ||chi_{M_alpha a > 9t}||_q / ||a||_p and its argmax.

    The grid is 40 geometric points spanning four decades below
    max(M_alpha)/9; its lowest point must be a normal float. The superlevel
    sets of the whole grid come from one batch, and their norms from one
    characteristic_norms call.
    """
    q = fractional_conjugate(p, alpha)
    ev = MaximalEvaluator(a, alpha)
    max_m = ev.max_value()
    if max_m == 0.0:
        return 0.0, 0.0
    top = max_m / COVERING_FACTOR
    if not (top * 1e-4 >= sys.float_info.min):
        raise ValueError("threshold grid starts below the smallest normal float: M_alpha a underflows")
    t_grid = np.geomspace(top * 1e-4, top * 1.1, WEAK_GRID_SIZE)
    sets = ev.superlevels(COVERING_FACTOR * t_grid)
    na = luxemburg_norm(a, p).value
    best, best_t = 0.0, float(t_grid[0])
    for t, nv in zip(t_grid.tolist(), characteristic_norms(sets, q)):
        val = t * nv.value / na
        if val > best:
            best, best_t = val, t
    return best, best_t


def _sub_seed(seed: int, name: str) -> int:
    return (seed ^ (zlib.crc32(name.encode()) * 0x9E3779B1)) & _MASK


class Case(NamedTuple):
    """One checked case: pass or fail, its score (the highest is the worst
    case) and the fields the report shows when it is the worst case."""

    ok: bool
    score: float
    reported: dict


@dataclass(frozen=True)
class Rule:
    """How a check's cases become its report. The worst case is `reported`
    of the first case with the top score if it beats `floor` (with `ties`,
    the last one, and equalling the floor suffices), else `default`; with
    `max_key` it is just {max_key: top score}. `constant` reports that score
    (or the floor). `item_fraction` names a flag of `reported`, reported as
    the fraction of items whose cases all set it. A `needs_alphas` row
    reports nothing when there are no alphas."""

    floor: float = -1.0
    default: dict = field(default_factory=dict)
    constant: bool = False
    ties: bool = False
    max_key: str | None = None
    item_fraction: str | None = None
    needs_alphas: bool = False


# (corpus spec, alphas, t) -> one group of cases per corpus item
Groups = Callable[[CorpusSpec, tuple, float], list[list[Case]]]


def _summarize(name: str, groups: list[list[Case]], rule: Rule) -> VerificationReport:
    """Apply the rule to the case groups, one group per corpus item."""
    cases = [c for group in groups for c in group]
    best, worst = rule.floor, rule.default
    for c in cases:
        if c.score > best or (rule.ties and c.score == best):
            best, worst = c.score, c.reported
    worst = {rule.max_key: best} if rule.max_key else dict(worst)
    if rule.item_fraction:
        passed = sum(all(c.reported[rule.item_fraction] for c in g) for g in groups)
        worst[rule.item_fraction] = passed / len(groups) if groups else 1.0
    failures = sum(not c.ok for c in cases)
    constant = best if rule.constant else None
    return VerificationReport(name, len(cases), failures, worst, constant)


def _each_item(cases: Callable) -> Groups:
    """Groups of cases(item, alphas, t) over the corpus items, in order."""
    return lambda spec, alphas, t: [cases(item, alphas, t) for item in generate_corpus(spec)]


def _per_alpha(cases: Callable, tag: str) -> Groups:
    """Groups of cases(item, alpha) over one corpus per alpha, each reseeded
    from the tag and the alpha."""
    return lambda spec, alphas, t: [
        cases(item, a)
        for a in alphas
        for item in generate_corpus(replace(spec, seed=_sub_seed(spec.seed, f"{tag}-{a:g}")))
    ]


def _strong_cases(item: CorpusItem, alpha: float) -> list[Case]:
    r1 = strong_type_ratio(item.a, item.p, alpha)
    r2 = strong_type_ratio(item.a.scaled(10.0), item.p, alpha)
    invariant = abs(r2 / r1 - 1.0) <= 1e-9 if r1 > 0 else r2 == r1
    ok = math.isfinite(r1) and r1 >= 0.0 and invariant
    return [Case(ok, r1, {"index": item.index, "ratio": r1})]


def _weak_cases(item: CorpusItem, alpha: float) -> list[Case]:
    val, t_at = weak_type_sup(item.a, item.p, alpha)
    ok = math.isfinite(val) and val >= 0.0
    return [Case(ok, val, {"index": item.index, "value": val, "t": t_at})]


_STRONG = Rule(0.0, {"index": -1, "ratio": 0.0}, constant=True)
_WEAK = Rule(0.0, {"index": -1, "value": 0.0, "t": 0.0}, constant=True)


def estimate_strong_type(spec: CorpusSpec, alpha: float) -> VerificationReport:
    """Empirical operator-norm envelope, with exact scale invariance checked."""
    groups = [_strong_cases(item, alpha) for item in generate_corpus(spec)]
    return _summarize(f"strong_type[alpha={alpha:g}]", groups, _STRONG)


def estimate_weak_type(spec: CorpusSpec, alpha: float) -> VerificationReport:
    """Empirical weak-type envelope over the default threshold grid."""
    groups = [_weak_cases(item, alpha) for item in generate_corpus(spec)]
    return _summarize(f"weak_type[alpha={alpha:g}]", groups, _WEAK)


def _lh_cases(item: CorpusItem, alphas, t) -> list[Case]:
    r = check_lh_equivalences(item.p)
    shown = {"index": item.index, "identity_gap": r.identity_gap, "c_p": r.c_p}
    return [Case(r.ok, r.identity_gap, shown)]


def _norm_modular_cases(item: CorpusItem, alphas, t) -> list[Case]:
    r = check_norm_modular_relations(item.a, item.p)
    shown = {"index": item.index, "unit_modular": r.unit_modular}
    return [Case(r.ok, abs(r.unit_modular - 1.0), shown)]


def _scaling_cases(item: CorpusItem, alphas, t) -> list[Case]:
    cases = []
    for lam in (0.3, 1.0, 2.7):
        r = check_scaling_bounds(item.a, item.p, lam)
        shown = {"index": item.index, "lam": r.lam, "norm_ratio": r.norm_ratio}
        cases.append(Case(r.ok, abs(r.norm_ratio - 1.0), shown))
    return cases


def _fatou_cases(item: CorpusItem, alphas, t) -> list[Case]:
    """Norms of doubling windows about the hull's midpoint rise to the norm."""
    hull = item.a.support_hull()
    if hull is None:
        return [Case(True, 0.0, {})]
    full = luxemburg_norm(item.a, item.p).value
    tol = 1e-11 * max(1.0, full)
    mid = (hull.lo + hull.hi) // 2
    width, norms = 1, []
    while True:
        win = ZInterval(mid - width, mid + width)
        norms.append(luxemburg_norm(truncate(item.a, win), item.p).value)
        if win.contains_interval(hull):
            break
        width *= 2
    monotone = not any(v < prev - tol for prev, v in zip([0.0] + norms, norms))
    gap = abs(norms[-1] - full)
    return [Case(monotone and gap <= tol, gap, {})]


def _alpha_cases(case: Callable, zero: Case) -> Groups:
    """Groups of one case(item, alpha, t) per alpha over the corpus items; a
    zero sequence has nothing to check and passes every alpha as `zero`."""

    def cases(item: CorpusItem, alphas, t) -> list[Case]:
        if item.a.is_zero():
            return [zero] * len(alphas)
        return [case(item, alpha, t) for alpha in alphas]

    return _each_item(cases)


def _maximal_consistency_case(item: CorpusItem, alpha: float, t: float) -> Case:
    """profile() against sampled point() values, and superlevel() against
    the profile's runs, on the hull padded by twice its width."""
    hull = item.a.support_hull()
    pad = 2 * cardinality(hull)
    win = ZInterval(hull.lo - pad, hull.hi + pad)
    step = max(1, cardinality(win) // 16)
    ev = MaximalEvaluator(item.a, alpha)
    prof = ev.profile(win)
    ok = all(prof[n - win.lo] == ev.point(n) for n in range(win.lo, win.hi + 1, step))
    s = ev.max_value() / 7.0
    runs = runs_from_mask(prof > s, win.lo)
    return Case(ok and runs_intersect(ev.superlevel(s), [win]) == runs, 0.0, {})


def _cz_structure_case(item: CorpusItem, alpha: float, t: float) -> Case:
    """Selected intervals have averages in (t, 2^(1-alpha) t], come in order
    and disjoint, end in {M_alpha > t}, and nest from level t/3 to t."""
    a = item.a
    d = cz_decompose(a, alpha, t)
    bound = selected_average_bound(alpha, t)
    ev = MaximalEvaluator(a, alpha)
    ratio, prev_hi = 0.0, None
    for r, avg in zip(d.intervals, d.averages):
        ok = t < avg <= bound and (prev_hi is None or r.lo > prev_hi)
        if not (ok and ev.point(r.lo) > t and ev.point(r.hi) > t):
            return Case(False, ratio, {})
        prev_hi = r.hi
        ratio = max(ratio, avg / t)
    ok = cz_nesting_check(a, alpha, t, t / 3.0).ok
    return Case(ok, ratio, {})


def _covering_case(item: CorpusItem, alpha: float, t: float) -> Case:
    r = covering_check(item.a, alpha, t)
    return Case(r.ok and r.bound_ok, r.max_average_ratio, {})


_CORRECTED = "corrected_constant_fraction"


def _domination_case(item: CorpusItem, alpha: float, t: float) -> Case:
    """ok is the derived constant; the corrected one feeds item_fraction."""
    r = domination_check(item.a, item.p, alpha, t)
    return Case(r.ok_derived, r.ratio, {_CORRECTED: r.ok_corrected})


def _holder_groups(spec: CorpusSpec, alphas, t) -> list[list[Case]]:
    """A random interval, alpha and p0 per item, drawn in corpus order from
    one stream."""
    rng = XorShift64Star(_sub_seed(spec.seed, "holder-intervals"))
    groups = []
    for item in generate_corpus(spec):
        hull = item.a.support_hull()
        if hull is None:
            continue
        lo = rng.randint(hull.lo - 4, hull.hi)
        hi = rng.randint(lo, hull.hi + 4)
        alpha = alphas[rng.randint(0, len(alphas) - 1)] if alphas else 0.0
        cap = _p_cap(alpha)
        if cap <= _P_FLOOR:
            alpha, cap = 0.0, _p_cap(0.0)
        p0 = 1.0 + (cap - 1.0) * max(0.05, rng.uniform())
        groups.append(_holder_cases(item, ZInterval(lo, hi), p0, alpha))
    return groups


def _holder_cases(item: CorpusItem, interval: ZInterval, p0: float, alpha: float) -> list[Case]:
    r = check_holder_variant(item.a, interval, p0, alpha)
    return [Case(r.ok, r.lhs - r.rhs, {"index": item.index, "lhs": r.lhs, "rhs": r.rhs})]


def _key_comparison_groups(spec: CorpusSpec, alphas, t) -> list[list[Case]]:
    """A reference-tail decay per item, drawn in corpus order from one stream."""
    rng = XorShift64Star(_sub_seed(spec.seed, "key-comparison"))
    return [
        _key_comparison_cases(item, 1.0 / item.p.p_inf + 0.5 + 2.0 * rng.uniform())
        for item in generate_corpus(spec)
    ]


def _key_comparison_cases(item: CorpusItem, n_decay: float) -> list[Case]:
    """F = min(a, 1) against p on the doubled window of a."""
    f = Sequence(item.a.offset, np.minimum(item.a.values, 1.0))
    r = check_key_comparison(dilate(item.a.window, 2), f, item.p, n_decay)
    return [Case(r.ok, max(r.c5, r.c6), {"index": item.index, "c5": r.c5, "c6": r.c6})]


_RATIO = Rule(0.0, constant=True, max_key="max_average_ratio")
_DOMINATION = Rule(0.0, constant=True, max_key="max_lhs_over_esum", item_fraction=_CORRECTED)
_KEY = Rule(0.0, {"index": -1, "c5": 0.0, "c6": 0.0}, constant=True)

# check name -> (its case groups, rule that summarizes them)
SUITE_CHECKS: dict[str, tuple[Groups, Rule]] = {
    "lh_equivalences": (_each_item(_lh_cases), Rule(0.0, ties=True)),
    "norm_modular": (_each_item(_norm_modular_cases), Rule()),
    "scaling": (_each_item(_scaling_cases), Rule()),
    "fatou": (_each_item(_fatou_cases), Rule(0.0, max_key="max_gap")),
    "maximal_consistency": (_alpha_cases(_maximal_consistency_case, Case(True, 0.0, {})), Rule()),
    "cz_structure": (_alpha_cases(_cz_structure_case, Case(True, 1.0, {})), _RATIO),
    "covering": (_alpha_cases(_covering_case, Case(True, 0.0, {})), _RATIO),
    "domination": (_alpha_cases(_domination_case, Case(True, 0.0, {_CORRECTED: True})), _DOMINATION),
    "holder": (_holder_groups, Rule(-math.inf)),
    "key_comparison": (_key_comparison_groups, _KEY),
    "strong_type": (_per_alpha(_strong_cases, "strong"), replace(_STRONG, needs_alphas=True)),
    "weak_type": (_per_alpha(_weak_cases, "weak"), replace(_WEAK, needs_alphas=True)),
}


def run_verification_suite(
    spec: CorpusSpec,
    t: float = 0.05,
    checks: list[str] | None = None,
    threads: int = 1,
    inject_fault: bool = False,
) -> list[VerificationReport]:
    """Run the named checks (all by default, fixed order) over corpora derived
    from the spec; each check reseeds deterministically from its name.

    The checks run serially: they are Python code holding the GIL, and a
    thread pool only made them slower. `threads` stays, in fourth place and
    accepting only 1, because bench/tracer.py still passes it positionally;
    the next change to the benchmark drops it.
    """
    if threads != 1:
        raise ValueError("the suite runs serially; threads must be 1")
    names = list(SUITE_CHECKS) if checks is None else list(checks)
    unknown = [n for n in names if n not in SUITE_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    spec.resolved_bounds()  # checks the spec, also when no check draws a corpus
    alphas = tuple(spec.alpha_list)
    out = []
    for name in names:
        groups, rule = SUITE_CHECKS[name]
        if rule.needs_alphas and not alphas:
            out.append(VerificationReport(name, 0, 0, {}, None))
            continue
        sub = replace(spec, seed=_sub_seed(spec.seed, name))
        out.append(_summarize(name, groups(sub, alphas, t), rule))
    if inject_fault:
        reason = {"reason": "fault injection requested"}
        out.append(VerificationReport("injected_fault", 1, 1, reason, None))
    return out
