"""Integer intervals, dyadic blocks, and finitely supported sequences on Z.

All sequences are stored as a contiguous window of nonnegative float values;
constructors take absolute values so downstream operators never see signs.
Interval sets ("runs") are kept as sorted, disjoint, non-adjacent lists of
ZInterval, which stays exact even when sets span billions of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence as PySequence

import numpy as np

__all__ = [
    "COORDINATE_LIMIT",
    "ZInterval",
    "Sequence",
    "cardinality",
    "dilate",
    "dyadic_block",
    "interval_sum",
    "truncate",
    "runs_from_mask",
    "runs_normalize",
    "runs_union",
    "runs_intersect",
    "runs_subtract",
    "runs_count",
]

# Sequence, exponent and profile windows lie in [-2**61, 2**61], so the
# distance between two of their points stays below 2**62 and every index
# array over them stays int64 (past 2**63, np.arange turns float64).
COORDINATE_LIMIT = 2**61
# Sequence.from_pairs stores its pairs densely, from the least index to the
# greatest: at most this many points (128 MiB of float64).
PAIRS_SPAN_LIMIT = 2**24


def check_coordinates(lo: int, hi: int, what: str) -> None:
    """ValueError when [lo, hi] reaches past +-COORDINATE_LIMIT."""
    if lo < -COORDINATE_LIMIT or hi > COORDINATE_LIMIT:
        raise ValueError(f"{what} [{lo}, {hi}] reaches past the coordinate limit +-2**61")


@dataclass(frozen=True, order=True)
class ZInterval:
    """Closed integer interval [lo, hi] with lo <= hi; never empty."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
            raise TypeError("interval endpoints must be ints")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def contains_interval(self, other: "ZInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "ZInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def cardinality(interval: ZInterval) -> int:
    """Number of integer points in the interval."""
    return interval.hi - interval.lo + 1


def dilate(interval: ZInterval, factor: int) -> ZInterval:
    """Concentric integer dilation fI with cardinality exactly factor * |I|.

    The extra (factor - 1) * |I| points are split with the floor half on the
    left and the ceiling half on the right.
    """
    if not isinstance(factor, int) or factor < 1:
        raise ValueError("dilation factor must be an integer >= 1")
    pad = (factor - 1) * cardinality(interval)
    return ZInterval(interval.lo - pad // 2, interval.hi + (pad - pad // 2))


def dyadic_block(level: int, index: int) -> ZInterval:
    """Dyadic block (level, index): [(index-1) 2^level + 1, index 2^level]."""
    if level < 0:
        raise ValueError("dyadic level must be >= 0")
    width = 1 << level
    return ZInterval((index - 1) * width + 1, index * width)


def block_index_of(level: int, n: int) -> int:
    """Index j of the level-N dyadic block containing n."""
    width = 1 << level
    return -((-n) // width)


def weight(lengths, alpha: float, out=None):
    """|I|^(alpha-1) for lengths |I|, the library's one such power. Inverse
    powers that only guess what the values settle keep theirs."""
    return np.power(lengths, alpha - 1.0, out=out)


@dataclass(frozen=True, eq=False)
class Sequence:
    """Finitely supported sequence on Z, stored as |values| over one window.

    offset is the index of values[0]; everything outside the window is zero.
    prefix is the read-only array of prefix sums, one longer than values:
    prefix[i] is the np.cumsum sum of values[:i], and prefix[0] = 0. It is
    set from values and is not a dataclass field, so the fields that reports
    render stay (offset, values).
    """

    offset: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if vals.size:
            check_coordinates(int(self.offset), int(self.offset) + vals.size - 1, "sequence window")
        vals = np.abs(vals)
        vals.flags.writeable = False
        with np.errstate(over="ignore"):
            prefix = np.concatenate([[0.0], np.cumsum(vals)])
        if not np.isfinite(prefix[-1]):
            raise ValueError("sum of |values| must be finite")
        prefix.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "prefix", prefix)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "Sequence":
        """Build from (index, value) pairs; duplicate indices are summed."""
        acc: dict[int, float] = {}
        for n, v in pairs:
            acc[int(n)] = acc.get(int(n), 0.0) + abs(float(v))
        if not acc:
            return cls(0, np.zeros(0))
        lo, hi = min(acc), max(acc)
        if hi - lo >= PAIRS_SPAN_LIMIT:
            raise ValueError(f"index pairs span {hi - lo + 1} points, more than 2**24")
        vals = np.zeros(hi - lo + 1)
        for n, v in acc.items():
            vals[n - lo] = v
        return cls(lo, vals)

    @property
    def window(self) -> ZInterval | None:
        if self.values.size == 0:
            return None
        return ZInterval(self.offset, self.offset + self.values.size - 1)

    def at(self, n: int) -> float:
        i = n - self.offset
        if 0 <= i < self.values.size:
            return float(self.values[i])
        return 0.0

    def support_hull(self) -> ZInterval | None:
        """Smallest interval containing all nonzero entries, None if zero."""
        nz = np.flatnonzero(self.values)
        if nz.size == 0:
            return None
        return ZInterval(self.offset + int(nz[0]), self.offset + int(nz[-1]))

    def total(self) -> float:
        return float(self.prefix[-1])

    def is_zero(self) -> bool:
        return self.total() == 0.0

    def prefix_sum(self, n: int) -> float:
        """Sum of values on indices < n (clipped to the window)."""
        i = min(max(n - self.offset, 0), self.values.size)
        return float(self.prefix[i])

    def range_sums(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Sums over [los[k], his[k]] for index arrays, clipped to the window."""
        # np.minimum of np.maximum, not np.clip: the same ints without
        # np.clip's Python-level argument handling on every call
        size = self.values.size
        i_hi = np.minimum(np.maximum(np.asarray(his) - self.offset + 1, 0), size)
        i_lo = np.minimum(np.maximum(np.asarray(los) - self.offset, 0), size)
        return self.prefix[i_hi] - self.prefix[i_lo]

    @cached_property
    def dyadic_rows(self) -> tuple[list[int], list[int], np.ndarray]:
        """Row starts (row L is starts[L]:starts[L+1]), first indices and
        sums of the blocks meeting the nonzero hull at levels 0..62."""
        hull, levels = self.support_hull(), np.arange(63)
        firsts = block_index_of(levels, hull.lo)
        sizes = block_index_of(levels, hull.hi) - firsts + 1
        starts = np.concatenate([[0], np.cumsum(sizes)])
        level = np.repeat(levels, sizes)
        js = np.arange(starts[-1]) - np.repeat(starts[:-1] - firsts, sizes)
        los = ((js - 1) << level) + 1
        return starts.tolist(), firsts.tolist(), self.range_sums(los, los + ((1 << level) - 1))

    def scaled(self, c: float) -> "Sequence":
        return Sequence(self.offset, self.values * abs(float(c)))

    def max_value(self) -> float:
        if self.values.size == 0:
            return 0.0
        return float(self.values.max())


def interval_sum(a: Sequence, interval: ZInterval) -> float:
    """Sum of |a(k)| over k in the interval."""
    return a.prefix_sum(interval.hi + 1) - a.prefix_sum(interval.lo)


def truncate(a: Sequence, interval: ZInterval) -> Sequence:
    """Pointwise product of a with the indicator of the interval."""
    win = a.window
    if win is None:
        return a
    lo = max(win.lo, interval.lo)
    hi = min(win.hi, interval.hi)
    if lo > hi:
        return Sequence(0, np.zeros(0))
    return Sequence(lo, a.values[lo - a.offset : hi - a.offset + 1])


def runs_from_mask(mask: np.ndarray, lo: int) -> list[ZInterval]:
    """Runs of the True entries of a boolean mask whose entry 0 is point lo."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [idx.size - 1]])
    return [ZInterval(int(idx[s]) + lo, int(idx[e]) + lo) for s, e in zip(starts, ends)]


def runs_normalize(intervals: Iterable[ZInterval]) -> list[ZInterval]:
    """Sorted, disjoint, non-adjacent canonical form of a union of intervals."""
    items = sorted(intervals, key=lambda r: r.lo)
    out: list[ZInterval] = []
    for r in items:
        if out and r.lo <= out[-1].hi + 1:
            if r.hi > out[-1].hi:
                out[-1] = ZInterval(out[-1].lo, r.hi)
        else:
            out.append(r)
    return out


def runs_union(a: PySequence[ZInterval], b: PySequence[ZInterval]) -> list[ZInterval]:
    return runs_normalize(list(a) + list(b))


def runs_intersect(a: PySequence[ZInterval], b: PySequence[ZInterval]) -> list[ZInterval]:
    out: list[ZInterval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i].lo, b[j].lo)
        hi = min(a[i].hi, b[j].hi)
        if lo <= hi:
            out.append(ZInterval(lo, hi))
        if a[i].hi < b[j].hi:
            i += 1
        else:
            j += 1
    return out


def runs_subtract(a: PySequence[ZInterval], b: PySequence[ZInterval]) -> list[ZInterval]:
    out: list[ZInterval] = []
    j = 0
    for r in a:
        lo = r.lo
        while j < len(b) and b[j].hi < lo:
            j += 1
        k = j
        while k < len(b) and b[k].lo <= r.hi:
            if b[k].lo > lo:
                out.append(ZInterval(lo, b[k].lo - 1))
            lo = max(lo, b[k].hi + 1)
            if lo > r.hi:
                break
            k += 1
        if lo <= r.hi:
            out.append(ZInterval(lo, r.hi))
    return out


def runs_count(runs: PySequence[ZInterval]) -> int:
    return sum(cardinality(r) for r in runs)
