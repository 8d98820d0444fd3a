"""Interval, dyadic block, sequence, and run-set algebra tests."""

import numpy as np
import pytest

from conftest import rebind_everywhere
from varseq import lattice
from varseq.czd import alpha_average, cz_decompose, level_set_partition
from varseq.exponent import ExponentFunction
from varseq.harness import XorShift64Star
from varseq.lattice import (
    COORDINATE_LIMIT,
    Sequence,
    ZInterval,
    block_index_of,
    cardinality,
    dilate,
    dyadic_block,
    interval_sum,
    runs_count,
    runs_from_mask,
    runs_intersect,
    runs_normalize,
    runs_subtract,
    runs_union,
    truncate,
)
from varseq.maximal import MaximalEvaluator


def test_interval_validation():
    with pytest.raises(ValueError):
        ZInterval(3, 2)
    with pytest.raises(TypeError):
        ZInterval(0.5, 2)
    assert cardinality(ZInterval(-2, 5)) == 8
    assert ZInterval(0, 4).contains(0) and not ZInterval(0, 4).contains(5)
    assert ZInterval(0, 4).intersects(ZInterval(4, 9))
    assert not ZInterval(0, 4).intersects(ZInterval(5, 9))


def test_dilate_cardinality_and_containment():
    rng = XorShift64Star(101)
    for _ in range(300):
        lo = rng.randint(-50, 50)
        hi = rng.randint(lo, lo + 60)
        f = rng.randint(1, 6)
        iv = ZInterval(lo, hi)
        d = dilate(iv, f)
        assert cardinality(d) == f * cardinality(iv)
        assert d.contains_interval(iv)
    assert dilate(ZInterval(1, 2), 2) == ZInterval(0, 3)
    assert dilate(ZInterval(0, 0), 3) == ZInterval(-1, 1)
    with pytest.raises(ValueError):
        dilate(ZInterval(0, 1), 0)


def test_dyadic_blocks_partition_each_level():
    # level-N blocks tile Z: consecutive indices are adjacent, width 2^N
    for level in range(0, 7):
        width = 1 << level
        prev_hi = None
        for j in range(-3, 4):
            b = dyadic_block(level, j)
            assert cardinality(b) == width
            if prev_hi is not None:
                assert b.lo == prev_hi + 1
            prev_hi = b.hi
    assert dyadic_block(0, 5) == ZInterval(5, 5)
    assert dyadic_block(2, 1) == ZInterval(1, 4)
    assert dyadic_block(2, 0) == ZInterval(-3, 0)


def test_dyadic_children_and_parent():
    rng = XorShift64Star(7)
    for _ in range(200):
        level = rng.randint(1, 10)
        j = rng.randint(-40, 40)
        blk = dyadic_block(level, j)
        left, right = dyadic_block(level - 1, 2 * j - 1), dyadic_block(level - 1, 2 * j)
        assert left.lo == blk.lo
        assert right.hi == blk.hi
        assert left.hi + 1 == right.lo
        # both children sit under block j one level up
        for child in (left, right):
            assert block_index_of(level, child.lo) == j == block_index_of(level, child.hi)
    with pytest.raises(ValueError, match="dyadic level"):
        dyadic_block(-1, 0)
    # every point lands in the block reported for it
    for level in range(0, 8):
        for n in range(-20, 21):
            assert dyadic_block(level, block_index_of(level, n)).contains(n)


def test_zero_one_boundary_never_merges():
    # 0 and 1 sit in different blocks at every level
    for level in range(0, 30):
        assert block_index_of(level, 0) == 0
        assert block_index_of(level, 1) == 1


def test_sequence_basic_and_prefix():
    a = Sequence(-2, [1.0, -2.0, 0.0, 3.0])
    assert a.at(-2) == 1.0 and a.at(-1) == 2.0  # stored as absolute values
    assert a.at(5) == 0.0
    assert a.total() == 6.0
    assert a.support_hull() == ZInterval(-2, 1)
    assert a.window == ZInterval(-2, 1)
    assert interval_sum(a, ZInterval(-1, 0)) == 2.0
    assert interval_sum(a, ZInterval(-100, 100)) == 6.0
    sums = a.range_sums(np.array([-2, 0]), np.array([-1, 10]))
    assert list(sums) == [3.0, 3.0]


def test_sequence_from_pairs_sums_duplicates():
    a = Sequence.from_pairs([(3, 1.0), (3, -2.0), (5, 4.0)])
    assert a.at(3) == 3.0 and a.at(4) == 0.0 and a.at(5) == 4.0
    assert Sequence.from_pairs([]).is_zero()


def test_sequence_rejects_bad_values():
    with pytest.raises(ValueError):
        Sequence(0, [1.0, np.inf])
    with pytest.raises(ValueError):
        Sequence(0, [[1.0, 2.0]])
    # finite entries whose total overflows
    with pytest.raises(ValueError, match="sum of"):
        Sequence(0, [1e308] * 3)


def test_truncate_and_scaled_shifted():
    a = Sequence(0, [1.0, 2.0, 3.0, 4.0])
    cut = truncate(a, ZInterval(1, 2))
    assert cut.window == ZInterval(1, 2) and cut.total() == 5.0
    assert truncate(a, ZInterval(10, 12)).is_zero()
    assert a.scaled(2.0).total() == 20.0
    assert Sequence(a.offset + 5, a.values).at(5) == 1.0


def test_runs_algebra_against_set_oracle():
    rng = XorShift64Star(2024)

    def random_runs():
        runs = []
        for _ in range(rng.randint(0, 4)):
            lo = rng.randint(-30, 30)
            runs.append(ZInterval(lo, rng.randint(lo, lo + 8)))
        return runs_normalize(runs)

    def as_set(runs):
        return {n for r in runs for n in range(r.lo, r.hi + 1)}

    for _ in range(400):
        x, y = random_runs(), random_runs()
        assert as_set(runs_union(x, y)) == as_set(x) | as_set(y)
        assert as_set(runs_intersect(x, y)) == as_set(x) & as_set(y)
        assert as_set(runs_subtract(x, y)) == as_set(x) - as_set(y)
        assert runs_count(x) == len(as_set(x))
        assert runs_normalize(x) == runs_normalize(list(x))


def test_runs_normalize_merges_adjacent():
    out = runs_normalize([ZInterval(4, 6), ZInterval(0, 3), ZInterval(8, 9)])
    assert out == [ZInterval(0, 6), ZInterval(8, 9)]


def test_runs_from_mask_against_set_oracle():
    rng = XorShift64Star(2025)
    assert runs_from_mask(np.zeros(5, dtype=bool), 3) == []
    for _ in range(200):
        mask = np.array([rng.uniform() < 0.4 for _ in range(rng.randint(1, 24))])
        lo = rng.randint(-40, 40)
        runs = runs_from_mask(mask, lo)
        assert runs == runs_normalize(runs)
        assert {n for r in runs for n in range(r.lo, r.hi + 1)} == {
            lo + int(i) for i in np.flatnonzero(mask)
        }


def _all_intervals(lo, hi):
    return [ZInterval(i, j) for i in range(lo, hi + 1) for j in range(i, hi + 1)]


def test_overlap_dilation_facts_exhaustive():
    """True dilation bounds for overlapping intervals, checked exhaustively.

    If I meets J and I is not inside 2J, then J lies in 5I; if instead
    |I| >= |J|, the factor improves to 3. (Acceptance criterion 15 shows
    both factors are least, with witnesses at which factors 4 and 2 fail.)
    """
    ivs = _all_intervals(-16, 16)
    for i_iv in ivs:
        i5 = dilate(i_iv, 5)
        i3 = dilate(i_iv, 3)
        for j_iv in ivs:
            if not i_iv.intersects(j_iv):
                continue
            if not dilate(j_iv, 2).contains_interval(i_iv):
                assert i5.contains_interval(j_iv)
            if cardinality(i_iv) >= cardinality(j_iv):
                assert i3.contains_interval(j_iv)


def test_coordinate_limit_rejects_far_windows():
    """Sequence, exponent and profile windows stop at +-2**61. Past 2**63 a
    window's np.arange turns float64: the partition of a sequence at
    2**63 - 5 once returned 1 level instead of 9. ZInterval itself is not
    bounded, so dyadic blocks up to level 62 stay legal."""
    assert COORDINATE_LIMIT == 2**61
    far = COORDINATE_LIMIT - 1
    with pytest.raises(ValueError, match="coordinate limit"):
        level_set_partition(Sequence(2**63 - 5, [1.0, 0.0, 2.0]), 0.0, 0.05)
    for lo in (far, -COORDINATE_LIMIT - 1):
        with pytest.raises(ValueError, match="sequence window .* coordinate limit"):
            Sequence(lo, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="exponent window .* coordinate limit"):
            ExponentFunction(lo, [2.0, 2.0, 2.0], 2.0)
    assert Sequence(far, [1.0, 2.0]).window == ZInterval(far, COORDINATE_LIMIT)
    assert Sequence(2**63, []).window is None
    assert ExponentFunction(2**63, [], 2.0).window is None
    ev = MaximalEvaluator(Sequence(0, [1.0]), 0.5)
    assert ev.profile(ZInterval(-COORDINATE_LIMIT, -COORDINATE_LIMIT + 1))[0] > 0.0
    with pytest.raises(ValueError, match="profile window .* coordinate limit"):
        ev.profile(ZInterval(0, COORDINATE_LIMIT + 1))
    assert dyadic_block(62, 2).hi == 2**63


@pytest.mark.parametrize("offset", [2**52, COORDINATE_LIMIT - 2**17, -(COORDINATE_LIMIT - 2**17)])
def test_far_offsets_match_offset_zero(offset):
    """Shifting a sequence anywhere inside the coordinate limit shifts its
    profile, superlevel runs and level sets and changes no bit."""
    values, alpha, t = [1.0, 0.0, 2.0, 0.5], 0.25, 0.05
    near, far = Sequence(0, values), Sequence(offset, values)
    ev0, ev = MaximalEvaluator(near, alpha), MaximalEvaluator(far, alpha)
    window = ZInterval(-2**16, 2**16)
    shifted = ZInterval(window.lo + offset, window.hi + offset)
    assert ev.profile(shifted).tobytes() == ev0.profile(window).tobytes()
    ss = [0.05, 0.3, 1.0, 1.5]
    want = [[ZInterval(r.lo + offset, r.hi + offset) for r in runs] for runs in ev0.superlevels(ss)]
    assert ev.superlevels(ss) == want
    p0, p = level_set_partition(near, alpha, t), level_set_partition(far, alpha, t)
    assert len(p.levels) == len(p0.levels) == 9
    assert p.profile.tobytes() == p0.profile.tobytes()
    assert p.window == ZInterval(p0.window.lo + offset, p0.window.hi + offset)
    assert p.omega == {
        k: [ZInterval(r.lo + offset, r.hi + offset) for r in runs] for k, runs in p0.omega.items()
    }


def _alpha_answers(a: Sequence, alpha: float) -> list:
    """Profile, sampled point values, superlevel runs, cuts and averages of
    a at alpha, with every float as its bytes or its hex."""
    ev = MaximalEvaluator(a, alpha)
    hull, top = ev.hull, ev.max_value()
    out = [ev.profile(ZInterval(hull.lo - 50, hull.hi + 50)).tobytes()]
    fresh = MaximalEvaluator(a, alpha)  # in-hull points before any profile
    picks = [hull.lo - 10**9, hull.lo - 1, hull.lo, (hull.lo + hull.hi) // 2, hull.hi + 3, hull.hi + 2**40]
    out.append([fresh.point(n).hex() for n in picks])
    out.append(ev.superlevels(top * np.array([0.95, 0.6, 0.3])))
    for t in (0.5 * top, 0.05 * top):
        d = cz_decompose(a, alpha, t)
        out.append((d.intervals, [x.hex() for x in d.averages], d.n_t))
    out.append([alpha_average(a, ZInterval(hull.lo + k, hull.hi + 7 * k), alpha).hex() for k in (0, 5, 40)])
    return out


@pytest.mark.parametrize("width", [100, 300])
def test_weight_owns_every_alpha_power(monkeypatch, width):
    """lattice.weight is the one place |I|^(alpha-1) is formed: with every
    varseq name bound to it rebound to a weight fixed at alpha' = 0.3, the
    M_alpha and cut answers at alpha = 0.25 are bit for bit the unpatched
    ones at alpha'. The estimates that place seeds, radii and first guesses
    keep alpha = 0.25, so this also shows that the values settle them."""
    a = Sequence(-17, np.random.default_rng(width).random(width))
    want = _alpha_answers(a, 0.3)
    real = lattice.weight

    def fixed(lengths, alpha, out=None):
        return real(lengths, 0.3, out=out)

    assert rebind_everywhere(monkeypatch, real, fixed) >= 3  # lattice, maximal and czd
    assert _alpha_answers(Sequence(-17, a.values), 0.25) == want
