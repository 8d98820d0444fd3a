"""Fractional maximal operator: closed forms, oracle equality, invariants."""

import gc
import math
import sys
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DENSE_TABLE_LIMIT,
    WINDOW_PLACEMENTS,
    adversarial_sequences,
    brute_force_profile,
    placed_window,
)
from varseq.harness import CorpusSpec, XorShift64Star, _sub_seed, generate_corpus, run_verification_suite
from varseq import maximal
from varseq.lattice import Sequence, ZInterval, cardinality, dilate, runs_from_mask
from varseq.maximal import MaximalEvaluator, alpha_weights

ALPHAS = (0.0, 0.25, 0.5)


def test_alpha_weights_table():
    w = alpha_weights(4, 0.5)
    assert w[0] == 1.0
    assert w[1] == pytest.approx(2.0**-0.5)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        alpha_weights(0, 0.5)


def test_delta_closed_form():
    """M_alpha delta_0(n) = (|n|+1)^(alpha-1): the best interval is [0, n]."""
    d = Sequence(0, [1.0])
    for alpha in ALPHAS:
        ev = MaximalEvaluator(d, alpha)
        for n in range(-60, 61):
            want = float(abs(n) + 1) ** (alpha - 1.0)
            assert ev.point(n) == pytest.approx(want, rel=1e-14), (alpha, n)


def test_constant_block_values():
    # inside a block of ones, the alpha = 0 average of any subinterval is 1
    a = Sequence(1, [1.0] * 16)
    ev = MaximalEvaluator(a, 0.0)
    for n in range(1, 17):
        assert ev.point(n) == 1.0
    # just outside, the best interval reaches across the whole block
    assert ev.point(0) == pytest.approx(16.0 / 17.0)
    assert ev.point(20) == pytest.approx(16.0 / 20.0)


def test_profile_equals_point_and_oracle_bitwise():
    spec = CorpusSpec(
        seed=881,
        count=25,
        window_width=36,
        value_law="bernoulli-sparse",
        alpha_list=ALPHAS,
        exponent_law="constant",
    )
    for item in generate_corpus(spec):
        hull = item.a.support_hull()
        window = dilate(hull, 3)
        for alpha in ALPHAS:
            ev = MaximalEvaluator(item.a, alpha)
            prof = ev.profile(window)
            oracle = brute_force_profile(item.a, alpha, window)
            assert np.array_equal(prof, oracle), (item.index, alpha)
            for n in range(window.lo, window.hi + 1, 7):
                assert prof[n - window.lo] == ev.point(n)


def test_translation_equivariance():
    rng = XorShift64Star(17)
    a = Sequence(0, [rng.uniform() for _ in range(20)])
    b = Sequence(a.offset + 13, a.values)
    for alpha in ALPHAS:
        ev_a, ev_b = MaximalEvaluator(a, alpha), MaximalEvaluator(b, alpha)
        for n in range(-5, 25):
            assert ev_a.point(n) == ev_b.point(n + 13)


def test_scaling_homogeneity_exact_for_powers_of_two():
    rng = XorShift64Star(18)
    a = Sequence(-4, [rng.uniform() for _ in range(17)])
    ev1 = MaximalEvaluator(a, 0.25)
    ev2 = MaximalEvaluator(a.scaled(2.0), 0.25)
    for n in range(-30, 30):
        assert ev2.point(n) == 2.0 * ev1.point(n)


def test_alpha_monotonicity():
    # weights grow with alpha, so M_alpha grows pointwise
    rng = XorShift64Star(19)
    a = Sequence(0, [rng.uniform() for _ in range(24)])
    e0 = MaximalEvaluator(a, 0.0)
    e1 = MaximalEvaluator(a, 0.25)
    e2 = MaximalEvaluator(a, 0.5)
    for n in range(-10, 35):
        assert e0.point(n) <= e1.point(n) * (1 + 1e-15) <= e2.point(n) * (1 + 1e-15) ** 2


def test_sublinearity():
    rng = XorShift64Star(20)
    u = Sequence(0, [rng.uniform() for _ in range(15)])
    v = Sequence(5, [rng.uniform() for _ in range(15)])
    w = Sequence.from_pairs(
        [(n, u.at(n) + v.at(n)) for n in range(0, 20)]
    )
    for alpha in ALPHAS:
        eu, evv, ew = (MaximalEvaluator(x, alpha) for x in (u, v, w))
        for n in range(-8, 28):
            assert ew.point(n) <= eu.point(n) + evv.point(n) + 1e-12


def test_monotone_in_sequence():
    rng = XorShift64Star(21)
    vals = np.array([rng.uniform() for _ in range(18)])
    small = Sequence(0, vals * 0.5)
    big = Sequence(0, vals)
    for alpha in ALPHAS:
        es, eb = MaximalEvaluator(small, alpha), MaximalEvaluator(big, alpha)
        for n in range(-6, 24):
            assert es.point(n) <= eb.point(n) + 1e-15


def test_superlevel_matches_thresholded_profile():
    spec = CorpusSpec(
        seed=882,
        count=20,
        window_width=30,
        value_law="spike",
        alpha_list=ALPHAS,
        exponent_law="constant",
    )
    for item in generate_corpus(spec):
        for alpha in ALPHAS:
            ev = MaximalEvaluator(item.a, alpha)
            max_m = ev.max_value()
            for frac in (0.9, 0.5, 0.11, 0.02):
                s = max_m * frac
                runs = ev.superlevel(s)
                if not runs:
                    continue
                lo, hi = runs[0].lo, runs[-1].hi
                window = ZInterval(lo - 3, hi + 3)
                prof = ev.profile(window)
                mask = prof > s
                got = np.zeros(mask.size, dtype=bool)
                for r in runs:
                    got[r.lo - window.lo : r.hi - window.lo + 1] = True
                assert np.array_equal(mask, got), (item.index, alpha, frac)


def test_superlevel_delta_closed_form():
    # {M_0 delta > s} = [-m, m] with m+1 the last length with 1/len > s
    d = Sequence(0, [1.0])
    ev = MaximalEvaluator(d, 0.0)
    for s in (0.9, 0.5, 0.26, 0.1, 0.013):
        m = int(np.ceil(1.0 / s)) - 2
        want = [ZInterval(-m, m)] if m >= 0 else []
        got = ev.superlevel(s)
        if s >= 1.0:
            assert got == []
        else:
            assert got == want, s


def test_superlevel_radius_guard():
    d = Sequence(0, [1.0])
    with pytest.raises(ValueError):
        MaximalEvaluator(d, 0.5).superlevel(1e-40)
    with pytest.raises(ValueError):
        MaximalEvaluator(d, 0.0).superlevel(0.0)
    # near alpha = 1 the reach overflows; the guard raises without a warning
    ev = MaximalEvaluator(Sequence(0, [1.0, 2.0, 3.0]), 0.995)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radius exceeds"):
            ev.superlevel(1e-3)


def test_superlevel_closed_form_overshoot_is_settled(monkeypatch):
    """Item 12 of the default weak_type corpus at alpha 0.5, at its lowest
    grid threshold: the rounded closed form puts both outer ends one step
    beyond the run, and the point values settle them, alone or in a batch
    with other thresholds."""
    seed = _sub_seed(_sub_seed(20260814, "weak_type"), "weak-0.5")
    spec = CorpusSpec(seed, 24, 48, "uniform01", "lh-decay", ALPHAS)
    a = generate_corpus(spec)[12].a
    assert (a.offset, a.values.size) == (40, 30)
    s = float.fromhex("0x1.2f957a7cd2572p-12")
    ev = MaximalEvaluator(a, 0.5)
    for S in (ev._geometry.S_left, ev._geometry.S_right):
        estimate = np.ceil(np.power(S / s, 2.0)).astype(np.int64) - np.arange(2, S.size + 2)
        assert estimate.max() == 2_999_999_970
    lo, hi = -2_999_999_929, 3_000_000_038
    assert ev.superlevel(s) == [ZInterval(lo, hi)]
    assert ev.point(lo) > s and ev.point(hi) > s
    assert not ev.point(lo - 1) > s and not ev.point(hi + 1) > s
    top = ev.max_value() / 2.0
    got = ev.superlevels([s, top, s])
    assert got[0] == got[2] == [ZInterval(lo, hi)]
    assert got[1:2] == _dense_superlevels(a, 0.5, [top])
    stepped: list[int] = []
    point = MaximalEvaluator.point
    monkeypatch.setattr(MaximalEvaluator, "point", lambda ev, n: stepped.append(n) or point(ev, n))
    assert ev.superlevels([s, s]) == [[ZInterval(lo, hi)]] * 2
    # each copy of s steps each side back from the overshoot: the estimate
    # fails, the run end holds, and one step beyond it fails again
    hull = ev.hull
    assert sorted(n for n in stepped if n < hull.lo) == [lo - 1] * 4 + [lo] * 2
    assert sorted(n for n in stepped if n > hull.hi) == [hi] * 2 + [hi + 1] * 4


def test_superlevel_probes_two_per_run_one_per_empty_side(monkeypatch):
    """An exterior run costs two point() probes (its outer end and one step
    beyond), and a side without one costs one, per threshold, in the batch
    and in the one-threshold call alike."""
    probes: list[int] = []
    point = MaximalEvaluator.point
    monkeypatch.setattr(MaximalEvaluator, "point", lambda ev, n: probes.append(n) or point(ev, n))
    spec = CorpusSpec(882, 20, 30, "spike", "constant", ALPHAS)
    sides_with_run = 0
    for item in generate_corpus(spec):
        for alpha in ALPHAS:
            ev = MaximalEvaluator(item.a, alpha)
            hull = ev.hull
            ss = [ev.max_value() * frac for frac in (0.9, 0.5, 0.11, 0.02)]
            budget = [0, 0]  # probes allowed left and right of the hull
            for s in ss:
                probes.clear()
                runs = ev.superlevel(s)
                left = bool(runs) and runs[0].lo < hull.lo
                right = bool(runs) and runs[-1].hi > hull.hi
                sides_with_run += left + right
                budget[0] += 1 + left
                budget[1] += 1 + right
                assert sum(n < hull.lo for n in probes) <= 1 + left
                assert sum(n > hull.hi for n in probes) <= 1 + right
                assert all(not hull.contains(n) for n in probes)
            probes.clear()
            ev.superlevels(ss)
            assert sum(n < hull.lo for n in probes) <= budget[0]
            assert sum(n > hull.hi for n in probes) <= budget[1]
            assert all(not hull.contains(n) for n in probes)
    assert sides_with_run > 100


def test_reach_near_alpha_one_is_capped():
    """(total/s)^(1/(1-alpha)) overflows a float as alpha -> 1; reach then
    returns the cap, and elsewhere the plain expression, capped."""
    a = Sequence(0, [1.0, 2.0, 3.0])
    ev = MaximalEvaluator(a, 0.995)
    assert ev.reach(ev.max_value() / 64.0, 2**14) == 2**14
    ev = MaximalEvaluator(a, 0.5)
    s = ev.max_value() / 64.0
    assert ev.reach(s, 2**14) == math.ceil((6.0 / s) ** 2.0) < 2**14
    assert ev.reach(s, 100) == 100


def test_zero_sequence():
    z = Sequence(0, np.zeros(5))
    ev = MaximalEvaluator(z, 0.25)
    assert ev.max_value() == 0.0
    assert ev.point(3) == 0.0
    assert ev.superlevel(0.5) == []
    assert MaximalEvaluator(z, 0.0).superlevel(1.0) == []


# Property tests: the envelope evaluator against the dense oracle, bitwise.

_magnitudes = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


@st.composite
def _sequences(draw):
    """Hull of width 1..64 with nonzero ends, interior zeros, values 1e-12..1e12."""
    width = draw(st.integers(1, 64))
    inner = st.one_of(st.just(0.0), _magnitudes)
    vals = [draw(_magnitudes)]
    if width > 1:
        vals += draw(st.lists(inner, min_size=width - 2, max_size=width - 2))
        vals.append(draw(_magnitudes))
    return Sequence(draw(st.integers(-1000, 1000)), vals)


_alphas = st.floats(0.0, 0.99)
_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _assert_matches_oracle(a, alpha, window):
    ev = MaximalEvaluator(a, alpha)
    prof = ev.profile(window)
    oracle = brute_force_profile(a, alpha, window)
    assert np.array_equal(prof, oracle)
    for n in range(window.lo, window.hi + 1):
        assert ev.point(n) == oracle[n - window.lo], n


@_property
@given(_sequences(), _alphas, st.integers(-63, 400), st.integers(-63, 400))
def test_profile_straddling_hull_matches_oracle(a, alpha, pad_lo, pad_hi):
    hull = a.support_hull()
    ends = sorted((hull.lo - pad_lo, hull.hi + pad_hi))
    _assert_matches_oracle(a, alpha, ZInterval(*ends))



@_property
@given(
    _sequences(),
    _alphas,
    st.sampled_from(WINDOW_PLACEMENTS),
    st.integers(1, 200),
    st.integers(1, 40),
    st.sampled_from([0, 2**53, 2**55]),
)
def test_profile_by_slices_matches_oracle(a, alpha, where, gap, width, far):
    """profile fills the overlap with the hull from one slice of the hull
    profile and each side outside it from one envelope pass: the same floats
    as the oracle for every placement of the window against the hull. Windows
    wholly left or right of it also sit past 2**53, where a length must come
    from an exact int before its cast to float."""
    hull = a.support_hull()
    if where in ("left", "right"):
        gap += far
    window = placed_window(hull.lo, hull.hi, where, gap, width)
    prof = MaximalEvaluator(a, alpha).profile(window)
    assert prof.tobytes() == brute_force_profile(a, alpha, window).tobytes()


# near the longest length at which the oracle still reads the weight table
_switch = st.integers(-3, 3).map(lambda k: DENSE_TABLE_LIMIT + k)
_far = st.sampled_from([2**40, 2**50])


@_property
@given(_sequences(), _alphas, st.one_of(_switch, _far), st.booleans(), st.booleans())
def test_far_probes_match_oracle(a, alpha, dist, by_max_len, right):
    hull = a.support_hull()
    width = cardinality(hull)
    if by_max_len:
        # put the longest candidate, not the nearest, at that length
        dist = max(1, dist - width)
    n = hull.hi + dist if right else hull.lo - dist
    _assert_matches_oracle(a, alpha, ZInterval(n - 2, n + 2))


def test_near_tied_candidates_match_oracle():
    # partial sums 1 + j*1e-12: neighbouring candidates cross near distance
    # (1 - alpha) * 1e12, where many of them tie to within rounding
    a = Sequence(0, [1.0] + [1e-12] * 15)
    for alpha in (0.0, 0.25, 0.5):
        for cross in (0.5e12, (1.0 - alpha) * 1e12, 2e12):
            d = int(cross)
            _assert_matches_oracle(a, alpha, ZInterval(15 + d - 32, 15 + d + 32))
            _assert_matches_oracle(a, alpha, ZInterval(-d - 32, -d + 32))


def test_near_max_margin_keeps_rounding_winners():
    """Hulls whose candidates tie in exact arithmetic near distance 2e8: the
    float max of a point in the middle of these windows sits on a candidate
    that is not a float max at either end, so a segment whose two ends only
    kept their exact float maxima (_NEAR_MAX = 1.0) skips it. Found by a
    random search over ulp-nudged ties; _NEAR_MAX's margin keeps them."""
    cases = [
        ([1.0000000000000004, 2.1967119234744814e-09, 2.1967152541435553e-09], 0.5, -227612733),
        ([0.9999999999999996, 2.51459519873265e-10, 2.5145840965024036e-10], 0.5, -1988399324),
    ]
    for vals, alpha, n in cases:
        _assert_matches_oracle(Sequence(0, vals), alpha, ZInterval(n - 2, n + 2))


# The envelope's seeded segments against the dense oracle, where the seeds
# are hardest to place: ties at a crossing nudged by ulps, runs of
# candidates tied to within rounding, alpha near 1, partial sums from
# 1e-300 to 1e300, a side whose first partial sum rounds to 0, long zero
# runs and a lone far spike.

_NEAR_ONE = st.sampled_from([0.96875, 0.984375])
_envelope_alphas = st.one_of(_NEAR_ONE, _alphas)


@st.composite
def _nudged_ties(draw):
    """Hull index 0 and hull index k tie in exact arithmetic at distance d0
    on one side, (d0 + k + 1)^(alpha-1) S[k] = (d0 + 1)^(alpha-1) S[0], with
    S[k] nudged by up to 3 ulps; the window holds d0."""
    alpha = draw(_envelope_alphas)
    k = draw(st.integers(1, 40))
    d0 = draw(st.one_of(st.integers(1, 2**12), st.integers(2**12, 2**40)))
    s0 = 10.0 ** draw(st.floats(-12.0, 12.0))
    sk = s0 * ((d0 + k + 1) / (d0 + 1)) ** (1.0 - alpha)
    sk *= 1.0 + draw(st.integers(-3, 3)) * 2.0**-52
    vals = [s0] + [0.0] * (k - 1) + [sk - s0]
    return _on_side(draw, vals, alpha, d0)


@st.composite
def _near_collinear(draw):
    """Partial sums s0 (1 + j delta) with each step nudged by up to 4 ulps:
    neighbouring candidates cross near distance (1 - alpha) / delta, and
    many of them tie there to within the near-max margin."""
    alpha = draw(_envelope_alphas)
    s0, delta = 10.0 ** draw(st.floats(-12.0, 12.0)), 10.0 ** draw(st.floats(-15.0, -9.0))
    nudges = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=40))
    vals = [s0] + [s0 * delta * (1.0 + k * 2.0**-52) for k in nudges]
    return _on_side(draw, vals, alpha, max(1, int((1.0 - alpha) / delta)))


@st.composite
def _wide_range(draw):
    """Values from 1e-300 to 1e300 with interior zeros; or a large value
    and one below half its ulp, so that one side's first partial sum
    P[W] - P[W-1] rounds to 0."""
    alpha = draw(_envelope_alphas)
    if draw(st.booleans()):
        big = 10.0 ** draw(st.floats(-280.0, 280.0))
        vals = [big] + [0.0] * draw(st.integers(0, 6)) + [big * 10.0 ** -draw(st.floats(17.0, 20.0))]
    else:
        exps = draw(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=48))
        vals = [10.0**e for e in exps]
        for i in draw(st.lists(st.integers(1, 46), max_size=8)):
            if i < len(vals) - 1:
                vals[i] = 0.0
    return _on_side(draw, vals, alpha, draw(_distances))


@st.composite
def _adversarial(draw):
    a = draw(adversarial_sequences())
    return _on_side(draw, a.values.tolist(), draw(_envelope_alphas), draw(_distances), a.offset)


_distances = st.one_of(st.integers(1, 64), st.integers(64, 5000), st.integers(2**20, 2**40))


def _on_side(draw, vals, alpha, d, offset=0):
    """(sequence, alpha, window): a window of up to 24 points around
    distance d from the hull on either side, in either orientation, or
    around a crossing of the winning vertices as _winner_breaks puts it."""
    if draw(st.booleans()):
        vals = vals[::-1]
    a = Sequence(offset, vals)
    right = draw(st.booleans())
    if draw(st.booleans()):
        ev = MaximalEvaluator(a, alpha)
        g = ev._geometry
        S, vertices = (g.S_right, g.right) if right else (g.S_left, g.left)
        breaks = [b for b in maximal._winner_breaks(S, vertices, alpha) if 1.0 <= b < 2.0**40]
        if breaks:
            d = math.floor(draw(st.sampled_from(breaks)))
    hull = a.support_hull()
    n = hull.hi + d if right else hull.lo - d
    half = draw(st.integers(0, 12))
    return a, alpha, ZInterval(n - half, n + half)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(_nudged_ties(), _near_collinear(), _wide_range(), _adversarial()))
def test_envelope_seeds_match_oracle(case):
    """Every value of a window, and each point() on it, is the dense
    oracle's float, however the crossings that seed the envelope round."""
    _assert_matches_oracle(*case)


def test_envelope_seeds_at_alpha_near_one_and_zero_first_sum():
    """Two inputs that broke crossings taken without log space: at alpha =
    0.96875, r = (S[k]/S[j])^32 = (1e20)^32 overflows, and
    Sequence(0, [1e10, 1e-7]) has right-side partial sums [0, 1e10], so a
    ratio with S[0] divides by zero. Both keep the oracle's floats; the zero
    sum is no seed vertex."""
    a = Sequence(0, [1.0, 0.0, 1e20])
    for alpha in (0.96875, 0.984375):
        _assert_matches_oracle(a, alpha, ZInterval(-40, -1))
        _assert_matches_oracle(a, alpha, ZInterval(3, 40))
    b = Sequence(0, [1e10, 1e-7])
    ev = MaximalEvaluator(b, 0.25)
    assert ev._geometry.S_right.tolist() == [0.0, 1e10]
    assert maximal._winner_breaks(ev._geometry.S_right, ev._geometry.right, 0.25) == []
    _assert_matches_oracle(b, 0.25, ZInterval(2, 40))
    _assert_matches_oracle(b, 0.25, ZInterval(-40, -1))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_envelope_seed_cap_matches_oracle(alpha):
    """On the concave hull 0.999 ** n of 4,096 points every left-side point
    is an exterior vertex, and the 4,096 nearest distances hold more
    crossings than _envelope's seed rows fit (1,908, 1,419 and 482 against
    a share of 31): the seeds are an even share of the crossings,
    and every value is still the oracle's float."""
    a = Sequence(0, 0.999 ** np.arange(4096))
    window = ZInterval(-4096, -1)
    ev = MaximalEvaluator(a, alpha)
    g = ev._geometry
    W = g.S_left.size
    assert len(g.left) == W
    # distances 1..4096, as profile() asks _envelope for them
    breaks = maximal._winner_breaks(g.S_left, g.left, alpha)
    assert sum(1 < b < 4096 for b in breaks) > (maximal._SEED_SCORES // W - 2) // 2
    oracle = brute_force_profile(a, alpha, window)
    assert np.array_equal(ev.profile(window), oracle)
    sampled = MaximalEvaluator(a, alpha)
    for n in range(window.lo, window.hi + 1, 97):
        assert sampled.point(n) == oracle[n - window.lo], n


# Midpoint scorings inside _envelope over default verify's strong_type and
# domination windows: 4,988 when only the two ends seeded the segments.
MIDPOINT_SCORES_MAX = 60


def test_envelope_midpoint_scores_on_default_corpus(monkeypatch):
    """Seeded at the crossings of the winning vertices, the envelope fills
    nearly every segment without a midpoint: at most about 1% of the
    4,988 midpoint scorings that splitting from the two ends took."""
    inside, scored, calls = [0], [0], [0]
    scores, envelope = maximal._scores, MaximalEvaluator._envelope

    def counted_scores(*args):
        scored[0] += inside[0]
        return scores(*args)

    def counted_envelope(self, *args):
        inside[0], calls[0] = 1, calls[0] + 1
        try:
            return envelope(self, *args)
        finally:
            inside[0] = 0

    monkeypatch.setattr(maximal, "_scores", counted_scores)
    monkeypatch.setattr(MaximalEvaluator, "_envelope", counted_envelope)
    spec = CorpusSpec(20260814, 24, 48, "uniform01", "lh-decay", ALPHAS)
    run_verification_suite(spec, checks=["strong_type", "domination"])
    assert calls[0] > 0
    assert scored[0] <= MIDPOINT_SCORES_MAX


# The hull profile (convex-chain pairs scored one chain step at a time, or
# the row sweep when that would score more than W^2 pairs) against the
# rectangle oracle, bitwise, on laws where chains are long or rounding
# decides the max.


def _hull_values(law: str, width: int, rng: np.random.Generator) -> np.ndarray:
    if law == "constant":
        return np.full(width, 10.0 ** rng.uniform(-12, 12))
    if law == "zero-runs":
        vals = np.zeros(width)
        spikes = rng.integers(0, width, size=rng.integers(0, 6))
        vals[spikes] = rng.random(spikes.size)
        vals[0], vals[-1] = rng.random(2) + 0.01
        return vals
    if law == "arithmetic":
        first = rng.uniform(0.5, 2.0)
        return first + rng.uniform(-first, first) * np.arange(width) / width
    if law == "nudged":
        # constant or slowly rising values nudged by a few ulps: nearly
        # collinear prefix sums
        base = rng.uniform(0.1, 1.0) * (1.0 + np.arange(width) * rng.choice([0.0, 1e-3]))
        return base * (1.0 + rng.integers(-2, 3, width) * 2.0**-52)
    if law == "nudged-blocks":
        # runs of 8 equal values nudged by a few ulps: at alpha = 0 the
        # averages of intervals inside a run tie to within rounding
        vals = np.repeat(rng.random(width // 8 + 1), 8)[:width] + 0.01
        return vals * (1.0 + rng.integers(-4, 5, width) * 2.0**-52)
    if law == "dynamic":
        return 10.0 ** rng.uniform(-300, 300, width)
    return rng.random(width)


_HULL_LAWS = ("constant", "zero-runs", "arithmetic", "nudged", "nudged-blocks", "dynamic", "uniform")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_HULL_LAWS),
    st.one_of(st.integers(1, 64), st.integers(65, 512)),
    st.integers(0, 2**32 - 1),
    _alphas,
)
def test_hull_profile_matches_rectangle_oracle(law, width, seed, alpha):
    a = Sequence(seed % 1000, _hull_values(law, width, np.random.default_rng(seed)))
    hull = a.support_hull()
    prof = MaximalEvaluator(a, alpha).profile(hull)
    assert np.array_equal(prof, brute_force_profile(a, alpha, hull))


def _all_chains(a: Sequence):
    """The prefix sums of a's hull and its chains as _pair_profile takes
    them, also where _Geometry.pairs would select the sweep."""
    P = MaximalEvaluator(a, 0.0)._P
    y = np.ldexp(P, -int(np.frexp(P[-1])[1]))
    pred_l, depth_l = maximal._convex_chains(y[:-1].tolist())
    pred_r, depth_r = maximal._convex_chains((-y[:0:-1]).tolist())
    return P, (pred_l, int(depth_l.max()), pred_r, int(depth_r.max()))


def test_hull_profile_ulp_ties_match_oracle():
    # the pair scorer must keep every pair whose float can round to the max,
    # also where the exact values tie to within a few ulps; these chains are
    # long enough that the evaluator sweeps, so the pairs are scored directly
    for seed in range(150):
        rng = np.random.default_rng(seed)
        a = Sequence(0, _hull_values("nudged-blocks", int(rng.integers(3, 120)), rng))
        hull = a.support_hull()
        oracle = brute_force_profile(a, 0.0, hull)
        P, chains = _all_chains(a)
        prof = maximal._pair_profile(P, alpha_weights(P.size - 1, 0.0), chains)
        assert np.array_equal(prof, oracle), seed
        assert np.array_equal(MaximalEvaluator(a, 0.0).profile(hull), oracle), seed


def _chain_depths(a: Sequence) -> tuple[int, int]:
    """The deepest left and right chain over the hull of a."""
    _, (_, deep_l, _, deep_r) = _all_chains(a)
    return deep_l, deep_r


def test_hull_profile_path_selected_by_pair_count(monkeypatch):
    """Hulls of at most _DENSE_MAX points take the dense pass; wider ones
    their chain pairs, or the row sweep when the chains' depth product
    exceeds W. The pair path stays covered at small W by calling it
    directly."""
    paths = []

    def spy(name):
        real = getattr(maximal, name)

        def call(P, *args):
            paths.append((name, P.size - 1))
            return real(P, *args)

        monkeypatch.setattr(maximal, name, call)

    for name in ("_dense_profile", "_pair_profile", "_sweep_profile"):
        spy(name)
    # corpus hulls of W = 42 with chain depths 6 x 6 and 8 x 5 (depth
    # products at most W, though their pairs outnumber the W(W+1)/2
    # intervals) and of W = 36 with 4 x 7: dense, and scored by chain steps
    # when asked
    items = generate_corpus(CorpusSpec(20260814, 24, 48, "spike", "lh-decay", ALPHAS))
    for i, W, depths in ((1, 42, (6, 6)), (10, 42, (8, 5)), (15, 36, (4, 7))):
        a = items[i].a
        hull = a.support_hull()
        assert (cardinality(hull), _chain_depths(a)) == (W, depths)
        P, chains = _all_chains(a)
        for alpha in ALPHAS:
            want = brute_force_profile(a, alpha, hull)
            paths.clear()
            assert np.array_equal(MaximalEvaluator(a, alpha).profile(hull), want)
            assert paths == [("_dense_profile", W)]
            assert np.array_equal(maximal._pair_profile(P, alpha_weights(W, alpha), chains), want)
    # random values: short chains, scored by chain steps
    a = Sequence(0, np.random.default_rng(3).random(512))
    for alpha in ALPHAS:
        paths.clear()
        prof = MaximalEvaluator(a, alpha).profile(a.support_hull())
        assert np.array_equal(prof, brute_force_profile(a, alpha, a.support_hull()))
        assert paths == [("_pair_profile", 512)]
    # a constant sequence keeps every point on both chains (depths W x W),
    # so it is swept; with unit values every interval of length k
    # scores w[k-1] * k, and every length fits around every point
    W = 4096
    assert _chain_depths(Sequence(0, np.ones(W))) == (W, W)
    for alpha in ALPHAS:
        paths.clear()
        prof = MaximalEvaluator(Sequence(0, np.ones(W)), alpha).profile(ZInterval(0, W - 1))
        want = (alpha_weights(W, alpha) * np.arange(1, W + 1)).max()
        assert np.all(prof == want)
        assert paths == [("_sweep_profile", W)]


def test_hull_chains_built_once_per_sequence(monkeypatch):
    """The chains are alpha-free: the evaluators of every alpha share one
    build per sequence, keyed by identity and dropped with the sequence."""
    built = []
    chains = maximal._convex_chains
    monkeypatch.setattr(maximal, "_convex_chains", lambda y: built.append(len(y)) or chains(y))
    vals = np.random.default_rng(5).random(300)
    a = Sequence(0, vals)
    maxima = [MaximalEvaluator(a, alpha).max_value() for alpha in ALPHAS]
    assert built == [300, 300]
    b = Sequence(0, vals)
    assert [MaximalEvaluator(b, alpha).max_value() for alpha in ALPHAS] == maxima
    assert built == [300] * 4
    gone = weakref.ref(a)
    del a
    gc.collect()
    assert gone() is None


# In-hull point() without the hull profile: a pair-path hull whose profile
# is not built scores the point's own chain pairs.

_POINT_ALPHAS = (0.0, 0.25, 0.5, 0.9)


@st.composite
def _point_hulls(draw):
    """Hulls of W in {128, 129, 300, 1024} from the hull laws (the dense
    pass, the pair path and, for the constant law, the sweep), or an
    adversarial sequence."""
    if draw(st.integers(0, 3)) == 0:
        return draw(adversarial_sequences())
    law = draw(st.sampled_from(_HULL_LAWS))
    width = draw(st.sampled_from([128, 129, 300, 1024]))
    seed = draw(st.integers(0, 2**32 - 1))
    return Sequence(seed % 1000, _hull_values(law, width, np.random.default_rng(seed)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_point_hulls(), st.sampled_from(_POINT_ALPHAS), st.data())
def test_in_hull_point_matches_oracle(a, alpha, data):
    """point() at both hull ends and one inner point of a fresh evaluator,
    bit for bit against brute_force_profile; the profile stays unbuilt
    exactly on pair-path hulls, and the points then agree with it."""
    ev = MaximalEvaluator(a, alpha)
    hull = ev.hull
    W = cardinality(hull)
    ns = [hull.lo, hull.hi, data.draw(st.integers(hull.lo, hull.hi))]
    got = [ev.point(n) for n in ns]
    want = brute_force_profile(a, alpha, hull)[np.subtract(ns, hull.lo)].tolist()
    assert [x.hex() for x in got] == [x.hex() for x in want], ns
    pairs = W > maximal._DENSE_MAX and math.prod(_chain_depths(a)) <= W
    assert ev._geometry.pairs == pairs
    assert (ev._hull_profile is None) == pairs
    assert got == [ev.profile(ZInterval(n, n))[0] for n in ns]


def test_in_hull_point_builds_no_profile(monkeypatch):
    """On a pair-path hull, point() alone calls no profile builder; the
    dense and sweep hulls still build their profile once."""
    calls = []
    for name in ("_dense_profile", "_pair_profile", "_sweep_profile"):
        real = getattr(maximal, name)
        monkeypatch.setattr(
            maximal, name, lambda P, *args, real=real, name=name: calls.append(name) or real(P, *args)
        )
    rng = np.random.default_rng(11)
    cases = (
        (Sequence(-40, rng.random(512)), []),
        (Sequence(7, rng.random(128)), ["_dense_profile"]),
        (Sequence(0, np.ones(300)), ["_sweep_profile"]),
    )
    for a, builders in cases:
        for alpha in _POINT_ALPHAS:
            ev = MaximalEvaluator(a, alpha)
            hull = ev.hull
            calls.clear()
            points = [ev.point(n) for n in range(hull.lo, hull.hi + 1, 37)]
            assert calls == builders
            assert points == ev.profile(hull)[:: 37].tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 300),
    st.integers(1, 200),
    st.integers(0, 300),
    st.sampled_from(["uniform", "dynamic", "zero-runs"]),
    st.one_of(st.integers(-1000, 1000), st.integers(0, 600).map(lambda d: 2**61 - 800 + d)),
    st.integers(0, 2**32 - 1),
)
def test_evaluator_prefix_sums_are_the_hull_cumsum(lead, width, trail, law, offset, seed):
    """The evaluator's prefix sums, a view of the sequence's own, carry the
    bits of the hull values' own cumsum, with zeros before and after the
    hull, at offsets up to the coordinate limit (either sign)."""
    body = _hull_values(law, width, np.random.default_rng(seed))
    body[0] = body[-1] = 1.0 + body[0]
    vals = np.concatenate([np.zeros(lead), body, np.zeros(trail)])
    for start in (offset, -offset - vals.size):
        a = Sequence(max(-(2**61), min(start, 2**61 - vals.size + 1)), vals)
        hull = a.support_hull()
        want = np.concatenate([[0.0], np.cumsum(vals[lead : lead + width])])
        assert cardinality(hull) == width
        assert MaximalEvaluator(a, 0.5)._P.tobytes() == want.tobytes()


# The batched superlevel sets against the dense oracle: thresholds at
# profile values and one ulp either side, duplicated and unsorted.

_ORACLE_PAD = 48


def _dense_superlevels(a: Sequence, alpha: float, ss, window=None) -> list[list[ZInterval]]:
    """{M_alpha > s} for each s of ss from the dense profile of the window
    (by default the hull dilated by _ORACLE_PAD), for thresholds whose sets
    end inside it."""
    window = window or dilate(a.support_hull(), _ORACLE_PAD)
    prof = brute_force_profile(a, alpha, window)
    assert not (prof[0] > np.min(ss) or prof[-1] > np.min(ss))
    return [runs_from_mask(prof > s, window.lo) for s in ss]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_HULL_LAWS),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    _alphas,
)
def test_superlevels_match_oracle(law, width, seed, alpha):
    rng = np.random.default_rng(seed)
    a = Sequence(seed % 1000, _hull_values(law, width, rng))
    ev = MaximalEvaluator(a, alpha)
    hull = ev.hull
    # values within half the pad of the hull, so every set ends inside the
    # oracle's window
    near = ev.profile(dilate(hull, _ORACLE_PAD // 2))
    picks = rng.choice(near, size=6)
    ss = np.concatenate([picks, np.nextafter(picks, 0.0), np.nextafter(picks, np.inf)])
    ss = rng.permutation(np.concatenate([ss, ss[:3]]))
    want = _dense_superlevels(a, alpha, ss)
    assert ev.superlevels(ss) == want
    assert [ev.superlevel(float(s)) for s in ss] == want


# Thresholds max * 2**-k whose sets reach up to 2**40 points beyond the hull.
_FAR_REACH = 2**40


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_HULL_LAWS),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    _alphas,
)
def test_far_superlevel_ends_match_oracle(law, width, seed, alpha):
    """Thresholds max(M_alpha) * 2**-k for k = 1..10, and the values of
    M_alpha at distances 16**k from the hull (ties at a run end, where the
    closed form must be settled), each also one ulp either way, with runs
    ending anywhere out to 2**40 points past the hull. On each side the
    dense oracle is > s at the outermost point of the set and <= s one step
    beyond it (the hull end itself when the side has no exterior run).
    Thresholds whose reach passes 2**40 are skipped; the oracle is
    evaluated at those two points only."""
    a = Sequence(seed % 1000, _hull_values(law, width, np.random.default_rng(seed)))
    ev = MaximalEvaluator(a, alpha)
    hull = ev.hull
    ties = [ev.point(n) for d in 16 ** np.arange(1, 11) for n in (hull.lo - int(d), hull.hi + int(d))]
    base = np.concatenate([ev.max_value() * 2.0 ** -np.arange(1, 11), ties])
    ss = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)])
    ss = ss[ss >= sys.float_info.min]
    ss = ss[[ev.reach(float(s), _FAR_REACH + 1) <= _FAR_REACH for s in ss]]

    def oracle(n: int) -> float:
        return brute_force_profile(a, alpha, ZInterval(n, n))[0]

    for s, runs in zip(ss.tolist(), ev.superlevels(ss)):
        left = min(runs[0].lo, hull.lo) if runs else hull.lo
        right = max(runs[-1].hi, hull.hi) if runs else hull.hi
        if left < hull.lo:
            assert oracle(left) > s
        if right > hull.hi:
            assert oracle(right) > s
        assert oracle(left - 1) <= s and oracle(right + 1) <= s


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    adversarial_sequences(),
    st.sampled_from(_POINT_ALPHAS),
    st.integers(0, 2**32 - 1),
)
def test_superlevels_match_oracle_on_adversarial_laws(a, alpha, seed):
    """Long zero runs and a lone far spike (hulls up to 3,009 points):
    thresholds at the profile values within 64 points of the hull and one
    ulp either side, against the dense oracle on the hull padded past the
    reach of the lowest threshold."""
    rng = np.random.default_rng(seed)
    ev = MaximalEvaluator(a, alpha)
    hull = ev.hull
    picks = rng.choice(ev.profile(ZInterval(hull.lo - 64, hull.hi + 64)), size=6)
    ss = np.concatenate([picks, np.nextafter(picks, 0.0), np.nextafter(picks, np.inf)])
    pad = ev.reach(float(ss.min()), 2**20) + 1
    want = _dense_superlevels(a, alpha, ss, ZInterval(hull.lo - pad, hull.hi + pad))
    assert ev.superlevels(ss) == want
    assert [ev.superlevel(float(s)) for s in ss] == want


def test_superlevels_of_no_thresholds():
    assert MaximalEvaluator(Sequence(0, [1.0, 2.0]), 0.5).superlevels([]) == []


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_HULL_LAWS),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.5),
)
def test_superlevels_settle_hull_from_whole_hull_value(law, width, seed, alpha):
    """Every hull point lies in the whole hull, so its profile value is at
    least V = w[W-1] * P[W]. A fresh evaluator whose thresholds all lie below
    V marks the hull without building its profile; a threshold at V or above
    builds it. Thresholds at V and one ulp either side, alone and mixed with
    lower ones, against the dense oracle on the hull padded past the reach
    of the lowest threshold."""
    a = Sequence(seed % 1000, _hull_values(law, width, np.random.default_rng(seed)))
    P = MaximalEvaluator(a, alpha)._P
    V = alpha_weights(P.size - 1, alpha)[-1] * P[-1]
    below, above = np.nextafter(V, 0.0), np.nextafter(V, np.inf)
    cases = [[below], [V], [above], [below, V / 2, V / 4], [V / 4, V, below], [V / 3, above]]
    for ss in cases:
        ev = MaximalEvaluator(a, alpha)
        got = ev.superlevels(ss)
        assert (ev._hull_profile is None) == (max(ss) < V), ss
        pad = ev.reach(min(ss), 2**20) + 1
        window = ZInterval(ev.hull.lo - pad, ev.hull.hi + pad)
        assert got == _dense_superlevels(a, alpha, ss, window), ss


def test_superlevels_at_whole_hull_value_exclude_its_ties():
    """At alpha > 0 a constant hull's best interval around every point is the
    whole hull, so every profile value equals V and {M_alpha > V} misses the
    hull, while one ulp below V takes all of it without building the
    profile."""
    a = Sequence(3, np.full(8, 0.75))
    V = alpha_weights(8, 0.5)[-1] * 6.0
    ev = MaximalEvaluator(a, 0.5)
    assert ev.superlevel(V) == [] and ev._hull_profile is not None
    assert np.all(ev.profile(ev.hull) == V)
    ev = MaximalEvaluator(a, 0.5)
    assert ev.superlevel(np.nextafter(V, 0.0)) == [ev.hull]
    assert ev._hull_profile is None


def _exact_maximal(values: list[float], alpha: float, dists: range) -> tuple[list, list, list]:
    """M_alpha on the hull [0, W-1] and at the distances dists left and
    right of it, from exact integer prefix sums of integer-valued floats
    and 60-digit weights: the max over each point's rectangle of intervals."""
    W = len(values)
    P = [0]
    for v in values:
        P.append(P[-1] + int(v))
    w = [mpmath.mpf(n) ** (mpmath.mpf(alpha) - 1) for n in range(1, W + dists[-1] + 1)]
    hull = [mpmath.mpf(0)] * W
    for lo in range(W):
        best = mpmath.mpf(0)  # max over right ends >= n, for n from W-1 down to lo
        for n in range(W - 1, lo - 1, -1):
            best = max(best, w[n - lo] * (P[n + 1] - P[lo]))
            hull[n] = max(hull[n], best)
    left = [max(w[d + j] * P[j + 1] for j in range(W)) for d in dists]
    right = [max(w[d + j] * (P[W] - P[W - 1 - j]) for j in range(W)) for d in dists]
    return hull, left, right


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("spike", [1e17, 1e300])
def test_values_within_cancellation_bound(spike, width, alpha):
    """After a spike the float prefix sums lose the small values after it,
    yet every profile, point() and envelope value lies within 2 W^2 u of
    the exact M_alpha (the maximal module docstring), which no oracle that
    subtracts the same float prefix sums can show."""
    values = [spike] + [0.0] * (width // 2 - 1) + [1.0] * (width // 2)
    ev = MaximalEvaluator(Sequence(0, values), alpha)
    dists = range(1, 41)
    with mpmath.workdps(60):
        hull, left, right = _exact_maximal(values, alpha, dists)
        prof = ev.profile(ZInterval(-40, width + 39))
        got = list(prof[40 : 40 + width]) + list(prof[39::-1]) + list(prof[40 + width :])
        got += [ev.point(n) for n in (-1, -40, width, width + 39)]
        want = hull + left + right + [left[0], left[39], right[0], right[39]]
        worst = max(abs(mpmath.mpf(float(g)) - x) / x for g, x in zip(got, want))
    assert worst <= 2 * width**2 * 2.0**-53
