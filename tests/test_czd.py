"""Stopping-time decomposition, covering, partition, and domination tests."""

import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    adversarial_sequences,
    numpy_pow,
    plain_domination_sums,
    plain_level_set_partition,
    plain_shells,
    recursive_cz_decompose,
)
from varseq import czd, maximal
from varseq.czd import (
    _DyadicTable,
    _rung,
    alpha_average,
    covering_check,
    cz_decompose,
    cz_nesting_check,
    domination_check,
    level_set_partition,
)
from varseq.exponent import ExponentFunction
from varseq.harness import (
    VALUE_LAWS,
    CorpusSpec,
    XorShift64Star,
    generate_corpus,
    run_verification_suite,
)
from varseq.lattice import (
    Sequence,
    ZInterval,
    cardinality,
    dilate,
    dyadic_block,
    runs_count,
    runs_intersect,
    runs_normalize,
    runs_subtract,
    runs_union,
)
from varseq.maximal import MaximalEvaluator

ALPHAS = (0.0, 0.25, 0.5)


def test_alpha_average():
    a = Sequence(1, [2.0, 2.0])
    assert alpha_average(a, ZInterval(1, 2), 0.0) == 2.0
    assert alpha_average(a, ZInterval(1, 4), 0.0) == 1.0
    assert alpha_average(a, ZInterval(1, 4), 0.5) == pytest.approx(2.0)


def test_hand_executions():
    # two twos at 1,2: level-1 averages (2, 0) make level 1 heavy, so
    # n_t = 2 and the lone heavy half [1,2] of [1,4] is selected
    a = Sequence.from_pairs([(1, 2.0), (2, 2.0)])
    d = cz_decompose(a, 0.0, 1.0)
    assert d.n_t == 2
    assert d.intervals == [ZInterval(1, 2)]
    assert d.averages == [2.0]
    # threshold at the peak average: nothing selected, top level 1
    d = cz_decompose(a, 0.0, 4.0)
    assert (d.intervals, d.n_t) == ([], 1)
    # eight ones: every level up to 3 has average 1 > 1/2, level 4 is light
    b = Sequence(1, [1.0] * 8)
    d = cz_decompose(b, 0.0, 0.5)
    assert d.n_t == 4
    assert d.intervals == [ZInterval(1, 8)]
    assert d.averages == [1.0]


def test_lump_selection_scales_with_threshold():
    # a lone mass of 8 at n = 5: selection stops at the first heavy block
    a = Sequence.from_pairs([(5, 8.0)])
    d = cz_decompose(a, 0.0, 1.5)
    assert d.intervals == [ZInterval(5, 8)] and d.averages == [2.0] and d.n_t == 3
    d = cz_decompose(a, 0.0, 5.0)
    assert d.intervals == [ZInterval(5, 5)] and d.averages == [8.0] and d.n_t == 1


def test_validation():
    with pytest.raises(ValueError):
        cz_decompose(Sequence(0, np.zeros(3)), 0.0, 1.0)
    with pytest.raises(ValueError):
        cz_decompose(Sequence(0, [1.0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        cz_decompose(Sequence(0, [1.0]), 0.0, 0.0)


def test_threshold_must_be_positive_and_finite():
    """Every cut reaches _DyadicTable.decompose, which rejects t = inf as well
    as t <= 0 and NaN; the recursive oracle raises the same errors."""
    a = Sequence(0, [1.0, 2.0])
    cuts = (
        lambda t: cz_decompose(a, 0.25, t),
        lambda t: covering_check(a, 0.25, t),
        lambda t: cz_nesting_check(a, 0.25, t, 1.0),
        lambda t: cz_nesting_check(a, 0.25, 1.0, t),
        lambda t: recursive_cz_decompose(a, 0.25, t),
    )
    for cut in cuts:
        with pytest.raises(ValueError, match="^threshold t must be finite$"):
            cut(math.inf)
        for t in (0.0, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match="^threshold t must be positive$"):
                cut(t)


def test_threshold_too_small_raises():
    with pytest.raises(ValueError):
        cz_decompose(Sequence(0, [1.0, 1.0]), 0.5, 1e-12)


def _check_structure(a, alpha, t):
    d = cz_decompose(a, alpha, t)
    bound = 2.0 ** (1.0 - alpha) * t * (1 + 1e-12)
    prev_hi = None
    for iv, avg in zip(d.intervals, d.averages):
        assert t < avg <= bound, (iv, avg)
        assert avg == pytest.approx(alpha_average(a, iv, alpha), rel=1e-12)
        if prev_hi is not None:
            assert iv.lo > prev_hi
        prev_hi = iv.hi
        # each selected interval is a dyadic block below the top level
        width = cardinality(iv)
        level = width.bit_length() - 1
        assert width == 1 << level and level < d.n_t
        assert dyadic_block(level, -((-iv.hi) // width)) == iv
    return d


def test_structure_random_corpus():
    spec = CorpusSpec(
        seed=9090,
        count=30,
        window_width=40,
        value_law="uniform01",
        exponent_law="constant",
        alpha_list=ALPHAS,
    )
    rng = XorShift64Star(3)
    for item in generate_corpus(spec):
        if item.a.is_zero():
            continue
        peak = max(
            alpha_average(item.a, ZInterval(n, n), 0.0)
            for n in range(item.a.window.lo, item.a.window.hi + 1)
        )
        for alpha in ALPHAS:
            t = peak * (0.08 + 0.9 * rng.uniform())
            d = _check_structure(item.a, alpha, t)
            # outside the union, single points never exceed t
            sel = list(d.intervals)
            for n in range(item.a.window.lo, item.a.window.hi + 1):
                if any(iv.contains(n) for iv in sel):
                    continue
                assert item.a.at(n) <= t + 1e-15


def test_selected_are_inside_superlevel():
    rng = XorShift64Star(44)
    a = Sequence(-7, [rng.uniform() for _ in range(33)])
    for alpha in ALPHAS:
        ev = MaximalEvaluator(a, alpha)
        t = ev.max_value() / 5.0
        d = cz_decompose(a, alpha, t)
        for iv in d.intervals:
            # the selected average witnesses M_alpha > t on all of I
            for n in (iv.lo, (iv.lo + iv.hi) // 2, iv.hi):
                assert ev.point(n) > t


def test_nesting():
    rng = XorShift64Star(45)
    a = Sequence(3, [rng.uniform() * (1 + (i % 5)) for i in range(48)])
    for alpha in ALPHAS:
        base = MaximalEvaluator(a, alpha).max_value() / 20.0
        for c in (2.0, 5.0, 10.0):
            rep = cz_nesting_check(a, alpha, c * base, base)
            assert rep.ok, rep
            assert rep.containment_failures == 0
            assert rep.n_t_hi <= rep.n_t_lo
            assert rep.count_hi <= rep.count_lo


def test_covering_basic_and_worked():
    # forty entries of 2.5 on [1,40]: selection fills [1,64] at t = 1
    c = Sequence(1, [2.5] * 40)
    d = cz_decompose(c, 0.0, 1.0)
    assert d.n_t == 7 and d.intervals == [ZInterval(1, 64)]
    assert d.averages[0] == pytest.approx(1.5625)
    rep = covering_check(c, 0.0, 1.0)
    assert rep.ok and rep.bound_ok
    assert rep.uncovered_count == 0
    assert rep.superlevel_count == 0  # 9t exceeds max M here
    # smaller threshold: nonempty superlevel, still covered by doubled blocks
    d = cz_decompose(c, 0.0, 0.2)
    assert d.intervals == [ZInterval(1, 256)] and d.n_t == 9
    sup = MaximalEvaluator(c, 0.0).superlevel(1.8)
    assert sup == [ZInterval(-14, 55)]
    assert runs_subtract(sup, [dilate(d.intervals[0], 2)]) == []
    rep = covering_check(c, 0.0, 0.2)
    assert rep.ok and rep.superlevel_count == 70 and rep.selected_count == 1


def test_covering_random():
    spec = CorpusSpec(
        seed=9091,
        count=30,
        window_width=44,
        value_law="spike",
        exponent_law="constant",
        alpha_list=ALPHAS,
    )
    rng = XorShift64Star(6)
    for item in generate_corpus(spec):
        if item.a.is_zero():
            continue
        for alpha in ALPHAS:
            max_m = MaximalEvaluator(item.a, alpha).max_value()
            t = max_m * (0.02 + 0.2 * rng.uniform())
            rep = covering_check(item.a, alpha, t)
            assert rep.ok and rep.bound_ok, (item.index, alpha, rep)


def test_covering_uniform_stretch_plus_lump():
    """Adversarial configuration: a long uniform stretch next to one lump.

    A single-level lightness rule would stop at the lump's scale and miss
    the stretch, whose alpha-average at its own scale exceeds 9t; the
    all-levels rule keeps the covering valid.
    """
    vals = [0.25] * (99 * 16) + [0.0] * 15 + [3.0]
    a = Sequence(1, vals)
    for alpha in ALPHAS:
        rep = covering_check(a, alpha, 1.0)
        assert rep.ok and rep.bound_ok, (alpha, rep)


def test_straddling_hull_terminates():
    # support on both sides of the 0|1 boundary exercises the two-block stop
    rng = XorShift64Star(7)
    a = Sequence(-13, [rng.uniform() for _ in range(40)])
    for alpha in ALPHAS:
        d = cz_decompose(a, alpha, 0.04)
        assert d.n_t >= 1
        rep = covering_check(a, alpha, 0.04)
        assert rep.ok and rep.bound_ok


def test_partition_invariants():
    rng = XorShift64Star(7)
    a = Sequence(-13, [rng.uniform() for _ in range(40)])
    for alpha, t in ((0.0, 0.03), (0.25, 0.04), (0.5, 0.05)):
        part = level_set_partition(a, alpha, t)
        assert part.levels, "at least one populated shell"
        for k in part.levels:
            shell = runs_subtract(part.omega[k + 1], part.omega[k])
            union = []
            for (kk, j), e in sorted(part.e_sets.items()):
                if kk != k:
                    continue
                # E-sets are disjoint and sit inside their doubled interval
                assert not any(
                    runs_count(runs_subtract(e, runs_subtract(e, other))) > 0
                    for (ko, jo), other in part.e_sets.items()
                    if (ko, jo) != (kk, j) and ko == k
                )
                assert runs_subtract(e, [dilate(part.intervals[(kk, j)], 2)]) == []
                union = runs_union(union, e)
            assert runs_normalize(union) == runs_normalize(shell), (alpha, k)
        # heights follow the geometric ladder of the base
        for k in part.levels:
            assert part.heights[k] == pytest.approx(part.base ** (k + 1) / 9.0)


@pytest.mark.parametrize("law", VALUE_LAWS)
def test_partition_level_sets_match_superlevel(law):
    """Each omega[k], cut from the window profile, is the superlevel set at
    base^k clipped to the window."""
    spec = CorpusSpec(
        seed=9093,
        count=6,
        window_width=32,
        value_law=law,
        exponent_law="constant",
        alpha_list=ALPHAS,
    )
    for item in generate_corpus(spec):
        if item.a.is_zero():
            continue
        for alpha in ALPHAS:
            part = level_set_partition(item.a, alpha, 0.05)
            ev = MaximalEvaluator(item.a, alpha)
            for k, runs in part.omega.items():
                want = runs_intersect(ev.superlevel(part.base**k), [part.window])
                assert runs == want, (item.index, alpha, k)


def test_partition_validation():
    with pytest.raises(ValueError):
        level_set_partition(Sequence(0, [1.0]), 0.0, 0.2)
    with pytest.raises(ValueError):
        level_set_partition(Sequence(0, np.zeros(2)), 0.0, 0.05)
    # near alpha = 1 the window radius overflowed a float; capped, the
    # dyadic level search rejects the threshold instead
    with pytest.raises(ValueError, match="threshold too small"):
        level_set_partition(Sequence(0, [1.0, 2.0, 3.0]), 0.995, 0.05)


def test_partition_rejects_underflowed_threshold():
    """max M / 2^10 underflows to 0 for a subnormal sequence: a ValueError
    names it, where a division by zero was raised."""
    with pytest.raises(ValueError, match="below the smallest normal float"):
        level_set_partition(Sequence(0, [5e-324]), 0.0, 0.05)


def test_rung_is_the_largest_power_at_or_above():
    """_rung(base, x) is the largest k with base^k >= x, checked at
    x = base^k and one ulp either side for base = 9t. The raw estimate
    floor(log(x) / log(base)) lands below the answer on some of these inputs
    and above it on others, so both fix-up loops run."""
    raw_low = raw_high = 0
    for t in (0.01, 0.05, 0.1, 0.11):
        base = 9.0 * t
        for k in range(-40, 41):
            power = base**k
            for x in (float(np.nextafter(power, 0.0)), power, float(np.nextafter(power, 1e300))):
                r = _rung(base, x)
                assert base**r >= x > base ** (r + 1), (t, k, x)
                raw = math.floor(math.log(x) / math.log(base))
                raw_low += raw < r
                raw_high += raw > r
    assert raw_low > 0 and raw_high > 0


def test_partition_ladder_ends_read_off_the_profile():
    """The ladder runs from the top rung, where omega is empty, to the first
    rung whose set is the whole window, one omega per rung in between."""
    rng = XorShift64Star(11)
    a = Sequence(-5, [rng.uniform() for _ in range(24)])
    for alpha in ALPHAS:
        for t in (0.01, 0.05, 0.1):
            part = level_set_partition(a, alpha, t)
            ks = sorted(part.omega)
            assert ks == list(range(ks[0], ks[-1] + 1))
            assert part.omega[ks[0]] == [] and part.omega[ks[1]] != []
            assert part.omega[ks[-1]] == [part.window] != part.omega[ks[-2]]
            assert ks[0] == _rung(part.base, float(part.profile.max()))
            assert ks[-1] == _rung(part.base, float(part.profile.min())) + 1


def test_partition_rejects_long_ladder_up_front(monkeypatch):
    """t = 0.111111 puts base = 9t within 1e-6 of 1: millions of rungs. The
    ValueError names the count before any rung is cut: neither _shells nor
    a decomposition runs. The spies run on the same sequence at
    t = 0.05, so they are known to see the calls the partition makes."""
    calls = []
    shells, decompose = czd._shells, czd._DyadicTable.decompose

    def spy_shells(*args):
        calls.append("shells")
        return shells(*args)

    def spy_decompose(*args):
        calls.append("decompose")
        return decompose(*args)

    monkeypatch.setattr(czd, "_shells", spy_shells)
    monkeypatch.setattr(czd._DyadicTable, "decompose", spy_decompose)
    a = Sequence(0, [1.0, 2.0, 3.0, 0.5])
    with pytest.raises(ValueError, match=r"level ladder has \d+ rungs, more than 100000") as info:
        level_set_partition(a, 0.0, 0.111111)
    assert int(str(info.value).split()[3]) > 100_000
    assert calls == []
    part = level_set_partition(a, 0.0, 0.05)
    assert calls == ["shells"] + ["decompose"] * len(part.levels)


def test_partition_near_ladder_bound_unchanged():
    """t = 0.1111 climbs 69,332 rungs, under the bound; 2,231 of the shells
    are non-empty, cut into 4,442 E-sets."""
    part = level_set_partition(Sequence(0, [1.0, 2.0, 3.0, 0.5]), 0.0, 0.1111)
    assert len(part.levels) == 2231
    assert len(part.omega) == 69_333
    assert len(part.e_sets) == 4442


# Property tests: the one-pass partition and the E-set sums against the
# per-rung mask oracle, bitwise.


def _partition_record(part):
    """Every field of a partition, dicts in insertion order, floats as hex."""
    return (
        part.t.hex(),
        part.alpha.hex(),
        part.base.hex(),
        part.window,
        part.levels,
        list(part.omega.items()),
        [(k, h.hex()) for k, h in part.heights.items()],
        list(part.e_sets.items()),
        list(part.intervals.items()),
        part.profile.tobytes(),
    )


def _assert_partition_matches_oracle(a, p, alpha, t):
    """level_set_partition and domination_check against the oracles: the same
    record or the same ValueError, and the same lhs and E-set sum."""
    try:
        want = plain_level_set_partition(a, alpha, t)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            level_set_partition(a, alpha, t)
        return None
    got = level_set_partition(a, alpha, t)
    assert _partition_record(got) == _partition_record(want)
    lhs, e_sum = plain_domination_sums(a, p, alpha, want)
    rep = domination_check(a, p, alpha, t)
    assert (rep.lhs.hex(), rep.e_weighted_sum.hex()) == (lhs.hex(), e_sum.hex())
    assert (rep.levels, rep.window) == (len(want.levels), want.window)
    return got


@st.composite
def _exponents_near(draw, a):
    """A constant exponent, or p_inf with a window of values in [1.05, 1.9]
    whose ends lie within 64 points of the hull's ends or inside it, so that
    E-set runs straddle its edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_inf = 1.05 + 0.85 * float(rng.random())
    if draw(st.booleans()):
        return ExponentFunction.constant(p_inf)
    hull = a.support_hull()
    lo = draw(st.integers(hull.lo - 64, hull.hi))
    hi = draw(st.integers(max(lo, hull.lo), hull.hi + 64))
    return ExponentFunction(lo, 1.05 + 0.85 * rng.random(hi - lo + 1), p_inf)


@pytest.mark.parametrize("alpha", ALPHAS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), a=adversarial_sequences(), t=st.sampled_from([0.01, 0.05, 0.1]))
def test_partition_matches_plain_oracle(alpha, data, a, t):
    """Long zero runs and lone far spikes, at every alpha, with exponents
    that are constant or whose window edges cut the partition's runs. The
    per-rung oracle costs rungs x window, so t = 0.1111 (about 70,000 rungs)
    has its own test at alpha = 0, whose window is the smallest."""
    p = data.draw(_exponents_near(a))
    _assert_partition_matches_oracle(a, p, alpha, t)


def test_partition_matches_plain_oracle_near_ladder():
    """t = 0.1111: 71,843 rungs over a window of 2,402 points for a lone
    spike after a long zero run; 2,042 of them gain points, and the others
    share the previous rung's run list."""
    a = Sequence(0, [1.0] + [0.0] * 300 + [40.0])
    p = ExponentFunction(-20, np.linspace(1.2, 1.8, 60), 1.5)
    part = _assert_partition_matches_oracle(a, p, 0.0, 0.1111)
    assert (len(part.omega), len(part.levels)) == (71_844, 2042)


def _spy_shell_paths(monkeypatch):
    """Record, per _shells call, its hull and window size, the shells it
    returns and the oracle's, and the sizes of the pieces that took the
    rank pass and the search path."""
    calls = []
    real_shells, real_rank, real_search = czd._shells, czd._rank_runs, czd._search_runs

    def shells(m, rung_floats, k_top, lo, hull):
        calls.append({"hull": hull, "lo": lo, "size": m.size, "rank": [], "search": []})
        got = real_shells(m, rung_floats, k_top, lo, hull)
        calls[-1].update(got=got, want=plain_shells(m, rung_floats, k_top, lo))
        return got

    def rank(x, *args):
        calls[-1]["rank"].append(x.size)
        return real_rank(x, *args)

    def search(x, *args):
        calls[-1]["search"].append(x.size)
        return real_search(x, *args)

    monkeypatch.setattr(czd, "_shells", shells)
    monkeypatch.setattr(czd, "_rank_runs", rank)
    monkeypatch.setattr(czd, "_search_runs", search)
    return calls


def _exterior_sides(call):
    """Sizes of the non-empty window sides left and right of the hull."""
    left = call["hull"].lo - call["lo"]
    right = call["lo"] + call["size"] - 1 - call["hull"].hi
    return [n for n in (left, right) if n]


def test_shells_search_every_exterior_side_on_default_verify(monkeypatch):
    """Default verify's domination check, over the default corpus: every
    window's shells equal the rank-pass oracle's, the hull takes the rank
    pass, and every exterior side, where M_alpha only decays away from the
    hull, passes the monotone check and takes the search path."""
    calls = _spy_shell_paths(monkeypatch)
    spec = CorpusSpec(20260814, 24, 48, "uniform01", "lh-decay", ALPHAS)
    run_verification_suite(spec, checks=["domination"])
    assert len(calls) == spec.count * len(ALPHAS)
    for call in calls:
        assert call["got"] == call["want"]
        assert call["rank"] == [cardinality(call["hull"])]
        assert call["search"] == _exterior_sides(call) != []


def _rung_floats(base, k_top, k_end):
    return [base ** (k + 1) for k in range(k_top, k_end + 1)]


def _synthetic_window(rng, rung_floats, left, hull_width, right, on_rungs, rising):
    """A window profile over rung_floats' range: a hull of random values and
    two sides that rise toward it (or not, when rising is False), a share
    on_rungs of all values set exactly equal to a rung float."""
    lo_f, hi_f = min(rung_floats), max(rung_floats)
    sizes = (left, hull_width, right)
    m = np.exp(rng.uniform(math.log(lo_f) - 1.0, math.log(hi_f) + 1.0, sum(sizes)))
    hit = rng.random(m.size) < on_rungs
    m[hit] = rng.choice(rung_floats, int(hit.sum()))
    if rising:
        m[:left] = np.sort(m[:left])
        m[left + hull_width :] = np.sort(m[left + hull_width :])[::-1]
    return m


def test_shells_match_rank_pass_on_synthetic_windows(monkeypatch):
    """Windows whose values sit exactly on rung floats, under normal rungs
    and under subnormal rungs that repeat; with sides that rise toward the
    hull, which take the search path, and sides that do not, which fall
    back to the rank pass. The shells equal the oracle's either way."""
    calls = _spy_shell_paths(monkeypatch)
    rng = np.random.default_rng(24)
    # base 0.45: rungs 0.45^1 .. 0.45^40; base 0.99: 500 subnormal rungs
    # from 0.99^73,601 = 5.6e-322 down to 5e-324, on 112 distinct floats
    ladders = [(0.45, 0, 39), (0.99, 73_600, 74_099)]
    fallbacks = 0
    for base, k_top, k_end in ladders:
        floats = _rung_floats(base, k_top, k_end)
        assert (len(set(floats)) < len(floats)) == (base == 0.99)
        for _ in range(60):
            left, right = (int(n) for n in rng.integers(0, 300, 2))
            hull_width = int(rng.integers(1, 50))
            rising = bool(rng.random() < 0.7)
            m = _synthetic_window(rng, floats, left, hull_width, right, 0.3, rising)
            lo = int(rng.integers(-1000, 1000))
            czd._shells(m, floats, k_top, lo, ZInterval(lo + left, lo + left + hull_width - 1))
            call = calls[-1]
            assert call["got"] == call["want"]
            sides = _exterior_sides(call)
            assert sorted(call["rank"] + call["search"]) == sorted(sides + [hull_width])
            if rising:
                assert call["search"] == sides
            fallbacks += len(call["rank"]) - 1
    assert fallbacks > 50


def test_e_set_runs_straddling_the_exponent_window_match_oracle():
    """E-set runs that start outside q's window and end inside it, or the
    reverse, take their exponents point by point; runs wholly outside it
    take p_inf at every point."""
    a = Sequence(0, [1.0, 0.5, 2.0])
    p = ExponentFunction(-6, np.linspace(1.1, 1.7, 10), 1.4)
    for alpha in ALPHAS:
        part = _assert_partition_matches_oracle(a, p, alpha, 0.05)
        window = p.window
        runs = [r for rs in part.e_sets.values() for r in rs]
        straddle = [r for r in runs if r.intersects(window) and not window.contains_interval(r)]
        outside = [r for r in runs if not r.intersects(window)]
        assert straddle and outside, alpha


def test_power_of_scalars_matches_array_entries():
    """np.power gives each entry of an array power the bits of the same
    power on scalars, broadcast or not; the E-set sum fills runs outside
    q's window from one scalar power on this. Python's ** matches it
    exactly when numpy's power is the C library's (numpy_pow), and not
    under SVML, numpy's AVX-512 power."""
    rng = np.random.default_rng(20260814)
    x, y = 10.0 ** rng.uniform(-6.0, 3.0, 20_000), rng.uniform(1.0, 8.0, 20_000)
    arr = np.power(x, y)
    scalars = [np.power(b, e) for b, e in zip(x.tolist(), y.tolist())]
    assert arr.tobytes() == np.array(scalars).tobytes()
    by_base = [np.power(x[0], e) for e in y.tolist()]
    assert np.power(x[0], y).tobytes() == np.array(by_base).tobytes()
    by_exponent = [np.power(b, y[0]) for b in x.tolist()]
    assert np.power(x, y[0]).tobytes() == np.array(by_exponent).tobytes()
    differs = any(b**e != v for b, e, v in zip(x.tolist(), y.tolist(), scalars))
    assert differs == (numpy_pow() == "svml")


def test_domination_derived_constant_holds():
    spec = CorpusSpec(
        seed=9092,
        count=12,
        window_width=32,
        value_law="uniform01",
        exponent_law="lh-decay",
        alpha_list=ALPHAS,
    )
    for item in generate_corpus(spec):
        if item.a.is_zero():
            continue
        for alpha in ALPHAS:
            rep = domination_check(item.a, item.p, alpha, 0.05)
            assert rep.ok_derived, (item.index, alpha, rep.ratio, rep.c_derived)
            assert rep.lhs > 0.0 and rep.e_weighted_sum > 0.0
            assert rep.levels >= 1


def test_domination_delta_example_numbers():
    """Delta sequence, p = 2, alpha = 0, t = 0.05: the corrected constant
    fails by orders of magnitude while the derived constant holds."""
    d = Sequence(0, [1.0])
    p = ExponentFunction.constant(2.0)
    rep = domination_check(d, p, 0.0, 0.05)
    assert rep.lhs == pytest.approx(2.287918, rel=1e-5)
    assert rep.e_weighted_sum == pytest.approx(0.005357, rel=1e-3)
    assert rep.c_corrected == pytest.approx(0.81, rel=1e-12)
    assert rep.c_derived == pytest.approx(1600.0, rel=1e-12)
    assert not rep.ok_corrected and rep.ok_derived
    assert rep.levels == 9
    assert rep.window == ZInterval(-1024, 1024)


# Property test: cuts of one table against the recursive oracle, bitwise.

_magnitudes = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)
_offsets = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-64, 64).map(lambda d: 2**40 + d),
    st.integers(-64, 64).map(lambda d: -(2**40) + d),
    st.integers(0, 64).map(lambda d: 2**61 - d),
    st.integers(0, 64).map(lambda d: -(2**61) + d),
)


@st.composite
def _sequences(draw):
    """Hull of width 1..64 with nonzero ends, interior zeros and zero runs,
    values 1e-12..1e12, or of width 65..4096 with the same values drawn by
    numpy; a third of the hulls straddle the 0|1 boundary, and offsets
    reach the coordinate limit on either side."""
    width = draw(st.one_of(st.integers(1, 64), st.integers(65, 4096)))
    inner = st.one_of(st.just(0.0), _magnitudes)
    vals = [draw(_magnitudes)]
    if width > 64:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        body = 10.0 ** rng.uniform(-12.0, 12.0, width - 2)
        body[rng.random(width - 2) < 0.3] = 0.0
        vals += body.tolist() + [draw(_magnitudes)]
    elif width > 1:
        vals += draw(st.lists(inner, min_size=width - 2, max_size=width - 2))
        vals.append(draw(_magnitudes))
    if width > 1:
        lo = draw(st.integers(1, width - 1))
        hi = draw(st.integers(lo, width - 1))
        vals[lo:hi] = [0.0] * (hi - lo)
    if width > 1 and draw(st.integers(0, 2)) == 0:
        offset = draw(st.integers(-(width - 2), 0))
    else:
        offset = max(-(2**61), min(draw(_offsets), 2**61 - width + 1))
    return Sequence(offset, vals)


_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# thresholds over 12 decades around the peak value
_scales = st.floats(-10.0, 2.0).map(lambda e: 10.0**e)


def _outcome(decompose, t):
    try:
        d = decompose(t)
    except ValueError as e:
        return str(e)
    return d.n_t, d.intervals, [avg.hex() for avg in d.averages]


@_property
@given(_sequences(), st.floats(0.0, 0.99), st.lists(_scales, min_size=2, max_size=6))
def test_table_cuts_match_recursive_oracle(a, alpha, scales):
    """Cuts down to 1e-10 of the peak value, where the top level lies above
    the first row of one block (or of the two blocks either side of 0|1),
    and below, where the level search gives up."""
    table = _DyadicTable(a, alpha)
    peak = a.max_value()
    for scale in scales:
        t = peak * scale
        want = _outcome(lambda t: recursive_cz_decompose(a, alpha, t), t)
        assert _outcome(table.decompose, t) == want, t
        assert _outcome(lambda t: cz_decompose(a, alpha, t), t) == want, t


def test_block_sums_once_per_sequence(monkeypatch):
    """One range_sums call per sequence sums every row 0..62 and serves the
    tables of every alpha and every caller; its entry dies with the
    sequence. From the first row whose blocks each hold one side of 0|1 of
    the hull, which the top levels exceed, the rows repeat their sums."""
    summed = []
    real = Sequence.range_sums
    monkeypatch.setattr(
        Sequence, "range_sums", lambda self, los, his: summed.append(id(self)) or real(self, los, his)
    )
    a = Sequence(-300, np.random.default_rng(4).random(700))
    top_levels = []
    for alpha in ALPHAS:
        top_levels.append(cz_decompose(a, alpha, 1e-3).n_t)
        cz_nesting_check(a, alpha, 0.05, 0.01)
        covering_check(a, alpha, 0.05)
        level_set_partition(a, alpha, 0.05)
    assert summed == [id(a)]
    starts, sums = maximal._GEOMETRY[a].blocks
    l_top = 9  # the hull [-300, 399] first lies in blocks 0 and 1 at level 9
    assert len(starts) == 64 and starts[l_top + 1] - starts[l_top] == 2
    assert min(top_levels) > l_top
    top_rows = sums[starts[l_top] :].reshape(-1, 2)
    assert (top_rows == top_rows[0]).all() and len(top_rows) == 63 - l_top
    b = Sequence(-300, a.values)
    cz_decompose(b, 0.5, 0.05)
    assert summed == [id(a), id(b)]
    gone, entry = weakref.ref(a), weakref.ref(maximal._GEOMETRY[a])
    del a
    gc.collect()
    assert gone() is None and entry() is None
