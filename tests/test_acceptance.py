"""Acceptance suite: sixteen quantitative criteria, one test each.

Each test states a property with explicit counts and tolerances and runs it
at full corpus scale: closed-form norm oracles, modular identities, exact
maximal-operator agreement, decomposition structure, covering and domination
bounds, empirical operator-norm envelopes with pinned regression values, and
byte-level reproducibility of reports. Tests are intentionally independent
and deterministic; pinned hex floats are exact values from the recorded run.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from conftest import brute_force_profile, constant_norm_oracle
from varseq.cli import main as cli_main
from varseq.czd import covering_check, cz_decompose, cz_nesting_check, domination_check
from varseq.exponent import ExponentFunction
from varseq.harness import (
    CorpusSpec,
    XorShift64Star,
    check_holder_variant,
    check_key_comparison,
    estimate_strong_type,
    estimate_weak_type,
    generate_corpus,
    weak_type_sup,
)
from varseq.lattice import (
    Sequence,
    ZInterval,
    cardinality,
    dilate,
    dyadic_block,
    truncate,
)
from varseq.maximal import MaximalEvaluator
from varseq.norm import check_norm_modular_relations, check_scaling_bounds, luxemburg_norm, modular

ALPHAS = (0.0, 0.25, 0.5)
VALUE_LAWS = ("uniform01", "spike", "geometric-decay", "bernoulli-sparse")


def corpus(seed, count, width, value_law="uniform01", exponent_law="lh-decay",
           alphas=ALPHAS, p_lo=None, p_hi=None):
    return generate_corpus(
        CorpusSpec(seed, count, width, value_law, exponent_law, tuple(alphas),
                   p_lo=p_lo, p_hi=p_hi)
    )


def test_01_constant_exponent_norm_oracle():
    """1000 random (a, p0), p0 in [1,8], window <= 256: bisection matches
    the closed form (sum |a|^p0)^(1/p0) to 1e-10 relative."""
    rng = XorShift64Star(20260801)
    failures = 0
    for _ in range(1000):
        width = rng.randint(1, 256)
        scale = math.exp(rng.uniform_range(-3.0, 3.0))
        vals = [scale * rng.uniform() for _ in range(width)]
        a = Sequence(rng.randint(-300, 300), vals)
        if a.is_zero():
            continue
        p0 = rng.uniform_range(1.0, 8.0)
        got = luxemburg_norm(a, ExponentFunction.constant(p0)).value
        want = constant_norm_oracle(a, p0)
        if abs(got - want) > 1e-10 * want:
            failures += 1
    assert failures == 0


def test_02_unit_modular_identity():
    """1000 nontrivial items: |rho(a / ||a||) - 1| <= 1e-8."""
    checked = 0
    for i, law in enumerate(VALUE_LAWS):
        for item in corpus(20260802 + i, 250, 64, value_law=law):
            if item.a.is_zero():
                continue
            nv = luxemburg_norm(item.a, item.p)
            unit = modular(item.a.scaled(1.0 / nv.value), item.p)
            assert abs(unit - 1.0) <= 1e-8, (law, item.index, unit)
            checked += 1
    assert checked >= 990


def test_03_norm_modular_chains_both_regimes():
    """Norm-modular sandwich in both regimes, forced by scaling to norms
    0.5 and 2.0: 500 items each, tolerance 1e-9."""
    items = corpus(20260803, 500, 48, value_law="geometric-decay")
    for target in (0.5, 2.0):
        for item in items:
            if item.a.is_zero():
                continue
            n0 = luxemburg_norm(item.a, item.p).value
            rep = check_norm_modular_relations(item.a.scaled(target / n0), item.p)
            assert rep.ok, (target, item.index, rep)


def test_04_scaling_bounds():
    """Modular scaling sandwich and norm homogeneity: 500 items x 3 factors."""
    items = corpus(20260804, 500, 48, value_law="uniform01", exponent_law="bump")
    for item in items:
        for lam in (0.3, 1.0, 2.7):
            rep = check_scaling_bounds(item.a, item.p, lam)
            assert rep.ok, (item.index, lam, rep)


def test_05_fatou_truncation():
    """200 items: truncation norms are nondecreasing and reach the full norm
    once the window covers the support, within twice the bisection tolerance."""
    items = corpus(20260805, 200, 48, value_law="bernoulli-sparse")
    for item in items:
        hull = item.a.support_hull()
        if hull is None:
            continue
        full = luxemburg_norm(item.a, item.p)
        slack = 2.0 * full.tolerance * max(1.0, full.value)
        reach = max(abs(hull.lo), abs(hull.hi))
        prev = 0.0
        k = 1
        while True:
            v = luxemburg_norm(truncate(item.a, ZInterval(-k, k)), item.p).value
            assert v >= prev - slack, (item.index, k)
            prev = v
            if k >= reach:
                break
            k *= 2
        assert abs(prev - full.value) <= slack, (item.index, prev, full.value)


def test_06_maximal_oracle_exact_equality():
    """300 items, windows <= 128, alpha in {0, 0.25, 0.5}: the profile equals
    per-point brute-force enumeration exactly (same floats, no tolerance)."""
    for i, law in enumerate(("uniform01", "spike", "bernoulli-sparse")):
        for item in corpus(20260806 + i, 100, 128, value_law=law):
            if item.a.is_zero():
                continue
            window = dilate(item.a.support_hull(), 2)
            for alpha in ALPHAS:
                prof = MaximalEvaluator(item.a, alpha).profile(window)
                oracle = brute_force_profile(item.a, alpha, window)
                assert np.array_equal(prof, oracle), (law, item.index, alpha)


@lru_cache(maxsize=1)
def _cz_triples():
    """500 deterministic (sequence, alpha, threshold) triples."""
    rng = XorShift64Star(20260807)
    triples = []
    items = corpus(20260807, 500, 56, value_law="uniform01", exponent_law="constant")
    for i, item in enumerate(items):
        if item.a.is_zero():
            continue
        alpha = ALPHAS[i % 3]
        max_m = MaximalEvaluator(item.a, alpha).max_value()
        t = max_m * (0.03 + 0.5 * rng.uniform())
        triples.append((item.a, alpha, t))
    return triples


def test_07_cz_structure(record_property):
    """500 triples: selected intervals are disjoint sorted dyadic blocks below
    the top level, averages lie in (t, 2^(1-alpha) t], points outside the
    union satisfy |a(n)| <= t. The fraction of averages also obeying the
    stricter 2t bound is recorded."""
    within_2t = total = 0
    for a, alpha, t in _cz_triples():
        d = cz_decompose(a, alpha, t)
        bound = 2.0 ** (1.0 - alpha) * t * (1 + 1e-12)
        prev_hi = None
        covered = np.zeros(a.values.size, dtype=bool)
        for iv, avg in zip(d.intervals, d.averages):
            assert t < avg <= bound, (alpha, t, iv, avg)
            if prev_hi is not None:
                assert iv.lo > prev_hi
            prev_hi = iv.hi
            width = cardinality(iv)
            level = width.bit_length() - 1
            assert width == 1 << level and level < d.n_t
            assert dyadic_block(level, -((-iv.hi) // width)) == iv
            lo = max(iv.lo, a.offset)
            hi = min(iv.hi, a.offset + a.values.size - 1)
            if lo <= hi:
                covered[lo - a.offset : hi - a.offset + 1] = True
            within_2t += int(avg <= 2.0 * t)
            total += 1
        outside = a.values[~covered]
        assert outside.size == 0 or outside.max() <= t * (1 + 1e-12)
    record_property("two_t_fraction", within_2t / total)
    assert total > 0


def test_08_nesting():
    """300 threshold pairs t1 = c * t2, c in {2, 5, 10}: each interval at the
    higher threshold sits inside one at the lower, with monotone level/size."""
    items = corpus(20260808, 100, 48, value_law="spike", exponent_law="constant")
    pairs = 0
    for i, item in enumerate(items):
        if item.a.is_zero():
            continue
        alpha = ALPHAS[i % 3]
        base_t = MaximalEvaluator(item.a, alpha).max_value() / 25.0
        for c in (2.0, 5.0, 10.0):
            rep = cz_nesting_check(item.a, alpha, c * base_t, base_t)
            assert rep.ok, (item.index, alpha, c, rep)
            pairs += 1
    assert pairs == 300


def test_09_covering():
    """The same 500 triples: {M_alpha a > 9t} is contained in the union of
    doubled selected intervals; zero failures."""
    for a, alpha, t in _cz_triples():
        rep = covering_check(a, alpha, t)
        assert rep.ok and rep.bound_ok, (alpha, t, rep)


def test_10_domination_corrected_constant(record_property):
    """200 items: sum of M_alpha^q over the partition window is at most
    (2^(1-alpha)/t)^(q_+) times the E-set weighted sum, t = 0.05.

    On shell k of the level-set partition, M_alpha <= base^k = h/t, where
    base = A = 9t and h = base^(k+1)/9 is the decomposition height. The
    doubled selected block 2I has alpha-average > 2^(alpha-1) h, because
    sum_{2I} |a| >= sum_I |a| > |I|^(1-alpha) h. Hence
    M_alpha < (2^(1-alpha)/t) avg(2I), and since 2^(1-alpha)/t > 1 and
    q <= q_+, M_alpha^q <= (2^(1-alpha)/t)^(q_+) avg(2I)^q. In A-notation
    the constant is (9 2^(1-alpha)/A)^(q_+). The printed constant
    A^(q_-) 2^((1-alpha) q_+) puts A^(q_-) where (9/A)^(q_+) belongs and is
    no bound: its failures are recorded, not asserted, and
    tests/test_czd.py::test_domination_delta_example_numbers pins a
    counterexample (ratio about 427 against a constant of 0.81).
    """
    items = corpus(20260810, 200, 32, value_law="uniform01")
    results = []
    for i, item in enumerate(items):
        if item.a.is_zero():
            continue
        alpha = ALPHAS[i % 3]
        results.append(domination_check(item.a, item.p, alpha, 0.05))
    assert len(results) == 200
    bad_corr = sum(0 if r.ok_corrected else 1 for r in results)
    bad_lit = sum(0 if r.ok_literal else 1 for r in results)
    bad_der = sum(0 if r.ok_derived else 1 for r in results)
    record_property("corrected_failures", bad_corr)
    record_property("literal_failures", bad_lit)
    record_property("derived_failures", bad_der)
    for r in results:
        assert r.e_weighted_sum > 0.0 and r.levels >= 1, r.window
    assert bad_der == 0, (
        f"lhs <= (2^(1-alpha)/t)^(q_+) * e_sum failed on {bad_der} of "
        f"{len(results)} items"
    )


# exact hex floats pinned from the recorded run of this suite
PIN_KEY_CONSTANT = "0x1.24d7794b8515cp+0"
PIN_STRONG = {
    0.0: "0x1.5a7527b50a7b8p+5",
    0.25: "0x1.e507ed3a7e5c3p+1",
    0.5: "0x1.e2b5181996e0ep+1",
}
PIN_WEAK = {
    0.0: "0x1.f0c8c8023da74p-2",
    0.25: "0x1.49feaea4caf45p-1",
    0.5: "0x1.3818e7490fbf2p-3",
}


@lru_cache(maxsize=1)
def _key_comparison_constant():
    rng = XorShift64Star(20260811)
    best = 0.0
    cases = 0
    for item in corpus(20260811, 200, 48, value_law="uniform01"):
        win = item.a.window
        if win is None:
            continue
        f = Sequence(item.a.offset, np.minimum(item.a.values, 1.0))
        n_decay = 1.0 / item.p.p_inf + 0.5 + 2.0 * rng.uniform()
        rep = check_key_comparison(dilate(win, 2), f, item.p, n_decay)
        assert rep.ok
        best = max(best, rep.c5, rep.c6)
        cases += 1
    return best, cases


def test_11_key_comparison_pinned():
    """200 cases: minimal two-sided comparison constants are finite; the
    aggregate maximum reproduces the pinned value bit-for-bit."""
    best, cases = _key_comparison_constant()
    assert cases == 200
    assert math.isfinite(best) and best >= 1.0
    assert best.hex() == PIN_KEY_CONSTANT, best.hex()


STRONG_SPECS = {
    0.0: CorpusSpec(20260812, 500, 48, "uniform01", "lh-decay", (0.0,)),
    0.25: CorpusSpec(20260813, 250, 48, "spike", "lh-decay", (0.25,)),
    0.5: CorpusSpec(20260814, 250, 48, "geometric-decay", "lh-decay", (0.5,)),
}


@lru_cache(maxsize=1)
def _strong_reports():
    return {a: estimate_strong_type(spec, a) for a, spec in STRONG_SPECS.items()}


def test_12_strong_type_envelopes():
    """Ratios ||M_alpha a||_q / ||a||_p finite with exact scale invariance
    under a -> 10a (1e-9): 500 items at alpha = 0 (p_- > 1) and 500 items
    split over alpha in {0.25, 0.5} (p_+ < 1/alpha); maxima pinned."""
    reports = _strong_reports()
    assert reports[0.0].cases == 500
    assert reports[0.25].cases + reports[0.5].cases == 500
    for alpha, rep in reports.items():
        assert rep.failures == 0, (alpha, rep)
        assert math.isfinite(rep.empirical_constant)
        assert rep.empirical_constant.hex() == PIN_STRONG[alpha], (
            alpha, rep.empirical_constant.hex())


WEAK_SPECS = {
    0.0: CorpusSpec(20260815, 250, 48, "bernoulli-sparse", "lh-decay", (0.0,), p_lo=1.0),
    0.25: CorpusSpec(20260816, 125, 48, "uniform01", "lh-decay", (0.25,)),
    0.5: CorpusSpec(20260817, 125, 48, "spike", "lh-decay", (0.5,)),
}


@lru_cache(maxsize=1)
def _weak_reports():
    return {a: estimate_weak_type(spec, a) for a, spec in WEAK_SPECS.items()}


def test_13_weak_type_envelopes():
    """Grid-sup ratios t ||chi_{M_alpha a > 9t}||_q / ||a||_p finite on 500
    items including a p_- = 1 corpus at alpha = 0; the unit point mass with
    p = 1 matches its closed form on the same grid; maxima pinned."""
    reports = _weak_reports()
    assert sum(r.cases for r in reports.values()) == 500
    assert WEAK_SPECS[0.0].resolved_bounds()[0] == 1.0
    for alpha, rep in reports.items():
        assert rep.failures == 0, (alpha, rep)
        assert math.isfinite(rep.empirical_constant)
        assert rep.empirical_constant.hex() == PIN_WEAK[alpha], (
            alpha, rep.empirical_constant.hex())
    # closed form: {M_0 delta > 9t} = [-m, m], m = ceil(1/(9t)) - 2, so the
    # sup of t (2m+1) over the default grid is reproduced exactly
    d = Sequence(0, [1.0])
    got, _ = weak_type_sup(d, ExponentFunction.constant(1.0), 0.0)
    grid = np.geomspace(1.0 / 9.0 * 1e-4, 1.0 / 9.0 * 1.1, 40)
    want = 0.0
    for t in grid:
        m = math.ceil(1.0 / (9.0 * float(t))) - 2
        if m >= 0:
            want = max(want, float(t) * (2 * m + 1))
    assert got == pytest.approx(want, rel=1e-9)
    assert got <= 2.0 / 9.0 + 1e-12


def test_14_holder_variant():
    """500 random (a, I, p0, alpha) with 1 < p0 < 1/alpha: the alpha-average
    is bounded by |I|^(alpha - 1/p0) (sum |a|^p0)^(1/p0); constant sequences
    give equality within 1e-10."""
    rng = XorShift64Star(20260818)
    cases = 0
    for item in corpus(20260819, 500, 48, value_law="uniform01"):
        hull = item.a.support_hull()
        if hull is None:
            continue
        lo = rng.randint(hull.lo - 4, hull.hi)
        hi = rng.randint(lo, hull.hi + 4)
        alpha = rng.uniform_range(0.05, 0.9)
        p0 = rng.uniform_range(1.01, min(8.0, 0.95 / alpha))
        rep = check_holder_variant(item.a, ZInterval(lo, hi), p0, alpha)
        assert rep.ok, (item.index, rep)
        cases += 1
    assert cases == 500
    for c, width, p0, alpha in ((0.7, 9, 2.5, 0.3), (3.0, 17, 1.5, 0.55), (1.0, 64, 4.0, 0.2)):
        rep = check_holder_variant(
            Sequence(0, [c] * width), ZInterval(0, width - 1), p0, alpha
        )
        assert abs(rep.lhs - rep.rhs) <= 1e-10 * rep.rhs, (c, width, p0, alpha)


def test_15_geometric_covering_fact(record_property):
    """Exhaustive over interval pairs in [-16, 16]: the least dilation
    factors of the overlap covering fact.

    If I meets J and I is not inside 2J, then J is inside 5I; if I meets J
    and |I| >= |J|, then J is inside 3I. Neither factor can be lowered
    (dilations are nested in the factor, so one witness per factor covers
    every smaller one). I = [-16, -7], J = [-7, 9] meets the first
    hypothesis with J not inside 4I: 2J = [-15, 18] misses -16 and
    4I = [-31, 8] misses 9. I = [-16, -13], J = [-13, -10] has |I| = |J|
    with J not inside 2I = [-18, -11]. On the real line, J = [0, 1] and
    I = [1, 3/2 + eps] give J not inside cI for every c < 5.
    """
    ivs = [ZInterval(i, j) for i in range(-16, 17) for j in range(i, 17)]
    bad4 = 0
    for i_iv in ivs:
        i3, i4, i5 = dilate(i_iv, 3), dilate(i_iv, 4), dilate(i_iv, 5)
        for j_iv in ivs:
            if not i_iv.intersects(j_iv):
                continue
            if not dilate(j_iv, 2).contains_interval(i_iv):
                assert i5.contains_interval(j_iv), (i_iv, j_iv)
                if not i4.contains_interval(j_iv):
                    bad4 += 1
            if cardinality(i_iv) >= cardinality(j_iv):
                assert i3.contains_interval(j_iv), (i_iv, j_iv)
    record_property("factor4_counterexamples", bad4)

    i_iv, j_iv = ZInterval(-16, -7), ZInterval(-7, 9)
    assert i_iv.intersects(j_iv)
    assert dilate(j_iv, 2) == ZInterval(-15, 18)
    assert not dilate(j_iv, 2).contains_interval(i_iv)
    assert dilate(i_iv, 4) == ZInterval(-31, 8)
    assert not any(dilate(i_iv, c).contains_interval(j_iv) for c in (1, 2, 3, 4))

    i_iv, j_iv = ZInterval(-16, -13), ZInterval(-13, -10)
    assert i_iv.intersects(j_iv) and cardinality(i_iv) >= cardinality(j_iv)
    assert dilate(i_iv, 2) == ZInterval(-18, -11)
    assert not any(dilate(i_iv, c).contains_interval(j_iv) for c in (1, 2))


def test_16_verify_reports_byte_identical(tmp_path):
    """Repeating a verification run with identical config produces
    byte-identical report files."""
    args = ["verify", "--seed", "20260820", "--count", "10", "--width", "28"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 and b1 == b2
