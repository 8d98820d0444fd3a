"""Generator determinism, corpus laws, the empirical estimators and the
suite's report bytes."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from varseq import harness
from varseq.cli import main
from varseq.exponent import ExponentFunction
from varseq.harness import (
    CorpusSpec,
    XorShift64Star,
    check_holder_variant,
    check_key_comparison,
    estimate_strong_type,
    estimate_weak_type,
    generate_corpus,
    run_verification_suite,
    strong_type_ratio,
    weak_type_sup,
    SUITE_CHECKS,
)
from varseq.lattice import Sequence, ZInterval

BASE = CorpusSpec(
    seed=1234,
    count=16,
    window_width=28,
    value_law="uniform01",
    exponent_law="lh-decay",
    alpha_list=(0.0, 0.25),
)


def test_rng_known_values():
    """First outputs of xorshift64* from seed 1, against the reference
    recurrence computed independently."""
    rng = XorShift64Star(1)
    x = 1
    mask = (1 << 64) - 1
    outs = []
    for _ in range(5):
        x ^= x >> 12
        x = (x ^ (x << 25)) & mask
        x ^= x >> 27
        outs.append((x * 0x2545F4914F6CDD1D) & mask)
    assert [XorShift64Star(1).next_u64() for _ in [0]] == outs[:1]
    rng = XorShift64Star(1)
    assert [rng.next_u64() for _ in range(5)] == outs


def test_rng_zero_seed_and_uniform_range():
    assert XorShift64Star(0).next_u64() == XorShift64Star(0x9E3779B97F4A7C15).next_u64()
    rng = XorShift64Star(9)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0
    for _ in range(200):
        v = rng.uniform_range(2.0, 3.0)
        assert 2.0 <= v < 3.0
    assert rng.randint(5, 5) == 5
    with pytest.raises(ValueError):
        rng.randint(3, 2)


def test_corpus_deterministic_and_valid():
    a = generate_corpus(BASE)
    b = generate_corpus(BASE)
    assert len(a) == len(b) == BASE.count
    for x, y in zip(a, b):
        assert x.a.offset == y.a.offset
        assert np.array_equal(x.a.values, y.a.values)
        assert np.array_equal(x.p.values, y.p.values)
        assert x.p.p_inf == y.p.p_inf
    assert generate_corpus(replace(BASE, count=0)) == []
    other = generate_corpus(replace(BASE, seed=1235))
    assert not np.array_equal(a[0].a.values, other[0].a.values)


def test_corpus_laws():
    for law in ("uniform01", "spike", "geometric-decay", "bernoulli-sparse"):
        for item in generate_corpus(replace(BASE, value_law=law, count=12)):
            vals = item.a.values
            assert vals.min() >= 0.0
            if law == "spike":
                nz = vals[vals > 0]
                assert vals.max() >= 10.0 * float(np.median(nz))
            if law == "bernoulli-sparse":
                assert np.count_nonzero(vals) >= 1
    for law in ("constant", "bump", "lh-decay", "random-range"):
        for item in generate_corpus(replace(BASE, exponent_law=law, count=12)):
            lo, hi = BASE.resolved_bounds()
            assert item.p.p_minus >= 1.0
            assert item.p.p_plus <= hi + 1e-12
    with pytest.raises(ValueError):
        generate_corpus(replace(BASE, value_law="nope"))
    with pytest.raises(ValueError):
        generate_corpus(replace(BASE, exponent_law="nope"))
    with pytest.raises(ValueError, match="count"):
        generate_corpus(replace(BASE, count=-1))
    assert generate_corpus(replace(BASE, count=0)) == []


def test_corpus_p_bounds_respect_alpha():
    spec = replace(BASE, alpha_list=(0.5,))
    lo, hi = spec.resolved_bounds()
    assert hi == pytest.approx(0.95 / 0.5)
    with pytest.raises(ValueError):
        replace(BASE, alpha_list=(0.5,), p_hi=2.5).resolved_bounds()


def test_holder_variant_cases():
    a = Sequence(0, np.zeros(4))
    rep = check_holder_variant(a, ZInterval(0, 3), 2.0, 0.25)
    assert rep.ok and rep.lhs == 0.0
    # constant sequences give equality
    c = Sequence(0, [0.7] * 9)
    rep = check_holder_variant(c, ZInterval(0, 8), 2.5, 0.3)
    assert rep.ok
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    with pytest.raises(ValueError):
        check_holder_variant(c, ZInterval(0, 8), 1.0, 0.3)
    with pytest.raises(ValueError):
        check_holder_variant(c, ZInterval(0, 8), 5.0, 0.3)


def test_key_comparison_cases():
    p = ExponentFunction(-4, [2.0, 2.2, 2.4, 2.2, 2.0, 2.1, 2.3, 2.2, 2.0], 2.0)
    win = ZInterval(-6, 6)
    zero = Sequence(0, np.zeros(1))
    rep = check_key_comparison(win, zero, p, 2.0)
    assert rep.ok and rep.c5 == 1.0
    # constant exponent: variable and tail sums coincide
    ones = Sequence(-6, np.ones(13))
    rep = check_key_comparison(win, ones, ExponentFunction.constant(2.0), 2.0)
    assert rep.sum_var == rep.sum_tail
    with pytest.raises(ValueError):
        check_key_comparison(win, Sequence(0, [2.0]), p, 2.0)
    with pytest.raises(ValueError):
        check_key_comparison(win, ones, p, 0.1)


def test_strong_type_ratio_classical_delta():
    """p = q = 2, alpha = 0, delta: ratio approaches (pi^2/3 - 1)^(1/2)."""
    d = Sequence(0, [1.0])
    got = strong_type_ratio(d, ExponentFunction.constant(2.0), 0.0)
    want = math.sqrt(math.pi**2 / 3.0 - 1.0)
    # the window radius is 64 here, so the squared norm loses a tail of
    # about 2/65; the ratio must sit just below the full-series value
    assert want > got > want * (1.0 - 1.5 / 64.0)


def test_strong_type_scale_invariance():
    item = generate_corpus(replace(BASE, count=1))[0]
    r1 = strong_type_ratio(item.a, item.p, 0.25)
    r2 = strong_type_ratio(item.a.scaled(10.0), item.p, 0.25)
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_strong_type_classical_monotone_in_p():
    """For constant exponents the empirical constant drops as p grows."""
    seq_spec = replace(BASE, count=40, exponent_law="constant", alpha_list=(0.0,))
    items = generate_corpus(seq_spec)
    maxima = []
    for p0 in (1.3, 2.0, 4.0):
        p = ExponentFunction.constant(p0)
        maxima.append(max(strong_type_ratio(it.a, p, 0.0) for it in items))
    assert maxima[0] >= maxima[1] * 0.95 and maxima[1] >= maxima[2] * 0.95


def test_weak_type_delta_closed_form():
    """delta, p = 1, alpha = 0: t * |{M > 9t}| = t * (2m+1), m = ceil(1/(9t)) - 2."""
    d = Sequence(0, [1.0])
    p1 = ExponentFunction.constant(1.0)
    grid = np.geomspace(1.0 / 9.0 * 1e-4, 1.0 / 9.0 * 1.1, 40)
    got, t_at = weak_type_sup(d, p1, 0.0, grid)
    want = 0.0
    for t in grid:
        m = math.ceil(1.0 / (9.0 * t)) - 2
        if m >= 0:
            want = max(want, t * (2 * m + 1))
    assert got == pytest.approx(want, rel=1e-9)
    assert got <= 2.0 / 9.0 + 1e-12
    # default grid reproduces the same value for this sequence
    got_default, _ = weak_type_sup(d, p1, 0.0)
    assert got_default == pytest.approx(want, rel=1e-9)


def test_strong_type_ratio_near_alpha_one():
    """The window radius overflowed a float at alpha = 0.995; it is capped."""
    r = strong_type_ratio(Sequence(0, [1.0, 2.0, 3.0]), ExponentFunction.constant(1.002), 0.995)
    assert math.isfinite(r) and r > 0.0


SUBNORMAL = Sequence(0, [5e-324])


def test_strong_type_ratio_rejects_underflowed_threshold():
    """max M / 64 underflows to 0 for a subnormal sequence: a ValueError
    names it, where a division by zero was raised."""
    with pytest.raises(ValueError, match="below the smallest normal float"):
        strong_type_ratio(SUBNORMAL, ExponentFunction.constant(2.0), 0.0)


def test_weak_type_sup_rejects_underflowed_grid():
    """The default grid's lowest threshold underflows to 0 for a subnormal
    sequence: a ValueError names it, where numpy rejected the geometric
    grid."""
    with pytest.raises(ValueError, match="below the smallest normal float"):
        weak_type_sup(SUBNORMAL, ExponentFunction.constant(2.0), 0.0)


@pytest.mark.parametrize(
    "grid, match",
    [
        (np.array([]), "nonempty"),
        (np.array([[0.01, 0.02]]), "nonempty"),
        (np.array([0.01, np.nan]), "positive and finite"),
        (np.array([0.01, 0.0]), "positive and finite"),
        (np.array([0.01, -0.02]), "positive and finite"),
        (np.array([0.01, np.inf]), "positive and finite"),
    ],
)
def test_weak_type_sup_rejects_bad_grid_up_front(grid, match, monkeypatch):
    """A bad grid is rejected before any maximal-function or norm work."""

    def forbidden(*args, **kwargs):
        raise AssertionError("work done before the grid was checked")

    for name in ("MaximalEvaluator", "luxemburg_norm", "characteristic_norm"):
        monkeypatch.setattr(harness, name, forbidden)
    with pytest.raises(ValueError, match=match):
        weak_type_sup(Sequence(0, [1.0]), ExponentFunction.constant(2.0), 0.0, grid)


def test_weak_type_sup_takes_the_grid_in_one_batch(monkeypatch):
    """weak_type_sup asks for all superlevel sets in one superlevels call
    and makes no per-threshold superlevel call."""
    batches = []
    superlevels = harness.MaximalEvaluator.superlevels

    def spy(ev, ss):
        batches.append(len(ss))
        return superlevels(ev, ss)

    def forbidden(ev, s):
        raise AssertionError("per-threshold superlevel call")

    monkeypatch.setattr(harness.MaximalEvaluator, "superlevels", spy)
    monkeypatch.setattr(harness.MaximalEvaluator, "superlevel", forbidden)
    for item in generate_corpus(replace(BASE, count=4)):
        if item.a.is_zero():
            continue
        batches.clear()
        weak_type_sup(item.a, item.p, 0.25)
        assert batches == [harness.WEAK_GRID_SIZE]


def test_estimators_report_shape():
    spec = replace(BASE, count=6)
    rep = estimate_strong_type(spec, 0.25)
    assert rep.cases == 6 and rep.failures == 0
    assert rep.empirical_constant and math.isfinite(rep.empirical_constant)
    rep = estimate_weak_type(spec, 0.0)
    assert rep.cases == 6 and rep.failures == 0
    assert math.isfinite(rep.empirical_constant)


def test_suite_runs_all_checks_and_is_deterministic():
    spec = replace(BASE, count=6, window_width=24)
    reports = run_verification_suite(spec, t=0.05)
    assert [r.check_name for r in reports] == list(SUITE_CHECKS)
    assert all(r.failures == 0 for r in reports)
    again = run_verification_suite(spec, t=0.05)
    for x, y in zip(reports, again):
        assert x == y


def test_suite_runs_serially_only():
    """threads keeps its positional slot for the benchmark tracer; only 1 is taken."""
    spec = replace(BASE, count=2, window_width=12)
    assert run_verification_suite(spec, 0.05, ["covering"], 1) == run_verification_suite(
        spec, checks=["covering"]
    )
    for threads in (0, 2):
        with pytest.raises(ValueError, match="serially"):
            run_verification_suite(spec, 0.05, None, threads)


def test_suite_inject_fault_and_unknown_check():
    spec = replace(BASE, count=4, window_width=24)
    reports = run_verification_suite(spec, checks=["norm_modular"], inject_fault=True)
    assert reports[-1].check_name == "injected_fault"
    assert sum(r.failures for r in reports) == 1
    with pytest.raises(ValueError):
        run_verification_suite(spec, checks=["bogus"])


def test_failures_counted_per_case(monkeypatch):
    """Alpha-loop checks have one case per (item, alpha), so an item that
    fails at every alpha counts one failure per alpha."""
    spec = replace(BASE, count=4, window_width=12, alpha_list=(0.0, 0.2, 0.4))
    real = harness.domination_check
    monkeypatch.setattr(
        harness, "domination_check", lambda *args: replace(real(*args), ok_derived=False)
    )
    (rep,) = run_verification_suite(spec, checks=["domination"])
    assert rep.failures == rep.cases == 4 * 3


# SHA-256 of `varseq verify --seed 11 --count 3 --width 12` (JSON) per
# (value law, exponent law); every one of them exits 0.
REPORT_SHA256 = {
    ("uniform01", "constant"):
        "553674eb35717cb9a9fcdac71164cca829e8d2393cab2244a1ac748b792a9175",
    ("uniform01", "bump"):
        "83975af45b8ba51ad970f13f673c53617319e4f4bb6daae60eb15cd6c80e82fa",
    ("uniform01", "lh-decay"):
        "e0dafedfa62531ac496981f618cc7ce1ee6df8fd57131447ab302c10727bff07",
    ("uniform01", "random-range"):
        "3d50cf9b06208680e32b07beb38413f9d63a2b8416e6b7ac8151a7a90a03ae76",
    ("spike", "constant"):
        "ff5d04180eaac569faa1b3be932e55ccbe6c30fe1b641b0142a7824f3f0ae92e",
    ("spike", "bump"):
        "0f894e3fb4764a8d1d58ea2fd04f3b313816f69670ca7be7882dfc93bd27d80f",
    ("spike", "lh-decay"):
        "b182bf717e34add52cba6ab8a58392141fc5d1920f61e5f13392fe8dbacf93d1",
    ("spike", "random-range"):
        "6436bc691ecb008d52eb63fdebcf9f7a90e9e78c2908a1a5745ce2cebdea5cbb",
    ("geometric-decay", "constant"):
        "9b5c04f6305d673bed06b39b2178727784814ab2b4819ec854d86b7af236186f",
    ("geometric-decay", "bump"):
        "54c434fa950a7f02cbdf31a22f238164b885fc4e73c9dbd35fe565d0320efc01",
    ("geometric-decay", "lh-decay"):
        "752cd03e178546d3353e571e37e5d3a768a1fbdb348869501e37b76aa04cd52f",
    ("geometric-decay", "random-range"):
        "ff2baa0ddf335c83c0f0fa42d5236d8f314e7f2551d254c0dc95afab0782e9e7",
    ("bernoulli-sparse", "constant"):
        "680d81d8241a2cf33fb985078080cccc863b79e2c4cda0276ee8d430acc3b598",
    ("bernoulli-sparse", "bump"):
        "c42e760ef753344bdd34ca7d68daa80e8612b9405575585f0664e962e5ac59e4",
    ("bernoulli-sparse", "lh-decay"):
        "4a90e8a87dbab72e15c1deab3d9f0c59fd91f581bafaf4eca38935862d476476",
    ("bernoulli-sparse", "random-range"):
        "90e4df7ff8d0d0e64b856b0943c4ff3e631c69fbbe05b7a722fff3636622ce1c",
}


def test_verify_report_digests_pinned(tmp_path):
    for (value_law, exponent_law), want in REPORT_SHA256.items():
        out = tmp_path / f"{value_law}-{exponent_law}.json"
        code = main([
            "verify", "--seed", "11", "--count", "3", "--width", "12",
            "--value-law", value_law, "--exponent-law", exponent_law, "--out", str(out),
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, (value_law, exponent_law)
