"""Generator determinism, corpus laws, the empirical estimators and the
suite's report bytes."""

import hashlib
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numpy_pow, scalar_corpus
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
from varseq.harness import EXPONENT_LAWS, VALUE_LAWS
from varseq.lattice import Sequence, ZInterval

ROOT = Path(__file__).resolve().parents[1]

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


def _assert_bulk_matches_scalar(seed, n):
    """uniforms(n) against n scalar uniform() calls, bit for bit, and the
    next draw of both generators."""
    bulk, scalar = XorShift64Star(seed), XorShift64Star(seed)
    got = bulk.uniforms(n)
    want = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, n)
    assert bulk.next_u64() == scalar.next_u64(), (seed, n)


def test_uniforms_match_scalar_draws_at_block_edges():
    """Seed 0 (mapped to the default state), 1 and 2**64 - 1, at the run
    lengths around the 64-state seed block and its doublings."""
    for seed in (0, 1, 2**64 - 1):
        for n in (0, 1, 63, 64, 65, 128, 129, 4097):
            _assert_bulk_matches_scalar(seed, n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.one_of(st.integers(0, 200), st.integers(201, 5000)))
def test_uniforms_match_scalar_draws(seed, n):
    _assert_bulk_matches_scalar(seed, n)


def _assert_corpus_matches_oracle(spec):
    got, want = generate_corpus(spec), scalar_corpus(spec)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.a.offset == y.a.offset
        assert x.a.values.tobytes() == y.a.values.tobytes()
        assert x.p.window == y.p.window
        assert x.p.values.tobytes() == y.p.values.tobytes()
        assert x.p.p_inf.hex() == y.p.p_inf.hex()


def test_corpus_matches_scalar_oracle_every_law():
    """Every (value law, exponent law) pair, with runs of draws on both
    sides of the 64-state seed block."""
    for value_law in VALUE_LAWS:
        for exponent_law in EXPONENT_LAWS:
            for width in (20, 300):
                spec = CorpusSpec(99, 3, width, value_law, exponent_law, (0.0, 0.25))
                _assert_corpus_matches_oracle(spec)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(VALUE_LAWS),
    st.sampled_from(EXPONENT_LAWS),
    st.integers(0, 2**64 - 1),
    st.one_of(st.integers(4, 80), st.integers(81, 1200)),
    st.integers(1, 3),
)
def test_corpus_matches_scalar_oracle(value_law, exponent_law, seed, width, count):
    _assert_corpus_matches_oracle(CorpusSpec(seed, count, width, value_law, exponent_law, (0.5,)))


_SPY = """
import varseq.cli
from varseq import harness
from varseq.harness import CorpusSpec, XorShift64Star, generate_corpus

assert harness._JUMP_TABLES == [], "tables built at import"
generate_corpus(CorpusSpec(20260814, 24, 48, "uniform01", "lh-decay", (0.0, 0.25, 0.5)))
generate_corpus(CorpusSpec(20260814, 24, 48, "spike", "lh-decay", (0.0, 0.25, 0.5)))
assert harness._JUMP_TABLES == [], "tables built for runs of at most 64 draws"

calls = 0
step = XorShift64Star.next_u64

def counting(rng):
    global calls
    calls += 1
    return step(rng)

XorShift64Star.next_u64 = counting
for seed in range(4):
    calls = 0
    (item,) = generate_corpus(CorpusSpec(seed, 1, 4096, "uniform01", "lh-decay", (0.0,)))
    assert item.a.values.size >= 2048
    assert calls <= 64 + 8, calls
print(len(harness._JUMP_TABLES))
"""


def test_jump_tables_lazy_and_scalar_steps_bounded():
    """In a fresh process: importing the CLI and drawing default-width
    corpora builds no jump table, and a width-4096 item takes its run of
    draws from the 64-state seed block plus the tables, with only a few
    other scalar steps."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SPY], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # runs of 2048 to 4096 draws use the tables of T^64 up to T^2048
    assert 5 <= int(proc.stdout) <= 6


def test_corpus_width_limit_rejected_before_any_draw(monkeypatch):
    """A width above CORPUS_WIDTH_LIMIT is a ValueError raised before the
    generator steps once; the CLI exits 2."""

    def no_draw(rng):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(XorShift64Star, "next_u64", no_draw)
    with pytest.raises(ValueError, match=r"window_width must be <= 2\*\*20"):
        generate_corpus(CorpusSpec(1, 2, 2**62, "uniform01", "constant", (0.0,)))
    with pytest.raises(ValueError, match="window_width"):
        generate_corpus(replace(BASE, window_width=harness.CORPUS_WIDTH_LIMIT + 1))
    assert main(["corpus", "--count", "1", "--width", str(2**62)]) == 2
    assert main(["verify", "--count", "1", "--width", str(2**62)]) == 2


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


def test_key_comparison_window_overlaps():
    """F is read on the window as zero outside its own window, whether the
    two are disjoint, overlap on one side or nest."""
    p = ExponentFunction(-4, [2.0, 2.2, 2.4, 2.2, 2.0, 2.1, 2.3, 2.2, 2.0], 2.0)
    f = Sequence(-3, [0.2, 0.9, 0.4, 1.0, 0.05])
    for lo, hi in ((-12, -5), (-12, -2), (-6, 6), (-2, 0), (0, 9), (3, 9), (5, 14)):
        win = ZInterval(lo, hi)
        fv = np.array([f.at(n) for n in range(lo, hi + 1)])
        rep = check_key_comparison(win, f, p, 2.0)
        assert rep.sum_var == float(np.power(fv, p.values_on(win)).sum())
        assert rep.sum_tail == float(np.power(fv, p.p_inf).sum())


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
    got, t_at = weak_type_sup(d, ExponentFunction.constant(1.0), 0.0)
    # max M = 1, so the grid spans four decades below 1/9
    grid = np.geomspace(1.0 / 9.0 * 1e-4, 1.0 / 9.0 * 1.1, harness.WEAK_GRID_SIZE)
    want = 0.0
    for t in grid:
        m = math.ceil(1.0 / (9.0 * t)) - 2
        if m >= 0:
            want = max(want, t * (2 * m + 1))
    assert got == pytest.approx(want, rel=1e-9)
    assert t_at in grid
    assert got <= 2.0 / 9.0 + 1e-12


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
# (value law, exponent law), under SVML, numpy's AVX-512 power; every one
# of them exits 0. REPORT_SHA256_LIBM holds them under the C library's pow.
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

# Under the C library's pow, six of the reports differ.
REPORT_SHA256_LIBM = {
    **REPORT_SHA256,
    ("uniform01", "lh-decay"):
        "c61d85fd8ecf34ebfdc487da047683630e55b59e1d452b8e8777802f4d685411",
    ("spike", "constant"):
        "4b2eb79fe94ff7c55fcd24a495c45caebbe971b010a23d20576e61b8bbbfce9b",
    ("geometric-decay", "constant"):
        "f4bea6170e59cf1eddf4151d45b38067751db815c40f3d2f8c6c93935d208f0d",
    ("geometric-decay", "bump"):
        "d3460107033396ba34e4777505d4dc58bf1eba7cd1b637a8653c1d7e378823cd",
    ("bernoulli-sparse", "bump"):
        "397ef3d566c53b1093f1f58236260fc433946fc045e61c6be03de97b3fa86ba6",
    ("bernoulli-sparse", "lh-decay"):
        "f36694fa4de6625abfe13298a14a228c75f88c741ba3084b948613b14f69f160",
}


def test_verify_report_digests_pinned(tmp_path):
    """Each report against the digest of the pow that numpy_pow probes."""
    table = REPORT_SHA256 if numpy_pow() == "svml" else REPORT_SHA256_LIBM
    for (value_law, exponent_law), want in table.items():
        out = tmp_path / f"{value_law}-{exponent_law}.json"
        code = main([
            "verify", "--seed", "11", "--count", "3", "--width", "12",
            "--value-law", value_law, "--exponent-law", exponent_law, "--out", str(out),
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, (value_law, exponent_law)


# SHA-256 of `varseq corpus --seed 7 --count 3 --width W` (JSON) per
# (W, value law, exponent law): runs of more than 64 draws, which take the
# bulk path. Captured from the scalar draws, before the bulk path, under
# SVML; WIDE_CORPUS_SHA256_LIBM holds them under the C library's pow.
WIDE_CORPUS_SHA256 = {
    (49, "uniform01", "constant"):
        "e6034ff2dc2fb1902f8cf5f3fc607ca4241f83d0cc018b114f8b17444dac4dba",
    (49, "uniform01", "bump"):
        "d62b8b38cb8a761eff601c55afec394eee6f3dd75e9e51c1b91b7cbfe61f19c4",
    (49, "uniform01", "lh-decay"):
        "89fc52cd89d500283091151b5698e297b7ce32536ab0d698236c691e75ccf35a",
    (49, "uniform01", "random-range"):
        "4d98b4795187d3ee6f826c7dd51ba0faa66c3a2c1d72a92a9940e176bdbe3990",
    (49, "spike", "constant"):
        "6389a8c7afa6e063d24107140e9db842789f4d481d1aecc2bef8f3249df3681e",
    (49, "spike", "bump"):
        "cba99bdd0b22a4cf09d96df38f85174494b3f9be78605dde43fce9334fd924ec",
    (49, "spike", "lh-decay"):
        "f37756dce84b5de4841dc9c24e68d7a1d58832fcf6c119596e9e4bfe4c88fd0d",
    (49, "spike", "random-range"):
        "14983c1f5c7668fa5290ec7ff7b9760582a383226b387fd4f569aeb82ca18206",
    (49, "geometric-decay", "constant"):
        "ace0985f13f7fb9aed51f534abcc309a6fa37d06adf4729f87ada69fa4b30cfe",
    (49, "geometric-decay", "bump"):
        "3f9384805667bf04da8b4a97d01f09949b203722bb6656fab8dd4c7a9414710b",
    (49, "geometric-decay", "lh-decay"):
        "939ec1353ffdb58412eea7ee0ec39bd2085fc610caa2316584917a0f87f8933f",
    (49, "geometric-decay", "random-range"):
        "3595dc9320a903ccbfe1298fde444c63a56992df07040aa3474ca5e6d216ff75",
    (49, "bernoulli-sparse", "constant"):
        "f2f6a912e30df3335380095baf19ec13cba795428b5601186011004d59957b00",
    (49, "bernoulli-sparse", "bump"):
        "0097be7abf00afc647541696c5c7cbbd4a37e92e83ca9470ee8a2476fd644f48",
    (49, "bernoulli-sparse", "lh-decay"):
        "586f1b4172770a7d6607e5dbc342b05f457382a0e75311f7d23a5a940c261e1f",
    (49, "bernoulli-sparse", "random-range"):
        "0d0ae35a2478f03bf682849d6bf6cb7c0ebe59d1e92aff418921a5f73c089b8e",
    (65, "uniform01", "constant"):
        "3c890501673126fafc0beaa2389b62221af9301455386f2983e00b57a77ef325",
    (65, "uniform01", "bump"):
        "fbfb3cb79785efb98aa2a5797282392a0e98fc42394860162a41e857d8e538d0",
    (65, "uniform01", "lh-decay"):
        "ff2e08a3d09e63bedefddfaf558ddb9ec97ecdc4882527325897e582a3fc796c",
    (65, "uniform01", "random-range"):
        "3955650550a13dbdada6975770c18adbd6f4513bbc74165d15aa72eb62a55fd2",
    (65, "spike", "constant"):
        "506b442c86aae7091dcaa7484ac0ed8f731e08cff3c1503ea4996b44154fc9d2",
    (65, "spike", "bump"):
        "a71a71b145398f629ab92c774ead29278116bf595403f008872c9e74558df810",
    (65, "spike", "lh-decay"):
        "478f0a5bb650cf2ca1cf67d1e988e5bc532cd19287c6e43df0ec86fd355221bb",
    (65, "spike", "random-range"):
        "3c17bae2d92b6ebdc5b1b3a0c18cbb7f10bc38e54f843584df716e2a28db225e",
    (65, "geometric-decay", "constant"):
        "2dd1cd1a8fd878ae86d881f572f111b11934e52e04d1c07542dd6857a891ef92",
    (65, "geometric-decay", "bump"):
        "328841fb0fd9c1ae0e37a90836e40eed375d451ae7463d0342e069992661c656",
    (65, "geometric-decay", "lh-decay"):
        "4f363e4df9614641cbf7d6228601546ce1de8242a62eab3c781bf41aa5384192",
    (65, "geometric-decay", "random-range"):
        "e677e835f35b7a287398f2d9f17f0377b9f2ae328d7c18439f7edbbb0bbdfc5b",
    (65, "bernoulli-sparse", "constant"):
        "1366da189ba04f0ce14e6bf45ea33f11e49eb042744c972e411dbf23eb90530b",
    (65, "bernoulli-sparse", "bump"):
        "efce4bf06e08dc3feae6abbf155ed72ba2a6e4a15ecdadc4437702875bc08d75",
    (65, "bernoulli-sparse", "lh-decay"):
        "1d2a82cf259e39d25ad1938739ed1f6e63be96b04255b7675e280d17f3e4f578",
    (65, "bernoulli-sparse", "random-range"):
        "4d48c2b082a08867ee00e19ea84f26d2bce5ef52b1cbffd731e55e9efa3fcccc",
    (300, "uniform01", "constant"):
        "7cda8fa4127eb3d43fc8454dbf1278ffe353caa70e6a203a1cb5e1f183c4d848",
    (300, "uniform01", "bump"):
        "9dff0499905a175d662f692b7370618b2b5cd6dba7d1a3c185f51e1cfbbaf331",
    (300, "uniform01", "lh-decay"):
        "69728fac0bd49e3c48fff87e6f0aab7e86e409ee829a2ff4132b5ba0d641b432",
    (300, "uniform01", "random-range"):
        "c3e7ca4d9cb58102f5d08bf5d58e441b48e0dcf1286976fead069821931413ba",
    (300, "spike", "constant"):
        "068b0f9d9f35ca43e134b2d094a4ae753979974bb3728b1b0137eeb4383dc0d2",
    (300, "spike", "bump"):
        "6dce5179a1d9b91f97908e347e408dadfe1719344235b46e45a73e3a998973a3",
    (300, "spike", "lh-decay"):
        "de691d831b0801110d810e52b1450d396e0e49ea236762b23332a9ce4d62fe88",
    (300, "spike", "random-range"):
        "9c3d871e4789c59d6edc051f5e49b78e6a88cc937d46fe876653a9b9d18b5689",
    (300, "geometric-decay", "constant"):
        "e66bf39586683ae7a45b0ba9c9b211e6e51f36abeed98a5ce98bd7a7b82c29bb",
    (300, "geometric-decay", "bump"):
        "90f6678638c1932a5948b085118de4be255064c19d1e3bda6c3915bd6ac73c80",
    (300, "geometric-decay", "lh-decay"):
        "d78533de33ebc79b12480111b7a6e5ff0da190c184dc357a6bab3a2454837e36",
    (300, "geometric-decay", "random-range"):
        "df0b7ce0d8318f2350bdd461a9a46a3ebef64698a8ed94d709884cc79561baa4",
    (300, "bernoulli-sparse", "constant"):
        "36e0d1d43acf555a9a4bb197653007172f873ea54abb14e4f846f08ef09c721f",
    (300, "bernoulli-sparse", "bump"):
        "0b8b1c7314edb6241c3f873388a04f01e57a90e2d3f4b3e7116268d235620d89",
    (300, "bernoulli-sparse", "lh-decay"):
        "7e149c8e5ada0d18f5cbca21b476cde46c8927a28be78e549dbc21e81423a136",
    (300, "bernoulli-sparse", "random-range"):
        "105b26ca90900152eb00cfc06a1db4ed85ba611798904283ecf5380968e5ba2f",
}

# geometric-decay values are u * gamma ** np.arange(n): twelve corpora differ.
WIDE_CORPUS_SHA256_LIBM = {
    **WIDE_CORPUS_SHA256,
    (49, "geometric-decay", "constant"):
        "cbcccf2a7c71da41fb004aa60b9d9eda71fce4d56db5cf2d642201ea58d1a012",
    (49, "geometric-decay", "bump"):
        "c0f9b8c10cc4940ec54bfc27fc20dc42096f1d946909c7f9cee14c4ba7a3d7a0",
    (49, "geometric-decay", "lh-decay"):
        "438db2bd8fcb869bd9c6c840cb81ae09e7fb7e0509328722094d08c1705fa00f",
    (49, "geometric-decay", "random-range"):
        "49bdbe023aa8c2c09d88109e7bfd9c17f034f7a66b85eed833a15a2a1e8a40c1",
    (65, "geometric-decay", "constant"):
        "6452b4c3e5a296b740b712c7197b8bfbbe4d595cc89871b1d7077efc632ed300",
    (65, "geometric-decay", "bump"):
        "2ef7b3954cdf5a46a867faeffec71dd62163237b526b32d5673652db4ff7f858",
    (65, "geometric-decay", "lh-decay"):
        "5ce609e4973e6eba8e60a9fd8fc53a4ec84bb2531849c505788359d3c8ed6c23",
    (65, "geometric-decay", "random-range"):
        "059ed9414e33047662dfe1042c65908a75ba052ca57212004e7effa2ef60a15f",
    (300, "geometric-decay", "constant"):
        "aea87fc5df4ee66d33999f0018213540dec9ed8da9aa53c7f275f9cd0c7904dc",
    (300, "geometric-decay", "bump"):
        "c5c2e144f617f4613412536d2ec75395e41a9b8b658eef91ff10049f7db15d7d",
    (300, "geometric-decay", "lh-decay"):
        "bd3dd058c39ca25232ee78a01461b598921f83450fde36244c4c28806b930249",
    (300, "geometric-decay", "random-range"):
        "1c8e9927c9403caa3bdc2ae5449351cd09e23daf7b35ac7398b5751591318203",
}


def test_wide_corpus_digests_pinned():
    """Each corpus against the digest of the pow that numpy_pow probes."""
    table = WIDE_CORPUS_SHA256 if numpy_pow() == "svml" else WIDE_CORPUS_SHA256_LIBM
    for (width, value_law, exponent_law), want in table.items():
        printed = io.StringIO()
        with redirect_stdout(printed):
            code = main([
                "corpus", "--seed", "7", "--count", "3", "--width", str(width),
                "--value-law", value_law, "--exponent-law", exponent_law,
            ])
        assert code == 0
        got = hashlib.sha256(printed.getvalue().encode()).hexdigest()
        assert got == want, (width, value_law, exponent_law)
