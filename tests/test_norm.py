"""Modular and Luxemburg norm tests against closed forms and invariants."""

import collections
import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import (
    WINDOW_PLACEMENTS,
    adversarial_sequences,
    constant_norm_oracle,
    placed_window,
    plain_characteristic_norm,
    plain_luxemburg_norm,
)
from varseq import cli, harness, norm
from varseq.exponent import ExponentFunction
from varseq.harness import (
    CorpusSpec,
    XorShift64Star,
    generate_corpus,
    strong_type_ratio,
    weak_type_sup,
)
from varseq.lattice import Sequence, ZInterval, runs_from_mask, truncate
from varseq.norm import (
    characteristic_norm,
    characteristic_norms,
    check_norm_modular_relations,
    check_scaling_bounds,
    luxemburg_norm,
    modular,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_modular_zero_and_basic():
    p = ExponentFunction.constant(2.0)
    assert modular(Sequence(0, []), p) == 0.0
    assert modular(Sequence(0, [3.0, 4.0]), p) == 25.0


def test_bisection_evaluates_the_one_modular(monkeypatch, tmp_path, capsys):
    """norm.modular is the one plain evaluator of rho(a/lam): `varseq norm`
    calls it once at the returned norm, with the bits of the plain formula,
    and it rejects a lam that is not positive."""
    a = Sequence(-3, [0.5, 1.25, 0.8, 0.0, 0.3, 1.1])
    p = ExponentFunction(-2, [1.0, 1.5, 2.0, 3.0], 2.5)
    seq, exp = tmp_path / "a.json", tmp_path / "p.json"
    seq.write_text(json.dumps({"offset": -3, "values": a.values.tolist()}))
    exp.write_text(json.dumps({"window_lo": -2, "values": p.values.tolist(), "p_inf": 2.5}))
    real, lams = norm.modular, []

    def spy(b, q, lam=1.0):
        lams.append(lam)
        return real(b, q, lam)

    monkeypatch.setattr(norm, "modular", spy)
    monkeypatch.setattr(cli, "modular", spy)
    assert cli.main(["norm", "--input", str(seq), "--exponent", str(exp)]) == 0
    record = json.loads(capsys.readouterr().out)
    value, got = record["norm"], record["achieved_modular"]
    assert value == luxemburg_norm(a, p).value
    assert lams[-1] == value and lams.count(value) == 1
    assert got.hex() == real(a, p, value).hex()
    assert got.hex() == float(np.power(a.values / value, p.values_on(a.window)).sum()).hex()
    for lam in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="lam must be positive"):
            real(a, p, lam)


def test_norm_constant_exponent_closed_form():
    a = Sequence(0, [3.0, 4.0])
    p = ExponentFunction.constant(2.0)
    assert luxemburg_norm(a, p).value == pytest.approx(5.0, rel=1e-12)


def test_norm_two_exponent_golden_ratio():
    """a = (1, 1) with p = (1, 2) solves 1/x + 1/x^2 = 1, the golden ratio."""
    a = Sequence(0, [1.0, 1.0])
    p = ExponentFunction(0, [1.0, 2.0], 2.0)
    assert luxemburg_norm(a, p).value == pytest.approx(GOLDEN, rel=1e-12)


def test_norm_single_point_equals_value():
    # one nonzero entry: bracket degenerates, norm is |a(k)| exactly
    a = Sequence(7, [2.5])
    for p0 in (1.0, 2.0, 5.5):
        nv = luxemburg_norm(a, ExponentFunction.constant(p0))
        assert nv.value == 2.5 and nv.iterations == 0


def test_norm_matches_constant_oracle_random():
    rng = XorShift64Star(31337)
    for _ in range(150):
        width = rng.randint(1, 40)
        vals = [rng.uniform() * 3.0 for _ in range(width)]
        a = Sequence(rng.randint(-50, 50), vals)
        p0 = rng.uniform_range(1.0, 8.0)
        got = luxemburg_norm(a, ExponentFunction.constant(p0)).value
        want = constant_norm_oracle(a, p0)
        assert got == pytest.approx(want, rel=1e-10)


def test_norm_homogeneity_and_monotonicity():
    rng = XorShift64Star(99)
    p = ExponentFunction(-5, 1.3 + np.arange(11) % 3, 2.0)
    for _ in range(40):
        a = Sequence(-5, [rng.uniform() for _ in range(11)])
        n0 = luxemburg_norm(a, p).value
        assert luxemburg_norm(a.scaled(3.0), p).value == pytest.approx(3.0 * n0, rel=1e-10)
        # pointwise domination implies norm domination
        b = Sequence(-5, a.values * (0.2 + 0.8 * np.linspace(0, 1, 11)))
        assert luxemburg_norm(b, p).value <= n0 * (1 + 1e-12)


def test_unit_modular_identity():
    spec = CorpusSpec(
        seed=555,
        count=50,
        window_width=32,
        value_law="uniform01",
        exponent_law="random-range",
        alpha_list=(0.0,),
    )
    for item in generate_corpus(spec):
        nv = luxemburg_norm(item.a, item.p)
        unit = modular(item.a.scaled(1.0 / nv.value), item.p)
        assert unit == pytest.approx(1.0, abs=1e-8)


def test_norm_modular_chain_both_regimes():
    spec = CorpusSpec(
        seed=556,
        count=40,
        window_width=32,
        value_law="geometric-decay",
        exponent_law="bump",
        alpha_list=(0.0,),
    )
    for item in generate_corpus(spec):
        n0 = luxemburg_norm(item.a, item.p).value
        for target in (0.5, 2.0):
            scaled = item.a.scaled(target / n0)
            rep = check_norm_modular_relations(scaled, item.p)
            assert rep.ok, rep
    zero = check_norm_modular_relations(Sequence(0, [0.0, 0.0]), ExponentFunction.constant(2.0))
    assert (zero.ok, zero.norm, zero.modular_value, zero.unit_modular) == (True, 0.0, 0.0, 0.0)


def test_scaling_bounds():
    spec = CorpusSpec(
        seed=557,
        count=30,
        window_width=24,
        value_law="spike",
        exponent_law="lh-decay",
        alpha_list=(0.0,),
    )
    for item in generate_corpus(spec):
        for lam in (0.3, 1.0, 2.7):
            rep = check_scaling_bounds(item.a, item.p, lam)
            assert rep.ok, rep


def test_scaling_bounds_rejects_bad_lam():
    """A lam outside (0, inf) gets the lam message, and one whose scaled
    modular overflows is a one-line ValueError with no numpy warning."""
    a, p = Sequence(0, [1.0, 2.0]), ExponentFunction.constant(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                check_scaling_bounds(a, p, lam)
        for b in (a, Sequence(0, [1e10])):
            with pytest.raises(ValueError, match=r"lam = 1e\+300 overflows the scaled modular"):
                check_scaling_bounds(b, p, 1e300)


def test_fatou_truncation_monotone():
    rng = XorShift64Star(404)
    p = ExponentFunction(-20, 1.2 + np.abs(np.sin(np.arange(41))), 1.8)
    for _ in range(25):
        a = Sequence(-15, [rng.uniform() for _ in range(31)])
        full = luxemburg_norm(a, p).value
        prev = 0.0
        for k in range(0, 18, 3):
            v = luxemburg_norm(truncate(a, ZInterval(-k, k)), p).value
            assert v >= prev - 1e-11 * max(1.0, full)
            prev = v
        assert prev == pytest.approx(full, rel=4e-12)


def test_characteristic_norm_matches_explicit():
    p = ExponentFunction(-3, [1.5, 2.0, 2.5, 3.0, 1.2, 2.2, 1.9], 2.0)
    runs = [ZInterval(-4, -2), ZInterval(1, 5)]
    explicit = Sequence(-4, [1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    want = luxemburg_norm(explicit, p).value
    got = characteristic_norm(runs, p).value
    assert got == pytest.approx(want, rel=1e-10)


def test_characteristic_norm_large_sets_constant_exponent():
    # ||chi_E||_p0 = |E|^(1/p0); set size far beyond any explicit window
    runs = [ZInterval(-10**9, 10**9)]
    n = 2 * 10**9 + 1
    for p0 in (1.0, 2.0, 4.0):
        got = characteristic_norm(runs, ExponentFunction.constant(p0)).value
        assert got == pytest.approx(n ** (1.0 / p0), rel=1e-10)


def test_characteristic_norm_empty_and_singleton():
    p = ExponentFunction.constant(2.0)
    assert characteristic_norm([], p).value == 0.0
    assert characteristic_norm([ZInterval(5, 5)], p).value == 1.0


def test_norm_rejects_bad_tolerance():
    p = ExponentFunction.constant(2.0)
    # NaN and inf once ended the bisection after 0 iterations at the
    # midpoint; below 2**-52 the bisection ran all MAX_BISECT_ITER midpoints
    for rel_tol in (0.0, -1e-12, math.nan, math.inf, 1e-300, 2.0**-53):
        with pytest.raises(ValueError, match="rel_tol"):
            luxemburg_norm(Sequence(0, [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]), p, rel_tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol"):
            characteristic_norm([ZInterval(0, 5)], p, rel_tol=rel_tol)
    # 2**-52 itself is taken and met before the iteration cap
    a = Sequence(0, [3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
    assert luxemburg_norm(a, p, rel_tol=2.0**-52).iterations < norm.MAX_BISECT_ITER
    assert characteristic_norm([ZInterval(0, 5)], p, rel_tol=2.0**-52).iterations < norm.MAX_BISECT_ITER


# Certified-bracket bisection against the plain bisection in conftest. The
# largest exponent the corpus bounds allow is the fractional conjugate of
# p_hi = 0.95 / alpha at alpha = 0.5: 1.9 / (1 - 0.95) = 38.
Q_MAX = 38.0
_property = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _bits(nv):
    return (nv.value.hex(), nv.tolerance.hex(), nv.iterations)


def _magnitudes(rng, n, zero_runs):
    """n values log-uniform in [1e-12, 1e12] with zero_runs runs of zeros."""
    v = np.exp(rng.uniform(math.log(1e-12), math.log(1e12), n))
    for _ in range(zero_runs):
        start = int(rng.integers(0, n))
        v[start : start + int(rng.integers(1, n + 1))] = 0.0
    return v


@st.composite
def _exponents(draw, near: int):
    """Exponent window of width 0..2^15 placed around index `near`, values
    and p_inf in [1, q_max] with q_max <= Q_MAX."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q_max = draw(st.floats(1.0, Q_MAX))
    width = draw(st.one_of(st.just(0), st.integers(1, 2**15)))
    lo = near + draw(st.integers(-(2**15), 2**15))
    return ExponentFunction(lo, rng.uniform(1.0, q_max, width), draw(st.floats(1.0, q_max)))


@st.composite
def _norm_inputs(draw):
    """Values from _magnitudes, or, in a quarter of the draws, subnormal
    multiples k * 5e-324 with k < 2^b, where bisection can reach adjacent
    floats."""
    n = draw(st.one_of(st.just(1), st.integers(1, 2**15)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.integers(-(2**20), 2**20))
    if draw(st.integers(0, 3)) == 0:
        values = rng.integers(0, 2 ** draw(st.integers(1, 52)), n) * 5e-324
    else:
        values = _magnitudes(rng, n, draw(st.integers(0, 3)))
    a = Sequence(offset, values)
    return a, draw(_exponents(offset))


@st.composite
def _run_sets(draw):
    """1..4 runs of up to 2^15 points plus, optionally, one run of up to
    2^52 points far outside any exponent window."""
    x = draw(st.integers(-(2**16), 2**16))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 2**15))
        runs.append(ZInterval(x, x + length - 1))
        x += length + draw(st.integers(1, 2**15))
    if draw(st.booleans()):
        far = 2**40
        runs.append(ZInterval(far, far + draw(st.integers(0, 2**52))))
    return runs, draw(_exponents(runs[0].lo))


@_property
@given(_norm_inputs())
def test_luxemburg_norm_bit_identical_to_plain_bisection(inputs):
    a, p = inputs
    assert _bits(luxemburg_norm(a, p)) == _bits(plain_luxemburg_norm(a, p))


@st.composite
def _tail_inputs(draw):
    """A sequence window wholly left or right of the exponent window, across
    one or both of its ends, inside it or one point, or under a constant
    exponent; values down to 1e-300, whose terms (v/max|a|)^p_inf underflow
    for any p_inf >= 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q_max = draw(st.floats(1.0, Q_MAX))
    p_width = draw(st.integers(1, 2**12))
    p = ExponentFunction(0, rng.uniform(1.0, q_max, p_width), draw(st.floats(1.0, q_max)))
    if draw(st.booleans()):
        p = ExponentFunction.constant(p.p_inf)
    where = draw(st.sampled_from(WINDOW_PLACEMENTS))
    win = placed_window(0, p_width - 1, where, draw(st.integers(1, 2**12)), draw(st.integers(1, 2**15)))
    n = win.hi - win.lo + 1
    lowest = draw(st.sampled_from([-12.0, -300.0]))
    v = np.exp(rng.uniform(math.log(10.0**lowest), 0.0, n)) * 10.0 ** draw(st.floats(-12.0, 12.0))
    v[rng.integers(0, n, size=draw(st.integers(0, 3)))] = 0.0
    return Sequence(win.lo, v), p


@_property
@given(_tail_inputs())
def test_luxemburg_norm_tail_bit_identical_to_plain_bisection(inputs):
    """The bracket sums the terms outside the exponent window once and
    rescales them per evaluation; the bisection's modular is untouched."""
    a, p = inputs
    assert _bits(luxemburg_norm(a, p)) == _bits(plain_luxemburg_norm(a, p))


@_property
@given(_run_sets())
def test_characteristic_norm_bit_identical_to_plain_bisection(inputs):
    runs, p = inputs
    assert _bits(characteristic_norm(runs, p)) == _bits(plain_characteristic_norm(runs, p))


@st.composite
def _materialisable_run_sets(draw):
    """1..4 runs of up to 2^10 points with gaps of up to 2^10, and an
    exponent window that may hold all, some or none of them."""
    x = draw(st.integers(-(2**20), 2**20))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 2**10))
        runs.append(ZInterval(x, x + length - 1))
        x += length + draw(st.integers(1, 2**10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q_max = draw(st.floats(1.0, Q_MAX))
    lo = draw(st.integers(runs[0].lo - 2**12, runs[-1].hi + 2**10))
    width = draw(st.one_of(st.just(0), st.integers(1, 2**13)))
    return runs, ExponentFunction(lo, rng.uniform(1.0, q_max, width), draw(st.floats(1.0, q_max)))


@_property
@given(_materialisable_run_sets(), st.sampled_from([2.0**-52, 1e-12, 1e-6]))
def test_characteristic_norm_matches_materialised_indicator(inputs, rel_tol):
    """characteristic_norm against luxemburg_norm of the indicator written
    out as a sequence: both bisect [1, count] on the same exact modular
    m(lam) = sum over the set of lam^-p(k), each with its own rounding.

    The tolerance. Let r be the root of m = 1, and eps the larger of the two
    _rounding_bound values (chain max(N, 3) bounds both luxemburg_norm's
    N - 1, N the written-out length, and characteristic_norm's
    max(n_inner, 3)), so every computed modular is within eps m of m. A
    bisection stops with hi - lo <= rel_tol hi and returns x in [lo, hi].
    The low end is 1 or has fl_m(lo) > 1; the high end is the count or has
    fl_m(hi) <= 1. Since p >= 1, m(lam) <= r / lam for lam > r and
    m(lam) >= r / lam for lam < r, so lo < (1 + eps) r and
    hi > (1 - eps) r. Hence (1 - rel_tol)(1 - eps) r <= x
    <= (1 + eps) r / (1 - rel_tol), and the two results differ by at most
    2 (rel_tol + eps) r / (1 - rel_tol) <= 2 (rel_tol + eps) max(x) /
    ((1 - rel_tol)^2 (1 - eps)). With rel_tol <= 1e-6 and eps < 1e-9, the
    factor 2.001 covers that denominator and the rounding of the stop test.
    """
    runs, p = inputs
    got = characteristic_norm(runs, p, rel_tol)
    lo, hi = runs[0].lo, runs[-1].hi
    mask = np.zeros(hi - lo + 1)
    for r in runs:
        mask[r.lo - lo : r.hi - lo + 1] = 1.0
    want = luxemburg_norm(Sequence(lo, mask), p, rel_tol)
    assert max(got.iterations, want.iterations) < norm.MAX_BISECT_ITER
    eps = norm._rounding_bound(max(mask.size, 3), p.p_plus)
    tol = 2.001 * (rel_tol + eps) * max(got.value, want.value)
    assert abs(got.value - want.value) <= tol


_BRENT_RTOL = 4 * 2.0**-52  # the least rtol brentq accepts
_BRENT_XTOL = 2.0**-1000


def _assert_near_brentq_root(a: Sequence, p: ExponentFunction, rel_tol: float) -> None:
    """luxemburg_norm against scipy's brentq root of modular(a / lam) - 1,
    for exponents in [1, 8] and no term that underflows.

    The tolerance. Let m(lam) = sum_i (v_i / lam)^p_i be the exact modular,
    r its root, and eps = _rounding_bound(N - 1, p_plus), so every computed
    modular fl_m obeys |fl_m - m| <= eps m (no term underflows here). As
    p_i >= 1, m(lam) <= r / lam for lam >= r and m(lam) >= r / lam for
    lam <= r. So fl_m(u) >= 1 gives u <= (1 + eps) r, and fl_m(v) <= 1 gives
    v >= (1 - eps) r.
    - The bisection returns x in [lo, hi] with hi - lo <= rel_tol hi, where
      lo is max v_i <= r or has fl_m(lo) > 1, and hi is sum v_i >= r or has
      fl_m(hi) <= 1. Hence (1 - eps)(1 - rel_tol) r <= x
      <= (1 + eps) r / (1 - rel_tol).
    - brentq stops at b with fl_m - 1 of opposite signs (or 0) at b and at
      a point within tau = xtol + rtol |b| of it, so
      (1 - eps) r - tau <= b <= (1 + eps) r + tau.
    Subtracting, |x - b| <= (rel_tol + 2 eps) r / (1 - rel_tol) + tau, and
    r <= x / ((1 - eps)(1 - rel_tol)): the norm lies within
    (rel_tol + 2 eps) x of the root, up to the factor
    1 / ((1 - rel_tol)^2 (1 - eps)) and brentq's own tau.
    """
    v = a.values
    got = luxemburg_norm(a, p, rel_tol)
    assert got.iterations < norm.MAX_BISECT_ITER

    def f(lam):
        return modular(Sequence(a.offset, v / lam), p) - 1.0

    # m >= 2 - 1 at half the max and m <= 1/2 at twice the sum
    root = brentq(f, 0.5 * v.max(), 2.0 * v.sum(), xtol=_BRENT_XTOL, rtol=_BRENT_RTOL, maxiter=500)
    eps = norm._rounding_bound(v.size - 1, p.p_plus)
    tau = _BRENT_XTOL + _BRENT_RTOL * root
    tol = (rel_tol + 2.0 * eps) * got.value / ((1.0 - rel_tol) ** 2 * (1.0 - eps)) + tau
    assert abs(got.value - root) <= tol


@_property
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=64).filter(any),
    st.data(),
    st.sampled_from([2.0**-52, 1e-12, 1e-6]),
)
def test_luxemburg_norm_matches_brentq_root(values, data, rel_tol):
    """1-64 values and exponents in [1, 8] (_assert_near_brentq_root)."""
    exponents = st.lists(st.floats(1.0, 8.0), min_size=len(values), max_size=len(values))
    p = ExponentFunction(0, data.draw(exponents), 2.0)
    _assert_near_brentq_root(Sequence(0, values), p, rel_tol)


@st.composite
def _adversarial_norm_inputs(draw):
    """An adversarial sequence (long zero runs, a lone far spike 1e-3..1e3
    times the body's peak) under exponents in [1, 8] whose window starts up
    to 16 points either side of the sequence's, so its ends may take p_inf."""
    a = draw(adversarial_sequences())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = a.offset + draw(st.integers(-16, 16))
    return a, ExponentFunction(lo, rng.uniform(1.0, 8.0, a.values.size), draw(st.floats(1.0, 8.0)))


@_property
@given(_adversarial_norm_inputs(), st.sampled_from([2.0**-52, 1e-12, 1e-6]))
def test_norms_on_adversarial_laws(inputs, rel_tol):
    """The Luxemburg norm bit for bit against the plain bisection and near
    brentq's root; the indicator norm of the support's runs bit for bit
    against its plain bisection."""
    a, p = inputs
    assert _bits(luxemburg_norm(a, p, rel_tol)) == _bits(plain_luxemburg_norm(a, p, rel_tol))
    _assert_near_brentq_root(a, p, rel_tol)
    runs = runs_from_mask(a.values > 0.0, a.offset)
    want = plain_characteristic_norm(runs, p, rel_tol)
    assert _bits(characteristic_norm(runs, p, rel_tol)) == _bits(want)


@pytest.mark.parametrize(
    "values, value", [([5e-324, 1e-323, 5e-324], 1.5e-323), ([5e-324, 5e-324], 1e-323)]
)
def test_subnormal_bisection_stops_at_adjacent_floats(values, value):
    """Subnormal values narrow the bracket to two adjacent floats long
    before rel_tol is met; the bisection stops there and returns the upper
    end, whose modular is at most 1 (the exact norms are sqrt(6) and
    sqrt(2) times 5e-324)."""
    a, p = Sequence(0, values), ExponentFunction.constant(2.0)
    got = luxemburg_norm(a, p)
    assert got.iterations < norm.MAX_BISECT_ITER
    assert modular(a, p, got.value) <= 1.0
    assert got.value == value


def _luxemburg_case(values, p):
    a = Sequence(0, values)
    trace = []
    return luxemburg_norm(a, p), plain_luxemburg_norm(a, p, trace=trace), trace


def _indicator_case(runs, p):
    trace = []
    return characteristic_norm(runs, p), plain_characteristic_norm(runs, p, trace=trace), trace


_P2 = ExponentFunction.constant(2.0)
# Each case puts the exact root on a bisection midpoint, or within an ulp of
# one, so the computed modular there is within 1e-15 of 1: (8, 15, 17) and
# (48, 55, 73) are Pythagorean triples whose hypotenuse is a dyadic point of
# the bracket [max, sum]; 9 and 49 points at p = 2 have roots 3 and 7 on
# dyadic points of [1, count].
ADVERSARIAL = {
    "pythagorean_8_15": lambda: _luxemburg_case([8.0, 15.0], _P2),
    "pythagorean_48_55": lambda: _luxemburg_case([48.0, 55.0], _P2),
    **{
        f"pythagorean_8_15_nudged_{k:+d}ulp": (
            lambda k=k: _luxemburg_case([8.0, 15.0 * (1.0 + k * 2.0**-52)], _P2)
        )
        for k in (-3, -2, -1, 1, 2, 3)
    },
    "pythagorean_8_15_windowed": lambda: _luxemburg_case(
        [8.0, 15.0], ExponentFunction(1, [2.0], 2.0)
    ),
    "indicator_9_points": lambda: _indicator_case([ZInterval(0, 8)], _P2),
    "indicator_49_points_split_window": lambda: _indicator_case(
        [ZInterval(0, 48)], ExponentFunction(-10, np.full(35, 2.0), 2.0)
    ),
    "indicator_49_points_far_tail": lambda: _indicator_case(
        [ZInterval(0, 23), ZInterval(2**45, 2**45 + 24)],
        ExponentFunction(0, np.full(24, 2.0), 2.0),
    ),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_midpoint_at_root(name):
    got, want, trace = ADVERSARIAL[name]()
    assert min(abs(m - 1.0) for _, m in trace) <= 1e-15
    assert _bits(got) == _bits(want)


def _spy_rows(monkeypatch):
    """Record one dict per bracket row the norms build: from _bracket, the
    batched evaluator `mods` that certified it, its `row` index and `eps`,
    its (A, B) and its evaluation count `evals`; from the _bisect call that
    follows, the row's plain modular `mod_at` and its (lo, hi). Each
    characteristic_norms or luxemburg_norm call bisects its rows in order
    right after their bracket, so the two calls pair up first in, first
    out; the bisection adds its plain modular `passes` and `iterations`.
    `calls` holds the number of mods calls of each bracket."""
    rows, pending, calls = [], collections.deque(), []
    real_bracket, real_bisect = norm._bracket, norm._bisect

    def bracket(mods, lo, hi, eps):
        evals = [0] * len(lo)
        calls.append(0)

        def counted(lams, idx):
            calls[-1] += 1
            for i in idx:
                evals[i] += 1
            return mods(lams, idx)

        A, B = real_bracket(counted, lo, hi, eps)
        for i in range(len(lo)):
            pending.append({"mods": mods, "row": i, "eps": eps, "A": A[i], "B": B[i], "evals": evals[i]})
        return A, B

    def bisect(mod_at, lo, hi, rel_tol, A, B):
        row = pending.popleft()
        assert (row["A"], row["B"]) == (A, B)
        row.update(mod_at=mod_at, lo=lo, hi=hi, passes=0)
        rows.append(row)

        def counted(lam):
            row["passes"] += 1
            return mod_at(lam)

        nv = real_bisect(counted, lo, hi, rel_tol, A, B)
        row["iterations"] = nv.iterations
        return nv

    monkeypatch.setattr(norm, "_bracket", bracket)
    monkeypatch.setattr(norm, "_bisect", bisect)
    return rows, calls


def _issued(row, lam):
    """Row's modular at lam by the batched evaluator that certified it."""
    return row["mods"]([lam], [row["row"]])[0][0]


def _nested_grid(n):
    """Nested runs around [0, n - 1], the shape of the weak-type grid, with
    a far tail on the outermost set and an empty set."""
    sets = [[ZInterval(-k, n - 1 + k)] for k in range(0, 12, 3)]
    sets.append([ZInterval(-12, n + 11), ZInterval(2**40, 2**40 + 2**50)])
    return sets + [[]]


def test_bracket_certificates_hold(monkeypatch):
    """A and B are evaluated points that clear the margin on the evaluator
    that issued them, and each row's plain float modular keeps its side of
    1 on 64 floats beyond each, where rounding noise is largest relative to
    the modular's slope; for single norms, with and without a tail outside
    the exponent window, and for grid batches."""
    seen, _ = _spy_rows(monkeypatch)
    rng = np.random.default_rng(2026)
    for n in (1, 2, 3, 64, 1000, 2**12, 2**15):
        for _ in range(3):
            a = Sequence(0, _magnitudes(rng, n, 1) if n > 8 else rng.uniform(0.5, 2.0, n))
            p = ExponentFunction(-5, rng.uniform(1.0, rng.uniform(1.0, Q_MAX), n + 10), 1.5)
            luxemburg_norm(a, p)
            characteristic_norm([ZInterval(0, n - 1), ZInterval(2**40, 2**40 + 2**50)], p)
            characteristic_norms(_nested_grid(n), p)
            # the window's upper half, or none of it, inside p's window
            q_inf, half = float(rng.uniform(1.0, Q_MAX)), (n + 1) // 2
            q = ExponentFunction(half, rng.uniform(1.0, Q_MAX, n), q_inf)
            for tail_p, tail in ((q, a.values[:half]), (ExponentFunction.constant(q_inf), a.values)):
                luxemburg_norm(a, tail_p)
                if tail.any():
                    sums = (n, n - tail.size, tail.size)
                    chain = max(map(norm._sum_chain, sums)) + math.ceil(tail_p.p_plus) + 2 * norm.POW_ULPS + 2
                    assert seen[-1]["eps"] == norm._rounding_bound(chain, tail_p.p_plus)
    certified = bracketed = 0
    for row in seen:
        assert row["eps"] > 0.0
        mod_at, A, B, eps = row["mod_at"], row["A"], row["B"], row["eps"]
        if A > -math.inf:
            assert _issued(row, A) > 1.0 + 3.0 * eps
            x = A
            for _ in range(64):
                x = float(np.nextafter(x, 0.0))
                assert mod_at(x) > 1.0
        if B < math.inf:
            assert _issued(row, B) <= 1.0 - 3.0 * eps
            x = B
            for _ in range(64):
                x = float(np.nextafter(x, math.inf))
                assert mod_at(x) <= 1.0
        bracketed += row["hi"] > row["lo"]
        certified += A > -math.inf and B < math.inf
    assert certified == bracketed > 0


@pytest.mark.parametrize("steps", [0, 1])
def test_bracket_uncertified_exit_keeps_bits(monkeypatch, steps):
    """With NEWTON_STEPS at 0 or 1 the Newton loop mostly runs out before its
    step is small enough, and _bracket takes its uncertified exit after
    `steps` evaluations of a row (a break costs two more) and at most
    `steps + 1` evaluator calls. The bisection then evaluates more
    midpoints, and single norms and grid rows keep the bits of the plain
    bisection."""
    monkeypatch.setattr(norm, "NEWTON_STEPS", steps)
    seen, calls = _spy_rows(monkeypatch)
    rng = np.random.default_rng(4242)
    for n in (2, 3, 64, 1000):
        for _ in range(4):
            a = Sequence(3, _magnitudes(rng, n, 1))
            p = ExponentFunction(0, rng.uniform(1.0, rng.uniform(1.0, Q_MAX), n + 6), 1.5)
            assert _bits(luxemburg_norm(a, p)) == _bits(plain_luxemburg_norm(a, p))
            runs = [ZInterval(0, n - 1), ZInterval(2**40, 2**40 + int(rng.integers(0, 2**30)))]
            assert _bits(characteristic_norm(runs, p)) == _bits(plain_characteristic_norm(runs, p))
            grid = _nested_grid(n)
            want = [_bits(plain_characteristic_norm(s, p)) for s in grid]
            assert [_bits(nv) for nv in characteristic_norms(grid, p)] == want
    if steps == 0:
        assert all((r["A"], r["B"]) == (-math.inf, math.inf) for r in seen)
    evaluations = [r["evals"] for r in seen if r["hi"] > r["lo"]]
    assert steps in evaluations and max(evaluations) <= steps + 2
    assert max(calls) <= steps + 1


def test_bracket_margin_covers_opposite_errors():
    """The 3 eps margin of _bracket's certificates is what keeps the bits.
    Take m(lam) = sum_i (v_i/lam)^p as the exact modular and let the two
    evaluators err by the full bound eps in opposite directions: the
    bracket's overstates m by 1 + eps, the bisection's understates it by
    1 - eps. A certificate then still decides each midpoint as the plain
    bisection does; without the margin, some fall between the two."""
    rng = np.random.default_rng(14)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        v = rng.uniform(0.01, 1.0, k)
        p = float(rng.uniform(1.0, 4.0))
        eps = norm._rounding_bound(k - 1, p) * float(np.exp(rng.uniform(0.0, math.log(1000.0))))

        def mods(lams, rows, v=v, p=p, eps=eps):
            ms = [float(np.power(v / lam, p).sum()) * (1.0 + eps) for lam in lams]
            return ms, [p * m for m in ms]

        def mod_at(lam, v=v, p=p, eps=eps):
            return float(np.power(v / lam, p).sum()) * (1.0 - eps)

        lo = float(v.max())
        hi = max(lo, float(v.sum()))
        (A,), (B,) = norm._bracket(mods, [lo], [hi], eps)
        got = norm._bisect(mod_at, lo, hi, 1e-12, A, B)
        want = norm._bisect(mod_at, lo, hi, 1e-12, -math.inf, math.inf)
        assert (got.value, got.iterations) == (want.value, want.iterations), (v, p, eps)


def _pairwise_sum(x):
    """numpy's pairwise_sum (loops_utils.h.src) written out, with the most
    roundings any term passes through: under 8 terms one running sum from
    0.0 (the first add is exact); up to 128, 8 accumulators over every
    eighth term, joined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the last n % 8 terms one by one; longer arrays split at n // 2
    rounded down to a multiple of 8."""
    n = x.size
    if n < 8:
        s, depth = 0.0, -1
        for t in x.tolist():
            s, depth = s + t, depth + 1
        return s, max(depth, 0)
    if n <= 128:
        whole = n - n % 8
        r, d = x[:8].copy(), np.zeros(8, dtype=int)
        for i in range(8, whole, 8):
            r, d = r + x[i : i + 8], d + 1
        while r.size > 1:
            r, d = r[0::2] + r[1::2], np.maximum(d[0::2], d[1::2]) + 1
        s, depth = float(r[0]), int(d[0])
        for t in x[whole:].tolist():
            s, depth = s + t, depth + 1
        return s, depth
    half = n // 2 - (n // 2) % 8
    (s1, d1), (s2, d2) = _pairwise_sum(x[:half]), _pairwise_sum(x[half:])
    return s1 + s2, 1 + max(d1, d2)


def _sum_cases():
    """Seeded arrays of 0 to 2^17 terms, the block and split edges among
    them: signed values over 17 decades and non-negative ones like a
    modular's terms."""
    rng = np.random.default_rng(2026_10_20)
    edges = [0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 8191, 8192, 8193, 17_624, 65_537, 2**17]
    sizes = edges + [int(n) for n in np.exp(rng.uniform(0.0, math.log(2**17), 60))]
    for k, n in enumerate(sizes):
        if k % 2:
            yield rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))
        else:
            yield np.exp(rng.uniform(-40.0, 0.0, n))


def test_numpy_sum_is_the_pairwise_tree():
    """np.sum of a 1-D float64 array is the pairwise tree bit for bit, and
    the tree's deepest term passes through _sum_chain(n) roundings: the
    order luxemburg_norm's rounding bound assumes. A numpy that sums in
    another order fails here. The running sum differs on some arrays, so
    the comparison tells the orders apart."""
    running_differs = 0
    for x in _sum_cases():
        s, depth = _pairwise_sum(x)
        assert float(x.sum()).hex() == (0.0 + s).hex(), x.size
        assert depth == norm._sum_chain(x.size), x.size
        running_differs += x.size and float(np.cumsum(x)[-1]) != s
    assert running_differs > 10


def test_sum_chain_bounds_measured_error():
    """|np.sum(x) - sum x| <= gamma_c sum |x| with c = _sum_chain(n), the
    error measured by math.fsum, which rounds the exact difference once."""
    u = 2.0**-53
    for x in _sum_cases():
        c = norm._sum_chain(x.size)
        err = math.fsum(x.tolist() + [-float(x.sum())])
        gamma = c * u / (1.0 - c * u)
        assert abs(err) <= gamma * math.fsum(np.abs(x).tolist()) * (1.0 + 4.0 * u), x.size


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def test_tail_margin_covers_its_ledger(monkeypatch):
    """The tail's share of luxemburg_norm's chain, ceil(p_plus) +
    2 POW_ULPS + 2, is what covers its bracket evaluator. Take the float
    terms as the exact modular and let the evaluator err by the ledger of
    _bisect at its full bound: an inner term by its division and pow
    (ceil(p_plus) + 2 POW_ULPS), _sum_chain(n_inner) and the final add; a
    tail term by T's first division, pow and _sum_chain(n_tail), the factor
    (lo/lam)^p_inf's division and pow, the product and the final add. The
    plain modular errs the other way by its own bound, _sum_chain(N). The
    ledger stays within the eps luxemburg_norm certifies with, and the
    certified bisection keeps the plain bisection's value and iteration
    count, with the errors either way round."""
    seen = []
    real_bracket = norm._bracket

    def bracket(mods, lo, hi, eps):
        seen.append(eps)
        return real_bracket(mods, lo, hi, eps)

    monkeypatch.setattr(norm, "_bracket", bracket)
    rng = np.random.default_rng(2410)
    for _ in range(400):
        n_left, n_in, n_right = (int(k) for k in rng.integers(0, 6, 3))
        n_right += n_left + n_right == 0  # at least one tail point
        n = n_left + n_in + n_right
        q_max = float(rng.uniform(1.0, Q_MAX))
        p = ExponentFunction(0, rng.uniform(1.0, q_max, n_in), float(rng.uniform(1.0, q_max)))
        v = rng.uniform(0.01, 1.0, n)
        a = Sequence(-n_left, v)
        luxemburg_norm(a, p)
        eps = seen[-1]
        pv = p.values_on(a.window)
        inner = np.zeros(n, dtype=bool)
        inner[n_left : n_left + n_in] = True
        pow_err = math.ceil(p.p_plus) + 2 * norm.POW_ULPS
        up_inner = _gamma(pow_err + norm._sum_chain(n_in) + 1)
        t_err = (1.0 + _gamma(pow_err + norm._sum_chain(n - n_in))) * (1.0 + _gamma(pow_err))
        up_tail = t_err * (1.0 + _gamma(2)) - 1.0
        assert max(up_inner, up_tail) <= eps, (n_left, n_in, n_right, p.p_plus)
        plain_eps = norm._rounding_bound(norm._sum_chain(n), p.p_plus)
        lo = float(v.max())
        hi = max(lo, float(v.sum()))
        for sign in (1.0, -1.0):

            def mods(lams, rows, sign=sign):
                ms, weighted = [], []
                for lam in lams:
                    t = np.power(v / lam, pv)
                    in_sum, tail_sum = float(t[inner].sum()), float(t[~inner].sum())
                    ms.append(in_sum * (1.0 + sign * up_inner) + tail_sum * (1.0 + sign * up_tail))
                    weighted.append(float(pv @ t))
                return ms, weighted

            def mod_at(lam, sign=sign):
                return float(np.power(v / lam, pv).sum()) * (1.0 - sign * plain_eps)

            (A,), (B,) = real_bracket(mods, [lo], [hi], eps)
            got = norm._bisect(mod_at, lo, hi, 1e-12, A, B)
            want = norm._bisect(mod_at, lo, hi, 1e-12, -math.inf, math.inf)
            assert (got.value, got.iterations) == (want.value, want.iterations), (v, p, sign)


def test_rounding_bound_covers_measured_error(monkeypatch):
    """|fl_m - m| <= eps m against the modular in 200-bit arithmetic, at
    the bisection's low end and at both ends of the certified bracket, for
    every row: on the batched evaluator with the batch's eps, and on the
    row's plain modular with the row's own eps. Rows come from single norms,
    with and without a tail outside the exponent window, and from grid
    batches."""
    mpmath.mp.prec = 200
    seen, _ = _spy_rows(monkeypatch)
    rng = np.random.default_rng(77)
    tail_rows = 0

    def check(row, exact_at, row_eps):
        for lam in (row["lo"], row["A"], row["B"]):
            exact = exact_at(lam)
            assert abs(mpmath.mpf(_issued(row, lam)) - exact) <= row["eps"] * exact
            assert abs(mpmath.mpf(row["mod_at"](lam)) - exact) <= row_eps * exact

    for n in (1, 5, 40, 300):
        for _ in range(4):
            v = _magnitudes(rng, n, 1)
            p = ExponentFunction(0, rng.uniform(1.0, Q_MAX, n), float(rng.uniform(1.0, Q_MAX)))
            a = Sequence(0, v)
            if a.is_zero():
                continue
            pv = [mpmath.mpf(float(x)) for x in p.values_on(a.window)]
            p_inf = mpmath.mpf(p.p_inf)
            # p's window covers a's window, its upper half, or none of it
            upper = ExponentFunction(n // 2, p.values[n // 2 :], p.p_inf)
            for lux_p in (p, upper, ExponentFunction.constant(p.p_inf)):
                luxemburg_norm(a, lux_p)
                if seen[-1]["hi"] <= seen[-1]["lo"]:
                    continue
                e_lux = [mpmath.mpf(float(x)) for x in lux_p.values_on(a.window)]

                def exact_lux(lam, e_lux=e_lux):
                    return sum(mpmath.mpf(float(x)) ** e / mpmath.mpf(lam) ** e for x, e in zip(v, e_lux))

                plain_eps = norm._rounding_bound(norm._sum_chain(n), lux_p.p_plus)
                check(seen[-1], exact_lux, plain_eps)
                tail_rows += seen[-1]["eps"] > plain_eps
            starts = range(0, n, max(1, n // 3))
            sets = [[ZInterval(j, n - 1), ZInterval(10**6, 10**6 + 2**51)] for j in starts]
            characteristic_norm(sets[0], p)
            single = seen[-1]
            characteristic_norms(sets, p)
            for j, row in [(0, single), *zip(starts, seen[-len(sets) :])]:

                def exact_ind(lam, j=j):
                    r = 1 / mpmath.mpf(lam)
                    return sum(r**e for e in pv[j:]) + (2**51 + 1) * r**p_inf

                check(row, exact_ind, norm._rounding_bound(max(n - j, 3), p.p_plus))
    assert tail_rows > 0


# The plain bisection evaluates the modular about 45 times per norm here;
# the certified path about 5.8 (at most 8). Summing the bracket's modular
# as N - 1 roundings brings a norm to 14, and a modular pass at each
# returned norm brings the mean to 6.8.
EVALUATIONS_PER_NORM_MEAN = 6.25
EVALUATIONS_PER_NORM_MAX = 10


def test_certified_path_evaluation_count(monkeypatch):
    """Modular evaluations per norm over strong_type and weak_type on the
    default verify corpus, counting a row's evaluations in its batched
    bracket and its bisection's plain passes; a fall-back to the plain loop
    would need about 45 per norm."""
    seen, _ = _spy_rows(monkeypatch)
    spec = CorpusSpec(20260814, 24, 48, "uniform01", "lh-decay", (0.0, 0.25, 0.5))
    for item in generate_corpus(spec):
        for alpha in spec.alpha_list:
            strong_type_ratio(item.a, item.p, alpha)
            weak_type_sup(item.a, item.p, alpha)
    calls = np.array([r["evals"] + r["passes"] for r in seen])
    plain = np.array([r["iterations"] + 1 for r in seen])
    assert plain.mean() > 40
    assert calls.mean() <= EVALUATIONS_PER_NORM_MEAN
    assert calls.max() <= EVALUATIONS_PER_NORM_MAX


# Plain modular passes per weak-type grid norm on the default verify corpus,
# on average: about 0.16 measured, and 1.16 with a modular pass at each
# returned norm.
GRID_PASSES_PER_NORM_MEAN = 0.5


def test_weak_type_grid_batches_its_brackets(monkeypatch):
    """Each weak_type_sup grid certifies the brackets of all its norms with
    one bracket of at most NEWTON_STEPS + 1 batched evaluator calls, and
    its bisections make at most 0.5 plain modular passes per norm on average;
    a bracket per norm would make about 6 evaluator calls per norm."""
    seen, calls = _spy_rows(monkeypatch)
    grids = []
    real = harness.characteristic_norms

    def spy(sets, p, rel_tol=1e-12):
        first_row, first_call = len(seen), len(calls)
        out = real(sets, p, rel_tol)
        grids.append((calls[first_call:], seen[first_row:]))
        return out

    monkeypatch.setattr(harness, "characteristic_norms", spy)
    spec = CorpusSpec(20260814, 24, 48, "uniform01", "lh-decay", (0.0, 0.25, 0.5))
    for item in generate_corpus(spec):
        for alpha in spec.alpha_list:
            weak_type_sup(item.a, item.p, alpha)
    assert len(grids) == spec.count * len(spec.alpha_list)
    passes = []
    for grid_calls, rows in grids:
        assert len(grid_calls) == 1 and grid_calls[0] <= norm.NEWTON_STEPS + 1
        assert 0 < len(rows) <= harness.WEAK_GRID_SIZE
        passes += [r["passes"] for r in rows]
    assert np.mean(passes) <= GRID_PASSES_PER_NORM_MEAN


def test_grid_batch_memory_is_bounded():
    """40 sets spanning a 2**18-point exponent window: the batched evaluator
    works in blocks of at most 2**20 floats, so the traced peak stays under
    64 MB, where one unblocked (40, 2**18) float temporary alone is 84 MB."""
    width = 2**18
    p = ExponentFunction(0, np.linspace(1.0, 3.0, width), 2.0)
    sets = [[ZInterval(0, 1000 * k), ZInterval(width - 1, width - 1)] for k in range(1, 41)]
    tracemalloc.start()
    try:
        characteristic_norms(sets, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@st.composite
def _one_set(draw, x):
    """Empty, one point, wholly outside any exponent window drawn near x,
    or 1..4 runs near x."""
    kind = draw(st.sampled_from(("empty", "point", "outside", "runs")))
    if kind == "empty":
        return []
    if kind == "point":
        y = x + draw(st.integers(-(2**12), 2**12))
        return [ZInterval(y, y)]
    if kind == "outside":
        return [ZInterval(-(2**40), -(2**40) + draw(st.integers(0, 2**20)))]
    runs, y = [], x + draw(st.integers(-(2**12), 2**12))
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 2**12))
        runs.append(ZInterval(y, y + length - 1))
        y += length + draw(st.integers(1, 2**12))
    return runs


@st.composite
def _grids(draw):
    """1..8 run sets: nested intervals around x, the shape of the weak-type
    grid, or independent sets from _one_set. Any set may also carry a far
    tail at 2**40 of up to 2**52 points. The exponent window may be empty
    (a constant exponent), miss the sets, or be far wider than a set's
    inner count."""
    x = draw(st.integers(-(2**12), 2**12))
    k = draw(st.integers(1, 8))
    if draw(st.booleans()):
        grow = sorted(draw(st.lists(st.integers(0, 2**12), min_size=k, max_size=k)))
        sets = [[ZInterval(x - g // 2, x + g - g // 2)] for g in grow]
    else:
        sets = [draw(_one_set(x)) for _ in range(k)]
    for runs in sets:
        if draw(st.booleans()):
            runs.append(ZInterval(2**40, 2**40 + draw(st.integers(0, 2**52))))
    return sets, draw(_exponents(x))


@_property
@given(_grids())
def test_characteristic_norms_bit_identical_to_each_plain_norm(inputs):
    sets, p = inputs
    want = [_bits(plain_characteristic_norm(runs, p)) for runs in sets]
    assert [_bits(nv) for nv in characteristic_norms(sets, p)] == want


@pytest.mark.parametrize("values", [[6e307, 6e307], [9e307, 8e307], [1e308, 5e307]])
def test_luxemburg_norm_near_float_max(values):
    """Where max|a| + sum|a| overflows, the midpoint 0.5 * lo + 0.5 * hi
    keeps the bisection finite: at p = 2 the norm is hypot(a) within
    rel_tol, with modular 1, and the plain bisection has the same bits."""
    a, p = Sequence(0, values), ExponentFunction.constant(2.0)
    got = luxemburg_norm(a, p)
    assert got.value == pytest.approx(math.hypot(*values), rel=1e-12)
    assert modular(a, p, got.value) == pytest.approx(1.0, rel=1e-11)
    assert got.value.hex() == plain_luxemburg_norm(a, p).value.hex()


def test_envelopes_near_float_max():
    """The strong-type ratio of a point mass reads the same at 2e307 as at
    1e300, and weak_type_sup of a mass at 1.7e308, whose top grid point's 9t
    overflows to an empty set, matches the unit mass's."""
    p = ExponentFunction.constant(2.0)
    ratio = strong_type_ratio(Sequence(0, [1e300]), p, 0.0)
    assert strong_type_ratio(Sequence(0, [2e307]), p, 0.0) == pytest.approx(ratio, rel=1e-12)
    sup, _ = weak_type_sup(Sequence(0, [1.7e308]), p, 0.0)
    assert sup == pytest.approx(weak_type_sup(Sequence(0, [1.0]), p, 0.0)[0], rel=1e-12)
