"""Exponent functions, conjugates, and decay-constant equivalences."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WINDOW_PLACEMENTS, placed_window, plain_values_on
from varseq.exponent import (
    ExponentFunction,
    check_lh_equivalences,
    conjugate,
    fractional_conjugate,
    lh_infinity_constant,
)
from varseq.harness import CorpusSpec, generate_corpus
from varseq.lattice import ZInterval, cardinality


def test_validation():
    with pytest.raises(ValueError):
        ExponentFunction(0, [0.9, 2.0], 2.0)
    with pytest.raises(ValueError):
        ExponentFunction(0, [2.0], 0.5)
    with pytest.raises(ValueError):
        ExponentFunction(0, [np.nan], 2.0)


def test_evaluate_and_bounds():
    p = ExponentFunction(-1, [1.5, 3.0, 2.0], 2.5)
    assert p.evaluate(-1) == 1.5 and p.evaluate(1) == 2.0
    assert p.evaluate(100) == 2.5 and p.evaluate(-100) == 2.5
    assert p.p_minus == 1.5 and p.p_plus == 3.0
    assert p.window == ZInterval(-1, 1)
    assert list(p.values_on(ZInterval(-2, 2))) == [2.5, 1.5, 3.0, 2.0, 2.5]


def test_constant_exponent():
    p = ExponentFunction.constant(2.0)
    assert p.p_minus == p.p_plus == 2.0
    assert p.window is None
    assert lh_infinity_constant(p).value == 0.0
    assert lh_infinity_constant(p).witness is None


def test_lh_constant_single_bump_at_origin():
    # gap 1 at n = 0 costs exactly log(e) = 1
    p = ExponentFunction(0, [3.0], 2.0)
    c = lh_infinity_constant(p)
    assert c.value == pytest.approx(1.0, abs=1e-15)
    assert c.witness == 0


def test_lh_constant_picks_worst_index():
    # same gap further out is more expensive by the log weight
    p = ExponentFunction(0, [3.0, 2.0, 2.0, 2.0, 3.0], 2.0)
    c = lh_infinity_constant(p)
    assert c.witness == 4
    assert c.value == pytest.approx(float(np.log(np.e + 4.0)), rel=1e-15)


def test_conjugate_involution_and_identity():
    rng_vals = 1.2 + np.abs(np.sin(np.arange(30)))
    p = ExponentFunction(-10, rng_vals, 1.7)
    q = conjugate(p)
    # 1/p + 1/q = 1 pointwise, and conjugation is an involution
    for n in range(-15, 15):
        assert 1.0 / p.evaluate(n) + 1.0 / q.evaluate(n) == pytest.approx(1.0, abs=1e-12)
    back = conjugate(q)
    assert np.allclose(back.values, p.values, rtol=1e-12)
    assert back.p_inf == pytest.approx(p.p_inf, rel=1e-12)
    with pytest.raises(ValueError):
        conjugate(ExponentFunction(0, [1.0, 2.0], 2.0))


def test_fractional_conjugate():
    p = ExponentFunction(0, [2.0, 3.0], 2.0)
    q = fractional_conjugate(p, 0.25)
    # 1/q = 1/p - alpha pointwise
    for n in (-1, 0, 1, 2):
        assert 1.0 / q.evaluate(n) == pytest.approx(1.0 / p.evaluate(n) - 0.25, abs=1e-14)
    assert fractional_conjugate(p, 0.0) is p
    # classical example: p = 2, alpha = 1/4 gives q = 4
    assert fractional_conjugate(ExponentFunction.constant(2.0), 0.25).p_inf == pytest.approx(4.0)
    with pytest.raises(ValueError):
        fractional_conjugate(ExponentFunction.constant(4.0), 0.25)
    with pytest.raises(ValueError):
        fractional_conjugate(p, 1.0)


def test_lh_equivalences_on_corpus():
    spec = CorpusSpec(
        seed=4242,
        count=60,
        window_width=40,
        value_law="uniform01",
        exponent_law="lh-decay",
        alpha_list=(0.0, 0.25),
    )
    for law in ("lh-decay", "bump", "random-range", "constant"):
        for item in generate_corpus(replace(spec, exponent_law=law)):
            rep = check_lh_equivalences(item.p)
            assert rep.ok, (law, rep)
            assert rep.identity_gap <= 1e-12
            assert rep.c_recip_p <= rep.lower_bound + 1e-12
            assert rep.c_p <= rep.upper_bound + 1e-12


def test_map_values_preserves_window():
    p = ExponentFunction(5, [2.0, 4.0], 3.0)
    r = p.map_values(lambda v: v + 1.0)
    assert r.window_lo == 5 and list(r.values) == [3.0, 5.0] and r.p_inf == 4.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-50, 50),
    st.integers(0, 12),
    st.sampled_from(WINDOW_PLACEMENTS),
    st.integers(1, 30),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
)
def test_values_on_by_slices_matches_mask_oracle(wlo, size, where, gap, width, seed):
    """values_on copies the overlap of the interval and the window as one
    slice: the same floats as reading every point through a mask, for each
    placement of the interval against the window, and for constant
    exponents, whose window is empty."""
    rng = np.random.default_rng(seed)
    p_inf = 1.0 + 7.0 * float(rng.random())
    if size:
        p = ExponentFunction(wlo, 1.0 + 7.0 * rng.random(size), p_inf)
    else:
        p = ExponentFunction.constant(p_inf)
    anchor = p.window or ZInterval(wlo, wlo)
    interval = placed_window(anchor.lo, anchor.hi, where, gap, width)
    got = p.values_on(interval)
    assert got.size == cardinality(interval)
    assert got.tobytes() == plain_values_on(p, interval).tobytes()
