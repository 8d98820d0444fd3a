"""Mutation table: which default checks catch which named library mutant.

Each row rebinds one formula that carries a theorem, in every varseq module
that holds it, and runs the default checks on a small corpus that passes
unmutated. A caught row names the checks that must fail (names, not counts,
so the table holds under both numpy pows). The uncaught rows are asserted as
a list, so a new gap or a closed one shows up as a diff.
"""

import dataclasses

import pytest

from conftest import rebind_everywhere
from varseq import czd, harness, norm
from varseq.czd import _DyadicTable
from varseq.exponent import fractional_conjugate
from varseq.harness import CorpusSpec, run_verification_suite, strong_type_ratio, weak_type_sup
from varseq.maximal import MaximalEvaluator

SPEC = CorpusSpec(20260814, 8, 48, "uniform01", "lh-decay", (0.0, 0.25, 0.5))


def _failing_checks() -> set[str]:
    return {r.check_name for r in run_verification_suite(SPEC, 0.05) if r.failures}


def _rebind(monkeypatch, real, fake) -> None:
    assert rebind_everywhere(monkeypatch, real, fake)


def _point_off(m):
    real = MaximalEvaluator.point
    m.setattr(MaximalEvaluator, "point", lambda self, n: real(self, n) * (1 + 1e-9))


def _norm_high(m):
    real = norm.luxemburg_norm

    def fake(a, p, rel_tol=1e-12):
        nv = real(a, p, rel_tol)
        return dataclasses.replace(nv, value=nv.value * 1.001)

    _rebind(m, real, fake)


def _modular_high(m):
    real = norm.modular
    _rebind(m, real, lambda a, p, lam=1.0: real(a, p, lam) * 1.001)


def _average_bound_low(m):
    real = czd.selected_average_bound
    _rebind(m, real, lambda alpha, t: real(alpha, t) * 0.9)


def _cut_at_half(m):
    real = _DyadicTable.decompose
    m.setattr(_DyadicTable, "decompose", lambda self, t: real(self, 0.5 * t))


def _dilation(factor):
    return lambda m: m.setattr(czd, "COVERING_DILATION", factor)


def _conjugate_ignores_alpha(m):
    _rebind(m, fractional_conjugate, lambda p, alpha: fractional_conjugate(p, 0.0))


def _strong_type_high(m):
    _rebind(m, strong_type_ratio, lambda a, p, alpha: 10.0 * strong_type_ratio(a, p, alpha))


def _weak_type_high(m):
    def fake(a, p, alpha):
        value, t = weak_type_sup(a, p, alpha)
        return 10.0 * value, t

    _rebind(m, weak_type_sup, fake)


def _covering_factor_8(m):
    for module in (czd, harness):
        m.setattr(module, "COVERING_FACTOR", 8.0)


CAUGHT = {
    "MaximalEvaluator.point x (1 + 1e-9)": (_point_off, {"maximal_consistency"}),
    "luxemburg_norm value x 1.001": (_norm_high, {"norm_modular"}),
    "norm.modular x 1.001": (_modular_high, {"norm_modular"}),
    "selected_average_bound x 0.9": (_average_bound_low, {"cz_structure", "covering"}),
    "_DyadicTable.decompose cutting at t/2": (_cut_at_half, {"cz_structure"}),
}

UNCAUGHT = {
    "fractional_conjugate ignoring alpha": _conjugate_ignores_alpha,
    "strong_type_ratio x 10": _strong_type_high,
    "weak_type_sup value x 10": _weak_type_high,
    "COVERING_DILATION 2 -> 3": _dilation(3),
    "COVERING_FACTOR 9 -> 8": _covering_factor_8,
}


def test_unmutated_corpus_passes():
    assert _failing_checks() == set()


@pytest.mark.parametrize("mutant", CAUGHT)
def test_checks_catch_mutant(monkeypatch, mutant):
    mutate, failing = CAUGHT[mutant]
    mutate(monkeypatch)
    assert _failing_checks() == failing


def test_undoubled_covering_raises(monkeypatch):
    """Without the doubling, a level-set shell escapes its covering intervals,
    which level_set_partition reports as a broken invariant."""
    _dilation(1)(monkeypatch)
    with pytest.raises(RuntimeError, match="shell escaped the doubled covering intervals"):
        run_verification_suite(SPEC, 0.05)


def test_uncaught_mutants(monkeypatch):
    """The mutants no default check catches (ROADMAP item 5): the envelope
    checks pass any finite non-negative number, and nothing checks the
    conjugate, the dilation beyond two or the covering factor."""
    uncaught = []
    for mutant, mutate in UNCAUGHT.items():
        with monkeypatch.context() as m:
            mutate(m)
            if not _failing_checks():
                uncaught.append(mutant)
    assert uncaught == list(UNCAUGHT)
