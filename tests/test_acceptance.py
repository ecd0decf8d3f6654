"""Acceptance gates, one test per numbered criterion, at full stated budgets.

Each test prints one line per sub-check (PASS/FAIL with the measured value
against its tolerance) and asserts that every sub-check holds.  Criteria
2, 3, 5, 6 and 7 read the rows of the fig2..fig6 presets, run at the
criterion's seed and budget, so they check exactly what the presets
publish; criterion 3's independent-stage chain is the one oracle that no
preset runs, so its gate simulates it.  Every
closed form is checked against an oracle of the event it documents; where
that event approximates the physical one, the model error is gated in its
documented direction and printed:

  * criterion 2: at thresholds >= 0 dB the fading-ordered n = 1 estimate
    is gated at 3 stderr against the exact strongest-node law
    eta^(-1/2) 2/pi (alpha = 4), which lies 0.0765 above the
    distance-ordering closed form at 0 dB; n = 2..8 at 0 dB keep the 0.05
    allowance and n = 1..8 at 10 dB the 0.01 allowance;
  * criterion 3: the whole-chain closed form composes per-stage laws as
    independent factors with a deterministic cancellation radius and an
    un-renormalized serving distance; it is gated at 3 stderr against an
    event chain that draws every stage from its own scene, and must lie at
    or below the faithful chain (+3 stderr), which sits 0.04-0.20 above it
    for N >= 1 and agrees at N = 0 (3 stderr + 0.02);
  * criterion 4: the load PMF is the size-biased (user-anchored) cell law
    NB(4.5, 3.5/(3.5 + mu_j/lambda)), whose mean is (9/7) mu_j/lambda;
  * criterion 7: the cancelled REA closed form clears every AP in the
    unbiased-exclusion annulus; it is gated at 3 stderr against the fig6
    preset's annulus-clearing column on the full grid, while its
    one-cancellation column, on the same draws, must lie at or below it
    (+3 stderr), up to ~0.03 below at b = 10 and low thresholds.
"""

import pytest

from sicnet import validation


pytestmark = pytest.mark.acceptance


def _run(check, **kwargs):
    results = check(**kwargs)
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    assert not failures, "\n".join(r.line() for r in failures)


def test_criterion_01_numerics_gate():
    _run(validation.check_numerics)


def test_criterion_02_cancellation_curves():
    _run(validation.check_fig2, trials=100_000, seed=202)


def test_criterion_03_sic_chain_curves():
    _run(validation.check_fig3, trials=100_000, seed=303)


def test_criterion_04_load_model():
    _run(validation.check_load_model, trials=100_000, seed=404)


def test_criterion_05_min_load_rate_coverage():
    _run(validation.check_fig4, trials=20_000, seed=505)


def test_criterion_06_max_instantaneous_sir():
    _run(validation.check_fig5, trials=20_000, seed=606)


def test_criterion_07_range_expansion():
    _run(validation.check_fig6, trials=100_000, seed=707)


def test_criterion_08_density_scale_invariance():
    _run(validation.check_scale_invariance, trials=100_000, seed=808)


def test_criterion_09_determinism():
    _run(validation.check_determinism, trials=2000, seed=909, threads=4)


def test_criterion_10_kurtosis_formula():
    _run(validation.check_kurtosis)
