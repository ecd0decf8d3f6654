"""Validation gates: what the gates themselves exercise."""

import math

import pytest

from sicnet import montecarlo, validation

# the checks each figure gate reports, as at its full acceptance budget
FIGURE_CHECKS = {
    "check_fig2": [
        "distance-ordered MC vs closed form (|z|, n=1..8)",
        "fading-ordered MC at n=1 vs exact strongest-node law (|z|)",
        "exact n=1 law minus closed form at 0 dB (diagnostic, ungated)",
        "fading-ordered MC vs closed form at 0 dB, n=2..8",
        "fading-ordered MC vs closed form at 10 dB, n=1..8",
        "PGFL vs TSD at n=1 (absolute)",
        "PGFL vs TSD for n<=5 (0.01 abs + 10% rel envelope)",
        "runtime [s]",
    ],
    "check_fig3": [
        "analytic vs independent-stage chain MC (|z|, full grid)",
        "analytic vs event-chain MC at N=0 (3 stderr + 0.02)",
        "analytic at or below event-chain MC for N>=1 (+3 stderr)",
        "monotone nondecreasing in N (analytic and MC)",
        "diminishing first increment at eta >= 0 dB (analytic)",
        "all increments < 0.02 at eta >= 2 dB (analytic)",
        "runtime [s]",
    ],
    "check_fig4": [
        "min-load (no SIC) below max-SIR at every rho",
        "SIC uplift at median rho=0.50",
        "analytic min-load vs MC (3 stderr + 0.03)",
        "runtime [s]",
    ],
    "check_fig5": [
        "no-SIC success law vs MC (|z|, eta >= 0 dB)",
        "shared-field MC deviation (diagnostic, ungated)",
        "SIC uplift positive for N=1..3 at every eta in [0,10] dB",
        "peak SIC uplift within [0.05, 0.25]",
        "runtime [s]",
    ],
    "check_fig6": [
        "uncancelled closed form vs REA MC (3 stderr)",
        "cancelled closed form vs annulus-cancel MC (3 stderr)",
        "one-cancellation MC at or below cancelled closed form (+3 stderr)",
        "success decreases with bias (both curves)",
        "closed form decreases with bias (both curves)",
        "cancelled curve above uncancelled everywhere",
        "runtime [s]",
    ],
}


@pytest.mark.parametrize("check", sorted(FIGURE_CHECKS))
def test_figure_gate_reads_its_preset(check):
    # at the presets' smallest budget, so that a renamed preset column fails
    # here in seconds; whether the gates pass is the acceptance suite's task
    results = getattr(validation, check)(trials=1000, threads=2)
    assert [r.name for r in results] == FIGURE_CHECKS[check]
    assert all(math.isfinite(r.measured) for r in results)


def test_determinism_gate_dispatches_several_blocks(monkeypatch):
    # thread invariance is only tested when trials span several blocks and
    # some of those runs use more than one thread
    dispatched = []
    run_blocks = montecarlo._run_blocks

    def spy(trials, seed, block, threads=1):
        n_blocks = -(-trials // montecarlo.BLOCK_TRIALS)
        dispatched.append((n_blocks, threads))
        return run_blocks(trials, seed, block, threads)

    monkeypatch.setattr(montecarlo, "_run_blocks", spy)
    results = validation.check_determinism(trials=2000, seed=909, threads=4)
    assert all(r.passed for r in results)
    assert max(n for n, _ in dispatched) > 1
    assert any(n > 1 and t > 1 for n, t in dispatched)
    assert "3 blocks" in results[0].name
