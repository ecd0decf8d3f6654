"""Validation gates: what the gates themselves exercise."""

from sicnet import montecarlo, validation


def test_determinism_gate_dispatches_several_blocks(monkeypatch):
    # thread invariance is only tested when trials span several blocks and
    # some of those runs use more than one thread
    dispatched = []
    map_blocks = montecarlo._map_blocks

    def spy(trials, worker, threads=1):
        n_blocks = -(-trials // montecarlo.BLOCK_TRIALS)
        dispatched.append((n_blocks, threads))
        return map_blocks(trials, worker, threads)

    monkeypatch.setattr(montecarlo, "_map_blocks", spy)
    results = validation.check_determinism(trials=2000, seed=909, threads=4)
    assert all(r.passed for r in results)
    assert max(n for n, _ in dispatched) > 1
    assert any(n > 1 and t > 1 for n, t in dispatched)
    assert "3 blocks" in results[0].name
