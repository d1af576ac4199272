"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s or read the captured
output).  The same checks back the `chdp verify` CLI command.  A last test
checks that the criteria share one smooth reference run per model.
"""

from collections import Counter

import pytest

from chdp import verification
from chdp.connection import Model


@pytest.mark.parametrize("criterion_id,name",
                         [(cid, name) for cid, name, *_ in verification.CRITERIA],
                         ids=[cid for cid, *_ in verification.CRITERIA])
def test_acceptance(criterion_id, name):
    result = verification.run_criterion(criterion_id, seed=0)
    print(result.line())
    assert result.passed, result.line()


@pytest.fixture
def short_smooth_runs(monkeypatch):
    """The smooth reference runs cut to 100 steps, made afresh and not kept."""
    monkeypatch.setattr(verification, "SMOOTH_T_END", 0.01)
    verification._smooth_run.cache_clear()
    yield
    verification._smooth_run.cache_clear()


def test_one_smooth_integration_per_model(short_smooth_runs, monkeypatch):
    # C6, C7, C8 and C12 read the smooth runs; each model is integrated
    # once, by the flow map, and never by `evolve` on the smooth grid.
    calls = {"evolve": Counter(), "evolve_flowmap": Counter()}
    for name, counter in calls.items():
        def counted(config, initial, real=getattr(verification, name), counter=counter):
            counter[config.model, initial.grid.n, config.dt, config.t_end] += 1
            return real(config, initial)

        monkeypatch.setattr(verification, name, counted)
    for check in (verification.check_energy_conservation,
                  verification.check_momentum_conservation,
                  verification.check_lagrangian_consistency,
                  verification.check_blowup_detector):
        check(0)

    smooth = (verification.SMOOTH_N, verification.SMOOTH_DT, verification.SMOOTH_T_END)
    assert {model: count for (model, *run), count in calls["evolve_flowmap"].items()
            if tuple(run) == smooth} == {Model.CH2: 1, Model.DP: 1, Model.DP2: 1}
    assert all((n, dt) != (verification.SMOOTH_N, verification.SMOOTH_DT)
               for _, n, dt, _ in calls["evolve"])
