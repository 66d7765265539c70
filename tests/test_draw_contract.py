"""The engine's random-draw contract against the earlier one, as distributions.

The engine draws only what it uses: an exposure uniform only for a
susceptible in a place with an infectious occupant, and a vaccination
sample only as long as the day's doses. The earlier contract
(`reference_draws.py`) draws more and throws the surplus away. Both sample
the same model, so only the mapping from seed to trace differs. Whole
episodes under each contract, on one shared seed bank (so populations,
seeded infections and economies match), must agree in distribution: a
two-sample Kolmogorov-Smirnov test on each outcome may not reject at 1%.

The reference is the earlier contract bit for bit: swapped into the
engine, it reproduces the trace digests pinned before the change.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import ks_2samp

import reference_draws
from epidemictrl import env
from epidemictrl.harness import baseline_schedule, experiment_config
from test_golden import trace_digest

POPULATION = 500
SEEDS = range(60)

# `test_golden.TRACE_GOLDEN` entries as pinned under the earlier contract.
EARLIER_TRACE_GOLDEN = {
    (1, "NoL_NoV", 0): "b736e56287b0d17c4c55beaa8a62a04f9c66d95c5136a1c6a2eb42af4c158324",
    (1, "NoL_FullV", 0): "287fc6b4495ec8e3ce81166fd9d1ef717488af9aa4c0dec8af7404c01f87161f",
    (2, "FullL_FullV", 0): "b93b3b43bd25c0d515f687cade1a7f4ddb2e1773c50a6c055a2c5272390dc8e6",
}


def use_earlier_contract(monkeypatch):
    monkeypatch.setattr(env, "exposure_step", reference_draws.exposure_step_drawing_all)
    monkeypatch.setattr(
        env, "vaccination_day_step", reference_draws.vaccination_day_step_shuffling
    )


def outcomes(config, schedule):
    rows = []
    for seed in SEEDS:
        trace = env.run_episode(config, schedule, seed)
        rows.append(
            (
                trace.ever_infected[-1],
                trace.deceased[-1],
                (trace.infected_mild + trace.hospitalized).max(),
                trace.doses.sum(),
            )
        )
    return np.array(rows).T


@pytest.mark.parametrize("baseline", ["NoL_NoV", "NoL_FullV"])
def test_episode_outcomes_match_the_earlier_draw_contract(monkeypatch, baseline):
    config = experiment_config(1, 1, population=POPULATION)
    schedule = baseline_schedule(baseline, config.world.episode_days)
    engine = outcomes(config, schedule)
    use_earlier_contract(monkeypatch)
    earlier = outcomes(config, schedule)

    assert not np.array_equal(engine, earlier)  # the traces do differ
    names = ("ever infected", "deaths", "peak mild + hospitalized", "doses")
    for name, new, old in zip(names, engine, earlier):
        assert ks_2samp(new, old).pvalue > 0.01, name


@pytest.mark.parametrize("experiment, baseline, seed", sorted(EARLIER_TRACE_GOLDEN))
def test_reference_reproduces_the_earlier_pins(monkeypatch, experiment, baseline, seed):
    use_earlier_contract(monkeypatch)
    config = experiment_config(experiment, 1, population=2_000)
    schedule = baseline_schedule(baseline, config.world.episode_days)
    trace = env.run_episode(config, schedule, seed)
    assert trace_digest(trace) == EARLIER_TRACE_GOLDEN[experiment, baseline, seed]
