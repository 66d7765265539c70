"""The acceptance suite: one test per criterion the simulator and the
learner are held to as a whole (`pytest tests/test_acceptance.py -v`
prints a PASS line for each).

Final size: with everyone in one house under a lockdown that keeps every
agent home (no essential workers, no violators), all transmission happens
in one well-mixed place, and the share of each age band ever infected
obeys the multi-type final-size relation

    z_a = 1 - s0 * exp(-beta_a * sum_b pi_b * z_b * D_b)

whatever the dwell distributions (Kermack & McKendrick 1927; Ma & Earn
2006). Here s0 is the share not seeded, beta_a is beta_base times band a's
multiplier, pi_b = 0.1 is band b's share of the uniform ages, and D_b is
band b's expected infectious days under the tick sampler: Asymptomatic
with probability gamma_b, else PreSymptomatic plus InfectedMild plus
severe_prob times InfectedSevere. A stage sampled at X days lasts
max(1, rint(2X)) ticks of half a day.

The severe branch is off (`severe_prob` 1e-12, `sigma` 0): hospitalized
and deceased agents leave the house, which the relation does not model;
with the default bands the simulation was measured 0.007-0.011 above it
(ROADMAP.md item 2).

Baseline order: vaccinating everyone lowers the cumulative infections of
an unchecked epidemic, and a lockdown on top lowers them further, seed by
seed. Wall time: one paper-scale episode stays well inside a loose bound;
its real number is `perfbench/run.py --workload nolnov-100k`'s.

Learning: with a free lockdown and a scarce perfect vaccine
(`sanity_config`), training locks down from the start for most of the
episode.
"""

from __future__ import annotations

from dataclasses import replace

import time

import numpy as np
import pytest
from scipy import stats

from epidemictrl.ddpg import DdpgHyperParams, train
from epidemictrl.economy import EconomyConfig
from epidemictrl.env import EpidemicTask, ExperimentConfig, run_episode
from epidemictrl.epidemic import (
    DEFAULT_AGE_BANDS,
    TICK_DAYS,
    TIMED_COMPARTMENTS,
    Compartment,
    DiseaseParams,
    lognormal_underlying,
)
from epidemictrl.harness import baseline_schedule, experiment_config, scaled_doses
from epidemictrl.interventions import InterventionSchedule, VaccinationPolicyConfig, VaccineSpec
from epidemictrl.world import WorldConfig

POPULATION = 20_000
SEEDS = range(16)
DAYS = 300
SEEDED = 0.01
# Half the width of the acceptance band around the prediction, in
# standard errors of the mean over seeds.
TOLERANCE_SE = 4.0


def mean_stage_days(params: DiseaseParams, compartment: Compartment) -> float:
    """Expected days in a stage under the tick sampler, from the
    log-normal's distribution function: a draw X gives k >= 2 ticks for
    2X in [k - 1/2, k + 1/2) and 1 tick below 3/2."""
    mu, sigma = lognormal_underlying(*getattr(params.stage_durations, compartment.name.lower()))
    cdf = stats.lognorm(s=sigma, scale=np.exp(mu)).cdf
    k = np.arange(2, 20_000)
    ticks = cdf(0.75) + (k * (cdf((k + 0.5) / 2) - cdf((k - 0.5) / 2))).sum()
    return float(ticks * TICK_DAYS)


def predicted_attack_rate(params: DiseaseParams, seeded: float) -> float:
    """The population share ever infected by the final-size relation,
    solved by fixed-point iteration from full infection."""
    C = Compartment
    days = {c: mean_stage_days(params, c) for c in TIMED_COMPARTMENTS}
    gamma = np.array([b.asymptomatic_prob for b in params.age_bands])
    severe = np.array([b.severe_prob for b in params.age_bands])
    symptomatic = days[C.PRE_SYMPTOMATIC] + days[C.INFECTED_MILD]
    symptomatic = symptomatic + severe * days[C.INFECTED_SEVERE]
    infectious_days = gamma * days[C.ASYMPTOMATIC] + (1.0 - gamma) * symptomatic
    beta = params.beta_base * np.array([b.beta_multiplier for b in params.age_bands])
    share = np.full(10, 0.1)
    z = np.ones(10)
    for _ in range(10_000):
        z_next = 1.0 - (1.0 - seeded) * np.exp(-beta * (share * z * infectious_days).sum())
        if np.abs(z_next - z).max() < 1e-15:
            break
        z = z_next
    return float((share * z).sum())


def one_house_config(beta_base: float) -> ExperimentConfig:
    bands = tuple(replace(b, severe_prob=1e-12, sigma=0.0) for b in DEFAULT_AGE_BANDS)
    return ExperimentConfig(
        world=WorldConfig(
            population_size=POPULATION,
            household_size=POPULATION,
            essential_worker_fraction=0.0,
            violator_fraction=0.0,
            episode_days=DAYS,
        ),
        disease=DiseaseParams(beta_base=beta_base, age_bands=bands),
        vaccination=VaccinationPolicyConfig(specs=(VaccineSpec(0.8, 0), VaccineSpec(0.6, 0))),
        initial_infection_fraction=SEEDED,
    )


@pytest.mark.parametrize("beta_base, predicted", [(0.2, 0.6897), (0.15, 0.4526)])
def test_final_size_matches_the_multitype_relation(beta_base, predicted):
    config = one_house_config(beta_base)
    expected = predicted_attack_rate(config.disease, SEEDED)
    assert expected == pytest.approx(predicted, abs=1e-4)

    lockdown_only = InterventionSchedule((0.0, float(DAYS)), ((0.0, 0.0),) * 3)
    rates = []
    for seed in SEEDS:
        trace = run_episode(config, lockdown_only, seed)
        assert trace.doses.sum() == 0
        assert trace.hospitalized.max() == 0 and trace.deceased[-1] == 0
        rates.append(trace.ever_infected[-1] / POPULATION)
    rates = np.array(rates)
    se = rates.std(ddof=1) / np.sqrt(rates.size)
    assert abs(rates.mean() - expected) < TOLERANCE_SE * se, (rates.mean(), se, expected)


def test_baselines_order_cumulative_infections_seed_by_seed():
    config = experiment_config(1, 1, population=2_000)
    for seed in range(5):
        infected = [
            run_episode(config, baseline_schedule(name), seed).ever_infected[-1]
            for name in ("NoL_NoV", "NoL_FullV", "FullL_FullV")
        ]
        assert infected[0] > infected[1] > infected[2], (seed, infected)


def test_one_paper_scale_episode_runs_in_under_5_s():
    config = experiment_config(1, 1, population=100_000)
    start = time.perf_counter()
    run_episode(config, baseline_schedule("NoL_NoV"), seed=0)
    assert time.perf_counter() - start < 5.0


def sanity_config(population: int = 2_000, episode_days: int = 100) -> ExperimentConfig:
    """Degenerate check scenario: lockdown costs nothing economically and a
    perfect vaccine trickles out slowly, so a near-permanent lockdown
    dominates every other schedule.

    Nobody spends and the poverty line is 0, so savings never fall, nobody
    is ever below the line and the economy reward is 0 under any schedule.
    The reward is health alone, and the scarce perfect vaccine cannot
    substitute for the lockdown.
    """
    return ExperimentConfig(
        world=WorldConfig(population_size=population, episode_days=episode_days),
        economy=EconomyConfig(expense_per_person=0.0, poverty_line=0.0),
        vaccination=VaccinationPolicyConfig(
            specs=(
                VaccineSpec(1.0, scaled_doses(100, population)),
                VaccineSpec(1.0, scaled_doses(100, population)),
            )
        ),
        initial_infection_fraction=0.05,
        kappa=0.2,
    )


def test_sanity_scenario_learns_a_lockdown_from_day_one():
    # A free lockdown and a scarce perfect vaccine: the learner should lock
    # down from the start for most of the episode (about 10 s).
    result = train(EpidemicTask(sanity_config(), seed_base=0), DdpgHyperParams(seed=0))
    start, end = result.best_eval.schedule.lockdown
    assert start <= 1.0
    assert end - start >= 60.0
