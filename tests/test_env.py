from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidemictrl.env import (
    EpidemicTask,
    EpisodeTrace,
    ExperimentConfig,
    economy_reward,
    health_reward,
    observation,
    run_episode,
    total_reward,
)
from epidemictrl.epidemic import Compartment
from epidemictrl.interventions import InterventionSchedule, VaccinationPolicyConfig, VaccineSpec
from epidemictrl.world import WorldConfig

from conftest import empty_schedule


def _trace(im, hosp, bpl=None):
    days = len(im) - 1
    comps = np.zeros((days + 1, 9), dtype=np.int64)
    comps[:, Compartment.INFECTED_MILD] = im
    comps[:, Compartment.HOSPITALIZED] = hosp
    comps[:, Compartment.SUSCEPTIBLE] = 1000 - comps.sum(axis=1)
    return EpisodeTrace(
        population=1000,
        compartments=comps,
        below_poverty=np.array(bpl if bpl is not None else [0] * (days + 1)),
        doses=np.zeros(days + 1, dtype=np.int64),
    )


def test_health_reward_zero_series():
    assert health_reward(_trace([0, 0, 0], [0, 0, 0])) == 0.0


def test_health_reward_max_plus_mean():
    trace = _trace([0, 10, 20], [0, 0, 10])
    assert health_reward(trace) == pytest.approx(-(30 + 40 / 3))
    assert health_reward(trace) == pytest.approx(-43.3333, abs=1e-3)


def test_health_reward_constant_series():
    trace = _trace([7, 7, 7, 7], [0, 0, 0, 0])
    assert health_reward(trace) == -14.0


def test_economy_reward_cases():
    assert economy_reward(_trace([0, 0], [0, 0], bpl=[0, 0])) == 0.0
    assert economy_reward(_trace([0, 0], [0, 0], bpl=[100, 100])) == -200.0
    assert economy_reward(_trace([0, 0, 0], [0, 0, 0], bpl=[0, 300, 0])) == -400.0


def test_total_reward_mixing():
    assert total_reward(-43.33, -200.0, 5.0) == pytest.approx(-1043.33)
    assert total_reward(-77.0, -5.0, 0.0) == -77.0
    assert total_reward(-10.0, -10.0, 1.0) == -20.0


def test_total_reward_linear_in_kappa():
    h, e = -12.5, -80.0
    k1, k2 = 0.7, 2.9
    r1 = total_reward(h, e, k1)
    r2 = total_reward(h, e, k2)
    mid = total_reward(h, e, (k1 + k2) / 2)
    assert mid == pytest.approx((r1 + r2) / 2)


def test_reward_weights_reject_negative():
    with pytest.raises(ValueError, match="kappa"):
        ExperimentConfig(kappa=-0.1)


@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=3, max_size=20),
    st.integers(min_value=0, max_value=18),
)
@settings(max_examples=50, deadline=None)
def test_health_reward_monotone_in_series(series, bump_at):
    # element-wise larger series never scores better
    bump_at = bump_at % len(series)
    worse = list(series)
    worse[bump_at] += 1
    zeros = [0] * len(series)
    assert health_reward(_trace(worse, zeros)) <= health_reward(
        _trace(series, zeros)
    )


def _tiny_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        world=WorldConfig(population_size=300, episode_days=20),
        initial_infection_fraction=0.1,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_zero_initial_infection_stays_clean():
    config = _tiny_config(initial_infection_fraction=0.0)
    trace = run_episode(config, empty_schedule(), seed=0)
    assert (trace.ever_infected == 0).all()
    assert (trace.deceased == 0).all()
    assert (trace.compartments[:, Compartment.SUSCEPTIBLE] == 300).all()


def test_trace_shape_and_conservation():
    config = _tiny_config()
    trace = run_episode(config, empty_schedule(), seed=1)
    assert trace.compartments.shape == (21, 9)
    assert trace.below_poverty.shape == (21,)
    assert (trace.compartments.sum(axis=1) == 300).all()


def test_trace_monotonicity():
    config = _tiny_config(world=WorldConfig(population_size=500, episode_days=40))
    trace = run_episode(config, empty_schedule(), seed=2)
    assert (np.diff(trace.susceptible) <= 0).all()
    assert (np.diff(trace.deceased) >= 0).all()
    assert (np.diff(trace.ever_infected) >= 0).all()


def test_run_episode_bit_identical():
    config = _tiny_config()
    sched = InterventionSchedule((2.0, 9.0), ((0.0, 20.0), (0.0, 0.0), (5.0, 15.0)))
    a = run_episode(config, sched, seed=9)
    b = run_episode(config, sched, seed=9)
    assert np.array_equal(a.compartments, b.compartments)
    assert np.array_equal(a.below_poverty, b.below_poverty)
    assert np.array_equal(a.doses, b.doses)


def test_run_episode_rejects_overlong_window():
    config = _tiny_config()
    sched = InterventionSchedule((0.0, 50.0), ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError):
        run_episode(config, sched, seed=0)


def test_initial_infection_count_matches_fraction():
    config = _tiny_config(initial_infection_fraction=0.15)
    trace = run_episode(config, empty_schedule(), seed=3)
    assert trace.compartments[0, Compartment.EXPOSED] == 45  # 15% of 300


def test_observation_vector_contents():
    config = ExperimentConfig(
        world=WorldConfig(population_size=100_000),
        vaccination=VaccinationPolicyConfig(
            specs=(VaccineSpec(0.8, 450), VaccineSpec(0.6, 450))
        ),
        initial_infection_fraction=0.15,
        kappa=5.0,
    )
    obs = observation(config)
    assert obs == pytest.approx([0.15, 0.8, 0.0045, 0.6, 0.0045, 1.0])
    assert (obs >= 0).all() and (obs <= 1).all()


def test_task_reward_is_scaled_episode_reward():
    config = _tiny_config()
    task = EpidemicTask(config, seed_base=0)
    action = np.full(8, -1.0)
    got = task.rollout(action, seed=8)
    trace = run_episode(config, empty_schedule(), seed=8)
    want = total_reward(health_reward(trace), economy_reward(trace), config.kappa)
    assert got == pytest.approx(want / 300)


def test_full_lockdown_matches_household_only_oracle():
    """Containment check: with no essential workers or violators, a full
    lockdown must reproduce household-only mixing.

    The oracle is an independent brute-force simulation of 50 agents that
    only ever mixes housemates, written against the same transition rules.
    Means over many seeds must agree (the lockdown run can only be lower;
    hospital isolation is mirrored in the oracle by making hospitalized
    cases non-infectious at home).
    """
    population, runs = 50, 300
    config = ExperimentConfig(
        world=WorldConfig(
            population_size=population,
            episode_days=50,
            essential_worker_fraction=0.0,
            violator_fraction=0.0,
        ),
        initial_infection_fraction=0.1,
    )
    full_lockdown = InterventionSchedule(
        (0.0, 50.0), ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
    )
    sim_totals = [
        run_episode(config, full_lockdown, seed=s).ever_infected[-1]
        for s in range(runs)
    ]

    oracle_totals = [_household_oracle(population, 50, seed=s) for s in range(runs)]
    sim_mean = np.mean(sim_totals)
    oracle_mean = np.mean(oracle_totals)
    se = np.std(oracle_totals) / np.sqrt(runs) + np.std(sim_totals) / np.sqrt(runs)
    assert sim_mean <= oracle_mean + 3 * se


def _household_oracle(population: int, days: int, seed: int) -> int:
    """Brute-force per-household epidemic, agents as plain dicts."""
    from epidemictrl.epidemic import (
        DEFAULT_AGE_BANDS,
        StageDurations,
        lognormal_underlying,
    )
    import math as m

    g = np.random.default_rng(seed + 77_000)
    ages = g.integers(0, 100, population)
    houses = [list(range(h * 4, min(h * 4 + 4, population))) for h in range((population + 3) // 4)]
    S, E, A, P, IM, IS, H, R, D = range(9)
    state = [S] * population
    timer = [0] * population
    ever = 0

    def draw_ticks(stage_key):
        mu, sg = lognormal_underlying(*getattr(StageDurations(), stage_key.name.lower()))
        return max(1, round(2 * g.lognormal(mu, sg)))

    from epidemictrl.epidemic import Compartment as C

    stage_keys = {
        E: C.EXPOSED,
        A: C.ASYMPTOMATIC,
        P: C.PRE_SYMPTOMATIC,
        IM: C.INFECTED_MILD,
        IS: C.INFECTED_SEVERE,
        H: C.HOSPITALIZED,
    }

    seeds = g.choice(population, size=round(0.1 * population), replace=False)
    for i in seeds:
        state[i] = E
        timer[i] = draw_ticks(C.EXPOSED)
        ever += 1

    infectious = {A, P, IM, IS}
    for tick in range(2 * days):
        # exposure within households only
        new = []
        for members in houses:
            occupants = [i for i in members if state[i] != D]
            if not occupants:
                continue
            weight = sum(1.0 for i in occupants if state[i] in infectious)
            if weight == 0:
                continue
            for i in occupants:
                if state[i] != S:
                    continue
                band = DEFAULT_AGE_BANDS[ages[i] // 10]
                lam = 0.5 * band.beta_multiplier * (weight / len(occupants)) * 0.5
                if g.random() < -m.expm1(-lam):
                    new.append(i)
        for i in new:
            state[i] = E
            timer[i] = draw_ticks(C.EXPOSED)
            ever += 1
        # progression
        for i in range(population):
            if state[i] in stage_keys:
                timer[i] -= 1
                if timer[i] > 0:
                    continue
                band = DEFAULT_AGE_BANDS[ages[i] // 10]
                if state[i] == E:
                    if g.random() < band.asymptomatic_prob:
                        state[i] = A
                        timer[i] = draw_ticks(C.ASYMPTOMATIC)
                    else:
                        state[i] = P
                        timer[i] = draw_ticks(C.PRE_SYMPTOMATIC)
                elif state[i] == A:
                    state[i] = R
                elif state[i] == P:
                    state[i] = IM
                    timer[i] = draw_ticks(C.INFECTED_MILD)
                elif state[i] == IM:
                    if g.random() < band.severe_prob:
                        state[i] = IS
                        timer[i] = draw_ticks(C.INFECTED_SEVERE)
                    else:
                        state[i] = R
                elif state[i] == IS:
                    state[i] = H
                    timer[i] = draw_ticks(C.HOSPITALIZED)
                elif state[i] == H:
                    if g.random() < band.death_given_hospitalized:
                        state[i] = D
                    else:
                        state[i] = R
    return ever
