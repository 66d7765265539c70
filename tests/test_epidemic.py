from __future__ import annotations

import copy
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from epidemictrl.epidemic import (
    DEFAULT_AGE_BANDS,
    AgeBandRates,
    Compartment,
    DEFAULT_STAGE_DURATIONS,
    DiseaseParams,
    TIMED_COMPARTMENTS,
    VACCINATED_SOURCE_WEIGHT,
    agent_transmissibility,
    duration_days,
    exposure_step,
    lognormal_underlying,
    progression_step,
    sample_duration_ticks,
    seed_initial_infections,
)
from epidemictrl import env
from epidemictrl.env import run_episode
from epidemictrl.harness import baseline_schedule, experiment_config, parse_baseline
from epidemictrl.interventions import InterventionSchedule, vaccination_day_step
from epidemictrl.world import apply_movement

from conftest import house_id, make_world, move_to, occupant_counts, rng
from reference_draws import (
    _effective_asymptomatic_prob,
    exposure_step_drawing_all,
    infection_probability,
)

# The published transition-factor table, one row per decade:
# (beta multiplier, symptomatic prob, severe prob, death weight sigma).
EXPECTED_AGE_TABLE = [
    (0.34, 0.50, 0.00050, 0.00002),
    (0.67, 0.55, 0.00165, 0.00002),
    (1.00, 0.60, 0.00720, 0.00010),
    (1.00, 0.65, 0.02080, 0.00032),
    (1.00, 0.70, 0.03430, 0.00098),
    (1.00, 0.75, 0.07650, 0.00265),
    (1.00, 0.80, 0.13280, 0.00766),
    (1.24, 0.85, 0.20655, 0.02439),
    (1.47, 0.90, 0.24570, 0.08292),
    (1.47, 0.90, 0.24570, 0.16190),
]


def age_band_params(age: int):
    """The default table's rate row for an age in 0-99."""
    if not 0 <= age <= 99:
        raise ValueError(f"age {age} outside 0-99")
    return DEFAULT_AGE_BANDS[age // 10]


def test_age_band_table_exact():
    for decade, expected in enumerate(EXPECTED_AGE_TABLE):
        for age in (decade * 10, decade * 10 + 9):
            band = age_band_params(age)
            got = (
                band.beta_multiplier,
                band.symptomatic_prob,
                band.severe_prob,
                band.sigma,
            )
            assert got == expected, age
    # the per-band arrays the engine indexes by age // 10
    params = DiseaseParams()
    table = np.array(EXPECTED_AGE_TABLE)
    assert np.array_equal(params.band_beta_multiplier, table[:, 0])
    assert np.array_equal(params.band_asymptomatic_prob, 1.0 - table[:, 1])
    assert np.array_equal(params.band_severe_prob, table[:, 2])


@pytest.mark.parametrize(
    "params",
    [
        DiseaseParams(),
        # a band whose boosted share saturates at 1
        DiseaseParams(age_bands=(AgeBandRates(0.34, 0.3, 0.0005, 0.0001),) + DEFAULT_AGE_BANDS[1:]),
    ],
)
def test_per_age_branch_tables_spread_the_bands(params):
    ages = np.arange(100)
    band = ages // 10
    assert np.array_equal(
        params.age_death_given_hospitalized, params.band_death_given_hospitalized[band]
    )
    assert np.array_equal(params.age_severe_prob, params.band_severe_prob[band])
    # every age, vaccinated and not, against the oracle, bit for bit
    for vaccinated in (False, True):
        expected = _effective_asymptomatic_prob(
            params.band_asymptomatic_prob[band], np.full(100, vaccinated)
        )
        assert np.array_equal(params.age_asymptomatic_prob[int(vaccinated)], expected)
        key = ages + 100 * vaccinated
        assert np.array_equal(params.age_asymptomatic_prob.take(key), expected)
    assert params.age_asymptomatic_prob.shape == (2, 100)
    assert params.age_asymptomatic_prob.max() <= 1.0


def test_age_band_examples():
    assert age_band_params(25) == age_band_params(20)
    b = age_band_params(25)
    assert (b.beta_multiplier, b.symptomatic_prob, b.severe_prob, b.sigma) == (
        1.0,
        0.6,
        0.0072,
        0.0001,
    )
    b = age_band_params(85)
    assert (b.beta_multiplier, b.symptomatic_prob, b.severe_prob, b.sigma) == (
        1.47,
        0.9,
        0.2457,
        0.08292,
    )
    b = age_band_params(0)
    assert (b.beta_multiplier, b.symptomatic_prob, b.severe_prob, b.sigma) == (
        0.34,
        0.5,
        0.0005,
        0.00002,
    )


def test_age_band_rejects_out_of_range():
    with pytest.raises(ValueError):
        age_band_params(100)
    with pytest.raises(ValueError):
        age_band_params(-1)


def test_lognormal_moment_conversion_closed_form():
    mu, sigma = lognormal_underlying(4.5, 1.5)
    assert mu == pytest.approx(1.4514, abs=1e-4)
    assert sigma == pytest.approx(0.3246, abs=1e-4)
    # verify against a Monte-Carlo of the converted distribution
    draws = rng(0).lognormal(mu, sigma, size=1_000_000)
    assert draws.mean() == pytest.approx(4.5, rel=5e-3)
    assert draws.std() == pytest.approx(1.5, rel=2e-2)


def test_degenerate_sd_gives_constant_duration():
    params = DiseaseParams(
        stage_durations={**DEFAULT_STAGE_DURATIONS, Compartment.EXPOSED: (3.0, 0.0)}
    )
    ticks = sample_duration_ticks(Compartment.EXPOSED, rng(0), size=100, params=params)
    assert (ticks == 6).all()


def test_hospitalized_duration_mean_in_days():
    # tick-quantized sampler keeps the published 18.1-day mean
    ticks = sample_duration_ticks(
        Compartment.HOSPITALIZED, rng(1), size=1_000_000, params=DiseaseParams()
    )
    days = ticks / 2.0
    assert 17.9 <= days.mean() <= 18.3


def test_duration_always_at_least_one_tick():
    ticks = sample_duration_ticks(
        Compartment.INFECTED_SEVERE, rng(2), size=100_000, params=DiseaseParams()
    )
    assert ticks.min() >= 1


def test_infection_probability_formula():
    p = float(infection_probability(0.5, 10, 100))
    assert p == pytest.approx(1.0 - math.exp(-0.025))
    assert p == pytest.approx(0.02469, abs=1e-5)


def test_infection_probability_zero_weight():
    assert float(infection_probability(0.5, 0, 50)) == 0.0


def test_vaccinated_young_beta_composition():
    # age 0-9 multiplier x 80%-effective vaccine: 0.5 * 0.34 * 0.2
    beta_agent = 0.5 * age_band_params(5).beta_multiplier * (1.0 - 0.8)
    assert beta_agent == pytest.approx(0.034)


def test_exposure_without_sources_is_empty():
    world = make_world(population=100, with_ledgers=False)
    params = DiseaseParams()
    apply_movement(world)
    for _ in range(10):
        assert exposure_step(world, params, rng(0)) == 0


def test_exposure_with_zero_beta_is_empty():
    world = make_world(population=100, with_ledgers=False)
    params = DiseaseParams(beta_base=0.0)
    seed_initial_infections(world, params, 0.5, rng(3))
    exposed = np.flatnonzero(world.compartment == Compartment.EXPOSED)
    move_to(world, exposed, Compartment.PRE_SYMPTOMATIC)
    apply_movement(world)
    assert exposure_step(world, params, rng(4)) == 0


def _clone(g):
    clone = np.random.default_rng()
    clone.bit_generator.state = g.bit_generator.state
    return clone


def _world_with_an_infectious_house():
    # House 0 is all infectious and everyone is home, so no susceptible
    # shares a place with a source.
    world = make_world(population=40, household_size=4, with_ledgers=False)
    move_to(world, range(4), Compartment.PRE_SYMPTOMATIC)
    apply_movement(world)
    return world


def test_exposure_with_no_susceptible_in_a_loaded_place_draws_every_uniform():
    # The earlier contract: no exposure, but every susceptible still draws
    # its one uniform.
    world = _world_with_an_infectious_house()
    n_sus = int(np.count_nonzero(world.compartment == Compartment.SUSCEPTIBLE))
    g = rng(8)
    clone = _clone(g)
    assert exposure_step_drawing_all(world, DiseaseParams(), g) == 0
    clone.random(n_sus)
    assert g.bit_generator.state == clone.bit_generator.state
    assert (world.compartment[4:] == Compartment.SUSCEPTIBLE).all()


def test_exposure_with_no_susceptible_in_a_loaded_place_draws_nothing():
    world = _world_with_an_infectious_house()
    g = rng(8)
    before = g.bit_generator.state
    assert exposure_step(world, DiseaseParams(), g) == 0
    assert g.bit_generator.state == before
    assert (world.compartment[4:] == Compartment.SUSCEPTIBLE).all()


def _world_with_two_loaded_houses():
    # Houses 0 and 2 each hold one infectious agent and five susceptibles.
    world = make_world(population=60, household_size=6, with_ledgers=False)
    move_to(world, [0, 12], Compartment.INFECTED_MILD)
    return world


def _assert_draws_then_incubations(world, loaded):
    """One tick of exposure at home draws one uniform for each of
    `loaded`, in order, then one incubation per new exposure."""
    world.vaccinated[12] = True
    world.vax_susceptibility[3] = 0.2
    world.tick = 6
    apply_movement(world)
    params = DiseaseParams(beta_base=3.0)
    world.transmissibility = agent_transmissibility(world, params)
    weight = np.where(loaded < 12, 1.0, VACCINATED_SOURCE_WEIGHT)
    beta_agent = (
        params.beta_base
        * params.band_beta_multiplier[world.age[loaded] // 10]
        * world.vax_susceptibility[loaded]
    )
    p = infection_probability(beta_agent, weight, 6)

    for seed in range(20):
        trial = copy.deepcopy(world)
        g = rng(seed)
        clone = _clone(g)
        newly = loaded[clone.random(loaded.size) < p]
        incubation = sample_duration_ticks(
            Compartment.EXPOSED, clone, size=newly.size, params=params
        )
        assert exposure_step(trial, params, g) == newly.size
        assert g.bit_generator.state == clone.bit_generator.state
        assert np.array_equal(
            np.flatnonzero(trial.compartment == Compartment.EXPOSED), newly
        )
        assert np.array_equal(trial.due_tick[newly], 6 + incubation - 1)
        listed = trial.susceptible_ids
        if listed is not None:
            assert np.array_equal(
                listed, np.flatnonzero(trial.compartment == Compartment.SUSCEPTIBLE)
            )


def test_exposure_draws_one_uniform_per_loaded_susceptible_then_incubations():
    # Everyone is home, so exactly the ten susceptibles of houses 0 and 2
    # are loaded.
    world = _world_with_two_loaded_houses()
    assert world.susceptible_ids is None
    _assert_draws_then_incubations(world, np.array([1, 2, 3, 4, 5, 13, 14, 15, 16, 17]))


def test_exposure_over_the_susceptible_list_draws_the_same():
    # Houses 5-9 recover, which leaves fewer than half the agents
    # susceptible, so exposure gathers over the engine's list. Then agent
    # 5 recovers too: it stays at home in house 0 but must leave the list,
    # or it would draw.
    world = _world_with_two_loaded_houses()
    move_to(world, range(30, 60), Compartment.RECOVERED)
    assert world.susceptible_ids is not None
    move_to(world, 5, Compartment.RECOVERED)
    _assert_draws_then_incubations(world, np.array([1, 2, 3, 4, 13, 14, 15, 16, 17]))


def test_two_agent_household_exposure_matches_closed_form():
    # One infectious and one susceptible share a house for 200 ticks.
    # Eventual exposure probability is 1 - (1 - p)^200 with the per-tick
    # p from the dose-response formula at half infectious occupancy.
    params = DiseaseParams()
    p_tick = float(infection_probability(0.5, 1.0, 2))
    expected = 1.0 - (1.0 - p_tick) ** 200

    runs = 10_000
    exposed = 0
    g = rng(12345)
    start = make_world(population=2, household_size=2, with_ledgers=False)
    start.age[:] = 25  # beta multiplier 1.0
    start.transmissibility = agent_transmissibility(start, params)
    move_to(start, 0, Compartment.ASYMPTOMATIC)
    for _ in range(runs):
        world = copy.deepcopy(start)
        hit = False
        for tick in range(200):
            if exposure_step(world, params, g):
                hit = True
                break
            world.tick += 1
        exposed += hit
    assert exposed / runs == pytest.approx(expected, abs=0.02)


def test_progression_symptomatic_branch_probability():
    # leaving Exposed, an unvaccinated 20-29 agent turns symptomatic 60%
    world = make_world(population=200_000, household_size=1, with_ledgers=False)
    world.age[:] = 25
    world.compartment[:] = Compartment.EXPOSED
    world.due_tick[:] = world.tick
    progression_step(world, DiseaseParams(), rng(7))
    pre = (world.compartment == Compartment.PRE_SYMPTOMATIC).mean()
    assert pre == pytest.approx(0.6, abs=0.005)


def test_progression_vaccinated_gamma_boost():
    # vaccinated 20-29: asymptomatic branch 0.4 -> 0.72, symptomatic 0.28
    world = make_world(population=200_000, household_size=1, with_ledgers=False)
    world.age[:] = 25
    world.vaccinated[:] = True
    world.compartment[:] = Compartment.EXPOSED
    world.due_tick[:] = world.tick
    progression_step(world, DiseaseParams(), rng(8))
    pre = (world.compartment == Compartment.PRE_SYMPTOMATIC).mean()
    assert pre == pytest.approx(0.28, abs=0.005)


def test_death_probability_ratio_and_unconditional_sigma():
    band = age_band_params(85)
    assert band.death_given_hospitalized == pytest.approx(0.3375, abs=2e-4)

    # Monte-Carlo over 10^6 symptomatic (mild) cases of ages 80-89: the
    # unconditional death fraction must reproduce sigma.
    n = 1_000_000
    world = make_world(population=n, household_size=1, with_ledgers=False)
    world.age[:] = 85
    world.compartment[:] = Compartment.INFECTED_MILD
    world.due_tick[:] = world.tick
    params = DiseaseParams()
    g = rng(9)
    for _ in range(200):  # enough ticks for every case to resolve
        if not (
            (world.compartment >= Compartment.EXPOSED)
            & (world.compartment <= Compartment.HOSPITALIZED)
        ).any():
            break
        progression_step(world, params, g)
        world.tick += 1
    dead = (world.compartment == Compartment.DECEASED).mean()
    assert dead == pytest.approx(band.sigma, rel=0.02)


def test_severe_always_hospitalized_then_resolves():
    world = make_world(population=1000, household_size=1, with_ledgers=False)
    world.compartment[:] = Compartment.INFECTED_SEVERE
    world.due_tick[:] = world.tick
    progression_step(world, DiseaseParams(), rng(10))
    assert (world.compartment == Compartment.HOSPITALIZED).all()


def test_absorbing_states_never_leave():
    world = make_world(population=100, household_size=1, with_ledgers=False)
    world.compartment[:50] = Compartment.RECOVERED
    world.compartment[50:] = Compartment.DECEASED
    g = rng(11)
    for _ in range(50):
        progression_step(world, DiseaseParams(), g)
    assert (world.compartment[:50] == Compartment.RECOVERED).all()
    assert (world.compartment[50:] == Compartment.DECEASED).all()


def test_conservation_under_progression():
    world = make_world(population=5_000, with_ledgers=False)
    params = DiseaseParams()
    g = rng(13)
    seed_initial_infections(world, params, 0.3, g)
    for _ in range(300):
        progression_step(world, params, g)
        assert world.compartment_counts().sum() == world.population
        world.tick += 1


def test_all_compartments_reachable_on_tiny_world():
    # 20 agents, forced high transmission: across many seeded runs every
    # compartment should be visited at least once.
    params = DiseaseParams(beta_base=5.0)
    seen = np.zeros(len(Compartment), dtype=bool)
    for seed in range(1000):
        world = make_world(population=20, seed=seed, with_ledgers=False)
        world.age[:] = 85  # high severity path
        world.transmissibility = agent_transmissibility(world, params)
        g = np.random.default_rng(seed)
        seed_initial_infections(world, params, 0.2, g)
        world.tick = 0
        for day in range(60):
            for _ in range(2):
                if world.tick >= 2 * world.config.episode_days:
                    break
                apply_movement(world)
                exposure_step(world, params, g)
                progression_step(world, params, g)
                world.tick += 1
            seen |= world.compartment_counts() > 0
        if seen.all():
            break
    assert seen.all(), [Compartment(i).name for i in np.flatnonzero(~seen)]


def test_duration_oracle_day_draws_match_table():
    # 10^6 day draws per stage must reproduce the published mean and sd.
    g = rng(20)
    params = DiseaseParams()
    for comp in TIMED_COMPARTMENTS:
        mean, sd = DEFAULT_STAGE_DURATIONS[comp]
        draws = duration_days(comp, g, size=1_000_000, params=params)
        assert abs(draws.mean() - mean) / mean < 0.01, comp
        assert abs(draws.std() - sd) / sd < 0.03, comp


# ---------------------------------------------------------------------------
# State the engine keeps current, and what a tick allocates.


def _derived_transmissibility(world, params):
    """The product by elementwise indexing, not `agent_transmissibility`."""
    return (
        params.beta_base
        * params.band_beta_multiplier[world.age // 10]
        * world.vax_susceptibility
    )


def _assert_kept_state(world, params):
    comp = world.compartment
    recount = np.bincount(comp, minlength=len(Compartment))
    assert np.array_equal(world.compartment_counts(), recount)
    alive = comp != Compartment.DECEASED
    assert np.array_equal(
        world.live_members, np.bincount(house_id(world)[alive], minlength=world.n_houses)
    )
    assert np.array_equal(
        world.is_source,
        (comp >= Compartment.ASYMPTOMATIC) & (comp <= Compartment.INFECTED_SEVERE),
    )
    # The rows of `place`: night, day, and day under lockdown.
    for row, (tick, lockdown) in enumerate(((0, False), (1, False), (1, True))):
        assert np.array_equal(world.occupancy[row], occupant_counts(world, tick, lockdown)), row
    assert np.array_equal(world.transmissibility, _derived_transmissibility(world, params))
    listed = world.susceptible_ids
    assert listed is None or np.array_equal(listed, (comp == Compartment.SUSCEPTIBLE).nonzero()[0])


@pytest.mark.parametrize(
    "experiment, baseline", [(1, "NoL_NoV"), (2, "FullL_FullV"), (2, "L30_FullV")]
)
def test_kept_state_matches_a_recount_after_every_tick(monkeypatch, experiment, baseline):
    config = experiment_config(experiment, 1, population=2_000)
    days = config.world.episode_days
    schedule = baseline_schedule(parse_baseline(baseline), days)
    ticks, listed = [], []

    def progress(world, params, rng):
        progression_step(world, params, rng)
        _assert_kept_state(world, params)
        ticks.append(world.tick)
        listed.append(world.susceptible_ids is not None)

    def vaccinate(world, schedule, policy, day, rng):
        given = vaccination_day_step(world, schedule, policy, day, rng)
        _assert_kept_state(world, config.disease)
        return given

    monkeypatch.setattr(env, "progression_step", progress)
    monkeypatch.setattr(env, "vaccination_day_step", vaccinate)
    trace = run_episode(config, schedule, seed=0)
    assert ticks == list(range(2 * days))
    assert trace.deceased[-1] > 0
    # Without interventions fewer than half the agents stay susceptible,
    # from about day 16, and exposure switches to the list; with lockdown
    # and vaccines they never do.
    crossed = listed.index(True) if any(listed) else None
    if baseline == "NoL_NoV":
        assert 2 * trace.susceptible[-1] < config.world.population_size
        assert crossed is not None and 20 < crossed < 60
        assert all(listed[crossed:])
    else:
        assert 2 * trace.susceptible.min() >= config.world.population_size
        assert crossed is None
    if baseline != "NoL_NoV":
        assert trace.doses.sum() > 0
    if baseline == "FullL_FullV":
        assert schedule.lockdown == (0.0, days)
    if baseline == "L30_FullV":
        # the lockdown ends inside the episode, so both day rows are used
        assert 0 < schedule.lockdown[1] < days


def test_episode_derives_transmissibility_from_its_own_params(monkeypatch):
    # Other params than the defaults `make_world` derives with, so an
    # episode that kept the defaults, or skipped the derivation, would fail.
    config = experiment_config(1, 1, population=2_000)
    bands = (AgeBandRates(2.0, 0.5, 0.3, 0.01),) + DEFAULT_AGE_BANDS[1:]
    config = replace(
        config,
        world=replace(config.world, episode_days=30),
        disease=DiseaseParams(beta_base=0.8, age_bands=bands),
    )
    full = (0.0, 30.0)
    schedule = InterventionSchedule((0.0, 0.0), (full, full, full))
    checked = []

    def vaccinate(world, schedule, policy, day, rng):
        given = vaccination_day_step(world, schedule, policy, day, rng)
        _assert_kept_state(world, config.disease)
        checked.append(given)
        return given

    monkeypatch.setattr(env, "vaccination_day_step", vaccinate)
    run_episode(config, schedule, seed=21)
    assert len(checked) == 30 and sum(checked) > 0


def test_exposure_tick_and_census_allocate_nothing_population_sized(monkeypatch):
    # Day 15's work tick of a 10k-agent epidemic: most agents share a place
    # with an infectious one. The bounds leave room for arrays sized by the
    # sources and the loaded susceptibles, and for per-location arrays.
    config = experiment_config(1, 1, population=10_000)
    schedule = baseline_schedule(parse_baseline("NoL_NoV"), config.world.episode_days)
    peaks = {}

    def measured(world, params, rng):
        if world.tick != 31:
            return exposure_step(world, params, rng)
        tracemalloc.start()
        try:
            exposed = exposure_step(world, params, rng)
            peaks["exposure"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            world.compartment_counts()
            peaks["census"] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert exposed > 0
        return exposed

    monkeypatch.setattr(env, "exposure_step", measured)
    run_episode(config, schedule, seed=0)
    assert peaks["exposure"] / config.world.population_size <= 18.0
    assert peaks["census"] < 1024


def test_disease_params_cannot_change_after_construction():
    params = DiseaseParams()
    with pytest.raises(TypeError):
        params.stage_durations[Compartment.EXPOSED] = (1.0, 0.0)
    with pytest.raises(TypeError):
        params.stage_durations.update({Compartment.EXPOSED: (1.0, 0.0)})
    with pytest.raises(TypeError):
        del params.stage_durations[Compartment.EXPOSED]
    for table in (
        params.band_beta_multiplier,
        params.band_asymptomatic_prob,
        params.band_severe_prob,
        params.band_death_given_hospitalized,
        params.age_death_given_hospitalized,
        params.age_severe_prob,
        params.age_asymptomatic_prob,
    ):
        with pytest.raises(ValueError):
            table[0] = 1.0
    assert params.stage_durations == DEFAULT_STAGE_DURATIONS


def test_pickled_disease_params_run_the_same_episode():
    config = experiment_config(1, 1, population=1_000)
    copied = pickle.loads(pickle.dumps(config))
    assert copied.disease is not config.disease and copied.disease == config.disease
    with pytest.raises(TypeError):
        copied.disease.stage_durations[Compartment.EXPOSED] = (1.0, 0.0)
    schedule = baseline_schedule(parse_baseline("FullL_FullV"), config.world.episode_days)
    a, b = run_episode(config, schedule, seed=3), run_episode(copied, schedule, seed=3)
    assert np.array_equal(a.compartments, b.compartments)
    assert np.array_equal(a.below_poverty, b.below_poverty)
    assert np.array_equal(a.doses, b.doses)
