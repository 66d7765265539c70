"""The due-tick engine against the countdown engine it replaced, and the
dwell times the engine actually realizes.

The countdown functions below are the earlier implementation, kept as the
reference: every timed agent carried `ticks_remaining`, each progression
step decremented all of them and moved the agents that reached zero, and
exposure computed an infection probability for every susceptible (drawing
a uniform only for those in a place with an infectious occupant, as the
engine does). The engine must reproduce it exactly: same compartments, same random draws,
and `due_tick - tick == ticks_remaining` after every progression step.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epidemictrl import env, epidemic
from epidemictrl.env import ExperimentConfig, run_episode
from epidemictrl.epidemic import (
    TIMED_COMPARTMENTS,
    VACCINATED_SOURCE_WEIGHT,
    Compartment,
    DiseaseParams,
    agent_transmissibility,
    exposure_step,
    progression_step,
    sample_duration_ticks,
    seed_initial_infections,
)
from epidemictrl.interventions import (
    InterventionSchedule,
    VaccinationPolicyConfig,
    VaccineSpec,
    vaccination_day_step,
)
from epidemictrl.world import WorldConfig, apply_movement

from conftest import current_locations, make_world
from reference_draws import _effective_asymptomatic_prob, infection_probability

# ---------------------------------------------------------------------------
# The countdown reference.

# The compartments that shed infection.
INFECTIOUS_COMPARTMENTS = (
    Compartment.ASYMPTOMATIC,
    Compartment.PRE_SYMPTOMATIC,
    Compartment.INFECTED_MILD,
    Compartment.INFECTED_SEVERE,
)
INFECTIOUS_LUT = np.zeros(len(Compartment), dtype=bool)
INFECTIOUS_LUT[list(INFECTIOUS_COMPARTMENTS)] = True


def countdown_seed(world, ticks, params, fraction, rng):
    count = int(round(fraction * world.population))
    if count == 0:
        return
    ids = rng.choice(world.population, size=count, replace=False)
    world.compartment[ids] = Compartment.EXPOSED
    ticks[ids] = sample_duration_ticks(Compartment.EXPOSED, rng, size=count, params=params)


def countdown_exposure_step(world, ticks, params, rng):
    comp = world.compartment
    loc = current_locations(world)

    infectious = INFECTIOUS_LUT[comp]
    if not infectious.any() or params.beta_base == 0.0:
        return 0

    source_weight = np.where(world.vaccinated[infectious], VACCINATED_SOURCE_WEIGHT, 1.0)
    weight_by_loc = np.bincount(loc[infectious], weights=source_weight, minlength=world.n_locations)

    present = loc >= 0
    count_by_loc = np.bincount(loc[present], minlength=world.n_locations)

    sus_ids = np.flatnonzero(comp == Compartment.SUSCEPTIBLE)
    if sus_ids.size == 0:
        return 0
    sus_loc = loc[sus_ids]
    beta_agent = (
        params.beta_base
        * params.band_beta_multiplier[world.age[sus_ids] // 10]
        * world.vax_susceptibility[sus_ids]
    )
    p = infection_probability(beta_agent, weight_by_loc[sus_loc], count_by_loc[sus_loc])
    # Only susceptibles in a place with an infectious occupant draw.
    at_risk = weight_by_loc[sus_loc] > 0
    newly = sus_ids[at_risk][rng.random(np.count_nonzero(at_risk)) < p[at_risk]]
    if newly.size == 0:
        return 0
    world.compartment[newly] = Compartment.EXPOSED
    ticks[newly] = sample_duration_ticks(Compartment.EXPOSED, rng, size=newly.size, params=params)
    return int(newly.size)


def countdown_progression_step(world, ticks, params, rng):
    comp = world.compartment

    timed = (comp >= Compartment.EXPOSED) & (comp <= Compartment.HOSPITALIZED)
    if not timed.any():
        return
    ticks[timed] -= 1
    due = timed & (ticks == 0)
    if not due.any():
        return

    band = world.age // 10

    def _enter(ids, target):
        comp[ids] = target
        if target in (Compartment.RECOVERED, Compartment.DECEASED):
            ticks[ids] = 0
        else:
            ticks[ids] = sample_duration_ticks(target, rng, size=ids.size, params=params)

    ids = np.flatnonzero(due & (comp == Compartment.HOSPITALIZED))
    if ids.size:
        dies = rng.random(ids.size) < params.band_death_given_hospitalized[band[ids]]
        _enter(ids[dies], Compartment.DECEASED)
        _enter(ids[~dies], Compartment.RECOVERED)

    ids = np.flatnonzero(due & (comp == Compartment.INFECTED_SEVERE))
    if ids.size:
        _enter(ids, Compartment.HOSPITALIZED)

    ids = np.flatnonzero(due & (comp == Compartment.INFECTED_MILD))
    if ids.size:
        worsens = rng.random(ids.size) < params.band_severe_prob[band[ids]]
        _enter(ids[worsens], Compartment.INFECTED_SEVERE)
        _enter(ids[~worsens], Compartment.RECOVERED)

    ids = np.flatnonzero(due & (comp == Compartment.PRE_SYMPTOMATIC))
    if ids.size:
        _enter(ids, Compartment.INFECTED_MILD)

    ids = np.flatnonzero(due & (comp == Compartment.ASYMPTOMATIC))
    if ids.size:
        _enter(ids, Compartment.RECOVERED)

    ids = np.flatnonzero(due & (comp == Compartment.EXPOSED))
    if ids.size:
        gamma = _effective_asymptomatic_prob(
            params.band_asymptomatic_prob[band[ids]], world.vaccinated[ids]
        )
        silent = rng.random(ids.size) < gamma
        _enter(ids[silent], Compartment.ASYMPTOMATIC)
        _enter(ids[~silent], Compartment.PRE_SYMPTOMATIC)


# ---------------------------------------------------------------------------
# Side by side.


def _is_timed(comp):
    return (comp >= Compartment.EXPOSED) & (comp <= Compartment.HOSPITALIZED)


def run_side_by_side(seed, population, household_size, beta, fraction, min_age, days, vax_start):
    """Step the engine and the countdown reference through one episode from
    identical worlds and generators, asserting agreement after every tick.
    Returns the engine's final world."""
    worlds = [
        make_world(
            population=population,
            seed=seed,
            with_ledgers=False,
            household_size=household_size,
            episode_days=days,
        )
        for _ in range(2)
    ]
    new, ref = worlds
    age_rng = np.random.default_rng(seed)
    ages = age_rng.integers(min_age, 100, size=population).astype(np.int16)
    ticks = np.zeros(population, dtype=np.int32)
    params = DiseaseParams(beta_base=beta)
    for w in worlds:
        w.age[:] = ages
        w.transmissibility = agent_transmissibility(w, params)
    g_new, g_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    v_new, v_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    doses = max(1, population // 50)
    policy = VaccinationPolicyConfig(specs=(VaccineSpec(0.8, doses), VaccineSpec(0.6, doses)))
    window = (float(min(vax_start, days)), float(days))
    schedule = InterventionSchedule((0.0, days / 4), (window, window, window))

    seed_initial_infections(new, params, fraction, g_new)
    countdown_seed(ref, ticks, params, fraction, g_ref)
    for day in range(days):
        locked = day < days / 4
        for _ in range(2):
            for w in worlds:
                apply_movement(w, locked)
            assert exposure_step(new, params, g_new) == countdown_exposure_step(
                ref, ticks, params, g_ref
            )
            progression_step(new, params, g_new)
            countdown_progression_step(ref, ticks, params, g_ref)

            assert np.array_equal(new.compartment, ref.compartment)
            assert g_new.bit_generator.state == g_ref.bit_generator.state
            timed = _is_timed(new.compartment)
            assert np.array_equal(new.due_tick[timed] - new.tick, ticks[timed])
            assert (new.due_tick[~timed] == epidemic.NOT_DUE).all()
            for w in worlds:
                w.tick += 1
        assert vaccination_day_step(new, schedule, policy, day, v_new) == vaccination_day_step(
            ref, schedule, policy, day, v_ref
        )
    return new


def test_engine_matches_countdown_with_deaths_and_vaccines():
    world = run_side_by_side(
        seed=3,
        population=1500,
        household_size=4,
        beta=2.0,
        fraction=0.1,
        min_age=60,
        days=100,
        vax_start=10,
    )
    comp = world.compartment
    assert (comp == Compartment.DECEASED).sum() > 0
    assert (world.vaccinated & (comp != Compartment.SUSCEPTIBLE)).sum() > 0
    assert world.vaccinated.sum() > 0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 2),
    population=st.integers(1, 400),
    household_size=st.integers(1, 6),
    beta=st.floats(0.0, 6.0),
    fraction=st.floats(0.0, 0.6),
    min_age=st.integers(0, 90),
    days=st.integers(1, 60),
    vax_start=st.integers(0, 60),
)
def test_engine_matches_countdown_reference(
    seed, population, household_size, beta, fraction, min_age, days, vax_start
):
    run_side_by_side(seed, population, household_size, beta, fraction, min_age, days, vax_start)


# ---------------------------------------------------------------------------
# Realized dwell times over one episode.


def test_realized_dwell_matches_sampled_dwell(monkeypatch):
    """Every agent leaves a timed stage exactly its sampled dwell after it
    entered it, counted in ticks of the steps that moved it."""
    n = 3000
    draws = []  # (target compartment, dwell ticks) in draw order

    def recording_sample(compartment, rng, size, params):
        ticks = sample_duration_ticks(compartment, rng, size=size, params=params)
        draws.append((int(compartment), np.atleast_1d(ticks)))
        return ticks

    monkeypatch.setattr(epidemic, "sample_duration_ticks", recording_sample)

    n_comp = len(Compartment)
    entry = np.full((n_comp, n), -1)
    exit_ = np.full((n_comp, n), -1)
    sampled = np.full((n_comp, n), -1)

    def record(world, step, entered_order=None):
        start = len(draws)
        before = world.compartment.copy()
        result = step()
        after = world.compartment
        moved = np.flatnonzero(before != after)
        exit_[before[moved], moved] = world.tick
        entry[after[moved], moved] = world.tick
        for target, dwell in draws[start:]:
            ids = entered_order
            if ids is None:
                ids = np.flatnonzero((after == target) & (before != target))
            assert ids.size == dwell.size
            sampled[target, ids] = dwell
        assert sum(d.size for _, d in draws[start:]) == np.count_nonzero(_is_timed(after[moved]))
        return result

    def seed(world, params, fraction, rng):
        # seeding exposes agents in `rng.choice` order, not in id order
        count = int(round(fraction * world.population))
        order = copy.deepcopy(rng).choice(world.population, size=count, replace=False)
        return record(world, lambda: seed_initial_infections(world, params, fraction, rng), order)

    def expose(world, params, rng):
        return record(world, lambda: exposure_step(world, params, rng))

    def progress(world, params, rng):
        return record(world, lambda: progression_step(world, params, rng))

    monkeypatch.setattr(env, "seed_initial_infections", seed)
    monkeypatch.setattr(env, "exposure_step", expose)
    monkeypatch.setattr(env, "progression_step", progress)

    config = ExperimentConfig(
        world=WorldConfig(population_size=n, episode_days=100),
        vaccination=VaccinationPolicyConfig(specs=(VaccineSpec(0.8, 15), VaccineSpec(0.6, 15))),
        initial_infection_fraction=0.1,
    )
    full = (0.0, 100.0)
    run_episode(config, InterventionSchedule((0.0, 0.0), (full, full, full)), seed=7)

    for comp in TIMED_COMPARTMENTS:
        done = np.flatnonzero(exit_[comp] >= 0)
        assert done.size > 20, comp.name
        realized = exit_[comp, done] - entry[comp, done]
        if comp == Compartment.EXPOSED:
            # The incubation off-by-one (ROADMAP.md item 1): the exposure
            # tick's own progression step counts toward the stay, so every
            # exposure leaves Exposed one tick before its sampled dwell.
            # Seeding counts here as an exposure at tick 0, made before that
            # tick's progression step, like an exposure made by exposure_step.
            assert np.array_equal(realized, sampled[comp, done] - 1)
        else:
            assert np.array_equal(realized, sampled[comp, done]), comp.name
    # deaths happened, so the Hospitalized branch was exercised both ways
    assert (entry[Compartment.DECEASED] >= 0).any()
    assert (entry[Compartment.RECOVERED][exit_[Compartment.HOSPITALIZED] >= 0] >= 0).any()
