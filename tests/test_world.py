from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidemictrl.epidemic import Compartment
from epidemictrl.rng import RngStreams
from epidemictrl.world import (
    LocationKind,
    Role,
    WorldConfig,
    apply_movement,
    house_heads,
    scheduled_location,
    scheduled_locations,
    synthesize_population,
)

from conftest import make_world


def test_house_count_from_config():
    world = make_world(population=100_000, household_size=4, with_ledgers=False)
    assert world.n_houses == 25_000


def test_last_house_may_be_smaller():
    world = make_world(population=10, household_size=4, with_ledgers=False)
    sizes = [len(world.house_members(h)) for h in range(world.n_houses)]
    assert sizes == [4, 4, 2]


def test_head_is_oldest_member():
    world = make_world(population=10, household_size=4, with_ledgers=False)
    for h in range(world.n_houses):
        members = world.house_members(h)
        head = world.house_head[h]
        assert head in members
        assert world.age[head] == world.age[members].max()


def lexsort_house_heads(age: np.ndarray, household_size: int) -> np.ndarray:
    """Reference: sort by house, then oldest first, then lowest id."""
    n = age.size
    house_id = np.arange(n) // household_size
    order = np.lexsort((np.arange(n), -age.astype(np.int64), house_id))
    n_houses = -(-n // household_size)
    return order[np.arange(n_houses) * household_size]


@settings(max_examples=200, deadline=None)
@given(
    population=st.integers(1, 60),
    household_size=st.integers(1, 6),
    data=st.data(),
)
def test_house_heads_match_lexsort_oracle(population, household_size, data):
    # Few distinct ages make ties common; the last house is often ragged.
    values = data.draw(st.lists(st.integers(0, 99), min_size=2, max_size=3, unique=True))
    age = np.array(
        data.draw(st.lists(st.sampled_from(values), min_size=population, max_size=population)),
        dtype=np.int16,
    )
    heads = house_heads(age, household_size)
    assert heads.dtype == np.int32
    assert np.array_equal(heads, lexsort_house_heads(age, household_size))


def test_role_rule_matches_age():
    world = make_world(population=500, with_ledgers=False)
    for i in (0, 17, 123, 499):
        agent = world.agent(i)
        assert (agent.role is Role.EMPLOYED) == (agent.age > 30)
    assert np.array_equal(world.employed, world.age > 30)


def test_essential_only_on_employed():
    world = make_world(population=2000, with_ledgers=False)
    assert not (world.is_essential & ~world.employed).any()
    # with the default 20% fraction some employed agent is essential
    assert world.is_essential.any()


def test_rejects_empty_population():
    with pytest.raises(ValueError):
        synthesize_population(WorldConfig(population_size=0), RngStreams.from_seed(0))


def test_capacity_respected_at_synthesis():
    world = make_world(population=3000, office_capacity=50, school_capacity=200,
                       with_ledgers=False)
    office_load = np.bincount(
        world.workplace_loc[world.employed] - world.office_base
    )
    school_load = np.bincount(
        world.workplace_loc[~world.employed] - world.school_base
    )
    assert office_load.max() <= 50
    assert school_load.max() <= 200


def test_everyone_starts_at_home():
    world = make_world(population=100, with_ledgers=False)
    assert world.tick == 0
    assert np.array_equal(world.location_of, world.house_id)


def test_synthesis_deterministic():
    a = make_world(population=300, seed=5, with_ledgers=False)
    b = make_world(population=300, seed=5, with_ledgers=False)
    for field in ("age", "employed", "is_essential", "is_violator",
                  "workplace_loc", "house_head"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_hospital_default_count():
    assert WorldConfig(population_size=100_000).hospital_count == 4
    assert WorldConfig(population_size=1_000).hospital_count == 1
    assert WorldConfig(population_size=25_001).hospital_count == 2


def _force_agent(world, i, *, age=None, compartment=None, essential=None, violator=None):
    if age is not None:
        world.age[i] = age
        world.employed[i] = age > 30
        # keep the workplace consistent with the (possibly new) role
        world.workplace_loc[i] = (
            world.office_base if world.employed[i] else world.school_base
        )
    if compartment is not None:
        world.compartment[i] = compartment
    if essential is not None:
        world.is_essential[i] = essential
    if violator is not None:
        world.is_violator[i] = violator


def test_scheduled_location_work_phase_healthy():
    world = make_world(population=10, with_ledgers=False)
    _force_agent(world, 0, age=40, essential=False, violator=False)
    agent = world.agent(0)
    assert scheduled_location(agent, tick=1, lockdown_active=False) == agent.workplace_loc
    assert world.location_kind(agent.workplace_loc) is LocationKind.OFFICE


def test_scheduled_location_lockdown_keeps_home():
    world = make_world(population=10, with_ledgers=False)
    _force_agent(world, 0, age=40, essential=False, violator=False)
    agent = world.agent(0)
    assert scheduled_location(agent, tick=1, lockdown_active=True) == agent.house_id


def test_student_violator_ignores_lockdown():
    # hand trace on a 10-agent world: a violating student still commutes
    world = make_world(population=10, with_ledgers=False)
    _force_agent(world, 3, age=12, essential=False, violator=True)
    agent = world.agent(3)
    loc = scheduled_location(agent, tick=1, lockdown_active=True)
    assert loc == agent.workplace_loc
    assert world.location_kind(loc) is LocationKind.SCHOOL


def test_essential_worker_commutes_under_lockdown():
    world = make_world(population=10, with_ledgers=False)
    _force_agent(world, 0, age=45, essential=True, violator=False)
    agent = world.agent(0)
    assert scheduled_location(agent, tick=1, lockdown_active=True) == agent.workplace_loc


def test_symptomatic_stays_home_in_work_phase():
    world = make_world(population=10, with_ledgers=False)
    _force_agent(world, 0, age=45, compartment=Compartment.INFECTED_MILD)
    agent = world.agent(0)
    assert scheduled_location(agent, tick=1, lockdown_active=False) == agent.house_id


def test_hospitalized_in_hospital_any_phase():
    world = make_world(population=10, with_ledgers=False)
    _force_agent(world, 2, compartment=Compartment.HOSPITALIZED)
    agent = world.agent(2)
    for tick in (0, 1):
        loc = scheduled_location(agent, tick, lockdown_active=False)
        assert loc == agent.hospital_loc
        assert world.location_kind(loc) is LocationKind.HOSPITAL


def test_home_phase_everyone_home():
    world = make_world(population=200, with_ledgers=False)
    apply_movement(world, lockdown_active=False)  # tick 0 is a home phase
    at_home = world.location_of < world.n_houses
    assert at_home.all()


def test_partition_invariant_across_states():
    world = make_world(population=60, with_ledgers=False)
    world.compartment[0] = Compartment.DECEASED
    world.compartment[1] = Compartment.HOSPITALIZED
    world.compartment[2] = Compartment.INFECTED_SEVERE
    for tick in (0, 1):
        world.tick = tick
        apply_movement(world, lockdown_active=True)
        occupancy = np.bincount(
            world.location_of[world.alive], minlength=world.n_locations
        )
        assert occupancy.sum() == world.alive.sum() == 59
        assert world.location_of[0] == -1
        assert world.location_of[1] == world.hospital_loc[1]


def test_scalar_and_vector_movement_agree():
    world = make_world(population=150, seed=9, with_ledgers=False)
    world.compartment[4] = Compartment.INFECTED_MILD
    world.compartment[5] = Compartment.HOSPITALIZED
    world.compartment[6] = Compartment.PRE_SYMPTOMATIC
    for tick in (0, 1):
        for lockdown in (False, True):
            vec = scheduled_locations(world, tick, lockdown)
            for i in range(world.population):
                assert vec[i] == scheduled_location(world.agent(i), tick, lockdown), (
                    tick,
                    lockdown,
                    i,
                )


def test_movement_rejects_past_episode_end():
    world = make_world(population=10, episode_days=2, with_ledgers=False)
    world.tick = 4
    with pytest.raises(ValueError):
        apply_movement(world)
