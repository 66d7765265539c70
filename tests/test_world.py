from __future__ import annotations

import math
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidemictrl.epidemic import Compartment
from epidemictrl.rng import RngStreams
from epidemictrl.world import (
    DAY,
    EMPLOYMENT_AGE,
    LOCKDOWN_DAY,
    NIGHT,
    WorldConfig,
    WorldState,
    apply_movement,
    house_heads,
    synthesize_population,
)

from conftest import (
    house_id,
    make_world,
    move_to,
    occupant_counts,
    redrawn_commuters,
    redrawn_roles,
    scheduled_locations,
)

# Reference views of the world's flat arrays. The engine needs none of
# them: it reads the arrays directly.


class LocationKind(IntEnum):
    """Location ids run through houses, then offices and schools."""

    HOUSE = 0
    OFFICE = 1
    SCHOOL = 2


def kind_sizes(world: WorldState) -> tuple[int, int, int]:
    """Houses, offices and schools, counted from the roles and capacities."""
    employed = int(np.count_nonzero(world.age > EMPLOYMENT_AGE))
    students = world.population - employed
    offices = math.ceil(employed / world.config.office_capacity)
    schools = math.ceil(students / world.config.school_capacity)
    return world.n_houses, offices, schools


def kind_base(world: WorldState, kind: LocationKind) -> int:
    """First location id of `kind`."""
    return sum(kind_sizes(world)[:kind])


def location_kind(world: WorldState, loc: int) -> LocationKind:
    if not 0 <= loc < world.n_locations:
        raise ValueError(f"location {loc} out of range")
    return max(kind for kind in LocationKind if kind_base(world, kind) <= loc)


def house_members(world: WorldState, house: int) -> np.ndarray:
    size = world.config.household_size
    return np.arange(house * size, min((house + 1) * size, world.population))


def workplace(world: WorldState) -> np.ndarray:
    """Each agent's office or school, from the day row of `place`."""
    return world.place[DAY]


SYMPTOMATIC_COMPARTMENTS = (Compartment.INFECTED_MILD, Compartment.INFECTED_SEVERE)


def scheduled_location(
    world: WorldState, i: int, tick: int, lockdown_active: bool, commuters: np.ndarray
) -> int:
    """Where agent `i` belongs at `tick`, rule by rule; -1 for the isolated
    Hospitalized and the deceased.
    `commuters` marks who commutes under lockdown (`redrawn_commuters`).

    Scalar reference for the vectorized `scheduled_locations`.
    """
    comp = world.compartment[i]
    if comp in (Compartment.HOSPITALIZED, Compartment.DECEASED):
        return -1
    if tick % 2 == 0:  # home phase
        return house_id(world)[i]
    if comp in SYMPTOMATIC_COMPARTMENTS:
        return house_id(world)[i]
    if lockdown_active and not commuters[i]:
        return house_id(world)[i]
    return workplace(world)[i]


def test_house_count_from_config():
    world = make_world(population=100_000, household_size=4, with_ledgers=False)
    assert world.n_houses == 25_000


def test_last_house_may_be_smaller():
    world = make_world(population=10, household_size=4, with_ledgers=False)
    sizes = [len(house_members(world, h)) for h in range(world.n_houses)]
    assert sizes == [4, 4, 2]


def test_head_is_oldest_member():
    world = make_world(population=10, household_size=4, with_ledgers=False)
    for h in range(world.n_houses):
        members = house_members(world, h)
        head = world.house_head[h]
        assert head in members
        assert world.age[head] == world.age[members].max()


def lexsort_house_heads(age: np.ndarray, household_size: int) -> np.ndarray:
    """Reference: sort by house, then oldest first, then lowest id."""
    n = age.size
    houses = np.arange(n) // household_size
    order = np.lexsort((np.arange(n), -age.astype(np.int64), houses))
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
    assert heads.dtype == np.intp
    assert np.array_equal(heads, lexsort_house_heads(age, household_size))


def test_role_rule_matches_age():
    # over 30 works at an office, everyone else goes to school
    world = make_world(population=500, with_ledgers=False)
    office = workplace(world) < kind_base(world, LocationKind.SCHOOL)
    assert np.array_equal(office, world.age > 30)


def test_essential_only_on_employed():
    # without violators, the agents away from home under lockdown are the
    # essential workers
    world = make_world(population=2000, violator_fraction=0.0, with_ledgers=False)
    away = world.place[LOCKDOWN_DAY] != world.place[NIGHT]
    assert not (away & ~(world.age > EMPLOYMENT_AGE)).any()
    # with the default 20% fraction some employed agent is essential
    assert away.any()


def test_rejects_empty_population():
    with pytest.raises(ValueError):
        synthesize_population(WorldConfig(population_size=0), RngStreams.from_seed(0))


def test_capacity_respected_at_synthesis():
    world = make_world(population=3000, office_capacity=50, school_capacity=200,
                       with_ledgers=False)
    employed = world.age > EMPLOYMENT_AGE
    office_load = np.bincount(
        workplace(world)[employed] - kind_base(world, LocationKind.OFFICE)
    )
    school_load = np.bincount(
        workplace(world)[~employed] - kind_base(world, LocationKind.SCHOOL)
    )
    assert office_load.max() <= 50
    assert school_load.max() <= 200


def test_everyone_starts_at_home():
    world = make_world(population=100, with_ledgers=False)
    assert world.tick == 0
    assert world.row == NIGHT
    assert np.array_equal(world.place[NIGHT], house_id(world))


def test_lockdown_row_keeps_only_essential_workers_and_violators_away():
    for seed in (0, 7):
        world = make_world(population=2000, seed=seed, with_ledgers=False)
        away = redrawn_commuters(world.config, seed)
        assert np.array_equal(world.place[LOCKDOWN_DAY][away], world.place[DAY][away])
        assert np.array_equal(world.place[LOCKDOWN_DAY][~away], world.place[NIGHT][~away])


@settings(max_examples=40, deadline=None)
@given(
    population=st.integers(1, 300),
    household_size=st.integers(1, 6),
    essential=st.sampled_from([0.0, 0.2, 1.0]),
    violator=st.sampled_from([0.0, 0.1, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_commuting_heads_match_the_redrawn_roles(
    population, household_size, essential, violator, seed
):
    config = dict(
        household_size=household_size,
        essential_worker_fraction=essential,
        violator_fraction=violator,
    )
    world = make_world(population=population, seed=seed, with_ledgers=False, **config)
    commuters = redrawn_commuters(world.config, seed)
    assert world.head_commutes.dtype == bool
    assert np.array_equal(world.head_commutes, commuters[world.house_head])


def test_places_are_fixed_and_counted():
    world = make_world(population=300, with_ledgers=False)
    for frozen in (world.place[DAY], world.house_head, world.head_commutes):
        with pytest.raises(ValueError):
            frozen[0] = 1
    for row in (NIGHT, DAY, LOCKDOWN_DAY):
        recount = np.bincount(world.place[row], minlength=world.n_locations)
        assert np.array_equal(world.occupancy[row], recount)


def test_synthesis_deterministic():
    a = make_world(population=300, seed=5, with_ledgers=False)
    b = make_world(population=300, seed=5, with_ledgers=False)
    for field in ("age", "place", "house_head", "head_commutes", "live_members"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


ROLES_SEED = 3


def _roles_world():
    """A 200-agent world and who in it commutes under lockdown."""
    world = make_world(population=200, seed=ROLES_SEED, with_ledgers=False)
    return world, redrawn_commuters(world.config, ROLES_SEED)


def _agent(world, employed: bool, essential: bool = False, violator: bool = False) -> int:
    """The lowest id of an employed agent, or of a student, with the given
    re-drawn roles."""
    is_essential, is_violator = redrawn_roles(world.config, ROLES_SEED)
    match = (world.age > EMPLOYMENT_AGE) == employed
    match &= (is_essential == essential) & (is_violator == violator)
    return int(np.flatnonzero(match)[0])


def test_scheduled_location_work_phase_healthy():
    world, commuters = _roles_world()
    i = _agent(world, employed=True)
    loc = scheduled_location(world, i, tick=1, lockdown_active=False, commuters=commuters)
    assert loc == workplace(world)[i]
    assert location_kind(world, workplace(world)[i]) is LocationKind.OFFICE


def test_scheduled_location_lockdown_keeps_home():
    world, commuters = _roles_world()
    i = _agent(world, employed=True)
    loc = scheduled_location(world, i, tick=1, lockdown_active=True, commuters=commuters)
    assert loc == house_id(world)[i]


def test_student_violator_ignores_lockdown():
    # a violating student still commutes
    world, commuters = _roles_world()
    i = _agent(world, employed=False, violator=True)
    loc = scheduled_location(world, i, tick=1, lockdown_active=True, commuters=commuters)
    assert loc == workplace(world)[i]
    assert location_kind(world, loc) is LocationKind.SCHOOL


def test_essential_worker_commutes_under_lockdown():
    world, commuters = _roles_world()
    i = _agent(world, employed=True, essential=True)
    loc = scheduled_location(world, i, tick=1, lockdown_active=True, commuters=commuters)
    assert loc == workplace(world)[i]


def test_symptomatic_stays_home_in_work_phase():
    world, commuters = _roles_world()
    i = _agent(world, employed=True)
    world.compartment[i] = Compartment.INFECTED_MILD
    loc = scheduled_location(world, i, tick=1, lockdown_active=False, commuters=commuters)
    assert loc == house_id(world)[i]


def test_hospitalized_sit_nowhere_any_phase():
    world, commuters = _roles_world()
    world.compartment[2] = Compartment.HOSPITALIZED
    for tick in (0, 1):
        for lockdown in (False, True):
            loc = scheduled_location(world, 2, tick, lockdown, commuters=commuters)
            assert loc == -1
            assert scheduled_locations(world, tick, lockdown)[2] == -1


def test_home_phase_everyone_home():
    world = make_world(population=200, with_ledgers=False)
    apply_movement(world, lockdown_active=False)  # tick 0 is a home phase
    assert world.row == NIGHT
    at_home = world.place[world.row] < world.n_houses
    assert at_home.all()


_C = Compartment
# Four courses from Susceptible that between them take the engine's ten
# moves: S->E, E->A, E->PS, A->R, PS->IM, IM->IS, IM->R, IS->H, H->R, H->D.
ENGINE_COURSES = (
    (_C.SUSCEPTIBLE, _C.EXPOSED, _C.ASYMPTOMATIC, _C.RECOVERED),
    (_C.SUSCEPTIBLE, _C.EXPOSED, _C.PRE_SYMPTOMATIC, _C.INFECTED_MILD, _C.RECOVERED),
    (_C.SUSCEPTIBLE, _C.EXPOSED, _C.PRE_SYMPTOMATIC, _C.INFECTED_MILD, _C.INFECTED_SEVERE,
     _C.HOSPITALIZED, _C.RECOVERED),
    (_C.SUSCEPTIBLE, _C.EXPOSED, _C.PRE_SYMPTOMATIC, _C.INFECTED_MILD, _C.INFECTED_SEVERE,
     _C.HOSPITALIZED, _C.DECEASED),
)


def test_partition_invariant_across_states():
    # Agent k walks course k one engine move at a time; after each move all
    # three kept rows match the movement rules, so a wrong seat names its
    # move.
    world = make_world(population=60, with_ledgers=False)
    moves = set()
    for agent, course in enumerate(ENGINE_COURSES):
        for source, target in zip(course, course[1:]):
            move_to(world, agent, target)
            moves.add((source, target))
            # The rows of `place`: night, day, and day under lockdown.
            for row, (tick, lockdown) in enumerate(((0, False), (1, False), (1, True))):
                recount = occupant_counts(world, tick, lockdown)
                assert np.array_equal(world.occupancy[row], recount), (source, target, row)
    assert len(moves) == 10
    # every row seats all but the one deceased in a house, office or school
    assert world.occupancy.shape == (3, sum(kind_sizes(world)))
    assert (world.occupancy.sum(axis=1) == 59).all()


def test_scalar_and_vector_movement_agree():
    world = make_world(population=150, seed=9, with_ledgers=False)
    move_to(world, 4, Compartment.INFECTED_MILD)
    move_to(world, [5, 9, 10], Compartment.HOSPITALIZED)
    move_to(world, 6, Compartment.PRE_SYMPTOMATIC)
    move_to(world, [7, 11], Compartment.DECEASED)
    move_to(world, 12, Compartment.RECOVERED)
    well = world.compartment == Compartment.SUSCEPTIBLE
    commuters = redrawn_commuters(world.config, 9)
    for tick in (0, 1):
        for lockdown in (False, True):
            vec = scheduled_locations(world, tick, lockdown)
            for i in range(world.population):
                assert vec[i] == scheduled_location(world, i, tick, lockdown, commuters), (
                    tick,
                    lockdown,
                    i,
                )
            # the engine's row for this phase: well agents sit at their
            # place, and the kept counts match the rule's
            world.tick = tick
            apply_movement(world, lockdown)
            assert np.array_equal(world.place[world.row][well], vec[well])
            recount = occupant_counts(world, tick, lockdown)
            assert np.array_equal(world.occupancy[world.row], recount)


def test_movement_rejects_past_episode_end():
    world = make_world(population=10, episode_days=2, with_ledgers=False)
    world.tick = 4
    with pytest.raises(ValueError):
        apply_movement(world)
