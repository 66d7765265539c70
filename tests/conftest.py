from __future__ import annotations

import numpy as np
import pytest

from epidemictrl.economy import EconomyConfig, init_house_ledgers
from epidemictrl.epidemic import Compartment, DiseaseParams, _enter, agent_transmissibility
from epidemictrl.rng import RngStreams
from epidemictrl.world import (
    EMPLOYMENT_AGE,
    LOCKDOWN_DAY,
    NIGHT,
    WorldConfig,
    WorldState,
    synthesize_population,
)


def make_world(
    population: int = 40,
    seed: int = 0,
    with_ledgers: bool = True,
    **config_kwargs,
) -> WorldState:
    config = WorldConfig(population_size=population, **config_kwargs)
    streams = RngStreams.from_seed(seed)
    world = synthesize_population(config, streams)
    # as `run_episode` derives it; a test with other params, ages or
    # vaccine susceptibilities re-derives it
    world.transmissibility = agent_transmissibility(world, DiseaseParams())
    if with_ledgers:
        init_house_ledgers(world, EconomyConfig(), streams.economy)
    return world


def _next_compartment(source: Compartment, target: Compartment) -> Compartment:
    """The engine's move out of `source` on the way to `target`."""
    C = Compartment
    if source == C.SUSCEPTIBLE:
        return C.EXPOSED
    if source == C.EXPOSED:
        silent = target in (C.ASYMPTOMATIC, C.RECOVERED)
        return C.ASYMPTOMATIC if silent else C.PRE_SYMPTOMATIC
    if source == C.ASYMPTOMATIC or (source, target) == (C.INFECTED_MILD, C.RECOVERED):
        return C.RECOVERED
    if source in (C.PRE_SYMPTOMATIC, C.INFECTED_MILD, C.INFECTED_SEVERE):
        return C(source + 1)
    if source == C.HOSPITALIZED and target in (C.RECOVERED, C.DECEASED):
        return target
    raise ValueError(f"no move from {source.name} toward {target.name}")


def move_to(world: WorldState, ids, target) -> None:
    """Move agents to `target`, any compartment but Susceptible, through
    the engine's one writer, `epidemic._enter`, one engine move at a time
    (Susceptible to Deceased goes through Exposed, PreSymptomatic,
    InfectedMild, InfectedSevere and Hospitalized), so the kept state stays
    current. Agents already in `target` stay put."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.intp))
    target = Compartment(target)
    while True:
        sources = world.compartment[ids]
        if (sources == target).all():
            return
        for source in np.unique(sources[sources != target]):
            source = Compartment(source)
            step = _next_compartment(source, target)
            _enter(world, ids[sources == source], source, step, DiseaseParams(), rng())


def house_id(world: WorldState) -> np.ndarray:
    """Each agent's house: houses are blocks of consecutive ids."""
    return np.arange(world.population) // world.config.household_size


def redrawn_roles(config: WorldConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(essential, violator) per agent, re-drawn from a fresh population
    stream in synthesis's order: ages, then one essential and one violator
    uniform per agent. Only employed agents can be essential. The oracle
    for who commutes under lockdown, independent of `place`."""
    stream = RngStreams.from_seed(seed).population
    n = config.population_size
    employed = stream.integers(0, 100, size=n) > EMPLOYMENT_AGE
    essential = (stream.random(n) < config.essential_worker_fraction) & employed
    violator = stream.random(n) < config.violator_fraction
    return essential, violator


def redrawn_commuters(config: WorldConfig, seed: int) -> np.ndarray:
    """Agents who commute under lockdown: essential workers and violators."""
    essential, violator = redrawn_roles(config, seed)
    return essential | violator


def scheduled_locations(world: WorldState, tick: int, lockdown_active: bool) -> np.ndarray:
    """Location per agent by the movement rules, -1 for the isolated
    Hospitalized and the deceased: the oracle for the engine's kept
    occupancy. Who commutes under lockdown is read from the world's
    lockdown row of `place`, which `tests/test_world.py` pins against
    `redrawn_commuters`."""
    comp = world.compartment
    home = house_id(world)
    if tick % 2 == 1:  # work/school phase
        commutes = (comp != Compartment.INFECTED_MILD) & (comp != Compartment.INFECTED_SEVERE)
        if lockdown_active:
            commutes &= world.place[LOCKDOWN_DAY] != world.place[NIGHT]
        loc = np.where(commutes, world.place[1] - 1, home)
    else:
        loc = home
    loc[(comp == Compartment.HOSPITALIZED) | (comp == Compartment.DECEASED)] = -1
    return loc


def occupant_counts(world: WorldState, tick: int, lockdown_active: bool) -> np.ndarray:
    """Agents per slot (location + 1) by `scheduled_locations`, as the
    engine keeps them in a row of `occupancy`: slot 0 (the Hospitalized
    and the deceased) is not counted."""
    counts = np.bincount(
        scheduled_locations(world, tick, lockdown_active) + 1, minlength=world.n_locations + 1
    )
    counts[0] = 0
    return counts


def current_locations(world: WorldState) -> np.ndarray:
    """`scheduled_locations` for the tick phase and lockdown of the row
    that `apply_movement` selected last."""
    return scheduled_locations(world, tick=1 if world.row else 0, lockdown_active=world.row == 2)


@pytest.fixture
def small_world() -> WorldState:
    return make_world(population=40, seed=1)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class QuadraticBandit:
    """Deterministic synthetic task: reward peaks at action[0] = 0.4."""

    action_dim = 8
    seed_base = 0

    def observation(self):
        return np.full(6, 0.5)

    def rollout(self, action, seed):
        return -float((action[0] - 0.4) ** 2)

    def decode(self, action):
        return float(action[0])
