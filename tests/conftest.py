from __future__ import annotations

import numpy as np
import pytest

from epidemictrl.economy import EconomyConfig, init_house_ledgers
from epidemictrl.epidemic import DiseaseParams, _enter
from epidemictrl.rng import RngStreams
from epidemictrl.world import WorldConfig, WorldState, synthesize_population


def make_world(
    population: int = 40,
    seed: int = 0,
    with_ledgers: bool = True,
    **config_kwargs,
) -> WorldState:
    config = WorldConfig(population_size=population, **config_kwargs)
    streams = RngStreams.from_seed(seed)
    world = synthesize_population(config, streams)
    if with_ledgers:
        init_house_ledgers(world, EconomyConfig(), streams.economy)
    return world


def move_to(world: WorldState, ids, target) -> None:
    """Move agents to `target`, any compartment but Susceptible, through
    the engine's one writer, `epidemic._enter`, one source compartment at
    a time, so the kept tallies stay current. Agents already in `target`
    stay put."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.intp))
    sources = world.compartment[ids]
    for source in np.unique(sources):
        if source != target:
            _enter(world, ids[sources == source], int(source), int(target), DiseaseParams(), rng())


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
