"""Population synthesis, geography and per-tick movement.

State is kept in flat numpy arrays (one slot per agent) so that a
100,000-agent world steps in milliseconds.

A day is two 12-hour ticks: even ticks are the home phase, odd ticks the
work/school phase. Agents over 30 are employed and commute to offices,
everyone else is a student and commutes to school. Symptomatic agents stay
home, hospitalized agents stay in a hospital, and during a lockdown only
essential workers and lockdown violators commute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .epidemic import (
    _DECEASED,
    _HOSPITALIZED,
    _INFECTED_MILD,
    _INFECTED_SEVERE,
    _SUSCEPTIBLE,
    NOT_DUE,
    Compartment,
    DiseaseParams,
)
from .rng import RngStreams

EMPLOYMENT_AGE = 30  # strictly older than this means employed
PEOPLE_PER_HOSPITAL = 25_000


@dataclass(frozen=True)
class WorldConfig:
    population_size: int = 100_000
    household_size: int = 4
    office_capacity: int = 50
    school_capacity: int = 200
    hospitals: int | None = None  # defaults to ceil(population / 25,000)
    essential_worker_fraction: float = 0.20
    violator_fraction: float = 0.10
    episode_days: int = 100

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be at least 1")
        if self.household_size < 1:
            raise ValueError("household_size must be at least 1")
        if self.office_capacity < 1 or self.school_capacity < 1:
            raise ValueError("office and school capacities must be at least 1")
        if self.hospitals is not None and self.hospitals < 1:
            raise ValueError("hospitals must be at least 1")
        for name in ("essential_worker_fraction", "violator_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.episode_days < 1:
            raise ValueError("episode_days must be at least 1")

    @property
    def hospital_count(self) -> int:
        if self.hospitals is not None:
            return self.hospitals
        return max(1, math.ceil(self.population_size / PEOPLE_PER_HOSPITAL))


@dataclass
class WorldState:
    """One world's agents, houses and clock, as flat per-agent arrays.

    `due_tick` (int32) holds, for each agent in a timed compartment, the
    absolute tick whose progression step moves it on; it is -1 for every
    other agent. `epidemic.progression_step` touches only the agents whose
    due tick equals `tick`.

    `epidemic._enter` is the one writer of `compartment`, `due_tick`,
    `compartment_totals` and `live_members`, and
    `interventions.apply_vaccine_effects` the one writer of `vaccinated`
    and `vax_susceptibility`, so the kept tallies and `transmissibility`
    stay current. `epidemic.exposure_step` works in the `scratch_*`
    buffers, so a tick allocates nothing sized by the population.
    """

    config: WorldConfig
    tick: int

    age: np.ndarray
    house_id: np.ndarray
    workplace_loc: np.ndarray
    hospital_loc: np.ndarray
    is_essential: np.ndarray
    is_violator: np.ndarray

    compartment: np.ndarray
    due_tick: np.ndarray
    vaccinated: np.ndarray
    vax_susceptibility: np.ndarray

    house_head: np.ndarray
    location_of: np.ndarray

    n_houses: int
    n_offices: int
    n_schools: int
    n_hospitals: int

    # agents per compartment, and living members per house
    compartment_totals: np.ndarray
    live_members: np.ndarray
    # location_of + 1 as intp, so the deceased's -1 indexes slot 0
    scratch_location: np.ndarray = field(repr=False)
    scratch_masks: np.ndarray = field(repr=False)  # (2, population) bool
    scratch_ids: np.ndarray = field(repr=False)  # intp
    scratch_values: np.ndarray = field(repr=False)  # (2, population) float64

    # beta_base x band beta multiplier x vaccine susceptibility per agent,
    # derived by `epidemic.exposure_step` for `transmissibility_params`
    transmissibility: np.ndarray | None = field(default=None, repr=False)
    transmissibility_params: DiseaseParams | None = field(default=None, repr=False)

    # set by economy.init_house_ledgers
    savings_cents: np.ndarray | None = None
    income_cents: np.ndarray | None = None
    economy_config: object | None = field(default=None, repr=False)

    @property
    def population(self) -> int:
        return self.config.population_size

    @property
    def n_locations(self) -> int:
        return self.n_houses + self.n_offices + self.n_schools + self.n_hospitals

    def compartment_counts(self) -> np.ndarray:
        return self.compartment_totals.copy()


def house_heads(age: np.ndarray, household_size: int) -> np.ndarray:
    """Id of each house's oldest member, ties broken toward the lower id.

    Houses are consecutive blocks of `household_size` ids; the last may be
    smaller. argmax takes the first maximum, which gives the tie-break; the
    ragged last house is padded with an age below every real one.
    """
    n_houses = math.ceil(age.size / household_size)
    padded = np.full(n_houses * household_size, -1, dtype=age.dtype)
    padded[: age.size] = age
    oldest = padded.reshape(n_houses, household_size).argmax(axis=1)
    return (oldest + np.arange(0, padded.size, household_size)).astype(np.int32)


def synthesize_population(config: WorldConfig, streams: RngStreams) -> WorldState:
    """Build a fresh world: ages, households, workplaces and flags.

    Agents are grouped into households in index order (the last house may be
    smaller); the oldest member heads each house. Employed agents are packed
    into offices, students into schools, in index order. Everyone starts at
    home with the clock at tick 0.
    """
    rng = streams.population
    n = config.population_size

    age = rng.integers(0, 100, size=n).astype(np.int16)
    employed = age > EMPLOYMENT_AGE

    essential_draw = rng.random(n) < config.essential_worker_fraction
    is_essential = essential_draw & employed  # only employed agents can be essential
    is_violator = rng.random(n) < config.violator_fraction

    hs = config.household_size
    n_houses = math.ceil(n / hs)
    house_id = (np.arange(n) // hs).astype(np.int32)

    emp_ids = np.flatnonzero(employed)
    stu_ids = np.flatnonzero(~employed)
    n_offices = math.ceil(emp_ids.size / config.office_capacity) if emp_ids.size else 0
    n_schools = math.ceil(stu_ids.size / config.school_capacity) if stu_ids.size else 0
    n_hospitals = config.hospital_count

    office_base = n_houses
    school_base = n_houses + n_offices
    hospital_base = n_houses + n_offices + n_schools

    workplace_loc = np.empty(n, dtype=np.int32)
    workplace_loc[emp_ids] = office_base + np.arange(emp_ids.size) // config.office_capacity
    workplace_loc[stu_ids] = school_base + np.arange(stu_ids.size) // config.school_capacity

    hospital_loc = (hospital_base + np.arange(n) % n_hospitals).astype(np.int32)

    totals = np.zeros(len(Compartment), dtype=np.int64)
    totals[_SUSCEPTIBLE] = n
    live_members = np.full(n_houses, hs, dtype=np.int64)
    live_members[-1] = n - (n_houses - 1) * hs  # the last house may be smaller

    return WorldState(
        config=config,
        tick=0,
        age=age,
        house_id=house_id,
        workplace_loc=workplace_loc,
        hospital_loc=hospital_loc,
        is_essential=is_essential,
        is_violator=is_violator,
        compartment=np.full(n, Compartment.SUSCEPTIBLE, dtype=np.int8),
        due_tick=np.full(n, NOT_DUE, dtype=np.int32),
        vaccinated=np.zeros(n, dtype=bool),
        vax_susceptibility=np.ones(n, dtype=np.float64),
        house_head=house_heads(age, hs),
        location_of=house_id.astype(np.int32).copy(),
        n_houses=n_houses,
        n_offices=n_offices,
        n_schools=n_schools,
        n_hospitals=n_hospitals,
        compartment_totals=totals,
        live_members=live_members,
        scratch_location=np.empty(n, dtype=np.intp),
        scratch_masks=np.empty((2, n), dtype=bool),
        scratch_ids=np.empty(n, dtype=np.intp),
        scratch_values=np.empty((2, n), dtype=np.float64),
    )


def scheduled_locations(
    world: WorldState, tick: int, lockdown_active: bool
) -> np.ndarray:
    """Vectorized movement: location index per agent, -1 for the deceased."""
    comp = world.compartment
    home = world.house_id  # house location == house id

    if tick % 2 == 1:  # work/school phase
        commutes = (comp != _INFECTED_MILD) & (comp != _INFECTED_SEVERE)
        if lockdown_active:
            commutes &= world.is_essential | world.is_violator
        loc = np.where(commutes, world.workplace_loc, home).astype(np.int32, copy=False)
    else:
        loc = home.astype(np.int32, copy=True)

    np.copyto(loc, world.hospital_loc, where=comp == _HOSPITALIZED)
    loc[comp == _DECEASED] = -1
    return loc


def apply_movement(world: WorldState, lockdown_active: bool = False) -> None:
    """Place every live agent for the current tick."""
    if world.tick >= 2 * world.config.episode_days:
        raise ValueError(
            f"tick {world.tick} past the end of the {world.config.episode_days}-day episode"
        )
    world.location_of = scheduled_locations(world, world.tick, lockdown_active)
