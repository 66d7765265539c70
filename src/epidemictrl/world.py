"""Population synthesis, geography and per-tick movement.

State is kept in flat numpy arrays (one slot per agent) so that a
100,000-agent world steps in milliseconds.

A day is two 12-hour ticks: even ticks are the home phase, odd ticks the
work/school phase. Agents over 30 are employed and commute to offices,
everyone else is a student and commutes to school. Symptomatic agents stay
home, hospitalized agents are isolated and sit in no shared place, and
during a lockdown only essential workers and lockdown violators commute.

A well agent's place depends only on the phase and the lockdown, so the
places are built once, one row per case, and movement only selects a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .epidemic import _SUSCEPTIBLE, NOT_DUE, Compartment
from .rng import RngStreams

EMPLOYMENT_AGE = 30  # strictly older than this means employed

# The rows of `WorldState.place`.
NIGHT, DAY, LOCKDOWN_DAY = 0, 1, 2


@dataclass(frozen=True)
class WorldConfig:
    population_size: int = 100_000
    household_size: int = 4
    office_capacity: int = 50
    school_capacity: int = 200
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
        for name in ("essential_worker_fraction", "violator_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.episode_days < 1:
            raise ValueError("episode_days must be at least 1")


@dataclass
class WorldState:
    """One world's agents, houses and clock, as flat per-agent arrays.

    `place` (3, population) holds each agent's place while well, as intp
    location + 1, in three rows: `NIGHT` (the house), `DAY` (the office
    or school) and `LOCKDOWN_DAY` (the workplace for essential workers and
    violators, else the house). `synthesize_population` builds it and
    freezes it; `apply_movement` only sets `row`, the row of this tick.
    It also builds and freezes `house_head`, each house's oldest member,
    and `head_commutes`, whether that head works under lockdown: exactly
    when its lockdown row of `place` differs from its night row.
    The sick override it: InfectedMild and InfectedSevere agents sit at
    home on every row, and the Hospitalized (isolated) and the deceased
    sit nowhere.

    `occupancy` (3, n_locations + 1) counts, per row, the agents sitting
    in each house, office and school, the sick overrides included; slot 0
    stays 0. `is_source` marks the infectious agents, Asymptomatic to
    InfectedSevere. `due_tick` (int32) holds, for each agent in a timed
    compartment, the absolute tick whose progression step moves it on; it
    is -1 for every other agent. `susceptible_ids` is None until fewer
    than half the agents are susceptible, and from then on holds the
    susceptibles' ids in ascending order.

    `epidemic._enter` is the one writer of `compartment`, `due_tick`,
    `compartment_totals`, `live_members`, `is_source`, `occupancy` and
    `susceptible_ids`, and keeps them current per move.
    `interventions.apply_vaccine_effects` is the one writer of
    `vaccinated` and `vax_susceptibility`, so `transmissibility` stays
    current. `epidemic.exposure_step` and `economy.economy_day_step` work
    in the `scratch_*` buffers, so a tick allocates nothing sized by the
    population.
    """

    config: WorldConfig
    tick: int

    age: np.ndarray

    compartment: np.ndarray
    due_tick: np.ndarray
    vaccinated: np.ndarray
    vax_susceptibility: np.ndarray

    house_head: np.ndarray  # intp, read-only
    head_commutes: np.ndarray  # per house, bool, read-only
    place: np.ndarray  # (3, population) intp, read-only
    row: int

    n_houses: int
    n_offices: int
    n_schools: int

    # agents per compartment, living members per house, agents per slot
    # and row, and the infectious
    compartment_totals: np.ndarray
    live_members: np.ndarray
    occupancy: np.ndarray
    is_source: np.ndarray
    # Where each row starts in the flattened `occupancy` (slot s of row r
    # is r * (n_locations + 1) + s), as (3, 1), and for the day,
    # day-under-lockdown, day, day-under-lockdown rows as (4, 1).
    row_offsets: np.ndarray = field(repr=False)
    day_home_offsets: np.ndarray = field(repr=False)
    scratch_masks: np.ndarray = field(repr=False)  # (2, population) bool
    scratch_ids: np.ndarray = field(repr=False)  # intp
    scratch_values: np.ndarray = field(repr=False)  # (2, population) float64

    # the susceptibles in ascending id, kept once they are a minority
    susceptible_ids: np.ndarray | None = field(default=None, repr=False)

    # beta_base x band beta multiplier x vaccine susceptibility per agent,
    # set by `env.run_episode` from `epidemic.agent_transmissibility`
    transmissibility: np.ndarray | None = field(default=None, repr=False)

    # set by economy.init_house_ledgers
    savings_cents: np.ndarray | None = None
    income_cents: np.ndarray | None = None

    @property
    def population(self) -> int:
        return self.config.population_size

    @property
    def n_locations(self) -> int:
        return self.n_houses + self.n_offices + self.n_schools

    def compartment_counts(self) -> np.ndarray:
        return self.compartment_totals.copy()


def house_heads(age: np.ndarray, household_size: int) -> np.ndarray:
    """Id (intp) of each house's oldest member, ties broken toward the
    lower id.

    Houses are consecutive blocks of `household_size` ids; the last may be
    smaller. argmax takes the first maximum, which gives the tie-break; the
    ragged last house is padded with an age below every real one.
    """
    n_houses = math.ceil(age.size / household_size)
    padded = np.full(n_houses * household_size, -1, dtype=age.dtype)
    padded[: age.size] = age
    oldest = padded.reshape(n_houses, household_size).argmax(axis=1)
    return oldest + np.arange(0, padded.size, household_size)


def synthesize_population(config: WorldConfig, streams: RngStreams) -> WorldState:
    """Build a fresh world: ages, households, workplaces and who commutes
    under lockdown.

    Agents are grouped into households in index order (the last house may be
    smaller); the oldest member heads each house. Employed agents are packed
    into offices, students into schools, in index order. Everyone starts at
    home with the clock at tick 0.
    """
    rng = streams.population
    n = config.population_size

    age = rng.integers(0, 100, size=n).astype(np.int16)
    employed = age > EMPLOYMENT_AGE

    # Only employed agents can be essential; both uniforms are drawn for
    # every agent. Essential workers and violators commute under lockdown.
    commutes = rng.random(n) < config.essential_worker_fraction
    commutes &= employed
    commutes |= rng.random(n) < config.violator_fraction

    hs = config.household_size
    n_houses = math.ceil(n / hs)

    emp_ids = np.flatnonzero(employed)
    stu_ids = np.flatnonzero(~employed)
    n_offices = math.ceil(emp_ids.size / config.office_capacity) if emp_ids.size else 0
    n_schools = math.ceil(stu_ids.size / config.school_capacity) if stu_ids.size else 0
    n_slots = n_houses + n_offices + n_schools + 1

    # Location + 1 per row; offices follow the houses, then the schools.
    office_slot = n_houses + 1
    school_slot = office_slot + n_offices
    place = np.empty((3, n), dtype=np.intp)
    np.floor_divide(np.arange(n), hs, out=place[NIGHT])  # houses are id blocks
    place[NIGHT] += 1
    place[DAY, emp_ids] = office_slot + np.arange(emp_ids.size) // config.office_capacity
    place[DAY, stu_ids] = school_slot + np.arange(stu_ids.size) // config.school_capacity
    np.copyto(place[LOCKDOWN_DAY], place[NIGHT])
    np.copyto(place[LOCKDOWN_DAY], place[DAY], where=commutes)
    head = house_heads(age, hs)
    head_commutes = place[LOCKDOWN_DAY].take(head) != place[NIGHT].take(head)
    row_offsets = np.arange(3, dtype=np.intp).reshape(3, 1) * n_slots

    totals = np.zeros(len(Compartment), dtype=np.int64)
    totals[_SUSCEPTIBLE] = n
    live_members = np.full(n_houses, hs, dtype=np.int64)
    live_members[-1] = n - (n_houses - 1) * hs  # the last house may be smaller

    world = WorldState(
        config=config,
        tick=0,
        age=age,
        compartment=np.full(n, Compartment.SUSCEPTIBLE, dtype=np.int8),
        due_tick=np.full(n, NOT_DUE, dtype=np.int32),
        vaccinated=np.zeros(n, dtype=bool),
        vax_susceptibility=np.ones(n, dtype=np.float64),
        house_head=head,
        head_commutes=head_commutes,
        place=place,
        row=NIGHT,
        n_houses=n_houses,
        n_offices=n_offices,
        n_schools=n_schools,
        compartment_totals=totals,
        live_members=live_members,
        occupancy=np.stack([np.bincount(places, minlength=n_slots) for places in place]),
        is_source=np.zeros(n, dtype=bool),
        row_offsets=row_offsets,
        day_home_offsets=row_offsets[[DAY, LOCKDOWN_DAY, DAY, LOCKDOWN_DAY]],
        scratch_masks=np.empty((2, n), dtype=bool),
        scratch_ids=np.empty(n, dtype=np.intp),
        scratch_values=np.empty((2, n), dtype=np.float64),
    )
    # places, heads and who of them commutes are fixed from here on
    world.place.flags.writeable = False
    world.house_head.flags.writeable = False
    world.head_commutes.flags.writeable = False
    return world


def apply_movement(world: WorldState, lockdown_active: bool = False) -> None:
    """Select the row of `place` that holds this tick's places."""
    if world.tick >= 2 * world.config.episode_days:
        raise ValueError(
            f"tick {world.tick} past the end of the {world.config.episode_days}-day episode"
        )
    if world.tick % 2 == 0:
        world.row = NIGHT
    else:
        world.row = LOCKDOWN_DAY if lockdown_active else DAY
