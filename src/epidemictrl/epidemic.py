"""Nine-compartment disease state machine.

Agents sit in exactly one compartment. Exposure happens inside shared
locations through an exponential dose-response on the infectious fraction
of co-located occupants; stage progression is driven by a per-agent due
tick drawn from log-normal stage durations, with age-stratified branch
probabilities. Each tick touches only the agents with work to do:
progression handles the agents whose due tick has come, and exposure
evaluates a dose only for susceptibles in a place with an infectious
occupant.

Branch structure: leaving Exposed an agent turns Asymptomatic with
probability gamma (else PreSymptomatic); Asymptomatic recovers;
PreSymptomatic turns InfectedMild; InfectedMild turns InfectedSevere with
the severe probability (else recovers); InfectedSevere is always
hospitalized; Hospitalized dies with probability sigma / severe_prob so
that sigma is the unconditional death weight among symptomatic cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .world import WorldState

TICKS_PER_DAY = 2
TICK_DAYS = 0.5

# Vaccination shifts the disease course: the asymptomatic branch widens by
# 80% (capped at 1) and an infectious vaccinated agent sheds at 80% weight.
VACCINE_GAMMA_BOOST = 1.8
VACCINATED_SOURCE_WEIGHT = 0.8
_VACCINATED_TICK_WEIGHT = -TICK_DAYS * VACCINATED_SOURCE_WEIGHT


class Compartment(IntEnum):
    SUSCEPTIBLE = 0
    EXPOSED = 1
    ASYMPTOMATIC = 2
    PRE_SYMPTOMATIC = 3
    INFECTED_MILD = 4
    INFECTED_SEVERE = 5
    HOSPITALIZED = 6
    RECOVERED = 7
    DECEASED = 8


#: Compartments with a sampled dwell time.
TIMED_COMPARTMENTS = (
    Compartment.EXPOSED,
    Compartment.ASYMPTOMATIC,
    Compartment.PRE_SYMPTOMATIC,
    Compartment.INFECTED_MILD,
    Compartment.INFECTED_SEVERE,
    Compartment.HOSPITALIZED,
)

# Plain ints for the per-tick code of every module: an IntEnum member
# lookup costs a Python-level attribute access on every use.
_SUSCEPTIBLE = int(Compartment.SUSCEPTIBLE)
_EXPOSED = int(Compartment.EXPOSED)
_ASYMPTOMATIC = int(Compartment.ASYMPTOMATIC)
_PRE_SYMPTOMATIC = int(Compartment.PRE_SYMPTOMATIC)
_INFECTED_MILD = int(Compartment.INFECTED_MILD)
_INFECTED_SEVERE = int(Compartment.INFECTED_SEVERE)
_HOSPITALIZED = int(Compartment.HOSPITALIZED)
_RECOVERED = int(Compartment.RECOVERED)
_DECEASED = int(Compartment.DECEASED)

#: `WorldState.due_tick` of an agent outside the timed compartments.
NOT_DUE = -1

#: A stage's mean and sd stay below this many ticks, so that a due tick,
#: the start tick plus a dwell, fits the int32 `due_tick`.
MAX_DWELL_TICKS = 2**30

# The rows of `place` that give a mildly ill agent's seats by day: the two
# day rows, then the night row (the house) once for each.
_DAY_THEN_HOME = np.array([1, 2, 0, 0])

# Search keys for the stage bounds in `progression_step`: in the sorted due
# compartments, compartment c spans [bounds[c], bounds[c + 1]).
_STAGE_BOUNDS = np.arange(_HOSPITALIZED + 2)


@dataclass(frozen=True)
class AgeBandRates:
    """Transition factors for one ten-year age band.

    symptomatic_prob is 1 - gamma (the chance an exposure turns
    symptomatic), severe_prob is 1 - delta (mild cases that escalate) and
    sigma is the unconditional death weight among symptomatic cases.
    """

    beta_multiplier: float
    symptomatic_prob: float
    severe_prob: float
    sigma: float

    def __post_init__(self) -> None:
        if self.beta_multiplier < 0:
            raise ValueError(f"beta_multiplier must be nonnegative, got {self.beta_multiplier}")
        if not 0.0 <= self.symptomatic_prob <= 1.0:
            raise ValueError(f"symptomatic_prob must lie in [0, 1], got {self.symptomatic_prob}")
        if not 0.0 < self.severe_prob <= 1.0:
            raise ValueError(f"severe_prob must lie in (0, 1], got {self.severe_prob}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")

    @property
    def asymptomatic_prob(self) -> float:
        return 1.0 - self.symptomatic_prob

    @property
    def death_given_hospitalized(self) -> float:
        return min(1.0, self.sigma / self.severe_prob)


# One row per decade of age, 0-9 through 90-99.
DEFAULT_AGE_BANDS: tuple[AgeBandRates, ...] = (
    AgeBandRates(0.34, 0.50, 0.00050, 0.00002),
    AgeBandRates(0.67, 0.55, 0.00165, 0.00002),
    AgeBandRates(1.00, 0.60, 0.00720, 0.00010),
    AgeBandRates(1.00, 0.65, 0.02080, 0.00032),
    AgeBandRates(1.00, 0.70, 0.03430, 0.00098),
    AgeBandRates(1.00, 0.75, 0.07650, 0.00265),
    AgeBandRates(1.00, 0.80, 0.13280, 0.00766),
    AgeBandRates(1.24, 0.85, 0.20655, 0.02439),
    AgeBandRates(1.47, 0.90, 0.24570, 0.08292),
    AgeBandRates(1.47, 0.90, 0.24570, 0.16190),
)

# (mean days, sd days) spent in each timed compartment.
DEFAULT_STAGE_DURATIONS: dict[Compartment, tuple[float, float]] = {
    Compartment.EXPOSED: (4.5, 1.5),
    Compartment.ASYMPTOMATIC: (8.0, 2.0),
    Compartment.PRE_SYMPTOMATIC: (1.1, 0.9),
    Compartment.INFECTED_MILD: (8.0, 2.0),
    Compartment.INFECTED_SEVERE: (1.5, 2.0),
    Compartment.HOSPITALIZED: (18.1, 6.3),
}


def lognormal_underlying(mean: float, sd: float) -> tuple[float, float]:
    """Moment-matched (mu, sigma) of the underlying normal for a log-normal
    with the given mean and standard deviation. sd = 0 degenerates to a
    point mass at ``mean``."""
    if mean <= 0:
        raise ValueError(f"log-normal mean must be positive, got {mean}")
    if sd < 0:
        raise ValueError(f"log-normal sd must be nonnegative, got {sd}")
    if sd == 0.0:
        return math.log(mean), 0.0
    var = math.log(1.0 + (sd * sd) / (mean * mean))
    mu = math.log(mean * mean / math.sqrt(mean * mean + sd * sd))
    return mu, math.sqrt(var)


class _ReadOnlyDict(dict):
    """A dict that refuses writes after it is built; it pickles and
    deep-copies as a fresh read-only copy."""

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class DiseaseParams:
    """Disease dynamics knobs; defaults follow the published factor tables.

    The per-band lookup tables, the per-age branch tables (one entry per
    age 0-99) and the log-normal parameters are derived once, at
    construction, so they always match the fields. An episode keeps
    values derived from its params object (each agent's transmissibility
    among them) to its end, so nothing in it can change:
    `stage_durations` is read-only and the tables are not writeable.
    """

    beta_base: float = 0.5
    age_bands: tuple[AgeBandRates, ...] = DEFAULT_AGE_BANDS
    stage_durations: dict[Compartment, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_STAGE_DURATIONS)
    )

    def __post_init__(self) -> None:
        if self.beta_base < 0:
            raise ValueError("beta_base must be nonnegative")
        if len(self.age_bands) != 10:
            raise ValueError("age_bands must cover ages 0-99 in ten decade bands")
        untimed = sorted(c.name for c in set(self.stage_durations) - set(TIMED_COMPARTMENTS))
        if untimed:
            raise ValueError(f"stage durations given for untimed {untimed}")
        mu_sigma = {}
        for comp in TIMED_COMPARTMENTS:
            if comp not in self.stage_durations:
                raise ValueError(f"missing stage duration for {comp.name}")
            mean, sd = self.stage_durations[comp]
            if mean <= 0 or sd < 0:
                raise ValueError(f"bad duration ({mean}, {sd}) for {comp.name}")
            try:
                mu, sigma = mu_sigma[comp] = lognormal_underlying(mean, sd)
            except (ArithmeticError, ValueError):  # e.g. a mean whose square is 0
                mu = sigma = math.nan
            if not (math.isfinite(mu) and math.isfinite(sigma)):
                raise ValueError(
                    f"duration ({mean}, {sd}) for {comp.name} has no finite log-normal parameters"
                )
            if max(mean, sd) * TICKS_PER_DAY >= MAX_DWELL_TICKS:
                raise ValueError(
                    f"duration ({mean}, {sd}) for {comp.name}: mean and sd must stay "
                    f"under {MAX_DWELL_TICKS // TICKS_PER_DAY} days"
                )
        bands = self.age_bands
        asymptomatic = np.array([b.asymptomatic_prob for b in bands])
        severe = np.array([b.severe_prob for b in bands])
        death = np.array([b.death_given_hospitalized for b in bands])
        # The vaccine boost is applied per band, capped at 1, then spread
        # over the ages like the other tables.
        boosted = np.minimum(1.0, VACCINE_GAMMA_BOOST * asymptomatic)
        tables = {
            "band_beta_multiplier": np.array([b.beta_multiplier for b in bands]),
            "band_asymptomatic_prob": asymptomatic,
            "band_severe_prob": severe,
            "band_death_given_hospitalized": death,
            "age_death_given_hospitalized": death.repeat(10),
            "age_severe_prob": severe.repeat(10),
            # row 0 unvaccinated, row 1 vaccinated: flat key age + 100 * vaccinated
            "age_asymptomatic_prob": np.stack([asymptomatic, boosted]).repeat(10, axis=1),
        }
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        object.__setattr__(self, "stage_durations", _ReadOnlyDict(self.stage_durations))
        object.__setattr__(self, "_duration_mu_sigma", mu_sigma)


def duration_days(
    compartment: Compartment,
    rng: np.random.Generator,
    size: int,
    params: DiseaseParams,
) -> np.ndarray:
    """Draw `size` raw log-normal dwell times in days for a timed compartment."""
    try:
        mu, sigma = params._duration_mu_sigma[compartment]
    except KeyError:
        raise ValueError(f"{Compartment(compartment).name} has no dwell time") from None
    if sigma == 0.0:
        return np.full(size, params.stage_durations[compartment][0])
    return rng.lognormal(mu, sigma, size=size)


def sample_duration_ticks(
    compartment: Compartment,
    rng: np.random.Generator,
    size: int,
    params: DiseaseParams,
) -> np.ndarray:
    """Dwell times in 12-hour ticks: 2x the day draw, rounded, at least 1."""
    days = duration_days(compartment, rng, size=size, params=params)
    # `days` is a fresh array, so it is rounded in place.
    days *= TICKS_PER_DAY
    np.rint(days, out=days)
    np.maximum(days, 1, out=days)
    return days.astype(np.int32)


def _enter(
    world: "WorldState",
    ids: np.ndarray,
    source: int,
    target: int,
    params: DiseaseParams,
    rng: np.random.Generator,
    listed_at: np.ndarray | None = None,
) -> None:
    """Move `ids`, all in `source`, to `target`: the one writer of
    `compartment`, `due_tick`, `compartment_totals`, `live_members`,
    `is_source`, `occupancy` and `susceptible_ids`.

    A timed target gets a sampled dwell; Recovered and Deceased are never
    due, and each death leaves its house's living members. A death is a
    `subtract.at`, not a subscripted `-=`, so that two deaths in one house
    on one tick both count.

    Four moves change the occupancy (see `WorldState`; row 0 of `place`
    holds the houses): PS->IM and IM->R move an agent between its day
    places and its house on the two day rows, IS->H takes it out of its
    house on all three rows, and H->R puts it back at its well places.
    Each gathers its slots as flat occupancy indices and counts them with
    `subtract.at` / `add.at` on 1-D indices: a `ufunc.at` given a 2-D
    index and broadcast values has written garbage (numpy 2.4.6).

    The first S->E move that leaves fewer than half the agents susceptible
    lists the susceptibles with one scan; later S->E moves drop their ids
    from the list, at `listed_at` (their positions in it) when the caller
    holds them, else where a search finds them. S->E is the only move out
    of Susceptible and none moves in, so the list only shrinks.

    An exposure's own progression step already counts toward the stay, so
    incubation ends one tick before the sampled dwell. This is the
    incubation off-by-one of ROADMAP.md item 1, kept as the `- 1` below
    until its fix re-pins the golden traces.
    """
    if ids.size == 0:
        return
    world.compartment[ids] = target
    world.compartment_totals[source] -= ids.size
    world.compartment_totals[target] += ids.size
    if source == _SUSCEPTIBLE:
        listed = world.susceptible_ids
        if listed is not None:
            if listed_at is None:
                listed_at = listed.searchsorted(ids)
            world.susceptible_ids = np.delete(listed, listed_at)
        elif 2 * world.compartment_totals[_SUSCEPTIBLE] < world.population:
            world.susceptible_ids = (world.compartment == _SUSCEPTIBLE).nonzero()[0]
    shedding = _ASYMPTOMATIC <= target <= _INFECTED_SEVERE
    if shedding != (_ASYMPTOMATIC <= source <= _INFECTED_SEVERE):
        world.is_source[ids] = shedding

    if target == _RECOVERED or target == _DECEASED:
        world.due_tick[ids] = NOT_DUE
        if target == _DECEASED:
            np.subtract.at(world.live_members, world.place[0].take(ids) - 1, 1)
    else:
        start = world.tick - 1 if target == _EXPOSED else world.tick
        world.due_tick[ids] = start + sample_duration_ticks(
            target, rng, size=ids.size, params=params
        )

    if target == _INFECTED_MILD or (source == _INFECTED_MILD and target == _RECOVERED):
        # By day the mildly ill sit at home: their seats on the two day
        # rows, then their house's seats (night row) on the same rows.
        seats = world.place.take(ids, axis=1).take(_DAY_THEN_HOME, axis=0)
        seats += world.day_home_offsets
        day, home = seats[:2], seats[2:]
        left, entered = (day, home) if target == _INFECTED_MILD else (home, day)
        np.subtract.at(world.occupancy.ravel(), left.ravel(), 1)
        np.add.at(world.occupancy.ravel(), entered.ravel(), 1)
    elif target == _HOSPITALIZED:
        home = world.place[0].take(ids) + world.row_offsets
        np.subtract.at(world.occupancy.ravel(), home.ravel(), 1)
    elif source == _HOSPITALIZED and target == _RECOVERED:
        well = world.place.take(ids, axis=1)
        well += world.row_offsets
        np.add.at(world.occupancy.ravel(), well.ravel(), 1)


def agent_transmissibility(world: "WorldState", params: DiseaseParams) -> np.ndarray:
    """beta_base x band beta multiplier x vaccine susceptibility per agent,
    multiplied in this order, as the bit-exact traces require."""
    return (
        params.beta_base
        * params.band_beta_multiplier.take(world.age // 10)
        * world.vax_susceptibility
    )


def seed_initial_infections(
    world: "WorldState",
    params: DiseaseParams,
    fraction: float,
    rng: np.random.Generator,
) -> int:
    """Expose a uniformly chosen fraction of the population at day zero."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"initial infection fraction {fraction} outside [0, 1]")
    count = int(round(fraction * world.population))
    if count == 0:
        return 0
    ids = rng.choice(world.population, size=count, replace=False)
    _enter(world, ids, _SUSCEPTIBLE, _EXPOSED, params, rng)
    return count


def exposure_step(
    world: "WorldState", params: DiseaseParams, rng: np.random.Generator
) -> int:
    """Infect susceptible occupants from their location's infectious load.

    Places are those of `world.row` (apply_movement ran first). A
    susceptible sits at its well place, and so does a source, except that
    by day the sick stay home. Only susceptibles in a loaded place (one
    holding an infectious occupant) can be infected, so only they draw:
    one uniform each, in ascending id. Elsewhere the infection probability
    is 0 and a draw could not fall below it. A tick with no loaded
    susceptible draws nothing. Returns the number of new exposures.

    Until `world.susceptible_ids` exists, the loaded susceptibles come
    from a scan of the population; after that, from a gather over the
    list alone.

    Every population-sized intermediate goes into the world's scratch
    buffers. `take` writes there with mode="clip", since the default mode
    copies `out` first; the indices are in range either way.
    """
    sources = world.is_source.nonzero()[0]
    if sources.size == 0 or params.beta_base == 0.0:
        return 0
    comp = world.compartment
    mask, other = world.scratch_masks
    ids, values = world.scratch_ids, world.scratch_values
    row = world.row
    place = world.place[row]

    k = sources.size
    if row:
        # By day InfectedMild and InfectedSevere sources stay home: they
        # read their place from row 0 of the flattened `place`. The flat
        # indices borrow the second value row, unused until the gathers.
        well = np.less(comp.take(sources), _INFECTED_MILD, out=mask[:k])
        flat = np.multiply(well, row * world.population, out=values[1, :k].view(np.int64))
        flat += sources
        source_place = world.place.ravel().take(flat, out=ids[:k], mode="clip")
    else:
        source_place = place.take(sources, out=ids[:k], mode="clip")
    # Weights come scaled by -tick_days, so the rates below come out as
    # -rate * tick_days, ready for expm1. Scaling by a power of two
    # commutes with rounding, so the probabilities are those of scaling
    # the rate last.
    weight = values[0, :k]
    weight.fill(-TICK_DAYS)
    vaccinated = world.vaccinated.take(sources, out=mask[:k], mode="clip")
    np.copyto(weight, _VACCINATED_TICK_WEIGHT, where=vaccinated)
    weight_by_loc = np.bincount(
        source_place, weights=weight, minlength=world.occupancy.shape[1]
    )

    is_loaded = weight_by_loc < 0
    listed = world.susceptible_ids
    if listed is None:
        in_loaded = is_loaded.take(place, out=mask, mode="clip")
        in_loaded &= np.equal(comp, _SUSCEPTIBLE, out=other)
        loaded = in_loaded.nonzero()[0]
        sus_place = place.take(loaded, out=ids[: loaded.size], mode="clip")
    else:
        # Two takes at the loaded positions: a boolean index over the list
        # is several times slower when about half of it is loaded.
        k = listed.size
        listed_place = place.take(listed, out=ids[:k], mode="clip")
        at = is_loaded.take(listed_place, out=mask[:k], mode="clip").nonzero()[0]
        loaded = listed.take(at)
        sus_place = listed_place.take(at)
    if loaded.size == 0:
        return 0

    # Infectious weight per occupant; every gathered place holds at least
    # the susceptible itself.
    k = loaded.size
    rate = weight_by_loc.take(sus_place, out=values[0, :k], mode="clip")
    rate /= world.occupancy[row].take(sus_place)
    rate *= world.transmissibility.take(loaded, out=values[1, :k], mode="clip")
    np.expm1(rate, out=rate)
    p = np.negative(rate, out=rate)  # 1 - exp(-rate * tick_days)
    hit = np.less(rng.random(out=values[1, :k]), p, out=mask[:k])
    newly = loaded[hit]
    if newly.size == 0:
        return 0
    listed_at = None if listed is None else at[hit]
    _enter(world, newly, _SUSCEPTIBLE, _EXPOSED, params, rng, listed_at)
    return int(newly.size)


def progression_step(
    world: "WorldState", params: DiseaseParams, rng: np.random.Generator
) -> None:
    """Move every agent whose stage ends this tick on to its next stage.

    Only agents with `due_tick == world.tick` are touched. They are handled
    from the end of the chain backwards (H, IS, IM, PS, A, E), in ascending
    id within each stage, so an agent entering a new stage this tick is
    never processed twice and the random draws keep a fixed order. A stage
    entered at tick t with a sampled dwell of d ticks is due at t + d.
    """
    due = (world.due_tick == world.tick).nonzero()[0]
    if due.size == 0:
        return
    comp = world.compartment
    age = world.age

    # A stable sort keeps ascending id within each stage.
    due_comp = comp.take(due)
    order = due_comp.argsort(kind="stable")
    due = due.take(order)
    bounds = due_comp.take(order).searchsorted(_STAGE_BOUNDS).tolist()

    def _stage(c: int) -> np.ndarray:
        return due[bounds[c] : bounds[c + 1]]

    ids = _stage(_HOSPITALIZED)
    if ids.size:
        p_death = params.age_death_given_hospitalized.take(age.take(ids))
        dies = rng.random(ids.size) < p_death
        _enter(world, ids[dies], _HOSPITALIZED, _DECEASED, params, rng)
        _enter(world, ids[~dies], _HOSPITALIZED, _RECOVERED, params, rng)

    _enter(world, _stage(_INFECTED_SEVERE), _INFECTED_SEVERE, _HOSPITALIZED, params, rng)

    ids = _stage(_INFECTED_MILD)
    if ids.size:
        p_worse = params.age_severe_prob.take(age.take(ids))
        worsens = rng.random(ids.size) < p_worse
        _enter(world, ids[worsens], _INFECTED_MILD, _INFECTED_SEVERE, params, rng)
        _enter(world, ids[~worsens], _INFECTED_MILD, _RECOVERED, params, rng)

    _enter(world, _stage(_PRE_SYMPTOMATIC), _PRE_SYMPTOMATIC, _INFECTED_MILD, params, rng)
    _enter(world, _stage(_ASYMPTOMATIC), _ASYMPTOMATIC, _RECOVERED, params, rng)

    ids = _stage(_EXPOSED)
    if ids.size:
        # vaccinated agents read the boosted row: flat key age + 100
        key = age.take(ids) + 100 * world.vaccinated.take(ids)
        gamma = params.age_asymptomatic_prob.take(key)
        silent = rng.random(ids.size) < gamma
        _enter(world, ids[silent], _EXPOSED, _ASYMPTOMATIC, params, rng)
        _enter(world, ids[~silent], _EXPOSED, _PRE_SYMPTOMATIC, params, rng)

