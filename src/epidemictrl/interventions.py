"""Intervention schedules: lockdown windows and daily vaccine dispensing.

A raw `ACTION_DIM`-component action in [-1, 1] decodes into day windows:
one lockdown window and one vaccination window per age stratum (0-17,
18-59, 60-99). Each pair encodes (start, duration) so the end can never
precede the start; windows are half-open [start, end).

Two vaccine types are dispensed each day, the more effective one first,
to a random sample of eligible agents, until a global coverage cap is
reached. Vaccination lowers the recipient's susceptibility by the
vaccine's effectiveness; the wider asymptomatic branch and the reduced
transmission weight are applied by the disease engine from the
vaccinated flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epidemic import _DECEASED, _HOSPITALIZED
from .world import WorldState

#: Inclusive age bounds of the three vaccination strata.
AGE_STRATA = ((0, 17), (18, 59), (60, 99))

#: A raw action's components: (start, duration) for lockdown, then per stratum.
ACTION_DIM = 2 * (1 + len(AGE_STRATA))

DayWindow = tuple[float, float]


@dataclass(frozen=True)
class VaccineSpec:
    effectiveness: float
    daily_doses: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.effectiveness <= 1.0:
            raise ValueError("effectiveness must lie in [0, 1]")
        if self.daily_doses < 0:
            raise ValueError("daily_doses must be nonnegative")


@dataclass(frozen=True)
class InterventionSchedule:
    lockdown: DayWindow
    vax_windows: tuple[DayWindow, DayWindow, DayWindow]

    def __post_init__(self) -> None:
        for start, end in (self.lockdown, *self.vax_windows):
            if not 0.0 <= start <= end:
                raise ValueError(f"bad day window ({start}, {end})")

    def validate_horizon(self, episode_days: int) -> None:
        for start, end in (self.lockdown, *self.vax_windows):
            if end > episode_days:
                raise ValueError(
                    f"window ({start}, {end}) exceeds the {episode_days}-day episode"
                )


@dataclass(frozen=True)
class VaccinationPolicyConfig:
    specs: tuple[VaccineSpec, VaccineSpec] = (
        VaccineSpec(0.8, 450),
        VaccineSpec(0.6, 450),
    )
    coverage_cap: float = 0.90

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage_cap <= 1.0:
            raise ValueError("coverage_cap must lie in [0, 1]")
        if len(self.specs) != 2:
            raise ValueError("exactly two vaccine types are modeled")


def decode_action(
    raw: np.ndarray, horizon_days: float = 100.0
) -> InterventionSchedule:
    """Map a raw `ACTION_DIM`-vector in [-1, 1] to day windows.

    `ACTION_DIM` lives here, derived from `AGE_STRATA`: pairs are (start,
    duration) for lockdown then the age strata; each component maps
    linearly from [-1, 1] onto [0, horizon_days] and the window end is
    clipped to the horizon. Out-of-range components are clamped first,
    so any finite vector yields a valid schedule.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (ACTION_DIM,):
        raise ValueError(f"expected {ACTION_DIM} action components, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ValueError("action components must be finite")
    raw = np.clip(raw, -1.0, 1.0)

    windows = []
    for k in range(0, ACTION_DIM, 2):
        start = (raw[k] + 1.0) / 2.0 * horizon_days
        duration = (raw[k + 1] + 1.0) / 2.0 * horizon_days
        windows.append((start, min(start + duration, horizon_days)))
    return InterventionSchedule(windows[0], tuple(windows[1:]))


def window_active(window: DayWindow, day: int) -> bool:
    start, end = window
    return start <= day < end


def lockdown_active(schedule: InterventionSchedule, day: int) -> bool:
    return window_active(schedule.lockdown, day)


def apply_vaccine_effects(
    world: WorldState, agent_ids: np.ndarray, effectiveness: float | np.ndarray
) -> None:
    """Mark agents vaccinated and scale their kept transmissibility by
    1 - effectiveness.

    `effectiveness` is one vaccine's for every recipient, or an array
    aligned with `agent_ids`. An agent is vaccinated at most once, so its
    `transmissibility` is beta_base x band multiplier x (1 - effectiveness),
    multiplied in that order; no other array records the dose's effect.
    """
    if world.vaccinated[agent_ids].any():
        raise ValueError("agent already vaccinated")
    world.vaccinated[agent_ids] = True
    world.transmissibility[agent_ids] *= 1.0 - effectiveness


def vaccination_day_step(
    world: WorldState,
    schedule: InterventionSchedule,
    policy: VaccinationPolicyConfig,
    day: int,
    rng: np.random.Generator,
) -> int:
    """Dispense one day of doses; returns how many were given.

    Eligible agents are alive, unvaccinated, not hospitalized, and in an
    age stratum whose window covers the day. The day's recipients are a
    uniformly random ordered sample, without replacement, of as many
    eligible agents as the day's doses allow (the global coverage cap
    included); vaccine 1's doses go to the first of them, then vaccine
    2's. Consumes randomness only when doses can actually flow, so
    inactive schedules leave the stream untouched.
    """
    doses_today = sum(spec.daily_doses for spec in policy.specs)
    if doses_today == 0:
        return 0

    active = [window_active(w, day) for w in schedule.vax_windows]
    if not any(active):
        return 0

    cap = int(np.floor(policy.coverage_cap * world.population))
    budget = min(cap - np.count_nonzero(world.vaccinated), doses_today)
    if budget <= 0:
        return 0

    # Comparisons, not lookup tables: `take` first casts the int8
    # compartments and int16 ages to intp, which costs more than a compare.
    comp = world.compartment
    eligible = comp != _HOSPITALIZED
    eligible &= comp != _DECEASED
    eligible &= ~world.vaccinated
    if not all(active):
        in_window = np.zeros(world.population, dtype=bool)
        for (lo, hi), is_active in zip(AGE_STRATA, active):
            if is_active:
                in_window |= (world.age >= lo) & (world.age <= hi)
        eligible &= in_window
    ids = eligible.nonzero()[0]
    if ids.size == 0:
        return 0

    # Sample only the day's recipients: the draws scale with the doses,
    # not with the eligible pool.
    queue = rng.choice(ids, size=min(budget, ids.size), replace=False)
    first, second = policy.specs
    effectiveness = np.full(queue.size, second.effectiveness)
    effectiveness[: first.daily_doses] = first.effectiveness
    apply_vaccine_effects(world, queue, effectiveness)
    return int(queue.size)
