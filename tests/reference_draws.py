"""The engine's earlier random-draw contract, kept as a reference, and the
aligned-array infection probability and vaccine-boosted asymptomatic
branch the tests compare the engine against.

These steps draw more than the engine does but sample the same model:

- `exposure_step_drawing_all`: every susceptible draws one uniform each
  tick, in ascending id, also when none of them shares a place with an
  infectious occupant. Only the draws of susceptibles in a loaded place
  can fall below their infection probability; the rest are thrown away.
- `vaccination_day_step_shuffling`: a day with doses to give shuffles the
  whole eligible pool and hands the doses out from its front, vaccine 1
  first. The engine samples only as many ids as it has doses.

`tests/test_draw_contract.py` runs whole episodes under these steps and
under the engine's, and compares the outcomes as distributions.
"""

from __future__ import annotations

import numpy as np

from epidemictrl.epidemic import (
    TICK_DAYS,
    VACCINATED_SOURCE_WEIGHT,
    VACCINE_GAMMA_BOOST,
    Compartment,
    _enter,
)
from epidemictrl.interventions import AGE_STRATA, apply_vaccine_effects, window_active

from conftest import current_locations


def infection_probability(beta_agent, infectious_weight, occupants):
    """Per-tick infection probability from frequency-dependent mixing.

    p = 1 - exp(-beta_agent * (infectious_weight / occupants) * tick_days),
    elementwise over aligned arrays. `exposure_step` forms the same rate
    from a per-location weight per occupant, with the weight already
    scaled by -tick_days: the same bits as scaling last, as here.
    """
    rate = np.asarray(beta_agent * (infectious_weight / occupants), dtype=np.float64)
    return -np.expm1(rate * -TICK_DAYS)


def _effective_asymptomatic_prob(gamma, vaccinated):
    """The asymptomatic branch probability: the band's gamma, widened by
    the vaccine boost and capped at 1 for vaccinated agents."""
    return np.where(vaccinated, np.minimum(1.0, VACCINE_GAMMA_BOOST * gamma), gamma)


def exposure_step_drawing_all(world, params, rng):
    comp = world.compartment
    loc = current_locations(world)

    infectious = (comp >= Compartment.ASYMPTOMATIC) & (comp <= Compartment.INFECTED_SEVERE)
    if not infectious.any() or params.beta_base == 0.0:
        return 0
    weight_by_loc = np.bincount(
        loc[infectious],
        weights=np.where(world.vaccinated[infectious], VACCINATED_SOURCE_WEIGHT, 1.0),
        minlength=world.n_locations,
    )
    count_by_loc = np.bincount(loc[loc >= 0], minlength=world.n_locations)

    sus_ids = np.flatnonzero(comp == Compartment.SUSCEPTIBLE)
    draws = rng.random(sus_ids.size)
    loaded = weight_by_loc[loc[sus_ids]] > 0
    sus_ids, draws = sus_ids[loaded], draws[loaded]
    if sus_ids.size == 0:
        return 0
    sus_loc = loc[sus_ids]
    p = infection_probability(
        world.transmissibility[sus_ids], weight_by_loc[sus_loc], count_by_loc[sus_loc]
    )
    newly = sus_ids[draws < p]
    if newly.size == 0:
        return 0
    listed = world.susceptible_ids
    listed_at = None if listed is None else listed.searchsorted(newly)
    _enter(world, newly, Compartment.SUSCEPTIBLE, Compartment.EXPOSED, params, rng, listed_at)
    return int(newly.size)


def vaccination_day_step_by_mask(world, schedule, policy, day, order):
    """One day of doses, eligibility built from one population-wide mask
    per open stratum. `order(ids, budget)` returns the queue of eligible
    ids the doses are handed out from, front first."""
    doses_today = sum(spec.daily_doses for spec in policy.specs)
    if doses_today == 0:
        return 0
    active = [window_active(w, day) for w in schedule.vax_windows]
    if not any(active):
        return 0
    cap = int(np.floor(policy.coverage_cap * world.population))
    budget = min(cap - int(world.vaccinated.sum()), doses_today)
    if budget <= 0:
        return 0
    comp = world.compartment
    alive = comp != Compartment.DECEASED
    eligible = alive & ~world.vaccinated & (comp != Compartment.HOSPITALIZED)
    in_window = np.zeros(world.population, dtype=bool)
    for (lo, hi), is_active in zip(AGE_STRATA, active):
        if is_active:
            in_window |= (world.age >= lo) & (world.age <= hi)
    ids = np.flatnonzero(eligible & in_window)
    if ids.size == 0:
        return 0
    queue = order(ids, budget)
    given = 0
    for spec in policy.specs:
        take = min(spec.daily_doses, budget - given, queue.size - given)
        if take > 0:
            apply_vaccine_effects(world, queue[given : given + take], spec.effectiveness)
            given += take
    return given


def vaccination_day_step_shuffling(world, schedule, policy, day, rng):
    return vaccination_day_step_by_mask(
        world, schedule, policy, day, lambda ids, budget: rng.permutation(ids)
    )
