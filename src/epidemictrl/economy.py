"""Household ledger economy.

Each house holds savings and a fixed daily income, both drawn once at
setup. The head earns the income each day unless they are dead, too sick
to work, or kept home by a lockdown; living members each consume a fixed
daily expense. Money is stored as integer hundredths of a unit so replays
are bit-exact, and savings may go negative (debt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epidemic import Compartment
from .world import WorldState

CENTS = 100

# Plain ints for the per-tick code (see epidemic.py).
_INFECTED_MILD = int(Compartment.INFECTED_MILD)
_RECOVERED = int(Compartment.RECOVERED)
_DECEASED = int(Compartment.DECEASED)


@dataclass(frozen=True)
class EconomyConfig:
    savings_mean: float = 500.0
    savings_sd: float = 350.0
    income_mean: float = 100.0
    income_sd: float = 30.0
    expense_per_person: float = 10.0
    poverty_line: float = 100.0

    def __post_init__(self) -> None:
        for name in (
            "savings_mean",
            "savings_sd",
            "income_mean",
            "income_sd",
            "expense_per_person",
            "poverty_line",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def init_house_ledgers(
    world: WorldState, config: EconomyConfig, rng: np.random.Generator
) -> None:
    """Draw initial savings and daily income per house (both clamped at 0)."""
    h = world.n_houses
    savings = np.maximum(rng.normal(config.savings_mean, config.savings_sd, h), 0.0)
    income = np.maximum(rng.normal(config.income_mean, config.income_sd, h), 0.0)
    world.savings_cents = np.rint(savings * CENTS).astype(np.int64)
    world.income_cents = np.rint(income * CENTS).astype(np.int64)
    world.economy_config = config


def _require_ledgers(world: WorldState) -> EconomyConfig:
    if world.savings_cents is None or world.economy_config is None:
        raise RuntimeError("house ledgers not initialized; call init_house_ledgers")
    return world.economy_config


def _live_members(world: WorldState) -> np.ndarray:
    """Living members per house: each house's size less its deceased.

    Houses are filled in id order, so every house holds `household_size`
    agents but the last, which holds the remainder. Only the deceased are
    counted, which is far fewer agents than the living.
    """
    hs = world.config.household_size
    members = np.full(world.n_houses, hs, dtype=np.int64)
    members[-1] = world.population - (world.n_houses - 1) * hs
    dead = (world.compartment == _DECEASED).nonzero()[0]
    if dead.size:
        members -= np.bincount(world.house_id.take(dead), minlength=world.n_houses)
    return members


def economy_day_step(world: WorldState, lockdown_active: bool) -> None:
    """Post one day of income and expenses to every house.

    The head earns iff alive, not symptomatic or hospitalized, and either
    no lockdown applies or they are essential or a violator. Expenses are
    charged per living member. Call exactly once per simulated day.
    """
    config = _require_ledgers(world)
    head = world.house_head
    head_comp = world.compartment.take(head)

    # Too sick to earn: InfectedMild to Hospitalized, or Deceased.
    earning = (head_comp < _INFECTED_MILD) | (head_comp == _RECOVERED)
    if lockdown_active:
        earning &= world.is_essential.take(head) | world.is_violator.take(head)

    expense_cents = int(round(config.expense_per_person * CENTS))
    world.savings_cents += (
        np.where(earning, world.income_cents, 0)
        - expense_cents * _live_members(world)
    )


def below_poverty_count(world: WorldState) -> int:
    """Living agents in houses whose savings sit strictly below the line."""
    config = _require_ledgers(world)
    line_cents = int(round(config.poverty_line * CENTS))
    poor = world.savings_cents < line_cents
    return int(_live_members(world)[poor].sum())
