"""Household ledger economy.

Each house holds savings and a fixed daily income, both drawn once at
setup. The head earns the income each day unless they are dead, too sick
to work, or kept home by a lockdown; living members each consume a fixed
daily expense. Money is stored as integer hundredths of a unit so replays
are bit-exact, and savings may go negative (debt).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .epidemic import _INFECTED_MILD, _RECOVERED
from .world import WorldState

CENTS = 100


@dataclass(frozen=True)
class EconomyConfig:
    savings_mean: float = 500.0
    savings_sd: float = 350.0
    income_mean: float = 100.0
    income_sd: float = 30.0
    expense_per_person: float = 10.0
    poverty_line: float = 100.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")


def init_house_ledgers(
    world: WorldState, config: EconomyConfig, rng: np.random.Generator
) -> None:
    """Draw initial savings and daily income per house (both clamped at 0)."""
    h = world.n_houses
    savings = np.maximum(rng.normal(config.savings_mean, config.savings_sd, h), 0.0)
    income = np.maximum(rng.normal(config.income_mean, config.income_sd, h), 0.0)
    world.savings_cents = np.rint(savings * CENTS).astype(np.int64)
    world.income_cents = np.rint(income * CENTS).astype(np.int64)


def economy_day_step(world: WorldState, config: EconomyConfig, lockdown_active: bool) -> None:
    """Post one day of income and expenses to every house.

    The head earns iff alive, not symptomatic or hospitalized, and either
    no lockdown applies or they commute under it (`world.head_commutes`:
    essential workers and violators). Expenses are charged per living
    member (`world.live_members`). Call exactly once per simulated day.
    """
    head_comp = world.compartment.take(world.house_head)

    # The head earns while `epidemic._SEAT` sits it at its well places.
    earning = (head_comp < _INFECTED_MILD) | (head_comp == _RECOVERED)
    if lockdown_active:
        earning &= world.head_commutes

    expense_cents = int(round(config.expense_per_person * CENTS))
    world.savings_cents += world.income_cents * earning
    world.savings_cents -= world.live_members * expense_cents


def below_poverty_count(world: WorldState, config: EconomyConfig) -> int:
    """Living agents in houses whose savings sit strictly below the line."""
    line_cents = int(round(config.poverty_line * CENTS))
    return int(np.dot(world.live_members, world.savings_cents < line_cents))
