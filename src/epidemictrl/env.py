"""Episode environment: run a full epidemic under a schedule, score it.

One episode is one reinforcement-learning step: the whole intervention
schedule is a single action and the reward is terminal. Each simulated day
runs two ticks of movement -> exposure -> progression, then the daily
economy and vaccination steps, and appends one row to the trace.

Rewards follow the two penalty series: health is -(max + mean) of the
daily mild-infected plus hospitalized counts, economy is -(max + mean) of
the daily below-poverty-line count, combined as health + kappa * economy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .economy import (
    CENTS,
    EconomyConfig,
    below_poverty_count,
    economy_day_step,
    init_house_ledgers,
)
from .epidemic import (
    TICKS_PER_DAY,
    Compartment,
    DiseaseParams,
    agent_transmissibility,
    exposure_step,
    progression_step,
    seed_initial_infections,
)
from .interventions import (
    ACTION_DIM,
    InterventionSchedule,
    VaccinationPolicyConfig,
    decode_action,
    lockdown_active,
    vaccination_day_step,
)
from .rng import RngStreams
from .world import WorldConfig, apply_movement, synthesize_population

OBSERVATION_DIM = 6


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one episode needs: world, disease, economy, vaccines,
    the initial infection share and the reward mix."""

    world: WorldConfig = field(default_factory=WorldConfig)
    disease: DiseaseParams = field(default_factory=DiseaseParams)
    economy: EconomyConfig = field(default_factory=EconomyConfig)
    vaccination: VaccinationPolicyConfig = field(default_factory=VaccinationPolicyConfig)
    initial_infection_fraction: float = 0.15
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.initial_infection_fraction <= 1.0:
            raise ValueError("initial_infection_fraction must lie in [0, 1]")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        # The int64 cents ledgers hold any balance the episode can reach:
        # savings 10 sd above the mean, moved every day by the most a day
        # can earn or spend.
        econ, days = self.economy, self.world.episode_days
        members = min(self.world.household_size, self.world.population_size)
        daily = econ.income_mean + 10 * econ.income_sd + members * econ.expense_per_person
        reach = econ.savings_mean + 10 * econ.savings_sd + days * daily
        if max(reach, econ.poverty_line) * CENTS >= 2**62:
            raise ValueError(
                f"economy amounts could overflow the int64 cents ledgers within {days} days: "
                f"a reachable balance of {reach:.3g} and the poverty line {econ.poverty_line:.3g} "
                f"must stay under {2**62 / CENTS:.3g}"
            )


@dataclass
class EpisodeTrace:
    """Per-day series over an episode; row 0 is the pre-dynamics state."""

    population: int
    compartments: np.ndarray  # (days + 1, 9) agent counts
    below_poverty: np.ndarray  # (days + 1,)
    doses: np.ndarray  # (days + 1,) dispensed during each day

    @property
    def days(self) -> int:
        return self.compartments.shape[0] - 1

    @property
    def susceptible(self) -> np.ndarray:
        return self.compartments[:, Compartment.SUSCEPTIBLE]

    @property
    def infected_mild(self) -> np.ndarray:
        return self.compartments[:, Compartment.INFECTED_MILD]

    @property
    def hospitalized(self) -> np.ndarray:
        return self.compartments[:, Compartment.HOSPITALIZED]

    @property
    def deceased(self) -> np.ndarray:
        return self.compartments[:, Compartment.DECEASED]

    @property
    def ever_infected(self) -> np.ndarray:
        """Cumulative count of agents that ever left Susceptible."""
        return self.population - self.susceptible


def observation(config: ExperimentConfig) -> np.ndarray:
    """Normalized 6-vector describing one experiment; constant per episode."""
    pop = config.world.population_size
    v1, v2 = config.vaccination.specs
    return np.array(
        [
            config.initial_infection_fraction,
            v1.effectiveness,
            v1.daily_doses / pop,
            v2.effectiveness,
            v2.daily_doses / pop,
            config.kappa / 5.0,
        ],
        dtype=np.float64,
    )


def run_episode(
    config: ExperimentConfig, schedule: InterventionSchedule, seed: int
) -> EpisodeTrace:
    """Simulate one full episode under the given schedule and seed."""
    days = config.world.episode_days
    schedule.validate_horizon(days)

    streams = RngStreams.from_seed(seed)
    world = synthesize_population(config.world, streams)
    world.transmissibility = agent_transmissibility(world, config.disease)
    init_house_ledgers(world, config.economy, streams.economy)
    seed_initial_infections(
        world, config.disease, config.initial_infection_fraction, streams.disease
    )

    compartments = np.zeros((days + 1, len(Compartment)), dtype=np.int64)
    below_poverty = np.zeros(days + 1, dtype=np.int64)
    doses = np.zeros(days + 1, dtype=np.int64)
    compartments[0] = world.compartment_counts()
    below_poverty[0] = below_poverty_count(world, config.economy)

    for day in range(days):
        locked = lockdown_active(schedule, day)
        for _ in range(TICKS_PER_DAY):
            apply_movement(world, locked)
            exposure_step(world, config.disease, streams.disease)
            progression_step(world, config.disease, streams.disease)
            world.tick += 1
        economy_day_step(world, config.economy, locked)
        doses[day + 1] = vaccination_day_step(
            world, schedule, config.vaccination, day, streams.vaccination
        )
        compartments[day + 1] = world.compartment_counts()
        below_poverty[day + 1] = below_poverty_count(world, config.economy)

    return EpisodeTrace(
        population=world.population,
        compartments=compartments,
        below_poverty=below_poverty,
        doses=doses,
    )


def health_reward(trace: EpisodeTrace) -> float:
    """-(max + mean) of the daily mild-infected plus hospitalized series."""
    series = trace.infected_mild + trace.hospitalized
    return -(float(series.max()) + float(series.mean()))


def economy_reward(trace: EpisodeTrace) -> float:
    """-(max + mean) of the daily below-poverty-line series."""
    series = trace.below_poverty
    return -(float(series.max()) + float(series.mean()))


def total_reward(health: float, economy: float, kappa: float) -> float:
    return health + kappa * economy


class EpidemicTask:
    """Adapter between the episode environment and the policy learner.

    Rewards handed to the learner are divided by the population so their
    magnitude stays O(1) regardless of scale; reports and comparisons use
    the raw reward functions above.
    """

    action_dim = ACTION_DIM

    def __init__(self, config: ExperimentConfig, seed_base: int = 0):
        self.config = config
        self.seed_base = seed_base
        self.reward_scale = 1.0 / config.world.population_size
        self._obs = observation(config)

    def observation(self) -> np.ndarray:
        return self._obs.copy()

    def decode(self, action: np.ndarray) -> InterventionSchedule:
        return decode_action(action, horizon_days=self.config.world.episode_days)

    def rollout(self, action: np.ndarray, seed: int) -> float:
        trace = run_episode(self.config, self.decode(action), seed)
        reward = total_reward(
            health_reward(trace), economy_reward(trace), self.config.kappa
        )
        return reward * self.reward_scale
