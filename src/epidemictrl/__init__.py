"""Agent-based epidemic simulator with a DDPG schedule optimizer."""

from .ddpg import DdpgHyperParams, evaluate, train
from .economy import EconomyConfig, below_poverty_count, economy_day_step
from .env import (
    EpidemicTask,
    EpisodeTrace,
    ExperimentConfig,
    economy_reward,
    health_reward,
    run_episode,
    total_reward,
)
from .epidemic import Compartment, DiseaseParams
from .interventions import (
    InterventionSchedule,
    VaccinationPolicyConfig,
    VaccineSpec,
    decode_action,
    lockdown_active,
)
from .rng import RngStreams
from .world import WorldConfig, WorldState, synthesize_population

__version__ = "0.1.0"

__all__ = [
    "Compartment",
    "DdpgHyperParams",
    "DiseaseParams",
    "EconomyConfig",
    "EpidemicTask",
    "EpisodeTrace",
    "ExperimentConfig",
    "InterventionSchedule",
    "RngStreams",
    "VaccinationPolicyConfig",
    "VaccineSpec",
    "WorldConfig",
    "WorldState",
    "below_poverty_count",
    "decode_action",
    "economy_day_step",
    "economy_reward",
    "evaluate",
    "health_reward",
    "lockdown_active",
    "run_episode",
    "synthesize_population",
    "total_reward",
    "train",
]
