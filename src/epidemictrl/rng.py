"""Named deterministic random streams for one simulation instance.

Each stream owns one aspect of the model (population synthesis, disease
dynamics, ...) so that toggling an intervention never shifts the draws
consumed by an unrelated subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass
class RngStreams:
    population: np.random.Generator
    disease: np.random.Generator
    economy: np.random.Generator
    vaccination: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        children = np.random.SeedSequence(seed).spawn(len(fields(cls)))
        return cls(*(np.random.Generator(np.random.PCG64(c)) for c in children))
