"""The benchmark's workloads: the inputs they generate and how outputs are checked.

All workloads are closed-loop and single-process: one episode (or one
training run) at a time, the next starting when the previous one ends.
The program only ever sees the generated config, schedule and seeds; the
workload seed itself stays here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from epidemictrl import harness
from epidemictrl.ddpg import DdpgHyperParams
from epidemictrl.env import EpidemicTask

#: Training iterations of one `train-2k` run: enough for four evaluations and
#: nine learner iterations once the replay buffer holds a 32-transition
#: batch, while one run (130 episodes) takes about 10 s on two cores.
TRAIN_ITERATIONS = 40
#: Comparison seeds per policy in `run_experiment` (the CLI default count).
COMPARISON_SEEDS = 5
#: Episodes hashed into a workload's trace digest; every run holds at least these.
DIGEST_EPISODES = 3


@dataclass(frozen=True)
class Workload:
    experiment: int
    scenario: int
    population: int
    baseline: str | None  # None: a full `run_experiment` training run


WORKLOADS = {
    # The paper's full scale: experiment 1 (15% initially infected) with no
    # intervention. A large epidemic makes the per-agent array kernels
    # dominate (exposure ~45%, progression ~28%, movement ~11%, economy ~7%,
    # census ~4%). Lockdown and vaccination do no work here, so this is the
    # bypass case for them and for fixed per-call overhead.
    "nolnov-100k": Workload(1, 1, 100_000, "NoL_NoV"),
    # The default desk scale with lockdown and vaccination active every day
    # (9,000 doses, reaching the coverage cap) and a small epidemic (~500
    # ever infected), so progression scans a mostly untimed population and
    # vaccination does its work: the same layers used differently from
    # nolnov-100k.
    "lockvax-10k": Workload(2, 1, 10_000, "FullL_FullV"),
    # What `epidemictrl train` users wait for: `run_experiment` with default
    # hyperparameters. Episodes are short (~80 ms), so fixed per-tick and
    # per-call overhead dominates. The only workload that exercises ddpg,
    # neural and the harness's output files, and the one where batching
    # replicate episodes would show.
    "train-2k": Workload(2, 1, 2_000, None),
}


@dataclass
class Inputs:
    """Everything the program receives for one workload seed."""

    workload: Workload
    config: object
    schedule: object | None
    task: EpidemicTask | None  # built as part of set-up, as `train` does
    hyper: DdpgHyperParams | None
    comparison_seeds: list[int]
    seed_stream: np.random.SeedSequence

    def episode_seeds(self):
        """Endless deterministic episode seeds; each call restarts the stream."""
        rng = np.random.default_rng(self.seed_stream)
        while True:
            yield int(rng.integers(0, 2**31 - 1))


def build_inputs(name: str, seed: int) -> Inputs:
    """Generate a workload's config, schedule or training setup from its seed."""
    w = WORKLOADS[name]
    config = harness.experiment_config(w.experiment, w.scenario, w.population)
    episodes, training = np.random.SeedSequence(seed).spawn(2)
    if w.baseline is not None:
        schedule = harness.baseline_schedule(
            harness.parse_baseline(w.baseline), config.world.episode_days
        )
        return Inputs(w, config, schedule, None, None, [], episodes)
    draws = np.random.default_rng(training).integers(
        0, 2**31 - 1, size=1 + COMPARISON_SEEDS
    )
    hyper = DdpgHyperParams(seed=int(draws[0]), train_iterations=TRAIN_ITERATIONS)
    task = EpidemicTask(config, seed_base=hyper.seed)
    return Inputs(w, config, None, task, hyper, [int(s) for s in draws[1:]], episodes)


def trace_failures(config, schedule, trace) -> list[str]:
    """Correctness checks every episode's trace must pass."""
    pop = config.world.population_size
    days = config.world.episode_days
    failures = []
    if trace.compartments.shape[0] != days + 1 or trace.doses.shape != (days + 1,):
        return [f"trace has {trace.compartments.shape[0]} rows, expected {days + 1}"]
    if (trace.compartments.sum(axis=1) != pop).any():
        failures.append("a daily row of compartments does not sum to the population")
    if (np.diff(trace.deceased) < 0).any():
        failures.append("deceased decreased")
    if (np.diff(trace.ever_infected) < 0).any():
        failures.append("ever_infected decreased")
    if (trace.doses < 0).any():
        failures.append("negative doses")
    cap = math.floor(config.vaccination.coverage_cap * pop)
    if int(trace.doses.sum()) > cap:
        failures.append(f"{int(trace.doses.sum())} doses exceed the cap of {cap}")
    # doses[d + 1] were given on day d.
    open_days = np.array(
        [any(start <= d < end for start, end in schedule.vax_windows) for d in range(days)]
    )
    if trace.doses[0] != 0 or (trace.doses[1:][~open_days] != 0).any():
        failures.append("doses given on a day with no vaccination window open")
    return failures


def trace_digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        for array in (t.compartments, t.below_poverty, t.doses):
            h.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    return h.hexdigest()


def actor_digest(actor) -> str:
    h = hashlib.sha256()
    for p in actor.parameters():
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return h.hexdigest()


def digest_of(hex_digests) -> str:
    """One digest over a sequence of digests, order included."""
    return hashlib.sha256("".join(hex_digests).encode()).hexdigest()
