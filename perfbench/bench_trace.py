"""Per-layer spans and counters, recorded from outside the package.

Each layer's public functions are wrapped where their caller looks them
up: `env`, `ddpg` and `harness` bind their callees by name at import, so
the wrapper replaces `epidemictrl.env.exposure_step`, not
`epidemictrl.epidemic.exposure_step`. Methods are wrapped on their class.

A wrapper times only the wrapped call. Its optional hooks, which count
work (susceptible agents checked, transitions made, doses offered), run
outside that interval; their cost is kept apart as bookkeeping so that
the caller's self time is not inflated by it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

EPISODE = "env.episode"
TRAIN = "harness.run_experiment"

#: Layers called directly by `run_episode`; their times plus the episode's
#: self time and the tracer's bookkeeping make up the episode time.
EPISODE_LAYERS = (
    "world.synthesize_s",
    "world.movement_s",
    "world.census_s",
    "epidemic.exposure_s",
    "epidemic.progression_s",
    "epidemic.seed_s",
    "economy.init_s",
    "economy.day_step_s",
    "economy.poverty_census_s",
    "interventions.vaccination_s",
)


class _Frame:
    __slots__ = ("metric", "inner")

    def __init__(self, metric: str):
        self.metric = metric
        self.inner = 0.0  # children's time plus their bookkeeping


class Tracer:
    """Inclusive time, calls and self time per metric, plus hook counters.

    A span directly inside a span of the same metric (for example
    `critic_step` called from `train_step`) is not counted a second time.
    """

    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # every call's duration, for episodes and training runs only
        self.durations: dict[str, list[float]] = {EPISODE: [], TRAIN: []}
        # parent metric -> child metric -> time spent in that child
        self.child_time: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        # parent metric -> bookkeeping of its direct children
        self.bookkeeping: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, name, metric, before=None, after=None):
        """Replace `owner.name` by a timed wrapper.

        `before(*args, **kwargs)` returns a state that is handed, with the
        call's result, to `after(state, result)`. Both run untimed.
        """
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            state = before(*args, **kwargs) if before is not None else None
            parent = stack[-1] if stack else None
            frame = _Frame(metric)
            stack.append(frame)
            t1 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
            if after is not None:
                after(state, result)
            t3 = perf_counter()
            elapsed = t2 - t1
            self.self_time[metric] += elapsed - frame.inner
            if parent is None or parent.metric != metric:
                self.time[metric] += elapsed
                self.calls[metric] += 1
                if metric in self.durations:
                    self.durations[metric].append(elapsed)
            if parent is not None:
                bookkeeping = (t1 - t0) + (t3 - t2)
                parent.inner += elapsed + bookkeeping
                self.child_time[parent.metric][metric] += elapsed
                self.bookkeeping[parent.metric] += bookkeeping
            return result

        wrapper.__wrapped__ = original
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Put every wrapped name back, last wrapped first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def episode_accounting_errors(self) -> list[str]:
        """Check that the episode-layer times account for the episode time.

        Every episode layer must have run only inside episodes, nothing
        else may have run directly inside an episode, and the layers plus
        the episode's self time and bookkeeping must add up to it.
        """
        errors = []
        children = self.child_time[EPISODE]
        stray = sorted(set(children) - set(EPISODE_LAYERS))
        if stray:
            errors.append(f"untracked layers inside episodes: {stray}")
        for metric in EPISODE_LAYERS:
            if not np.isclose(self.time[metric], children.get(metric, 0.0), rtol=1e-12, atol=0.0):
                errors.append(f"{metric} also ran outside an episode")
        if self.self_time[EPISODE] < 0:
            errors.append("episode self time is negative")
        parts = sum(children.values()) + self.self_time[EPISODE] + self.bookkeeping[EPISODE]
        if not np.isclose(parts, self.time[EPISODE], rtol=1e-9, atol=1e-9):
            errors.append(
                f"layers, self time and bookkeeping sum to {parts:.6f} s, "
                f"episodes took {self.time[EPISODE]:.6f} s"
            )
        return errors


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics name, with their counters."""
    from epidemictrl import ddpg, env, harness, neural, world
    from epidemictrl.epidemic import TIMED_COMPARTMENTS, Compartment

    counts = tracer.counts
    susceptible = int(Compartment.SUSCEPTIBLE)
    is_timed = np.zeros(len(Compartment), dtype=bool)
    is_timed[[int(c) for c in TIMED_COMPARTMENTS]] = True

    def exposure_before(w, params, rng):
        return int(np.count_nonzero(w.compartment == susceptible))

    def exposure_after(checked, new):
        counts["epidemic.susceptible_checks"] += checked
        counts["epidemic.new_exposures"] += new

    def progression_before(w, params, rng):
        before = w.compartment.copy()
        return w, before, int(np.count_nonzero(is_timed[before]))

    def progression_after(state, _):
        w, before, timed_agents = state
        counts["epidemic.timed_agent_ticks"] += timed_agents
        counts["epidemic.transitions"] += int(np.count_nonzero(before != w.compartment))

    def vaccination_before(w, schedule, policy, day, rng):
        open_window = any(start <= day < end for start, end in schedule.vax_windows)
        return sum(s.daily_doses for s in policy.specs) if open_window else 0

    def vaccination_after(offered, given):
        counts["interventions.doses_offered"] += offered
        counts["interventions.doses"] += given

    tracer.wrap(env, "synthesize_population", "world.synthesize_s")
    tracer.wrap(env, "apply_movement", "world.movement_s")
    tracer.wrap(world.WorldState, "compartment_counts", "world.census_s")
    tracer.wrap(env, "exposure_step", "epidemic.exposure_s", exposure_before, exposure_after)
    tracer.wrap(
        env, "progression_step", "epidemic.progression_s", progression_before, progression_after
    )
    tracer.wrap(env, "seed_initial_infections", "epidemic.seed_s")
    tracer.wrap(env, "init_house_ledgers", "economy.init_s")
    tracer.wrap(env, "economy_day_step", "economy.day_step_s")
    tracer.wrap(env, "below_poverty_count", "economy.poverty_census_s")
    tracer.wrap(
        env,
        "vaccination_day_step",
        "interventions.vaccination_s",
        vaccination_before,
        vaccination_after,
    )

    tracer.wrap(env.EpidemicTask, "rollout", "ddpg.rollout_s")
    tracer.wrap(ddpg.ActorCritic, "critic_step", "ddpg.learner_s")
    tracer.wrap(ddpg.ActorCritic, "train_step", "ddpg.learner_s")
    tracer.wrap(ddpg, "evaluate", "ddpg.evaluate_s")
    tracer.wrap(harness, "evaluate", "ddpg.evaluate_s")

    tracer.wrap(neural.Mlp, "forward", "neural.forward_s")
    tracer.wrap(neural.Mlp, "forward_cached", "neural.forward_s")
    tracer.wrap(neural.Mlp, "backward", "neural.backward_s")
    tracer.wrap(neural.Adam, "update", "neural.adam_s")

    tracer.wrap(harness, "run_traces", "harness.comparison_s")
    for name in (
        "write_trace_csv",
        "write_comparison_csv",
        "write_summary_csv",
        "write_series_plots",
        "save_mlp",
    ):
        tracer.wrap(harness, name, "harness.io_s")
    tracer.wrap(ddpg.TrainLog, "to_csv", "harness.io_s")
