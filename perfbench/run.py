"""Benchmark for epidemictrl: episode and training throughput, and where the time goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The package is imported from that
tree's `src/`, never from an installed copy. `--trace 0` measures the
end-to-end metrics with no per-layer tracing. `--trace 1` runs each
episode (or training run) twice, untraced and then traced, and reports the
per-layer metrics from the traced runs and the tracing overhead from the
pairs.

Every episode's trace is checked (conservation, monotone deaths and
infections, the vaccination cap, no doses outside a window), and a
repeated seed must give an identical trace. Human-readable lines come
first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Workers and BLAS are fixed at one thread each: every workload is a
closed loop of one episode or training run at a time in one process.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
WORKLOAD_NAMES = ("nolnov-100k", "lockvax-10k", "train-2k")
THREAD_VARS = (
    "EPIDEMICTRL_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
)
SETUP_PROBES = 7
# p90 is reported only with at least ten episodes beyond it.
P90_MIN_EPISODES = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_window(budget: float, min_units: int, unit) -> None:
    """Call unit() back to back for about `budget` seconds.

    After the first `min_units`, a unit starts only while the median unit
    so far still fits in the budget.
    """
    durations: list[float] = []
    start = perf_counter()
    while len(durations) < min_units or (
        perf_counter() - start + statistics.median(durations) <= budget
    ):
        t0 = perf_counter()
        unit()
        durations.append(perf_counter() - t0)


class EpisodeLog:
    """Checks and digests every episode `run_episode` returns, wherever called."""

    def __init__(self, workloads):
        self.w = workloads
        self.attempted = 0
        self.failed_checks = 0
        self.messages: list[str] = []
        self.digests: list[str] = []

    def before(self, config, schedule, seed):
        self.attempted += 1
        return config, schedule, seed

    def after(self, state, trace):
        config, schedule, seed = state
        self.digests.append(self.w.trace_digest([trace]))
        failures = self.w.trace_failures(config, schedule, trace)
        if failures:
            self.fail(f"episode seed {seed}: " + "; ".join(failures))

    def fail(self, message: str) -> None:
        self.failed_checks += 1
        self.messages.append(message)

    @property
    def failed(self) -> int:
        """Episodes that raised, failed a check or did not repeat exactly."""
        return self.attempted - len(self.digests) + self.failed_checks


class EpisodeRunner:
    """One `run_episode` per unit; a seed seen before must repeat its trace."""

    attempted = failed = 0  # units other than episodes

    def __init__(self, inputs, workloads, log):
        self.inputs, self.w, self.log = inputs, workloads, log
        self.first_digest: dict[int, str] = {}

    def keys(self):
        return self.inputs.episode_seeds()

    def run(self, seed: int) -> None:
        from epidemictrl import env

        done = len(self.log.digests)
        try:
            env.run_episode(self.inputs.config, self.inputs.schedule, seed)
        except Exception as exc:  # the log counts it as a failed episode
            self.log.messages.append(f"episode seed {seed} raised {exc!r}")
            return
        digest = self.log.digests[done]
        if self.first_digest.setdefault(seed, digest) != digest:
            self.log.fail(f"episode seed {seed} gave a different trace when repeated")

    def digest(self) -> str:
        first = itertools.islice(self.first_digest.values(), self.w.DIGEST_EPISODES)
        return self.w.digest_of(first)


class TrainRunner:
    """One `run_experiment` (train, evaluate, compare, write outputs) per unit.

    Every run uses the same seeds, so all of them must produce the same
    episodes and the same actor.
    """

    def __init__(self, inputs, workloads, log):
        self.inputs, self.w, self.log = inputs, workloads, log
        self.attempted = 0
        self.failed = 0
        self.io_bytes: list[int] = []
        self.first: tuple[str, str] | None = None

    def keys(self):
        return itertools.repeat(None)

    def run(self, _) -> None:
        from epidemictrl import harness
        from epidemictrl.neural import load_mlp

        inputs = self.inputs
        self.attempted += 1
        WORK.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=WORK))
        first_episode = len(self.log.digests)
        failures: list[str] = []
        try:
            report = harness.run_experiment(
                inputs.workload.experiment,
                inputs.workload.scenario,
                hyper=inputs.hyper,
                comparison_seeds=inputs.comparison_seeds,
                out_dir=out,
                config=inputs.config,
            )
            actor, _ = load_mlp(out / "actor.ckpt")
            if self.w.actor_digest(actor) != self.w.actor_digest(report.actor):
                failures.append("checkpoint does not load back to the trained actor")
            with open(out / "training_log.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            iterations = inputs.hyper.train_iterations
            if len(rows) != iterations or report.log.iterations != list(range(1, iterations + 1)):
                failures.append(f"training log has {len(rows)} rows for {iterations} iterations")
            if not math.isfinite(report.eval_mean):
                failures.append(f"evaluation mean {report.eval_mean} is not finite")
            self.io_bytes.append(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
            outcome = (
                self.w.digest_of(self.log.digests[first_episode:]),
                self.w.actor_digest(report.actor),
            )
            if self.first is None:
                self.first = outcome
            elif outcome != self.first:
                failures.append("a repeated training run gave different traces or actor")
        except Exception as exc:  # counted as a failed training run
            failures.append(f"raised {exc!r}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:  # another run is still using it
                pass
        if failures:
            self.failed += 1
            self.log.messages.extend(f"training run {self.attempted}: {f}" for f in failures)

    def digest(self) -> str:
        return self.w.digest_of(self.first) if self.first else ""


@contextmanager
def tracing(tracer, log, layers: bool):
    """Wrap episodes and training runs (and, if asked, every layer) meanwhile."""
    import bench_trace
    from epidemictrl import env, harness

    for module in (env, harness):
        tracer.wrap(module, "run_episode", bench_trace.EPISODE, log.before, log.after)
    tracer.wrap(harness, "run_experiment", bench_trace.TRAIN)
    if layers:
        bench_trace.install_layers(tracer)
    try:
        yield
    finally:
        tracer.restore()


def setup_probe(args) -> int:
    """Time, in this fresh process, importing the package and building inputs."""
    t0 = perf_counter()
    import bench_workloads

    bench_workloads.build_inputs(args.workload, args.seed)
    print(repr(perf_counter() - t0))
    return 0


def measure_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment_facts() -> dict:
    import numpy

    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            revision = done.stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            pass
    facts = {
        "git_revision": revision,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    facts.update({var: os.environ.get(var) for var in THREAD_VARS})
    return facts


def per_layer_metrics(tracer, overhead_frac: float, io_bytes: float) -> dict:
    """Engine layers per episode, training layers per training run."""
    from bench_trace import EPISODE, TRAIN

    t, calls, counts = tracer.time, tracer.calls, tracer.counts
    episodes, runs = calls[EPISODE], calls[TRAIN]

    def per_episode(x):
        return x / episodes if episodes else 0.0

    def per_run(x):
        return x / runs if runs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    ep_s, ep_n, run_s, run_n = "s/episode", "count/episode", "s/run", "count/run"
    return {
        "world.synthesize_s": (per_episode(t["world.synthesize_s"]), ep_s),
        "world.movement_s": (per_episode(t["world.movement_s"]), ep_s),
        "world.census_s": (per_episode(t["world.census_s"]), ep_s),
        "epidemic.exposure_s": (per_episode(t["epidemic.exposure_s"]), ep_s),
        "epidemic.susceptible_checks": (per_episode(counts["epidemic.susceptible_checks"]), ep_n),
        "epidemic.new_exposures": (per_episode(counts["epidemic.new_exposures"]), ep_n),
        "epidemic.exposure_hit_ratio": (
            ratio(counts["epidemic.new_exposures"], counts["epidemic.susceptible_checks"]), "ratio"),
        "epidemic.progression_s": (per_episode(t["epidemic.progression_s"]), ep_s),
        "epidemic.timed_agent_ticks": (per_episode(counts["epidemic.timed_agent_ticks"]), ep_n),
        "epidemic.transitions": (per_episode(counts["epidemic.transitions"]), ep_n),
        "epidemic.progression_due_ratio": (
            ratio(counts["epidemic.transitions"], counts["epidemic.timed_agent_ticks"]), "ratio"),
        "epidemic.seed_s": (per_episode(t["epidemic.seed_s"]), ep_s),
        "economy.init_s": (per_episode(t["economy.init_s"]), ep_s),
        "economy.day_step_s": (per_episode(t["economy.day_step_s"]), ep_s),
        "economy.poverty_census_s": (per_episode(t["economy.poverty_census_s"]), ep_s),
        "interventions.vaccination_s": (per_episode(t["interventions.vaccination_s"]), ep_s),
        "interventions.doses": (per_episode(counts["interventions.doses"]), ep_n),
        "interventions.dose_fill_ratio": (
            ratio(counts["interventions.doses"], counts["interventions.doses_offered"]), "ratio"),
        "env.self_s": (per_episode(tracer.self_time[EPISODE]), ep_s),
        "env.ticks": (per_episode(calls["world.movement_s"]), ep_n),
        "ddpg.rollout_s": (per_run(t["ddpg.rollout_s"]), run_s),
        "ddpg.rollouts": (per_run(calls["ddpg.rollout_s"]), run_n),
        "ddpg.learner_s": (per_run(t["ddpg.learner_s"]), run_s),
        "ddpg.updates": (per_run(calls["ddpg.learner_s"]), run_n),
        "ddpg.evaluate_s": (per_run(t["ddpg.evaluate_s"]), run_s),
        "neural.forward_s": (per_run(t["neural.forward_s"]), run_s),
        "neural.forward_calls": (per_run(calls["neural.forward_s"]), run_n),
        "neural.backward_s": (per_run(t["neural.backward_s"]), run_s),
        "neural.backward_calls": (per_run(calls["neural.backward_s"]), run_n),
        "neural.adam_s": (per_run(t["neural.adam_s"]), run_s),
        "neural.adam_calls": (per_run(calls["neural.adam_s"]), run_n),
        "harness.comparison_s": (per_run(t["harness.comparison_s"]), run_s),
        "harness.io_s": (per_run(t["harness.io_s"]), run_s),
        "harness.io_bytes": (io_bytes if runs else 0.0, "B/run"),
        "tracing_overhead_frac": (overhead_frac, "frac"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "epidemictrl" / "__init__.py").is_file():
        print(f"error: no epidemictrl package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    setup = [] if args.trace else measure_setup(args)

    import bench_trace
    import bench_workloads as w
    import epidemictrl

    if Path(epidemictrl.__file__).resolve().parent != SRC / "epidemictrl":
        print(f"error: epidemictrl imported from {epidemictrl.__file__}", file=sys.stderr)
        return 2

    inputs = w.build_inputs(args.workload, args.seed)
    log = EpisodeLog(w)
    training = inputs.hyper is not None
    runner = (TrainRunner if training else EpisodeRunner)(inputs, w, log)
    keys = runner.keys()
    plain, traced = bench_trace.Tracer(), bench_trace.Tracer()

    def run(tracer, key, layers=False):
        with tracing(tracer, log, layers):
            runner.run(key)

    if args.trace:
        def pair():  # the same input untraced, then traced
            key = next(keys)
            run(plain, key)
            run(traced, key, layers=True)

        run_window(args.seconds, 1 if training else w.DIGEST_EPISODES, pair)
    else:
        # Training repeats one seed, so two runs check determinism; episode
        # workloads rerun their first seed once measuring is over.
        run_window(args.seconds, 2 if training else w.DIGEST_EPISODES,
                   lambda: run(plain, next(keys)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not training:
            run(bench_trace.Tracer(), next(runner.keys()))

    episodes = plain.durations[bench_trace.EPISODE]
    train_s = plain.durations[bench_trace.TRAIN]
    p50 = statistics.median(episodes)
    if args.trace:
        log.messages.extend(traced.episode_accounting_errors())
        overhead = statistics.median(traced.durations[bench_trace.EPISODE]) / p50 - 1.0
        io_bytes = statistics.median(runner.io_bytes) if training else 0.0
        metrics = per_layer_metrics(traced, overhead, io_bytes)
    else:
        config = inputs.config
        agent_days = config.world.population_size * config.world.episode_days * len(episodes)
        if training:  # every run does the same work; the median run resists bursts
            throughput = agent_days / len(train_s) / statistics.median(train_s)
        else:
            throughput = agent_days / sum(episodes)
        metrics = {
            "agent_days_per_s": (throughput, "agent-day/s"),
            "episode_s_p50": (p50, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted = log.attempted + runner.attempted
    failed = log.failed + runner.failed
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(environment_facts(), sort_keys=True))
    print(f"info episodes_untraced {len(episodes)}")
    if training:
        print(f"info train_runs_untraced {len(train_s)}")
        print(f"info train_s {statistics.median(train_s):.6g} s")
    if len(episodes) >= P90_MIN_EPISODES:
        print(f"info episode_s_p90 {statistics.quantiles(episodes, n=10)[-1]:.6g} s")
    if args.trace:
        n = traced.calls[bench_trace.EPISODE]
        print(
            f"info traced episode {traced.time[bench_trace.EPISODE] / n:.6g} s = layers "
            f"{sum(traced.child_time[bench_trace.EPISODE].values()) / n:.6g} s + env.self "
            f"{traced.self_time[bench_trace.EPISODE] / n:.6g} s + tracer bookkeeping "
            f"{traced.bookkeeping[bench_trace.EPISODE] / n:.6g} s over {n} episodes"
        )
    print(f"info failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"digest traces sha256 {runner.digest()}")
    for message in log.messages:
        print(f"FAIL {message}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    result = {
        "correct": failed == 0 and not log.messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
