"""Command-line harness: baselines, optimization experiments, reports.

Subcommands:
  simulate   run one fixed baseline schedule over a seed list
  train      optimize a schedule for one experiment/scenario, then compare
             it against all four baselines on matched seeds
  evaluate   score a saved actor checkpoint

Every run writes a resolved-config JSON sidecar next to its outputs so it
can be reproduced exactly. EPIDEMICTRL_THREADS caps how many worker
processes fan out over independent (schedule, seed) episodes.
"""

from __future__ import annotations

import argparse
import csv
import html
import json
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .ddpg import EVAL_REPEATS, DdpgHyperParams, TrainLog, evaluate, train
from .env import (
    OBSERVATION_DIM,
    EpidemicTask,
    EpisodeTrace,
    ExperimentConfig,
    economy_reward,
    health_reward,
    run_episode,
    total_reward,
)
from .interventions import (
    ACTION_DIM,
    AGE_STRATA,
    InterventionSchedule,
    VaccinationPolicyConfig,
    VaccineSpec,
)
from .neural import Mlp, load_mlp, save_mlp
from .world import WorldConfig

#: Dose availabilities in the experiment table are quoted at this scale and
#: scale linearly with the simulated population.
REFERENCE_POPULATION = 100_000

EXPERIMENT_TABLE: dict[int, dict] = {
    1: {"initial_infection_percent": 15, "v1": (0.8, 450), "v2": (0.6, 450)},
    2: {"initial_infection_percent": 1, "v1": (0.8, 450), "v2": (0.6, 450)},
    3: {"initial_infection_percent": 15, "v1": (0.8, 100), "v2": (0.6, 700)},
    4: {"initial_infection_percent": 1, "v1": (0.8, 100), "v2": (0.6, 700)},
}

SCENARIO_KAPPA = {1: 1.0, 2: 0.2, 3: 5.0}

TRACE_HEADER = (
    "day,susceptible,exposed,asymptomatic,presymptomatic,infected_mild,"
    "infected_severe,hospitalized,recovered,deceased,below_poverty_line,doses_given"
)

SVG_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
)


class ConfigError(ValueError):
    pass


#: The fixed comparison schedules, in report order: each gives its
#: lockdown window in days, clipped to the episode, and whether every age
#: stratum is vaccinated for the whole episode.
BASELINES = {
    "NoL_NoV": ((0.0, 0.0), False),
    "FullL_FullV": ((0.0, math.inf), True),
    "NoL_FullV": ((0.0, 0.0), True),
    "L30_FullV": ((0.0, 30.0), True),
}

#: Comparison seeds when none are given, as `parse_seeds` reads them.
DEFAULT_SEEDS = "0..4"


def parse_baseline(text: str) -> str:
    """The baseline named by `text`, in any letter case."""
    for name in BASELINES:
        if name.lower() == text.lower():
            return name
    raise ConfigError(f"unknown baseline {text!r}; expected one of {', '.join(BASELINES)}")


def baseline_schedule(name: str, episode_days: int = 100) -> InterventionSchedule:
    (start, end), vaccinated = BASELINES[name]
    d = float(episode_days)
    vax = (0.0, d if vaccinated else 0.0)
    return InterventionSchedule((start, min(end, d)), (vax, vax, vax))


# ---------------------------------------------------------------------------
# Config files. The format is the config dataclasses themselves: a nested
# dataclass is an object keyed by field name and a tuple is a list.
# Reading is strict: an unknown key or a wrong-typed value fails with its
# dotted key, and a non-finite number fails too.


def to_dict(obj):
    """A config dataclass as plain JSON data; `from_dict` reads it back."""
    if is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [to_dict(v) for v in obj]
    return obj


def from_dict(cls, data, base=None):
    """Read config dataclass `cls` from JSON data laid over `base`.

    Objects merge onto `base` key by key at every depth, so a partial
    section changes only what it names; lists replace the base value
    whole. Without a base, every field needs a value or a default.
    """
    return _read(cls, data, base, "")


def _read(tp, value, base, key: str):
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise _wrong_type(key, "object", value)
        hints = get_type_hints(tp)
        unknown = sorted(set(value) - {f.name for f in fields(tp)})
        if unknown:
            raise ConfigError(f"unknown {key or 'config'} keys: {unknown}")
        prefix = f"{key}." if key else ""
        changes = {
            name: _read(hints[name], v, getattr(base, name, None), prefix + name)
            for name, v in value.items()
        }
        try:
            return tp(**changes) if base is None else replace(base, **changes)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key or 'config'}: {exc}") from exc
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise _wrong_type(key, "list", value)
        args = get_args(tp)
        types = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(types) != len(value):
            raise ConfigError(f"{key}: expected {len(types)} items, got {len(value)}")
        return tuple(
            _read(t, v, None, f"{key}[{i}]") for i, (t, v) in enumerate(zip(types, value))
        )
    if tp is float and type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an int literal past the float range
            raise ConfigError(f"{key}: integer too large for a float") from None
    if type(value) is tp:  # exact, so a bool is not an int
        return value
    raise _wrong_type(key, tp.__name__, value)


def _wrong_type(key: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{key}: expected {expected}, got {type(value).__name__}")


def load_config_file(path) -> dict:
    def non_finite(name: str):
        raise ConfigError(f"config {path} holds {name}; every number must be finite")

    def finite(text: str) -> float:
        # json reads a literal past the float range, such as 1e400, as inf
        value = float(text)
        if not math.isfinite(value):
            non_finite(text)
        return value

    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=non_finite, parse_float=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:  # also bytes that are not UTF-8, an int past the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply to read") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    from_dict(ExperimentConfig, data, ExperimentConfig())  # fail before any run
    return data


def scaled_doses(doses_at_reference: int, population: int) -> int:
    return int(round(doses_at_reference * population / REFERENCE_POPULATION))


def experiment_config(
    exp_id: int,
    scenario_id: int,
    population: int | None = None,
    file_cfg: dict | None = None,
) -> ExperimentConfig:
    """Build the full episode config for one experiment/scenario pair.

    The experiment table pins the initial infection share and both vaccine
    specs (dose rates scale with population); the scenario picks kappa.
    A config file is laid over that table config, so any value it gives
    wins; vaccine specs it gives are used unscaled. `population`, when
    given, applies last. Any bad value raises ConfigError.
    """
    if exp_id not in EXPERIMENT_TABLE:
        raise ConfigError(f"experiment id must be one of {list(EXPERIMENT_TABLE)}, got {exp_id}")
    if scenario_id not in SCENARIO_KAPPA:
        raise ConfigError(f"scenario id must be one of {list(SCENARIO_KAPPA)}, got {scenario_id}")
    row = EXPERIMENT_TABLE[exp_id]

    def table_config(population: int) -> ExperimentConfig:
        return ExperimentConfig(
            world=WorldConfig(population_size=population),
            vaccination=VaccinationPolicyConfig(
                specs=(
                    VaccineSpec(row["v1"][0], scaled_doses(row["v1"][1], population)),
                    VaccineSpec(row["v2"][0], scaled_doses(row["v2"][1], population)),
                )
            ),
            initial_infection_fraction=row["initial_infection_percent"] / 100.0,
            kappa=SCENARIO_KAPPA[scenario_id],
        )

    file_cfg = file_cfg or {}
    try:
        if population is None:
            # only the file's population; the one build below checks the rest
            world_cfg = file_cfg.get("world")
            population = WorldConfig.population_size
            if isinstance(world_cfg, dict) and "population_size" in world_cfg:
                raw = world_cfg["population_size"]
                population = _read(int, raw, None, "world.population_size")
        # checked before the table scales its doses by it
        if population < 1:
            raise ConfigError(
                f"invalid config: world.population_size must be at least 1, got {population}"
            )
        try:  # the table scales its dose rates by it through a float
            table = table_config(population)
        except OverflowError:
            raise ConfigError("invalid config: world.population_size is too large") from None
        config = from_dict(ExperimentConfig, file_cfg, table)
        config = replace(config, world=replace(config.world, population_size=population))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return config


# ---------------------------------------------------------------------------
# Sidecar, trace and plot emission.


def write_resolved_config(config: ExperimentConfig, out_dir: Path) -> None:
    """The resolved-config sidecar; it loads back unchanged as `--config`."""
    with open(out_dir / "resolved_config.json", "w") as fh:
        json.dump(to_dict(config), fh, indent=2)


def write_trace_csv(trace: EpisodeTrace, path) -> None:
    """One integer row per day 0..episode_days, newline terminated."""
    days = np.arange(trace.days + 1)
    rows = np.column_stack((days, trace.compartments, trace.below_poverty, trace.doses))
    try:
        # Given a path, savetxt opens the file twice and imports gzip: +0.125 MB peak RSS.
        with open(path, "w", newline="") as fh:
            np.savetxt(fh, rows, fmt="%d", delimiter=",", header=TRACE_HEADER, comments="")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def emit_plot_svg(
    series: list[tuple[str, np.ndarray]],
    path,
    title: str = "",
    y_label: str = "",
) -> None:
    """Self-contained SVG line chart: one polyline per labeled series."""
    if not series:
        raise ValueError("at least one series is required")
    width, height = 760, 460
    left, right, top, bottom = 64.0, width - 190.0, 48.0, height - 56.0
    n = max(len(ys) for _, ys in series)
    if n < 1:
        raise ValueError("series must not be empty")
    y_max = max(1e-9, max(float(np.max(ys)) for _, ys in series))
    y_min = min(0.0, min(float(np.min(ys)) for _, ys in series))
    span = (y_max - y_min) or 1.0

    def sx(i: float) -> float:
        return left + (right - left) * (i / max(1, n - 1))

    def sy(v: float) -> float:
        return bottom - (bottom - top) * ((v - y_min) / span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{(left + right) / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{html.escape(title, quote=False)}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>'
    )
    x_step = max(1, (n - 1) // 10 or 1)
    for day in range(0, n, x_step):
        x = sx(day)
        parts.append(
            f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{bottom + 18}" text-anchor="middle">{day}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{height - 14}" text-anchor="middle">day</text>'
    )
    for k in range(6):
        v = y_min + span * k / 5
        y = sy(v)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">{v:g}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(top + bottom) / 2:.1f})">'
            f"{html.escape(y_label, quote=False)}</text>"
        )
    for k, (label, ys) in enumerate(series):
        color = SVG_PALETTE[k % len(SVG_PALETTE)]
        points = " ".join(
            f"{sx(i):.2f},{sy(float(v)):.2f}" for i, v in enumerate(ys)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = top + 18 * k
        parts.append(
            f'<line x1="{right + 10}" y1="{ly}" x2="{right + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{right + 40}" y="{ly + 4}">{html.escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write plot to {path}: {exc}") from exc


def format_window(window: tuple[float, float]) -> str:
    """The whole days the window covers, half-open like the window: day d
    is covered when start <= d < end, so "days 1-11" covers days 1 to 10."""
    start, end = math.ceil(window[0]), math.ceil(window[1])
    if end <= start:
        return "none"
    return f"days {start}-{end}"


def format_schedule(schedule: InterventionSchedule) -> str:
    parts = [f"lockdown: {format_window(schedule.lockdown)}"]
    parts.extend(
        f"vax {lo}-{hi}: {format_window(w)}"
        for (lo, hi), w in zip(AGE_STRATA, schedule.vax_windows)
    )
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# Episode fan-out and metrics.


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("EPIDEMICTRL_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"EPIDEMICTRL_THREADS must be a positive integer, got {raw!r}")
    return max(1, min(workers, n_jobs))


def run_traces(
    config: ExperimentConfig, jobs: list[tuple[str, InterventionSchedule, int]]
) -> list[tuple[str, int, EpisodeTrace]]:
    """Run labeled (schedule, seed) episodes, optionally across processes."""
    workers = _worker_count(len(jobs))
    labels, schedules, seeds = zip(*jobs)
    configs = [config] * len(jobs)
    if workers == 1:
        traces = map(run_episode, configs, schedules, seeds)
    else:
        # Imported here: it loads about fifty modules a one-process run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run_episode, configs, schedules, seeds))
    return list(zip(labels, seeds, traces))


def trace_metrics(trace: EpisodeTrace, kappa: float) -> dict[str, float]:
    h = health_reward(trace)
    e = economy_reward(trace)
    active = trace.infected_mild + trace.hospitalized
    return {
        "cumulative_infections": float(trace.ever_infected[-1]),
        "peak_infected_mild_hosp": float(active.max()),
        "total_deceased": float(trace.deceased[-1]),
        "peak_below_poverty": float(trace.below_poverty.max()),
        "mean_below_poverty": float(trace.below_poverty.mean()),
        "health_reward": h,
        "economy_reward": e,
        "total_reward": total_reward(h, e, kappa),
    }


def write_comparison_csv(rows: list[dict], path) -> None:
    """One row per episode: policy, seed, then its `trace_metrics`."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def summarize(rows: list[dict]) -> dict[str, dict[str, float]]:
    """Seed count and mean metrics per policy label, in first-seen order."""
    summary: dict[str, dict[str, float]] = {}
    for label in dict.fromkeys(row["policy"] for row in rows):
        group = [row for row in rows if row["policy"] == label]
        means = {
            c: float(np.mean([row[c] for row in group]))
            for c in group[0]
            if c not in ("policy", "seed")
        }
        summary[label] = {"n_seeds": len(group), **means}
    return summary


def write_summary_csv(summary: dict[str, dict[str, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", *next(iter(summary.values()))])
        for label, metrics in summary.items():
            writer.writerow([label, *metrics.values()])


def _mean_series(traces: list[EpisodeTrace], extract) -> np.ndarray:
    return np.mean([extract(t).astype(np.float64) for t in traces], axis=0)


def write_series_plots(
    results: list[tuple[str, int, EpisodeTrace]], out_dir: Path
) -> list[Path]:
    """The figure triplet: below-poverty-line, deceased, total infected."""
    by_label: dict[str, list[EpisodeTrace]] = {}
    for label, _, trace in results:
        by_label.setdefault(label, []).append(trace)
    plots = (
        ("below_poverty_line", lambda t: t.below_poverty, "Below-Poverty-Line"),
        ("deceased", lambda t: t.deceased, "Deceased"),
        ("total_infected", lambda t: t.ever_infected, "Total Infected"),
    )
    written = []
    for stem, extract, label_text in plots:
        series = [
            (label, _mean_series(traces, extract))
            for label, traces in by_label.items()
        ]
        path = out_dir / f"{stem}.svg"
        emit_plot_svg(series, path, title=label_text, y_label=label_text)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# High-level runs.


@dataclass
class Comparison:
    results: list[tuple[str, int, EpisodeTrace]]  # (label, seed, trace)
    summary: dict[str, dict[str, float]]


def compare(
    config: ExperimentConfig,
    schedules: dict[str, InterventionSchedule],
    seeds: list[int],
    out_dir: Path | None = None,
) -> Comparison:
    """Run every labelled schedule on every seed and score the runs.

    With `out_dir`, also write the resolved-config sidecar, one trace CSV
    per run under `traces/`, `comparison.csv`, `summary.csv` and the SVG
    triplet.
    """
    if not schedules or not seeds:
        raise ValueError("compare needs at least one schedule and one seed")
    jobs = [(label, sched, s) for label, sched in schedules.items() for s in seeds]
    results = run_traces(config, jobs)
    rows = [
        {"policy": label, "seed": seed, **trace_metrics(trace, config.kappa)}
        for label, seed, trace in results
    ]
    summary = summarize(rows)
    if out_dir is not None:
        out_dir = Path(out_dir)
        traces_dir = out_dir / "traces"
        traces_dir.mkdir(parents=True, exist_ok=True)
        write_resolved_config(config, out_dir)
        for label, seed, trace in results:
            write_trace_csv(trace, traces_dir / f"trace_{label}_seed{seed}.csv")
        write_comparison_csv(rows, out_dir / "comparison.csv")
        write_summary_csv(summary, out_dir / "summary.csv")
        write_series_plots(results, out_dir)
    return Comparison(results, summary)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    schedule: InterventionSchedule
    eval_mean: float
    eval_sd: float
    log: TrainLog
    summary: dict[str, dict[str, float]]
    actor: Mlp


def run_experiment(
    exp_id: int,
    scenario_id: int,
    hyper: DdpgHyperParams | None = None,
    population: int | None = None,
    comparison_seeds: list[int] | None = None,
    out_dir: Path | None = None,
    config: ExperimentConfig | None = None,
) -> ExperimentReport:
    """Train a policy for one experiment/scenario and compare it with the
    four baselines on matched seeds."""
    if hyper is None:
        hyper = DdpgHyperParams()
    if comparison_seeds is None:
        comparison_seeds = parse_seeds(DEFAULT_SEEDS)
    if config is None:
        config = experiment_config(exp_id, scenario_id, population)

    result = train(EpidemicTask(config, seed_base=hyper.seed), hyper)
    final = result.best_eval
    schedules = {"optimized": final.schedule}
    for name in BASELINES:
        schedules[name] = baseline_schedule(name, config.world.episode_days)
    run = compare(config, schedules, comparison_seeds, out_dir)

    if out_dir is not None:
        out_dir = Path(out_dir)
        result.log.to_csv(out_dir / "training_log.csv")
        save_mlp(
            result.best_actor,
            out_dir / "actor.ckpt",
            seed=hyper.seed,
            step=hyper.train_iterations,
        )

    return ExperimentReport(
        config=config,
        schedule=final.schedule,
        eval_mean=final.mean,
        eval_sd=final.sd,
        log=result.log,
        summary=run.summary,
        actor=result.best_actor,
    )


# ---------------------------------------------------------------------------
# CLI.


def parse_seeds(text: str) -> list[int]:
    """Accept '0..4', '3', or '0,2,5'; anything naming no seed, or a
    negative one (SeedSequence takes none), is an error."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(part) for part in text.split(",") if part.strip()]
    except (ValueError, OverflowError):  # OverflowError: a range too long to list
        seeds = []
    if not seeds or min(seeds) < 0:
        raise ConfigError(
            f"bad seed list {text!r}; expected nonnegative seeds, e.g. 0..4, 3 or 0,2,5"
        )
    return seeds


#: What `compare` writes under `--out`; a `train` run adds its log and
#: checkpoint. `traces/` comes last, so a file that cannot be written
#: leaves no directory behind.
COMPARE_OUTPUTS = (
    "resolved_config.json", "comparison.csv", "summary.csv",
    "below_poverty_line.svg", "deceased.svg", "total_infected.svg", "traces/",
)
TRAIN_OUTPUTS = ("training_log.csv", "actor.ckpt", *COMPARE_OUTPUTS)


def _make_out_dir(out: Path, names: tuple[str, ...]) -> Path:
    """Create `--out` after every other input check and before the first
    episode, and make each of `names` in it, so a path that cannot be a
    directory, or an output name that cannot be written, costs no run. A
    name ending in `/` is a directory, made here; any other is a file,
    opened for appending and removed again if the check created it."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    for name in names:  # an OSError ends the command in one error line
        path = out / name
        if name.endswith("/"):
            path.mkdir(exist_ok=True)
        else:
            existed = path.exists()
            open(path, "a").close()
            if not existed:
                path.unlink()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own errors end in one `error:` line too
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epidemictrl",
        description="Epidemic intervention simulator and policy optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help):
        """The subparser `name`, which calls `run(args)`, with the shared options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--experiment", type=int, default=1, choices=list(EXPERIMENT_TABLE))
        p.add_argument("--scenario", type=int, default=1, choices=list(SCENARIO_KAPPA))
        p.add_argument(
            "--population",
            type=int,
            default=None,
            help=f"agents to simulate (default {WorldConfig.population_size})",
        )
        return p

    p = add_command("simulate", _cmd_simulate, "run a fixed baseline schedule")
    p.add_argument("--baseline", required=True, help=" | ".join(BASELINES))
    p.add_argument("--seeds", default=DEFAULT_SEEDS, help="seed list (default %(default)s)")
    p.add_argument("--out", type=Path, required=True)

    p = add_command("train", _cmd_train, "optimize a schedule and compare to baselines")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--iterations", type=int, default=DdpgHyperParams.train_iterations)
    p.add_argument("--seed", type=int, default=DdpgHyperParams.seed, help="training seed")
    p.add_argument("--seeds", default=DEFAULT_SEEDS, help="comparison seeds (default %(default)s)")

    p = add_command("evaluate", _cmd_evaluate, "score a saved actor checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--repeats", type=int, default=EVAL_REPEATS)
    p.add_argument("--seed", type=int, default=DdpgHyperParams.seed, help="evaluation seed base")
    p.add_argument("--out", type=Path, default=None)
    return parser


def _experiment_config(args) -> ExperimentConfig:
    file_cfg = load_config_file(args.config) if args.config else None
    config = experiment_config(args.experiment, args.scenario, args.population, file_cfg=file_cfg)
    # A world whose frozen (3, population) intp `place` alone outgrows the
    # machine's memory fails here, before `--out` is made.
    place_bytes = 3 * config.world.population_size * np.dtype(np.intp).itemsize
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform cannot report it
        memory = 0
    if 0 < memory < place_bytes:
        raise ConfigError(
            f"invalid config: world.population_size {config.world.population_size} needs "
            f"{place_bytes} bytes for its places alone, more than the {memory} bytes "
            "of memory on this machine"
        )
    return config


def _cmd_simulate(args) -> int:
    _worker_count(1)  # a bad EPIDEMICTRL_THREADS fails before any episode runs
    baseline = parse_baseline(args.baseline)
    config = _experiment_config(args)
    schedule = baseline_schedule(baseline, config.world.episode_days)
    seeds = parse_seeds(args.seeds)
    run = compare(config, {baseline: schedule}, seeds, _make_out_dir(args.out, COMPARE_OUTPUTS))
    print(f"baseline {baseline}: {format_schedule(schedule)}")
    for label, metrics in run.summary.items():
        print(
            f"  {label}: total_reward={metrics['total_reward']:.1f} "
            f"cum_infections={metrics['cumulative_infections']:.0f} "
            f"peak_bpl={metrics['peak_below_poverty']:.0f}"
        )
    print(f"wrote outputs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    _worker_count(1)  # a bad EPIDEMICTRL_THREADS fails before training starts
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    try:
        hyper = DdpgHyperParams(seed=args.seed, train_iterations=args.iterations)
    except ValueError as exc:
        raise ConfigError(f"invalid training settings: {exc}") from exc
    # the most rows numpy can index in the run's float64 action history
    most = np.iinfo(np.intp).max // (ACTION_DIM * np.dtype(np.float64).itemsize)
    if args.iterations > most:
        raise ConfigError(f"--iterations must be at most {most}")
    seeds = parse_seeds(args.seeds)
    config = _experiment_config(args)
    report = run_experiment(
        args.experiment,
        args.scenario,
        hyper=hyper,
        comparison_seeds=seeds,
        out_dir=_make_out_dir(args.out, TRAIN_OUTPUTS),
        config=config,
    )
    print(
        f"experiment {args.experiment} scenario {args.scenario} "
        f"(kappa={report.config.kappa:g}, population={report.config.world.population_size})"
    )
    print(f"optimized schedule: {format_schedule(report.schedule)}")
    print(f"eval reward (scaled): {report.eval_mean:.4f} +- {report.eval_sd:.4f}")
    for label, metrics in report.summary.items():
        print(f"  {label}: total_reward={metrics['total_reward']:.1f}")
    print(f"wrote outputs to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    try:
        actor, _ = load_mlp(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint: {exc}") from exc
    widths = (actor.specs[0].fan_in, actor.specs[-1].fan_out)
    if widths != (OBSERVATION_DIM, ACTION_DIM):
        raise ConfigError(
            f"checkpoint maps {widths[0]} inputs to {widths[1]} outputs; "
            f"an actor maps {OBSERVATION_DIM} to {ACTION_DIM}"
        )
    config = _experiment_config(args)
    outputs = ("resolved_config.json", "evaluation.json")
    out = None if args.out is None else _make_out_dir(args.out, outputs)
    task = EpidemicTask(config, seed_base=args.seed)
    result = evaluate(actor, task, args.repeats)
    print(f"schedule: {format_schedule(result.schedule)}")
    print(f"reward (scaled): {result.mean:.4f} +- {result.sd:.4f} over {args.repeats} repeats")
    if out is not None:
        write_resolved_config(config, out)
        with open(out / "evaluation.json", "w") as fh:
            json.dump(
                {
                    "mean": result.mean,
                    "sd": result.sd,
                    "rewards": result.rewards,
                    "action": result.action.tolist(),
                    "schedule": format_schedule(result.schedule),
                },
                fh,
                indent=2,
            )
        print(f"wrote evaluation to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (ConfigError, OSError, MemoryError) as exc:  # an unwritable output, a run too big
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
