from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import FrozenInstanceError, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from epidemictrl import harness
from epidemictrl.ddpg import DdpgHyperParams, train
from epidemictrl.economy import EconomyConfig
from epidemictrl.env import EpidemicTask, EpisodeTrace, ExperimentConfig, run_episode
from epidemictrl.epidemic import AgeBandRates, DEFAULT_AGE_BANDS, DiseaseParams
from epidemictrl.harness import (
    TRACE_HEADER,
    BaselineId,
    ConfigError,
    DEFAULT_POPULATION,
    EXPERIMENT_TABLE,
    SCENARIO_KAPPA,
    baseline_schedule,
    compare,
    emit_plot_svg,
    experiment_config,
    format_schedule,
    from_dict,
    load_config_file,
    main,
    parse_baseline,
    parse_seeds,
    sanity_config,
    scaled_doses,
    to_dict,
    write_trace_csv,
)
from epidemictrl.interventions import (
    VaccinationPolicyConfig,
    VaccineSpec,
    empty_schedule,
    lockdown_active,
    window_active,
)
from epidemictrl.neural import CHECKPOINT_MAGIC, mlp_from_widths, save_mlp
from epidemictrl.world import WorldConfig


def test_experiment_table_rows():
    assert EXPERIMENT_TABLE[1] == {
        "initial_infection_percent": 15,
        "v1": (0.8, 450),
        "v2": (0.6, 450),
    }
    assert EXPERIMENT_TABLE[4]["v1"] == (0.8, 100)
    assert EXPERIMENT_TABLE[4]["v2"] == (0.6, 700)
    assert EXPERIMENT_TABLE[2]["initial_infection_percent"] == 1
    assert SCENARIO_KAPPA == {1: 1.0, 2: 0.2, 3: 5.0}


def test_experiment_config_exp1():
    config = experiment_config(1, 1, population=100_000)
    assert config.initial_infection_fraction == 0.15
    v1, v2 = config.vaccination.specs
    assert (v1.effectiveness, v1.daily_doses) == (0.8, 450)
    assert (v2.effectiveness, v2.daily_doses) == (0.6, 450)
    assert config.kappa == 1.0


def test_experiment_config_scales_doses():
    config = experiment_config(3, 2, population=10_000)
    v1, v2 = config.vaccination.specs
    assert v1.daily_doses == 10  # 100 at reference scale
    assert v2.daily_doses == 70  # 700 at reference scale
    assert config.kappa == 0.2


def test_experiment_config_rejects_bad_ids():
    with pytest.raises(ConfigError):
        experiment_config(5, 1)
    with pytest.raises(ConfigError):
        experiment_config(1, 4)


def test_scaled_doses_rounding():
    assert scaled_doses(450, 100_000) == 450
    assert scaled_doses(450, 10_000) == 45
    assert scaled_doses(100, 2_000) == 2


def test_default_population_used_without_config():
    config = experiment_config(1, 1)
    assert config.world.population_size == DEFAULT_POPULATION


def test_baseline_schedules_decode_exactly():
    d = 100
    none = (0.0, 0.0)
    full = (0.0, 100.0)
    expect = {
        BaselineId.NOL_NOV: (none, (none, none, none)),
        BaselineId.FULLL_FULLV: (full, (full, full, full)),
        BaselineId.NOL_FULLV: (none, (full, full, full)),
        BaselineId.L30_FULLV: ((0.0, 30.0), (full, full, full)),
    }
    for baseline, (lock, vax) in expect.items():
        sched = baseline_schedule(baseline, d)
        assert sched.lockdown == lock
        assert sched.vax_windows == vax


def test_l30_lockdown_ends_day_30():
    sched = baseline_schedule(BaselineId.L30_FULLV, 100)
    assert lockdown_active(sched, 29)
    assert not lockdown_active(sched, 30)
    assert all(window_active(w, 99) for w in sched.vax_windows)


def test_parse_baseline_case_insensitive():
    assert parse_baseline("nol_nov") is BaselineId.NOL_NOV
    with pytest.raises(ConfigError):
        parse_baseline("NoSuch")


def test_parse_seeds_forms():
    assert parse_seeds("0..4") == [0, 1, 2, 3, 4]
    assert parse_seeds("7") == [7]
    assert parse_seeds("0,2,5") == [0, 2, 5]
    with pytest.raises(ConfigError):
        parse_seeds("4..1")


def _tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        world=WorldConfig(population_size=200, episode_days=15),
        initial_infection_fraction=0.1,
    )


def read_trace_csv(path) -> EpisodeTrace:
    """Reads back a `write_trace_csv` file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if ",".join(next(reader)) != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected trace header")
        data = np.array([[int(v) for v in row] for row in reader], dtype=np.int64)
    compartments = data[:, 1:10]
    return EpisodeTrace(
        population=int(compartments[0].sum()),
        compartments=compartments,
        below_poverty=data[:, 10],
        doses=data[:, 11],
    )


def test_trace_csv_round_trip(tmp_path):
    trace = run_episode(_tiny_config(), empty_schedule(), seed=4)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_text()
    assert text.splitlines()[0] == (
        "day,susceptible,exposed,asymptomatic,presymptomatic,infected_mild,"
        "infected_severe,hospitalized,recovered,deceased,below_poverty_line,doses_given"
    )
    assert len(text.splitlines()) == 17  # header + 16 day rows
    assert text.endswith("\n")
    back = read_trace_csv(path)
    assert np.array_equal(back.compartments, trace.compartments)
    assert np.array_equal(back.below_poverty, trace.below_poverty)
    assert np.array_equal(back.doses, trace.doses)


def test_trace_csv_constant_susceptible_without_epidemic(tmp_path):
    config = ExperimentConfig(
        world=WorldConfig(population_size=100, episode_days=10),
        initial_infection_fraction=0.0,
    )
    trace = run_episode(config, empty_schedule(), seed=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    rows = path.read_text().splitlines()[1:]
    sus = {int(r.split(",")[1]) for r in rows}
    assert sus == {100}


def test_trace_csv_write_failure_mentions_path():
    trace = run_episode(_tiny_config(), empty_schedule(), seed=4)
    with pytest.raises(OSError, match="no/such/dir"):
        write_trace_csv(trace, "no/such/dir/trace.csv")


def test_svg_single_series_valid_xml(tmp_path):
    path = tmp_path / "plot.svg"
    emit_plot_svg([("flat", np.full(10, 3.0))], path, title="t")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 1
    ys = {p.split(",")[1] for p in polylines[0].attrib["points"].split()}
    assert len(ys) == 1  # constant series draws a horizontal line


def test_svg_two_series_two_polylines_and_legend(tmp_path):
    path = tmp_path / "plot.svg"
    emit_plot_svg(
        [("a & b", np.arange(5.0)), ("c<d>", np.arange(5.0) * 2)], path
    )
    root = ET.parse(path).getroot()
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert len(polylines) == 2
    assert "a & b" in texts and "c<d>" in texts


def test_svg_rejects_empty():
    with pytest.raises(ValueError):
        emit_plot_svg([], "unused.svg")


def test_format_schedule_style():
    sched = baseline_schedule(BaselineId.L30_FULLV, 100)
    text = format_schedule(sched)
    assert text == (
        "lockdown: days 0-30; vax 0-17: days 0-100; "
        "vax 18-59: days 0-100; vax 60-99: days 0-100"
    )
    assert format_schedule(empty_schedule()).startswith("lockdown: none")


# Every section differs from its defaults; stage_durations is partial.
FULL_CONFIG = {
    "world": {
        "population_size": 300,
        "household_size": 3,
        "office_capacity": 20,
        "school_capacity": 60,
        "essential_worker_fraction": 0.3,
        "violator_fraction": 0.05,
        "episode_days": 12,
    },
    "disease": {
        "beta_base": 0.7,
        "age_bands": [
            {**band, "sigma": band["sigma"] * 2} for band in to_dict(DEFAULT_AGE_BANDS)
        ],
        "stage_durations": {"exposed": [3.0, 1.0], "hospitalized": [10.0, 3.0]},
    },
    "economy": {
        "savings_mean": 400,
        "savings_sd": 200,
        "income_mean": 90,
        "income_sd": 20,
        "expense_per_person": 12,
        "poverty_line": 80,
    },
    "vaccination": {
        "specs": [
            {"effectiveness": 0.9, "daily_doses": 5},
            {"effectiveness": 0.5, "daily_doses": 3},
        ],
        "coverage_cap": 0.7,
    },
    "initial_infection_fraction": 0.2,
    "kappa": 0.5,
}


def _contains(whole, part) -> bool:
    """Every key of `part` is in `whole` with an equal value, at every depth."""
    if isinstance(part, dict):
        return all(k in whole and _contains(whole[k], v) for k, v in part.items())
    return whole == part


def _rerun_from_sidecar(tmp_path, argv) -> tuple:
    """Run argv with FULL_CONFIG, then again with the first run's sidecar."""
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FULL_CONFIG))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--config", str(path), "--out", str(first)]) == 0
    sidecar = first / "resolved_config.json"
    assert main([*argv, "--config", str(sidecar), "--out", str(second)]) == 0
    resolved = json.loads(sidecar.read_text())
    assert _contains(resolved, FULL_CONFIG)
    assert resolved["disease"]["stage_durations"]["asymptomatic"] == [8.0, 2.0]
    assert (second / "resolved_config.json").read_text() == sidecar.read_text()
    return first, second


def _assert_same_traces(a_dir, b_dir) -> None:
    names = sorted(p.name for p in a_dir.glob("trace_*.csv"))
    assert names and names == sorted(p.name for p in b_dir.glob("trace_*.csv"))
    for name in names:
        a, b = read_trace_csv(a_dir / name), read_trace_csv(b_dir / name)
        assert np.array_equal(a.compartments, b.compartments)
        assert np.array_equal(a.below_poverty, b.below_poverty)
        assert np.array_equal(a.doses, b.doses)


def test_config_file_round_trip(tmp_path):
    argv = ["simulate", "--baseline", "L30_FullV", "--seeds", "0..1"]
    first, second = _rerun_from_sidecar(tmp_path, argv)
    _assert_same_traces(first / "traces", second / "traces")


def test_train_and_evaluate_sidecars_rerun_identically(tmp_path):
    argv = ["train", "--iterations", "40", "--seeds", "0"]
    first, second = _rerun_from_sidecar(tmp_path / "train", argv)
    _assert_same_traces(first / "traces", second / "traces")
    assert (first / "actor.ckpt").read_bytes() == (second / "actor.ckpt").read_bytes()

    argv = ["evaluate", "--checkpoint", str(first / "actor.ckpt"), "--repeats", "2"]
    first, second = _rerun_from_sidecar(tmp_path / "evaluate", argv)
    evaluation = (first / "evaluation.json").read_text()
    assert evaluation == (second / "evaluation.json").read_text()


def test_config_file_population_is_read_without_an_extra_build(monkeypatch):
    built = []
    read = harness.from_dict
    monkeypatch.setattr(harness, "from_dict", lambda cls, *a: built.append(cls) or read(cls, *a))
    config = experiment_config(2, 3, file_cfg={"world": {"population_size": 5_000}})
    assert built == [ExperimentConfig]
    assert config.world.population_size == 5_000
    assert config.vaccination.specs[0].daily_doses == 22  # scaled from 450


def test_population_flag_applies_over_config_file():
    config = experiment_config(2, 3, population=500, file_cfg=FULL_CONFIG)
    assert config.world.population_size == 500
    assert config.vaccination.specs[0] == VaccineSpec(0.9, 5)  # unscaled
    config = experiment_config(2, 3, population=5_000, file_cfg={"world": {}})
    assert config.vaccination.specs[0].daily_doses == 22  # scaled from 450
    assert config.kappa == SCENARIO_KAPPA[3]


def test_to_dict_emits_every_field_of_every_config_dataclass():
    config = experiment_config(1, 1)
    seen = set()

    def check(obj, data):
        if is_dataclass(obj):
            seen.add(type(obj))
            assert list(data) == [f.name for f in fields(obj)]
            for f in fields(obj):
                check(getattr(obj, f.name), data[f.name])
        elif isinstance(obj, tuple):
            assert len(data) == len(obj)
            for item, item_data in zip(obj, data):
                check(item, item_data)
        elif isinstance(obj, dict):
            assert list(data) == [k.name.lower() for k in obj]

    check(config, to_dict(config))
    assert seen == {
        ExperimentConfig,
        WorldConfig,
        DiseaseParams,
        AgeBandRates,
        EconomyConfig,
        VaccinationPolicyConfig,
        VaccineSpec,
    }
    assert from_dict(ExperimentConfig, json.loads(json.dumps(to_dict(config)))) == config


def test_from_dict_types_are_strict():
    assert from_dict(EconomyConfig, {"poverty_line": 90}, EconomyConfig()).poverty_line == 90.0
    cases = {
        r"unknown disease.stage_durations keys: \['bogus'\]": {
            "disease": {"stage_durations": {"bogus": [1.0, 1.0]}}
        },
        r"disease.age_bands\[0\]: expected object, got list": {
            "disease": {"age_bands": [[0.3, 0.5, 0.001, 0.0001]] * 10}
        },
        "vaccination.specs: expected 2 items, got 1": {
            "vaccination": {"specs": [{"effectiveness": 0.5, "daily_doses": 1}]}
        },
        r"vaccination.specs\[0\]: effectiveness must lie": {
            "vaccination": {
                "specs": [{"effectiveness": 2.0, "daily_doses": 1}] * 2
            }
        },
        "kappa: expected float, got str": {"kappa": "1"},
    }
    for message, data in cases.items():
        with pytest.raises(ConfigError, match=message):
            from_dict(ExperimentConfig, data, ExperimentConfig())


@pytest.mark.parametrize(
    "cls, name, bad",
    [
        (WorldConfig, "population_size", 0),
        (EconomyConfig, "savings_sd", -1),
        (VaccinationPolicyConfig, "coverage_cap", 1.5),
        (ExperimentConfig, "kappa", -0.1),
        (DdpgHyperParams, "train_iterations", 5),
        (DiseaseParams, "beta_base", -1),
    ],
    ids=["world", "economy", "vaccination", "experiment", "ddpg", "disease"],
)
def test_configs_are_checked_when_built_and_frozen(cls, name, bad):
    with pytest.raises(ValueError, match=name):
        cls(**{name: bad})
    with pytest.raises(FrozenInstanceError):
        setattr(cls(), name, bad)


def test_shipped_configs_fit_the_ledger_bound():
    # Every table cell at desk and paper scale, the sanity scenario, and
    # the defaults over a year; the bound turns down only amounts far past them.
    for exp_id in EXPERIMENT_TABLE:
        for scenario_id in SCENARIO_KAPPA:
            for population in (DEFAULT_POPULATION, 100_000):
                experiment_config(exp_id, scenario_id, population)
    sanity_config()
    ExperimentConfig(world=WorldConfig(episode_days=365))
    with pytest.raises(ValueError, match="int64 cents ledgers within 365 days"):
        ExperimentConfig(
            world=WorldConfig(episode_days=365), economy=EconomyConfig(income_mean=2e14)
        )
    with pytest.raises(ValueError, match="the poverty line 5e\\+16"):
        ExperimentConfig(economy=EconomyConfig(poverty_line=5e16))


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"world": {"population_size": 100, "bogus": 1}}))
    with pytest.raises(ConfigError, match="bogus"):
        load_config_file(path) and experiment_config(1, 1, file_cfg=load_config_file(path))
    path.write_text(json.dumps({"unexpected_section": {}}))
    with pytest.raises(ConfigError, match="unexpected_section"):
        load_config_file(path)


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_sanity_config_shape():
    config = sanity_config()
    assert config.world.population_size == 2_000
    assert all(s.effectiveness == 1.0 for s in config.vaccination.specs)
    # the lockdown costs nothing: nobody falls below the line, locked or not
    for baseline in (BaselineId.FULLL_FULLV, BaselineId.NOL_NOV):
        trace = run_episode(config, baseline_schedule(baseline), seed=0)
        assert not trace.below_poverty.any(), baseline


def test_sanity_scenario_learns_a_lockdown_from_day_one():
    # A free lockdown and a scarce perfect vaccine: the learner should lock
    # down from the start for most of the episode (about 10 s).
    result = train(EpidemicTask(sanity_config(), seed_base=0), DdpgHyperParams(seed=0))
    start, end = result.best_eval.schedule.lockdown
    assert start <= 1.0
    assert end - start >= 60.0


def _nol_nov(config) -> dict:
    return {"NoL_NoV": baseline_schedule(BaselineId.NOL_NOV, config.world.episode_days)}


def test_run_baseline_outputs(tmp_path):
    config = _tiny_config()
    run = compare(config, _nol_nov(config), seeds=[0, 1], out_dir=tmp_path)
    assert (tmp_path / "resolved_config.json").exists()
    assert (tmp_path / "traces" / "trace_NoL_NoV_seed0.csv").exists()
    assert (tmp_path / "comparison.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "below_poverty_line.svg").exists()
    assert run.summary["NoL_NoV"]["n_seeds"] == 2
    sidecar = json.loads((tmp_path / "resolved_config.json").read_text())
    assert sidecar["world"]["population_size"] == 200


def test_run_baseline_requires_seeds():
    config = _tiny_config()
    with pytest.raises(ValueError):
        compare(config, _nol_nov(config), seeds=[])


def test_cli_simulate_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--baseline",
            "NoL_NoV",
            "--experiment",
            "1",
            "--scenario",
            "1",
            "--population",
            "300",
            "--seeds",
            "0..1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "summary.csv").exists()
    assert "NoL_NoV" in capsys.readouterr().out


def test_cli_rejects_unknown_baseline(tmp_path):
    code = main(
        [
            "simulate",
            "--baseline",
            "Nope",
            "--population",
            "100",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 2


def test_threads_env_fans_out(tmp_path, monkeypatch):
    monkeypatch.setenv("EPIDEMICTRL_THREADS", "2")
    config = _tiny_config()
    run = compare(config, _nol_nov(config), seeds=[0, 1, 2])
    serial = run_episode(config, empty_schedule(), seed=1)
    assert [seed for _, seed, _ in run.results] == [0, 1, 2]
    assert np.array_equal(run.results[1][2].compartments, serial.compartments)


ACTOR_WIDTHS = (6, 4, 8)


def _actor_checkpoint(header: dict, value: float = 0.0) -> bytes:
    """A checkpoint with `header` laid over a one-layer 6 -> 8 tanh actor's,
    a key given None dropped, then a blob of the actor's 56 parameters,
    each `value`."""
    layers = [{"fan_in": 6, "fan_out": 8, "activation": "tanh"}]
    header = {"format": CHECKPOINT_MAGIC, "layers": layers, **header}
    header = {k: v for k, v in header.items() if v is not None}
    return json.dumps(header).encode() + b"\n" + np.full(56, value, "<f8").tobytes()


def _first_band(**changes) -> dict:
    """A config giving the default age bands, the first with `changes`."""
    first, *rest = to_dict(DEFAULT_AGE_BANDS)
    return {"disease": {"age_bands": [{**first, **changes}, *rest]}}


@pytest.mark.parametrize(
    "argv, config, checkpoint, message",
    [
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "0"],
            None,
            None,
            "population_size must be at least 1",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            {"world": {"population_size": "10"}},
            None,
            "world.population_size: expected int, got str",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            {"economy": {"savings_sd": -1}},
            None,
            "savings_sd",
        ),
        (["train", "--iterations", "0"], None, None, "invalid training settings"),
        (["train", "--iterations", "20"], None, None, "at least 40"),
        (["train", "--iterations", "35"], None, None, "at least 40"),
        (["simulate", "--baseline", "NoL_NoV", "--seeds", "x"], None, None, "bad seed list"),
        (
            ["simulate", "--baseline", "NoL_NoV", "--seeds", "-3"],
            None,
            None,
            "expected nonnegative seeds",
        ),
        (["train", "--seed", "-1"], None, None, "--seed must be nonnegative, got -1"),
        (["train", "--seeds=-2"], None, None, "expected nonnegative seeds"),
        (["evaluate", "--seed", "-1"], None, ACTOR_WIDTHS, "--seed must be nonnegative, got -1"),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "100", "--out", "{tmp}/afile/x"],
            None,
            None,
            "cannot create output directory",
        ),
        (
            ["train", "--population", "100", "--out", "{tmp}/afile/x"],
            None,
            None,
            "cannot create output directory",
        ),
        (["evaluate"], None, b"", "cannot load checkpoint"),
        (["evaluate", "--repeats", "0"], None, ACTOR_WIDTHS, "--repeats must be at least 1"),
        (["evaluate"], None, (5, 4, 8), "checkpoint maps 5 inputs to 8 outputs"),
        (["evaluate"], None, (6, 4, 3), "checkpoint maps 6 inputs to 3 outputs"),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            {"world": {"household_size": 2.5}},
            None,
            "world.household_size: expected int, got float",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            {"world": {"episode_days": True}},
            None,
            "world.episode_days: expected int, got bool",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "-1000"],
            None,
            None,
            "world.population_size must be at least 1, got -1000",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "100"],
            {"world": {"population_size": 0}},
            None,
            "world: population_size must be at least 1",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            {"world": {"hospitals": 2}},
            None,
            "unknown world keys: ['hospitals']",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            {"lockdown_affects_economy": False},
            None,
            "unknown config keys: ['lockdown_affects_economy']",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            _first_band(severe_prob=0),
            None,
            "disease.age_bands[0]: severe_prob must lie in (0, 1], got 0.0",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            _first_band(symptomatic_prob=1.7),
            None,
            "disease.age_bands[0]: symptomatic_prob must lie in [0, 1], got 1.7",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            _first_band(beta_multiplier=-2),
            None,
            "disease.age_bands[0]: beta_multiplier must be nonnegative, got -2.0",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            _first_band(sigma=-0.1),
            None,
            "disease.age_bands[0]: sigma must be nonnegative, got -0.1",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            {"kappa": float("nan")},
            None,
            "holds NaN; every number must be finite",
        ),
        (["evaluate"], None, _actor_checkpoint({"layers": None}), "header needs a list of layers"),
        (["evaluate"], None, _actor_checkpoint({"layers": "6x8"}), "header needs a list of layers"),
        (["evaluate"], None, _actor_checkpoint({"layers": [None]}), "header needs a list of layers"),
        (
            ["evaluate"],
            None,
            _actor_checkpoint({"layers": [{"fan_in": 6, "activation": "tanh"}]}),
            "header needs a list of layers",
        ),
        (
            ["evaluate"],
            None,
            _actor_checkpoint({"layers": [{"fan_in": "6", "fan_out": 8, "activation": "tanh"}]}),
            "layer widths must be integers, got '6'",
        ),
        (
            ["evaluate"],
            None,
            _actor_checkpoint({"layers": [{"fan_in": 6.0, "fan_out": 8, "activation": "tanh"}]}),
            "layer widths must be integers, got 6.0",
        ),
        (["evaluate"], None, _actor_checkpoint({}, np.nan), "parameters must be finite"),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "1000"],
            {"disease": {"stage_durations": {"exposed": [3e9, 1.0]}}},
            None,
            "for EXPOSED: mean and sd must stay under 536870912 days",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "1000"],
            {"disease": {"stage_durations": {"exposed": [1e200, 1.0]}}},
            None,
            "for EXPOSED has no finite log-normal parameters",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "1000"],
            {"disease": {"stage_durations": {"exposed": [1.0, 2**29]}}},
            None,
            "for EXPOSED: mean and sd must stay under 536870912 days",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "1000"],
            {"disease": {"stage_durations": {"exposed": [1e-170, 1.0]}}},
            None,
            "for EXPOSED has no finite log-normal parameters",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "1000"],
            {"economy": {"savings_mean": 1e17}},
            None,
            "could overflow the int64 cents ledgers within 100 days",
        ),
        (
            ["simulate", "--baseline", "NoL_NoV", "--population", "1000"],
            {"economy": {"income_mean": 1e16, "income_sd": 0}},
            None,
            "could overflow the int64 cents ledgers within 100 days",
        ),
    ],
    ids=[
        "population-0",
        "population-str",
        "savings-sd-negative",
        "iterations-0",
        "iterations-20-below-batch",
        "iterations-35-before-first-evaluation-after-a-step",
        "seeds-x",
        "simulate-seeds-negative",
        "train-seed-negative",
        "train-seeds-negative",
        "evaluate-seed-negative",
        "simulate-out-under-a-file",
        "train-out-under-a-file",
        "empty-checkpoint",
        "repeats-0",
        "checkpoint-input-5",
        "checkpoint-output-3",
        "household-size-float",
        "episode-days-bool",
        "population-negative",
        "config-population-0-under-flag",
        "world-hospitals-unknown",
        "lockdown-affects-economy-unknown",
        "band-severe-prob-0",
        "band-symptomatic-prob-above-1",
        "band-beta-multiplier-negative",
        "band-sigma-negative",
        "kappa-nan",
        "checkpoint-without-layers",
        "checkpoint-layers-a-string",
        "checkpoint-layer-null",
        "checkpoint-layer-without-fan-out",
        "checkpoint-fan-in-a-string",
        "checkpoint-fan-in-a-float",
        "checkpoint-parameters-nan",
        "exposed-mean-past-int32-ticks",
        "exposed-mean-without-finite-lognormal",
        "exposed-sd-past-int32-ticks",
        "exposed-mean-squared-to-zero",
        "savings-past-int64-cents",
        "income-past-int64-cents",
    ],
)
def test_cli_bad_input_is_one_error_line(tmp_path, capsys, argv, config, checkpoint, message):
    # A case's own `--out` comes later and wins; `afile` is a regular file.
    (tmp_path / "afile").touch()
    argv = [argv[0], "--out", str(tmp_path / "out"), *(a.format(tmp=tmp_path) for a in argv[1:])]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if checkpoint is not None:
        path = tmp_path / "actor.ckpt"
        if isinstance(checkpoint, bytes):
            path.write_bytes(checkpoint)
        else:
            save_mlp(mlp_from_widths(checkpoint, "relu", "tanh", np.random.default_rng(0)), path)
        argv += ["--checkpoint", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5", ""])
@pytest.mark.parametrize(
    "argv",
    [["simulate", "--baseline", "NoL_NoV"], ["train", "--iterations", "1"]],
    ids=["simulate", "train"],
)
def test_bad_threads_env_is_one_error_line(tmp_path, capsys, monkeypatch, argv, threads):
    monkeypatch.setenv("EPIDEMICTRL_THREADS", threads)
    assert main([*argv, "--population", "100", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: EPIDEMICTRL_THREADS"), err
    assert not (tmp_path / "out").exists()


def test_importing_the_harness_skips_unused_stdlib_modules():
    # The process pool and the XML escape used to pull these in on every run.
    unused = ["urllib.request", "http.client", "ssl", "email", "multiprocessing"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = f"import sys, epidemictrl.harness; print([m for m in {unused!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
