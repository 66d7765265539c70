from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from epidemictrl.env import ExperimentConfig, run_episode
from epidemictrl.harness import (
    BaselineId,
    ConfigError,
    DEFAULT_POPULATION,
    EXPERIMENT_TABLE,
    SCENARIO_KAPPA,
    baseline_schedule,
    config_to_dict,
    emit_plot_svg,
    experiment_config,
    format_schedule,
    load_config_file,
    main,
    parse_baseline,
    parse_seeds,
    read_trace_csv,
    run_baseline,
    sanity_config,
    scaled_doses,
    write_trace_csv,
)
from epidemictrl.interventions import empty_schedule, lockdown_active, window_active
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


def test_config_file_round_trip(tmp_path):
    config = experiment_config(2, 3, population=5_000)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
    # a resolved sidecar must itself load cleanly, minus the derived keys
    data = json.loads(path.read_text())
    data.pop("initial_infection_fraction")
    data.pop("kappa")
    data.pop("lockdown_affects_economy")
    path.write_text(json.dumps(data))
    loaded = load_config_file(path)
    rebuilt = experiment_config(2, 3, file_cfg=loaded)
    assert rebuilt.world.population_size == 5_000
    assert rebuilt.economy.poverty_line == 100.0
    v1, _ = rebuilt.vaccination.specs
    assert v1.daily_doses == 22  # from the sidecar, used unscaled


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
    assert not config.lockdown_affects_economy
    assert all(s.effectiveness == 1.0 for s in config.vaccination.specs)


def test_run_baseline_outputs(tmp_path):
    config = _tiny_config()
    run = run_baseline(BaselineId.NOL_NOV, config, seeds=[0, 1], out_dir=tmp_path)
    assert (tmp_path / "resolved_config.json").exists()
    assert (tmp_path / "trace_NoL_NoV_seed0.csv").exists()
    assert (tmp_path / "comparison.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "below_poverty_line.svg").exists()
    assert run.summary["NoL_NoV"]["n_seeds"] == 2
    sidecar = json.loads((tmp_path / "resolved_config.json").read_text())
    assert sidecar["world"]["population_size"] == 200


def test_run_baseline_requires_seeds():
    with pytest.raises(ValueError):
        run_baseline(BaselineId.NOL_NOV, _tiny_config(), seeds=[])


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


def test_cli_gradcheck_smoke(capsys):
    code = main(["gradcheck", "--nets", "10"])
    assert code == 0
    assert "OK" in capsys.readouterr().out


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
    run = run_baseline(BaselineId.NOL_NOV, config, seeds=[0, 1, 2])
    serial = run_episode(config, empty_schedule(), seed=1)
    assert np.array_equal(run.traces[1].compartments, serial.compartments)


@pytest.mark.parametrize(
    "argv, config, checkpoint",
    [
        (["simulate", "--baseline", "NoL_NoV", "--population", "0"], None, None),
        (
            ["simulate", "--baseline", "NoL_NoV"],
            {"world": {"population_size": "10"}},
            None,
        ),
        (["simulate", "--baseline", "NoL_NoV"], {"economy": {"savings_sd": -1}}, None),
        (["train", "--iterations", "0"], None, None),
        (["simulate", "--baseline", "NoL_NoV", "--seeds", "x"], None, None),
        (["evaluate"], None, b""),
    ],
    ids=[
        "population-0",
        "population-str",
        "savings-sd-negative",
        "iterations-0",
        "seeds-x",
        "empty-checkpoint",
    ],
)
def test_cli_bad_input_is_one_error_line(tmp_path, capsys, argv, config, checkpoint):
    argv = [*argv, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if checkpoint is not None:
        path = tmp_path / "actor.ckpt"
        path.write_bytes(checkpoint)
        argv += ["--checkpoint", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out").exists()
