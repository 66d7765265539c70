"""Golden digests: bit-exact pins of episode traces and of trained learners.

Refactors that must leave every output unchanged (engine rewrites, learner
simplifications) are checked against these SHA-256 digests. A digest may
change only in a change that means to alter the dynamics or the learning
rule; that change updates the pin and says why.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from epidemictrl.ddpg import LOG_FIELDS, DdpgHyperParams, train
from epidemictrl.env import run_episode
from epidemictrl.harness import baseline_schedule, experiment_config, run_experiment

from conftest import QuadraticBandit


def _digest(arrays, dtype) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=dtype)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def trace_digest(trace) -> str:
    return _digest((trace.compartments, trace.below_poverty, trace.doses), "<i8")


def params_digest(net) -> str:
    return _digest(net.parameters(), "<f8")


def log_digest(log) -> str:
    columns = ([row[name] for row in log.rows] for name in LOG_FIELDS)
    return _digest(columns, "<f8")


TRACE_GOLDEN = {
    (1, "NoL_NoV", 0): (
        "97b88e8084413ee1cff83fcbbbe3171a2eadf52235978cfb989aa6052b8ddd56"
    ),
    (1, "NoL_NoV", 1): (
        "011752555b53e1fabd8caf374b6d6e4bc2db480aa9ca222be93a82429414ca5a"
    ),
    (1, "FullL_FullV", 0): (
        "67e4b266c77af62dbc63a651f586a1b472474f7dd219b55dd7ac7646ce44bfcc"
    ),
    (1, "FullL_FullV", 1): (
        "3f1269fe3df2142adc628a65e5f42e14c77c0313efbfa77fafec974430cf35dd"
    ),
    (1, "NoL_FullV", 0): (
        "97f635535e48ba2657c435fa93348eee07ad2a887f2b51ecbb9fbc871c308819"
    ),
    (1, "NoL_FullV", 1): (
        "2dfa362d48a906adf96955e63f192796422095f14971651b3e3c577a5bd8a3c6"
    ),
    (1, "L30_FullV", 0): (
        "9c92201409925bdae071e881dea7355aa1f68feaa250bd435b76e6906591b2c2"
    ),
    (1, "L30_FullV", 1): (
        "ff37ce9a43db71e0cc7f39fbf8b3e4a4ce57e4f24f2a997580c9cb255b1873c8"
    ),
    (2, "NoL_NoV", 0): (
        "af7d60d0a5acbbfe9b9d6dc0a06a17fc72820331df120ff9c7f6dbf57d0dc285"
    ),
    (2, "NoL_NoV", 1): (
        "d7d1ead681807ee991ee95037ff3048dfb7e89a7240d977233c181c99d5712a6"
    ),
    (2, "FullL_FullV", 0): (
        "9893912f378bd79eedd30f2f121a7809b1707f156becd1c3fa601c5060bc86cb"
    ),
    (2, "FullL_FullV", 1): (
        "d060f9a284371425c92b89ebbb03ae7d7c4943ad6b235c457e4e467a58bba117"
    ),
    (2, "NoL_FullV", 0): (
        "5d965498576a725ab176bdbcf1aafbb2ab60a74e9a6bebdb8715aed2f19e896a"
    ),
    (2, "NoL_FullV", 1): (
        "625851ffb8faa9d24ec07252d88553c56c8e7cd2066529473184dabadb013d86"
    ),
    (2, "L30_FullV", 0): (
        "3ef53e2b99e47e94e67d82146566832917b8cac79618ec9ccdd9b67960273c7b"
    ),
    (2, "L30_FullV", 1): (
        "ee0ecef69eece7c06096bd437eba8a70976c62d4a25473487659a0e38599ef12"
    ),
}


@pytest.mark.parametrize("experiment, baseline, seed", sorted(TRACE_GOLDEN))
def test_baseline_trace_digest(experiment, baseline, seed):
    config = experiment_config(experiment, 1, population=2_000)
    schedule = baseline_schedule(baseline, config.world.episode_days)
    trace = run_episode(config, schedule, seed)
    assert trace_digest(trace) == TRACE_GOLDEN[experiment, baseline, seed]


def test_experiment_actor_and_log_digest():
    # The comparison episodes do not feed back into training, so one
    # comparison seed is enough; the baseline traces are pinned above.
    report = run_experiment(
        2,
        1,
        hyper=DdpgHyperParams(seed=0, train_iterations=40),
        population=1_000,
        comparison_seeds=[0],
    )
    assert params_digest(report.actor) == (
        "2516fedcad17df486f3e03a0da7147acc75fc9d7a07c15ba4c8f658203391990"
    )
    assert log_digest(report.log) == (
        "87ebf296a7b09a6b0a191ef9e3d8777e38739fa1b786ab907b60b86ce59555da"
    )
    assert report.eval_mean.hex() == "-0x1.a92b3a1c485d8p-3"


def test_bandit_learner_digest(tmp_path):
    result = train(QuadraticBandit(), DdpgHyperParams())
    assert params_digest(result.agent.actor) == (
        "604d7edbd8f8ef16eca2a21cd037605900b1e52b43b26dc74c84bef35cda53b8"
    )
    assert params_digest(result.agent.critic) == (
        "4fabde7dba8956c0d801588ae5fb60170a42ee2ef01e3653388ecd7d286bbb8f"
    )
    assert log_digest(result.log) == (
        "e97a0b9397bc79473fb0ddb4d16800306450903a76bd9d1f0b5f7111aa09811c"
    )
    # The written log, byte for byte: blank cells for NaN, repr floats.
    result.log.to_csv(tmp_path / "training_log.csv")
    assert hashlib.sha256((tmp_path / "training_log.csv").read_bytes()).hexdigest() == (
        "0ce71397d4fd1c6b146baf1a6e146e642f0da347df321365cf165acc657dfb18"
    )
