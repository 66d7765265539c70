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

from epidemictrl.ddpg import DdpgHyperParams, train
from epidemictrl.env import run_episode
from epidemictrl.harness import (
    BaselineId,
    baseline_schedule,
    experiment_config,
    run_experiment,
)

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
    columns = (
        log.iterations,
        log.rewards,
        log.critic_losses,
        log.actor_objectives,
        log.eval_means,
        log.eval_sds,
    )
    return _digest(columns, "<f8")


TRACE_GOLDEN = {
    (1, "NoL_NoV", 0): (
        "b736e56287b0d17c4c55beaa8a62a04f9c66d95c5136a1c6a2eb42af4c158324"
    ),
    (1, "NoL_NoV", 1): (
        "64f0d406466d6ebdb5a2c78950ed51c85647f995191320534805e517f0560d6a"
    ),
    (1, "FullL_FullV", 0): (
        "10d41e494a7e43413d351b663d31a0b3ced48156656d961d0a78d5a727fe93bd"
    ),
    (1, "FullL_FullV", 1): (
        "2a936a0d75a0fcd84d0ff0e5896b206d44e7aafbb8ff45ef2ee209f7ddd0bfd4"
    ),
    (1, "NoL_FullV", 0): (
        "287fc6b4495ec8e3ce81166fd9d1ef717488af9aa4c0dec8af7404c01f87161f"
    ),
    (1, "NoL_FullV", 1): (
        "fe3f88674abd0f5cba455baa8455ce049024020a519e96497afdb89376e2e3d4"
    ),
    (1, "L30_FullV", 0): (
        "cb6abcf588f3db5d5ae671ea2494b1d6d36bcc42e2756dd41e3cfaa675e8fc37"
    ),
    (1, "L30_FullV", 1): (
        "824115f75139a5bee5fcac751aab899f6d81a7c69d28fb883b25bf422b40bf96"
    ),
    (2, "NoL_NoV", 0): (
        "85cfce730923c72a8f3f90f0d4a82844b6cedf3354f11becc9fd8d0eb2631917"
    ),
    (2, "NoL_NoV", 1): (
        "8b02fc804edebcdeaae51f758d2ea62b29870559da7c752533552927ada8d155"
    ),
    (2, "FullL_FullV", 0): (
        "b93b3b43bd25c0d515f687cade1a7f4ddb2e1773c50a6c055a2c5272390dc8e6"
    ),
    (2, "FullL_FullV", 1): (
        "11538e65154cc2aa86999db217ba6b8ea77dc2598060503d1dfd6707df23732f"
    ),
    (2, "NoL_FullV", 0): (
        "b1a8901b85c2a514823fa49c8c84161d761fc0fc4277a97154123c1eee54eab4"
    ),
    (2, "NoL_FullV", 1): (
        "9929ff1868e69b77b8e77a377c2ce0626183c4f474928241dca50b2d196eadcf"
    ),
    (2, "L30_FullV", 0): (
        "8630afad676253e0be18f980e6430bbadf2ea4e19dbc5ef5cb5f85954ac3847c"
    ),
    (2, "L30_FullV", 1): (
        "61ff8d2df3b0ba2a816a1f30f9310f3ac394b8784e9ba01ed9c0d3e9db55599b"
    ),
}


@pytest.mark.parametrize("experiment, baseline, seed", sorted(TRACE_GOLDEN))
def test_baseline_trace_digest(experiment, baseline, seed):
    config = experiment_config(experiment, 1, population=2_000)
    schedule = baseline_schedule(BaselineId(baseline), config.world.episode_days)
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
        "c37943a79b2ca7c5f6a2902777eecd7518a86479d3afa2bd53123392f16b00eb"
    )
    assert log_digest(report.log) == (
        "29341a35a593f8d3e61d8b14a277acce0d42b2347f6f8bf7d259de2d246c77c3"
    )
    assert report.eval_mean.hex() == "-0x1.8defc0fe9df9ep-3"


def test_bandit_learner_digest():
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
