from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from epidemictrl import ddpg
from epidemictrl.ddpg import (
    EVAL_REPEATS,
    EVAL_SEED_OFFSET,
    ActorCritic,
    DdpgHyperParams,
    evaluate,
    select_action,
    train,
)
from epidemictrl.neural import mlp_from_widths

from conftest import QuadraticBandit, rng


def _hyper(**kw) -> DdpgHyperParams:
    return DdpgHyperParams(**kw)


def critic_value(agent: ActorCritic, obs: np.ndarray, action: np.ndarray) -> np.ndarray:
    return agent.critic.forward(np.concatenate([obs, action], axis=1))


def eval_means(log) -> list[float]:
    """The evaluated iterations' means, in order."""
    return [row["eval_mean"] for row in log.rows if not math.isnan(row["eval_mean"])]


def test_hyperparameter_defaults_match_protocol():
    h = DdpgHyperParams()
    assert [f.name for f in fields(h)] == ["seed", "train_iterations"]
    assert h.seed == 0
    assert ddpg.ACTOR_LR == 5e-3
    assert ddpg.EXPL_NOISE == 0.1
    assert ddpg.BATCH_SIZE == 32
    assert h.train_iterations == 150
    assert ddpg.BURN_IN == 10
    assert ddpg.EVAL_EVERY == 10
    assert ddpg.EVAL_REPEATS == 5
    assert ddpg.REPLICATES_PER_ACTION == 2


def test_hyper_validation():
    with pytest.raises(ValueError):
        _hyper(train_iterations=5)  # burn-in 10
    with pytest.raises(ValueError):
        _hyper(train_iterations=9)  # evaluation every 10
    with pytest.raises(ValueError, match="at least 40"):
        _hyper(train_iterations=31)  # no learner step before a full batch
    with pytest.raises(ValueError, match="at least 40"):
        _hyper(train_iterations=39)  # no evaluation after the first step
    assert _hyper(train_iterations=40).train_iterations == 40


def test_select_action_no_noise_is_actor_output():
    actor = mlp_from_widths((6, 8, 8), "relu", "tanh", rng(6))
    obs = rng(7).normal(size=6)
    a = select_action(actor, obs, 0.0, rng(8))
    assert np.array_equal(a, np.clip(actor.forward(obs[None])[0], -1, 1))


def test_select_action_noise_sd_matches():
    actor = mlp_from_widths((6, 8, 8), "relu", "tanh", rng(9), final_scale=0.01)
    obs = np.full(6, 0.3)
    base = actor.forward(obs[None])[0]
    assert np.abs(base).max() < 0.3  # away from the clamp
    g = rng(10)
    draws = np.array([select_action(actor, obs, 0.1, g) - base for _ in range(12_500)])
    assert draws.std(axis=0) == pytest.approx(np.full(8, 0.1), rel=0.03)


def test_select_action_clamped():
    actor = mlp_from_widths((6, 8, 8), "relu", "tanh", rng(11))
    actor.biases[-1][:] = 10.0  # saturate outputs near +1
    obs = np.zeros(6)
    g = rng(12)
    for _ in range(100):
        a = select_action(actor, obs, 0.5, g)
        assert (a <= 1.0).all() and (a >= -1.0).all()


def test_train_step_target_is_reward_when_done():
    # every episode is terminal, so the critic regresses Q(s, a) on r itself:
    # both steps report mean((Q(s, a) - r)^2) of the critic before the step
    g = rng(16)
    agent = ActorCritic(6, 8, g)
    stored = (g.normal(size=(40, 6)), g.uniform(-1, 1, (40, 8)), g.normal(size=40))
    sample_rng = rng(17)
    for step in (agent.critic_step, lambda b: agent.train_step(b)[0]):
        idx = sample_rng.integers(0, 40, size=32)
        batch = tuple(column[idx] for column in stored)
        obs, actions, rewards = batch
        want = np.mean((critic_value(agent, obs, actions)[:, 0] - rewards) ** 2)
        assert step(batch) == pytest.approx(want, rel=1e-12)


def test_critic_regresses_to_constant_reward():
    # constant -5 rewards: critic output reaches -5 +- 0.1 within 2000 steps
    g = rng(18)
    agent = ActorCritic(6, 8, g)
    obs = np.full(6, 0.5)
    actions = g.uniform(-1, 1, (100, 8))
    obs_batch, rewards = np.tile(obs, (32, 1)), np.full(32, -5.0)
    sample_rng = rng(19)
    for _ in range(2000):
        idx = sample_rng.integers(0, 100, size=32)
        agent.critic_step((obs_batch, actions[idx], rewards))
    q = critic_value(agent, np.repeat(obs[None, :], 100, axis=0), actions)
    assert np.abs(q + 5.0).max() < 0.1


def test_actor_climbs_frozen_analytic_critic(monkeypatch):
    # dQ/da = -2 (a0 - 0.5) e0 frozen: actor's first component -> 0.5
    g = rng(20)
    agent = ActorCritic(6, 8, g)
    obs = np.full((32, 6), 0.5)

    def fake_gradient(obs_batch, actions):
        grad = np.zeros_like(actions)
        grad[:, 0] = -2.0 * (actions[:, 0] - 0.5)
        q = -((actions[:, 0] - 0.5) ** 2)
        return grad, q[:, None]

    monkeypatch.setattr(agent, "_critic_action_gradient", fake_gradient)
    for _ in range(3000):
        pi, cache = agent.actor.forward_cached(obs)
        dq_da, _ = agent._critic_action_gradient(obs, pi)
        grads, _ = agent.actor.backward(cache, -dq_da / 32)
        agent.actor_adam.update(agent.actor, grads, 1e-3)
    a0 = agent.actor.forward(obs[:1])[0, 0]
    assert a0 == pytest.approx(0.5, abs=0.05)


def test_critic_loss_nonincreasing_on_frozen_buffer():
    g = rng(23)
    agent = ActorCritic(6, 8, g)
    obs = np.full(6, 0.5)
    actions = g.uniform(-1, 1, (150, 8))
    rewards = -((actions[:, 0] - 0.4) ** 2)
    obs_batch = np.tile(obs, (32, 1))

    def full_loss():
        q = critic_value(agent, np.tile(obs, (150, 1)), actions)[:, 0]
        return float(np.mean((q - rewards) ** 2))

    sample_rng = rng(24)
    losses = [full_loss()]
    for window in range(6):
        for _ in range(100):
            idx = sample_rng.integers(0, 150, size=32)
            agent.critic_step((obs_batch, actions[idx], rewards[idx]))
        losses.append(full_loss())
    # non-increasing window to window, modulo the mini-batch noise floor
    # that constant-rate Adam settles into once converged
    floor = 1e-3 * losses[0]
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier * 1.02 + floor
    assert losses[-1] < 0.05 * losses[0]


def test_train_log_lengths_and_eval_cadence():
    res = train(QuadraticBandit(), _hyper())
    assert len(res.log.iterations) == 150
    assert len(eval_means(res.log)) == 15


def test_train_returns_the_evaluation_of_its_best_actor():
    # `run_experiment` reports this evaluation instead of running it again
    hyper = _hyper(train_iterations=60)
    task = QuadraticBandit()
    res = train(task, hyper)
    again = evaluate(res.best_actor, task, EVAL_REPEATS)
    assert res.best_eval.mean == again.mean
    assert res.best_eval.sd == again.sd
    assert res.best_eval.rewards == again.rewards
    assert np.array_equal(res.best_eval.action, again.action)
    assert res.best_eval.mean == max(eval_means(res.log))


def test_train_reuses_the_evaluation_of_an_unmoved_actor():
    # The first learner step comes at iteration 32, so the evaluations at
    # 10, 20 and 30 would replay one action on the same seeds.
    class CountingBandit(QuadraticBandit):
        eval_rollouts = 0

        def rollout(self, action, seed):
            if seed >= EVAL_SEED_OFFSET:
                self.eval_rollouts += 1
            return super().rollout(action, seed)

    task = CountingBandit()
    res = train(task, _hyper(train_iterations=40))
    assert task.eval_rollouts == 2 * 5
    first, second, third, fourth = eval_means(res.log)
    assert first == second == third != fourth


def test_train_deterministic():
    a = train(QuadraticBandit(), _hyper(train_iterations=40))
    b = train(QuadraticBandit(), _hyper(train_iterations=40))
    # NaN cells are the one `math.nan` object, so rows with them compare equal
    assert a.log.rows == b.log.rows
    for pa, pb in zip(a.agent.actor.parameters(), b.agent.actor.parameters()):
        assert np.array_equal(pa, pb)


def test_bandit_learns_peak():
    res = train(QuadraticBandit(), _hyper(seed=0))
    a0 = float(np.clip(res.agent.actor.forward(np.full((1, 6), 0.5)), -1, 1)[0, 0])
    assert 0.3 <= a0 <= 0.5


def test_burn_in_uses_uniform_actions():
    res = train(QuadraticBandit(), _hyper(train_iterations=40))
    # rewards of burn-in iterations come from uniform actions in [-1, 1];
    # with the bandit's reward structure they lie in [-1.96, 0]
    for r in [row["reward"] for row in res.log.rows[:10]]:
        assert -1.96 <= r <= 0.0


def test_evaluate_degenerate_env_zero_sd():
    actor = mlp_from_widths((6, 8, 8), "relu", "tanh", rng(25))
    result = evaluate(actor, QuadraticBandit(), repeats=5)
    assert result.sd == 0.0
    assert len(result.rewards) == 5


def test_evaluate_requires_positive_repeats():
    actor = mlp_from_widths((6, 8, 8), "relu", "tanh", rng(26))
    with pytest.raises(ValueError):
        evaluate(actor, QuadraticBandit(), repeats=0)
