"""Deep deterministic policy gradient learner.

Actor and critic are small dense nets trained on minibatches drawn
uniformly from the run's own history of actions and rewards. An episode
here is a single terminal step (the whole schedule is one action), so
there is no bootstrapped target: the critic regresses Q(s, a) on the
observed reward, and the actor ascends the critic's value of its own
action. Exploration adds Gaussian noise to the raw action before
clamping to [-1, 1].

A task has five members: an `observation()` vector (constant per
experiment), an `action_dim`, a `seed_base` that offsets every episode
seed, `rollout(action, seed) -> reward`, and `decode(action)`, the
schedule an action stands for.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .neural import Adam, Mlp, mlp_from_widths

# Evaluation episodes draw from a seed range far above training episodes
# so the two never collide.
EVAL_SEED_OFFSET = 1_000_000

# The training protocol. `DdpgHyperParams` holds only what callers vary.
EXPL_NOISE = 0.1
BATCH_SIZE = 32
BURN_IN = 10
EVAL_EVERY = 10
EVAL_REPEATS = 5
REPLICATES_PER_ACTION = 2
ACTOR_LR = 5e-3
CRITIC_LR = 1e-2
# Extra critic regression steps per iteration. With only ~150 samples
# total, a 1:1 critic/actor update ratio leaves the fitted value surface
# too rough for reliable action gradients.
CRITIC_UPDATES_PER_STEP = 5
HIDDEN = (64, 64)


@dataclass(frozen=True)
class DdpgHyperParams:
    seed: int = 0
    train_iterations: int = 150

    def __post_init__(self) -> None:
        # The first evaluation after the first learner step, which waits
        # for a full batch: a shorter run saves the untrained actor.
        least = math.ceil(max(BURN_IN, BATCH_SIZE) / EVAL_EVERY) * EVAL_EVERY
        if self.train_iterations < least:
            raise ValueError(f"train_iterations must be at least {least}")


def select_action(
    actor: Mlp,
    obs: np.ndarray,
    noise_sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Actor output plus per-component Gaussian noise, clamped to [-1, 1]."""
    action = actor.forward(obs[None])[0]
    if noise_sigma > 0:
        action = action + rng.normal(0.0, noise_sigma, size=action.shape)
    return np.clip(action, -1.0, 1.0)


class ActorCritic:
    """Actor and critic networks plus their optimizer states."""

    def __init__(self, obs_dim: int, action_dim: int, rng: np.random.Generator):
        # The output layer starts scaled down so the initial policy sits
        # near the center of the action box.
        self.actor = mlp_from_widths(
            (obs_dim, *HIDDEN, action_dim), "relu", "tanh", rng, final_scale=0.1
        )
        self.critic = mlp_from_widths(
            (obs_dim + action_dim, *HIDDEN, 1), "relu", "identity", rng
        )
        self.actor_adam = Adam(self.actor)
        self.critic_adam = Adam(self.critic)

    def _critic_action_gradient(self, obs: np.ndarray, action: np.ndarray):
        """dQ/da at (obs, action), plus the Q values."""
        x = np.concatenate([obs, action], axis=1)
        q, cache = self.critic.forward_cached(x)
        _, grad_in = self.critic.backward(cache, np.ones_like(q))
        return grad_in[:, obs.shape[1] :], q

    def critic_step(self, batch) -> float:
        """One gradient step of the critic regression; returns its loss.

        Every episode is terminal, so the critic target is the reward
        itself: the loss is mean((Q(s, a) - r)^2). Lillicrap et al. (2015)
        add target networks to steady a bootstrapped target; with no
        bootstrap there is nothing for them to steady.
        """
        obs, actions, rewards = batch
        n = obs.shape[0]
        x = np.concatenate([obs, actions], axis=1)
        q, cache = self.critic.forward_cached(x)
        residual = q[:, 0] - rewards
        critic_loss = float(np.mean(residual**2))
        grads, _ = self.critic.backward(cache, (2.0 * residual / n)[:, None])
        self.critic_adam.update(self.critic, grads, CRITIC_LR)
        return critic_loss

    def train_step(self, batch) -> tuple[float, float]:
        """One critic regression step, then one actor ascent step.

        Returns (critic_loss, actor_objective) where the objective is the
        batch-mean critic value of the actor's own actions.
        """
        obs = batch[0]
        n = obs.shape[0]
        critic_loss = self.critic_step(batch)

        pi, actor_cache = self.actor.forward_cached(obs)
        dq_da, q_pi = self._critic_action_gradient(obs, pi)
        actor_objective = float(np.mean(q_pi))
        # Ascend mean Q: descend its negative through the actor.
        actor_grads, _ = self.actor.backward(actor_cache, -dq_da / n)
        self.actor_adam.update(self.actor, actor_grads, ACTOR_LR)
        return critic_loss, actor_objective


LOG_FIELDS = ("iteration", "reward", "critic_loss", "actor_objective", "eval_mean", "eval_sd")


@dataclass
class TrainLog:
    """One dict per iteration, keyed by `LOG_FIELDS`.

    NaN marks a value the iteration did not produce: no learner step yet,
    or no evaluation.
    """

    rows: list[dict] = field(default_factory=list)

    @property
    def iterations(self) -> list[int]:
        return [row["iteration"] for row in self.rows]

    def to_csv(self, path) -> None:
        """Floats as repr, NaN as a blank cell."""
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, LOG_FIELDS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: "" if math.isnan(v) else v for k, v in row.items()})


@dataclass
class EvalResult:
    mean: float
    sd: float
    rewards: list[float]
    action: np.ndarray
    schedule: object


@dataclass
class TrainResult:
    agent: ActorCritic
    log: TrainLog
    best_actor: Mlp
    best_eval: EvalResult  # the evaluation that chose best_actor


def evaluate(actor: Mlp, task, repeats: int) -> EvalResult:
    """Score the noiseless policy over a fixed bank of evaluation seeds."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    obs = task.observation()
    action = np.clip(actor.forward(obs[None])[0], -1.0, 1.0)
    base = task.seed_base + EVAL_SEED_OFFSET
    rewards = [float(task.rollout(action, base + j)) for j in range(repeats)]
    return EvalResult(
        mean=float(np.mean(rewards)),
        sd=float(np.std(rewards)),
        rewards=rewards,
        action=action,
        schedule=task.decode(action),
    )


def train(task, hyper: DdpgHyperParams | None = None) -> TrainResult:
    """Run the online training protocol against one configured task.

    The first `BURN_IN` iterations act uniformly at random; afterwards the
    actor acts with exploration noise. Every iteration scores its action as
    the mean of `REPLICATES_PER_ACTION` fresh episodes and, once the run
    has `BATCH_SIZE` of them, takes learner steps on minibatches drawn
    uniformly from all of the run's (action, reward) pairs so far. The
    observation is constant, so it is not stored per pair. Every
    `EVAL_EVERY` iterations the noiseless policy is evaluated and the
    best-scoring snapshot is kept with its evaluation. An actor that has
    taken no step since the last evaluation would replay the same action on
    the same seeds, so that evaluation is reused.
    """
    if hyper is None:
        hyper = DdpgHyperParams()

    init_ss, noise_ss, sample_ss, burn_ss = np.random.SeedSequence(hyper.seed).spawn(4)
    init_rng = np.random.Generator(np.random.PCG64(init_ss))
    noise_rng = np.random.Generator(np.random.PCG64(noise_ss))
    sample_rng = np.random.Generator(np.random.PCG64(sample_ss))
    burn_rng = np.random.Generator(np.random.PCG64(burn_ss))

    obs = task.observation()
    action_dim = task.action_dim
    agent = ActorCritic(obs.size, action_dim, init_rng)
    actions = np.zeros((hyper.train_iterations, action_dim))
    rewards = np.zeros(hyper.train_iterations)
    obs_batch = np.tile(obs, (BATCH_SIZE, 1))
    log = TrainLog()
    best_actor = best_eval = last_eval = None

    def sample(iteration: int):
        idx = sample_rng.integers(0, iteration, size=BATCH_SIZE)
        return obs_batch, actions[idx], rewards[idx]

    for iteration in range(1, hyper.train_iterations + 1):
        if iteration <= BURN_IN:
            action = burn_rng.uniform(-1.0, 1.0, size=action_dim)
        else:
            action = select_action(agent.actor, obs, EXPL_NOISE, noise_rng)

        first_seed = task.seed_base + (iteration - 1) * REPLICATES_PER_ACTION
        reward = float(
            np.mean(
                [
                    task.rollout(action, first_seed + i)
                    for i in range(REPLICATES_PER_ACTION)
                ]
            )
        )
        actions[iteration - 1] = action
        rewards[iteration - 1] = reward

        critic_loss = actor_objective = math.nan
        if iteration >= BATCH_SIZE:
            for _ in range(CRITIC_UPDATES_PER_STEP - 1):
                agent.critic_step(sample(iteration))
            critic_loss, actor_objective = agent.train_step(sample(iteration))
            last_eval = None

        eval_mean = eval_sd = math.nan
        if iteration % EVAL_EVERY == 0:
            if last_eval is None:
                last_eval = evaluate(agent.actor, task, EVAL_REPEATS)
            result = last_eval
            eval_mean, eval_sd = result.mean, result.sd
            if best_eval is None or eval_mean > best_eval.mean:
                best_eval = result
                best_actor = agent.actor.copy()

        row = (iteration, reward, critic_loss, actor_objective, eval_mean, eval_sd)
        log.rows.append(dict(zip(LOG_FIELDS, row)))

    return TrainResult(agent=agent, log=log, best_actor=best_actor, best_eval=best_eval)
