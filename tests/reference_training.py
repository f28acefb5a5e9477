"""The scalar DQN training loop, kept as a test-only reference.

``DqnTrainer.train`` collects experience on lockstep lanes of
:class:`~repro.envs.batch.BatchedNavigationEnv`.  At ``train_lanes=1`` it must
reproduce this loop bitwise: one environment, one observation and one
transition at a time, with the same RNG stream consumption, the same replay
contents and the same final weights.  The equivalence tests and the golden
training digests (``tests/navigation_golden.py``) run this function; nothing
in ``src/`` calls it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import TrainingError
from repro.rl.dqn import DqnTrainer, TrainingHistory


def train_serial(
    trainer: DqnTrainer,
    num_episodes: int,
    max_steps_per_episode: Optional[int] = None,
    callback: Optional[Callable[[int, TrainingHistory], None]] = None,
) -> TrainingHistory:
    """Train ``trainer`` for ``num_episodes`` episodes, one step at a time."""
    if num_episodes <= 0:
        raise TrainingError(f"num_episodes must be positive, got {num_episodes}")
    config = trainer.config
    history = trainer.history
    env = trainer.env
    max_steps = max_steps_per_episode or env.config.max_steps
    for episode in range(num_episodes):
        observation = env.reset()
        episode_reward = 0.0
        episode_success = False
        steps = 0
        for _ in range(max_steps):
            epsilon = config.epsilon_schedule(history.total_steps)
            action = trainer.act(observation, epsilon)
            result = env.step(action)
            done = result.terminated
            trainer.replay.add(observation, action, result.reward, result.observation, done)
            observation = result.observation
            episode_reward += result.reward
            history.total_steps += 1
            steps += 1

            if (
                len(trainer.replay) >= max(config.learning_starts, config.batch_size)
                and history.total_steps % config.train_frequency == 0
            ):
                batch = trainer.replay.sample(config.batch_size, trainer._rng)
                history.losses.append(trainer.learn_on_batch(batch))
            if history.total_steps % config.target_update_interval == 0:
                trainer.sync_target_network()
            if result.terminated or result.truncated:
                episode_success = bool(result.info["success"])
                break
        history.episode_rewards.append(episode_reward)
        history.episode_successes.append(episode_success)
        history.episode_lengths.append(steps)
        if callback is not None:
            callback(episode, history)
    return history
