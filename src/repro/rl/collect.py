"""Lockstep B-lane experience collection for the DQN/BERRY trainers.

:class:`LockstepCollector` is the training loop's inner loop on the batched
rollout core: B environment lanes advance per step, the epsilon-greedy head
runs one batched Q forward plus per-lane exploration streams, and every
lockstep step yields the whole batch of transitions for a single vectorised
:meth:`~repro.rl.replay_buffer.ReplayBuffer.add_batch` push.
A lane whose episode ends is refilled with the next pending episode (via
:class:`~repro.envs.batch.LaneEpisodeFeed`), so collection keeps full width
until the episode budget drains.

**Determinism contract.**  Exploration is indexed by the *global transition
count*: the k simultaneous transitions of one lockstep step take schedule
indices ``t, t+1, ..., t+k-1`` and each lane draws from its own stream in lane
order.  At B = 1, with the lane's environment and exploration streams shared
with the trainer's environment and generator (``share_rng`` /
``DqnTrainer``'s own generator), the collector consumes exactly the RNG draws
of a scalar one-transition-at-a-time loop — which is what makes B=1 batched
training bitwise-equivalent to that loop (pinned against the test-only
reference in ``tests/reference_training.py``).  At B > 1 each lane explores
from an independent spawned stream; results are deterministic in (seed, B)
but intentionally differ from the serial interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.envs.batch import BatchedNavigationEnv, LaneEpisodeFeed
from repro.errors import TrainingError
from repro.nn.network import Sequential
from repro.obs import get_metrics
from repro.rl.schedules import Schedule


@dataclass(frozen=True)
class EpisodeRecord:
    """Bookkeeping for one training episode completed by the collector."""

    episode: int
    total_reward: float
    success: bool
    steps: int


@dataclass(frozen=True)
class StepBatch:
    """The transitions of one lockstep collection step (k active lanes).

    Arrays are row-aligned over the lanes that actually advanced, in ascending
    lane order; ``dones`` mirrors the scalar loop's replay convention
    (``terminated`` only — a timeout is not a terminal state for bootstrapping).
    """

    observations: np.ndarray        #: (k, *obs_shape) observations acted on
    actions: np.ndarray             #: (k,) actions taken
    rewards: np.ndarray             #: (k,) per-step rewards
    next_observations: np.ndarray   #: (k, *obs_shape) successor observations
    dones: np.ndarray               #: (k,) float, 1.0 where the step terminated
    epsilons: np.ndarray            #: (k,) exploration rates used (global-count indexed)
    finished: Tuple[EpisodeRecord, ...]  #: episodes that completed this step

    @property
    def num_transitions(self) -> int:
        return int(self.actions.shape[0])


class LockstepCollector:
    """Drives B env lanes per step and yields batched transitions for training.

    The collector owns the *acting* side of the training loop: batched greedy
    forward, per-lane epsilon-greedy exploration, stepping, episode
    bookkeeping, and lane refill.  Learning cadence (replay pushes, gradient
    steps, target syncs) stays in the trainer, interleaved on the global step
    counter the trainer passes to :meth:`collect`.
    """

    def __init__(
        self,
        env: BatchedNavigationEnv,
        q_network: Sequential,
        schedule: Schedule,
        exploration_rngs: Sequence[np.random.Generator],
        num_episodes: int,
        max_steps_per_episode: Optional[int] = None,
    ) -> None:
        if num_episodes <= 0:
            raise TrainingError(f"num_episodes must be positive, got {num_episodes}")
        if len(exploration_rngs) != env.batch_size:
            raise TrainingError(
                f"got {len(exploration_rngs)} exploration streams for "
                f"{env.batch_size} lanes"
            )
        self.env = env
        self.q_network = q_network
        self.schedule = schedule
        self.exploration_rngs = list(exploration_rngs)
        if max_steps_per_episode is None:
            max_steps_per_episode = env.config.max_steps
        if max_steps_per_episode <= 0:
            raise TrainingError(
                f"max_steps_per_episode must be positive, got {max_steps_per_episode}"
            )
        self.max_steps_per_episode = int(max_steps_per_episode)
        self._feed = LaneEpisodeFeed(env, num_episodes)
        self._observations = self._feed.prime()
        self._reward_totals = np.zeros(env.batch_size, dtype=np.float64)

    @property
    def collecting(self) -> bool:
        """True while any lane still has an episode to run."""
        return self._feed.active_lanes.size > 0

    def collect(self, total_steps: int) -> StepBatch:
        """Advance every active lane by one action; return the transitions.

        ``total_steps`` is the trainer's global transition counter *before*
        this step; the k transitions produced here take schedule indices
        ``total_steps .. total_steps + k - 1`` (lane order), so exploration is
        a pure function of the global count regardless of the lane count.
        """
        active = self._feed.active_lanes
        if active.size == 0:
            raise TrainingError("collect() called with no active episodes")
        observations = self._observations[active].copy()
        epsilons = self.schedule.values(total_steps + np.arange(active.size))

        q_values = self.q_network.forward(observations)
        actions_taken = np.argmax(q_values, axis=1).astype(np.int64)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("train.env_steps").inc(active.size)
            metrics.gauge("train.epsilon").set(float(epsilons[-1]))
            metrics.histogram("train.q_max").observe(
                float(np.mean(np.max(q_values, axis=1)))
            )
        for row, lane in enumerate(active):
            stream = self.exploration_rngs[lane]
            if stream.random() < epsilons[row]:
                actions_taken[row] = self.env.action_space.sample(stream)

        actions = np.zeros(self.env.batch_size, dtype=np.int64)
        actions[active] = actions_taken
        result = self.env.step(actions)

        rewards = result.rewards[active].copy()
        next_observations = result.observations[active].copy()
        # Replay convention of the scalar loop: bootstrapping is cut only
        # by true termination (goal/collision), never by the step-budget cap.
        dones = result.terminated[active].astype(np.float64)
        self._reward_totals[active] += rewards
        self._observations[active] = next_observations

        capped = result.steps[active] >= self.max_steps_per_episode
        finished_lanes = active[result.done[active] | capped]
        finished: List[EpisodeRecord] = []
        for lane in finished_lanes:
            lane = int(lane)
            finished.append(
                EpisodeRecord(
                    episode=int(self._feed.lane_episode[lane]),
                    total_reward=float(self._reward_totals[lane]),
                    success=bool(result.success[lane]),
                    steps=int(result.steps[lane]),
                )
            )
            self._reward_totals[lane] = 0.0
        if finished_lanes.size:
            refilled, refill_obs = self._feed.refill_many(finished_lanes)
            if refilled.size:
                self._observations[refilled] = refill_obs

        return StepBatch(
            observations=observations,
            actions=actions_taken,
            rewards=rewards,
            next_observations=next_observations,
            dones=dones,
            epsilons=epsilons,
            finished=tuple(finished),
        )
