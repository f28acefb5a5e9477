"""Golden digests of the single-environment rollout and training paths.

Two families of SHA-256 digests pin the behaviour of
:class:`~repro.envs.navigation.NavigationEnv` and of the scalar training loop
across refactors of the simulator:

* **rollouts** — every reset and every step of scalar
  :func:`~repro.envs.vector.run_episode` rollouts: observation bytes (with
  dtype and shape), reward, ``terminated``/``truncated`` flags, the ``info``
  keys and values, the vehicle position and episode clock, and after each
  reset the active world (obstacles, bounds, goal).  Each config first runs
  ``epsilon=0.3`` episodes that draw exploration from one shared generator
  and reset without a seed (continuing the environment's construction
  stream), then greedy goal-seeking episodes and one loitering episode under
  per-episode reset seeds.
* **training** — the Q-network and target-network weights, the replay ring
  and the :class:`~repro.rl.dqn.TrainingHistory` after the scalar reference
  loop (:func:`reference_training.train_serial`), numpy backend pinned.

The configs cover vector and image observations, wind plus sensor
perturbations, ``randomize_obstacles_on_reset``, the ``dynamic`` world family
(vector and image sensing of moving obstacles) and start-position noise.

Usage, from the repository root::

    PYTHONPATH=src python tests/navigation_golden.py            # compare
    PYTHONPATH=src python tests/navigation_golden.py --record   # rewrite the fixture

``tests/test_navigation_golden.py`` runs the comparison in the test suite.
Re-record only for an intended behaviour change, and say so in the change log.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.core.berry import BerryConfig, BerryTrainer
from repro.envs.navigation import NavigationConfig, NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.envs.sensors import OccupancyImager, RaySensor
from repro.envs.vector import run_episode
from repro.nn.policies import ConvSpec, PolicySpec, mlp
from repro.rl.dqn import DqnConfig, DqnTrainer
from repro.rl.schedules import LinearDecay
from repro.utils.rng import as_generator
from repro.worlds.perturbations import SensorDegradation, WindGust
from repro.worlds.spec import WorldSpec

from reference_training import train_serial

FIXTURE_PATH = Path(__file__).with_name("navigation_golden.json")

ENV_SEED = 3
GREEDY_RESET_SEEDS = (100, 101, 102, 103)
CIRCLING_RESET_SEED = 104
EXPLORING_EPISODES = 3
EXPLORATION_SEED = 7
TRAIN_EPISODES = 6

TRAIN_CONFIG = DqnConfig(
    batch_size=16,
    buffer_capacity=300,
    learning_starts=32,
    train_frequency=2,
    target_update_interval=40,
    epsilon_schedule=LinearDecay(start=1.0, end=0.1, decay_steps=150),
    train_lanes=1,
    backend="numpy",
)

IMAGE_POLICY = PolicySpec(
    name="golden-conv",
    conv_layers=(ConvSpec(out_channels=4, kernel_size=3, stride=2),),
    hidden_units=(16,),
)


def golden_configs() -> Dict[str, NavigationConfig]:
    """The named scenarios every digest family covers."""
    base = NavigationConfig(
        world_size=(12.0, 12.0),
        density=ObstacleDensity.SPARSE,
        start=(1.5, 6.0),
        goal=(10.5, 6.0),
        goal_radius_m=1.2,
        max_speed_m_s=2.5,
        step_duration_s=0.5,
        max_steps=30,
        observation="vector",
        ray_sensor=RaySensor(num_rays=6, max_range_m=4.0, step_m=0.25),
    )
    image = replace(base, observation="image", imager=OccupancyImager(image_size=8))
    dynamic = replace(base, world_spec=WorldSpec("dynamic", seed=2), max_steps=40)
    return {
        "vector": base,
        "image": image,
        "perturbed": replace(
            base,
            perturbations=(
                WindGust(drift_m_s=(0.3, -0.1), gust_std_m_s=0.2),
                SensorDegradation(dropout_prob=0.15, noise_std=0.05),
            ),
        ),
        "randomized": replace(base, randomize_obstacles_on_reset=True),
        "dynamic": dynamic,
        "dynamic-image": replace(
            dynamic,
            observation="image",
            imager=OccupancyImager(image_size=8),
            randomize_obstacles_on_reset=True,
        ),
        "start-noise": replace(base, start_position_noise_m=0.8),
    }


class _Hasher:
    """SHA-256 over a typed, framed sequence of values."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def text(self, value: str) -> None:
        data = value.encode()
        self._sha.update(len(data).to_bytes(8, "little") + data)

    def array(self, value: Any) -> None:
        array = np.ascontiguousarray(value)
        self.text(f"{array.dtype.str}{array.shape}")
        self._sha.update(array.tobytes())

    def real(self, value: Any) -> None:
        self.text(type(value).__name__)
        self.array(np.float64(value))

    def flag(self, value: Any) -> None:
        self.text(f"{type(value).__name__}:{bool(value)}")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class _RecordingEnv:
    """Forwards ``run_episode``'s calls to an env and hashes what comes back."""

    def __init__(self, env: NavigationEnv, hasher: _Hasher) -> None:
        self._env = env
        self._hasher = hasher
        self.action_space = env.action_space
        self.outcomes = {"success": 0, "collision": 0, "timeout": 0, "steps": 0}

    @property
    def path_length_m(self) -> float:
        return self._env.path_length_m

    def _state(self) -> None:
        self._hasher.array(self._env.position)
        self._hasher.real(self._env.time_s)
        self._hasher.real(self._env.path_length_m)

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        observation = self._env.reset(seed=seed)
        hasher = self._hasher
        hasher.text("reset")
        hasher.array(observation)
        field = self._env.obstacle_field
        hasher.array(field.centers)
        hasher.array(field.radii)
        hasher.text(f"movers={getattr(field, 'num_movers', 0)}")
        hasher.array(np.asarray(self._env.world_size, dtype=np.float64))
        hasher.array(self._env.goal)
        hasher.real(self._env.straight_line_distance_m)
        hasher.text(repr(self._env))
        self._state()
        return observation

    def step(self, action: int):
        result = self._env.step(action)
        hasher = self._hasher
        hasher.text(f"step:{int(action)}")
        hasher.array(result.observation)
        hasher.real(result.reward)
        hasher.flag(result.terminated)
        hasher.flag(result.truncated)
        hasher.text(",".join(sorted(result.info)))
        for key in sorted(result.info):
            hasher.real(result.info[key])
        self._state()
        self.outcomes["steps"] += 1
        if result.terminated or result.truncated:
            if result.info["success"]:
                self.outcomes["success"] += 1
            elif result.info["collision"]:
                self.outcomes["collision"] += 1
            else:
                self.outcomes["timeout"] += 1
        return result


def _goal_seeking_policy(env: NavigationEnv):
    """Turn towards the goal at full speed, perturbed by a fixed random scorer.

    Vector observations carry the goal bearing (``sin``/``cos`` features);
    image observations only encode ``cos`` of it, so they fly straight.
    """
    config = env.config
    speeds = config.num_speed_actions
    size = int(np.prod(env.observation_space.shape))
    weights = np.random.default_rng(2024).normal(0.0, 1.0 / np.sqrt(size), (env.action_space.n, size))
    heading_options = np.linspace(
        -config.max_heading_change_rad, config.max_heading_change_rad, config.num_heading_actions
    )

    def policy(observation: np.ndarray) -> int:
        scores = weights @ observation.reshape(-1)
        if config.observation == "vector":
            bearing = np.arctan2(observation[-3], observation[-2])
            heading = int(np.argmin(np.abs(heading_options - bearing)))
        else:
            heading = config.num_heading_actions // 2
        scores[heading * speeds + speeds - 1] += 1.5
        return int(np.argmax(scores))

    return policy


def _circling_policy(observation: np.ndarray) -> int:
    """Sharpest turn at the lowest speed: loiters until the episode times out."""
    return 0


def rollout_digest(config: NavigationConfig) -> Dict[str, Any]:
    """Digest of greedy seeded and epsilon-greedy shared-stream rollouts."""
    env = NavigationEnv(config, rng=ENV_SEED)
    hasher = _Hasher()
    recorder = _RecordingEnv(env, hasher)
    policy = _goal_seeking_policy(env)
    # Seedless resets first, so they continue the stream the env was built from.
    shared = as_generator(EXPLORATION_SEED)
    for _ in range(EXPLORING_EPISODES):
        result = run_episode(recorder, policy, epsilon=0.3, rng=shared)
        hasher.text(repr(result))
    for seed in GREEDY_RESET_SEEDS:
        result = run_episode(recorder, policy, reset_seed=seed)
        hasher.text(repr(result))
    result = run_episode(recorder, _circling_policy, reset_seed=CIRCLING_RESET_SEED)
    hasher.text(repr(result))
    return {"sha256": hasher.hexdigest(), **recorder.outcomes}


def build_trainer(config: NavigationConfig, berry: bool = False) -> DqnTrainer:
    """The trainer whose scalar-loop outcome the training digest pins."""
    env = NavigationEnv(config, rng=ENV_SEED)
    spec = IMAGE_POLICY if config.observation == "image" else mlp((16,))
    if berry:
        return BerryTrainer(
            env, policy_spec=spec, config=TRAIN_CONFIG, berry=BerryConfig(ber_percent=1.0), rng=7
        )
    return DqnTrainer(env, policy_spec=spec, config=TRAIN_CONFIG, rng=7)


def trainer_digest(trainer: DqnTrainer) -> Dict[str, Any]:
    """Digest of a trained trainer's weights, replay ring and history."""
    hasher = _Hasher()
    for network in (trainer.q_network, trainer.target_network):
        state = network.state_dict()
        for name in sorted(state):
            hasher.text(name)
            hasher.array(state[name])
    replay = trainer.replay
    hasher.text(f"replay:{len(replay)}:{replay._cursor}")
    for array in (
        replay._observations,
        replay._actions,
        replay._rewards,
        replay._next_observations,
        replay._dones,
    ):
        hasher.array(array)
    history = trainer.history
    hasher.array(np.asarray(history.episode_rewards, dtype=np.float64))
    hasher.array(np.asarray(history.episode_successes, dtype=bool))
    hasher.array(np.asarray(history.episode_lengths, dtype=np.int64))
    hasher.array(np.asarray(history.losses, dtype=np.float64))
    hasher.text(f"steps={history.total_steps}:grads={history.gradient_steps}")
    return {
        "sha256": hasher.hexdigest(),
        "total_steps": history.total_steps,
        "gradient_steps": history.gradient_steps,
    }


def training_cases() -> Dict[str, Dict[str, Any]]:
    """Training digest cases: every config with DQN, plus BERRY on vectors."""
    cases = {name: {"config": name, "berry": False} for name in golden_configs()}
    cases["berry-vector"] = {"config": "vector", "berry": True}
    return cases


def training_digest(case: Dict[str, Any]) -> Dict[str, Any]:
    trainer = build_trainer(golden_configs()[case["config"]], berry=case["berry"])
    train_serial(trainer, TRAIN_EPISODES)
    return trainer_digest(trainer)


def compute_all() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return {
        "rollouts": {name: rollout_digest(config) for name, config in golden_configs().items()},
        "training": {name: training_digest(case) for name, case in training_cases().items()},
    }


def load_fixture() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return json.loads(FIXTURE_PATH.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite the fixture file")
    args = parser.parse_args(argv)
    digests = compute_all()
    if args.record:
        FIXTURE_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE_PATH}")
        return 0
    expected = load_fixture()
    mismatches = [
        f"{family}/{name}"
        for family, entries in expected.items()
        for name, entry in entries.items()
        if digests.get(family, {}).get(name) != entry
    ]
    print(json.dumps({"correct": not mismatches, "mismatches": mismatches}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
