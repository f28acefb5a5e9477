"""Golden digests and observation contracts of the single-environment API.

The digests in ``tests/navigation_golden.json`` were recorded by
``tests/navigation_golden.py`` while ``NavigationEnv`` still carried its own
scalar simulator; they must keep matching now that it is a one-lane view of
:class:`~repro.envs.batch.BatchedNavigationEnv`.  The training digests are
matched both by the scalar reference loop and by ``DqnTrainer.train`` at
``train_lanes=1``.
"""

import numpy as np
import pytest

import navigation_golden as golden
from repro.envs.navigation import NavigationEnv, StepResult
from repro.errors import EnvironmentError_

CONFIGS = golden.golden_configs()
FIXTURE = golden.load_fixture()
INFO_KEYS = {"success", "collision", "steps", "path_length_m", "distance_to_goal_m"}


def test_fixture_covers_every_case():
    assert set(FIXTURE["rollouts"]) == set(CONFIGS)
    assert set(FIXTURE["training"]) == set(golden.training_cases())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rollout_digest(name):
    assert golden.rollout_digest(CONFIGS[name]) == FIXTURE["rollouts"][name]


@pytest.mark.parametrize("name", sorted(golden.training_cases()))
def test_reference_training_digest(name):
    assert golden.training_digest(golden.training_cases()[name]) == FIXTURE["training"][name]


@pytest.mark.parametrize("name", sorted(golden.training_cases()))
def test_batched_training_digest(name):
    """``train()`` on one lockstep lane replays the scalar loop bitwise."""
    case = golden.training_cases()[name]
    trainer = golden.build_trainer(CONFIGS[case["config"]], berry=case["berry"])
    trainer.train(golden.TRAIN_EPISODES)
    assert golden.trainer_digest(trainer) == FIXTURE["training"][name]


class TestObservationContract:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_reset_observation_is_in_space(self, name):
        env = NavigationEnv(CONFIGS[name], rng=0)
        observation = env.reset(seed=5)
        assert observation.shape == env.observation_space.shape
        assert env.observation_space.contains(observation)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_random_actions_with_auto_reset(self, name):
        env = NavigationEnv(CONFIGS[name], rng=0)
        rng = np.random.default_rng(11)
        env.reset()
        episodes = 0
        for _ in range(120):
            result = env.step(env.action_space.sample(rng))
            assert isinstance(result, StepResult)
            assert env.observation_space.contains(result.observation)
            assert set(result.info) == INFO_KEYS
            assert all(isinstance(value, float) for value in result.info.values())
            assert isinstance(result.reward, float)
            assert isinstance(result.terminated, bool) and isinstance(result.truncated, bool)
            if result.terminated or result.truncated:
                episodes += 1
                assert env.observation_space.contains(env.reset())
        assert episodes > 0

    def test_step_errors(self):
        env = NavigationEnv(CONFIGS["vector"], rng=0)
        with pytest.raises(EnvironmentError_, match="finished episode"):
            env.step(0)
        env.reset()
        for bad in (env.action_space.n, -1, 2.0, "0"):
            with pytest.raises(EnvironmentError_, match="invalid action"):
                env.step(bad)
