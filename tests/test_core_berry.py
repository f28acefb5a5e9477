"""Tests for the BERRY error-aware trainer (Algorithm 1) and learning modes."""

import numpy as np
import pytest

from repro.core.berry import BerryConfig, BerryTrainer
from repro.core.modes import OnDeviceSession, train_classical, train_offline_berry
from repro.errors import TrainingError
from repro.faults.chips import CHIP_RANDOM
from repro.faults.fault_map import FaultMap
from repro.nn.policies import mlp
from repro.rl.dqn import DqnConfig
from repro.rl.replay_buffer import Transition
from repro.rl.schedules import LinearDecay


@pytest.fixture
def fast_config() -> DqnConfig:
    return DqnConfig(
        batch_size=16,
        buffer_capacity=2000,
        learning_starts=32,
        train_frequency=2,
        target_update_interval=100,
        epsilon_schedule=LinearDecay(start=1.0, end=0.1, decay_steps=500),
    )


def make_batch(env, size=16, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    shape = env.observation_space.shape
    return Transition(
        observations=rng.normal(size=(size,) + shape),
        actions=rng.integers(0, env.action_space.n, size=size),
        rewards=rng.normal(size=size),
        next_observations=rng.normal(size=(size,) + shape),
        dones=(rng.random(size) < 0.2).astype(np.float64),
    )


class TestBerryConfig:
    def test_defaults_are_offline(self):
        config = BerryConfig()
        assert config.injection_mode == "offline"
        assert config.ber_fraction == pytest.approx(0.005)

    def test_validation(self):
        with pytest.raises(TrainingError):
            BerryConfig(ber_percent=-1.0)
        with pytest.raises(TrainingError):
            BerryConfig(injection_mode="hybrid")
        with pytest.raises(TrainingError):
            BerryConfig(gradient_combination="max")
        with pytest.raises(TrainingError):
            BerryConfig(weight_clip=0.0)
        with pytest.raises(TrainingError):
            BerryConfig(stuck_at_1_bias=1.5)


class TestBerryTrainer:
    def test_offline_mode_samples_fresh_maps(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0), rng=0,
        )
        a = trainer.sample_fault_map()
        b = trainer.sample_fault_map()
        assert not np.array_equal(a.indices, b.indices)

    def test_on_device_mode_uses_fixed_map(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0, injection_mode="on_device"), rng=0,
        )
        assert trainer.device_fault_map is not None
        assert trainer.sample_fault_map() is trainer.sample_fault_map()

    def test_device_map_rejected_in_offline_mode(self, small_env, fast_config):
        fault_map = FaultMap.empty(10_000_000)
        with pytest.raises(TrainingError):
            BerryTrainer(
                small_env, policy_spec=mlp((16,)), config=fast_config,
                berry=BerryConfig(ber_percent=1.0), device_fault_map=fault_map, rng=0,
            )

    def test_too_small_device_map_rejected(self, small_env, fast_config):
        fault_map = FaultMap.empty(8)
        with pytest.raises(TrainingError):
            BerryTrainer(
                small_env, policy_spec=mlp((16,)), config=fast_config,
                berry=BerryConfig(ber_percent=1.0, injection_mode="on_device"),
                device_fault_map=fault_map, rng=0,
            )

    def test_zero_ber_degenerates_to_classical_gradient(self, small_env, fast_config):
        berry = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=0.0, weight_clip=None), rng=0,
        )
        batch = make_batch(small_env)
        berry.q_network.zero_grad()
        berry.accumulate_gradients(batch)
        berry_grads = berry.q_network.gradients()

        from repro.rl.dqn import DqnTrainer

        reference = DqnTrainer(small_env, policy_spec=mlp((16,)), config=fast_config, rng=0)
        reference.q_network.load_state_dict(berry.q_network.state_dict())
        reference.target_network.load_state_dict(berry.target_network.state_dict())
        reference.q_network.zero_grad()
        reference.accumulate_gradients(batch)
        for name, grad in reference.q_network.gradients().items():
            assert np.allclose(grad, berry_grads[name])

    def test_perturbed_pass_contributes_gradient(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=5.0), rng=0,
        )
        batch = make_batch(small_env)
        trainer.q_network.zero_grad()
        loss = trainer.accumulate_gradients(batch)
        assert np.isfinite(loss)
        assert trainer.num_injections == 1

    def test_weight_clip_enforced_after_update(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0, weight_clip=0.05), rng=0,
        )
        # Blow up the weights, then apply one learning step: clipping must bound them.
        for parameter in trainer.q_network.parameters():
            parameter.data += 1.0
        trainer.learn_on_batch(make_batch(small_env))
        for parameter in trainer.q_network.parameters():
            assert np.all(np.abs(parameter.data) <= 0.05 + 1e-12)

    def test_deployed_network_is_quantized_view(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0), rng=0,
        )
        deployed = trainer.deployed_network()
        for name, values in deployed.state_dict().items():
            original = trainer.q_network.state_dict()[name]
            max_abs = np.abs(original).max()
            step = max_abs / 127.0 if max_abs > 0 else 1.0
            assert np.allclose(values, original, atol=step)

    def test_deployed_network_with_fault_map_differs(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0), rng=0,
        )
        fault_map = FaultMap.random(trainer.injector.memory_bits, 0.05, rng=0)
        corrupted = trainer.deployed_network(fault_map)
        clean = trainer.deployed_network()
        differences = sum(
            int(np.count_nonzero(~np.isclose(corrupted.state_dict()[n], clean.state_dict()[n])))
            for n in clean.state_dict()
        )
        assert differences > 0

    def test_short_training_run(self, small_env, fast_config):
        trainer = BerryTrainer(
            small_env, policy_spec=mlp((16,)), config=fast_config,
            berry=BerryConfig(ber_percent=1.0), rng=0,
        )
        history = trainer.train(4)
        assert history.num_episodes == 4
        if history.gradient_steps > 0:
            assert trainer.num_injections == history.gradient_steps


class TestPersistentPerturbedNetworks:
    """Reusing θ̃/θ̃⁻ networks across steps equals cloning fresh ones per step."""

    @pytest.mark.parametrize(
        "berry",
        [
            BerryConfig(ber_percent=2.0),
            BerryConfig(ber_percent=2.0, injection_mode="on_device"),
            BerryConfig(ber_percent=2.0, perturb_target=False),
        ],
        ids=["offline", "on_device", "clean_target"],
    )
    def test_matches_fresh_clones_per_step(self, small_env_config, fast_config, berry, monkeypatch):
        from repro.envs.navigation import NavigationEnv

        def make_trainer():
            return BerryTrainer(
                NavigationEnv(small_env_config, rng=3), policy_spec=mlp((16,)),
                config=fast_config, berry=berry, rng=5,
            )

        persistent, fresh = make_trainer(), make_trainer()
        perturb = fresh.injector.perturb_network
        monkeypatch.setattr(
            fresh.injector, "perturb_network",
            lambda network, fault_map, out=None: perturb(network, fault_map),
        )
        for trainer in (persistent, fresh):
            for step in range(6):
                trainer.learn_on_batch(make_batch(trainer.env, rng_seed=step))
            trainer.train(6)
        assert persistent.num_injections == fresh.num_injections > 6
        assert persistent.history.losses == fresh.history.losses
        for network in ("q_network", "target_network"):
            ours = getattr(persistent, network).state_dict()
            theirs = getattr(fresh, network).state_dict()
            for name in ours:
                assert np.array_equal(ours[name].view(np.int64), theirs[name].view(np.int64))


class TestModes:
    def test_train_classical_returns_trainer(self, small_env, fast_config):
        trainer = train_classical(small_env, 3, policy_spec=mlp((16,)), config=fast_config, rng=0)
        assert trainer.history.num_episodes == 3

    def test_train_offline_berry_returns_berry_trainer(self, small_env, fast_config):
        trainer = train_offline_berry(
            small_env, 3, ber_percent=1.0, policy_spec=mlp((16,)), config=fast_config, rng=0
        )
        assert isinstance(trainer, BerryTrainer)
        assert trainer.berry.injection_mode == "offline"

    def test_train_offline_berry_rejects_on_device_config(self, small_env, fast_config):
        with pytest.raises(TrainingError):
            train_offline_berry(
                small_env, 1, policy_spec=mlp((16,)), config=fast_config,
                berry=BerryConfig(injection_mode="on_device"), rng=0,
            )

    def test_on_device_session_runs_and_accounts_energy(self, small_env, fast_config):
        session = OnDeviceSession(
            small_env, CHIP_RANDOM, normalized_voltage=0.73,
            policy_spec=mlp((16,)), config=fast_config, rng=0,
        )
        result = session.run(num_learning_steps=60, max_episodes=20)
        assert result.num_learning_steps >= 60 or result.trainer.history.num_episodes == 20
        assert result.normalized_voltage == pytest.approx(0.73)
        assert result.learning_energy_j == 0.0  # no accelerator model attached
        assert result.device_fault_map.num_faults >= 0

    def test_on_device_session_warm_start(self, small_env, fast_config):
        pretrained = train_classical(small_env, 2, policy_spec=mlp((16,)), config=fast_config, rng=0)
        session = OnDeviceSession(
            small_env, CHIP_RANDOM, normalized_voltage=0.75,
            policy_spec=mlp((16,)), config=fast_config, rng=1,
        )
        session.warm_start(pretrained.q_network.state_dict())
        state = session.trainer.q_network.state_dict()
        for name, values in pretrained.q_network.state_dict().items():
            assert np.array_equal(state[name], values)

    def test_on_device_invalid_voltage(self, small_env, fast_config):
        with pytest.raises(TrainingError):
            OnDeviceSession(small_env, CHIP_RANDOM, normalized_voltage=0.0, config=fast_config)
