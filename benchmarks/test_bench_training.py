"""Benchmark: single-lane vs lockstep-batched DQN training.

The batched trainer collects B transitions per lockstep step — one batched Q
forward, one batched environment step and one vectorised replay insert for
the whole batch — where one lane (``train_lanes=1``, which replays the scalar
training loop bitwise) pays python/numpy dispatch per transition.  Gradient
work is *identical* per transition on both paths (the cadence is indexed by
the global transition counter), so the measured metric is end-to-end
environment-steps per second of the full training loop.

``test_batched_training_speedup`` is the acceptance gate: >= 3x
environment-steps/sec over one lane at B >= 8 lanes (the gate runs B = 64,
the rollout core's default lane width) on a collection-bound cadence.  The
pytest-benchmark groups additionally record the B=1 / B=8 / B=64 shapes for
tracking.
"""

import time

import pytest

from repro.envs.navigation import NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.experiments.profiles import FAST_PROFILE
from repro.nn.policies import mlp
from repro.rl.dqn import DqnConfig, DqnTrainer
from repro.rl.schedules import LinearDecay

#: Lane count of the acceptance gate (B >= 8; 64 is the rollout-core default).
GATE_LANES = 64

#: Collection-bound throughput cadence: gradient steps every 8 transitions,
#: so the benchmark measures the experience-collection refactor rather than
#: the (path-independent) gradient arithmetic.
def _config(train_lanes: int) -> DqnConfig:
    return DqnConfig(
        batch_size=16,
        buffer_capacity=8000,
        learning_starts=128,
        train_frequency=8,
        target_update_interval=250,
        epsilon_schedule=LinearDecay(start=1.0, end=0.05, decay_steps=1500),
        train_lanes=train_lanes,
    )


def _trainer(train_lanes: int) -> DqnTrainer:
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.SPARSE)
    return DqnTrainer(
        NavigationEnv(config, rng=5),
        policy_spec=mlp((32, 32)),
        config=_config(train_lanes),
        rng=9,
    )


def _steps_per_second(train_lanes: int, episodes: int) -> float:
    trainer = _trainer(train_lanes)
    start = time.perf_counter()
    trainer.train(episodes)
    elapsed = time.perf_counter() - start
    assert trainer.history.num_episodes == episodes
    assert trainer.history.gradient_steps > 0
    return trainer.history.total_steps / elapsed


def _train_batched(lanes: int, episodes: int) -> DqnTrainer:
    trainer = _trainer(lanes)
    trainer.train(episodes)
    return trainer


@pytest.mark.benchmark(group="dqn-training")
def test_bench_training_serial(benchmark):
    trainer = benchmark.pedantic(_train_batched, args=(1, 48), rounds=3, iterations=1)
    assert trainer.history.num_episodes == 48
    print(f"\nsingle lane: {trainer.history.total_steps} env steps")


@pytest.mark.benchmark(group="dqn-training")
def test_bench_training_batched_b8(benchmark):
    trainer = benchmark.pedantic(_train_batched, args=(8, 48), rounds=3, iterations=1)
    assert trainer.history.num_episodes == 48
    print(f"\nbatched B=8: {trainer.history.total_steps} env steps")


@pytest.mark.benchmark(group="dqn-training")
def test_bench_training_batched_b64(benchmark):
    trainer = benchmark.pedantic(_train_batched, args=(64, 192), rounds=3, iterations=1)
    assert trainer.history.num_episodes == 192
    print(f"\nbatched B=64: {trainer.history.total_steps} env steps")


def _gradient_bound_config(train_lanes: int) -> DqnConfig:
    # Gradient-bound cadence: one batch-64 gradient step per transition.  The
    # lockstep-collection win largely disappears here because the gradient
    # arithmetic (path-independent) dominates; the complementary backend
    # benchmark (benchmarks/test_bench_backend.py) attacks this regime by
    # swapping the compute backend instead.
    return DqnConfig(
        batch_size=64,
        buffer_capacity=8000,
        learning_starts=128,
        train_frequency=1,
        target_update_interval=250,
        epsilon_schedule=LinearDecay(start=1.0, end=0.05, decay_steps=1500),
        train_lanes=train_lanes,
    )


def _train_gradient_bound(train_lanes: int, episodes: int) -> DqnTrainer:
    config = FAST_PROFILE.navigation_for_density(ObstacleDensity.SPARSE)
    trainer = DqnTrainer(
        NavigationEnv(config, rng=5),
        policy_spec=mlp((32, 32)),
        config=_gradient_bound_config(train_lanes),
        rng=9,
    )
    trainer.train(episodes)
    return trainer


@pytest.mark.benchmark(group="dqn-training-gradient-bound")
def test_bench_gradient_bound_serial(benchmark):
    trainer = benchmark.pedantic(_train_gradient_bound, args=(1, 12), rounds=3, iterations=1)
    print(f"\ngradient-bound single lane: {trainer.history.gradient_steps} gradient steps")


@pytest.mark.benchmark(group="dqn-training-gradient-bound")
def test_bench_gradient_bound_batched_b64(benchmark):
    trainer = benchmark.pedantic(_train_gradient_bound, args=(64, 48), rounds=3, iterations=1)
    print(f"\ngradient-bound B=64: {trainer.history.gradient_steps} gradient steps")


def test_batched_training_speedup():
    """Acceptance gate: >= 3x env-steps/sec at B >= 8 over one lane."""

    def best_of(fn, repeats=3):
        return max(fn() for _ in range(repeats))

    serial = best_of(lambda: _steps_per_second(1, 48))
    batched = best_of(lambda: _steps_per_second(GATE_LANES, 256))
    speedup = batched / serial
    print(
        f"\nserial {serial:.0f} steps/s vs batched B={GATE_LANES} "
        f"{batched:.0f} steps/s -> {speedup:.2f}x"
    )
    assert speedup >= 3.0
