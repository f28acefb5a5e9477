"""The fleet rollout core: conflicts, streaming stats, sim, and the sweep.

The prescreen contract is the load-bearing property here: the spatial hash
must be an *exact superset* filter, so prescreened conflict detection agrees
pair-for-pair with the brute-force all-pairs check on any geometry the
hypothesis strategies can draw.  The rest pins the streaming Welford/Chan
moments against numpy, fleet determinism, battery logistics, and the
registered ``fleet-reliability`` sweep end to end through the engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.obstacles import ObstacleField, planar_distances
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetConfig,
    FleetSim,
    StreamingMoments,
    all_pairs,
    candidate_conflict_pairs,
    conflicting_pairs,
    detect_conflicts,
    run_fleet_episodes,
)
from repro.fleet.reliability import (
    assemble_fleet_reliability,
    corruption_probability,
    fleet_reliability_sweep_spec,
)
from repro.fleet.sim import CHARGING, DONE, TO_CHARGER
from repro.runtime.engine import run_sweep


def _open_field(size: float = 30.0) -> ObstacleField:
    return ObstacleField(
        world_size=(size, size),
        centers=np.empty((0, 2)),
        radii=np.empty(0),
    )


def _reference_candidate_pairs(
    starts: np.ndarray, lengths: np.ndarray, separation_m: float
) -> np.ndarray:
    """The dict-of-buckets spatial hash the sort-based prescreen replaced."""
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    lengths = np.asarray(lengths, dtype=np.float64).reshape(-1)
    count = starts.shape[0]
    if count < 2:
        return np.empty((0, 2), dtype=np.int64)
    cell = separation_m + 2.0 * float(lengths.max())
    cells = np.floor(starts / cell).astype(np.int64)
    grouped = {}
    for index, key in enumerate(map(tuple, cells)):
        grouped.setdefault(key, []).append(index)
    buckets = {key: np.asarray(members, dtype=np.int64) for key, members in grouped.items()}
    lefts, rights = [], []
    for (cell_x, cell_y), members in buckets.items():
        if members.size > 1:
            inner_left, inner_right = np.triu_indices(members.size, k=1)
            lefts.append(members[inner_left])
            rights.append(members[inner_right])
        for offset_x, offset_y in ((1, 0), (0, 1), (1, 1), (1, -1)):
            neighbours = buckets.get((cell_x + offset_x, cell_y + offset_y))
            if neighbours is not None:
                lefts.append(np.repeat(members, neighbours.size))
                rights.append(np.tile(neighbours, members.size))
    if not lefts:
        return np.empty((0, 2), dtype=np.int64)
    left = np.concatenate(lefts)
    right = np.concatenate(rights)
    near = planar_distances(starts[left] - starts[right]) < (
        separation_m + lengths[left] + lengths[right]
    )
    left, right = left[near], right[near]
    low, high = np.minimum(left, right), np.maximum(left, right)
    order = np.lexsort((high, low))
    return np.stack([low[order], high[order]], axis=1)


def _assert_same_candidates(starts, lengths, separation_m):
    got = candidate_conflict_pairs(starts, lengths, separation_m)
    expected = _reference_candidate_pairs(starts, lengths, separation_m)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


# --------------------------------------------------------------------------- conflicts
class TestConflictDetection:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=0, max_value=150),
        extent=st.sampled_from([0.5, 5.0, 30.0, 400.0]),
        separation=st.floats(min_value=0.1, max_value=3.0),
        on_boundaries=st.booleans(),
        zero_lengths=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_prescreen_equals_dict_bucket_reference(
        self, seed, count, extent, separation, on_boundaries, zero_lengths
    ):
        """The sort-based hash returns the dict-bucket hash's exact array."""
        rng = np.random.default_rng(seed)
        lengths = np.zeros(count) if zero_lengths else rng.uniform(0.0, 1.5, size=count)
        starts = rng.uniform(-extent, extent, size=(count, 2))
        if on_boundaries and count:
            # Starts rounded onto multiples of the hash cell size.
            cell = separation + 2.0 * float(lengths.max())
            starts = np.round(starts / cell) * cell
        _assert_same_candidates(starts, lengths, float(separation))

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_prescreen_tiny_fleets_equal_reference(self, count):
        starts = np.array([[-0.3, 0.2], [0.4, -0.1]])[:count]
        _assert_same_candidates(starts, np.full(count, 0.25), 1.0)

    def test_prescreen_on_a_very_wide_extent_equals_reference(self):
        """Cells spanning ~1e15 on both axes overflow a single int64 key."""
        rng = np.random.default_rng(17)
        clusters = np.array([[-1e15, -1e15], [1e15, 1e15], [-1e15, 1e15], [0.0, 0.0]])
        starts = (clusters[:, None, :] + rng.uniform(-2.0, 2.0, size=(4, 30, 2))).reshape(-1, 2)
        lengths = rng.uniform(0.0, 0.5, size=starts.shape[0])
        _assert_same_candidates(starts, lengths, 1.0)
        assert candidate_conflict_pairs(starts, lengths, 1.0).shape[0] > 0


    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=2, max_value=120),
        separation=st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_prescreen_equals_all_pairs(self, seed, count, separation):
        """Prescreen + exact check returns exactly the all-pairs answer."""
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 25.0, size=(count, 2))
        ends = starts + rng.uniform(-1.2, 1.2, size=(count, 2))
        fast = detect_conflicts(starts, ends, float(separation))
        brute = conflicting_pairs(starts, ends, float(separation))
        assert np.array_equal(fast, brute)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=2, max_value=80),
    )
    @settings(max_examples=25, deadline=None)
    def test_candidates_are_a_superset_of_conflicts(self, seed, count):
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 15.0, size=(count, 2))
        ends = starts + rng.uniform(-1.0, 1.0, size=(count, 2))
        lengths = np.sqrt(((ends - starts) ** 2).sum(axis=1))
        candidates = {tuple(row) for row in candidate_conflict_pairs(starts, lengths, 0.8)}
        conflicts = {tuple(row) for row in conflicting_pairs(starts, ends, 0.8)}
        assert conflicts <= candidates

    def test_prescreen_prunes_far_apart_vehicles(self):
        """A spread-out fleet reaches the exact check with ~O(N) candidates."""
        side = 40
        xs, ys = np.meshgrid(np.arange(side) * 10.0, np.arange(side) * 10.0)
        starts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        ends = starts + np.array([0.5, 0.0])
        lengths = np.full(starts.shape[0], 0.5)
        candidates = candidate_conflict_pairs(starts, lengths, 0.8)
        assert candidates.shape[0] == 0
        assert all_pairs(starts.shape[0]).shape[0] == side**2 * (side**2 - 1) // 2

    def test_crossing_pair_is_detected_and_parallel_pair_is_not(self):
        starts = np.array([[0.0, 0.0], [1.0, -1.0], [10.0, 10.0]])
        ends = np.array([[2.0, 0.0], [1.0, 1.0], [12.0, 10.0]])
        pairs = detect_conflicts(starts, ends, separation_m=0.5)
        assert pairs.tolist() == [[0, 1]]

    def test_separation_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            detect_conflicts(np.zeros((2, 2)), np.ones((2, 2)), 0.0)


# --------------------------------------------------------------------------- streaming stats
class TestStreamingMoments:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        count=st.integers(min_value=2, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy_mean_and_variance(self, seed, count):
        values = np.random.default_rng(seed).normal(5.0, 3.0, size=count)
        acc = StreamingMoments()
        for value in values:
            acc.update(value)
        assert acc.count == count
        assert acc.mean == pytest.approx(values.mean(), rel=1e-12)
        assert acc.variance == pytest.approx(values.var(ddof=1), rel=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 2),
        left=st.integers(min_value=0, max_value=60),
        right=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_pooled_stream(self, seed, left, right):
        """Chan's merge of two shards equals streaming the pooled values."""
        values = np.random.default_rng(seed).uniform(-4.0, 9.0, size=left + right)
        first, second = StreamingMoments(), StreamingMoments()
        first.update_many(values[:left])
        second.update_many(values[left:])
        first.merge(second)
        pooled = StreamingMoments()
        pooled.update_many(values)
        assert first.count == pooled.count
        assert first.mean == pytest.approx(pooled.mean, rel=1e-12, abs=1e-12)
        assert first.m2 == pytest.approx(pooled.m2, rel=1e-9, abs=1e-9)

    def test_ci95_tightens_with_count(self):
        narrow, wide = StreamingMoments(), StreamingMoments()
        wide.update_many(np.array([0.0, 1.0] * 8))
        narrow.update_many(np.array([0.0, 1.0] * 800))
        assert narrow.ci95[1] - narrow.ci95[0] < wide.ci95[1] - wide.ci95[0]
        assert narrow.ci95[0] < narrow.mean < narrow.ci95[1]

    def test_jsonable_round_trip(self):
        acc = StreamingMoments()
        acc.update_many(np.array([1.0, 2.0, 7.5]))
        restored = StreamingMoments.from_jsonable(acc.to_jsonable())
        assert restored == acc
        with pytest.raises(ConfigurationError):
            StreamingMoments.from_jsonable({"count": 1})


# --------------------------------------------------------------------------- fleet sim
class TestFleetSim:
    def test_same_seed_gives_identical_episode(self):
        field = _open_field()
        config = FleetConfig(num_vehicles=12, max_steps=60, launch_per_step=4)
        first = FleetSim(field, config, rng=7).run()
        second = FleetSim(field, config, rng=7).run()
        assert first == second

    def test_open_field_fleet_reaches_goals(self):
        field = _open_field()
        config = FleetConfig(num_vehicles=10, max_steps=200)
        result = FleetSim(field, config, rng=1).run()
        assert result.success_fraction == 1.0
        assert result.crash_fraction == 0.0
        assert result.mean_steps_to_goal > 0
        assert result.mean_energy_used_j > 0

    def test_tiny_battery_forces_charge_stops(self):
        """A battery good for a few steps trips the reserve rule: vehicles
        divert, dock, recharge, and still finish the mission."""
        field = _open_field()
        config = FleetConfig(
            num_vehicles=6,
            max_steps=4000,
            battery_capacity_j=90.0,
            charge_power_w=40.0,
            num_chargers=6,
        )
        sim = FleetSim(field, config, rng=3)
        saw_divert = saw_charging = False
        while sim.step_index < config.max_steps and not sim.finished:
            sim.step()
            saw_divert = saw_divert or bool((sim.states == TO_CHARGER).any())
            saw_charging = saw_charging or bool((sim.states == CHARGING).any())
        assert saw_divert and saw_charging
        assert sim.charge_stops > 0
        assert (sim.states == DONE).any()

    def test_dense_fleet_records_conflicts(self):
        """Vehicles funnelled through a shared 4x4 box must yield."""
        field = _open_field(4.0)
        config = FleetConfig(num_vehicles=16, max_steps=120, separation_m=1.0)
        result = FleetSim(field, config, rng=5).run()
        assert result.conflicts > 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(num_vehicles=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(action_corruption_prob=1.5)
        with pytest.raises(ConfigurationError):
            FleetConfig(battery_reserve_factor=0.5)

    def test_episode_streaming_matches_sequential_results(self):
        field = _open_field()
        config = FleetConfig(num_vehicles=8, max_steps=80)
        moments = run_fleet_episodes(field, config, num_episodes=3, rng=11)
        assert moments["success_fraction"].count == 3
        assert 0.0 <= moments["success_fraction"].mean <= 1.0
        # Accumulators keep folding across calls (sharded aggregation).
        more = run_fleet_episodes(field, config, 2, rng=12, accumulators=moments)
        assert more["success_fraction"].count == 5


# --------------------------------------------------------------------------- the sweep
class TestFleetReliabilitySweep:
    def test_corruption_probability_chain(self):
        assert corruption_probability(0.0) == 0.0
        assert corruption_probability(100.0) == 1.0
        assert corruption_probability(0.1) == pytest.approx(
            1.0 - (1.0 - 0.001) ** 16
        )

    def test_small_slice_through_the_engine(self):
        sweep = fleet_reliability_sweep_spec(
            voltages=(1.43, 0.71),
            world_seeds=(0,),
            num_vehicles=6,
            episodes_per_job=1,
            max_steps=40,
        )
        assert len(sweep.jobs) == 2
        results = run_sweep(sweep)
        table = assemble_fleet_reliability(sweep, results)
        assert len(table.rows) == 2
        nominal, undervolted = table.rows
        assert nominal["voltage_vmin"] == 1.43
        assert undervolted["voltage_vmin"] == 0.71
        assert nominal["corruption_prob"] < undervolted["corruption_prob"]
        assert {"success_pct", "success_ci95_pct", "mean_energy_used_j"} <= set(nominal)

    def test_assembler_rejects_empty_results(self):
        sweep = fleet_reliability_sweep_spec(voltages=(1.43,), world_seeds=(0,))
        with pytest.raises(ConfigurationError):
            assemble_fleet_reliability(sweep, [None])
