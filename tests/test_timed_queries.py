"""Time-parameterised batched geometry queries vs the ``at_time`` reference.

The timed queries are a *refactor* of the per-instant snapshot path, not an
approximation: for any mover layout, any time vector and any ray fan, row
``i`` of a timed batched query must be bitwise-equal to running the plain
static query on ``field.at_time(times[i])``.  Property tests draw random
worlds/times/fans; deterministic pins cover the degenerate corners (no
movers, zero speed, empty march grids).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.envs.obstacles import ObstacleField
from repro.envs.sensors import OccupancyImager, RaySensor
from repro.errors import ConfigurationError
from repro.worlds.dynamic import DynamicObstacleField, MovingObstacle


def _random_field(seed: int, num_static=None, num_movers=None) -> DynamicObstacleField:
    """A random dynamic field; circle counts are drawn unless given."""
    rng = np.random.default_rng(seed)
    drawn_static = int(rng.integers(0, 5))
    drawn_movers = int(rng.integers(1, 4))
    num_static = drawn_static if num_static is None else num_static
    num_movers = drawn_movers if num_movers is None else num_movers
    movers = tuple(
        MovingObstacle(
            waypoints=rng.uniform(1.0, 13.0, size=(int(rng.integers(2, 5)), 2)),
            radius=float(rng.uniform(0.3, 0.8)),
            speed_m_s=float(rng.uniform(0.0, 2.0)),
            phase_m=float(rng.uniform(0.0, 5.0)),
        )
        for _ in range(num_movers)
    )
    return DynamicObstacleField(
        world_size=(14.0, 12.0),
        centers=rng.uniform(1.0, 11.0, size=(num_static, 2)),
        radii=rng.uniform(0.3, 1.0, size=num_static),
        movers=movers,
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    count=st.integers(min_value=1, max_value=24),
    rays=st.integers(min_value=1, max_value=9),
    shared_time=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_timed_rays_equal_snapshot_reference(seed, count, rays, shared_time):
    field = _random_field(seed)
    rng = np.random.default_rng(seed + 1)
    origins = rng.uniform(0.5, 11.5, size=(count, 2))
    angles = rng.uniform(-np.pi, np.pi, size=(count, rays))
    times = rng.uniform(0.0, 40.0, size=1 if shared_time else count)
    times = np.broadcast_to(times, (count,))
    got = field.ray_distances_many_timed(origins, angles, times, max_range=5.0, step=0.2)
    assert got.shape == (count, rays)
    for i in range(count):
        reference = field.at_time(float(times[i])).ray_distances_many(
            origins[i : i + 1], angles[i : i + 1], 5.0, 0.2
        )
        assert np.array_equal(got[i], reference[0])


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    count=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=30, deadline=None)
def test_timed_collisions_equal_snapshot_reference(seed, count):
    field = _random_field(seed)
    rng = np.random.default_rng(seed + 2)
    points = rng.uniform(-1.0, 15.0, size=(count, 2))
    times = rng.uniform(0.0, 40.0, size=count)
    radius = float(rng.uniform(0.0, 0.4))
    got = field.collides_many_timed(points, times, radius)
    for i in range(count):
        assert got[i] == field.at_time(float(times[i])).collides(points[i], radius)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    count=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=20, deadline=None)
def test_timed_clearances_equal_snapshot_reference(seed, count):
    field = _random_field(seed)
    rng = np.random.default_rng(seed + 3)
    points = rng.uniform(0.0, 14.0, size=(count, 2))
    times = rng.uniform(0.0, 40.0, size=count)
    got = field.clearances_timed(points, times)
    for i in range(count):
        assert got[i] == field.at_time(float(times[i])).clearances(points[i : i + 1])[0]


def test_timed_sensor_matches_per_lane_snapshots():
    field = _random_field(7)
    rng = np.random.default_rng(11)
    count = 13
    positions = rng.uniform(1.0, 11.0, size=(count, 2))
    headings = rng.uniform(-np.pi, np.pi, size=count)
    times = rng.uniform(0.0, 40.0, size=count)
    sensor = RaySensor(num_rays=8, max_range_m=5.0, step_m=0.2)
    got = sensor.sense_many(field, positions, headings, times_s=times)
    for i in range(count):
        reference = sensor.sense(
            field.at_time(float(times[i])), positions[i], float(headings[i])
        )
        assert np.array_equal(got[i], reference)


def test_timed_imager_matches_per_lane_snapshots():
    field = _random_field(5)
    rng = np.random.default_rng(13)
    count = 6
    positions = rng.uniform(1.0, 11.0, size=(count, 2))
    headings = rng.uniform(-np.pi, np.pi, size=count)
    goals = rng.uniform(1.0, 11.0, size=(count, 2))
    times = rng.uniform(0.0, 40.0, size=count)
    imager = OccupancyImager(image_size=10)
    got = imager.render_many(field, positions, headings, goals, times_s=times)
    for i in range(count):
        reference = imager.render(
            field.at_time(float(times[i])), positions[i], float(headings[i]), goals[i]
        )
        assert np.array_equal(got[i], reference)


def test_timed_rays_without_movers_match_static_query():
    field = DynamicObstacleField(
        world_size=(10.0, 10.0),
        centers=np.array([[5.0, 5.0]]),
        radii=np.array([1.0]),
        movers=(),
    )
    origins = np.array([[1.0, 1.0], [8.0, 8.0]])
    angles = np.array([0.0, np.pi / 2])
    times = np.array([0.0, 25.0])
    got = field.ray_distances_many_timed(origins, angles, times, max_range=6.0)
    reference = field.ray_distances_many(origins, angles, max_range=6.0)
    assert np.array_equal(got, reference)


def test_timed_rays_validate_time_vector_length():
    field = _random_field(3)
    with pytest.raises(ConfigurationError):
        field.ray_distances_many_timed(
            np.zeros((3, 2)), np.zeros(4), np.zeros(2), max_range=5.0
        )
    with pytest.raises(ConfigurationError):
        field.collides_many_timed(np.zeros((3, 2)), np.zeros(2))


# --------------------------------------------------------------------------- kernel pins
# The stacked-delta point-vs-circle expression the split-coordinate kernel
# replaced, frozen here as the reference: every float the queries return must
# keep its exact bits, and every collision mask its exact entries.
def _reference_circle_distances(points, centers, radii):
    """(P, N) ``sqrt(sum(deltas**2)) - r`` over a (P, N, 2) delta tensor."""
    deltas = points[:, None, :] - centers[None, :, :]
    return np.sqrt(np.sum(deltas**2, axis=2)) - radii[None, :]


def _reference_static_clearances(field, points):
    width, height = field.world_size
    xs, ys = points[:, 0], points[:, 1]
    walls = np.minimum(np.minimum(xs, width - xs), np.minimum(ys, height - ys))
    if field.num_obstacles == 0:
        return walls
    nearest = _reference_circle_distances(points, field.centers, field.radii).min(axis=1)
    return np.minimum(walls, nearest)


def _reference_mover_distances(field, points, times):
    """(M, P) mover surface distances, every point's time evaluated directly."""
    centers = np.stack([mover.positions_at(times) for mover in field.movers])
    radii = np.array([mover.radius for mover in field.movers])
    deltas = points[None, :, :] - centers
    return np.sqrt(np.sum(deltas**2, axis=2)) - radii[:, None]


def _reference_collide_mask(field, points, times, vehicle_radius):
    width, height = field.world_size
    xs, ys = points[:, 0], points[:, 1]
    hit = (
        (xs < vehicle_radius)
        | (xs > width - vehicle_radius)
        | (ys < vehicle_radius)
        | (ys > height - vehicle_radius)
        | (_reference_static_clearances(field, points) < vehicle_radius)
    )
    if field.movers:
        hit |= (_reference_mover_distances(field, points, times) < vehicle_radius).any(axis=0)
    return hit


def _pin_times(rng, count, mode):
    if mode == "one-instant":
        return np.full(count, float(rng.uniform(0.0, 40.0)))
    if mode == "duplicates":
        return rng.choice(rng.uniform(0.0, 40.0, size=3), size=count)
    if mode == "signed-zeros":
        return rng.choice(np.array([0.0, -0.0, 2.5]), size=count)
    return rng.uniform(0.0, 40.0, size=count)


def _same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _assert_kernel_pins(field, points, times, vehicle_radius, ends, end_times):
    static = ObstacleField(field.world_size, field.centers, field.radii)
    expected = _reference_static_clearances(field, points)
    _same_bits(static.clearances(points), expected)
    if field.movers:
        expected = np.minimum(
            expected, _reference_mover_distances(field, points, times).min(axis=0)
        )
    _same_bits(field.clearances_timed(points, times), expected)
    assert np.array_equal(
        field.collides_many_timed(points, times, vehicle_radius),
        _reference_collide_mask(field, points, times, vehicle_radius),
    )
    fractions = np.linspace(0.0, 1.0, 8)
    samples = points[:, None, :] + fractions[None, :, None] * (ends - points)[:, None, :]
    sample_times = times[:, None] + fractions[None, :] * (end_times - times)[:, None]
    reference = _reference_collide_mask(
        field, samples.reshape(-1, 2), sample_times.reshape(-1), vehicle_radius
    )
    assert np.array_equal(
        field.segments_collide_timed(points, ends, times, end_times, vehicle_radius),
        reference.reshape(-1, fractions.size).any(axis=1),
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    num_static=st.integers(min_value=0, max_value=40),
    num_movers=st.integers(min_value=0, max_value=5),
    count=st.integers(min_value=1, max_value=60),
    time_mode=st.sampled_from(["one-instant", "duplicates", "distinct", "signed-zeros"]),
)
@example(seed=0, num_static=0, num_movers=0, count=6, time_mode="distinct")
@example(seed=1, num_static=0, num_movers=3, count=1, time_mode="signed-zeros")
@example(seed=2, num_static=5, num_movers=2, count=1, time_mode="one-instant")
@settings(max_examples=80, deadline=None)
def test_queries_match_stacked_delta_reference_bitwise(
    seed, num_static, num_movers, count, time_mode
):
    """Empty and populated fields, single points, every time-vector shape."""
    field = _random_field(seed, num_static, num_movers)
    rng = np.random.default_rng(seed + 5)
    points = rng.uniform(-1.0, 15.0, size=(count, 2))
    times = _pin_times(rng, count, time_mode)
    ends = points + rng.uniform(-1.0, 1.0, size=(count, 2))
    end_times = times + float(rng.choice([0.0, 0.1, 2.5]))
    _assert_kernel_pins(field, points, times, float(rng.uniform(0.0, 0.4)), ends, end_times)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    time_mode=st.sampled_from(["one-instant", "duplicates", "distinct", "signed-zeros"]),
)
@settings(max_examples=4, deadline=None)
def test_chunked_clearances_match_stacked_delta_reference_bitwise(seed, time_mode):
    """More than ``1 << 20`` point-circle cells: ``clearances`` runs in chunks."""
    field = _random_field(seed, num_static=1100, num_movers=3)
    rng = np.random.default_rng(seed + 6)
    count = 1000
    assert count * field.num_obstacles > 1 << 20
    points = rng.uniform(-1.0, 15.0, size=(count, 2))
    times = _pin_times(rng, count, time_mode)
    ends = points + rng.uniform(-0.5, 0.5, size=(count, 2))
    _assert_kernel_pins(field, points, times, 0.1, ends, times + 0.1)


def test_segments_collide_timed_validates_time_vectors():
    field = _random_field(3)
    starts, ends = np.zeros((3, 2)) + 1.0, np.zeros((3, 2)) + 2.0
    for start_times, end_times in [
        (np.zeros(1), np.ones(3)),  # one time must not broadcast over every segment
        (np.zeros(3), np.ones(1)),
        (np.zeros(2), np.ones(3)),  # not numpy's bare broadcast ValueError
        (np.zeros(3), np.ones(4)),
    ]:
        with pytest.raises(ConfigurationError):
            field.segments_collide_timed(starts, ends, start_times, end_times)
