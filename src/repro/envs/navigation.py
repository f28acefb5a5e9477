"""Point-to-point UAV navigation environment.

The task follows Sec. V-A of the paper: the UAV starts at a fixed location and
must reach a goal position in the shortest time without colliding with
obstacles.  The action space is the paper's 25-action perception-based space,
factored as 5 heading changes x 5 speed levels; observations are either a
vector of depth rays plus goal features (fast MLP profile) or an egocentric
occupancy image (convolutional C3F2/C5F4 profile).

Episodes terminate on goal arrival (success), collision (failure) or timeout
(failure).  The environment tracks the flown path length so that corrupted
policies manifest as the path detours the paper's flight-time model builds on.

The simulation itself lives in :class:`~repro.envs.batch.BatchedNavigationEnv`;
:class:`NavigationEnv` is its one-lane view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, EnvironmentError_
from repro.envs.obstacles import (
    ObstacleDensity,
    ObstacleField,
    generate_obstacles,
    planar_distances,
)
from repro.envs.sensors import OccupancyImager, RaySensor
from repro.utils.rng import SeedLike

if TYPE_CHECKING:  # repro.worlds imports this module's package; resolve lazily
    from repro.worlds.perturbations import Perturbation
    from repro.worlds.spec import WorldSpec


@dataclass(frozen=True)
class NavigationConfig:
    """Full configuration of a navigation scenario."""

    world_size: Tuple[float, float] = (20.0, 20.0)
    density: ObstacleDensity = ObstacleDensity.MEDIUM
    #: When set, the world (obstacles, bounds, start, goal) is compiled from
    #: this procedural :class:`~repro.worlds.spec.WorldSpec` instead of the
    #: uniform ``density`` field; ``world_size``/``start``/``goal`` above are
    #: then ignored in favour of the generated world's geometry.
    world_spec: Optional["WorldSpec"] = None
    #: Ordered deployment perturbation layers (wind drift on the dynamics
    #: step, ray-sensor degradation on each observation), applied on top of
    #: whichever world is active.
    perturbations: Tuple["Perturbation", ...] = ()
    start: Tuple[float, float] = (2.0, 10.0)
    goal: Tuple[float, float] = (18.0, 10.0)
    goal_radius_m: float = 1.0
    vehicle_radius_m: float = 0.25
    max_speed_m_s: float = 2.0
    step_duration_s: float = 0.5
    max_steps: int = 80
    num_heading_actions: int = 5
    num_speed_actions: int = 5
    max_heading_change_rad: float = math.radians(75.0)
    observation: str = "vector"  # "vector" or "image"
    ray_sensor: RaySensor = field(default_factory=RaySensor)
    imager: OccupancyImager = field(default_factory=OccupancyImager)
    randomize_obstacles_on_reset: bool = False
    #: Uniform noise (metres) added to the start position at every reset; gives
    #: episode diversity on an otherwise fixed world (and makes evaluation an
    #: average over trajectories rather than a single deterministic rollout).
    start_position_noise_m: float = 0.0
    # Reward shaping
    goal_reward: float = 10.0
    collision_penalty: float = -10.0
    step_penalty: float = -0.05
    progress_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.observation not in ("vector", "image"):
            raise ConfigurationError(f"observation must be 'vector' or 'image', got {self.observation!r}")
        if self.num_heading_actions < 1 or self.num_speed_actions < 1:
            raise ConfigurationError("action factorisation must have at least one option per axis")
        if self.max_steps <= 0:
            raise ConfigurationError(f"max_steps must be positive, got {self.max_steps}")
        if self.max_speed_m_s <= 0 or self.step_duration_s <= 0:
            raise ConfigurationError("max_speed_m_s and step_duration_s must be positive")
        if self.goal_radius_m <= 0 or self.vehicle_radius_m < 0:
            raise ConfigurationError("goal_radius_m must be positive and vehicle_radius_m non-negative")
        if self.start_position_noise_m < 0:
            raise ConfigurationError("start_position_noise_m must be non-negative")
        object.__setattr__(self, "perturbations", tuple(self.perturbations))
        if self.perturbations:
            from repro.worlds.perturbations import SensorDegradation, WindGust

            for perturbation in self.perturbations:
                if not isinstance(perturbation, (WindGust, SensorDegradation)):
                    raise ConfigurationError(
                        f"unknown perturbation type {type(perturbation).__name__}"
                    )

    @property
    def num_actions(self) -> int:
        return self.num_heading_actions * self.num_speed_actions


@dataclass
class StepResult:
    """Outcome of one environment step (Gym-style 5-tuple as a named object)."""

    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool
    info: Dict[str, float]


def compile_world(
    config: NavigationConfig,
    world_spec: Optional["WorldSpec"],
    world_size: Tuple[float, float],
    start: np.ndarray,
    goal: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[ObstacleField, np.ndarray, np.ndarray, Tuple[float, float]]:
    """Build the active world for one episode lane.

    Returns ``(field, start, goal, world_size)``.  When ``world_spec`` is set
    the generated world's geometry wins; otherwise a uniform-density field is
    drawn.  The obstacle seed is taken from the caller's RNG *stream* (rather
    than handing the generator the stream itself) so the sequence of worlds is
    a pure function of the reset seed, independent of how much randomness
    field generation happens to consume.
    """
    if world_spec is not None:
        from repro.worlds.registry import generate_world

        world = generate_world(world_spec)
        return world.field, world.start.copy(), world.goal.copy(), world.world_size
    obstacle_seed = int(rng.integers(0, 2**31 - 1))
    field = generate_obstacles(
        world_size,
        config.density,
        start,
        goal,
        rng=obstacle_seed,
        vehicle_radius=config.vehicle_radius_m,
    )
    return field, start, goal, world_size


class NavigationEnv:
    """Deterministic 2-D navigation environment with a Gym-like API.

    A one-lane view of :class:`~repro.envs.batch.BatchedNavigationEnv`, the
    only simulator: :meth:`reset`, :meth:`step` and every property read or
    advance lane 0, whose RNG stream is the one the environment was built
    from.  A batch of one therefore *is* the single environment, and batched
    rollouts and training replay it bitwise.
    """

    def __init__(self, config: NavigationConfig = NavigationConfig(), rng: SeedLike = 0) -> None:
        from repro.envs.batch import BatchedNavigationEnv  # batch imports this module

        self.config = config
        self._lanes = BatchedNavigationEnv(config, batch_size=1, rng=rng, share_rng=True)
        self.action_space = self._lanes.action_space
        self.observation_space = self._lanes.observation_space

    @property
    def obstacle_field(self) -> ObstacleField:
        return self._lanes._fields[0]

    @property
    def world_size(self) -> Tuple[float, float]:
        """The active world's bounds (the generated world's when a spec is set)."""
        return self._lanes._world_sizes[0]

    @property
    def world_spec(self) -> Optional[WorldSpec]:
        """The spec of the world currently loaded (reseeded on randomized resets)."""
        return self._lanes._world_specs[0]

    @property
    def time_s(self) -> float:
        """Episode time in seconds (drives dynamic worlds' moving obstacles)."""
        return float(self._lanes._times[0])

    @property
    def goal(self) -> np.ndarray:
        return self._lanes._goals[0].copy()

    @property
    def position(self) -> np.ndarray:
        return self._lanes._positions[0].copy()

    @property
    def path_length_m(self) -> float:
        return float(self._lanes._path_lengths[0])

    @property
    def straight_line_distance_m(self) -> float:
        return float(planar_distances(self._lanes._goals[0] - self._lanes._starts[0]))

    # ------------------------------------------------------------------ action decoding
    def _checked_action(self, action: int) -> np.ndarray:
        """``action`` as a one-lane action vector; non-integers and indices
        outside the action space raise."""
        if not self.action_space.contains(action):
            raise EnvironmentError_(f"invalid action {action!r} for a {self.action_space.n}-action space")
        return np.array([int(action)])

    def decode_action(self, action: int) -> Tuple[float, float]:
        """Return (heading change in rad, speed fraction) for a discrete action index."""
        heading_change, speed_fraction = self._lanes.decode_actions(self._checked_action(action))
        return float(heading_change[0]), float(speed_fraction[0])

    # ------------------------------------------------------------------ gym API
    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        """Start a new episode and return the initial observation."""
        return self._lanes.reset_lanes([0], [seed])[0]

    def step(self, action: int) -> StepResult:
        """Apply one discrete action and advance the episode."""
        if self._lanes._done[0]:
            raise EnvironmentError_("step() called on a finished episode; call reset() first")
        result = self._lanes.step(self._checked_action(action))
        info = {
            "success": float(result.success[0]),
            "collision": float(result.collision[0]),
            "steps": float(result.steps[0]),
            "path_length_m": float(result.path_lengths_m[0]),
            "distance_to_goal_m": float(result.distances_to_goal_m[0]),
        }
        return StepResult(
            result.observations[0],
            float(result.rewards[0]),
            bool(result.terminated[0]),
            bool(result.truncated[0]),
            info,
        )

    def __repr__(self) -> str:
        spec = self.world_spec
        world = spec.name if spec is not None else self.config.density.value
        return (
            f"NavigationEnv(world={world}, size={self.world_size}, "
            f"obstacles={self.obstacle_field.num_obstacles}, actions={self.action_space.n})"
        )
