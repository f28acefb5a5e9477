"""Layer attribution for the traced run: timed wrappers around public calls.

The traced run wraps the public entry points of every layer listed in
:data:`HOOKS` (from outside the program — nothing under ``src/`` changes),
runs the workload, and restores every original afterwards.  Each wrapped
call is a span; a layer's *self* time is its spans' durations minus the time
of wrapped calls nested inside them, so the per-layer self times plus
``unattributed`` (traced wall time minus their sum) add up to the traced
wall time exactly.

Besides calls and self time, a few hooks count the work a call carried
(query rows, conflict candidates, cache hits, fused groups, vehicle steps);
:func:`layer_metrics` turns those counts into the per-layer ratios the
benchmark reports.  The first :data:`SAMPLE_SPANS` spans are kept as span
records and written as a Chrome trace through :mod:`repro.obs.tracing`.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span records kept for the Chrome-trace sample; later spans are counted as dropped.
SAMPLE_SPANS = 5000

Counter = Callable[[Dict[str, float], tuple, dict, Any, Any], None]


@dataclass(frozen=True)
class Hook:
    """One wrapped public call: ``module[.owner].attr``, attributed to ``layer``."""

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    #: Runs before the call; its return value reaches ``count`` as ``pre``.
    pre: Optional[Callable[[tuple], Any]] = None
    #: ``count(stats, args, kwargs, result, pre)`` adds work counters to ``stats``.
    count: Optional[Counter] = None


def _argument(args: tuple, kwargs: dict, position: int, names: Tuple[str, ...]) -> Any:
    if len(args) > position:
        return args[position]
    for name in names:
        if name in kwargs:
            return kwargs[name]
    return None


def _point_rows(*names: str) -> Counter:
    """Count the query rows of a batched geometric call (its first array argument)."""

    def count(stats, args, kwargs, result, pre) -> None:
        points = _argument(args, kwargs, 1, names)
        stats["rows"] += np.asarray(points, dtype=np.float64).reshape(-1, 2).shape[0]
        stats["row_calls"] += 1

    return count


def _time_rows(stats, args, kwargs, result, pre) -> None:
    stats["rows"] += np.size(_argument(args, kwargs, 1, ("times_s",)))
    stats["row_calls"] += 1


def _result_rows(key: str) -> Counter:
    def count(stats, args, kwargs, result, pre) -> None:
        stats[key] += len(result)

    return count


def _cache_get(stats, args, kwargs, result, pre) -> None:
    from repro.runtime.cache import MISS

    if result is not MISS:
        stats["hits"] += 1
    stats["gets"] += 1


def _fusion_plan(stats, args, kwargs, result, pre) -> None:
    stats["groups"] += len(result.groups)
    stats["fused_jobs"] += result.fused_job_count


def _active_lanes(args: tuple) -> int:
    return int(np.count_nonzero(~args[0].done))


def _live_vehicles(args: tuple) -> int:
    from repro.fleet.sim import DONE

    return int(np.count_nonzero(args[0].states < DONE))


def _vehicle_steps(stats, args, kwargs, result, pre) -> None:
    stats["vehicle_steps"] += pre


def _hooks(layer: str, module: str, owner: Optional[str], attrs, **extra) -> List[Hook]:
    return [Hook(layer, module, owner, attr, **extra) for attr in attrs]


#: Every wrapped call, grouped by the layer its time is attributed to.
HOOKS: Tuple[Hook, ...] = tuple(
    [
        Hook("worlds.registry", "repro.worlds.registry", None, "generate_world"),
        Hook("worlds.metrics", "repro.worlds.metrics", None, "world_metrics"),
        *_hooks(
            "envs.obstacles", "repro.envs.obstacles", "ObstacleField",
            ("clearances", "collides_many"), count=_point_rows("points"),
        ),
        Hook(
            "envs.obstacles", "repro.envs.obstacles", "ObstacleField", "segments_collide",
            count=_point_rows("starts"),
        ),
        Hook(
            "envs.obstacles", "repro.envs.obstacles", "ObstacleField", "ray_distances_many",
            count=_point_rows("origins"),
        ),
        *_hooks(
            "envs.obstacles", "repro.envs.obstacles", "ObstacleField",
            ("occupancy_grid", "has_free_path"),
        ),
        *_hooks(
            "worlds.dynamic", "repro.worlds.dynamic", "DynamicObstacleField",
            ("clearances_timed", "collides_many_timed"), count=_point_rows("points"),
        ),
        Hook(
            "worlds.dynamic", "repro.worlds.dynamic", "DynamicObstacleField",
            "ray_distances_many_timed", count=_point_rows("origins"),
        ),
        Hook(
            "worlds.dynamic", "repro.worlds.dynamic", "DynamicObstacleField",
            "segments_collide_timed", count=_point_rows("starts"),
        ),
        Hook(
            "worlds.dynamic", "repro.worlds.dynamic", "DynamicObstacleField",
            "segment_collides_timed", count=_point_rows("start"),
        ),
        Hook(
            "worlds.dynamic", "repro.worlds.dynamic", "MovingObstacle", "positions_at",
            count=_time_rows,
        ),
        Hook(
            "envs.batch", "repro.envs.batch", "BatchedNavigationEnv", "step",
            pre=_active_lanes, count=_vehicle_steps,
        ),
        Hook("envs.batch", "repro.envs.batch", "BatchedNavigationEnv", "reset_lanes"),
        Hook("nn.network.forward", "repro.nn.network", "Sequential", "forward"),
        Hook("nn.network.backward", "repro.nn.network", "Sequential", "backward"),
        Hook("nn.network.clone", "repro.nn.network", "Sequential", "clone"),
        Hook("nn.optim", "repro.nn.optim", "SGD", "step"),
        Hook("nn.optim", "repro.nn.optim", "RMSProp", "step"),
        Hook("nn.optim", "repro.nn.optim", "Adam", "step"),
        *_hooks("rl.replay_buffer", "repro.rl.replay_buffer", "ReplayBuffer", ("sample", "add_batch")),
        *_hooks(
            "faults", "repro.faults.injection", "BitErrorInjector",
            ("quantize_state", "quantize_state_cached", "perturb_quantized_state", "perturb_state_dict"),
        ),
        Hook("faults", "repro.faults.fault_map", "FaultMap", "random"),
        Hook(
            "fleet.sim", "repro.fleet.sim", "FleetSim", "step",
            pre=_live_vehicles, count=_vehicle_steps,
        ),
        Hook(
            "fleet.conflicts", "repro.fleet.conflicts", None, "detect_conflicts",
            count=_result_rows("confirmed"),
        ),
        Hook(
            "fleet.conflicts", "repro.fleet.conflicts", None, "candidate_conflict_pairs",
            count=_result_rows("candidates"),
        ),
        Hook("uav.flight", "repro.uav.flight", "FlightModel", "fly_missions"),
        Hook("runtime.engine", "repro.runtime.engine", "SweepRunner", "run"),
        Hook("runtime.fusion", "repro.runtime.fusion", None, "plan_fusion", count=_fusion_plan),
        Hook("runtime.cache", "repro.runtime.cache", "ResultCache", "get", count=_cache_get),
        *_hooks("runtime.cache", "repro.runtime.cache", "ResultCache", ("put", "index")),
        *_hooks("runtime.journal", "repro.runtime.journal", "Journal", ("record_result", "flush", "load")),
    ]
)

#: Layer names in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(hook.layer for hook in HOOKS))

#: Per-layer ratios: metric name -> (layer, numerator counter, denominator counter).
RATIOS: Dict[str, Tuple[str, str, str]] = {
    "envs.obstacles.rows_per_call": ("envs.obstacles", "rows", "row_calls"),
    "worlds.dynamic.rows_per_call": ("worlds.dynamic", "rows", "row_calls"),
    "fleet.conflicts.confirmed_per_candidate": ("fleet.conflicts", "confirmed", "candidates"),
    "runtime.cache.hit_ratio": ("runtime.cache", "hits", "gets"),
    "runtime.fusion.jobs_per_group": ("runtime.fusion", "fused_jobs", "groups"),
}


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerTracer:
    """Installs the timed wrappers, accumulates self time, and restores everything."""

    def __init__(self, sample_spans: int = SAMPLE_SPANS) -> None:
        self.stats: Dict[str, Dict[str, float]] = {
            layer: _zero_stats() for layer in LAYERS
        }
        self.sample_spans = sample_spans
        self.records: List[Dict[str, Any]] = []
        self.dropped = 0
        # Child-time accumulators: index 0 collects time inside outermost spans.
        self._stack: List[int] = [0]
        self._restore: List[Tuple[Any, str, Any]] = []
        self._wrappers: Dict[int, Any] = {}
        self._wall_anchor_ns = time.time_ns()
        self._perf_anchor_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------ wrapping
    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        stats = self.stats[hook.layer]
        stack = self._stack
        records = self.records
        clock = time.perf_counter_ns
        pre_fn, count_fn = hook.pre, hook.count
        name = f"{hook.layer}:{hook.owner + '.' if hook.owner else ''}{hook.attr}"
        pid, tid = os.getpid(), threading.get_ident()
        tracer = self

        def wrapper(*args, **kwargs):
            pre = pre_fn(args) if pre_fn is not None else None
            stack.append(0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                elapsed = end - start
                stack[-1] += elapsed
                stats["calls"] += 1
                stats["self_ns"] += elapsed - child
                if len(records) < tracer.sample_spans:
                    records.append(
                        {
                            "name": name,
                            "ts_ns": tracer._wall_anchor_ns + (start - tracer._perf_anchor_ns),
                            "dur_ns": elapsed,
                            "pid": pid,
                            "tid": tid,
                        }
                    )
                else:
                    tracer.dropped += 1
            if count_fn is not None:
                count_fn(stats, args, kwargs, result, pre)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", hook.attr)
        return wrapper

    def install(self) -> None:
        """Wrap every hook; module functions are replaced wherever they were imported."""
        if self._restore:
            raise RuntimeError("layer tracer is already installed")
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            if hook.owner is None:
                original = getattr(module, hook.attr)
                wrapper = self._wrap(hook, original)
                self._wrappers[id(wrapper)] = wrapper
                for holder in _repro_modules():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, key, original))
                            setattr(holder, key, wrapper)
                continue
            owner = getattr(module, hook.owner)
            raw = owner.__dict__[hook.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self._wrap(hook, raw.__func__))
                self._wrappers[id(wrapper.__func__)] = wrapper.__func__
            else:
                wrapper = self._wrap(hook, raw)
                self._wrappers[id(wrapper)] = wrapper
            self._restore.append((owner, hook.attr, raw))
            setattr(owner, hook.attr, wrapper)

    def uninstall(self) -> List[str]:
        """Restore every original; returns the problems found verifying that."""
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        # Modules imported while the wrappers were live bound the wrapper itself.
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                if self._is_wrapper(value):
                    setattr(holder, key, value.__wrapped__)
        restored = self._restore
        self._restore = []
        return self._verify(restored)

    def _is_wrapper(self, value: Any) -> bool:
        return value is not None and self._wrappers.get(id(value)) is value

    def _verify(self, restored: List[Tuple[Any, str, Any]]) -> List[str]:
        problems = []
        for holder, key, original in restored:
            current = holder.__dict__.get(key) if isinstance(holder, type) else getattr(holder, key)
            if current is not original:
                problems.append(f"{getattr(holder, '__name__', holder)}.{key} not restored")
        for holder in _repro_modules():
            for key, value in vars(holder).items():
                if self._is_wrapper(value):
                    problems.append(f"{holder.__name__}.{key} still holds a wrapper")
        return problems

    # ------------------------------------------------------------------ results
    @property
    def attributed_ns(self) -> int:
        """Time inside outermost wrapped calls: the sum of every layer's self time."""
        return self._stack[0]

    @property
    def vehicle_steps(self) -> int:
        return int(sum(stats["vehicle_steps"] for stats in self.stats.values()))

    def export(self, directory) -> None:
        """Write the bounded Chrome-trace sample through :mod:`repro.obs.tracing`."""
        from repro.obs.tracing import export_chrome_trace

        export_chrome_trace(
            os.path.join(directory, "trace.json"), records=self.records, dropped=self.dropped
        )


def layer_metrics(stats: Dict[str, Dict[str, float]], traced_wall_s: float) -> Dict[str, float]:
    """Per-layer calls, self time and ratios, plus ``unattributed.self_s``.

    ``stats`` is :attr:`LayerTracer.stats`, or several of them summed layer by
    layer, and ``traced_wall_s`` the traced wall time they were collected in.
    """
    out: Dict[str, float] = {}
    self_total_ns = 0
    for layer in LAYERS:
        out[f"{layer}.calls"] = int(stats[layer]["calls"])
        out[f"{layer}.self_s"] = stats[layer]["self_ns"] / 1e9
        self_total_ns += stats[layer]["self_ns"]
    out["unattributed.self_s"] = traced_wall_s - self_total_ns / 1e9
    for name, (layer, numerator, denominator) in RATIOS.items():
        counts = stats[layer]
        out[name] = counts[numerator] / counts[denominator] if counts[denominator] else 0.0
    return out


def sum_stats(many: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Add several tracers' :attr:`LayerTracer.stats` layer by layer."""
    total = {layer: _zero_stats() for layer in LAYERS}
    for stats in many:
        for layer in LAYERS:
            for key, value in stats[layer].items():
                total[layer][key] += value
    return total


def _zero_stats() -> Dict[str, float]:
    keys = (
        "calls", "self_ns", "rows", "row_calls", "confirmed", "candidates",
        "hits", "gets", "groups", "fused_jobs", "vehicle_steps",
    )
    return {key: 0 for key in keys}
