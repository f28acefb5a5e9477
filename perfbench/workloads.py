"""The three benchmark workloads: spec building, execution and output checks.

Every workload turns the workload seed into program inputs (world seeds,
policy seeds, the ``table1`` seed) and hands the program only those generated
specs.  ``prepare`` is the set-up half (imports, sweep-registry load, spec
build) and ``execute`` the timed half, which ends at the assembled output.

A run of a workload covers ``inputs_per_run`` consecutive input seeds, so
that one input's share of easy or hard draws does not decide the figures.
``segment_calls`` names the program methods whose entries cut an untimed
execution into segments (see ``run.py``); each is called all through the
workload.

``execute`` returns a :class:`Outcome`: the assembled output as plain JSON
data, how many jobs it attempted and how many of them failed.  A job that
raises is counted by the engine; the caller adds the golden-digest and
structural checks on top (see :func:`output_digest` and
:func:`structural_problems`).
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: Vehicles flown per fleet episode in ``fleet-voltage``.
FLEET_VEHICLES = 128

#: ``FAST_PROFILE`` knobs shrunk for ``berry-table1``, so that one execution
#: takes a few seconds and a run repeats every input several times.
TABLE1_SCALE = {"training_episodes": 80, "num_fault_maps": 4, "eval_episodes": 10}

#: Shards the ``sweep-store`` cold phase is split into.
STORE_SHARDS = 3


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    output: Any
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def output_digest(output: Any) -> str:
    """SHA-256 of the output's canonical JSON (floats keep every digit)."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_sweep(runner, sweep, shard=None) -> Tuple[Any, List[Tuple[str, str]]]:
    """Run ``sweep``; return the report (``None`` if it raised) and the failures."""
    from repro.runtime.engine import SweepExecutionError

    try:
        return runner.run(sweep, shard=shard), []
    except SweepExecutionError as error:
        return None, list(error.failures)


# ---------------------------------------------------------------------- berry-table1
class BerryTable1:
    """The paper's central experiment at ``FAST_PROFILE``, scaled by ``TABLE1_SCALE``,
    on obstacles redrawn at every episode reset.

    Trains classical DQN and offline BERRY (a perturbed pass on every
    gradient step), then evaluates both clean and under fault maps at three
    bit-error rates.
    """

    name = "berry-table1"
    inputs_per_run = 1
    segment_calls = (("repro.nn.network", "Sequential", "forward"),)
    ber_levels = (0.1, 1.0, 3.0)

    def prepare(self, seed: int, workdir: Path) -> Dict[str, Any]:
        from dataclasses import replace

        from repro.experiments.profiles import FAST_PROFILE
        from repro.experiments.table1 import measure_table1_with_training
        import repro.runtime.registry  # noqa: F401 - the registry load every workload pays

        # A new obstacle layout on every reset: with one fixed world per input,
        # that world alone made one input's training 2.5x as long as another's.
        navigation = replace(FAST_PROFILE.navigation, randomize_obstacles_on_reset=True)
        profile = replace(FAST_PROFILE, navigation=navigation, **TABLE1_SCALE)
        return {"run": measure_table1_with_training, "profile": profile, "seed": seed}

    def execute(self, state: Dict[str, Any]) -> Outcome:
        table = state["run"](
            ber_levels=self.ber_levels, profile=state["profile"], seed=state["seed"]
        )
        return Outcome(output=table.to_jsonable(), attempted=1)

    def expected_rows(self) -> int:
        return 2


# ---------------------------------------------------------------------- fleet-voltage
class FleetVoltage:
    """``fleet-reliability`` at all 5 voltages, one world seed, a 128-vehicle fleet, one episode."""

    name = "fleet-voltage"
    inputs_per_run = 1
    segment_calls = (("repro.fleet.sim", "FleetSim", "step"),)

    def prepare(self, seed: int, workdir: Path) -> Dict[str, Any]:
        from repro.runtime.engine import SweepRunner
        from repro.runtime.executor import SerialExecutor
        from repro.runtime.registry import get_registered_sweep

        registered = get_registered_sweep("fleet-reliability")
        sweep = registered.build(world_seeds=(seed,), num_vehicles=FLEET_VEHICLES, episodes_per_job=1)
        runner = SweepRunner(executor=SerialExecutor(), fuse=True)
        return {"registered": registered, "sweep": sweep, "runner": runner}

    def execute(self, state: Dict[str, Any]) -> Outcome:
        sweep = state["sweep"]
        report, failures = _run_sweep(state["runner"], sweep)
        if report is None:
            return Outcome(output=None, attempted=len(sweep), failed=len(failures))
        table = state["registered"].assemble(sweep, report.results)
        return Outcome(
            output={"jobs": report.results, "table": table.to_jsonable()},
            attempted=len(sweep),
        )

    def expected_rows(self) -> int:
        from repro.fleet.reliability import DEFAULT_FLEET_VOLTAGES

        return len(DEFAULT_FLEET_VOLTAGES)


# ---------------------------------------------------------------------- sweep-store
class SweepStore:
    """The calibrated ``generalization`` sweep at one world seed (288 jobs) through cache and journal.

    Three phases, the way users run it: sharded cold runs that write a fresh
    cache and journal; an unsharded run that resumes every job from the
    journal; a run against a fresh journal that takes every job from the
    cache.  All three must assemble the same output.
    """

    name = "sweep-store"
    inputs_per_run = 2
    segment_calls = (
        ("repro.uav.flight", "FlightModel", "fly_missions"),
        ("repro.runtime.cache", "ResultCache", "get"),
    )
    world_seeds_per_input = 1

    def prepare(self, seed: int, workdir: Path) -> Dict[str, Any]:
        from repro.runtime.cache import ResultCache
        from repro.runtime.engine import SweepRunner
        from repro.runtime.executor import SerialExecutor
        from repro.runtime.registry import get_registered_sweep

        registered = get_registered_sweep("generalization")
        first = self.world_seeds_per_input * seed
        sweep = registered.build(seeds=tuple(range(first, first + self.world_seeds_per_input)))
        # The run directory is removed when the whole run ends, so deleting
        # one execution's stores never overlaps the next execution's timing.
        root = Path(tempfile.mkdtemp(prefix="sweep-store-", dir=workdir))
        cache = ResultCache(root / "cache")

        def runner(journal: str):
            return SweepRunner(
                executor=SerialExecutor(), cache=cache, journal_dir=root / journal, fuse=True
            )

        return {"registered": registered, "sweep": sweep, "runner": runner}

    def execute(self, state: Dict[str, Any]) -> Outcome:
        sweep, runner = state["sweep"], state["runner"]
        jobs = len(sweep)
        attempted = failed = 0
        problems: List[str] = []
        # Phase 1: sharded cold runs -> cache and journal writes.
        for index in range(STORE_SHARDS):
            _, failures = _run_sweep(runner("journal"), sweep, shard=(index, STORE_SHARDS))
            attempted += len(sweep.shard_indices(index, STORE_SHARDS))
            failed += len(failures)
        # Phase 2: unsharded resume of everything from the journal.
        resumed, failures = _run_sweep(runner("journal"), sweep)
        attempted += jobs
        failed += len(failures)
        # Phase 3: a fresh journal, every job from the cache.
        cached, failures = _run_sweep(runner("journal-fresh"), sweep)
        attempted += jobs
        failed += len(failures)
        if resumed is None or cached is None:
            return Outcome(output=None, attempted=attempted, failed=failed)
        if resumed.resumed != jobs:
            problems.append(f"resume phase resumed {resumed.resumed} of {jobs} jobs")
        if cached.cache_hits != jobs:
            problems.append(f"cache phase hit {cached.cache_hits} of {jobs} jobs")
        if cached.results != resumed.results:
            problems.append("cache phase results differ from resume phase results")
        table = state["registered"].assemble(sweep, resumed.results)
        return Outcome(
            output={"jobs": resumed.results, "table": table.to_jsonable()},
            attempted=attempted,
            failed=failed,
            problems=problems,
        )

    def expected_rows(self) -> int:
        from repro.core.scenarios import BIT_ERROR_LEVELS_PERCENT
        from repro.experiments.generalization import FAMILY_PRESETS

        return len({family for family, _ in FAMILY_PRESETS}) * len(BIT_ERROR_LEVELS_PERCENT)


WORKLOADS: Dict[str, Callable[[], Any]] = {
    "berry-table1": BerryTable1,
    "fleet-voltage": FleetVoltage,
    "sweep-store": SweepStore,
}


def get_workload(name: str):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name]()


#: Columns the program legitimately leaves empty: flight figures of a world
#: where no mission succeeded, and the serial-only clean-run statistics that
#: fault-injected rollout rows do not carry.
_NULLABLE = frozenset(
    {
        "collision_pct",
        "mean_steps",
        "mean_path_m",
        "flight_energy_j",
        "mean_flight_energy_j",
        "mean_missions_per_charge",
    }
)


def structural_problems(workload, output: Any) -> List[str]:
    """Checks for seeds without a golden digest: row counts, no ``None``, rates in range."""
    if output is None:
        return ["no output"]
    problems: List[str] = []
    table = output["table"] if "table" in output else output
    rows = table.get("rows", [])
    if len(rows) != workload.expected_rows():
        problems.append(f"table has {len(rows)} rows, expected {workload.expected_rows()}")
    jobs = output.get("jobs", []) if "table" in output else []
    if any(job is None for job in jobs):
        problems.append("a job result is None")
    for row in rows + [job for job in jobs if isinstance(job, dict)]:
        for key, value in row.items():
            if value is None and key not in _NULLABLE:
                problems.append(f"{key} is None")
            if "success" in key and key.endswith("_pct") and value is not None:
                if not (isinstance(value, (int, float)) and 0.0 <= value <= 100.0):
                    problems.append(f"{key}={value!r} outside [0, 100]")
            if isinstance(value, float) and math.isinf(value):
                problems.append(f"{key} is infinite")
    return problems
