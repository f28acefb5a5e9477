"""One workload execution in a fresh interpreter; ``run.py`` starts one per sample.

Usage (from the repository root)::

    python3 perfbench/child.py --workload NAME --seed N --mode setup|plain|traced \
        --spawned-at MONOTONIC --out RESULT.json [--trace-dir DIR]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports, the sweep
registry load and the spec build.  ``setup`` mode stops there; ``plain``
executes the workload with tracing off, noting only the time of every
entry into the workload's ``segment_calls``; ``traced`` executes it under
the layer wrappers of ``layers.py`` and restores them afterwards.  The
result, including the output digest and peak RSS, is written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    out_path = Path(args.out)
    workload = workloads.get_workload(args.workload)
    state = workload.prepare(args.seed, out_path.parent)
    result = {"setup_s": time.monotonic() - args.spawned_at, "seed": args.seed}
    if args.mode != "setup":
        result.update(_execute(workload, state, args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out_path.write_text(json.dumps(result))
    return 0


def _install_ticks(calls, ticks: list) -> list:
    """Append ``perf_counter_ns()`` to ``ticks`` on every entry into ``calls``; returns what to restore."""
    restore = []
    for module_name, owner_name, attr in calls:
        owner = getattr(importlib.import_module(module_name), owner_name)
        original = owner.__dict__[attr]

        def tick(*args, _original=original, **kwargs):
            ticks.append(time.perf_counter_ns())
            return _original(*args, **kwargs)

        setattr(owner, attr, tick)
        restore.append((owner, attr, original))
    return restore


def _execute(workload, state, args) -> dict:
    # Both clocks include installing the wrappers: that imports modules which
    # the workload would otherwise import lazily inside its own timing.
    started = time.perf_counter_ns()
    tracer = None
    ticks: list = []
    restore = []
    if args.mode == "traced":
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    else:
        restore = _install_ticks(workload.segment_calls, ticks)
    problems = []
    try:
        outcome = workload.execute(state)
    except Exception:  # a raising workload is a failed operation, reported, not fatal
        outcome = workloads.Outcome(output=None, attempted=1, failed=1)
        problems.append(traceback.format_exc())
    wall_ns = time.perf_counter_ns() - started
    for owner, attr, original in restore:
        setattr(owner, attr, original)
    result = {"wall_s": wall_ns / 1e9}
    if restore:
        result["ticks_ns"] = [tick - started for tick in ticks] + [wall_ns]
    if tracer is not None:
        problems.extend(tracer.uninstall())
        result["layer_stats"] = tracer.stats
        result["vehicle_steps"] = tracer.vehicle_steps
        result["attributed_ns"] = tracer.attributed_ns
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            tracer.export(args.trace_dir)
    result.update(
        digest=workloads.output_digest(outcome.output) if outcome.output is not None else None,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=problems + outcome.problems + workloads.structural_problems(workload, outcome.output),
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
