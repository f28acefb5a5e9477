"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload berry-table1 --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload fleet-voltage --seed 3 --seconds 42 --trace 1
    python3 perfbench/run.py --workload all --seed 0 --seconds 42 --trace 0

A run covers the program inputs ``seed * k ... seed * k + k - 1``, with ``k``
the workload's ``inputs_per_run`` (``workloads.py``), and executes each one in a fresh interpreter
(``child.py``), so no warm in-process cache carries over between samples.
Passes over every input repeat while the whole run stays within
``--seconds``.  On a shared host interference only ever adds time, so an
input's time is built from minima over its repeats: an untimed execution
notes the time of every entry into the workload's ``segment_calls``, which
cut it into segments of at least ``SEGMENT_S``; the program is
deterministic, so every execution of an input makes the same cuts, and the
input's time is the sum over segments of the fastest repeat of each.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates plain and traced executions of every input and
reports the per-layer metrics of ``layers.py``; it also writes the layer
aggregates and a Chrome-trace sample per input under ``.perfbench/trace/``.

Every execution's output digest is checked against ``golden.json`` (inputs
recorded there) or against structural checks (any other input); traced and
plain digests of one input must agree.  ``--record-golden`` records the
digests and vehicle-step counts of the run's inputs instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

GOLDEN = HERE / "golden.json"
OUT = ROOT / ".perfbench"

#: A single execution that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 100

#: Shortest segment an execution is cut into for the per-segment minimum.
SEGMENT_S = 0.02

#: Thread settings pinned for every child: one BLAS/OpenMP thread.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class Run:
    """Spawns child executions for one workload run and keeps their results."""

    def __init__(self, workload: str, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.env = dict(
            os.environ, **THREAD_ENV, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", REPRO_BACKEND="numpy"
        )
        self.env.pop("PYTHONPATH", None)
        self.count = 0

    def child(self, input_seed: int, mode: str, trace_dir: Optional[Path] = None) -> Dict[str, Any]:
        self.count += 1
        out = self.workdir / f"child-{self.count}.json"
        log = self.workdir / f"child-{self.count}.log"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(input_seed), "--mode", mode,
            "--out", str(out),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        # Write back the previous execution's dirty pages (sweep-store writes
        # thousands of cache files) before the next one is timed.
        os.sync()
        with log.open("w") as handle:
            spawned_at = time.monotonic()
            try:
                code = subprocess.run(
                    command + ["--spawned-at", repr(spawned_at)],
                    cwd=ROOT, env=self.env, stdout=handle, stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not out.exists():
            tail = log.read_text()[-2000:]
            return {"input": input_seed, "mode": mode, "attempted": 1, "failed": 1,
                    "problems": [f"{mode} execution of input {input_seed} exited {code}:\n{tail}"]}
        result = json.loads(out.read_text())
        result.update(input=input_seed, mode=mode)
        return result


# ---------------------------------------------------------------------- environment
def environment() -> Dict[str, Any]:
    """What the numbers were measured on, recorded beside them."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "threads": THREAD_ENV,
        "pythonhashseed": "0",
        "pythondontwritebytecode": "1",
    }


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------- checks
def load_golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def check(results: List[Dict[str, Any]], golden: Dict[str, Any]) -> List[str]:
    """Golden/consistency checks; a failing execution has all its jobs marked failed."""
    problems: List[str] = []
    digests: Dict[int, str] = {}
    steps: Dict[int, int] = {}
    for result in results:
        found = list(result.get("problems", []))
        digest, seed = result.get("digest"), result["input"]
        if digest is not None:
            recorded = golden.get(str(seed), {}).get("digest")
            if recorded is not None and digest != recorded:
                found.append(f"input {seed} {result['mode']}: digest {digest[:16]} != golden {recorded[:16]}")
            if digests.setdefault(seed, digest) != digest:
                found.append(f"input {seed} {result['mode']}: digest differs from an earlier execution")
        if "vehicle_steps" in result:
            recorded = golden.get(str(seed), {}).get("vehicle_steps")
            if recorded is not None and result["vehicle_steps"] != recorded:
                found.append(f"input {seed}: {result['vehicle_steps']} vehicle steps != golden {recorded}")
            if steps.setdefault(seed, result["vehicle_steps"]) != result["vehicle_steps"]:
                found.append(f"input {seed}: vehicle steps differ between traced executions")
        if "layer_stats" in result:
            found.extend(_reconcile(result))
        if found:
            result["failed"] = result.get("attempted", 1)
            problems.extend(found)
    return problems


def _reconcile(result: Dict[str, Any]) -> List[str]:
    """Self times must sum to the time inside outermost spans, within the traced wall."""
    self_ns = sum(stats["self_ns"] for stats in result["layer_stats"].values())
    problems = []
    if self_ns != result["attributed_ns"]:
        problems.append(f"input {result['input']}: self times sum to {self_ns} ns, spans cover {result['attributed_ns']} ns")
    if result["attributed_ns"] > result["wall_s"] * 1e9 + 1e6:
        problems.append(f"input {result['input']}: spans cover more than the traced wall time")
    if any(stats["self_ns"] < 0 for stats in result["layer_stats"].values()):
        problems.append(f"input {result['input']}: negative self time")
    return problems


# ---------------------------------------------------------------------- measuring
def measure(run: Run, inputs: List[int], deadline: float, modes: List[str], trace_root: Optional[Path]) -> List[Dict[str, Any]]:
    """One pass over every input in every mode, then more passes while one as fast as the fastest fits before ``deadline``."""
    results: List[Dict[str, Any]] = []
    fastest_pass_s = float("inf")
    while True:
        pass_started = time.monotonic()
        for seed in inputs:
            for mode in modes:
                first = fastest_pass_s == float("inf")
                trace_dir = trace_root / f"input-{seed}" if mode == "traced" and first else None
                results.append(run.child(seed, mode, trace_dir))
        fastest_pass_s = min(fastest_pass_s, time.monotonic() - pass_started)
        if time.monotonic() + fastest_pass_s > deadline:
            return results


def fastest_result(results: List[Dict[str, Any]], seed: int, mode: str) -> Optional[Dict[str, Any]]:
    """The execution of ``seed`` in ``mode`` with the lowest wall time."""
    runs = [r for r in results if r["input"] == seed and r["mode"] == mode and "wall_s" in r]
    return min(runs, key=lambda r: r["wall_s"]) if runs else None


def per_input_fastest(results: List[Dict[str, Any]], inputs: List[int], mode: str) -> Dict[int, float]:
    fastest = {seed: fastest_result(results, seed, mode) for seed in inputs}
    return {seed: r["wall_s"] for seed, r in fastest.items() if r is not None}


def segment_minimum(runs: List[Dict[str, Any]]) -> Optional[float]:
    """Sum over segments of the fastest repeat of each, in seconds.

    Segments are cut at the first segment-call entry at least ``SEGMENT_S``
    after the previous cut, as the fastest execution ran; ``None`` when the
    executions did not make the same number of segment calls.
    """
    timelines = [[0] + r["ticks_ns"] for r in runs if "ticks_ns" in r]
    if not timelines or len({len(timeline) for timeline in timelines}) != 1:
        return None
    reference = min(timelines, key=lambda timeline: timeline[-1])
    cuts = [0]
    for index in range(1, len(reference) - 1):
        if reference[index] - reference[cuts[-1]] >= SEGMENT_S * 1e9:
            cuts.append(index)
    cuts.append(len(reference) - 1)
    return sum(
        min(timeline[end] - timeline[start] for timeline in timelines)
        for start, end in zip(cuts, cuts[1:])
    ) / 1e9


def per_input_time(results: List[Dict[str, Any]], inputs: List[int]) -> Dict[int, float]:
    """Each input's segment minimum over its plain executions, or its fastest one without segments."""
    times = per_input_fastest(results, inputs, "plain")
    for seed in times:
        runs = [r for r in results if r["input"] == seed and r["mode"] == "plain" and "wall_s" in r]
        estimate = segment_minimum(runs)
        if estimate is not None:
            times[seed] = estimate
    return times


def end_to_end(run: Run, inputs: List[int], deadline: float, golden: Dict[str, Any]) -> Dict[str, Any]:
    run.child(inputs[0], "setup")  # warm-up, not timed: loads the sources into the file cache
    results = measure(run, inputs, deadline, ["plain"], None)
    problems = check(results, golden)
    walls = per_input_time(results, inputs)
    fastest = per_input_fastest(results, inputs, "plain")
    setup_values = [r["setup_s"] for r in results if "setup_s" in r]
    rss = [r["peak_rss_mb"] for r in results if "peak_rss_mb" in r]
    metrics = {}
    if len(walls) == len(inputs) and setup_values and rss:
        metrics = {
            "wall_s": {"value": statistics.fmean(walls.values()), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_values), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    extra = {}
    if metrics:
        extra["fastest_execution_s"] = {"value": statistics.fmean(fastest.values()), "unit": "s"}
    recorded = [golden.get(str(seed), {}).get("vehicle_steps") for seed in inputs]
    if metrics and all(recorded):
        extra["vehicle_steps_per_s"] = {"value": sum(recorded) / sum(walls.values()), "unit": "1/s"}
    elif metrics and any(entry.get("vehicle_steps") for entry in golden.values()):
        extra["note"] = "vehicle_steps_per_s needs golden step counts for every input; run --trace 1"
    return {"results": results, "problems": problems, "metrics": metrics, "extra": extra}


def per_layer(run: Run, inputs: List[int], deadline: float, golden: Dict[str, Any], trace_root: Path) -> Dict[str, Any]:
    from layers import layer_metrics, sum_stats

    results = measure(run, inputs, deadline, ["traced", "plain"], trace_root)
    problems = check(results, golden)
    plain = per_input_time(results, inputs)
    plain_fastest = per_input_fastest(results, inputs, "plain")
    traced = [fastest_result(results, seed, "traced") for seed in inputs]
    metrics: Dict[str, Dict[str, Any]] = {}
    if len(plain) == len(inputs) and all(r is not None and "layer_stats" in r for r in traced):
        traced_wall = sum(r["wall_s"] for r in traced)
        plain_wall = sum(plain.values())
        values = layer_metrics(sum_stats([r["layer_stats"] for r in traced]), traced_wall)
        steps = sum(r["vehicle_steps"] for r in traced)
        values.update(
            {
                "trace.wall_s": traced_wall,
                # Whole executions on both sides: the fastest traced over the fastest plain.
                "trace.overhead_frac": traced_wall / sum(plain_fastest.values()) - 1.0,
                "vehicle_steps_per_s": steps / plain_wall,
            }
        )
        self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
        if abs(self_sum - traced_wall) > 1e-6 * traced_wall:
            problems.append(f"self times sum to {self_sum} s, traced wall is {traced_wall} s")
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
        trace_root.mkdir(parents=True, exist_ok=True)
        (trace_root / "layers.json").write_text(
            json.dumps({"metrics": metrics, "vehicle_steps": steps,
                        "per_input": {r["input"]: r["layer_stats"] for r in traced}}, indent=1)
        )
    return {"results": results, "problems": problems, "metrics": metrics, "extra": {}}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("rows_per_call"):
        return "rows/call"
    if name.endswith("jobs_per_group"):
        return "jobs/group"
    return "ratio"


def record_golden(run: Run, inputs: List[int]) -> int:
    golden = load_golden()
    entries = golden.setdefault(run.workload, {})
    for seed in inputs:
        result = run.child(seed, "traced")
        if result.get("failed") or result.get("problems") or result.get("digest") is None:
            print(f"input {seed}: not recorded: {result.get('problems')}", file=sys.stderr)
            return 1
        entries[str(seed)] = {"digest": result["digest"], "vehicle_steps": result["vehicle_steps"]}
        print(f"{run.workload} input {seed}: {result['digest'][:16]} {result['vehicle_steps']} vehicle steps")
    golden[run.workload] = dict(sorted(entries.items(), key=lambda item: int(item[0])))
    GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------- entry point
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + args.seconds
    # Exit through Python on SIGTERM, so subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "version.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        if args.record_golden:
            parser.error("--record-golden records one workload at a time")
        return run_all(args)

    count = WORKLOADS[args.workload].inputs_per_run
    inputs = [args.seed * count + index for index in range(count)]
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, workdir)
    try:
        if args.record_golden:
            return record_golden(run, inputs)
        golden = load_golden().get(args.workload, {})
        if args.trace:
            trace_root = OUT / "trace" / f"{args.workload}-seed{args.seed}"
            shutil.rmtree(trace_root, ignore_errors=True)
            report = per_layer(run, inputs, deadline, golden, trace_root)
        else:
            report = end_to_end(run, inputs, deadline, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return emit(args, inputs, report)


def run_all(args) -> int:
    """Every workload in turn, each as its own run; the last line sums them up."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and summary["correct"] and completed.returncode == 0
        attempted += summary["attempted"]
        failed += summary["failed"]
        metrics.update({f"{workload}.{name}": value for name, value in summary["metrics"].items()})
        print()
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def emit(args, inputs: List[int], report: Dict[str, Any]) -> int:
    results, problems, metrics = report["results"], report["problems"], report["metrics"]
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    if not metrics:
        problems.append("no complete measurement")
    correct = not problems and failed == 0
    env = environment()
    executions = len(results)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: inputs {inputs}, {executions} executions")
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"PROBLEM {problem}")
    shown = dict(metrics)
    if not args.trace:
        shown["failed_frac"] = {"value": failed / attempted if attempted else 1.0, "unit": "ratio"}
        shown.update(report["extra"])
    for name, metric in shown.items():
        if isinstance(metric, str):
            print(f"{name:45s} {metric}")
        else:
            print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    summary = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "inputs": inputs, "summary": summary, "shown": shown,
                    "executions": [{key: r.get(key) for key in ("input", "mode", "setup_s", "wall_s", "peak_rss_mb")}
                                   for r in results]}, indent=1)
    )
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
