"""Benchmark: the sweep engine — serial vs worker-pool wall time and cached re-runs.

Uses a reduced fig5-style sweep (the Fig. 5 environment x scheme grid over a
densified candidate-voltage ladder, so each job does a few hundred
operating-point evaluations) to compare:

* the serial backend,
* the 2-worker warm pool on the identical sweep (spawned once, reused by
  every round),
* an immediate re-run against a warm content-addressed cache.

The assertions pin the engine's semantics (identical results from both
backends; a warm re-run executes nothing); the timings are the measurement.
On a single-core host the pool can at best tie the serial backend (its margin
over serial *is* the dispatch overhead); the speedup shows up with real cores.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.fig5 import fig5_sweep_spec
from repro.runtime.cache import ResultCache
from repro.runtime.engine import SweepRunner
from repro.runtime.executor import SerialExecutor
from repro.runtime.pool import WarmPoolExecutor

#: A dense voltage ladder makes each fig5 cell expensive enough to dispatch.
DENSE_VOLTAGES = tuple(np.round(np.linspace(0.86, 0.70, 1000), 6))


def _sweep():
    return fig5_sweep_spec(candidate_voltages=DENSE_VOLTAGES)


def test_bench_runtime_serial(benchmark):
    sweep = _sweep()
    report = benchmark.pedantic(
        lambda: SweepRunner(executor=SerialExecutor()).run(sweep), rounds=5, iterations=1
    )
    assert report.executed == len(sweep)
    assert report.complete


def test_bench_runtime_worker_pool(benchmark):
    sweep = _sweep()
    executor = WarmPoolExecutor(workers=2)
    report = benchmark.pedantic(
        lambda: SweepRunner(executor=executor).run(sweep), rounds=3, iterations=1
    )
    assert report.executed == len(sweep)
    serial = SweepRunner(executor=SerialExecutor()).run(sweep)
    assert report.results == serial.results


def test_bench_runtime_cached_rerun(benchmark, tmp_path):
    sweep = _sweep()
    runner = SweepRunner(cache=ResultCache(root=tmp_path))
    warmup = runner.run(sweep)
    assert warmup.executed == len(sweep)

    report = benchmark(lambda: runner.run(sweep))
    # The re-run must be a pure cache hit: no job executes a second time.
    assert report.executed == 0
    assert report.cache_hits == len(sweep)
    assert report.results == warmup.results
    speedup = warmup.wall_time_s / max(report.wall_time_s, 1e-9)
    print(f"\ncached re-run speedup vs fresh serial run: {speedup:.1f}x")
