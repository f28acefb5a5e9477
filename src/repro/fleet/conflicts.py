"""Inter-vehicle conflict detection on the vectorised segment-distance path.

Two vehicles are in conflict over a lockstep step when their straight motion
segments, sampled at the same fractions of the step (the vehicles move
simultaneously), come within the required separation of each other.  The
exact check is :func:`conflicting_pairs` — the same sampled-segment geometry
:meth:`~repro.envs.obstacles.ObstacleField.segments_collide` marches, applied
to vehicle-vs-vehicle sample distances.

At fleet scale the all-pairs candidate set is the cost: N=1000 vehicles mean
~500k pairs per step, almost all of them kilometres apart.
:func:`candidate_conflict_pairs` prescreens with a spatial hash over segment
*start* points.  Every sample of a segment lies within the segment length of
its start, so a conflicting pair must satisfy

    |start_i - start_j| < separation + length_i + length_j,

and hashing starts on a grid of cell size ``separation + 2·max_length``
guarantees any such pair lands in the same or an adjacent cell.  The
prescreen is therefore an exact superset: :func:`detect_conflicts` (hash +
exact check on the survivors) returns precisely the all-pairs answer.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.envs.obstacles import planar_distances
from repro.errors import ConfigurationError
from repro.obs import get_metrics

#: Half-neighbourhood cell offsets: together with the same-cell pairs these
#: enumerate every unordered adjacent-cell pair exactly once.
_HALF_NEIGHBOURHOOD: Tuple[Tuple[int, int], ...] = ((1, 0), (0, 1), (1, 1), (1, -1))

#: An integer grid cell as one record, ordered by x then y.
_CELL_RECORD = np.dtype([("x", np.int64), ("y", np.int64)])


def _canonical_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Stack index pairs as (K, 2) with the smaller index first, sorted rows."""
    low = np.minimum(left, right)
    high = np.maximum(left, right)
    order = np.lexsort((high, low))
    return np.stack([low[order], high[order]], axis=1)


def _cell_keys(cells: np.ndarray, offsets: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Sortable, searchable keys of ``cells`` (N, 2) shifted by each offset.

    Returns a ``(len(offsets), N)`` array whose row ``k`` keys the cells at
    ``offsets[k]`` from each of ``cells``; equal cells get equal keys.  A key
    is one int64 relative to the minimum cell while the fleet's cell span
    keeps that encoding from overflowing.  A wider span falls back to
    ``(x, y)`` int64 records, which numpy sorts and searches
    lexicographically: a two-column lexsort.
    """
    xs, ys = cells[:, 0], cells[:, 1]
    low_x, low_y = int(xs.min()), int(ys.min())
    # Rows y - 1 .. y + 1 of every column fit inside one stride.
    stride = int(ys.max()) - low_y + 3
    if (int(xs.max()) - low_x + 2) * stride <= np.iinfo(np.int64).max:
        base = (xs - low_x) * stride + (ys - low_y + 1)
        return np.stack([base + (dx * stride + dy) for dx, dy in offsets])
    shifted = cells[None, :, :] + np.asarray(offsets, dtype=np.int64)[:, None, :]
    return shifted.view(_CELL_RECORD)[:, :, 0]


def all_pairs(count: int) -> np.ndarray:
    """Every unordered index pair of ``count`` items, as a (K, 2) array."""
    left, right = np.triu_indices(int(count), k=1)
    return np.stack([left, right], axis=1)


def candidate_conflict_pairs(
    starts: np.ndarray, lengths: np.ndarray, separation_m: float
) -> np.ndarray:
    """Spatial-hash prescreen: a superset of all possibly conflicting pairs.

    ``starts`` is ``(N, 2)`` segment start points and ``lengths`` ``(N,)``
    segment lengths.  Returns ``(K, 2)`` canonical index pairs containing
    every pair whose sampled segments could come within ``separation_m`` —
    typically a tiny fraction of the N·(N-1)/2 all-pairs set.
    """
    if separation_m <= 0:
        raise ConfigurationError(f"separation must be positive, got {separation_m}")
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    lengths = np.asarray(lengths, dtype=np.float64).reshape(-1)
    count = starts.shape[0]
    if count < 2:
        return np.empty((0, 2), dtype=np.int64)
    max_length = float(lengths.max()) if lengths.size else 0.0
    cell = separation_m + 2.0 * max_length
    cells = np.floor(starts / cell).astype(np.int64)
    # Row 0 of ``keys`` holds each vehicle's own cell, the other rows the
    # cells at the half-neighbourhood offsets.  Sorting the vehicles by cell
    # turns every cell into a run of the sorted keys, found by searchsorted.
    keys = _cell_keys(cells, ((0, 0),) + _HALF_NEIGHBOURHOOD)
    order = np.argsort(keys[0])
    queries = keys[:, order].reshape(-1)
    lows = np.searchsorted(queries[:count], queries, side="left")
    highs = np.searchsorted(queries[:count], queries, side="right")
    # Same cell: pair each vehicle only with the later members of its run.
    lows[:count] = np.arange(1, count + 1)
    # Expand every query's [low, high) run of sorted positions into pairs.
    counts = highs - lows
    owners = np.repeat(np.tile(np.arange(count), len(keys)), counts)
    firsts = np.cumsum(counts) - counts
    partners = np.arange(int(counts.sum())) + np.repeat(lows - firsts, counts)
    left = order[owners]
    right = order[partners]
    # Tighten with the per-pair bound: min sample distance is at least
    # |Δstart| - length_i - length_j (triangle inequality), so anything at or
    # beyond separation + both lengths can never conflict.
    near = planar_distances(starts[left] - starts[right]) < (
        separation_m + lengths[left] + lengths[right]
    )
    return _canonical_pairs(left[near], right[near])


def conflicting_pairs(
    starts: np.ndarray,
    ends: np.ndarray,
    separation_m: float,
    samples: int = 8,
    pairs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact sampled conflict check over ``pairs`` (all pairs when ``None``).

    Both vehicles of a pair are sampled at the same fractions of the step —
    they move simultaneously — and the pair conflicts when any simultaneous
    sample distance drops below ``separation_m``.  Returns canonical (K, 2)
    conflicting index pairs.
    """
    if separation_m <= 0:
        raise ConfigurationError(f"separation must be positive, got {separation_m}")
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 2)
    if pairs is None:
        pairs = all_pairs(starts.shape[0])
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    fractions = np.linspace(0.0, 1.0, max(2, samples))
    left, right = pairs[:, 0], pairs[:, 1]
    relative_starts = starts[left] - starts[right]
    relative_ends = ends[left] - ends[right]
    relative = (
        relative_starts[:, None, :]
        + fractions[None, :, None] * (relative_ends - relative_starts)[:, None, :]
    )
    too_close = (planar_distances(relative) < separation_m).any(axis=1)
    return _canonical_pairs(left[too_close], right[too_close])


def detect_conflicts(
    starts: np.ndarray,
    ends: np.ndarray,
    separation_m: float,
    samples: int = 8,
) -> np.ndarray:
    """Prescreened conflict detection: hash, then exact check on survivors.

    Equivalent to ``conflicting_pairs(starts, ends, separation_m, samples)``
    over all pairs — the spatial hash only removes pairs the triangle
    inequality proves safe.  ``fleet.conflict_checks`` counts the pairs that
    reach the exact sampled check (the prescreen's work product).
    """
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 2)
    lengths = planar_distances(ends - starts)
    candidates = candidate_conflict_pairs(starts, lengths, separation_m)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("fleet.conflict_checks").inc(int(candidates.shape[0]))
    return conflicting_pairs(starts, ends, separation_m, samples, pairs=candidates)
