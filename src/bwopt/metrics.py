"""Front quality metrics.

Hypervolume here is exact, not estimated: the 2-D case is a rectangle sweep
over the sorted front, higher dimensions recurse over slabs of the last
coordinate. All metrics operate on minimization vectors (the optimizer's
relative-objective space).
"""
from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

from .objectives import COST_INDEX, WAVE_START_INDEX


class MetricsWarning(UserWarning):
    pass


def dominance(points: np.ndarray) -> np.ndarray:
    """Pareto-dominance matrix on minimization vectors.

    d[i, j] is true when row i dominates row j: no worse in every objective
    and better in at least one. Exact duplicates do not dominate each other,
    and a row with a NaN neither dominates nor is dominated.
    """
    p = np.asarray(points, dtype=float)
    if p.size == 0:
        return np.zeros((len(p), len(p)), dtype=bool)
    at_most = np.all(p[:, None] <= p[None], axis=2)
    return at_most & ~at_most.T


def nondominated(points: np.ndarray) -> np.ndarray:
    """Indices of points not dominated by any other (minimization).

    Exact duplicates do not dominate each other, so all copies survive.
    """
    return np.flatnonzero(~dominance(points).any(axis=0))


def _reduce(pts: np.ndarray) -> np.ndarray:
    """Deduplicate and keep the nondominated subset, sorted by last objective.

    Internal fast path: assumes a plain float 2-D array, returns rows sorted
    ascending by the last coordinate (lexicographic tie-break), which is the
    processing order the hypervolume recursion wants.
    """
    pts = pts[np.lexsort(pts.T)]
    if len(pts) > 1:
        distinct = np.empty(len(pts), dtype=bool)
        distinct[0] = True
        np.any(pts[1:] != pts[:-1], axis=1, out=distinct[1:])
        pts = pts[distinct]
    return pts[~dominance(pts).any(axis=0)]


def hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact hypervolume of the region dominated by points, bounded by reference.

    Points that do not strictly dominate the reference contribute nothing;
    they are dropped with a warning rather than silently distorting the
    result. An empty (or fully dropped) set has hypervolume 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float)
    if pts.size == 0:
        return 0.0
    if pts.shape[1] != ref.shape[0]:
        raise ValueError(f"points are {pts.shape[1]}-dimensional, reference is {ref.shape[0]}-dimensional")
    inside = np.all(pts < ref, axis=1)
    if not np.all(inside):
        warnings.warn(
            f"{int((~inside).sum())} of {len(pts)} points do not dominate the "
            "reference point and are excluded from the hypervolume",
            MetricsWarning,
            stacklevel=2,
        )
        pts = pts[inside]
    if pts.size == 0:
        return 0.0
    return _hv(_reduce(pts), ref)


def _hv(pts: np.ndarray, ref: np.ndarray) -> float:
    """Exclusive-contribution recursion (the WFG scheme).

    The set's volume is the sum over points of the volume each adds beyond
    the points after it: inclusive box minus the volume of the point's
    "limit set" (later points clipped into its box). Expects reduced input
    (deduplicated, nondominated, sorted ascending by the last objective);
    low dimensions bottom out in direct sweeps.
    """
    d = pts.shape[1]
    if d == 1:
        return float(ref[0] - pts[:, 0].min())
    if d == 2:
        return _hv_2d(pts, ref)
    if d == 3:
        return _hv_3d(pts, ref)
    total = 0.0
    for i in range(len(pts)):
        point = pts[i]
        inclusive = float(np.prod(ref - point))
        limit = np.maximum(pts[i + 1 :], point)
        limit = limit[np.all(limit < ref, axis=1)]
        if len(limit):
            total += inclusive - _hv(_reduce(limit), ref)
        else:
            total += inclusive
    return total


def _hv_3d(pts: np.ndarray, ref: np.ndarray) -> float:
    """Sweep ascending the third coordinate, keeping a 2-D staircase.

    Each slab contributes the staircase area times its thickness; staircase
    insertions update the area locally, so the whole sweep is O(n log n)
    plus removals.
    """
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    ref_x, ref_y, ref_z = (float(v) for v in ref)
    xs: list[float] = []  # staircase abscissae, ascending
    ys: list[float] = []  # matching ordinates, strictly descending
    area = 0.0
    total = 0.0
    prev_z = float(pts[0, 2])
    for x, y, z in pts:
        if z > prev_z:
            total += area * (z - prev_z)
            prev_z = float(z)
        i = bisect.bisect_left(xs, x)
        if i > 0 and ys[i - 1] <= y:
            continue  # already covered by a lower-or-equal step on the left
        j = i
        while j < len(xs) and ys[j] >= y:
            j += 1  # steps the new point supersedes
        right_x = xs[j] if j < len(xs) else ref_x
        gained = (right_x - x) * (ref_y - y)
        first_old = xs[i] if i < j else right_x
        if i > 0:
            gained -= (first_old - x) * (ref_y - ys[i - 1])
        for k in range(i, j):
            next_x = xs[k + 1] if k + 1 < j else right_x
            gained -= (next_x - xs[k]) * (ref_y - ys[k])
        del xs[i:j], ys[i:j]
        xs.insert(i, float(x))
        ys.insert(i, float(y))
        area += gained
    return total + area * (ref_z - prev_z)


def _hv_2d(pts: np.ndarray, ref: np.ndarray) -> float:
    # nondominated and deduplicated, so x strictly increases and y strictly decreases
    order = np.argsort(pts[:, 0], kind="stable")
    pts = pts[order]
    total = 0.0
    for i in range(len(pts)):
        x_next = pts[i + 1, 0] if i + 1 < len(pts) else ref[0]
        total += (x_next - pts[i, 0]) * (ref[1] - pts[i, 1])
    return float(total)


class IncrementalHypervolume:
    """Exact hypervolume of a growing point set, one insertion at a time.

    Each added point contributes its exclusive volume against the points
    already present (zero if dominated or outside the reference box), so a
    whole convergence series costs one exclusive computation per new front
    point instead of a from-scratch hypervolume per generation. The running
    value equals hypervolume() of the union of everything ever added, and it
    never decreases: exclusive volumes are nonnegative, with float noise
    clipped at zero.
    """

    def __init__(self, reference: np.ndarray):
        self.reference = np.asarray(reference, dtype=float)
        self.front = np.empty((0, self.reference.shape[0]))
        self.value = 0.0

    def add(self, point: np.ndarray) -> float:
        point = np.asarray(point, dtype=float)
        if not np.all(point < self.reference):
            return self.value  # dominates nothing inside the reference box
        if len(self.front) and bool(np.any(np.all(self.front <= point, axis=1))):
            return self.value  # dominated (or duplicate): contributes nothing
        exclusive = float(np.prod(self.reference - point))
        if len(self.front):
            limit = _reduce(np.maximum(self.front, point))
            if len(limit):
                exclusive -= _hv(limit, self.reference)
            self.front = self.front[~np.all(self.front >= point, axis=1)]
        self.value += max(exclusive, 0.0)
        self.front = np.vstack([self.front, point[None, :]])
        return self.value

    def add_all(self, points: np.ndarray) -> float:
        for point in np.atleast_2d(np.asarray(points, dtype=float)):
            self.add(point)
        return self.value


def reference_point(points: np.ndarray, margin: float = 0.1) -> np.ndarray:
    """Reference for hypervolume: the nadir pushed out by margin of the span.

    The push is proportional to the per-axis spread (nadir - ideal), so it
    works for negative coordinates too; axes with zero spread get the margin
    as an absolute offset so the reference stays strictly dominated.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nadir = pts.max(axis=0)
    ideal = pts.min(axis=0)
    span = nadir - ideal
    return nadir + np.where(span > 0, margin * span, margin)


def reduce_to_2d(points: np.ndarray) -> np.ndarray:
    """Project minimization vectors to (cost change, mean wave change) for plots."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.column_stack([pts[:, COST_INDEX], pts[:, WAVE_START_INDEX:].mean(axis=1)])


@dataclass
class FrontSnapshot:
    generation: int
    model_runs: int
    points: np.ndarray          # the cumulative front, minimization form
    hypervolume: float
    best_scalar: float

    @property
    def front_size(self) -> int:
        return len(self.points)


def run_snapshots(history, reference: np.ndarray) -> list[FrontSnapshot]:
    """Per-generation hypervolume of a run's cumulative feasible front.

    Computed incrementally: a generation's front differs from the previous
    one only by its newly nondominated points, and points that later drop
    off a front are dominated, so they never change the value.
    """
    acc = IncrementalHypervolume(reference)
    seen: set[bytes] = set()
    out = []
    for record in history.records:
        for ind in record.front:
            key = ind.point.tobytes()
            if key not in seen:
                seen.add(key)
                acc.add(ind.point)
        points = (
            np.array([ind.point for ind in record.front])
            if record.front
            else np.empty((0, acc.reference.shape[0]))
        )
        out.append(
            FrontSnapshot(
                generation=record.generation,
                model_runs=record.model_runs,
                points=points,
                hypervolume=acc.value,
                best_scalar=record.best_scalar,
            )
        )
    return out


def all_front_points(histories) -> np.ndarray:
    """Stack every point that was ever on any run's cumulative front.

    This is the set the shared reference point must bound so that
    per-generation hypervolumes are comparable across runs and generations.
    """
    rows = [
        ind.point
        for history in histories
        for record in history.records
        for ind in record.front
    ]
    if not rows:
        raise ValueError("no feasible front points in any run")
    return np.array(rows)


def quartile_table(snapshot_lists: list[list[FrontSnapshot]]) -> list[dict]:
    """Per-generation hypervolume quartiles across runs of one variant."""
    if not snapshot_lists:
        return []
    n_gens = min(len(s) for s in snapshot_lists)
    rows = []
    for g in range(n_gens):
        values = np.array([s[g].hypervolume for s in snapshot_lists])
        rows.append(
            {
                "generation": snapshot_lists[0][g].generation,
                "model_runs": snapshot_lists[0][g].model_runs,
                "hv_q1": float(np.percentile(values, 25)),
                "hv_median": float(np.median(values)),
                "hv_q3": float(np.percentile(values, 75)),
                "hv_min": float(values.min()),
                "hv_max": float(values.max()),
            }
        )
    return rows
