"""Front quality metrics.

Hypervolume here is exact, not estimated: 2-D and 3-D fronts are swept
directly, and four or more dimensions are sliced on the last objective as in
WFG (While, Bradstreet & Barone, IEEE TEVC 2012): each level drops one
dimension, so a 5-D front goes 5-D -> 4-D -> the 3-D sweep. Points not
strictly inside the reference box are dropped before any of it runs. All
metrics operate on minimization vectors (the optimizer's relative-objective
space).

The hypervolume kernel (_reduce, _hv, _exclusive, the sweeps and
IncrementalHypervolume) runs on lists of plain-float tuples, not arrays: a
5-D convergence series makes about 10^4 recursive calls, most on a few
points, where NumPy's per-call overhead costs more than the arithmetic.
Every box product multiplies the coordinates left to right, and every sum
adds the points in _reduce's sorted order. Float addition is not
associative, so this fixed order is what makes each value, and every
exported file that carries one, the same bit for bit on every run.
"""
from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from itertools import islice
from operator import ge, itemgetter, le, lt, sub

import numpy as np

from .objectives import COST_INDEX, WAVE_START_INDEX
from .parallel import share


Point = tuple[float, ...]  # a minimization vector inside the hypervolume kernel


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


def _reduce(pts: list[Point]) -> list[Point]:
    """Deduplicate and keep the nondominated subset, sorted by last objective.

    Sorts by the reversed tuple (last coordinate first, lexicographic
    tie-break), the processing order the hypervolume recursion wants. A point
    is kept only when no earlier kept point is <= in every coordinate: a
    dominator always sorts earlier, and so does the first copy of a duplicate.
    pts must be non-empty.
    """
    kept: list[Point] = []
    for p in sorted(pts, key=itemgetter(*range(len(pts[0]) - 1, -1, -1))):
        for k in kept:
            if all(map(le, k, p)):
                break
        else:
            kept.append(p)
    return kept


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
    return _hv(_reduce(list(map(tuple, pts.tolist()))), tuple(ref.tolist()))


def _hv(pts: list[Point], ref: Point) -> float:
    """Hypervolume of _reduce output, every point strictly inside ref.

    hypervolume(), IncrementalHypervolume.add and run_snapshots drop the other
    points first.
    2-D and 3-D input is swept; otherwise (d >= 4, or d == 1 where reduced
    input is one point) it is sliced on the last objective. _reduce output
    ascends in that coordinate, so the points before pts[i], clipped into its
    box, all share its last coordinate: pts[i] adds ref[-1] - pts[i][-1]
    times its (d - 1)-dimensional exclusive volume against them.
    """
    d = len(ref)
    if d == 2:
        return _hv_2d(pts, ref)
    if d == 3:
        return _hv_3d(pts, ref)
    top, ref = ref[-1], ref[:-1]
    flat = [p[:-1] for p in pts]
    total = 0.0
    for i, p in enumerate(pts):
        total += (top - p[-1]) * _exclusive(flat[i], flat[:i], ref)
    return total


def _exclusive(point: Point, others: list[Point], ref: Point) -> float:
    """Volume of point's box outside the boxes of others: the box minus others clipped into it.

    One clipped point is taken as its box. _hv of it gives the same bits: it
    multiplies the same sides, at most the last from the other side (a * b ==
    b * a in IEEE arithmetic), and adds the product to 0.0.
    """
    exclusive = math.prod(map(sub, ref, point))
    if len(others) == 1:
        return exclusive - math.prod(map(sub, ref, map(max, others[0], point)))
    if others:
        exclusive -= _hv(_reduce([tuple(map(max, q, point)) for q in others]), ref)
    return exclusive


def _hv_3d(pts: list[Point], ref: Point) -> float:
    """Sweep reduced input, already ascending in z, keeping a 2-D staircase.

    Each slab contributes the staircase area times its thickness; staircase
    insertions update the area locally, so the whole sweep is O(n log n)
    plus removals.
    """
    ref_x, ref_y, ref_z = ref
    xs: list[float] = []  # staircase abscissae, ascending
    ys: list[float] = []  # matching ordinates, strictly descending
    area = 0.0
    total = 0.0
    prev_z = pts[0][2]
    for x, y, z in pts:
        if z > prev_z:
            total += area * (z - prev_z)
            prev_z = z
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
        xs.insert(i, x)
        ys.insert(i, y)
        area += gained
    return total + area * (ref_z - prev_z)


def _hv_2d(pts: list[Point], ref: Point) -> float:
    # reduced input ascends in y, so x strictly descends: reversing sorts by x
    pts = pts[::-1]
    total = 0.0
    for i, (x, y) in enumerate(pts):
        x_next = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
        total += (x_next - x) * (ref[1] - y)
    return total


class IncrementalHypervolume:
    """Exact hypervolume of a growing point set, one insertion at a time.

    Each added point contributes its exclusive volume against the points
    already present (zero if dominated or outside the reference box). The
    running value equals hypervolume() of the union of everything ever
    added, and it never decreases: exclusive volumes are nonnegative, with
    float noise clipped at zero.

    The reference and each front point are tuples of plain floats, and
    value is a plain float. Each exclusive volume is computed in the fixed
    order the module docstring describes and added to value in insertion
    order, so a given sequence of points gives the same value to the last
    bit on every run. run_snapshots does not use this class: it is the
    serial reference that the tests replay each run's fronts through, and
    perfbench counts calls to its add.
    """

    def __init__(self, reference: np.ndarray):
        self.reference = tuple(np.asarray(reference, dtype=float).tolist())
        self.front: list[Point] = []
        self.value = 0.0

    def add(self, point: np.ndarray) -> float:
        point = tuple(np.asarray(point, dtype=float).tolist())
        if len(point) != len(self.reference):
            raise ValueError(
                f"point is {len(point)}-dimensional, reference is {len(self.reference)}-dimensional"
            )
        if not all(map(lt, point, self.reference)):
            return self.value  # dominates nothing inside the reference box
        if any(all(map(le, q, point)) for q in self.front):
            return self.value  # dominated (or duplicate): contributes nothing
        exclusive = _exclusive(point, self.front, self.reference)
        self.front = [q for q in self.front if not all(map(ge, q, point))]
        self.value += max(exclusive, 0.0)
        self.front.append(point)
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
    """One generation's row of snapshots.csv; the fields are its columns, in order."""

    generation: int
    model_runs: int
    front_size: int             # points on the cumulative front
    hypervolume: float
    best_scalar: float


def run_snapshots(history, reference: np.ndarray) -> list[FrontSnapshot]:
    """Per-generation hypervolume of a run's cumulative feasible front.

    Computed incrementally from the fronts the run recorded: each record's
    front is the nondominated set of every feasible point so far (an exact
    duplicate keeps its earliest copy), so a point that later drops off a
    front is dominated and never changes the value, and no earlier point
    weakly dominates a point new to a front. Each new point strictly inside
    the reference adds its exclusive volume against the previous record's
    front and the points new before it in its record. The weakly dominated
    points among those are dropped by _reduce after clipping, so the volume
    is the one IncrementalHypervolume.add computes when it replays the new
    points in order. The volumes are shared across CPUs (parallel.share)
    and added in that order, which gives the same value to the last bit.
    """
    ref = tuple(np.asarray(reference, dtype=float).tolist())
    jobs: list[tuple[Point, list[Point]]] = []  # (new point, the points it meets)
    fresh: list[int] = []  # per record: how many of its points are jobs
    previous: list[Point] = []  # the previous record's front, inside ref
    previous_keys: set[bytes] = set()
    for record in history.records:
        front: list[Point] = []
        keys: set[bytes] = set()
        new: list[Point] = []
        for ind in record.front:
            point = tuple(ind.point.tolist())
            if all(map(lt, point, ref)):
                key = ind.point.tobytes()
                if key not in previous_keys:
                    jobs.append((point, previous + new))
                    new.append(point)
                front.append(point)
                keys.add(key)
        fresh.append(len(new))
        previous, previous_keys = front, keys
    exclusives = iter(share(lambda job: _exclusive(job[0], job[1], ref), jobs))

    out = []
    value = 0.0
    for record, n in zip(history.records, fresh):
        for e in islice(exclusives, n):
            value += max(e, 0.0)
        out.append(
            FrontSnapshot(
                generation=record.generation,
                model_runs=record.model_runs,
                front_size=len(record.front),
                hypervolume=value,
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
