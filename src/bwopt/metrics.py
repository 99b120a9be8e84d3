"""Front quality metrics.

Hypervolume here is exact, not estimated: 2-D and 3-D fronts are swept
directly, and four or more dimensions use the WFG exclusive-volume recursion
(While, Bradstreet & Barone, IEEE TEVC 2012), which stays in the same
dimension, so 5-D fronts never reach the sweeps. Points not strictly inside
the reference box are dropped before any of it runs. All metrics operate on
minimization vectors (the optimizer's relative-objective space).

The hypervolume kernel (_reduce, _hv, _exclusive, the sweeps and
IncrementalHypervolume) runs on lists of plain-float tuples, not arrays: a
5-D convergence series makes about 10^5 recursive calls, most on one or two
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


def nondominated(points: np.ndarray) -> np.ndarray:
    """Indices of points not dominated by any other (minimization).

    Exact duplicates do not dominate each other, so all copies survive.
    """
    return np.flatnonzero(~dominance(points).any(axis=0))


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

    hypervolume() and IncrementalHypervolume.add drop the other points first.
    2-D and 3-D input is swept; otherwise (d >= 4, or d == 1 where reduced
    input is one point) it is the sum of each point's exclusive volume
    against the points after it, in input order.

    The last two terms skip _exclusive: the last point has nothing after it,
    so its exclusive volume is its box, and the second-to-last clips one
    point, whose hypervolume is its box. Both equal what _exclusive returns
    to the last bit: _hv of one point is 0.0 plus a positive box.
    """
    d = len(ref)
    if d == 2:
        return _hv_2d(pts, ref)
    if d == 3:
        return _hv_3d(pts, ref)
    total = 0.0
    n = len(pts)
    for i in range(n - 2):
        total += _exclusive(pts[i], pts[i + 1 :], ref)
    last = pts[-1]
    if n > 1:
        point = pts[-2]
        total += math.prod(map(sub, ref, point)) - math.prod(map(sub, ref, map(max, last, point)))
    return total + math.prod(map(sub, ref, last))


def _exclusive(point: Point, others: list[Point], ref: Point) -> float:
    """Volume of point's box outside the boxes of others: the box minus others clipped into it."""
    exclusive = math.prod(map(sub, ref, point))
    if others:
        clipped = [tuple(map(max, q, point)) for q in others]
        # _reduce leaves one point as it is
        exclusive -= _hv(clipped if len(clipped) == 1 else _reduce(clipped), ref)
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
    already present (zero if dominated or outside the reference box), so a
    whole convergence series costs one exclusive computation per new front
    point instead of a from-scratch hypervolume per generation. The running
    value equals hypervolume() of the union of everything ever added, and it
    never decreases: exclusive volumes are nonnegative, with float noise
    clipped at zero.

    The reference and each front point are tuples of plain floats, and
    value is a plain float. Each exclusive volume is computed in the fixed
    order the module docstring describes and added to value in insertion
    order, so a given sequence of points gives the same value to the last
    bit on every run, and the exported snapshots stay byte-identical.
    """

    def __init__(self, reference: np.ndarray):
        self.reference = tuple(np.asarray(reference, dtype=float).tolist())
        self.front: list[Point] = []
        self.value = 0.0

    def admit(self, point: np.ndarray) -> Point | None:
        """point as a tuple if adding it adds volume, else None; changes nothing.

        A point adds volume when it is strictly inside the reference box and
        no front point is <= it in every coordinate (a duplicate adds none).
        """
        point = tuple(np.asarray(point, dtype=float).tolist())
        if len(point) != len(self.reference):
            raise ValueError(
                f"point is {len(point)}-dimensional, reference is {len(self.reference)}-dimensional"
            )
        if not all(map(lt, point, self.reference)):
            return None  # dominates nothing inside the reference box
        if any(all(map(le, q, point)) for q in self.front):
            return None  # dominated (or duplicate): contributes nothing
        return point

    def insert(self, point: Point) -> None:
        """Put an admitted point on the front, dropping the points it weakly dominates.

        front becomes a new list, so a front taken before stays as it was.
        """
        self.front = [q for q in self.front if not all(map(ge, q, point))]
        self.front.append(point)

    def add(self, point: np.ndarray, exclusive: float | None = None) -> float:
        """Add point; exclusive, if given, is its exclusive volume against front."""
        point = self.admit(point)
        if point is not None:
            if exclusive is None:
                exclusive = _exclusive(point, self.front, self.reference)
            self.insert(point)
            self.value += max(exclusive, 0.0)
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
    """One generation's row of snapshots.csv; the fields are its columns, in order."""

    generation: int
    model_runs: int
    front_size: int             # points on the cumulative front
    hypervolume: float
    best_scalar: float


def run_snapshots(history, reference: np.ndarray) -> list[FrontSnapshot]:
    """Per-generation hypervolume of a run's cumulative feasible front.

    Computed incrementally: a generation's front differs from the previous
    one only by its newly nondominated points, and points that later drop
    off a front are dominated, so they never change the value. A first pass
    finds the points that add volume and the front each one meets; their
    exclusive volumes are then shared across CPUs (parallel.share) and added
    in insertion order, which gives the same value as adding them one by one.
    """
    probe = IncrementalHypervolume(reference)
    seen: set[bytes] = set()
    fresh: list[list[tuple[np.ndarray, bool]]] = []  # per record: new points, admitted?
    jobs: list[tuple[Point, list[Point]]] = []
    for record in history.records:
        new = []
        for ind in record.front:
            key = ind.point.tobytes()
            if key not in seen:
                seen.add(key)
                point = probe.admit(ind.point)
                new.append((ind.point, point is not None))
                if point is not None:
                    jobs.append((point, probe.front))
                    probe.insert(point)
        fresh.append(new)
    ref = probe.reference
    exclusives = iter(share(lambda job: _exclusive(job[0], job[1], ref), jobs))

    acc = IncrementalHypervolume(reference)
    out = []
    for record, new in zip(history.records, fresh):
        for point, admitted in new:
            acc.add(point, next(exclusives) if admitted else None)
        out.append(
            FrontSnapshot(
                generation=record.generation,
                model_runs=record.model_runs,
                front_size=len(record.front),
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
