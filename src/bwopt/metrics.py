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
points, where NumPy's per-call overhead costs more than the arithmetic. The
one exception is the top level of each of run_snapshots' exclusive volumes,
where a whole previous front (about a hundred points) is clipped into the
arrival's box and reduced to about ten: _clip_reduce does that on arrays,
with the same rows and bits as _reduce. The tuple levels below it, 4-D and
3-D for a 5-D front (about ten and four points), clip and reduce in one
pass of inlined comparisons (_clip_reduce_tuples), since there each builtin
call costs more than the comparison it makes; other dimensions take the
generic expressions. Every clip picks what builtin max(q, point) picks:
point's coordinate only where it is greater, so a tie, -0.0 against 0.0
included, keeps q's value and sign. Every box product multiplies the
coordinates left to right, and every sum adds the points in _reduce's
sorted order. Float addition is not associative, so this fixed order is
what makes each value, and every exported file that carries one, the same
bit for bit on every run.
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


def at_most(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """m[i, j]: a[i] <= b[j] in every objective, weak dominance on minimization vectors.

    Two rows are equal when each is at most the other, so -0.0 equals 0.0;
    a row with a NaN is at most nothing.
    """
    return np.all(a[:, None] <= b[None], axis=2)


def dominance(points: np.ndarray) -> np.ndarray:
    """Pareto-dominance matrix on minimization vectors.

    d[i, j] is true when row i dominates row j: no worse in every objective
    and better in at least one. Exact duplicates do not dominate each other,
    and a row with a NaN neither dominates nor is dominated.
    """
    p = np.asarray(points, dtype=float)
    if p.size == 0:
        return np.zeros((len(p), len(p)), dtype=bool)
    weak = at_most(p, p)
    return weak & ~weak.T


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
        exclusive -= _hv(_clip_reduce_tuples(point, others), ref)
    return exclusive


def _clip_reduce_tuples(point: Point, others: list[Point]) -> list[Point]:
    """_reduce([tuple(map(max, q, point)) for q in others]): the same rows, order and bits.

    Each coordinate is clipped to what builtin max(q, point) picks, point's
    value only where it is greater, so a tie keeps q's value and sign. After
    _reduce's sort every earlier row is <= in the last coordinate, so the kept
    test compares only the first d - 1. The 4-D and 3-D levels, the ones a
    5-D front reaches below run_snapshots' array top level, are inlined;
    every other d takes the generic expressions. others must be non-empty.
    """
    d = len(point)
    if d == 4:
        a, b, c, e = point
        clipped = [
            (a if a > q0 else q0, b if b > q1 else q1, c if c > q2 else q2, e if e > q3 else q3)
            for q0, q1, q2, q3 in others
        ]
        clipped.sort(key=itemgetter(3, 2, 1, 0))
        kept: list[Point] = []
        for p in clipped:
            p0, p1, p2, _ = p
            for k0, k1, k2, _ in kept:
                if k0 <= p0 and k1 <= p1 and k2 <= p2:
                    break
            else:
                kept.append(p)
        return kept
    if d == 3:
        a, b, c = point
        clipped = [(a if a > q0 else q0, b if b > q1 else q1, c if c > q2 else q2) for q0, q1, q2 in others]
        clipped.sort(key=itemgetter(2, 1, 0))
        kept = []
        for p in clipped:
            p0, p1, _ = p
            for k0, k1, _ in kept:
                if k0 <= p0 and k1 <= p1:
                    break
            else:
                kept.append(p)
        return kept
    return _reduce([tuple(map(max, q, point)) for q in others])


def _clip_reduce(point: np.ndarray, others: np.ndarray) -> list[Point]:
    """_reduce([tuple(map(max, q, point)) for q in others]) on arrays: the same rows, order and bits.

    np.where(point > q, point, q) is the value builtin max(q, point) picks,
    signed zeros included. The stable lexsort on the columns (the last one
    primary) is _reduce's sort. A row is kept when no earlier kept row is <=
    in every coordinate, which by transitivity is when no earlier row is.
    others must be non-empty and free of NaN.
    """
    clipped = np.where(point > others, point, others)
    rest = clipped[np.lexsort(clipped.T)]
    kept = []
    while len(rest):
        top, rest = rest[0], rest[1:]
        kept.append(top)
        rest = rest[(rest < top).any(axis=1)]
    return list(map(tuple, np.array(kept).tolist()))


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


def run_snapshots(histories, reference: np.ndarray) -> list[list[FrontSnapshot]]:
    """Per-generation hypervolume of each run's cumulative feasible front, one list per history.

    Computed incrementally from the fronts each run recorded: each record's
    front is the nondominated set of every feasible point so far (an exact
    duplicate keeps its earliest copy), so a point that later drops off a
    front is dominated and never changes the value, and no earlier point
    weakly dominates one of the record's arrivals. Each arrival strictly
    inside the reference adds its exclusive volume against the previous
    record's front and the arrivals before it in its record. The weakly
    dominated points among those are dropped after clipping, so the volume
    is the one IncrementalHypervolume.add computes when it replays the
    arrivals in order.

    Per record, the previous front's points inside the reference and then
    the record's arrivals inside it are stacked into one array; an arrival's
    job names that array, the arrival and its row, and meets the rows above
    it. Its top level is clipped and reduced on the array (_clip_reduce),
    everything below on tuples. One parallel.share computes every run's
    jobs, in run order and then arrival order, and each run adds its own
    volumes in arrival order, which gives the same value to the last bit as
    one run alone on one CPU.
    """
    bound = np.asarray(reference, dtype=float)
    ref = tuple(bound.tolist())

    def inside(members) -> np.ndarray:  # the members' points strictly inside ref
        points = np.array([ind.point for ind in members], dtype=float).reshape(-1, len(ref))
        return points[(points < bound).all(axis=1)]

    jobs: list[tuple[np.ndarray, Point, int]] = []  # (rows, arrival, its row)
    fresh: list[list[int]] = []  # per history and record: how many of its arrivals are jobs
    for history in histories:
        fresh.append([])
        previous = inside([])  # the previous record's front, inside ref
        for record in history.records:
            new = inside(record.arrivals)
            rows = np.concatenate([previous, new])
            jobs.extend((rows, point, len(previous) + i) for i, point in enumerate(map(tuple, new.tolist())))
            fresh[-1].append(len(new))
            previous = inside(record.front)
    exclusives = iter(share(lambda job: _job_exclusive(*job, ref), jobs))

    out = []
    for history, counts in zip(histories, fresh):
        value = 0.0
        snapshots = []
        for record, n in zip(history.records, counts):
            for e in islice(exclusives, n):
                value += max(e, 0.0)
            snapshots.append(
                FrontSnapshot(
                    generation=record.generation,
                    model_runs=record.model_runs,
                    front_size=len(record.front),
                    hypervolume=value,
                    best_scalar=record.best_scalar,
                )
            )
        out.append(snapshots)
    return out


def _job_exclusive(rows: np.ndarray, point: Point, row: int, ref: Point) -> float:
    """_exclusive(point, rows[:row] as tuples, ref), its top level clipped and reduced on the array."""
    if row == 0:
        return math.prod(map(sub, ref, point))
    return math.prod(map(sub, ref, point)) - _hv(_clip_reduce(rows[row], rows[:row]), ref)


def all_front_points(histories) -> np.ndarray:
    """Stack every point that was ever on any run's cumulative front, once: the arrivals.

    This is the set the shared reference point must bound so that
    per-generation hypervolumes are comparable across runs and generations.
    """
    rows = [
        ind.point
        for history in histories
        for record in history.records
        for ind in record.arrivals
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
