import collections
import itertools
import math
import operator
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mc_hypervolume, nondominated
from bwopt import metrics, parallel
from bwopt.evolution import EAConfig, GenerationRecord, Individual, _update_front, run_spea2
from bwopt.experiment import run_single
from bwopt.geometry import Encoding
from bwopt.metrics import (
    FrontSnapshot,
    IncrementalHypervolume,
    MetricsWarning,
    all_front_points,
    dominance,
    hypervolume,
    quartile_table,
    reduce_to_2d,
    reference_point,
    run_snapshots,
)


def brute_nondominated(points):
    points = np.asarray(points, dtype=float)
    keep = []
    for i in range(len(points)):
        dominated = any(
            np.all(points[j] <= points[i]) and np.any(points[j] < points[i])
            for j in range(len(points))
            if j != i
        )
        if not dominated:
            keep.append(i)
    return keep


def union_volume(points, reference):
    """Inclusion-exclusion over the boxes [p, ref]: exact and independent."""
    points = np.asarray(points, dtype=float)
    reference = np.asarray(reference, dtype=float)
    total = 0.0
    for r in range(1, len(points) + 1):
        for subset in itertools.combinations(range(len(points)), r):
            corner = points[list(subset)].max(axis=0)
            side = reference - corner
            if np.all(side > 0):
                total += (-1.0) ** (r + 1) * float(np.prod(side))
    return total


def add_all(acc, points):
    """Add each row of points to the IncrementalHypervolume acc in order; returns its value."""
    for point in np.atleast_2d(np.asarray(points, dtype=float)):
        acc.add(point)
    return acc.value


# ----- nondominated -----

def test_nondominated_examples():
    pts = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
    assert list(nondominated(pts)) == [0, 2]


def test_nondominated_duplicates_survive():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    assert list(nondominated(pts)) == [0, 1, 2]


def test_nondominated_empty():
    assert nondominated(np.empty((0, 3))).size == 0


def test_nondominated_idempotent():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(60, 3))
    front = pts[nondominated(pts)]
    assert list(nondominated(front)) == list(range(len(front)))


def test_nondominated_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(2, 5))
        pts = rng.integers(0, 5, size=(n, d)).astype(float)  # ties and duplicates on purpose
        assert list(nondominated(pts)) == brute_nondominated(pts)
        pairwise = [[bool(np.all(a <= b) and np.any(a < b)) for b in pts] for a in pts]
        assert dominance(pts).tolist() == pairwise


# ----- hypervolume: pinned cases -----

def test_hv_single_point_unit_box():
    assert hypervolume(np.array([[0.0, 0.0]]), np.array([1.0, 1.0])) == 1.0


def test_hv_two_point_staircase_is_five():
    pts = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert hypervolume(pts, np.array([3.0, 3.0])) == 5.0


def test_hv_one_dimensional():
    assert hypervolume(np.array([[2.0], [5.0]]), np.array([10.0])) == 8.0


def test_hv_empty_is_zero():
    assert hypervolume(np.empty((0, 2)), np.array([1.0, 1.0])) == 0.0


def test_hv_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensional"):
        hypervolume(np.array([[0.0, 0.0]]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="dimensional"):
        IncrementalHypervolume(np.array([1.0, 1.0, 1.0])).add([0.0, 0.0])


def test_hv_point_outside_reference_warns_and_is_dropped():
    pts = np.array([[0.0, 2.0], [5.0, 0.0]])
    with pytest.warns(MetricsWarning, match="1 of 2"):
        value = hypervolume(pts, np.array([3.0, 3.0]))
    assert value == hypervolume(np.array([[0.0, 2.0]]), np.array([3.0, 3.0]))


def test_hv_all_points_outside_is_zero():
    with pytest.warns(MetricsWarning):
        assert hypervolume(np.array([[4.0, 4.0]]), np.array([3.0, 3.0])) == 0.0


def test_hv_duplication_and_permutation_invariance():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(12, 3))
    ref = np.array([1.0, 1.0, 1.0])
    base = hypervolume(pts, ref)
    assert hypervolume(np.vstack([pts, pts[:4]]), ref) == pytest.approx(base, rel=1e-12)
    assert hypervolume(pts[rng.permutation(12)], ref) == pytest.approx(base, rel=1e-12)


def test_hv_dominated_point_changes_nothing():
    pts = np.array([[0.2, 0.4, 0.1], [0.5, 0.1, 0.3]])
    ref = np.ones(3)
    base = hypervolume(pts, ref)
    with_dominated = np.vstack([pts, [0.6, 0.5, 0.4]])
    assert hypervolume(with_dominated, ref) == pytest.approx(base, rel=1e-12)


def test_hv_monotone_under_insertion():
    rng = np.random.default_rng(3)
    ref = np.ones(3)
    pts = rng.uniform(0, 1, size=(1, 3))
    prev = hypervolume(pts, ref)
    for _ in range(30):
        pts = np.vstack([pts, rng.uniform(0, 1, size=3)])
        cur = hypervolume(pts, ref)
        assert cur >= prev - 1e-12
        prev = cur


# ----- hypervolume vs independent oracles -----

def test_hv_matches_inclusion_exclusion():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(2, 6))
        pts = rng.uniform(0, 1, size=(n, d))
        ref = rng.uniform(1.0, 2.0, size=d)
        exact = hypervolume(pts, ref)
        oracle = union_volume(pts, ref)
        assert exact == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_hv_matches_monte_carlo():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for _ in range(3):
            pts = rng.uniform(0, 1, size=(15, d))
            ref = np.full(d, 1.1)
            exact = hypervolume(pts, ref)
            estimate, se = mc_hypervolume(pts, ref, n_samples=200_000, seed=int(rng.integers(1 << 30)))
            assert abs(exact - estimate) <= 3.0 * se + 1e-12


def test_hv_3d_sweep_agrees_with_generic_recursion():
    # lift 3-D sets into 4-D with a constant coordinate: volume scales by the
    # slab. The reference kernel recurses in 4-D and never reaches a sweep;
    # hypervolume() sweeps the 3-D set, and slices the lifted set into 3-D
    # sweeps of its clipped subsets.
    rng = np.random.default_rng(6)
    for _ in range(20):
        pts = rng.uniform(0, 1, size=(25, 3))
        ref3 = np.full(3, 1.2)
        lifted = np.column_stack([pts, np.zeros(len(pts))])
        ref4 = np.append(ref3, 2.0)
        tally = collections.Counter()
        reference = np_hv(np_reduce(lifted), ref4, tally)
        swept, swept_ops = counted_hypervolume(pts, ref3)
        sliced, sliced_ops = counted_hypervolume(lifted, ref4)
        # doubling is exact, so 2 * swept keeps the 3-D error bound times 2
        for value, ops in ((swept * 2.0, swept_ops), (sliced, sliced_ops)):
            slack = error_bound(ops, lifted, ref4) + error_bound(tally["ops"], lifted, ref4)
            assert abs(Fraction(value) - Fraction(reference)) <= slack


def sphere_front(seed, n, d):
    pts = np.random.default_rng(seed).uniform(0.05, 1.0, size=(n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_hv_bit_exact_on_fixed_fronts():
    # exact values, not approx: a reordered sum or a dropped branch changes the last bits
    for seed, n, d, expected in (
        (21, 30, 2, 0.36342333903414986),
        (22, 40, 3, 0.507579293560824),
        (23, 25, 5, 0.5786612865876333),
    ):
        assert hypervolume(sphere_front(seed, n, d), np.full(d, 1.1)) == expected
    acc = IncrementalHypervolume(np.full(5, 1.1))
    assert add_all(acc, sphere_front(23, 25, 5)) == 0.5786612865876335


def test_hv_returns_plain_float():
    for d in (2, 3, 4, 5):
        pts, ref = sphere_front(30 + d, 12, d), np.full(d, 1.1)
        assert type(hypervolume(pts, ref)) is float
        acc = IncrementalHypervolume(ref)
        add_all(acc, pts)
        assert type(acc.value) is float


def test_hv_one_point_is_its_box_to_the_last_bit():
    # _exclusive takes a one-point clipped set as its box without calling _hv
    rng = np.random.default_rng(13)
    for d in range(1, 7):
        for _ in range(50):
            point, ref = rng.uniform(0, 1, size=d), rng.uniform(1.0, 2.0, size=d)
            box = math.prod(map(operator.sub, ref.tolist(), point.tolist()))
            assert hypervolume(point[None], ref) == box


# ----- reference kernel and exact oracle -----

# The in-dimension WFG recursion the plain-float kernel used before it sliced
# on the last objective, on NumPy arrays. tally, if given, counts its rounded
# float operations under "ops".

def np_reduce(pts):
    pts = pts[np.lexsort(pts.T)]
    if len(pts) > 1:
        distinct = np.empty(len(pts), dtype=bool)
        distinct[0] = True
        np.any(pts[1:] != pts[:-1], axis=1, out=distinct[1:])
        pts = pts[distinct]
    return pts[~dominance(pts).any(axis=0)]


def np_hv(pts, ref, tally=None):
    # d >= 4 only: the recursion stays in d dimensions and never reaches the sweeps
    total = 0.0
    for i in range(len(pts)):
        total += np_exclusive(pts[i], pts[i + 1 :], ref, tally)
    if tally is not None:
        tally["ops"] += len(pts)  # the sums
    return total


def np_exclusive(point, others, ref, tally=None):
    exclusive = float(np.prod(ref - point))
    if tally is not None:
        tally["ops"] += 2 * len(ref) - 1 + (len(others) > 0)  # d sides, d - 1 products, the difference
    if len(others):
        exclusive -= np_hv(np_reduce(np.maximum(others, point)), ref, tally)
    return exclusive


def np_incremental_values(points, ref, tally=None):
    front = np.empty((0, len(ref)))
    value = 0.0
    values = []
    for point in points:
        if np.all(point < ref) and not np.any(np.all(front <= point, axis=1)):
            exclusive = np_exclusive(point, front, ref, tally)
            front = front[~np.all(front >= point, axis=1)]
            value += max(exclusive, 0.0)
            if tally is not None:
                tally["ops"] += 1
            front = np.vstack([front, point[None, :]])
        values.append(value)
    return values


def exact_hv(pts, ref):
    """Hypervolume in rational arithmetic: inclusion-exclusion over the boxes [p, ref].

    Every float is a rational, so this is exact. Duplicates and weakly
    dominated points add nothing to the union and are dropped first, by
    exact comparisons, to keep the 2^n subsets few. pts lie inside ref.
    """
    ref = tuple(map(Fraction, ref))
    distinct = {tuple(map(Fraction, p)) for p in np.asarray(pts, dtype=float).tolist()}
    kept = [p for p in distinct if not any(q != p and all(map(operator.le, q, p)) for q in distinct)]
    total = Fraction(0)
    for r in range(1, len(kept) + 1):
        for subset in itertools.combinations(kept, r):
            total += (-1) ** (r + 1) * math.prod(side - max(corner) for side, *corner in zip(ref, *subset))
    return total


def counted(kernel, *args):
    """kernel(*args) on floats that count each +, - and * done with them: (value, count).

    args are floats, tuples of floats and lists of such tuples. Each
    operation rounds as it does on plain floats and comparisons are float's,
    so value has the bits of the plain run and count is its number of rounded
    operations (a product by math.prod's start 1 counts too, which only
    loosens a bound).
    """
    count = 0

    def counting(op):
        def counted_op(a, b):
            nonlocal count
            count += 1
            return Counting(op(float(a), float(b)))

        return counted_op

    class Counting(float):
        __add__ = __radd__ = counting(operator.add)
        __mul__ = __rmul__ = counting(operator.mul)
        __sub__ = counting(operator.sub)
        __rsub__ = counting(lambda a, b: b - a)

    def wrap(x):
        return Counting(x) if isinstance(x, float) else type(x)(map(wrap, x))

    value = kernel(*map(wrap, args))
    return float(value), count


def counted_hypervolume(pts, ref):
    """hypervolume(pts, ref) for pts inside ref, and the rounded operations it takes."""
    value, ops = counted(metrics._hv, metrics._reduce(list(map(tuple, pts.tolist()))), tuple(ref.tolist()))
    assert value == hypervolume(pts, ref)  # the counted run is the same computation
    return value, ops


def counted_incremental(pts, ref):
    """add_all(IncrementalHypervolume(ref), pts) and the rounded operations it takes:
    each admitted point's exclusive volume and the sum that adds it."""
    acc = IncrementalHypervolume(ref)
    ops = 0
    for p in pts:
        before = acc.front
        acc.add(p)
        if acc.front is not before:  # admitted: add took p's exclusive volume against before
            ops += counted(metrics._exclusive, acc.front[-1], before, acc.reference)[1] + 1
    return acc.value, ops


def error_bound(ops, pts, ref):
    """gamma_ops * vol(B), B the bounding box [min pts, ref]: see the test below."""
    u = Fraction(1, 2**53)
    volume = math.prod(Fraction(r) - Fraction(m) for r, m in zip(ref.tolist(), np.min(pts, axis=0).tolist()))
    return ops * u / (1 - ops * u) * volume


def awkward_set(rng, n, d):
    """n uniform points in [0, 1]^d with coordinates shared with the first
    point, ties in the last objective, two duplicates and two dominated copies."""
    pts = rng.uniform(0, 1, size=(n, d))
    pts = np.where(rng.random((n, d)) < 0.3, pts[0], pts)
    pts[1::3, -1] = pts[0, -1]
    pts = np.vstack([pts, pts[:2], pts[:2] + 0.25])
    return pts[rng.permutation(len(pts))]


def test_hv_float_kernels_within_derived_bound_of_exact_value():
    """Both float kernels stay within gamma_N * vol(B) of the exact hypervolume.

    The bound is derived, not tuned to pass. Each rounded operation (a side
    ref_j - p_j, a product or a sum) returns its exact result times 1 + delta
    with |delta| <= u = 2^-53. Comparisons and max() see only input
    coordinates, which are exact, so a float run takes the branches of the
    exact one; the incremental forms also clip each exclusive volume at 0,
    which only moves it toward its nonnegative exact value. Every value
    either kernel computes is, in exact arithmetic, a length, area or volume
    inside the bounding box B = [min_i p_i, ref] or a face of it, and it
    enters the result multiplied by at most the sides of B it lacks: by 1 in
    the in-dimension recursion's nested sums and differences, by the
    sliced-off sides in the plain-float kernel, and by the remaining height
    inside the 3-D sweep. A delta on one operation thus moves the result by
    at most u * vol(B) to first order, and N operations by at most
    N * u * vol(B); the products of deltas are covered by
    gamma_N = N u / (1 - N u) >= (1 + u)^N - 1 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.1). N is counted for
    each run: the reference kernel tallies its operations, and the
    plain-float kernel runs on a float subclass that counts them.
    """
    rng = np.random.default_rng(12)
    for d in (4, 5, 6):
        for trial in range(12):
            pts = awkward_set(rng, 2 + trial, d)
            ref = rng.uniform(1.3, 1.8, size=d)
            exact = exact_hv(pts, ref)
            tally, incremental_tally = collections.Counter(), collections.Counter()
            runs = (
                counted_hypervolume(pts, ref),
                counted_incremental(pts, ref),
                (np_hv(np_reduce(pts), ref, tally), tally["ops"]),
                (np_incremental_values(pts, ref, incremental_tally)[-1], incremental_tally["ops"]),
            )
            for value, ops in runs:
                assert abs(Fraction(value) - exact) <= error_bound(ops, pts, ref)


def test_hv_bit_exact_against_numpy_kernel():
    # Coordinates are multiples of 1/4 and every side is at most 4.5, so in
    # six dimensions or fewer every product, sum and difference is a multiple
    # of 2^-12 below 2^14: no operation rounds, and both kernels and their
    # incremental forms give the exact value, bit for bit.
    rng = np.random.default_rng(11)
    for d in (4, 5, 6):
        for trial in range(12):
            n = 2 + trial % 8
            top = 3 if trial % 2 else 4
            pts, ref = rng.integers(0, top, size=(n, d)).astype(float), np.full(d, top + 0.5)
            # exact duplicates and a dominated copy of each of the first points
            pts = np.vstack([pts, pts[:3], pts[:3] + 0.25])
            pts = pts[rng.permutation(len(pts))]
            assert hypervolume(pts, ref) == np_hv(np_reduce(pts), ref) == exact_hv(pts, ref)
            acc = IncrementalHypervolume(ref)
            assert [acc.add(p) for p in pts] == np_incremental_values(pts, ref)


# ----- incremental hypervolume -----

def test_incremental_matches_direct():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        pts = rng.uniform(0, 1, size=(40, d))
        ref = np.full(d, 1.1)
        acc = IncrementalHypervolume(ref)
        for i in range(len(pts)):
            value = acc.add(pts[i])
            assert value == pytest.approx(hypervolume(pts[: i + 1], ref), rel=1e-10)


def test_incremental_never_decreases():
    rng = np.random.default_rng(8)
    acc = IncrementalHypervolume(np.ones(3))
    prev = 0.0
    for _ in range(200):
        value = acc.add(rng.uniform(0, 1.3, size=3))  # some fall outside
        assert value >= prev
        prev = value


def test_incremental_ignores_outside_and_dominated():
    acc = IncrementalHypervolume(np.array([1.0, 1.0]))
    acc.add([0.2, 0.2])
    base = acc.value
    assert acc.add([1.5, 0.1]) == base          # outside the reference box
    assert acc.add([0.5, 0.5]) == base          # dominated
    assert acc.add([0.2, 0.2]) == base          # duplicate
    assert len(acc.front) == 1


def test_incremental_front_tracks_nondominated_set():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 1, size=(50, 2))
    acc = IncrementalHypervolume(np.ones(2))
    add_all(acc, pts)
    expected = {tuple(p) for p in pts[nondominated(pts)]}
    assert {tuple(p) for p in acc.front} == expected


# ----- reference point -----

def test_reference_point_nadir_plus_margin():
    pts = np.array([[0.0, 10.0], [4.0, -10.0]])
    ref = reference_point(pts)
    assert ref == pytest.approx([4.0 + 0.1 * 4.0, 10.0 + 0.1 * 20.0])


def test_reference_point_zero_span_gets_absolute_margin():
    pts = np.array([[2.0, 5.0], [3.0, 5.0]])
    ref = reference_point(pts)
    assert ref == pytest.approx([3.1, 5.1])


def test_reference_point_strictly_dominated_by_inputs():
    rng = np.random.default_rng(10)
    pts = rng.normal(0, 100, size=(30, 4))
    ref = reference_point(pts)
    assert np.all(pts < ref)


# ----- projection -----

def test_reduce_to_2d_example():
    pts = np.array([[-30.0, -5.0, -10.0, -20.0], [0.0, 0.0, 0.0, 0.0]])
    out = reduce_to_2d(pts)
    assert out == pytest.approx(np.array([[-30.0, -15.0], [0.0, 0.0]]))


def test_reduce_to_2d_single_control_point_passthrough():
    pts = np.array([[-30.0, -5.0, -12.0]])
    assert reduce_to_2d(pts) == pytest.approx(np.array([[-30.0, -12.0]]))


# ----- snapshots over real runs -----

def test_run_snapshots_cumulative_and_non_decreasing(unit_scenario):
    history = run_spea2(EAConfig(population_size=10, generations=8, seed=2), unit_scenario)
    reference = reference_point(all_front_points([history]))
    (snaps,) = run_snapshots([history], reference)
    assert [s.generation for s in snaps] == list(range(8))
    assert [s.model_runs for s in snaps] == [10 * (g + 1) for g in range(8)]
    values = [s.hypervolume for s in snaps]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # incremental bookkeeping equals a from-scratch evaluation of each front
    for snap, record in zip(snaps, history.records):
        direct = hypervolume(np.array([ind.point for ind in record.front]), reference)
        assert snap.hypervolume == pytest.approx(direct, rel=1e-9)
        assert snap.front_size == len(record.front)


def incremental_replay(history, reference):
    """Per-record hypervolume from IncrementalHypervolume.add of each point new to a front, in order."""
    acc = IncrementalHypervolume(reference)
    seen = set()
    values = []
    for record in history.records:
        for ind in record.front:
            if ind.point.tobytes() not in seen:
                seen.add(ind.point.tobytes())
                acc.add(ind.point)
        values.append(acc.value)
    return values


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_snapshots_equal_a_plain_incremental_replay(harbor_scenario, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    history = run_spea2(EAConfig(population_size=12, generations=6, seed=4), harbor_scenario)
    reference = reference_point(all_front_points([history]))
    expected = incremental_replay(history, reference)
    (snaps,) = run_snapshots([history], reference)
    assert [s.hypervolume for s in snaps] == expected
    assert len(reference) == 5 and expected[-1] > 0.0


def update_front_history(batches):
    """A record per batch of (point, feasible) pairs, its front and arrivals from _update_front."""
    front, records = [], []
    for g, batch in enumerate(batches):
        newcomers = [
            Individual(point=np.array(p), objectives=SimpleNamespace(feasible=feasible))
            for p, feasible in batch
        ]
        kept, arrivals = _update_front(front, newcomers)
        front = kept + arrivals
        records.append(GenerationRecord(g, g + 1, newcomers, [], front, arrivals, 0.0))
    return SimpleNamespace(records=records)


# coordinates with exact ties, both signed zeros and points past a 0.6 reference
coordinate = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_run_snapshots_of_update_front_histories_are_an_incremental_replay_bit_for_bit(data):
    d = data.draw(st.sampled_from([2, 3, 5]))
    batches = st.lists(
        st.lists(st.tuples(st.tuples(*[coordinate] * d), st.booleans()), max_size=6),
        min_size=1,
        max_size=6,
    )
    histories = [update_front_history(data.draw(batches)) for _ in range(data.draw(st.integers(1, 3)))]
    reference = np.array(data.draw(st.tuples(*[st.sampled_from([0.6, 1.1])] * d)))
    expected = [[v.hex() for v in incremental_replay(history, reference)] for history in histories]
    for cpus in (1, 2, 3):
        with mock.patch.object(parallel, "usable_cpus", lambda: cpus):
            together = run_snapshots(histories, reference)
            assert [[s.hypervolume.hex() for s in snaps] for snaps in together] == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_clip_reduce_keeps_the_rows_order_and_bits_of_reduce_on_clipped_tuples(data):
    d = data.draw(st.sampled_from([2, 3, 5]))
    row = st.tuples(*[coordinate] * d)
    point = data.draw(row)
    others = data.draw(st.lists(row, min_size=1, max_size=12))
    others += data.draw(st.lists(st.sampled_from(others), max_size=4))  # exact duplicates
    expected = metrics._reduce([tuple(map(max, q, point)) for q in others])
    got = metrics._clip_reduce(np.array(point), np.array(others))
    assert all(type(x) is float for p in got for x in p)
    assert [[x.hex() for x in p] for p in got] == [[x.hex() for x in p] for p in expected]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_snapshots_of_real_runs_equal_each_run_alone_bit_for_bit(harbor_scenario, monkeypatch, cpus):
    histories = [
        run_single(algorithm, EAConfig(population_size=12, generations=6, greedy=True, seed=seed), harbor_scenario)
        for algorithm in ("spea2", "de")
        for seed in (4, 5)
    ]
    reference = reference_point(all_front_points(histories))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    alone = [run_snapshots([h], reference)[0] for h in histories]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    together = run_snapshots(histories, reference)
    assert [[s.hypervolume.hex() for s in snaps] for snaps in together] == [
        [s.hypervolume.hex() for s in snaps] for snaps in alone
    ]
    assert together == alone and len(together) == 4


@pytest.mark.filterwarnings("ignore::bwopt.objectives.EvaluationWarning")  # tiny_discrete's +100 % cost
def test_the_arrivals_hold_each_front_point_once_and_give_the_reference_over_every_front(
    harbor_scenario, tiny_scenario
):
    for scenario in (harbor_scenario, tiny_scenario):
        histories = [
            run_single(algorithm, EAConfig(population_size=8, archive_size=8, generations=6,
                                           encoding=encoding, greedy=greedy, seed=3), scenario)
            for algorithm in ("spea2", "de")
            for encoding in Encoding
            for greedy in (False, True)
        ]
        for history in histories:
            points = {ind.point.tobytes() for record in history.records for ind in record.front}
            arrivals = [ind.point.tobytes() for record in history.records for ind in record.arrivals]
            assert len(arrivals) == len(set(arrivals)) and set(arrivals) == points
            for record in history.records:
                tail = record.front[len(record.front) - len(record.arrivals):]
                assert [id(ind) for ind in tail] == [id(ind) for ind in record.arrivals]
        every = np.array([ind.point for h in histories for record in h.records for ind in record.front])
        assert len(every) > len(all_front_points(histories))
        assert reference_point(all_front_points(histories)).tobytes() == reference_point(every).tobytes()


def test_all_front_points_rejects_empty():
    class Empty:
        records = []

    with pytest.raises(ValueError, match="no feasible front points"):
        all_front_points([Empty()])


def test_quartile_table_identical_runs_have_zero_iqr():
    snaps = [
        FrontSnapshot(generation=g, model_runs=10 * (g + 1),
                      front_size=1, hypervolume=float(g), best_scalar=0.0)
        for g in range(4)
    ]
    rows = quartile_table([snaps, snaps, snaps])
    assert len(rows) == 4
    for g, row in enumerate(rows):
        assert row["generation"] == g
        assert row["model_runs"] == 10 * (g + 1)
        assert row["hv_q1"] == row["hv_median"] == row["hv_q3"] == float(g)
        assert row["hv_min"] == row["hv_max"] == float(g)


def test_quartile_table_empty():
    assert quartile_table([]) == []


# ----- property-based -----

@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 1), st.floats(0, 1)),
        min_size=1,
        max_size=12,
    )
)
def test_hv_2d_between_best_box_and_bounding_box(pairs):
    pts = np.array(pairs, dtype=float)
    ref = np.array([1.5, 1.5])
    value = hypervolume(pts, ref)
    best_single = max(float(np.prod(ref - p)) for p in pts)
    lower_corner = pts.min(axis=0)
    assert value >= best_single - 1e-12
    assert value <= float(np.prod(ref - lower_corner)) + 1e-12
