import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import all_pairs_clearance, segments_cross
from bwopt.evolution import EAConfig, sample_genotype
from bwopt.experiment import resolve_scenario
from bwopt.geometry import (
    Encoding,
    Genotype,
    Layout,
    Material,
    decode,
    rasterize,
    segment_groups,
    supercover_line,
    total_length,
)
from bwopt.objectives import (
    COST_INDEX,
    NAV_INDEX,
    WAVE_START_INDEX,
    Baseline,
    CandidateError,
    EvaluationWarning,
    ObjectiveVector,
    constraint_counts,
    cost,
    evaluate,
    relativize,
    single_objective,
)
from bwopt.wave import ObstacleSet, sample, simulate


def raw_vector(**kw):
    base = dict(
        cost=40.0,
        nav_distance=120.0,
        wave_heights=np.array([2.0]),
        self_intersections=0,
        fairway_intersections=0,
        land_coverage=0,
    )
    base.update(kw)
    return ObjectiveVector(**base)


def rel_vector(cost=0.0, nav=0.0, waves=(0.0,)):
    """Relative minimization vector of the given percent changes (clearance negated)."""
    return np.array([cost, -nav, *waves], dtype=float)


# ----- cost -----

def test_cost_3_4_5_segment_is_125_m():
    layout = Layout([np.array([[0.0, 0.0], [3.0, 4.0]])], [Material.SOLID_WALL])
    assert cost(layout.segments(), 25.0) == 125.0


def test_cost_scales_with_cell_size():
    layout = Layout([np.array([[0.0, 0.0], [2.0, 0.0]])], [Material.SOLID_WALL])
    assert cost(layout.segments(), 10.0) == 20.0
    assert cost(layout.segments(), 25.0) == 50.0


# ----- vectors -----

def test_relativize_negates_clearance():
    baseline = Baseline(wave_heights=np.array([2.0, 0.4]), nav_distance=100.0, cost_ref=50.0)
    raw = raw_vector(cost=45.0, nav_distance=104.0, wave_heights=np.array([1.0, 0.3]))
    assert relativize(raw, baseline) == pytest.approx([-10.0, -4.0, -50.0, -25.0], rel=1e-12)


def test_violations_counter_and_feasibility():
    raw = raw_vector(self_intersections=1, fairway_intersections=2, land_coverage=3)
    assert raw.violations == 6
    assert not raw.feasible
    assert raw_vector().feasible


# ----- relativization -----

def test_relativize_baseline_is_zero():
    baseline = Baseline(wave_heights=np.array([2.0, 0.4]), nav_distance=120.0, cost_ref=40.0)
    raw = raw_vector(wave_heights=np.array([2.0, 0.4]))
    assert np.all(np.abs(relativize(raw, baseline)) <= 1e-12)


def test_relativize_height_drop_to_85_percent_is_minus_15():
    baseline = Baseline(wave_heights=np.array([2.0]), nav_distance=100.0, cost_ref=50.0)
    raw = raw_vector(cost=50.0, nav_distance=100.0, wave_heights=np.array([1.7]))
    point = relativize(raw, baseline)
    assert point[WAVE_START_INDEX] == pytest.approx(-15.0, abs=1e-12)


# ----- scalar convolution -----

def test_single_objective_base_configuration_scores_one():
    assert single_objective(rel_vector()) == pytest.approx(1.0, abs=1e-12)


def test_single_objective_improvement_lowers_score():
    # 15 percent height reduction at unchanged cost and clearance
    assert single_objective(rel_vector(waves=(-15.0,))) == pytest.approx(0.85)
    # extra cost raises the score back up
    assert single_objective(rel_vector(cost=50.0, waves=(-15.0,))) == pytest.approx(1.7)


def test_single_objective_averages_wave_heights():
    got = single_objective(rel_vector(waves=(-30.0, -10.0)))
    assert got == pytest.approx((100.0 - 20.0) / 100.0)
    # the clearance change adds to the mean wave change
    got = single_objective(rel_vector(nav=8.0, waves=(-40.0, -20.0)))
    assert got == pytest.approx((100.0 + 8.0 - 30.0) / 100.0)


def test_single_objective_violation_penalty():
    clean = single_objective(rel_vector(), violations=0)
    dirty = single_objective(rel_vector(), violations=2)
    assert dirty == pytest.approx(clean + 2e6)


def test_single_objective_denominator_clamp_warns():
    with pytest.warns(EvaluationWarning):
        got = single_objective(rel_vector(cost=100.0))
    assert got == pytest.approx(100.0 / 1e-6)


def test_single_objective_beyond_full_cost_goes_negative():
    # cost above +100 percent flips the denominator sign; kept as written
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = single_objective(rel_vector(cost=150.0))
    assert got == pytest.approx(100.0 / -50.0)


# ----- scenario-level evaluation -----

ZERO = Genotype(Encoding.ANGULAR, np.zeros(4))


def test_zero_genotype_reproduces_baseline_heights(unit_scenario):
    raw = unit_scenario.evaluate(ZERO)
    assert raw.cost == 0.0
    assert np.array_equal(raw.wave_heights, unit_scenario.baseline.wave_heights)
    assert raw.feasible
    # degenerate layout still measures clearance from the attachment point
    assert raw.nav_distance == pytest.approx(120.0)


def test_zero_genotype_relative_vector(unit_scenario):
    point = unit_scenario.min_point(unit_scenario.evaluate(ZERO))
    assert point[COST_INDEX] == pytest.approx(-100.0)
    assert np.all(point[WAVE_START_INDEX:] == 0.0)


def test_blocking_wall_lowers_control_height(unit_scenario):
    # one 6-cell segment from the groin tip toward the control point's column
    g = Genotype(Encoding.ANGULAR, np.array([6.0, 0.0, 0.0, 0.0]))
    raw = unit_scenario.evaluate(g)
    assert raw.feasible
    base = unit_scenario.baseline.wave_heights[0]
    assert raw.wave_heights[0] < 0.75 * base
    assert raw.cost == pytest.approx(60.0)


def test_fairway_crossing_is_penalized(unit_scenario):
    # 13 cells due east crosses the fairway line at x=16
    g = Genotype(Encoding.ANGULAR, np.array([13.0, 0.0, 0.0, 0.0]))
    raw = unit_scenario.evaluate(g)
    assert raw.fairway_intersections == 1
    assert not raw.feasible
    # violating candidates skip the simulation and inherit baseline heights
    assert np.array_equal(raw.wave_heights, unit_scenario.baseline.wave_heights)
    assert unit_scenario.scalar(unit_scenario.min_point(raw), raw.violations) > 1e5


def test_crossing_existing_structure_counts(unit_scenario):
    # second segment sweeps back across the existing groin at x=4
    g = Genotype(Encoding.ANGULAR, np.array([3.0, 45.0, 5.0, 135.0]))
    raw = unit_scenario.evaluate(g)
    assert raw.self_intersections == 1
    assert not raw.feasible


def test_constraint_counts_match_evaluate(unit_scenario):
    for genes in ([13.0, 0.0, 0.0, 0.0], [3.0, 45.0, 5.0, 135.0], [6.0, 0.0, 0.0, 0.0]):
        g = Genotype(Encoding.ANGULAR, np.array(genes))
        probe = constraint_counts(g, unit_scenario)
        raw = unit_scenario.evaluate(g)
        assert probe == (
            raw.self_intersections,
            raw.fairway_intersections,
            raw.land_coverage,
        )


# ----- the wave model's heights path and its simulate-only fallback -----

class SimulateOnlyModel:
    """A wave model with simulate and no heights, as an external solver's adapter."""

    def __init__(self, passes):
        self.passes = passes

    def simulate(self, grid, obstacles, boundary):
        return simulate(grid, obstacles, boundary, self.passes)


def angular_genotypes(scenario, n, seed):
    rng = np.random.default_rng(seed)
    return [sample_genotype(EAConfig(encoding=Encoding.ANGULAR), scenario, rng) for _ in range(n)]


def counting_obstacle_sets(monkeypatch) -> list:
    built = []
    init = ObstacleSet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ObstacleSet, "__init__", counting_init)
    return built


def test_builtin_evaluation_builds_no_obstacle_set(harbor_scenario, monkeypatch):
    built = counting_obstacle_sets(monkeypatch)
    raws = [harbor_scenario.evaluate(g) for g in angular_genotypes(harbor_scenario, 120, 8)]
    assert sum(raw.feasible for raw in raws) >= 10
    assert built == []


@pytest.mark.parametrize("name", ["sochi_like", "tiny_discrete"])
def test_model_with_only_simulate_evaluates_like_the_builtin(name, monkeypatch):
    builtin = resolve_scenario(name)
    fallback = replace(builtin, wave_model=SimulateOnlyModel(builtin.diffusion_passes))
    built = counting_obstacle_sets(monkeypatch)
    feasible = 0
    for g in angular_genotypes(builtin, 60, 9):
        want, got = builtin.evaluate(g), fallback.evaluate(g)
        assert got.wave_heights.tobytes() == want.wave_heights.tobytes()
        assert (got.cost, got.nav_distance, got.violations) == (want.cost, want.nav_distance, want.violations)
        feasible += want.feasible
    assert feasible >= 5
    assert len(built) == feasible  # one set over the existing cells and the layout's


# ----- a batch against per-candidate references -----

def reference_fields(genotype, scenario) -> tuple:
    """One candidate's raw objectives from per-candidate references: all-pairs clearance, a dense field."""
    layout = decode(genotype, scenario.attachments)
    counts = constraint_counts(genotype, scenario)
    if sum(counts):
        heights = scenario.baseline.wave_heights
    else:
        cells = rasterize(segment_groups(layout.breakwaters), layout.materials, scenario.grid, scenario.transmission)
        obstacles = ObstacleSet.from_pairs([*scenario.existing_cells, *cells])
        field = simulate(scenario.grid, obstacles, scenario.boundary, scenario.diffusion_passes)
        heights = sample(field, scenario.control_points)
    clearance = all_pairs_clearance(layout.breakwaters, scenario.fairway, scenario.nav_sampling_step)
    return (
        cost(layout.segments(), scenario.grid.cell_size).hex(),
        (clearance * scenario.grid.cell_size).hex(),
        heights.tobytes(),
        *counts,
    )


def raw_fields(raw) -> tuple:
    return (
        raw.cost.hex(),
        raw.nav_distance.hex(),
        raw.wave_heights.tobytes(),
        raw.self_intersections,
        raw.fairway_intersections,
        raw.land_coverage,
    )


@pytest.mark.parametrize("name, model", [("sochi_like", None), ("tiny_discrete", None), ("sochi_like", "simulate")])
def test_batches_match_per_candidate_references_field_by_field(name, model):
    scenario = resolve_scenario(name)
    if model:
        scenario = replace(scenario, wave_model=SimulateOnlyModel(scenario.diffusion_passes))
    rng = np.random.default_rng(67)
    n = scenario.n_blocks
    genotypes = angular_genotypes(scenario, 22, 67)
    genotypes += [
        Genotype(Encoding.ANGULAR, np.zeros(2 * n)),  # fully degenerate: the attachment points alone
        Genotype(Encoding.ANGULAR, np.tile([0.0, 30.0], n)),
        *(Genotype(Encoding.CARTESIAN, rng.uniform(-2.0, [scenario.grid.n_cols + 2.0, scenario.grid.n_rows + 2.0] * n))
          for _ in range(6)),
    ]
    assert len(genotypes) == 30
    want = [reference_fields(g, scenario) for g in genotypes]
    feasible = [sum(w[3:]) == 0 for w in want]
    assert 0 < sum(feasible) < len(genotypes)
    assert evaluate([], scenario) == []
    assert [raw_fields(raw) for raw in evaluate(genotypes, scenario)] == want
    assert [raw_fields(raw) for raw in evaluate(genotypes[-1:], scenario)] == want[-1:]
    assert raw_fields(scenario.evaluate(genotypes[0])) == want[0]
    # each feasible candidate's heights are its own array
    heights = [raw.wave_heights for raw in scenario.evaluate_many(genotypes)]
    assert all(h.base is None and h.flags.c_contiguous for h in heights)


def test_a_failing_candidate_is_named_by_its_index_in_the_batch(harbor_scenario):
    genotypes = angular_genotypes(harbor_scenario, 4, 71)
    genes = genotypes[2].genes.copy()
    genes[0] = np.nan  # a NaN vertex cannot be rasterized
    genotypes[2] = Genotype(Encoding.ANGULAR, genes)
    with pytest.raises(CandidateError) as failed:
        harbor_scenario.evaluate_many(genotypes)
    assert failed.value.index == 2
    assert isinstance(failed.value.__cause__, ValueError)


# ----- constraint counts against the NumPy-row reference -----
# The counters below are the pre-refactor implementations, kept as the
# reference: they walk NumPy vertex rows pair by pair and run their own
# supercover traversal for land coverage, where the package now counts on
# plain-float segments and reads land coverage off the rasterized cells.

def numpy_row_segments(layout):
    for verts in layout.breakwaters:
        for p, q in zip(verts[:-1], verts[1:]):
            if p[0] != q[0] or p[1] != q[1]:
                yield p, q


def oracle_self_intersections(layout, existing):
    new_segments = list(numpy_row_segments(layout))
    count = 0
    for i in range(len(new_segments)):
        for j in range(i + 1, len(new_segments)):
            if segments_cross(*new_segments[i], *new_segments[j]):
                count += 1
    for verts in existing or []:
        for a, b in zip(verts[:-1], verts[1:]):
            for p, q in new_segments:
                if segments_cross(p, q, a, b):
                    count += 1
    return count


def oracle_fairway_intersections(layout, fairway):
    count = 0
    for a, b in zip(fairway[:-1], fairway[1:]):
        for p, q in numpy_row_segments(layout):
            if segments_cross(p, q, a, b):
                count += 1
    return count


def oracle_layout_cells(layout, grid):
    seen = {}
    for p, q in numpy_row_segments(layout):
        for col, row in supercover_line(p, q):
            if 0 <= col < grid.n_cols and 0 <= row < grid.n_rows:
                seen.setdefault((col, row), None)
    return list(seen)


def oracle_land_coverage(layout, grid):
    return sum(1 for col, row in oracle_layout_cells(layout, grid) if grid.land_mask[row, col])


def random_genotypes(scenario, rng, n):
    """Angular and cartesian genotypes with zero-length blocks, reaching
    off the grid and onto land; half the cartesian ones on integer vertices,
    where segments touch and traversals pass exactly through cell corners."""
    grid, blocks = scenario.grid, scenario.n_blocks
    out = []
    for k in range(n):
        zero = rng.random(blocks) < 0.25
        if k % 2 == 0:
            genes = np.empty(2 * blocks)
            genes[0::2] = np.where(zero, 0.0, rng.uniform(0.0, 3.0 * scenario.init.max_length, blocks))
            genes[1::2] = rng.uniform(-180.0, 180.0, blocks)
            out.append(Genotype(Encoding.ANGULAR, genes))
            continue
        low, high = (-5.0, -5.0), (grid.n_cols + 5.0, grid.n_rows + 5.0)
        points = rng.uniform(low, high, size=(blocks, 2))
        if k % 4 == 1:
            points = np.round(points)
        zero[0] = False
        for i in np.flatnonzero(zero):
            points[i] = points[i - 1]
        out.append(Genotype(Encoding.CARTESIAN, points.ravel()))
    return out


def test_constraint_counts_match_numpy_row_oracle(harbor_scenario, unit_scenario):
    rng = np.random.default_rng(6)
    totals = np.zeros(3, dtype=int)
    seen = set()
    for scenario, n in ((harbor_scenario, 600), (unit_scenario, 200)):
        grid = scenario.grid
        for g in random_genotypes(scenario, rng, n):
            layout = decode(g, scenario.attachments)
            expected = (
                oracle_self_intersections(layout, [verts for verts, _ in scenario.existing_structures]),
                oracle_fairway_intersections(layout, scenario.fairway),
                oracle_land_coverage(layout, grid),
            )
            assert constraint_counts(g, scenario) == expected
            groups = segment_groups(layout.breakwaters)
            cells = [cell for cell, _ in rasterize(groups, layout.materials, grid, scenario.transmission)]
            assert cells == oracle_layout_cells(layout, grid)
            lengths = [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in numpy_row_segments(layout)]
            assert total_length(layout.segments()).hex() == float(sum(lengths)).hex()
            totals += expected
            verts = np.concatenate(layout.breakwaters)
            if not all(grid.in_bounds(x, y) for x, y in verts):
                seen.add("off grid")
            if any(np.any(np.all(v[1:] == v[:-1], axis=1)) for v in layout.breakwaters):
                seen.add("zero length")
            seen.add(g.encoding)
    assert seen == {"off grid", "zero length", Encoding.ANGULAR, Encoding.CARTESIAN}
    assert np.all(totals > 0), totals


def test_min_point_orders_objectives(unit_scenario):
    raw = unit_scenario.evaluate(ZERO)
    point = unit_scenario.min_point(raw)
    b = unit_scenario.baseline
    assert point[COST_INDEX] == (raw.cost - b.cost_ref) / b.cost_ref * 100.0
    assert point[NAV_INDEX] == -((raw.nav_distance - b.nav_distance) / b.nav_distance * 100.0)
    waves = (raw.wave_heights - b.wave_heights) / b.wave_heights * 100.0
    assert np.array_equal(point[WAVE_START_INDEX:], waves)


def test_scalar_of_base_like_candidate(unit_scenario):
    # a candidate identical to the baseline scores exactly 1
    raw = ObjectiveVector(
        cost=unit_scenario.baseline.cost_ref,
        nav_distance=unit_scenario.baseline.nav_distance,
        wave_heights=unit_scenario.baseline.wave_heights.copy(),
        self_intersections=0,
        fairway_intersections=0,
        land_coverage=0,
    )
    assert unit_scenario.scalar(unit_scenario.min_point(raw), raw.violations) == pytest.approx(1.0, abs=1e-12)
