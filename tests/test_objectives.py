import numpy as np
import pytest

from bwopt.geometry import Encoding, Genotype, Layout, Material
from bwopt.objectives import (
    Baseline,
    EvaluationWarning,
    ObjectiveVector,
    RelativeObjectiveVector,
    constraint_counts,
    cost,
    relativize,
    single_objective,
)


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
    return RelativeObjectiveVector(
        cost=cost, nav_distance=nav, wave_heights=np.array(waves, dtype=float)
    )


# ----- cost -----

def test_cost_3_4_5_segment_is_125_m():
    layout = Layout([np.array([[0.0, 0.0], [3.0, 4.0]])], [Material.SOLID_WALL])
    assert cost(layout, 25.0) == 125.0


def test_cost_scales_with_cell_size():
    layout = Layout([np.array([[0.0, 0.0], [2.0, 0.0]])], [Material.SOLID_WALL])
    assert cost(layout, 10.0) == 20.0
    assert cost(layout, 25.0) == 50.0


# ----- vectors -----

def test_min_vector_negates_clearance():
    rel = rel_vector(cost=-10.0, nav=4.0, waves=(-50.0, -25.0))
    assert np.array_equal(rel.min_vector(), [-10.0, -4.0, -50.0, -25.0])


def test_violations_counter_and_feasibility():
    raw = raw_vector(self_intersections=1, fairway_intersections=2, land_coverage=3)
    assert raw.violations == 6
    assert not raw.feasible
    assert raw_vector().feasible


# ----- relativization -----

def test_relativize_baseline_is_zero():
    baseline = Baseline(
        wave_heights=np.array([2.0, 0.4]),
        nav_distance=120.0,
        cost_ref=40.0,
        field=np.zeros((2, 2)),
    )
    raw = raw_vector(wave_heights=np.array([2.0, 0.4]))
    rel = relativize(raw, baseline)
    assert abs(rel.cost) <= 1e-12
    assert abs(rel.nav_distance) <= 1e-12
    assert np.all(np.abs(rel.wave_heights) <= 1e-12)


def test_relativize_height_drop_to_85_percent_is_minus_15():
    baseline = Baseline(
        wave_heights=np.array([2.0]), nav_distance=100.0, cost_ref=50.0, field=np.zeros((2, 2))
    )
    raw = raw_vector(cost=50.0, nav_distance=100.0, wave_heights=np.array([1.7]))
    rel = relativize(raw, baseline)
    assert rel.wave_heights[0] == pytest.approx(-15.0, abs=1e-12)


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
    rel = unit_scenario.relative(unit_scenario.evaluate(ZERO))
    assert rel.cost == pytest.approx(-100.0)
    assert np.all(rel.wave_heights == 0.0)


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
    assert unit_scenario.scalar(raw) > 1e5


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


def test_min_point_orders_objectives(unit_scenario):
    raw = unit_scenario.evaluate(ZERO)
    point = unit_scenario.min_point(raw)
    rel = unit_scenario.relative(raw)
    assert point[0] == rel.cost
    assert point[1] == -rel.nav_distance
    assert np.array_equal(point[2:], rel.wave_heights)


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
    assert unit_scenario.scalar(raw) == pytest.approx(1.0, abs=1e-12)
