"""Objective evaluation for candidate breakwater layouts.

Three objective families are computed per candidate: construction cost
(total structure length times the grid step), wave heights at the protected
control points, and navigational clearance (smallest distance between new
structures and the fairway). For optimization they are expressed relative to
the existing configuration, in percent, and stacked into a minimization
vector laid out as [cost, -clearance, height_1, ..., height_m].
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Genotype,
    Layout,
    count_crossings,
    decode,
    min_distance_to_fairway,
    polyline_segments,
    rasterize,
)
from .wave import ObstacleSet, sample

DENOMINATOR_EPS = 1e-6
DEFAULT_VIOLATION_PENALTY = 1e6

# minimization-vector layout
COST_INDEX = 0
NAV_INDEX = 1
WAVE_START_INDEX = 2


class EvaluationWarning(UserWarning):
    pass


@dataclass
class ObjectiveVector:
    """Raw objective values plus constraint counters for one candidate."""

    cost: float                # meters of new structure
    nav_distance: float        # meters to the fairway, larger is safer
    wave_heights: np.ndarray   # meters at the control points
    self_intersections: int
    fairway_intersections: int
    land_coverage: int

    @property
    def violations(self) -> int:
        return self.self_intersections + self.fairway_intersections + self.land_coverage

    @property
    def feasible(self) -> bool:
        return self.violations == 0


@dataclass
class RelativeObjectiveVector:
    """Objectives as percent change against the existing configuration."""

    cost: float
    nav_distance: float
    wave_heights: np.ndarray

    def min_vector(self) -> np.ndarray:
        """Minimization form (clearance negated), the optimizer's space."""
        return np.concatenate(([self.cost, -self.nav_distance], self.wave_heights))


@dataclass
class Baseline:
    """Reference values of the existing configuration, used as denominators."""

    wave_heights: np.ndarray
    nav_distance: float
    cost_ref: float            # total existing structure length times grid step
    field: np.ndarray          # existing-structures-only wave field, kept for export


def cost(layout: Layout, cell_size: float) -> float:
    """Construction cost proxy: total new structure length in meters."""
    return layout.total_length() * cell_size


def simulate_layout(cells, scenario) -> np.ndarray:
    """Wave field with the existing structures plus the given rasterized cells."""
    added = ObstacleSet.from_pairs(cells)
    return scenario.wave_model.simulate(
        scenario.grid, scenario.existing_obstacles.merged_with(added), scenario.boundary
    )


def _layout_constraints(layout: Layout, cells, scenario) -> tuple[int, int, int]:
    """(Self and existing-structure crossings, fairway crossings, cells of `cells` on land)."""
    segments = layout.segments()
    return (
        count_crossings(segments)
        + count_crossings(segments, polyline_segments(scenario.existing_polylines)),
        count_crossings(segments, polyline_segments([scenario.fairway])),
        sum(1 for (col, row), _ in cells if scenario.grid.land_mask[row, col]),
    )


def constraint_counts(genotype: Genotype, scenario) -> tuple[int, int, int]:
    """Cheap feasibility probe without a wave simulation.

    Returns (self intersections, fairway intersections, land cells covered);
    all zero means the candidate is feasible.
    """
    layout = decode(genotype, scenario.attachments)
    cells = rasterize(layout, scenario.grid, scenario.transmission)
    return _layout_constraints(layout, cells, scenario)


def evaluate(genotype: Genotype, scenario) -> ObjectiveVector:
    """Evaluate one candidate against a scenario.

    The layout is rasterized once; the same cells give the land-coverage
    count and, for a feasible candidate, the obstacles of the wave model.
    Constraint-violating candidates skip the wave simulation and inherit the
    baseline wave heights; cost and clearance are still their own, so the
    violation shows up as cost without protection benefit.
    """
    layout = decode(genotype, scenario.attachments)
    cells = rasterize(layout, scenario.grid, scenario.transmission)
    self_x, fairway_x, land = _layout_constraints(layout, cells, scenario)
    nav = min_distance_to_fairway(
        layout, scenario.fairway, scenario.grid.cell_size, scenario.nav_sampling_step
    )
    if self_x + fairway_x + land == 0:
        field = simulate_layout(cells, scenario)
        heights = sample(field, scenario.control_points)
    else:
        heights = scenario.baseline.wave_heights.copy()
    return ObjectiveVector(
        cost=cost(layout, scenario.grid.cell_size),
        nav_distance=nav,
        wave_heights=heights,
        self_intersections=self_x,
        fairway_intersections=fairway_x,
        land_coverage=land,
    )


def relativize(raw: ObjectiveVector, baseline: Baseline) -> RelativeObjectiveVector:
    """Percent change of each objective against the baseline values."""
    return RelativeObjectiveVector(
        cost=(raw.cost - baseline.cost_ref) / baseline.cost_ref * 100.0,
        nav_distance=(raw.nav_distance - baseline.nav_distance) / baseline.nav_distance * 100.0,
        wave_heights=(raw.wave_heights - baseline.wave_heights) / baseline.wave_heights * 100.0,
    )


def single_objective(
    rel: RelativeObjectiveVector,
    violations: int = 0,
    penalty: float = DEFAULT_VIOLATION_PENALTY,
) -> float:
    """Scalar convolution of the relative objectives, lower is better.

    (100 + mean wave change + clearance change) / (100 - cost change), plus
    a fixed penalty per constraint violation. The unchanged configuration
    scores exactly 1. A cost change of +100 percent would zero the
    denominator; it is clamped to a signed epsilon and a warning recorded.
    """
    wave_term = float(np.mean(rel.wave_heights))
    denominator = 100.0 - rel.cost
    if abs(denominator) < DENOMINATOR_EPS:
        warnings.warn(
            f"cost change {rel.cost:+.6f}% makes the convolution denominator "
            "vanish; clamping to signed epsilon",
            EvaluationWarning,
            stacklevel=2,
        )
        denominator = math.copysign(DENOMINATOR_EPS, denominator)
    return float((100.0 + wave_term + rel.nav_distance) / denominator + penalty * violations)
