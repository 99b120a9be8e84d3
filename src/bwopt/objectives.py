"""Objective evaluation for candidate breakwater layouts.

Three objective families are computed per candidate: construction cost
(total structure length times the grid step), wave heights at the protected
control points, and navigational clearance (smallest distance between new
structures and the fairway). For optimization they are expressed relative to
the existing configuration, in percent, by relativize, which returns them
as the one minimization vector laid out as
[cost, -clearance, height_1, ..., height_m]; the scalar convolution reads
the same vector. The baseline's heights come from wave_heights with no new
cells: the wave model's heights call that a batch makes, with one grid.

evaluate is the one evaluation, and it takes a batch (a generation, or a
single candidate as a batch of one). Per candidate, in Python: decode, the
segment groups, rasterization, the three constraint counts, the cost and
the clearance sample runs, and, for a feasible candidate, its coefficient
grid written into the batch's stack. Per batch, in NumPy: every
candidate's clearance (geometry.fairway_clearances) and the heights of the
feasible ones (one wave-model call over the stack). A model without a
heights method simulates each feasible candidate's full field instead.
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
    fairway_clearances,
    min_distance_to_fairway,  # noqa: F401 - the clearance of one layout, traced by perfbench
    rasterize,
    sample_runs,
    segment_groups,
    total_length,
)
from .wave import ObstacleSet, sample, with_obstacles

DENOMINATOR_EPS = 1e-6
DEFAULT_VIOLATION_PENALTY = 1e6

# minimization-vector layout
COST_INDEX = 0
NAV_INDEX = 1
WAVE_START_INDEX = 2


class EvaluationWarning(UserWarning):
    pass


class CandidateError(Exception):
    """Evaluating candidate index of a batch failed; the failure is the cause."""

    def __init__(self, index: int):
        super().__init__(f"candidate {index} of the batch failed")
        self.index = index


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
class Baseline:
    """Reference values of the existing configuration, used as denominators."""

    wave_heights: np.ndarray
    nav_distance: float
    cost_ref: float            # total existing structure length times grid step


def cost(segments, cell_size: float) -> float:
    """Construction cost proxy: total length in meters of a layout's segments."""
    return total_length(segments) * cell_size


def simulate_layout(cells, scenario) -> np.ndarray:
    """Wave field with the existing structures plus the given rasterized cells."""
    obstacles = ObstacleSet.from_pairs([*scenario.existing_cells, *cells])
    return scenario.wave_model.simulate(scenario.grid, obstacles, scenario.boundary)


def wave_heights(cells, scenario) -> np.ndarray:
    """Wave heights at the control points with the existing structures plus the given rasterized cells.

    A wave model with a heights method (the built-in one) gets the
    scenario's coefficient grid with the cells written in; one with only
    simulate returns a full field, which is sampled.
    """
    model = scenario.wave_model
    if not hasattr(model, "heights"):
        return sample(simulate_layout(cells, scenario), scenario.control_points)
    coefficients = with_obstacles(scenario.coefficients, cells, scenario.grid.n_cols)
    return model.heights(scenario.grid, coefficients, scenario.boundary, scenario.control_points)


def _layout_constraints(segments, cells, scenario) -> tuple[int, int, int]:
    """(Self and existing-structure crossings, fairway crossings, cells of `cells` on land)."""
    return (
        count_crossings(segments) + count_crossings(segments, scenario.existing_segments),
        count_crossings(segments, scenario.fairway_segments),
        sum(1 for (col, row), _ in cells if scenario.grid.land_mask[row, col]),
    )


def _layout_geometry(genotype: Genotype, scenario) -> tuple[Layout, list, list]:
    """(Layout, its segment groups, its rasterized cells): each breakwater's segments are built once.

    The groups come straight from decode's plain-float vertex lists.
    """
    layout = decode(genotype, scenario.attachments)
    groups = segment_groups(layout.polylines)
    return layout, groups, rasterize(groups, layout.materials, scenario.grid, scenario.transmission)


def constraint_counts(genotype: Genotype, scenario) -> tuple[int, int, int]:
    """Cheap feasibility probe without a wave simulation.

    Returns (self intersections, fairway intersections, land cells covered);
    all zero means the candidate is feasible.
    """
    _, groups, cells = _layout_geometry(genotype, scenario)
    return _layout_constraints([s for group in groups for s in group], cells, scenario)


def evaluate(genotypes: list[Genotype], scenario) -> list[ObjectiveVector]:
    """Evaluate a batch of candidates against a scenario, in order.

    Each layout's segments are built once, for the crossing counts, the
    cost, the clearance samples and the rasterization; the cells give the
    land-coverage count and, for a feasible candidate, the obstacles of the
    wave model. Constraint-violating candidates skip the wave model and
    inherit the baseline wave heights; cost and clearance are still their
    own, so the violation shows up as cost without protection benefit.

    A feasible candidate's coefficient grid is written into the batch's
    stack as soon as it is made, so no candidate's cells outlive its turn.
    A failure in a candidate's own work raises CandidateError naming its
    index, with the failure as the cause.
    """
    if not genotypes:
        return []
    grid, model = scenario.grid, scenario.wave_model
    stacked = hasattr(model, "heights")
    if stacked:
        reads = model.cells_read(grid, scenario.boundary, scenario.control_points)
        stack = np.empty((len(reads), len(genotypes)))
    feasible = 0
    parts, runs, sizes = [], [], []
    for i, genotype in enumerate(genotypes):
        try:
            layout, groups, cells = _layout_geometry(genotype, scenario)
            segments = [s for group in groups for s in group]
            counts = _layout_constraints(segments, cells, scenario)
            own = sample_runs(layout.polylines, groups, scenario.nav_sampling_step)
            if sum(counts):
                heights = scenario.baseline.wave_heights.copy()
            elif stacked:  # the batch's heights call fills it in
                stack[:, feasible] = with_obstacles(scenario.coefficients, cells, grid.n_cols)[reads]
                feasible += 1
                heights = None
            else:
                heights = wave_heights(cells, scenario)
        except Exception as exc:
            raise CandidateError(i) from exc
        parts.append((cost(segments, grid.cell_size), counts, heights))
        runs += own
        sizes.append(len(own))
    if feasible:
        computed = iter(model.heights(grid, stack[:, :feasible], scenario.boundary, scenario.control_points))
    stack = None  # freed before the clearance planes are built
    clearances = fairway_clearances(runs, sizes, scenario.fairway, scenario.nav_sampling_step)
    out = []
    for (length_cost, counts, heights), clearance in zip(parts, clearances.tolist()):
        out.append(ObjectiveVector(
            cost=length_cost,
            nav_distance=clearance * grid.cell_size,
            wave_heights=next(computed).copy() if heights is None else heights,
            self_intersections=counts[0],
            fairway_intersections=counts[1],
            land_coverage=counts[2],
        ))
    return out


def relativize(raw: ObjectiveVector, baseline: Baseline) -> np.ndarray:
    """Percent change of each objective against the baseline, in minimization form.

    Laid out as [cost, -clearance, height_1, ..., height_m]: the clearance
    change is negated, so lower is better in every entry.
    """
    nav = (raw.nav_distance - baseline.nav_distance) / baseline.nav_distance * 100.0
    return np.concatenate((
        [(raw.cost - baseline.cost_ref) / baseline.cost_ref * 100.0, -nav],
        (raw.wave_heights - baseline.wave_heights) / baseline.wave_heights * 100.0,
    ))


def single_objective(
    point: np.ndarray,
    violations: int = 0,
    penalty: float = DEFAULT_VIOLATION_PENALTY,
) -> float:
    """Scalar convolution of a relative minimization vector, lower is better.

    (100 + mean wave change + clearance change) / (100 - cost change), plus
    a fixed penalty per constraint violation; the clearance change is
    -point[NAV_INDEX]. The unchanged configuration scores exactly 1. A cost
    change of +100 percent would zero the denominator; it is clamped to a
    signed epsilon and a warning recorded.
    """
    cost_change = point[COST_INDEX]
    wave_term = float(np.mean(point[WAVE_START_INDEX:]))
    denominator = 100.0 - cost_change
    if abs(denominator) < DENOMINATOR_EPS:
        warnings.warn(
            f"cost change {cost_change:+.6f}% makes the convolution denominator "
            "vanish; clamping to signed epsilon",
            EvaluationWarning,
            stacklevel=2,
        )
        denominator = math.copysign(DENOMINATOR_EPS, denominator)
    return float((100.0 + wave_term - point[NAV_INDEX]) / denominator + penalty * violations)
