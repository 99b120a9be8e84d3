"""Scenario definition: bathymetry, structures, objectives context.

A scenario bundles everything needed to evaluate candidate layouts: the
grid, the existing protective structures, attachment points for new
breakwaters, control points whose wave heights matter, the fairway, the
incident sea state, and initialization ranges for the optimizer. Loading a
scenario also computes the baseline (existing configuration) values that
anchor the relative objectives.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    Attachment,
    AttachmentPoint,
    Encoding,
    Genotype,
    Layout,
    Material,
    ScenarioGrid,
    count_crossings,
    min_distance_to_fairway,
    point_polyline_distance,
    polyline_segments,
    rasterize,
    total_blocks,
)
from .objectives import (
    Baseline,
    ObjectiveVector,
    RelativeObjectiveVector,
    cost,
    evaluate,
    relativize,
    single_objective,
)
from .wave import (
    DEFAULT_DIFFUSION_PASSES,
    DEFAULT_TRANSMISSION,
    BoundaryConditions,
    ObstacleSet,
    ShadowDiffusionModel,
    coefficient_grid,
    sample,
)

ATTACHMENT_ANCHOR_TOLERANCE = 1.5  # cells


class ScenarioError(Exception):
    """Scenario validation failure carrying every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid scenario:\n" + "\n".join(f"- {v}" for v in self.violations))


@dataclass(frozen=True)
class InitRanges:
    """Sampling ranges for initial genotypes."""

    max_length: float = 40.0           # cells, angular segment lengths
    angle_low: float = -90.0           # degrees, angular relative angles
    angle_high: float = 90.0
    cartesian_bbox: tuple[float, float, float, float] | None = None  # x0, y0, x1, y1


@dataclass(frozen=True)
class GeneLevels:
    """Optional discretization of angular genes onto fixed levels."""

    lengths: tuple[float, ...]
    angles: tuple[float, ...]

    def snap(self, genotype: Genotype) -> Genotype:
        if genotype.encoding is not Encoding.ANGULAR:
            return genotype
        genes = genotype.genes.copy()
        lengths = np.asarray(self.lengths)
        angles = np.asarray(self.angles)
        for i in range(0, genes.size, 2):
            genes[i] = lengths[np.argmin(np.abs(lengths - genes[i]))]
            genes[i + 1] = angles[np.argmin(np.abs(angles - genes[i + 1]))]
        return Genotype(Encoding.ANGULAR, genes)


@dataclass
class Scenario:
    name: str
    grid: ScenarioGrid
    boundary: BoundaryConditions
    transmission: dict[Material, float]
    existing_structures: list[tuple[np.ndarray, Material]]
    attachments: list[Attachment]
    control_points: np.ndarray
    fairway: np.ndarray
    init: InitRanges = field(default_factory=InitRanges)
    gene_levels: GeneLevels | None = None
    nav_sampling_step: float = 0.25
    diffusion_passes: int = DEFAULT_DIFFUSION_PASSES
    violation_penalty: float = 1e6
    source: dict | None = None

    # filled by finalize()
    wave_model: object = None
    existing_polylines: list[np.ndarray] = field(default_factory=list)
    existing_segments: list = field(default_factory=list)  # geometry.polyline_segments of the above
    fairway_segments: list = field(default_factory=list)
    existing_obstacles: ObstacleSet = field(default_factory=ObstacleSet)
    coefficients: np.ndarray | None = None  # wave.coefficient_grid of the existing structures
    baseline: Baseline | None = None

    @property
    def n_blocks(self) -> int:
        return total_blocks(self.attachments)

    def finalize(self) -> "Scenario":
        """Validate, then compute baseline values for the existing configuration."""
        violations = self._structural_violations()
        if violations:
            raise ScenarioError(violations)
        if self.wave_model is None:
            self.wave_model = ShadowDiffusionModel(self.diffusion_passes)
        self.existing_polylines = [verts for verts, _ in self.existing_structures]
        existing_layout = Layout(
            breakwaters=list(self.existing_polylines),
            materials=[mat for _, mat in self.existing_structures],
        )
        self.existing_segments = existing_layout.segments()
        self.fairway_segments = polyline_segments([self.fairway])
        existing_cells = rasterize(existing_layout, self.grid, self.transmission)
        self.existing_obstacles = ObstacleSet.from_pairs(existing_cells)
        self.coefficients = coefficient_grid(self.grid, existing_cells)
        base_field = self.wave_model.simulate(self.grid, self.existing_obstacles, self.boundary)
        self.baseline = Baseline(
            wave_heights=sample(base_field, self.control_points),
            nav_distance=min_distance_to_fairway(
                existing_layout, self.fairway, self.grid.cell_size, self.nav_sampling_step
            ),
            cost_ref=cost(self.existing_segments, self.grid.cell_size),
            field=base_field,
        )
        problems = self._baseline_violations()
        if problems:
            raise ScenarioError(problems)
        return self

    def _structural_violations(self) -> list[str]:
        out: list[str] = []
        grid = self.grid
        if not self.existing_structures:
            out.append("at least one existing structure is required (baseline cost anchor)")
        for i, (verts, mat) in enumerate(self.existing_structures):
            if len(verts) < 2:
                out.append(f"existing structure {i} needs at least 2 vertices")
            if mat not in self.transmission:
                out.append(f"existing structure {i}: material {mat!r} missing from transmission table")
        for mat, coeff in self.transmission.items():
            if not 0.0 <= coeff <= 1.0:
                out.append(f"transmission coefficient for {mat} is {coeff}, must be in [0, 1]")
        if not self.attachments:
            out.append("at least one attachment point is required")
        for i, att in enumerate(self.attachments):
            p = att.point
            if att.n_segments < 1:
                out.append(f"attachment {i}: n_segments must be >= 1")
            if att.material not in self.transmission:
                out.append(f"attachment {i}: material {att.material!r} missing from transmission table")
            if not grid.in_bounds(p.x, p.y):
                out.append(f"attachment {i} at ({p.x}, {p.y}) is outside the grid")
                continue
            if not grid.is_water(p.x, p.y):
                out.append(f"attachment {i} at ({p.x}, {p.y}) sits on land")
            if not self._anchored(p):
                out.append(
                    f"attachment {i} at ({p.x}, {p.y}) is not on or adjacent to an "
                    "existing structure or the coast"
                )
        if len(self.control_points) == 0:
            out.append("at least one control point is required")
        for i, (x, y) in enumerate(np.atleast_2d(self.control_points)):
            if not grid.in_bounds(x, y):
                out.append(f"control point {i} at ({x}, {y}) is outside the grid")
            elif not grid.is_water(x, y):
                out.append(f"control point {i} at ({x}, {y}) sits on land")
        if len(self.fairway) < 2:
            out.append("fairway needs at least 2 vertices")
        elif not np.any(np.ptp(self.fairway, axis=0) > 0):
            out.append("fairway has zero length")
        else:
            for i, (verts, _) in enumerate(self.existing_structures):
                if count_crossings(polyline_segments([verts]), polyline_segments([self.fairway])):
                    out.append(f"existing structure {i} crosses the fairway, so its clearance is zero")
        if not self.init.max_length > 0:
            out.append("initialization max_length must be positive")
        if not self.init.angle_low < self.init.angle_high:
            out.append("initialization angle range is empty")
        if self.init.cartesian_bbox is not None:
            x0, y0, x1, y1 = self.init.cartesian_bbox
            if not (x0 < x1 and y0 < y1):
                out.append("initialization cartesian_bbox is degenerate")
        if self.gene_levels is not None:
            if len(self.gene_levels.lengths) == 0 or len(self.gene_levels.angles) == 0:
                out.append("gene_levels must list at least one length and one angle")
            elif any(l < 0 for l in self.gene_levels.lengths):
                out.append("gene_levels lengths must be non-negative")
        if not self.nav_sampling_step > 0:
            out.append("nav_sampling_step must be positive")
        if self.diffusion_passes < 0:
            out.append("diffusion_passes must be >= 0")
        return out

    def _anchored(self, p: AttachmentPoint) -> bool:
        for verts, _ in self.existing_structures:
            if len(verts) >= 2 and point_polyline_distance((p.x, p.y), verts) <= ATTACHMENT_ANCHOR_TOLERANCE:
                return True
        col, row = self.grid.cell_of(p.x, p.y)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                r, c = row + dr, col + dc
                if 0 <= r < self.grid.n_rows and 0 <= c < self.grid.n_cols:
                    if self.grid.land_mask[r, c]:
                        return True
        return False

    def _baseline_violations(self) -> list[str]:
        out: list[str] = []
        b = self.baseline
        if not b.cost_ref > 0:
            out.append("existing structures have zero total length, baseline cost is zero")
        if not b.nav_distance > 0:
            out.append("existing structures touch the fairway, baseline clearance is zero")
        for i, h in enumerate(b.wave_heights):
            if not h > 0:
                out.append(f"control point {i} receives zero baseline wave height")
        return out

    # ----- evaluation façade used by the optimizer -----

    def evaluate(self, genotype: Genotype) -> ObjectiveVector:
        return evaluate(genotype, self)

    def relative(self, objectives: ObjectiveVector) -> RelativeObjectiveVector:
        return relativize(objectives, self.baseline)

    def min_point(self, objectives: ObjectiveVector) -> np.ndarray:
        """Relative objectives in minimization form, the optimizer's space."""
        return self.relative(objectives).min_vector()

    def scalar(self, objectives: ObjectiveVector) -> float:
        """Scalar fitness: relative convolution plus constraint penalties."""
        return single_objective(
            self.relative(objectives),
            violations=objectives.violations,
            penalty=self.violation_penalty,
        )

    def snap(self, genotype: Genotype) -> Genotype:
        return self.gene_levels.snap(genotype) if self.gene_levels is not None else genotype


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file.

    Raises ScenarioError listing every violation found, not just the first.
    """
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    return build_scenario(data, base_dir=path.parent)


def build_scenario(data: dict, base_dir: Path | None = None) -> Scenario:
    problems: list[str] = []
    grid = _parse_grid(data.get("grid"), base_dir, problems)
    boundary = None
    try:
        bdata = data["boundary"]
        boundary = BoundaryConditions(float(bdata["incident_height"]), float(bdata["wave_direction"]))
    except (KeyError, TypeError) as exc:
        problems.append(f"boundary: missing or malformed ({exc})")
    except ValueError as exc:
        problems.append(f"boundary: {exc}")
    transmission = dict(DEFAULT_TRANSMISSION)
    for name, coeff in data.get("materials", {}).items():
        try:
            transmission[Material(name)] = float(coeff)
        except ValueError:
            problems.append(f"materials: unknown material {name!r}")
    existing = []
    for i, s in enumerate(data.get("existing_structures", [])):
        try:
            vertices, material = s["vertices"], Material(s.get("material", "solid_wall"))
        except (KeyError, ValueError) as exc:
            problems.append(f"existing structure {i}: {exc}")
            continue
        existing.append((_xy_array(vertices, f"existing structure {i} vertices", problems), material))
    control_points = _xy_array(data.get("control_points", []), "control_points", problems)
    fairway = _xy_array(data.get("fairway", []), "fairway", problems)
    attachments = []
    for i, a in enumerate(data.get("attachments", [])):
        try:
            attachments.append(
                Attachment(
                    point=AttachmentPoint(float(a["x"]), float(a["y"]), float(a.get("base_angle", 0.0))),
                    n_segments=int(a.get("n_segments", 2)),
                    material=Material(a.get("material", "solid_wall")),
                )
            )
        except (KeyError, ValueError) as exc:
            problems.append(f"attachment {i}: {exc}")
    init_data = data.get("initialization", {})
    bbox = init_data.get("cartesian_bbox")
    init = InitRanges(
        max_length=float(init_data.get("max_length", 40.0)),
        angle_low=float(init_data.get("angle_low", -90.0)),
        angle_high=float(init_data.get("angle_high", 90.0)),
        cartesian_bbox=tuple(float(v) for v in bbox) if bbox else None,
    )
    levels = None
    if "gene_levels" in data:
        g = data["gene_levels"]
        levels = GeneLevels(
            lengths=tuple(float(v) for v in g.get("lengths", ())),
            angles=tuple(float(v) for v in g.get("angles", ())),
        )
    if problems or grid is None or boundary is None:
        raise ScenarioError(problems or ["scenario file is empty"])
    scenario = Scenario(
        name=str(data.get("name", "unnamed")),
        grid=grid,
        boundary=boundary,
        transmission=transmission,
        existing_structures=existing,
        attachments=attachments,
        control_points=control_points,
        fairway=fairway,
        init=init,
        gene_levels=levels,
        nav_sampling_step=float(data.get("nav_sampling_step", 0.25)),
        diffusion_passes=int(data.get("diffusion_passes", DEFAULT_DIFFUSION_PASSES)),
        violation_penalty=float(data.get("violation_penalty", 1e6)),
        source=data,
    )
    return scenario.finalize()


def _xy_array(value, what: str, problems: list[str]) -> np.ndarray:
    """value as an (n, 2) float array; records a problem naming what unless it is finite (n, 2)."""
    try:
        xy = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        problems.append(f"{what}: must be a list of [x, y] pairs ({exc})")
        return np.empty((0, 2))
    if xy.size == 0:
        return xy.reshape(0, 2)
    if xy.ndim != 2 or xy.shape[1] != 2:
        problems.append(f"{what}: must be a list of [x, y] pairs, got shape {xy.shape}")
    elif not np.isfinite(xy).all():
        problems.append(f"{what}: coordinates must be finite")
    return xy


def _parse_grid(gdata, base_dir: Path | None, problems: list[str]) -> ScenarioGrid | None:
    if not gdata:
        problems.append("grid: missing")
        return None
    cell_size = float(gdata.get("cell_size", 25.0))
    if "depth" in gdata:
        depth = np.asarray(gdata["depth"], dtype=float)
    elif "depth_file" in gdata:
        depth_path = Path(gdata["depth_file"])
        if base_dir is not None and not depth_path.is_absolute():
            depth_path = base_dir / depth_path
        try:
            depth = np.loadtxt(depth_path, ndmin=2)
        except OSError as exc:
            problems.append(f"grid: cannot read depth_file ({exc})")
            return None
    else:
        problems.append("grid: needs 'depth' or 'depth_file'")
        return None
    if depth.ndim != 2 or depth.shape[0] < 2 or depth.shape[1] < 2:
        problems.append(f"grid: depth must be at least 2x2, got shape {depth.shape}")
        return None
    if not cell_size > 0:
        problems.append(f"grid: cell_size must be positive, got {cell_size}")
        return None
    return ScenarioGrid.from_depth(depth, cell_size)


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize the scenario's source definition deterministically."""
    if scenario.source is None:
        raise ValueError("scenario was built programmatically without a source dict")
    return json.dumps(scenario.source, sort_keys=True, indent=2)
