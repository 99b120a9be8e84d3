"""Scenario definition: bathymetry, structures, objectives context.

A scenario bundles everything needed to evaluate candidate layouts: the
grid, the existing protective structures, attachment points for new
breakwaters, control points whose wave heights matter, the fairway, the
incident sea state, and initialization ranges for the optimizer. A Scenario
is frozen: constructing one validates it and derives the baseline (existing
configuration) values that anchor the relative objectives. The baseline
wave heights take every candidate's path (objectives.wave_heights with no
new cells) through the scenario's own wave model, so
dataclasses.replace(scenario, wave_model=m) gives a scenario whose baseline
comes from m.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
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
    segment_groups,
    total_blocks,
)
from .objectives import (
    DEFAULT_VIOLATION_PENALTY,
    Baseline,
    ObjectiveVector,
    cost,
    evaluate,
    relativize,
    single_objective,
    wave_heights,
)
from .wave import (
    DEFAULT_DIFFUSION_PASSES,
    DEFAULT_TRANSMISSION,
    BoundaryConditions,
    ShadowDiffusionModel,
    coefficient_grid,
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


@dataclass(frozen=True)
class Scenario:
    """Validated on construction; the fields after wave_model are derived from those before it.

    wave_model defaults to ShadowDiffusionModel(diffusion_passes). A built-in
    model whose passes differ from diffusion_passes is rejected, so
    dataclasses.replace(scenario, diffusion_passes=k, wave_model=None) is
    the way to change the passes.
    """

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
    violation_penalty: float = DEFAULT_VIOLATION_PENALTY
    source: dict | None = None
    wave_model: object = None
    existing_segments: list = field(init=False)  # geometry.segment_groups of the structures, flattened
    fairway_segments: list = field(init=False)
    existing_cells: list = field(init=False)  # geometry.rasterize of the structures' segment groups
    coefficients: np.ndarray = field(init=False)  # wave.coefficient_grid of the existing structures
    baseline: Baseline = field(init=False)

    @property
    def n_blocks(self) -> int:
        return total_blocks(self.attachments)

    def __post_init__(self) -> None:
        """Validate, then derive the tables and the baseline of the existing configuration."""
        violations = self._structural_violations()
        if violations:
            raise ScenarioError(violations)
        derive = partial(object.__setattr__, self)
        if self.wave_model is None:
            derive("wave_model", ShadowDiffusionModel(self.diffusion_passes))
        existing_layout = Layout(
            polylines=[verts for verts, _ in self.existing_structures],
            materials=[mat for _, mat in self.existing_structures],
        )
        groups = segment_groups(existing_layout.polylines)
        derive("existing_segments", [s for group in groups for s in group])
        derive("fairway_segments", polyline_segments([self.fairway]))
        derive("existing_cells", rasterize(groups, existing_layout.materials, self.grid, self.transmission))
        derive("coefficients", coefficient_grid(self.grid, self.existing_cells))
        derive("baseline", Baseline(
            wave_heights=wave_heights([], self),
            nav_distance=min_distance_to_fairway(
                existing_layout, self.fairway, self.grid.cell_size, self.nav_sampling_step
            ),
            cost_ref=cost(self.existing_segments, self.grid.cell_size),
        ))
        problems = self._baseline_violations()
        if problems:
            raise ScenarioError(problems)

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
            if len(self.init.cartesian_bbox) != 4:
                out.append("initialization cartesian_bbox must be [x0, y0, x1, y1]")
            else:
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
        model = self.wave_model
        if isinstance(model, ShadowDiffusionModel) and model.diffusion_passes != self.diffusion_passes:
            out.append(
                f"wave_model has {model.diffusion_passes} diffusion passes but diffusion_passes is "
                f"{self.diffusion_passes}; replace both, or pass wave_model=None to rebuild the model"
            )
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
        """objectives.evaluate of a batch of one."""
        return evaluate([genotype], self)[0]

    def evaluate_many(self, genotypes: list[Genotype]) -> list[ObjectiveVector]:
        """objectives.evaluate of the batch; a failing candidate raises objectives.CandidateError."""
        return evaluate(genotypes, self)

    def min_point(self, objectives: ObjectiveVector) -> np.ndarray:
        """Relative objectives in minimization form, the optimizer's space."""
        return relativize(objectives, self.baseline)

    def scalar(self, point: np.ndarray, violations: int) -> float:
        """Scalar fitness of a min_point: relative convolution plus constraint penalties."""
        return single_objective(point, violations=violations, penalty=self.violation_penalty)

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
    for name, coeff in _field(data, "materials", dict, problems).items():
        try:
            material = Material(name)
        except ValueError:
            problems.append(f"materials: unknown material {name!r}")
            continue
        transmission[material] = _number(coeff, f"materials {name}", problems)
    existing = []
    for i, s in enumerate(_field(data, "existing_structures", list, problems)):
        if not isinstance(s, dict):
            problems.append(f"existing structure {i}: must be an object, got {s!r}")
            continue
        try:
            vertices, material = s["vertices"], Material(s.get("material", "solid_wall"))
        except (KeyError, ValueError) as exc:
            problems.append(f"existing structure {i}: {exc}")
            continue
        existing.append((_xy_array(vertices, f"existing structure {i} vertices", problems), material))
    control_points = _xy_array(data.get("control_points", []), "control_points", problems)
    fairway = _xy_array(data.get("fairway", []), "fairway", problems)
    attachments = []
    for i, a in enumerate(_field(data, "attachments", list, problems)):
        if not isinstance(a, dict):
            problems.append(f"attachment {i}: must be an object, got {a!r}")
            continue
        try:
            material = Material(a.get("material", "solid_wall"))
        except ValueError as exc:
            problems.append(f"attachment {i}: {exc}")
            continue
        x, y, base_angle = (
            _number(a.get(key, default), f"attachment {i} {key}", problems)
            for key, default in (("x", None), ("y", None), ("base_angle", 0.0))
        )
        n_segments = _number(a.get("n_segments", 2), f"attachment {i} n_segments", problems, whole=True)
        attachments.append(Attachment(AttachmentPoint(x, y, base_angle), n_segments, material))
    init_data = _field(data, "initialization", dict, problems)
    bbox = init_data.get("cartesian_bbox")
    max_length, angle_low, angle_high = (
        _number(init_data.get(key, getattr(InitRanges, key)), f"initialization {key}", problems)
        for key in ("max_length", "angle_low", "angle_high")
    )
    init = InitRanges(
        max_length=max_length,
        angle_low=angle_low,
        angle_high=angle_high,
        cartesian_bbox=_numbers(bbox, "initialization cartesian_bbox", problems) if bbox else None,
    )
    levels = None
    if "gene_levels" in data:
        g = _field(data, "gene_levels", dict, problems)
        levels = GeneLevels(
            lengths=_numbers(g.get("lengths", ()), "gene_levels lengths", problems),
            angles=_numbers(g.get("angles", ()), "gene_levels angles", problems),
        )
    nav_sampling_step, diffusion_passes, violation_penalty = (
        _number(data.get(key, getattr(Scenario, key)), key, problems, whole=key == "diffusion_passes")
        for key in ("nav_sampling_step", "diffusion_passes", "violation_penalty")
    )
    if problems or grid is None or boundary is None:
        raise ScenarioError(problems or ["scenario file is empty"])
    return Scenario(
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
        nav_sampling_step=nav_sampling_step,
        diffusion_passes=diffusion_passes,
        violation_penalty=violation_penalty,
        source=data,
    )


def _field(data: dict, key: str, kind: type, problems: list[str]):
    """data[key], kind() if absent; kind() and a problem naming key unless it is a kind (dict or list)."""
    value = data.get(key, kind())
    if isinstance(value, kind):
        return value
    problems.append(f"{key}: must be {'an object' if kind is dict else 'a list'}, got {value!r}")
    return kind()


def _number(value, what: str, problems: list[str], whole: bool = False):
    """value as a float, or as an int if whole; None and a problem naming what if it is not one."""
    try:
        number = float(value)
        if whole and not number.is_integer():
            raise ValueError
    except (TypeError, ValueError):
        problems.append(f"{what}: must be a {'whole ' if whole else ''}number, got {value!r}")
        return None
    return int(number) if whole else number


def _numbers(values, what: str, problems: list[str]) -> tuple[float, ...] | None:
    """values as a tuple of floats; None and a problem naming what if it is not a list of numbers."""
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        problems.append(f"{what}: must be a list of numbers, got {values!r}")
        return None


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
    cell_size = _number(gdata.get("cell_size", 25.0), "grid cell_size", problems)
    if cell_size is None:
        return None
    if "depth" in gdata:
        try:
            depth = np.asarray(gdata["depth"], dtype=float)
        except (TypeError, ValueError) as exc:
            problems.append(f"grid depth: must be rows of numbers ({exc})")
            return None
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
    try:
        return ScenarioGrid(depth, cell_size)
    except ValueError as exc:
        problems.append(f"grid: {exc}")
        return None


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize the scenario's source definition deterministically."""
    if scenario.source is None:
        raise ValueError("scenario was built programmatically without a source dict")
    return json.dumps(scenario.source, sort_keys=True, indent=2)
