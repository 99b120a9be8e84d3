"""Grid, genotype and layout geometry for breakwater planning.

Coordinate convention used throughout the package: positions are continuous
and measured in cell units, x runs along columns, y along rows. Integer
coordinates are cell centers, so cell (i, j) covers the half-open square
[i - 0.5, i + 0.5) x [j - 0.5, j + 0.5). Angles are degrees, counterclockwise
from the +x axis.

Per-segment loops (crossings, rasterization, lengths) run on plain-float
segments from `polyline_segments`: `.tolist()` yields the arrays' own IEEE
doubles, and Python floats round +, - and * exactly as NumPy float64 scalars
do, so every count, cell and length is bit-identical to a loop over NumPy
rows, at a fraction of the cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

LAND = -1.0  # depth sentinel marking land cells

_CORNER_EPS = 1e-12


class Material(str, Enum):
    SOLID_WALL = "solid_wall"
    TETRAPOD = "tetrapod"


class Encoding(str, Enum):
    CARTESIAN = "cartesian"
    ANGULAR = "angular"


def normalize_angle(angle):
    """Map an angle in degrees to [-180, 180); in-range values pass through bitwise.

    Works on scalars and arrays. The pass-through matters: re-normalizing an
    already normalized genotype must not perturb genes at all.
    """
    if isinstance(angle, np.ndarray):
        wrapped = (angle + 180.0) % 360.0 - 180.0
        return np.where((angle >= -180.0) & (angle < 180.0), angle, wrapped)
    if -180.0 <= angle < 180.0:
        return float(angle)
    return float((angle + 180.0) % 360.0 - 180.0)


@dataclass(frozen=True)
class ScenarioGrid:
    """Regular bathymetry grid; land cells carry the LAND sentinel depth."""

    n_cols: int
    n_rows: int
    cell_size: float
    depth: np.ndarray      # (n_rows, n_cols), meters; LAND on land
    land_mask: np.ndarray  # (n_rows, n_cols), bool

    def __post_init__(self) -> None:
        if self.n_cols < 2 or self.n_rows < 2:
            raise ValueError("grid must be at least 2x2")
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        if self.depth.shape != (self.n_rows, self.n_cols):
            raise ValueError("depth shape does not match grid dimensions")
        if not np.array_equal(self.land_mask, self.depth == LAND):
            raise ValueError("land_mask must mark exactly the LAND-sentinel cells")

    @classmethod
    def from_depth(cls, depth: np.ndarray, cell_size: float = 25.0) -> "ScenarioGrid":
        depth = np.asarray(depth, dtype=float)
        return cls(
            n_cols=depth.shape[1],
            n_rows=depth.shape[0],
            cell_size=float(cell_size),
            depth=depth,
            land_mask=depth == LAND,
        )

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Cell (col, row) containing the continuous point (x, y)."""
        return int(math.floor(x + 0.5)), int(math.floor(y + 0.5))

    def in_bounds(self, x: float, y: float) -> bool:
        col, row = self.cell_of(x, y)
        return 0 <= col < self.n_cols and 0 <= row < self.n_rows

    def is_water(self, x: float, y: float) -> bool:
        col, row = self.cell_of(x, y)
        return self.in_bounds(x, y) and not self.land_mask[row, col]


@dataclass(frozen=True)
class AttachmentPoint:
    """Fixed coastal anchor a new breakwater starts from."""

    x: float
    y: float
    base_angle: float  # reference heading for the first angular segment


@dataclass(frozen=True)
class Attachment:
    point: AttachmentPoint
    n_segments: int
    material: Material = Material.SOLID_WALL


@dataclass
class Genotype:
    """Flat gene vector, two genes per segment block.

    Cartesian blocks are absolute endpoint coordinates (cells) chained from
    the attachment point. Angular blocks are (length in cells, angle in
    degrees relative to the previous segment heading, base_angle for the
    first). Angular lengths must be non-negative; angles are normalized to
    [-180, 180) on construction.
    """

    encoding: Encoding
    genes: np.ndarray

    def __post_init__(self) -> None:
        self.genes = np.array(self.genes, dtype=float).ravel()
        if self.genes.size % 2 != 0:
            raise ValueError("gene vector length must be even (two genes per block)")
        if self.encoding is Encoding.ANGULAR:
            if np.any(self.genes[0::2] < 0):
                raise ValueError("angular lengths must be non-negative")
            self.genes[1::2] = normalize_angle(self.genes[1::2])

    @property
    def n_blocks(self) -> int:
        return self.genes.size // 2

    @property
    def blocks(self) -> np.ndarray:
        return self.genes.reshape(-1, 2)

    def copy(self) -> "Genotype":
        return Genotype(self.encoding, self.genes.copy())


@dataclass
class Layout:
    """Decoded breakwater polylines, one per attachment, in cell coordinates."""

    breakwaters: list[np.ndarray]  # each (k_i + 1, 2), first vertex = attachment
    materials: list[Material]

    def segments(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        """Non-degenerate segments over all breakwaters, as plain floats."""
        return polyline_segments(self.breakwaters)


def polyline_segments(polylines) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Non-degenerate ((x0, y0), (x1, y1)) plain-float segments of the polylines, in order.

    Zero-length segments are dropped: they cross nothing and cover no cell.
    """
    out = []
    for verts in polylines:
        points = [tuple(v) for v in np.asarray(verts, dtype=float).tolist()]
        out.extend((p, q) for p, q in zip(points[:-1], points[1:]) if p != q)
    return out


def total_length(segments) -> float:
    """Summed length of ((x0, y0), (x1, y1)) segments, in cell units."""
    return float(sum(math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in segments))


def total_blocks(attachments: list[Attachment]) -> int:
    return sum(a.n_segments for a in attachments)


def decode(genotype: Genotype, attachments: list[Attachment]) -> Layout:
    """Decode a genotype into breakwater polylines.

    Blocks are consumed attachment-major: the first attachment's segments
    first. Angular headings accumulate relative angles block by block
    (zero-length blocks still turn the heading); zero-length segments leave
    the vertex where it was.
    """
    blocks = genotype.blocks
    if len(blocks) != total_blocks(attachments):
        raise ValueError(
            f"genotype has {len(blocks)} blocks, attachments require {total_blocks(attachments)}"
        )
    breakwaters: list[np.ndarray] = []
    materials: list[Material] = []
    k = 0
    for att in attachments:
        own = blocks[k : k + att.n_segments]
        k += att.n_segments
        verts = np.empty((att.n_segments + 1, 2), dtype=float)
        verts[0] = (att.point.x, att.point.y)
        if genotype.encoding is Encoding.CARTESIAN:
            verts[1:] = own
        else:
            heading = att.point.base_angle
            x, y = att.point.x, att.point.y
            for i, (length, rel_angle) in enumerate(own):
                heading += rel_angle
                x += length * math.cos(math.radians(heading))
                y += length * math.sin(math.radians(heading))
                verts[i + 1] = (x, y)
        breakwaters.append(verts)
        materials.append(att.material)
    return Layout(breakwaters, materials)


def convert(genotype: Genotype, attachments: list[Attachment], target: Encoding) -> Genotype:
    """Re-express a genotype in the target encoding, preserving decoded vertices.

    Zero-length segments convert to relative angle 0 (their original heading
    is not recoverable), so the round trip is exact on vertices, not genes.
    """
    if target is genotype.encoding:
        return genotype.copy()
    layout = decode(genotype, attachments)
    genes: list[float] = []
    if target is Encoding.CARTESIAN:
        for verts in layout.breakwaters:
            genes.extend(verts[1:].ravel())
    else:
        for att, verts in zip(attachments, layout.breakwaters):
            heading = att.point.base_angle
            for p, q in zip(verts[:-1], verts[1:]):
                dx, dy = q[0] - p[0], q[1] - p[1]
                length = math.hypot(dx, dy)
                if length == 0.0:
                    rel = 0.0
                else:
                    rel = normalize_angle(math.degrees(math.atan2(dy, dx)) - heading)
                    heading += rel
                genes.extend((length, rel))
    return Genotype(target, np.array(genes))


# ----- intersection predicates -------------------------------------------

def _orient(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def segments_cross(p1, p2, q1, q2) -> bool:
    """True iff the open segments cross transversally.

    Touching configurations (shared endpoints, T-junctions, collinear
    overlap) do not count as crossings.
    """
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def count_crossings(segments, others=None) -> int:
    """Transversal crossings between two segment lists, or within one.

    With others, every (segment, other) pair is tested; without, every pair
    of distinct segments once. Shared chain vertices are touches, not
    crossings.
    """
    if others is None:
        return sum(
            segments_cross(*segments[i], *segments[j])
            for i in range(len(segments))
            for j in range(i + 1, len(segments))
        )
    return sum(segments_cross(*s, *o) for s in segments for o in others)


# ----- rasterization ------------------------------------------------------

def supercover_line(p0, p1) -> list[tuple[int, int]]:
    """Cells touched by the segment p0-p1, ordered along the segment.

    Supercover traversal: steps move one cell in x or y at a time, and an
    exact pass through a cell corner adds both side cells, so the result is
    4-connected and thin diagonal chains leave no gap a transversal ray could
    slip through.
    """
    # shift by +0.5 so cell boundaries sit at integers
    x0, y0 = float(p0[0]) + 0.5, float(p0[1]) + 0.5
    x1, y1 = float(p1[0]) + 0.5, float(p1[1]) + 0.5
    ix, iy = int(math.floor(x0)), int(math.floor(y0))
    cells = [(ix, iy)]
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    if dx != 0.0:
        t_dx = abs(1.0 / dx)
        t_max_x = ((ix + (1 if dx > 0 else 0)) - x0) / dx
    else:
        t_dx = t_max_x = math.inf
    if dy != 0.0:
        t_dy = abs(1.0 / dy)
        t_max_y = ((iy + (1 if dy > 0 else 0)) - y0) / dy
    else:
        t_dy = t_max_y = math.inf
    while min(t_max_x, t_max_y) <= 1.0 + _CORNER_EPS:
        if abs(t_max_x - t_max_y) <= _CORNER_EPS:
            cells.append((ix + step_x, iy))
            cells.append((ix, iy + step_y))
            ix += step_x
            iy += step_y
            t_max_x += t_dx
            t_max_y += t_dy
        elif t_max_x < t_max_y:
            ix += step_x
            t_max_x += t_dx
        else:
            iy += step_y
            t_max_y += t_dy
        cells.append((ix, iy))
    return cells


def rasterize(
    layout: Layout,
    grid: ScenarioGrid,
    transmission: dict[Material, float],
) -> list[tuple[tuple[int, int], float]]:
    """Obstacle cells for the wave model: ((col, row), transmission coefficient).

    Cells covered by more than one structure keep the smallest (most
    blocking) coefficient. Cells outside the grid are dropped. The distinct
    cells double as the layout's footprint for the land-coverage constraint.
    """
    out: dict[tuple[int, int], float] = {}
    for verts, mat in zip(layout.breakwaters, layout.materials):
        coeff = float(transmission[mat])
        for p, q in polyline_segments([verts]):
            for col, row in supercover_line(p, q):
                if 0 <= col < grid.n_cols and 0 <= row < grid.n_rows:
                    prev = out.get((col, row))
                    out[(col, row)] = coeff if prev is None else min(prev, coeff)
    return list(out.items())


# ----- distances ----------------------------------------------------------

def sample_polyline(verts: np.ndarray, step: float) -> np.ndarray:
    """Points along a polyline at spacing <= step, endpoints included."""
    verts = np.asarray(verts, dtype=float)
    parts = [verts[:1]]
    for p, q in zip(verts[:-1], verts[1:]):
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        if length == 0.0:
            continue
        n = max(1, math.ceil(length / step))
        ts = np.arange(1, n + 1) / n
        parts.append(p + ts[:, None] * (q - p))
    return np.concatenate(parts)


@lru_cache(maxsize=32)
def _fairway_samples(fairway_bytes: bytes, shape: tuple[int, ...], step: float) -> np.ndarray:
    """Read-only sample_polyline of a fairway, keyed by value.

    Two fairways of one shape but different vertices never share an entry,
    and neither do two steps. Runs once per scenario and sampling step.
    """
    samples = sample_polyline(np.frombuffer(fairway_bytes).reshape(shape), step)
    samples.flags.writeable = False
    return samples


def _sample_family(polylines: list[np.ndarray], step: float) -> np.ndarray:
    return np.concatenate([sample_polyline(v, step) for v in polylines])


def _min_sample_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest distance between two (n, 2) sample sets.

    The squared distance of every sample pair is dx*dx + dy*dy, computed on
    two (len(a), len(b)) planes in place; that is the same sum, in the same
    order, as squaring the (len(a), len(b), 2) difference and summing over
    its last axis, so the result is bit-identical to that form.
    """
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    d2 *= d2
    dy *= dy
    d2 += dy
    return float(math.sqrt(d2.min()))


def min_distance_to_fairway(
    layout: Layout,
    fairway: np.ndarray,
    cell_size: float,
    sampling_step: float = 0.25,
) -> float:
    """Navigational clearance in meters between new structures and the fairway.

    The fairway's samples come from a cache, so a scenario samples its fixed
    fairway once, not once per model run. A fully degenerate layout still
    has its attachment vertices, so the distance falls back to the
    attachment points.
    """
    fairway = np.asarray(fairway, dtype=float)
    samples = _fairway_samples(fairway.tobytes(), fairway.shape, sampling_step)
    return _min_sample_distance(_sample_family(layout.breakwaters, sampling_step), samples) * cell_size


def point_segment_distance(p, a, b) -> float:
    """Distance from point p to segment ab."""
    px, py = p[0] - a[0], p[1] - a[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    denom = sx * sx + sy * sy
    t = 0.0 if denom == 0.0 else min(1.0, max(0.0, (px * sx + py * sy) / denom))
    return math.hypot(px - t * sx, py - t * sy)


def point_polyline_distance(p, verts: np.ndarray) -> float:
    return min(point_segment_distance(p, a, b) for a, b in zip(verts[:-1], verts[1:]))
