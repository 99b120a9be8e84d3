"""Grid, genotype and layout geometry for breakwater planning.

Coordinate convention used throughout the package: positions are continuous
and measured in cell units, x runs along columns, y along rows. Integer
coordinates are cell centers, so cell (i, j) covers the half-open square
[i - 0.5, i + 0.5) x [j - 0.5, j + 0.5). Angles are degrees, counterclockwise
from the +x axis.

Per-segment loops (crossings, rasterization, lengths) run on plain-float
segments from `segment_groups`, one list per polyline, built once per model
run and shared by the crossing counts, the cost and the rasterization.
`.tolist()` yields the arrays' own IEEE doubles, and Python floats round +,
- and * exactly as NumPy float64 scalars do, so every count, cell and length
is bit-identical to a loop over NumPy rows, at a fraction of the cost. The
crossing count is one inline loop: per segment it takes the direction once,
computes the two orientations of the other segment's endpoints, and only
when they straddle the segment computes the two that decide the crossing,
each with the very products and differences of the textbook orientation
test, so every sign is the same. `decode` builds each polyline's vertices
in plain floats too, and a model run takes its segment groups straight from
those lists; `Layout.breakwaters` gives them as arrays for the exports.

Fairway clearance is measured for a whole batch of layouts at once
(`fairway_clearances`): each layout contributes its sample runs
(`sample_runs`, plain-float starts, directions and counts), every sample of
the batch is built in one vectorized pass with the very operations of
`sample_polyline`, and each sample meets only a window of the fairway's
samples per fairway segment, around its projection, instead of every one.
The docstring of `fairway_clearances` shows why the window gives the
all-pairs minimum bit for bit; `min_distance_to_fairway` is a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from typing import NamedTuple

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
    """Regular bathymetry grid; n_rows, n_cols and land_mask (the LAND cells) are read off depth."""

    depth: np.ndarray      # (n_rows, n_cols), meters; LAND on land
    cell_size: float = 25.0
    n_rows: int = field(init=False)
    n_cols: int = field(init=False)
    land_mask: np.ndarray = field(init=False)  # (n_rows, n_cols), bool

    def __post_init__(self) -> None:
        depth = np.asarray(self.depth, dtype=float)
        if depth.ndim != 2 or depth.shape[0] < 2 or depth.shape[1] < 2:
            raise ValueError(f"depth must be at least 2x2, got shape {depth.shape}")
        if not self.cell_size > 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        derive = partial(object.__setattr__, self)
        derive("depth", depth)
        derive("cell_size", float(self.cell_size))
        derive("n_rows", depth.shape[0])
        derive("n_cols", depth.shape[1])
        derive("land_mask", depth == LAND)

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


Segment = tuple[tuple[float, float], tuple[float, float]]


@dataclass
class Layout:
    """Decoded breakwater polylines, one per attachment, in cell coordinates.

    polylines holds each breakwater's vertices in order, the attachment
    first: decode gives lists of plain-float (x, y) tuples, which a model run
    reads as they are; a layout built by hand may give (n, 2) arrays.
    """

    polylines: list
    materials: list[Material]

    @property
    def breakwaters(self) -> list[np.ndarray]:
        """Each polyline as a (k_i + 1, 2) float array."""
        return [np.array(verts, dtype=float) for verts in self.polylines]

    def segments(self) -> list[Segment]:
        """Non-degenerate segments over all breakwaters, as plain floats."""
        return polyline_segments(self.polylines)


def segment_groups(polylines) -> list[list[Segment]]:
    """Each polyline's non-degenerate ((x0, y0), (x1, y1)) plain-float segments, in order.

    A list is taken as decode's plain-float (x, y) tuples; anything else
    (an (n, 2) array) goes through np.asarray(..., dtype=float).tolist().
    Zero-length segments are dropped: they cross nothing and cover no cell.
    """
    out = []
    for verts in polylines:
        if not isinstance(verts, list):
            verts = [tuple(v) for v in np.asarray(verts, dtype=float).tolist()]
        out.append([(p, q) for p, q in zip(verts[:-1], verts[1:]) if p != q])
    return out


def polyline_segments(polylines) -> list[Segment]:
    """The segments of segment_groups, flattened in polyline order."""
    return [s for group in segment_groups(polylines) for s in group]


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
    blocks = genotype.blocks.tolist()
    if len(blocks) != total_blocks(attachments):
        raise ValueError(
            f"genotype has {len(blocks)} blocks, attachments require {total_blocks(attachments)}"
        )
    polylines: list[list[tuple[float, float]]] = []
    k = 0
    for att in attachments:
        own = blocks[k : k + att.n_segments]
        k += att.n_segments
        x, y = float(att.point.x), float(att.point.y)
        if genotype.encoding is Encoding.CARTESIAN:
            verts = [(x, y), *map(tuple, own)]
        else:
            verts = [(x, y)]
            heading = att.point.base_angle
            for length, rel_angle in own:
                heading += rel_angle
                angle = math.radians(heading)
                x += length * math.cos(angle)
                y += length * math.sin(angle)
                verts.append((x, y))
        polylines.append(verts)
    return Layout(polylines, [att.material for att in attachments])


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

def count_crossings(segments, others=None) -> int:
    """Transversal crossings between two segment lists, or within one.

    With others, every (segment, other) pair is tested; without, every pair
    of distinct segments once. A pair crosses when each segment's endpoints
    lie strictly on opposite sides of the other's line, so touching
    configurations (shared endpoints, T-junctions, collinear overlap) are not
    crossings, and neither are shared chain vertices.
    """
    count = 0
    for i, ((ax, ay), (bx, by)) in enumerate(segments):
        ex, ey = bx - ax, by - ay
        for (cx, cy), (dx, dy) in segments[i + 1 :] if others is None else others:
            d3 = ex * (cy - ay) - ey * (cx - ax)
            d4 = ex * (dy - ay) - ey * (dx - ax)
            if d3 * d4 < 0:
                fx, fy = dx - cx, dy - cy
                d1 = fx * (ay - cy) - fy * (ax - cx)
                d2 = fx * (by - cy) - fy * (bx - cx)
                if d1 * d2 < 0:
                    count += 1
    return count


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
    groups: list[list[Segment]],
    materials: list[Material],
    grid: ScenarioGrid,
    transmission: dict[Material, float],
) -> list[tuple[tuple[int, int], float]]:
    """Obstacle cells for the wave model: ((col, row), transmission coefficient).

    groups holds each structure's segments (segment_groups), materials its
    material. Cells covered by more than one structure keep the smallest
    (most blocking) coefficient. Cells outside the grid are dropped. The
    distinct cells double as the layout's footprint for the land-coverage
    constraint.
    """
    out: dict[tuple[int, int], float] = {}
    for segments, mat in zip(groups, materials):
        coeff = float(transmission[mat])
        for p, q in segments:
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


class _Fairway(NamedTuple):
    """Read-only tables of a fairway's samples for the windowed clearance.

    samples are sample_polyline's, as (xs, ys). Per non-degenerate segment s:
    its start p (px, py), direction d = q - p (dx, dy), sample count n,
    scale = n / |d|^2, and base, the index of the sample before its first,
    so samples base + k, k = 0..n, are its previous sample and its own (a
    fairway of one point has one such run, with n = 0). extent bounds the
    magnitude of every fairway coordinate.
    """

    xs: np.ndarray
    ys: np.ndarray
    px: np.ndarray
    py: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    n: np.ndarray
    scale: np.ndarray
    base: np.ndarray
    extent: float


@lru_cache(maxsize=32)
def _fairway(fairway_bytes: bytes, shape: tuple[int, ...], step: float) -> _Fairway:
    """The _Fairway tables of a fairway, keyed by value.

    Two fairways of one shape but different vertices never share an entry,
    and neither do two steps. Runs once per scenario and sampling step.
    """
    verts = np.frombuffer(fairway_bytes).reshape(shape)
    samples = sample_polyline(verts, step)
    # a fairway of one point is one run with no samples after the first vertex
    runs = sample_runs([], segment_groups([verts]), step) or [(*verts[0], 0.0, 0.0, 0)]
    px, py, dx, dy, n = (np.array(column, dtype=float) for column in zip(*runs))
    length2 = dx * dx + dy * dy
    tables = _Fairway(
        xs=samples[:, 0].copy(),
        ys=samples[:, 1].copy(),
        px=px,
        py=py,
        dx=dx,
        dy=dy,
        n=n,
        scale=np.divide(n, length2, out=np.zeros_like(n), where=length2 > 0),
        base=np.cumsum(n) - n,
        extent=float(np.abs(np.concatenate((verts.ravel(), samples.ravel()))).max()),
    )
    for table in tables[:-1]:
        table.flags.writeable = False
    return tables


def sample_runs(polylines, groups, step: float) -> list[tuple]:
    """A layout's clearance samples as runs (px, py, dx, dy, n): the samples p + (k / n) * d, k = 1..n.

    One run per polyline, whose one sample is its first vertex (d = 0,
    n = 1), and one per segment of groups (segment_groups of
    the polylines), with d = q - p and n = max(1, ceil(hypot(d) / step)):
    the samples sample_polyline spaces along the polylines, as the same
    doubles.
    """
    runs = [(*verts[0], 0.0, 0.0, 1) for verts in polylines]
    for group in groups:
        for (px, py), (qx, qy) in group:
            dx, dy = qx - px, qy - py
            runs.append((px, py, dx, dy, max(1, math.ceil(math.hypot(dx, dy) / step))))
    return runs


# A window half-width w is exact while the coordinates' magnitude over the
# sampling step stays below w * WINDOW_REACH (see fairway_clearances).
WINDOW_REACH = 2.0**21


def fairway_clearances(runs: list[tuple], sizes: list[int], fairway: np.ndarray, step: float) -> np.ndarray:
    """Smallest distance, in cells, from each layout of a batch to the fairway's samples.

    runs are the layouts' sample_runs, one after the other, and sizes the
    number of runs of each layout (at least one each). The result equals
    the minimum over every sample pair of dx*dx + dy*dy (square-rooted)
    that an all-pairs comparison with sample_polyline's samples gives, bit
    for bit, but each layout sample a meets only a window of samples per
    fairway segment s.

    Samples. Every sample of the batch is p + (k / n) * d, the elementwise
    double operations of sample_polyline, so the samples are the same
    doubles; their order does not matter to a minimum.

    Window. With p, d, n of segment s, k0 = clip(rint(n (a - p).d / |d|^2),
    0, n), and a meets the segment's samples k0 - w .. k0 + w, clipped to
    [0, n]; sample 0 is the one before the segment's first (the previous
    segment's last, or the fairway's first vertex). The minimum over the
    windows of every segment is the minimum over every sample.

    Why the window is exact. In exact arithmetic the segment's samples lie
    at p + k (d / n), so a's squared distance to sample k is
    h^2 + delta^2 (k - k*)^2 with delta = |d| / n and k* the unrounded
    k0. If n >= 2, n = ceil(|d| / step) gives delta >= step / 2; if n = 1
    the window (w >= 1) holds both samples. Let G bound the magnitude of
    every coordinate (the layouts' samples and the fairway's) and
    u = 2^-53. Then rounding moves a fairway sample by at most 7.1 u G,
    each computed dx*dx + dy*dy is within 73 u G^2 of the exact squared
    distance to the unrounded sample, and k0 is off by at most 1/2 + e,
    e <= 20 u G / delta. A sample k outside the window therefore exceeds
    sample k0 by at least delta^2 (w + 1)(w - 2 e) - 146 u G^2 in the
    computed value, which is positive once w >= 2.6e-7 G / step. The
    half-width is the smallest w >= 1 with w * WINDOW_REACH >= G / step
    (WINDOW_REACH = 2^21, so 1 / WINDOW_REACH = 4.8e-7); G is taken from the
    batch, so layouts that leave the grid are covered too. It is 1 unless a
    coordinate is millions of steps from the origin, and it never needs to
    exceed the longest segment's n, where the window holds every sample.
    """
    fw = _fairway(fairway.tobytes(), fairway.shape, step)
    px, py, dx, dy, n = np.array(runs, dtype=float).T
    counts = n.astype(np.intp)
    first = np.cumsum(counts) - counts
    k = np.arange(1.0, counts.sum() + 1.0)
    k -= np.repeat(first, counts)
    k /= np.repeat(n, counts)
    xs = np.repeat(dx, counts)
    xs *= k
    xs += np.repeat(px, counts)
    ys = np.repeat(dy, counts)
    ys *= k
    ys += np.repeat(py, counts)
    del k
    # a NaN sample makes its layout's minimum NaN whatever the window, as all pairs do
    extent = max(fw.extent, float(np.abs(xs).max()), float(np.abs(ys).max()))
    half = max(1, math.ceil(min(float(fw.n.max()), extent / step / WINDOW_REACH)))
    # (segment, sample) planes: each row's ufunc loop runs over the samples
    along = np.subtract(xs, fw.px[:, None])
    along *= fw.dx[:, None]
    k0 = np.subtract(ys, fw.py[:, None])
    k0 *= fw.dy[:, None]
    k0 += along
    k0 *= fw.scale[:, None]
    np.rint(k0, out=k0)
    np.fmax(k0, 0.0, out=k0)  # fmax and fmin, unlike clip, send a NaN to a valid index
    np.fmin(k0, fw.n[:, None], out=k0)
    k0 += fw.base[:, None]
    window = k0.astype(np.intp)
    del along, k0
    low, high = fw.base.astype(np.intp)[:, None], (fw.base + fw.n).astype(np.intp)[:, None]
    index = np.empty_like(window)
    best, d2, dy2 = np.full(window.shape, np.inf), np.empty(window.shape), np.empty(window.shape)
    for offset in range(-half, half + 1):
        np.add(window, offset, out=index)
        np.clip(index, low, high, out=index)
        # fairway minus layout sample: the negated difference, so the same square
        fw.xs.take(index, out=d2, mode="clip")  # every index is in range
        d2 -= xs
        d2 *= d2
        fw.ys.take(index, out=dy2, mode="clip")
        dy2 -= ys
        dy2 *= dy2
        d2 += dy2
        np.minimum(best, d2, out=best)
    starts = first[np.cumsum(sizes) - sizes]
    return np.sqrt(np.minimum.reduceat(best.min(axis=0), starts))


def min_distance_to_fairway(
    layout: Layout,
    fairway: np.ndarray,
    cell_size: float,
    sampling_step: float = 0.25,
) -> float:
    """Navigational clearance in meters between new structures and the fairway.

    A batch of one for fairway_clearances. A fully degenerate layout still
    has its attachment vertices, so the distance falls back to the
    attachment points.
    """
    runs = sample_runs(layout.polylines, segment_groups(layout.polylines), sampling_step)
    fairway = np.asarray(fairway, dtype=float)
    return float(fairway_clearances(runs, [len(runs)], fairway, sampling_step)[0]) * cell_size


def point_segment_distance(p, a, b) -> float:
    """Distance from point p to segment ab."""
    px, py = p[0] - a[0], p[1] - a[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    denom = sx * sx + sy * sy
    t = 0.0 if denom == 0.0 else min(1.0, max(0.0, (px * sx + py * sy) / denom))
    return math.hypot(px - t * sx, py - t * sy)


def point_polyline_distance(p, verts: np.ndarray) -> float:
    return min(point_segment_distance(p, a, b) for a, b in zip(verts[:-1], verts[1:]))
