"""Deterministic grid wave model and exchange formats.

The built-in model is a fast stand-in with the qualitative behaviour layout
optimization needs (shadowing behind obstacles, soft shadow edges), not a
physical solver. It reads a coefficient grid: every cell's transmission
coefficient, flat and row-major, 1.0 for no obstacle and 0.0 on land, plus
one 1.0 sentinel for rays that have left the grid. It runs in two stages:

1. Shadowing: a cell's height is the incident height times the product of
   the coefficients of the cells its upwave ray crosses, in path order,
   until the ray leaves the grid. Land blocks waves completely.
2. Diffusion: a fixed number of 3x3 neighbor-averaging passes restricted to
   water cells, which smears shadow edges.

One kernel runs both stages over a box of cells: `simulate` over the whole
grid, ShadowDiffusionModel.heights over only the cells that sampling a few
points reads, grown by one cell per diffusion pass, with the same bits.
The kernel takes one coefficient grid or a stack of them, one per column
(a generation's feasible layouts), read only at the cells the box's rays
reach (cells_read). It folds gathered blocks of rows, each product down a
ray and each neighbor sum in its own order, so a stack costs about as many
NumPy calls as one grid and its temporaries stay near GATHER_VALUES values.
Bilinear sampling runs vectorized over the points and the stack.

A real solver can be plugged in through FileExchangeWaveModel, which talks
plain-text files in a work directory and exchanges a full field per run.
"""
from __future__ import annotations

import math
import os
import subprocess
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import LAND, Material, ScenarioGrid, supercover_line

DEFAULT_TRANSMISSION = {Material.SOLID_WALL: 0.1, Material.TETRAPOD: 0.35}
DEFAULT_DIFFUSION_PASSES = 3

STDERR_TAIL_CHARS = 2000  # how much of a failing solver's stderr an error quotes
BAND_CELLS = 2048  # cells per box of full-grid simulate, which bounds its gather table
GATHER_VALUES = 8192  # values per gathered block of the kernel, which bounds its temporaries

_NEIGHBOR_SHIFTS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]


@dataclass(frozen=True)
class BoundaryConditions:
    """Incident sea state: wave height in meters and travel direction in degrees."""

    incident_height: float
    wave_direction: float  # direction waves travel toward, degrees CCW from +x

    def __post_init__(self) -> None:
        if not self.incident_height > 0:
            raise ValueError("incident_height must be positive")
        if not math.isfinite(self.wave_direction):
            raise ValueError(f"wave_direction must be finite, got {self.wave_direction}")


class ObstacleSet:
    """Obstacle cells with transmission coefficients in [0, 1].

    Duplicate cells resolve to the minimum (most blocking) coefficient.
    """

    def __init__(self, cells: dict[tuple[int, int], float] | None = None):
        self.cells: dict[tuple[int, int], float] = {}
        for cell, coeff in (cells or {}).items():
            self.add(cell, coeff)

    @classmethod
    def from_pairs(cls, pairs) -> "ObstacleSet":
        out = cls()
        for cell, coeff in pairs:
            out.add(cell, coeff)
        return out

    def add(self, cell: tuple[int, int], coeff: float) -> None:
        coeff = min(1.0, max(0.0, float(coeff)))
        cell = (int(cell[0]), int(cell[1]))
        prev = self.cells.get(cell)
        self.cells[cell] = coeff if prev is None else min(prev, coeff)


def coefficient_grid(grid: ScenarioGrid, cells) -> np.ndarray:
    """The coefficient grid of distinct ((col, row), coefficient) obstacle cells.

    Flat and row-major: a cell holds 1.0 where there is no obstacle, 0.0 on
    land, else its obstacle coefficient. Cells off the grid are dropped. One
    1.0 sentinel follows the grid's cells; a ray that has left the grid
    reads it.
    """
    rows, cols = grid.n_rows, grid.n_cols
    coefficients = np.ones(rows * cols + 1)
    coefficients[:-1][grid.land_mask.ravel()] = 0.0
    on_grid = [(cell, coeff) for cell, coeff in cells if 0 <= cell[0] < cols and 0 <= cell[1] < rows]
    return with_obstacles(coefficients, on_grid, cols)


def with_obstacles(coefficients: np.ndarray, cells, n_cols: int) -> np.ndarray:
    """A copy of a coefficient grid with distinct in-grid ((col, row), coefficient) cells written in.

    Each cell keeps the smaller of its old and new coefficient, as an
    ObstacleSet does; land stays 0.0.
    """
    out = coefficients.copy()
    if cells:
        index = [row * n_cols + col for (col, row), _ in cells]
        out[index] = np.minimum(out[index], [coeff for _, coeff in cells])
    return out


class _Box(NamedTuple):
    """Read-only tables of the kernel over a box of shape cells at origin (row, col).

    Box cells are numbered row-major, n of them.
      reads      flat grid indices of the cells the rays reach, ascending;
                 the sentinel, last, if a ray leaves the grid. The kernel
                 reads a coefficient grid at these cells only;
      rays       (offsets, n) position in reads of the cell each box cell's
                 upwave ray reaches at each offset, in path order, row 0 the
                 cell itself; the sentinel once the ray is off the grid.
                 Offsets at which every ray is off the grid are left out;
      neighbors  (8, n) box index of the neighbor at each of _NEIGHBOR_SHIFTS,
                 n (a 0.0 sentinel) outside the box;
      masks      (8, n) 1.0 where that neighbor is a water cell of the grid;
      count      1 + the sum of masks;
      land       box indices of land cells.
    """

    origin: tuple[int, int]
    shape: tuple[int, int]
    reads: np.ndarray
    rays: np.ndarray
    neighbors: np.ndarray
    masks: np.ndarray
    count: np.ndarray
    land: np.ndarray


def _box(wave_direction: float, land: np.ndarray, rows: range, cols: range) -> _Box:
    """The kernel's tables over the box rows x cols of a grid with this land mask."""
    n_rows, n_cols = land.shape
    theta = math.radians(wave_direction)
    reach = math.hypot(n_cols, n_rows) + 2.0
    end = (-reach * math.cos(theta), -reach * math.sin(theta))
    offsets = np.array(supercover_line((0.0, 0.0), end), dtype=np.intp)
    # a ray cell off the grid reads the sentinel, n_cells: its row or column
    # term is n_cells, so the sum is at least n_cells and np.minimum clips it
    n_cells = n_rows * n_cols
    ray_rows = np.arange(rows.start, rows.stop) + offsets[:, 1:]  # (offsets, box rows)
    ray_cols = np.arange(cols.start, cols.stop) + offsets[:, :1]  # (offsets, box columns)
    row_in = (ray_rows >= 0) & (ray_rows < n_rows)
    col_in = (ray_cols >= 0) & (ray_cols < n_cols)
    reaches = row_in.any(axis=1) & col_in.any(axis=1)
    row_terms = np.where(row_in, ray_rows * n_cols, n_cells)[reaches]
    col_terms = np.where(col_in, ray_cols, n_cells)[reaches]
    rays = row_terms[:, :, None] + col_terms[:, None, :]
    np.minimum(rays, n_cells, out=rays)
    read = np.zeros(n_cells + 1, dtype=bool)
    read[rays] = True
    reads = np.flatnonzero(read)
    rays = (np.cumsum(read) - 1)[rays]

    # flat indices into the grid padded by one cell, whose border is neither
    # water nor in the box
    width = n_cols + 2
    r, c = np.divmod(np.arange(len(rows) * len(cols)), len(cols))
    cells = (r + rows.start + 1) * width + (c + cols.start + 1)
    around = cells + np.array([dy * width + dx for dy, dx in _NEIGHBOR_SHIFTS])[:, None]
    water = np.zeros((n_rows + 2, width), dtype=bool)
    water[1:-1, 1:-1] = ~land
    index = np.full(water.size, len(cells))
    index[cells] = np.arange(len(cells))
    masks = water.ravel()[around].astype(float)
    box = _Box(
        origin=(rows.start, cols.start),
        shape=(len(rows), len(cols)),
        reads=reads,
        rays=rays.reshape(-1, len(rows) * len(cols)),
        neighbors=index[around],
        masks=masks,
        count=1.0 + masks.sum(axis=0),
        land=np.flatnonzero(land[rows.start : rows.stop, cols.start : cols.stop]),
    )
    for table in (box.reads, box.rays, box.neighbors, box.masks, box.count, box.land):
        table.flags.writeable = False
    return box


def _fold(ufunc, source: np.ndarray, index: np.ndarray, out: np.ndarray, less=None, times=None) -> None:
    """out = ufunc folded, in row order, over the rows of source[index]: source[index[0]] first.

    source is (m,) + tail, index (k, n) and out (n,) + tail, for any tail
    (a batch axis, or none). With less and times, each gathered row i
    becomes (row - less) * times[i] before it is folded in; times is
    (k, n) + (1,) * len(tail). The rows are gathered into one buffer of
    about GATHER_VALUES values, a block at a time; each block after the
    first goes in behind out, so ufunc.reduce over the buffer continues the
    fold where the last block stopped and every result keeps its order of
    operations.
    """
    rows = max(1, GATHER_VALUES // out.size)
    buffer = np.empty((min(rows, len(index)) + 1,) + out.shape)
    for start in range(0, len(index), rows):
        block = index[start : start + rows]
        part = buffer[: len(block) + 1]
        source.take(block, axis=0, out=part[1:], mode="clip")  # every index is in range
        if less is not None:
            part[1:] -= less
            part[1:] *= times[start : start + rows]
        if start:
            part[0] = out
        else:
            part = part[1:]
        ufunc.reduce(part, axis=0, out=out)


def _shadow_diffuse(coefficients: np.ndarray, box: _Box, incident_height: float, passes: int) -> np.ndarray:
    """Heights over the box's cells, shaped (n, B): the one shadow-and-diffuse kernel.

    coefficients is one coefficient grid at the box's reads, or a
    (len(box.reads), B) stack with one grid per column, and each grid gets
    its own heights: (n,) or (n, B), box cells in row-major order.
    Shadowing multiplies the coefficients gathered through box.rays, so
    each cell multiplies in its ray's coefficients in path order. Every
    factor off the obstacles is exactly 1.0 and leaves the product
    unchanged, and a ray that crosses land multiplies in 0.0.

    Each diffusion pass adds the mean neighbor difference (update form, so a
    constant field passes through bit-exactly). The 8 differences are masked
    (0.0 for land and off-grid neighbors) and summed in _NEIGHBOR_SHIFTS
    order. A masked term is +-0.0, which changes no nonzero sum and at most
    the sign of a zero one, which adding it to a height loses; so the sum is
    that of the water neighbors alone. Land is reset to 0.0 after each pass.

    Neighbors outside the box read 0.0. The wrong values this leaves on the
    box's edge move inward one cell per pass, so a box grown by one cell
    per pass around the cells that matter keeps those exact.

    Both stages fold over gathered rows (_fold), so B grids take about as
    many NumPy calls as one, each over B contiguous values per cell, and
    the temporaries stay near GATHER_VALUES values whatever B and the ray
    length.
    """
    n, tail = box.rays.shape[1], coefficients.shape[1:]
    field = np.empty((n + 1,) + tail)
    field[-1] = 0.0
    heights = field[:-1]
    _fold(np.multiply, coefficients, box.rays, heights)
    heights *= incident_height
    delta = np.empty((n,) + tail)
    masks = box.masks.reshape(box.masks.shape + (1,) * len(tail))
    count = box.count.reshape((n,) + (1,) * len(tail))
    for _ in range(passes):
        _fold(np.add, field, box.neighbors, delta, less=heights, times=masks)
        delta /= count
        heights += delta
        heights[box.land] = 0.0
    return heights


def simulate(
    grid: ScenarioGrid,
    obstacles: ObstacleSet,
    boundary: BoundaryConditions,
    diffusion_passes: int = DEFAULT_DIFFUSION_PASSES,
) -> np.ndarray:
    """Simulate the wave height field on the whole grid.

    The kernel runs over bands of whole rows of about BAND_CELLS cells, each
    grown by one row per diffusion pass on both sides, which keeps the rows
    of the band exact; so the gather table stays small whatever the grid.

    Args:
        grid: bathymetry grid; land cells block waves entirely.
        obstacles: transmission coefficients of structure cells.
        boundary: incident height and travel direction.
        diffusion_passes: number of 3x3 smoothing passes after shadowing.

    Returns:
        (n_rows, n_cols) array of heights in meters; 0 on land, elsewhere
        within [0, incident_height].
    """
    rows, cols = grid.n_rows, grid.n_cols
    coefficients = coefficient_grid(grid, obstacles.cells.items())
    field = np.empty((rows, cols))
    band = max(1, BAND_CELLS // cols - 2 * diffusion_passes)
    for top in range(0, rows, band):
        box_rows = range(max(0, top - diffusion_passes), min(rows, top + band + diffusion_passes))
        box = _box(boundary.wave_direction, grid.land_mask, box_rows, range(cols))
        part = _shadow_diffuse(coefficients[box.reads], box, boundary.incident_height, diffusion_passes)
        field[top : top + band] = part.reshape(box.shape)[top - box_rows.start :][:band]
    return field


@lru_cache(maxsize=32)
def _point_box(
    wave_direction: float, land_bytes: bytes, shape: tuple[int, int], passes: int, points_bytes: bytes
) -> tuple[_Box, _Bilinear]:
    """The box that heights at these points need, and the bilinear tables of the points in it.

    Cached by value, so two grids of one shape but different land never
    share an entry. The box holds the 2x2 cells that sample reads around
    each point, grown by one cell per diffusion pass and clipped to the
    grid. The points are clamped as sample clamps them, then shifted by the
    box's origin; the shifts are whole numbers no larger than the clamped
    coordinates, so they are exact, and the tables read the same cells with
    the same weights in the box that sample reads in the grid.
    """
    n_rows, n_cols = shape
    land = np.frombuffer(land_bytes, dtype=bool).reshape(shape)
    clamped = [
        (min(max(x, 0.0), n_cols - 1.0), min(max(y, 0.0), n_rows - 1.0))
        for x, y in np.frombuffer(points_bytes).reshape(-1, 2).tolist()
    ]
    gx = [min(math.floor(x), n_cols - 2) for x, _ in clamped]
    gy = [min(math.floor(y), n_rows - 2) for _, y in clamped]
    rows = range(max(0, min(gy) - passes), min(n_rows, max(gy) + 2 + passes))
    cols = range(max(0, min(gx) - passes), min(n_cols, max(gx) + 2 + passes))
    box = _box(wave_direction, land, rows, cols)
    return box, _bilinear_table([(x - cols.start, y - rows.start) for x, y in clamped], *box.shape)


class _Bilinear(NamedTuple):
    """Read-only tables of bilinear sampling at p points of a (rows, cols) field.

    corners is (4, p): the flat index of each point's cells (row, col),
    (row, col + 1), (row + 1, col) and (row + 1, col + 1); tx and ty are
    its offsets from the first. Points are clamped to the span of cell
    centers first.
    """

    corners: np.ndarray
    tx: np.ndarray
    ty: np.ndarray


def _bilinear_table(points, rows: int, cols: int) -> _Bilinear:
    corners, tx, ty = [], [], []
    for x, y in points:
        x = min(max(float(x), 0.0), cols - 1.0)
        y = min(max(float(y), 0.0), rows - 1.0)
        gx = min(int(math.floor(x)), cols - 2)
        gy = min(int(math.floor(y)), rows - 2)
        first = gy * cols + gx
        corners.append((first, first + 1, first + cols, first + cols + 1))
        tx.append(x - gx)
        ty.append(y - gy)
    table = _Bilinear(np.array(corners, dtype=np.intp).reshape(-1, 4).T, np.array(tx), np.array(ty))
    for array in table:
        array.flags.writeable = False
    return table


def _bilinear(values: np.ndarray, table: _Bilinear) -> np.ndarray:
    """Bilinear samples, shaped (p,) + values.shape[1:], of the flat row-major cells along values' first axis.

    Each is (1 - ty) * top + ty * bottom with top and bottom the
    x-interpolations (1 - tx) * f0 + tx * f1 of the two rows, elementwise
    over the points and any further axes of values.
    """
    f = np.take(values, table.corners, axis=0)
    tx, ty = (t.reshape(t.shape + (1,) * (values.ndim - 1)) for t in table[1:])
    top = (1.0 - tx) * f[0] + tx * f[1]
    bottom = (1.0 - tx) * f[2] + tx * f[3]
    return (1.0 - ty) * top + ty * bottom


def sample(field: np.ndarray, points) -> np.ndarray:
    """Bilinear interpolation of the (rows, cols) field at continuous (x, y) points.

    Coordinates are clamped to the span of cell centers, so querying exactly
    at a center returns that cell's stored value.
    """
    return _bilinear(field.reshape(-1), _bilinear_table(points, *field.shape))


class ShadowDiffusionModel:
    """Built-in stand-in wave model (see module docstring)."""

    def __init__(self, diffusion_passes: int = DEFAULT_DIFFUSION_PASSES):
        self.diffusion_passes = int(diffusion_passes)

    def simulate(self, grid, obstacles, boundary) -> np.ndarray:
        return simulate(grid, obstacles, boundary, self.diffusion_passes)

    def _point_box(self, grid, boundary, points) -> tuple[_Box, _Bilinear]:
        land = grid.land_mask
        points = np.asarray(points, dtype=float)
        return _point_box(
            boundary.wave_direction, land.tobytes(), land.shape, self.diffusion_passes, points.tobytes()
        )

    def cells_read(self, grid, boundary, points) -> np.ndarray:
        """Flat indices, ascending, of the coefficient-grid cells that heights at these points read."""
        return self._point_box(grid, boundary, points)[0].reads

    def heights(self, grid, coefficients, boundary, points) -> np.ndarray:
        """Heights at the points, the same bits as sample(self.simulate(...), points).

        coefficients is the coefficient grid of every obstacle (see
        coefficient_grid), or a (cells + 1, B) stack of B such grids, one
        per column, which gives a (B, len(points)) array of heights. A grid
        may also hold only the cells of cells_read(grid, boundary, points),
        in that order: the only cells heights reads (when they are every
        cell, both forms are the same). Only the box the points need is
        computed.
        """
        box, table = self._point_box(grid, boundary, points)
        if len(coefficients) != len(box.reads):
            coefficients = np.take(coefficients, box.reads, axis=0)
        field = _shadow_diffuse(coefficients, box, boundary.incident_height, self.diffusion_passes)
        return _bilinear(field, table).T


class FileExchangeWaveModel:
    """Adapter that delegates the simulation to an external command.

    Per call, the adapter writes into the work directory
        depth.txt      depth matrix in meters, land cells as the land sentinel
        obstacles.txt  one 'col row coefficient' line per obstacle cell
        boundary.txt   'incident_height <m>' and 'wave_direction <deg>' lines
    then runs the command with the work directory as cwd and reads back
        heights.txt    n_rows lines of n_cols space-separated heights (m)
    Heights on land cells are ignored and forced to zero; a NaN, infinite or
    negative height on a water cell raises ValueError. A nonzero exit status
    raises RuntimeError naming the status and the tail of the command's
    stderr.

    A call from a process other than the one that built the adapter (a
    forked participant of parallel.share) uses workdir/worker_<pid>
    instead, so concurrent runs never overwrite each other's files.
    """

    def __init__(self, command: list[str], workdir: str | Path):
        self.command = list(command)
        self.workdir = Path(workdir)
        self._pid = os.getpid()

    def simulate(self, grid, obstacles, boundary) -> np.ndarray:
        pid = os.getpid()
        workdir = self.workdir if pid == self._pid else self.workdir / f"worker_{pid}"
        workdir.mkdir(parents=True, exist_ok=True)
        write_field(workdir / "depth.txt", grid.depth)
        with open(workdir / "obstacles.txt", "w") as fh:
            for (col, row), coeff in sorted(obstacles.cells.items()):
                fh.write(f"{col} {row} {coeff!r}\n")
        with open(workdir / "boundary.txt", "w") as fh:
            fh.write(f"incident_height {boundary.incident_height!r}\n")
            fh.write(f"wave_direction {boundary.wave_direction!r}\n")
        done = subprocess.run(self.command, cwd=workdir, stderr=subprocess.PIPE)
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace")[-STDERR_TAIL_CHARS:]
            raise RuntimeError(
                f"external model {self.command!r} exited with status {done.returncode}; stderr tail: {tail!r}"
            )
        field = read_field(workdir / "heights.txt")
        if field.shape != (grid.n_rows, grid.n_cols):
            raise ValueError(
                f"external model returned shape {field.shape}, expected {(grid.n_rows, grid.n_cols)}"
            )
        bad = ~grid.land_mask & ~((field >= 0.0) & (field < np.inf))  # NaN fails both
        if bad.any():
            raise ValueError(
                f"external model returned {int(bad.sum())} NaN, infinite or negative "
                f"water-cell heights, first at (row, col) = {tuple(np.argwhere(bad)[0].tolist())}"
            )
        field = field.copy()
        field[grid.land_mask] = 0.0
        return field


def write_field(path: str | Path, field: np.ndarray, land_mask: np.ndarray | None = None) -> None:
    """Write a matrix as plain text, one grid row per line.

    Values are formatted with repr so a read back bit-matches. If a land
    mask is given, land cells are written as the land sentinel.
    """
    values = np.asarray(field, dtype=float)
    if land_mask is not None:
        values = np.where(land_mask, LAND, values)
    with open(path, "w") as fh:
        for row in values:
            # plain-float repr: numpy scalar repr is not readable by float()
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_field(path: str | Path) -> np.ndarray:
    with open(path) as fh:
        rows = [[float(tok) for tok in line.split()] for line in fh if line.strip()]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: not a rectangular matrix")
    return np.array(rows, dtype=float)
