"""Deterministic grid wave model and exchange formats.

The built-in model is a fast stand-in with the qualitative behaviour layout
optimization needs (shadowing behind obstacles, soft shadow edges), not a
physical solver. It runs in two stages:

1. Shadowing: for every water cell, a straight ray is traced against the
   wave travel direction until it leaves the grid. The cell height is the
   incident height times the product of the transmission coefficients of
   every obstacle cell the ray crosses. Land blocks waves completely.
   All rays are parallel, so the cells whose ray crosses land (the land
   shadow) depend only on the land mask and the direction; they are found
   once per grid and direction and cached. Every other cell only multiplies
   the coefficients of the obstacle cells on its ray, in path order: the
   skipped factors are exactly 1.0, so the result is bit-identical to
   multiplying along every ray cell by cell.
2. Diffusion: a fixed number of 3x3 neighbor-averaging passes restricted to
   water cells, which smears shadow edges.

A real solver can be plugged in through FileExchangeWaveModel, which talks
plain-text files in a work directory.
"""
from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import LAND, Material, ScenarioGrid, supercover_line

DEFAULT_TRANSMISSION = {Material.SOLID_WALL: 0.1, Material.TETRAPOD: 0.35}
DEFAULT_DIFFUSION_PASSES = 3

STDERR_TAIL_CHARS = 2000  # how much of a failing solver's stderr an error quotes

_NEIGHBOR_SHIFTS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]


@dataclass(frozen=True)
class BoundaryConditions:
    """Incident sea state: wave height in meters and travel direction in degrees."""

    incident_height: float
    wave_direction: float  # direction waves travel toward, degrees CCW from +x

    def __post_init__(self) -> None:
        if not self.incident_height > 0:
            raise ValueError("incident_height must be positive")


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

    def merged_with(self, other: "ObstacleSet") -> "ObstacleSet":
        # both sides hold clamped coefficients already, so no cell is re-validated
        out = ObstacleSet()
        cells = out.cells = dict(self.cells)
        for cell, coeff in other.cells.items():
            prev = cells.get(cell)
            cells[cell] = coeff if prev is None else min(prev, coeff)
        return out

    def __len__(self) -> int:
        return len(self.cells)


@lru_cache(maxsize=32)
def _ray_offsets(wave_direction: float, n_cols: int, n_rows: int) -> np.ndarray:
    """Supercover cell offsets of the upwave ray from a cell center, in path order.

    All rays are parallel, so one offset template traced from the origin
    serves every cell; out-of-grid offsets are skipped. Returns a read-only
    (K, 2) int array of (dx, dy) rows; row 0 is the cell itself.
    """
    theta = math.radians(wave_direction)
    reach = math.hypot(n_cols, n_rows) + 2.0
    end = (-reach * math.cos(theta), -reach * math.sin(theta))
    offsets = np.array(supercover_line((0.0, 0.0), end), dtype=np.intp)
    offsets.flags.writeable = False
    return offsets


@lru_cache(maxsize=32)
def _land_shadow(wave_direction: float, shape: tuple[int, int], land_bytes: bytes) -> np.ndarray:
    """Read-only mask of the cells whose upwave ray crosses land (land included).

    Keyed by value, so two grids with the same shape and a different land
    mask never share an entry. Runs once per grid and wave direction.
    """
    rows, cols = shape
    land = np.frombuffer(land_bytes, dtype=bool).reshape(shape)
    shadow = np.zeros(shape, dtype=bool)
    for ox, oy in _ray_offsets(wave_direction, cols, rows):
        r0, r1 = max(0, -oy), min(rows, rows - oy)
        c0, c1 = max(0, -ox), min(cols, cols - ox)
        if r0 < r1 and c0 < c1:
            shadow[r0:r1, c0:c1] |= land[r0 + oy : r1 + oy, c0 + ox : c1 + ox]
    shadow.flags.writeable = False
    return shadow


def simulate(
    grid: ScenarioGrid,
    obstacles: ObstacleSet,
    boundary: BoundaryConditions,
    diffusion_passes: int = DEFAULT_DIFFUSION_PASSES,
) -> np.ndarray:
    """Simulate the wave height field on the grid.

    Every cell starts at 1.0 and multiplies in the coefficient of each
    in-grid obstacle cell on its ray, in path order; the cells skipped have
    coefficient 1.0, and multiplying by 1.0 is exact, so each product is
    bit-identical to the cell-by-cell product along the whole ray. A ray
    that crosses land gives 0.0 whatever else it crosses, so the cached land
    shadow then sets those cells to 0.0, whatever obstacles (land ones
    included) they multiplied in.

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
    land = grid.land_mask
    direction = boundary.wave_direction
    shadow = _land_shadow(direction, land.shape, land.tobytes())

    n_cells = rows * cols
    factor = np.ones(n_cells)
    if obstacles.cells:
        n = len(obstacles.cells)
        cells = np.fromiter(chain.from_iterable(obstacles.cells), dtype=np.intp, count=2 * n)
        col, row = cells[0::2], cells[1::2]
        coeffs = np.fromiter(obstacles.cells.values(), dtype=float, count=n)
        keep = (col >= 0) & (col < cols) & (row >= 0) & (row < rows)
        col, row, coeffs = col[keep], row[keep], coeffs[keep]
        # (offset, obstacle) pairs, k-major: the downwave cell of obstacle j
        # at offset k is [k, j]; in that order every cell multiplies in its
        # obstacle coefficients in ray-path order
        offsets = _ray_offsets(direction, cols, rows)
        target_col = col - offsets[:, :1]
        target = (row * cols + col) - (offsets[:, 1:] * cols + offsets[:, :1])
        hit = (target_col >= 0) & (target_col < cols) & (target >= 0) & (target < n_cells)
        np.multiply.at(factor, target[hit], np.broadcast_to(coeffs, hit.shape)[hit])
    factor = factor.reshape(rows, cols)
    factor[shadow] = 0.0

    field = boundary.incident_height * factor
    if diffusion_passes > 0:
        field = _diffuse(field, ~land, diffusion_passes)
    return field


@lru_cache(maxsize=32)
def _neighbor_masks(shape: tuple[int, int], water_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Per-shift float masks of in-grid water neighbors, and 1 + their sum."""
    rows, cols = shape
    water = np.frombuffer(water_bytes, dtype=bool).reshape(shape)
    padded = np.zeros((rows + 2, cols + 2))
    padded[1:-1, 1:-1] = water
    masks = np.stack([padded[1 + dy : 1 + dy + rows, 1 + dx : 1 + dx + cols] for dy, dx in _NEIGHBOR_SHIFTS])
    count = np.ones(shape)  # the cell itself; land cells never read it
    for mask in masks:
        count += mask
    masks.flags.writeable = False
    count.flags.writeable = False
    return masks, count


def _diffuse(field: np.ndarray, water: np.ndarray, passes: int) -> np.ndarray:
    """Neighbor-averaging passes over water cells.

    Written in update form (cell + mean neighbor difference) so a constant
    field passes through bit-exactly. Each pass reads the neighbors from a
    zero-padded copy and multiplies every difference by a float mask that
    is 0.0 for land and off-grid neighbors. A masked term is +-0.0, and
    adding it to the accumulator, which starts at +0.0, leaves it
    unchanged, so the sum is bit-identical to adding only the water
    neighbors' differences.
    """
    rows, cols = field.shape
    masks, count = _neighbor_masks(field.shape, water.tobytes())
    land = ~water
    padded = np.zeros((rows + 2, cols + 2))
    out = padded[1:-1, 1:-1]
    out[...] = field
    delta = np.empty_like(field)
    term = np.empty_like(field)
    for _ in range(passes):
        delta.fill(0.0)
        for (dy, dx), mask in zip(_NEIGHBOR_SHIFTS, masks):
            np.subtract(padded[1 + dy : 1 + dy + rows, 1 + dx : 1 + dx + cols], out, out=term)
            term *= mask
            delta += term
        delta /= count
        out += delta
        out[land] = 0.0
    return out.copy()


def sample(field: np.ndarray, points) -> np.ndarray:
    """Bilinear interpolation of the field at continuous (x, y) points.

    Coordinates are clamped to the span of cell centers, so querying exactly
    at a center returns that cell's stored value.
    """
    rows, cols = field.shape
    out = np.empty(len(points))
    for i, (x, y) in enumerate(points):
        x = min(max(float(x), 0.0), cols - 1.0)
        y = min(max(float(y), 0.0), rows - 1.0)
        gx = min(int(math.floor(x)), cols - 2)
        gy = min(int(math.floor(y)), rows - 2)
        tx, ty = x - gx, y - gy
        top = (1.0 - tx) * field[gy, gx] + tx * field[gy, gx + 1]
        bottom = (1.0 - tx) * field[gy + 1, gx] + tx * field[gy + 1, gx + 1]
        out[i] = (1.0 - ty) * top + ty * bottom
    return out


class ShadowDiffusionModel:
    """Built-in stand-in wave model (see module docstring)."""

    def __init__(self, diffusion_passes: int = DEFAULT_DIFFUSION_PASSES):
        self.diffusion_passes = int(diffusion_passes)

    def simulate(self, grid, obstacles, boundary) -> np.ndarray:
        return simulate(grid, obstacles, boundary, self.diffusion_passes)


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
    """

    def __init__(self, command: list[str], workdir: str | Path):
        self.command = list(command)
        self.workdir = Path(workdir)

    def simulate(self, grid, obstacles, boundary) -> np.ndarray:
        self.workdir.mkdir(parents=True, exist_ok=True)
        write_field(self.workdir / "depth.txt", grid.depth)
        with open(self.workdir / "obstacles.txt", "w") as fh:
            for (col, row), coeff in sorted(obstacles.cells.items()):
                fh.write(f"{col} {row} {coeff!r}\n")
        with open(self.workdir / "boundary.txt", "w") as fh:
            fh.write(f"incident_height {boundary.incident_height!r}\n")
            fh.write(f"wave_direction {boundary.wave_direction!r}\n")
        done = subprocess.run(self.command, cwd=self.workdir, stderr=subprocess.PIPE)
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace")[-STDERR_TAIL_CHARS:]
            raise RuntimeError(
                f"external model {self.command!r} exited with status {done.returncode}; stderr tail: {tail!r}"
            )
        field = read_field(self.workdir / "heights.txt")
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
