"""Deterministic grid wave model and exchange formats.

The built-in model is a fast stand-in with the qualitative behaviour layout
optimization needs (shadowing behind obstacles, soft shadow edges), not a
physical solver. It runs in two stages:

1. Shadowing: for every water cell, a straight ray is traced against the
   wave travel direction until it leaves the grid. The cell height is the
   incident height times the product of the transmission coefficients of
   every obstacle cell the ray crosses. Land blocks waves completely.
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
        out = ObstacleSet(dict(self.cells))
        for cell, coeff in other.cells.items():
            out.add(cell, coeff)
        return out

    def __len__(self) -> int:
        return len(self.cells)


@lru_cache(maxsize=32)
def _ray_offsets(wave_direction: float, n_cols: int, n_rows: int) -> tuple[tuple[int, int], ...]:
    """Supercover cell offsets of the upwave ray from a cell center, in path order.

    All rays are parallel, so one offset template traced from the origin
    serves every cell; out-of-grid offsets are skipped during the sweep.
    """
    theta = math.radians(wave_direction)
    reach = math.hypot(n_cols, n_rows) + 2.0
    end = (-reach * math.cos(theta), -reach * math.sin(theta))
    return tuple(supercover_line((0.0, 0.0), end))


def simulate(
    grid: ScenarioGrid,
    obstacles: ObstacleSet,
    boundary: BoundaryConditions,
    diffusion_passes: int = DEFAULT_DIFFUSION_PASSES,
) -> np.ndarray:
    """Simulate the wave height field on the grid.

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
    coeff = np.ones((rows, cols))
    for (col, row), c in obstacles.cells.items():
        if 0 <= col < cols and 0 <= row < rows:
            coeff[row, col] = min(coeff[row, col], c)
    coeff[grid.land_mask] = 0.0

    # One multiply per template offset keeps the per-cell product in exact
    # path order, identical to tracing each ray on its own.
    factor = np.ones((rows, cols))
    for ox, oy in _ray_offsets(boundary.wave_direction, cols, rows):
        r0, r1 = max(0, -oy), min(rows, rows - oy)
        c0, c1 = max(0, -ox), min(cols, cols - ox)
        if r0 >= r1 or c0 >= c1:
            continue
        factor[r0:r1, c0:c1] *= coeff[r0 + oy : r1 + oy, c0 + ox : c1 + ox]

    field = boundary.incident_height * factor
    field[grid.land_mask] = 0.0
    if diffusion_passes > 0:
        field = _diffuse(field, ~grid.land_mask, diffusion_passes)
    return field


def _diffuse(field: np.ndarray, water: np.ndarray, passes: int) -> np.ndarray:
    """Neighbor-averaging passes over water cells.

    Written in update form (cell + mean neighbor difference) so a constant
    field passes through bit-exactly.
    """
    rows, cols = field.shape
    count = np.ones_like(field)  # the cell itself; land cells never read it
    for dy, dx in _NEIGHBOR_SHIFTS:
        r0, r1 = max(0, -dy), min(rows, rows - dy)
        c0, c1 = max(0, -dx), min(cols, cols - dx)
        count[r0:r1, c0:c1] += water[r0 + dy : r1 + dy, c0 + dx : c1 + dx]
    out = field
    for _ in range(passes):
        delta = np.zeros_like(out)
        for dy, dx in _NEIGHBOR_SHIFTS:
            r0, r1 = max(0, -dy), min(rows, rows - dy)
            c0, c1 = max(0, -dx), min(cols, cols - dx)
            nb_water = water[r0 + dy : r1 + dy, c0 + dx : c1 + dx]
            diff = out[r0 + dy : r1 + dy, c0 + dx : c1 + dx] - out[r0:r1, c0:c1]
            delta[r0:r1, c0:c1] += np.where(nb_water, diff, 0.0)
        out = np.where(water, out + delta / count, 0.0)
    return out


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
