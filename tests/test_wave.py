import math
import sys

import numpy as np
import pytest

from bwopt import wave
from bwopt.geometry import LAND, ScenarioGrid, supercover_line
from bwopt.wave import (
    BoundaryConditions,
    FileExchangeWaveModel,
    ObstacleSet,
    STDERR_TAIL_CHARS,
    ShadowDiffusionModel,
    _point_box,
    coefficient_grid,
    read_field,
    sample,
    simulate,
    with_obstacles,
    write_field,
)

H0 = 2.0


def open_grid(n_cols=12, n_rows=10):
    return ScenarioGrid(np.full((n_rows, n_cols), 5.0), 25.0)


def south_boundary():
    # waves travel toward +y, i.e. from the open sea at the low rows
    return BoundaryConditions(incident_height=H0, wave_direction=90.0)


# ----- exact base cases -----

def test_open_water_is_uniform_incident_height():
    field = simulate(open_grid(), ObstacleSet(), south_boundary())
    assert np.all(field == H0)


def test_full_width_wall_shadows_exactly():
    grid = open_grid()
    wall_row = 4
    obstacles = ObstacleSet({(c, wall_row): 0.1 for c in range(grid.n_cols)})
    field = simulate(grid, obstacles, south_boundary(), diffusion_passes=0)
    assert np.all(field[:wall_row] == H0)
    assert np.all(field[wall_row:] == 0.1 * H0)


def test_vertical_ray_oracle_column_products():
    # direction 90 degrees means each column is independent: the height at
    # (row, col) is H0 times the product of the column's coefficients at or
    # below that row, which a cumulative product computes directly
    grid = open_grid(n_cols=6, n_rows=8)
    rng = np.random.default_rng(7)
    coeff = np.ones((8, 6))
    cells = {}
    for _ in range(10):
        col, row = int(rng.integers(0, 6)), int(rng.integers(0, 8))
        c = float(rng.uniform(0.05, 0.9))
        cells[(col, row)] = min(c, cells.get((col, row), 1.0))
        coeff[row, col] = min(coeff[row, col], c)
    field = simulate(grid, ObstacleSet(cells), south_boundary(), diffusion_passes=0)
    oracle = H0 * np.cumprod(coeff, axis=0)
    assert field == pytest.approx(oracle, rel=1e-12)


def test_horizontal_ray_oracle_row_products():
    grid = open_grid(n_cols=9, n_rows=5)
    boundary = BoundaryConditions(incident_height=H0, wave_direction=0.0)
    obstacles = ObstacleSet({(3, 2): 0.5, (6, 2): 0.5, (4, 0): 0.2})
    field = simulate(grid, obstacles, boundary, diffusion_passes=0)
    coeff = np.ones((5, 9))
    coeff[2, 3] = coeff[2, 6] = 0.5
    coeff[0, 4] = 0.2
    assert field == pytest.approx(H0 * np.cumprod(coeff, axis=1), rel=1e-12)


def test_land_blocks_completely():
    depth = np.full((10, 12), 5.0)
    depth[4, :] = LAND
    grid = ScenarioGrid(depth, 25.0)
    field = simulate(grid, ObstacleSet(), south_boundary(), diffusion_passes=0)
    assert np.all(field[:4] == H0)
    assert np.all(field[4:] == 0.0)


def test_unit_transmission_is_transparent():
    grid = open_grid()
    obstacles = ObstacleSet({(c, 3): 1.0 for c in range(grid.n_cols)})
    field = simulate(grid, obstacles, south_boundary())
    assert np.all(field == H0)


# ----- independent two-stage oracle on an oblique direction -----

def shadow_oracle(grid, cells, boundary, samples=20001):
    """Trace each cell's upwave ray by dense sampling, then multiply coefficients.

    Dense sampling only sees cells crossed with positive measure; exact corner
    touches are avoided by the test's choice of obstacle positions.
    """
    theta = np.radians(boundary.wave_direction)
    reach = np.hypot(grid.n_cols, grid.n_rows) + 2.0
    ts = np.linspace(0.0, 1.0, samples)
    field = np.zeros((grid.n_rows, grid.n_cols))
    coeff = {cell: c for cell, c in cells.items()}
    for row in range(grid.n_rows):
        for col in range(grid.n_cols):
            if grid.land_mask[row, col]:
                continue
            xs = col - ts * reach * np.cos(theta)
            ys = row - ts * reach * np.sin(theta)
            ray_cells = set(
                zip(
                    np.floor(xs + 0.5).astype(int).tolist(),
                    np.floor(ys + 0.5).astype(int).tolist(),
                )
            )
            f = 1.0
            for cell in ray_cells:
                c, r = cell
                if 0 <= c < grid.n_cols and 0 <= r < grid.n_rows and grid.land_mask[r, c]:
                    f = 0.0
                f *= coeff.get(cell, 1.0)
            field[row, col] = boundary.incident_height * f
    return field


def test_oblique_shadowing_matches_sampling_oracle():
    grid = open_grid(n_cols=10, n_rows=8)
    boundary = BoundaryConditions(incident_height=H0, wave_direction=105.0)
    # obstacle cells away from exact corner alignments of the 105-degree ray
    cells = {(3, 4): 0.1, (4, 4): 0.1, (6, 2): 0.35, (7, 5): 0.5}
    got = simulate(grid, ObstacleSet(cells), boundary, diffusion_passes=0)
    oracle = shadow_oracle(grid, cells, boundary)
    assert got == pytest.approx(oracle, rel=1e-9)


# ----- properties -----

def test_bounds_and_land_zero_on_random_fields():
    rng = np.random.default_rng(11)
    for _ in range(20):
        depth = np.full((9, 9), 5.0)
        for _ in range(6):
            depth[rng.integers(0, 9), rng.integers(0, 9)] = LAND
        grid = ScenarioGrid(depth, 25.0)
        cells = {
            (int(rng.integers(0, 9)), int(rng.integers(0, 9))): float(rng.uniform(0, 1))
            for _ in range(5)
        }
        direction = float(rng.uniform(-180, 180))
        field = simulate(grid, ObstacleSet(cells), BoundaryConditions(H0, direction))
        assert np.all(field >= 0.0) and np.all(field <= H0 + 1e-12)
        assert np.all(field[grid.land_mask] == 0.0)


def test_adding_obstacles_never_raises_heights():
    rng = np.random.default_rng(23)
    grid = open_grid(n_cols=10, n_rows=10)
    violations = 0
    for _ in range(100):
        base_cells = {
            (int(rng.integers(0, 10)), int(rng.integers(0, 10))): float(rng.uniform(0.05, 1))
            for _ in range(rng.integers(0, 4))
        }
        extra_cells = dict(base_cells)
        for _ in range(int(rng.integers(1, 6))):
            cell = (int(rng.integers(0, 10)), int(rng.integers(0, 10)))
            value = float(rng.uniform(0.05, 1))
            extra_cells[cell] = min(value, extra_cells.get(cell, 1.0))
        direction = float(rng.uniform(-180, 180))
        boundary = BoundaryConditions(H0, direction)
        base = simulate(grid, ObstacleSet(base_cells), boundary)
        more = simulate(grid, ObstacleSet(extra_cells), boundary)
        violations += int(np.any(more > base + 1e-12))
    assert violations == 0


def test_mirror_symmetry_about_x_axis():
    grid = open_grid(n_cols=10, n_rows=8)
    cells = {(3, 2): 0.1, (6, 5): 0.35}
    mirrored = {(c, grid.n_rows - 1 - r): v for (c, r), v in cells.items()}
    f1 = simulate(grid, ObstacleSet(cells), BoundaryConditions(H0, 70.0))
    f2 = simulate(grid, ObstacleSet(mirrored), BoundaryConditions(H0, -70.0))
    assert f1 == pytest.approx(f2[::-1], abs=1e-12)


def test_diffusion_smears_but_preserves_constants():
    grid = open_grid()
    wall_row = 4
    obstacles = ObstacleSet({(c, wall_row): 0.1 for c in range(grid.n_cols)})
    sharp = simulate(grid, obstacles, south_boundary(), diffusion_passes=0)
    smooth = simulate(grid, obstacles, south_boundary(), diffusion_passes=3)
    # rows far from the wall keep their plateau values; the step is softened
    assert np.all(smooth[0] == H0)
    jump_sharp = sharp[wall_row + 1, 5] - sharp[wall_row - 1, 5]
    jump_smooth = smooth[wall_row + 1, 5] - smooth[wall_row - 1, 5]
    assert abs(jump_smooth) < abs(jump_sharp)


# ----- bit-exact oracle: the dense per-offset kernel -----
# dense_simulate and dense_diffuse are the earlier kernel kept verbatim as the
# reference: one whole-grid multiply per ray offset, np.where per shift. The
# box kernel must reproduce every byte of their output, over the whole grid
# (simulate) and at points (ShadowDiffusionModel.heights).

NEIGHBOR_SHIFTS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]


def dense_ray_offsets(wave_direction, n_cols, n_rows):
    theta = math.radians(wave_direction)
    reach = math.hypot(n_cols, n_rows) + 2.0
    end = (-reach * math.cos(theta), -reach * math.sin(theta))
    return tuple(supercover_line((0.0, 0.0), end))


def dense_simulate(grid, obstacles, boundary, diffusion_passes):
    rows, cols = grid.n_rows, grid.n_cols
    coeff = np.ones((rows, cols))
    for (col, row), c in obstacles.cells.items():
        if 0 <= col < cols and 0 <= row < rows:
            coeff[row, col] = min(coeff[row, col], c)
    coeff[grid.land_mask] = 0.0
    factor = np.ones((rows, cols))
    for ox, oy in dense_ray_offsets(boundary.wave_direction, cols, rows):
        r0, r1 = max(0, -oy), min(rows, rows - oy)
        c0, c1 = max(0, -ox), min(cols, cols - ox)
        if r0 >= r1 or c0 >= c1:
            continue
        factor[r0:r1, c0:c1] *= coeff[r0 + oy : r1 + oy, c0 + ox : c1 + ox]
    field = boundary.incident_height * factor
    field[grid.land_mask] = 0.0
    if diffusion_passes > 0:
        field = dense_diffuse(field, ~grid.land_mask, diffusion_passes)
    return field


def dense_diffuse(field, water, passes):
    rows, cols = field.shape
    count = np.ones_like(field)
    for dy, dx in NEIGHBOR_SHIFTS:
        r0, r1 = max(0, -dy), min(rows, rows - dy)
        c0, c1 = max(0, -dx), min(cols, cols - dx)
        count[r0:r1, c0:c1] += water[r0 + dy : r1 + dy, c0 + dx : c1 + dx]
    out = field
    for _ in range(passes):
        delta = np.zeros_like(out)
        for dy, dx in NEIGHBOR_SHIFTS:
            r0, r1 = max(0, -dy), min(rows, rows - dy)
            c0, c1 = max(0, -dx), min(cols, cols - dx)
            nb_water = water[r0 + dy : r1 + dy, c0 + dx : c1 + dx]
            diff = out[r0 + dy : r1 + dy, c0 + dx : c1 + dx] - out[r0:r1, c0:c1]
            delta[r0:r1, c0:c1] += np.where(nb_water, diff, 0.0)
        out = np.where(water, out + delta / count, 0.0)
    return out


def random_grid(rng, n_cols, n_rows):
    depth = rng.uniform(1.0, 20.0, size=(n_rows, n_cols))
    depth[rng.random((n_rows, n_cols)) < rng.uniform(0.0, 0.3)] = LAND
    return ScenarioGrid(depth, 25.0)


def random_obstacles(rng, grid):
    """Obstacle cells on water and on land, some outside the grid, some at 0.0 or 1.0."""
    cells = {}
    for _ in range(int(rng.integers(0, 40))):
        cell = (int(rng.integers(-3, grid.n_cols + 3)), int(rng.integers(-3, grid.n_rows + 3)))
        u = rng.random()
        cells[cell] = 0.0 if u < 0.1 else 1.0 if u < 0.2 else float(rng.uniform(0.05, 0.95))
    return ObstacleSet(cells)


ORACLE_DIRECTIONS = (0.0, 45.0, 90.0, 105.0, 135.0, 200.0, 315.0)


def test_simulate_is_bit_identical_to_dense_kernel():
    rng = np.random.default_rng(2024)
    directions = ORACLE_DIRECTIONS + (float(rng.uniform(-180.0, 180.0)),)
    cases = 0
    for trial in range(6):
        grid = random_grid(rng, int(rng.integers(5, 25)), int(rng.integers(5, 20)))
        obstacle_sets = [ObstacleSet(), random_obstacles(rng, grid), random_obstacles(rng, grid)]
        for direction in directions:
            boundary = BoundaryConditions(float(rng.uniform(0.5, 3.0)), direction)
            for obstacles in obstacle_sets:
                passes = int(rng.integers(0, 4))
                got = simulate(grid, obstacles, boundary, diffusion_passes=passes)
                want = dense_simulate(grid, obstacles, boundary, passes)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (trial, direction, passes)
                cases += 1
    assert cases == 6 * len(directions) * 3


def test_simulate_matches_dense_kernel_on_long_obstacle_chains():
    # rays that cross many obstacle cells make the product order matter
    rng = np.random.default_rng(5)
    depth = np.full((30, 40), 8.0)
    depth[rng.random((30, 40)) < 0.03] = LAND
    grid = ScenarioGrid(depth, 25.0)
    cells = {}
    for _ in range(150):
        cells[(int(rng.integers(0, 40)), int(rng.integers(0, 30)))] = float(rng.uniform(0.05, 0.95))
    obstacles = ObstacleSet(cells)
    for direction in ORACLE_DIRECTIONS:
        boundary = BoundaryConditions(H0, direction)
        for passes in range(4):
            got = simulate(grid, obstacles, boundary, diffusion_passes=passes)
            want = dense_simulate(grid, obstacles, boundary, passes)
            assert got.tobytes() == want.tobytes(), (direction, passes)


@pytest.mark.parametrize("band_cells", [1, 40])
def test_simulate_in_narrow_bands_is_bit_identical_to_dense_kernel(band_cells, monkeypatch):
    # one row per band, then a few rows: every band edge is a box edge
    import bwopt.wave as wave

    monkeypatch.setattr(wave, "BAND_CELLS", band_cells)
    rng = np.random.default_rng(77)
    for trial in range(4):
        grid = random_grid(rng, int(rng.integers(2, 12)), int(rng.integers(8, 16)))
        obstacles = random_obstacles(rng, grid)
        for direction in ORACLE_DIRECTIONS:
            boundary = BoundaryConditions(H0, direction)
            for passes in range(4):
                got = simulate(grid, obstacles, boundary, diffusion_passes=passes)
                want = dense_simulate(grid, obstacles, boundary, passes)
                assert got.tobytes() == want.tobytes(), (trial, direction, passes)


def test_land_shadow_cache_never_serves_a_stale_shadow():
    # same shape, different land: a cache of heights' box tables keyed by
    # shape or object identity would hand one grid's tables to the other
    rng = np.random.default_rng(31)
    grids = [random_grid(rng, 16, 12) for _ in range(2)]
    assert grids[0].land_mask.shape == grids[1].land_mask.shape
    assert not np.array_equal(grids[0].land_mask, grids[1].land_mask)
    obstacles = random_obstacles(rng, grids[0])
    boundaries = [BoundaryConditions(H0, 60.0), BoundaryConditions(H0, 250.0)]
    points = [(3.0, 4.5), (7.25, 6.0)]
    model = ShadowDiffusionModel(2)
    for _ in range(3):
        for grid in grids:
            coefficients = coefficient_grid(grid, obstacles.cells.items())
            for boundary in boundaries:
                got = simulate(grid, obstacles, boundary, diffusion_passes=2)
                want = dense_simulate(grid, obstacles, boundary, 2)
                assert got.tobytes() == want.tobytes()
                heights = model.heights(grid, coefficients, boundary, points)
                assert heights.tobytes() == sample(want, points).tobytes()


# ----- heights over the control points' box, against the dense oracle -----

def edge_points(rng, grid):
    """Cell centers, points on the last row and column, corners and in-bounds points off the centers."""
    last_x, last_y = grid.n_cols - 1.0, grid.n_rows - 1.0
    center = (float(rng.integers(0, grid.n_cols)), float(rng.integers(0, grid.n_rows)))
    return [
        [center],
        [(0.0, 0.0), (last_x, last_y)],
        [(last_x, 0.0), (0.0, last_y)],
        [(float(rng.uniform(0.0, last_x)), last_y), (last_x, float(rng.uniform(0.0, last_y)))],
        [(-0.5, -0.5), (last_x + 0.49, last_y + 0.49)],
        [tuple(p) for p in rng.uniform(-0.5, [last_x + 0.49, last_y + 0.49], size=(3, 2))],
    ]


def test_heights_are_bit_identical_to_the_dense_kernel():
    rng = np.random.default_rng(99)
    border = {"touches": 0, "inside": 0}
    cases = 0
    for trial in range(12):
        shape = (int(rng.integers(2, 30)), int(rng.integers(2, 24))) if trial else (2, 2)
        grid = random_grid(rng, *shape)
        obstacle_sets = [ObstacleSet(), random_obstacles(rng, grid)]
        for direction in ORACLE_DIRECTIONS:
            boundary = BoundaryConditions(float(rng.uniform(0.5, 3.0)), direction)
            for obstacles in obstacle_sets:
                coefficients = coefficient_grid(grid, obstacles.cells.items())
                for passes in range(4):
                    field = dense_simulate(grid, obstacles, boundary, passes)
                    model = ShadowDiffusionModel(passes)
                    for points in edge_points(rng, grid):
                        got = model.heights(grid, coefficients, boundary, points)
                        assert got.tobytes() == sample(field, points).tobytes(), (trial, direction, passes, points)
                        box, _ = _point_box(direction, grid.land_mask.tobytes(), grid.land_mask.shape,
                                            passes, np.asarray(points, dtype=float).tobytes())
                        (r0, c0), (rows, cols) = box.origin, box.shape
                        edge = r0 == 0 or c0 == 0 or r0 + rows == grid.n_rows or c0 + cols == grid.n_cols
                        border["touches" if edge else "inside"] += 1
                        cases += 1
    assert cases == 12 * len(ORACLE_DIRECTIONS) * 2 * 4 * 6
    assert border["touches"] > 0 and border["inside"] > 0, border


@pytest.mark.parametrize("gather", [wave.GATHER_VALUES, 8192, 1, 97])
def test_stacked_heights_match_each_grid_sampled_from_the_dense_kernel(gather, monkeypatch):
    # every block size folds the same products and sums: 1 gathers one row per block, and
    # 8192 was GATHER_VALUES before it was raised to 32768 with the same bits
    monkeypatch.setattr(wave, "GATHER_VALUES", gather)
    rng = np.random.default_rng(59)
    stacks = 0
    for trial in range(8):
        grid = random_grid(rng, int(rng.integers(2, 26)), int(rng.integers(2, 20)))
        obstacle_sets = [ObstacleSet()] + [random_obstacles(rng, grid) for _ in range(int(rng.integers(1, 12)))]
        stack = np.column_stack([coefficient_grid(grid, obstacles.cells.items()) for obstacles in obstacle_sets])
        for direction in ORACLE_DIRECTIONS[trial % 3 :: 3]:
            boundary = BoundaryConditions(float(rng.uniform(0.5, 3.0)), direction)
            for passes in (0, 1, 3):
                model = ShadowDiffusionModel(passes)
                for points in edge_points(rng, grid)[trial % 2 :: 2]:
                    want = [
                        sample(dense_simulate(grid, obstacles, boundary, passes), points).tobytes()
                        for obstacles in obstacle_sets
                    ]
                    got = model.heights(grid, stack, boundary, points)
                    assert got.shape == (len(obstacle_sets), len(points))
                    assert [row.tobytes() for row in got] == want, (trial, direction, passes, points)
                    at_reads = stack[model.cells_read(grid, boundary, points)]
                    assert model.heights(grid, at_reads, boundary, points).tobytes() == got.tobytes()
                    stacks += 1
    assert stacks > 50


def test_coefficient_grid_marks_land_obstacles_and_the_sentinel():
    depth = np.full((3, 4), 5.0)
    depth[2, 0] = LAND
    grid = ScenarioGrid(depth, 25.0)
    cells = {(1, 0): 0.25, (2, 1): 1.0, (3, 2): 0.0, (0, 2): 0.5, (9, 9): 0.1, (-1, 0): 0.1}
    got = coefficient_grid(grid, cells.items())
    want = np.ones(13)
    want[[1, 6, 8, 11]] = [0.25, 1.0, 0.0, 0.0]
    assert got.tobytes() == want.tobytes()
    # (1, 0) keeps its smaller 0.25; (0, 1) takes 0.35
    added = with_obstacles(got, [((1, 0), 0.5), ((0, 1), 0.35)], grid.n_cols)
    want[4] = 0.35
    assert added.tobytes() == want.tobytes()
    assert got[4] == 1.0  # the input grid is untouched


@pytest.mark.filterwarnings("ignore::bwopt.objectives.EvaluationWarning")  # tiny_discrete's +100 % cost
@pytest.mark.parametrize("name", ["sochi_like", "tiny_discrete"])
def test_heights_match_the_dense_kernel_on_every_feasible_layout_of_a_run(name, monkeypatch):
    import bwopt.scenario as scenario_module
    from bwopt.evolution import EAConfig, run_spea2
    from bwopt.experiment import resolve_scenario
    from bwopt.geometry import decode, rasterize, segment_groups

    scenario = resolve_scenario(name)
    evaluate = scenario_module.evaluate
    checked = []

    def checked_evaluate(genotypes, scn):
        raws = evaluate(genotypes, scn)
        for genotype, raw in zip(genotypes, raws):
            if raw.feasible:
                layout = decode(genotype, scn.attachments)
                cells = rasterize(segment_groups(layout.breakwaters), layout.materials, scn.grid, scn.transmission)
                obstacles = ObstacleSet.from_pairs([*scn.existing_cells, *cells])
                field = dense_simulate(scn.grid, obstacles, scn.boundary, scn.wave_model.diffusion_passes)
                assert raw.wave_heights.tobytes() == sample(field, scn.control_points).tobytes()
                checked.append(genotype)
        return raws

    monkeypatch.setattr(scenario_module, "evaluate", checked_evaluate)
    run_spea2(EAConfig(population_size=10, archive_size=10, generations=4, seed=3), scenario)
    assert len(checked) >= 10


# ----- obstacle set semantics -----

def test_obstacle_set_keeps_most_blocking_coefficient():
    obs = ObstacleSet()
    obs.add((2, 3), 0.5)
    obs.add((2, 3), 0.2)
    obs.add((2, 3), 0.9)
    assert obs.cells[(2, 3)] == 0.2


def test_obstacle_set_clamps_coefficients():
    obs = ObstacleSet({(0, 0): 1.7, (1, 1): -0.4})
    assert obs.cells[(0, 0)] == 1.0
    assert obs.cells[(1, 1)] == 0.0


def test_obstacle_merge():
    # simulate_layout merges the existing cells and a layout's cells in one from_pairs
    existing = [((0, 0), 0.5), ((2, 0), 0.1)]
    added = [((1, 0), 0.8), ((0, 0), 0.3)]
    merged = ObstacleSet.from_pairs([*existing, *added])
    assert merged.cells == {(0, 0): 0.3, (2, 0): 0.1, (1, 0): 0.8}
    assert list(merged.cells) == [(0, 0), (2, 0), (1, 0)]  # first-seen order


def test_boundary_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        BoundaryConditions(incident_height=0.0, wave_direction=90.0)


# ----- sampling -----

def reference_sample(field, points):
    """The per-point sampler the vectorized one replaced, kept as the reference."""
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


def test_sample_is_bit_identical_to_the_per_point_reference():
    rng = np.random.default_rng(83)
    for _ in range(200):
        rows, cols = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        field = rng.uniform(0.0, 3.0, size=(rows, cols))
        points = [tuple(p) for p in rng.uniform(-1.0, [cols, rows], size=(int(rng.integers(0, 6)), 2))]
        points += [(float(rng.integers(0, cols)), float(rng.integers(0, rows))), (cols - 1.0, rows - 1.0)]
        assert sample(field, points).tobytes() == reference_sample(field, points).tobytes()


def test_sample_at_cell_centers_is_exact():
    field = np.arange(12, dtype=float).reshape(3, 4)
    got = sample(field, [(0.0, 0.0), (3.0, 2.0), (1.0, 1.0)])
    assert got == pytest.approx([0.0, 11.0, 5.0])


def test_sample_bilinear_midpoint():
    field = np.array([[0.0, 2.0], [4.0, 6.0]])
    assert sample(field, [(0.5, 0.5)]) == pytest.approx([3.0])


def test_sample_clamps_outside_grid():
    field = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = sample(field, [(-5.0, -5.0), (9.0, 9.0)])
    assert got == pytest.approx([1.0, 4.0])


# ----- file exchange -----

def test_field_file_round_trip_is_bitexact(tmp_path):
    rng = np.random.default_rng(5)
    field = rng.uniform(0, 3, size=(6, 7))
    path = tmp_path / "field.txt"
    write_field(path, field)
    assert np.array_equal(read_field(path), field)


def test_write_field_marks_land(tmp_path):
    field = np.ones((2, 2))
    mask = np.array([[True, False], [False, False]])
    path = tmp_path / "field.txt"
    write_field(path, field, land_mask=mask)
    back = read_field(path)
    assert back[0, 0] == LAND
    assert back[0, 1] == 1.0


def test_read_field_rejects_ragged(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError):
        read_field(path)


def fixed_heights_model(tmp_path, text):
    script = tmp_path / "model.py"
    script.write_text(f"open('heights.txt', 'w').write({text!r})\n")
    return FileExchangeWaveModel([sys.executable, str(script)], tmp_path / "work")


@pytest.mark.parametrize("bad", ["nan", "inf", "-0.5"])
def test_file_exchange_model_rejects_bad_water_heights(tmp_path, bad):
    model = fixed_heights_model(tmp_path, f"1 1 1\n1 1 {bad}\n{bad} 1 1\n")
    grid = ScenarioGrid(np.full((3, 3), 5.0), 25.0)
    with pytest.raises(ValueError, match=r"returned 2 .* \(row, col\) = \(1, 2\)"):
        model.simulate(grid, ObstacleSet(), south_boundary())


def test_file_exchange_model_ignores_nan_on_land(tmp_path):
    model = fixed_heights_model(tmp_path, "nan 1 1\n1 1 1\n1 1 1\n")
    depth = np.full((3, 3), 5.0)
    depth[0, 0] = LAND
    grid = ScenarioGrid(depth, 25.0)
    field = model.simulate(grid, ObstacleSet(), south_boundary())
    assert field[0, 0] == 0.0
    assert np.all(field.ravel()[1:] == 1.0)


EXTERNAL_MODEL = """\
import numpy as np
depth = np.loadtxt("depth.txt", ndmin=2)
h0 = dict(line.split() for line in open("boundary.txt"))
field = np.where(depth == -1.0, 0.0, float(h0["incident_height"]) / 2.0)
with open("heights.txt", "w") as fh:
    for row in field:
        fh.write(" ".join(repr(float(v)) for v in row) + "\\n")
"""


def test_file_exchange_model_round_trip(tmp_path):
    script = tmp_path / "model.py"
    script.write_text(EXTERNAL_MODEL)
    depth = np.full((4, 5), 5.0)
    depth[0, 0] = LAND
    grid = ScenarioGrid(depth, 25.0)
    model = FileExchangeWaveModel([sys.executable, str(script)], tmp_path / "work")
    field = model.simulate(grid, ObstacleSet({(1, 1): 0.5}), south_boundary())
    assert field.shape == (4, 5)
    assert field[0, 0] == 0.0  # land forced to zero
    assert np.all(field[1:] == H0 / 2.0)
    # the adapter wrote the documented exchange files
    work = tmp_path / "work"
    assert (work / "depth.txt").exists()
    assert (work / "obstacles.txt").read_text() == "1 1 0.5\n"
    assert "incident_height 2.0" in (work / "boundary.txt").read_text()


def test_file_exchange_model_rejects_wrong_shape(tmp_path):
    script = tmp_path / "model.py"
    script.write_text('open("heights.txt", "w").write("1.0 2.0\\n")\n')
    grid = ScenarioGrid(np.full((3, 3), 5.0), 25.0)
    model = FileExchangeWaveModel([sys.executable, str(script)], tmp_path / "work")
    with pytest.raises(ValueError):
        model.simulate(grid, ObstacleSet(), south_boundary())


def test_file_exchange_model_propagates_command_failure(tmp_path):
    command = [sys.executable, "-c", "import sys; sys.stderr.write('boom'); sys.exit(3)"]
    grid = ScenarioGrid(np.full((3, 3), 5.0), 25.0)
    model = FileExchangeWaveModel(command, tmp_path / "work")
    with pytest.raises(RuntimeError, match=r"exited with status 3; stderr tail: 'boom'"):
        model.simulate(grid, ObstacleSet(), south_boundary())


def test_file_exchange_model_quotes_only_the_stderr_tail(tmp_path):
    command = [sys.executable, "-c", "import sys; sys.stderr.write('x' * 5000 + 'END'); sys.exit(1)"]
    grid = ScenarioGrid(np.full((3, 3), 5.0), 25.0)
    model = FileExchangeWaveModel(command, tmp_path / "work")
    with pytest.raises(RuntimeError) as info:
        model.simulate(grid, ObstacleSet(), south_boundary())
    message = str(info.value)
    assert message.endswith(repr("x" * (STDERR_TAIL_CHARS - 3) + "END"))
    assert "x" * (STDERR_TAIL_CHARS - 2) not in message


def test_shadow_diffusion_model_wraps_simulate():
    grid = open_grid()
    model = ShadowDiffusionModel(diffusion_passes=0)
    wall = ObstacleSet({(c, 4): 0.1 for c in range(grid.n_cols)})
    direct = simulate(grid, wall, south_boundary(), diffusion_passes=0)
    assert np.array_equal(model.simulate(grid, wall, south_boundary()), direct)
