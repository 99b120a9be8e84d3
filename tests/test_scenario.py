import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from bwopt.cli import main
from bwopt.experiment import shipped_scenario_path
from bwopt.geometry import Encoding, Genotype, Material
from bwopt.objectives import WAVE_START_INDEX, simulate_layout
from bwopt.scenario import (
    GeneLevels,
    ScenarioError,
    build_scenario,
    load_scenario,
    scenario_to_json,
)
from bwopt.wave import ObstacleSet, ShadowDiffusionModel, sample, simulate
from conftest import scenario_dict


# ----- shipped scenarios -----

def test_harbor_scenario_shape(harbor_scenario):
    s = harbor_scenario
    assert s.n_blocks == 6  # three attachments, two segments each
    assert s.grid.cell_size == 25.0
    assert len(s.control_points) == 3
    assert s.boundary.incident_height == 3.0


def test_harbor_baseline_values(harbor_scenario):
    b = harbor_scenario.baseline
    # existing structures: 12-cell mole spine plus two detached arms
    expected_cost = (12.0 + np.sqrt(125.0) + np.sqrt(137.0)) * 25.0
    assert b.cost_ref == pytest.approx(expected_cost, abs=1e-9)
    assert b.nav_distance == pytest.approx(100.0, abs=1e-9)
    assert np.all(b.wave_heights > 0.0)
    assert np.all(b.wave_heights < 3.0)
    # the first control point is far less sheltered than the inner two
    assert b.wave_heights[0] > 4 * max(b.wave_heights[1], b.wave_heights[2])
    # loading takes the candidates' heights path, the same bits as sampling the full-grid field
    full = sample(simulate_layout([], harbor_scenario), harbor_scenario.control_points)
    assert b.wave_heights.tobytes() == full.tobytes()


def test_tiny_scenario_is_discretized(tiny_scenario):
    s = tiny_scenario
    assert s.n_blocks == 1
    assert s.gene_levels is not None
    assert set(s.gene_levels.lengths) == {0.0, 2.0, 4.0, 6.0, 8.0}
    assert len(s.gene_levels.angles) == 8


def test_unit_scenario_baseline(unit_scenario):
    b = unit_scenario.baseline
    assert b.cost_ref == pytest.approx(40.0)      # 4-cell groin at 10 m cells
    assert b.nav_distance == pytest.approx(120.0)  # 12 cells to the fairway
    assert b.wave_heights == pytest.approx([2.0])  # control point unshadowed


# ----- wave model -----

class HalvedModel:
    """A wave model whose heights and field are half the built-in ones (halving is exact)."""

    def __init__(self, passes):
        self.passes = passes

    def layout_heights(self, scenario, layouts):
        return 0.5 * ShadowDiffusionModel(self.passes).layout_heights(scenario, layouts)

    def simulate(self, grid, obstacles, boundary):
        return 0.5 * simulate(grid, obstacles, boundary, self.passes)


def test_replacing_the_wave_model_takes_the_baseline_from_it(harbor_scenario):
    halved = replace(harbor_scenario, wave_model=HalvedModel(harbor_scenario.wave_model.diffusion_passes))
    field = halved.wave_model.simulate(
        halved.grid, ObstacleSet.from_pairs(halved.existing_cells), halved.boundary
    )
    assert halved.baseline.wave_heights.tobytes() == sample(field, halved.control_points).tobytes()
    # halving is exact, so the built-in baseline halves bit for bit
    assert np.array_equal(halved.baseline.wave_heights, 0.5 * harbor_scenario.baseline.wave_heights)
    # the unchanged layout (every segment length 0) keeps every wave height
    unchanged = Genotype(Encoding.ANGULAR, np.zeros(2 * halved.n_blocks))
    point = halved.min_point(halved.evaluate(unchanged))
    assert point[WAVE_START_INDEX:].tolist() == [0.0] * len(halved.control_points)


def test_wave_model_without_layout_heights_is_rejected(harbor_scenario):
    with pytest.raises(ScenarioError, match="wave_model object has no layout_heights method"):
        replace(harbor_scenario, wave_model=object())


def test_scenario_is_frozen(unit_scenario):
    with pytest.raises(FrozenInstanceError):
        unit_scenario.wave_model = HalvedModel(unit_scenario.wave_model.diffusion_passes)


def test_no_wave_model_is_rejected(harbor_scenario):
    with pytest.raises(ScenarioError, match="wave_model NoneType has no layout_heights method"):
        replace(harbor_scenario, wave_model=None)


def test_the_scenario_files_passes_configure_the_builtin_model(harbor_scenario, tmp_path):
    assert harbor_scenario.wave_model.diffusion_passes == 3
    data = json.loads(shipped_scenario_path("sochi_like").read_text())
    (tmp_path / "scn.json").write_text(json.dumps({**data, "diffusion_passes": 0}))
    from_file = load_scenario(tmp_path / "scn.json")
    replaced = replace(harbor_scenario, wave_model=ShadowDiffusionModel(0))
    assert from_file.wave_model.diffusion_passes == replaced.wave_model.diffusion_passes == 0
    assert from_file.baseline.wave_heights.tobytes() == replaced.baseline.wave_heights.tobytes()
    assert not np.array_equal(replaced.baseline.wave_heights, harbor_scenario.baseline.wave_heights)


@pytest.mark.parametrize("passes", [-1, 1.5])
def test_builtin_model_rejects_passes_that_are_not_whole_and_nonnegative(passes):
    with pytest.raises(ValueError, match="diffusion_passes must be a whole number >= 0"):
        ShadowDiffusionModel(passes)


# ----- validation -----

def test_control_point_on_land_is_rejected():
    data = scenario_dict(control_points=[[10, 9], [3, 13]])
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert any("control point 1" in v and "land" in v for v in exc.value.violations)


def test_unanchored_attachment_is_rejected():
    data = scenario_dict()
    data["attachments"] = [dict(data["attachments"][0], x=12, y=4)]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert any("attachment 0" in v for v in exc.value.violations)


def test_attachment_anchored_to_coast_is_accepted():
    # next to land (row 12) counts as anchored even without a structure
    data = scenario_dict()
    data["attachments"] = [dict(data["attachments"][0], x=15, y=11)]
    scenario = build_scenario(data)
    assert scenario.attachments[0].point.x == 15


def test_all_violations_are_collected():
    data = scenario_dict(
        control_points=[[3, 13]],
        fairway=[[16, 0]],
    )
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    text = "\n".join(exc.value.violations)
    assert "control point 0" in text
    assert "fairway" in text
    assert len(exc.value.violations) >= 2


def assert_rejected_naming(data, field):
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert any(v.startswith(f"{field}:") for v in exc.value.violations), exc.value.violations


def test_flat_existing_structure_vertices_are_rejected():
    data = scenario_dict(existing_structures=[{"vertices": [4, 12, 4, 8]}])
    assert_rejected_naming(data, "existing structure 0 vertices")


def test_three_column_existing_structure_vertices_are_rejected():
    data = scenario_dict(existing_structures=[{"vertices": [[4, 12, 1], [4, 8, 1]]}])
    assert_rejected_naming(data, "existing structure 0 vertices")


def test_odd_length_flat_fairway_is_rejected():
    assert_rejected_naming(scenario_dict(fairway=[16, 0, 16]), "fairway")


def test_odd_length_flat_control_points_are_rejected():
    assert_rejected_naming(scenario_dict(control_points=[10, 9, 3]), "control_points")


def test_non_finite_coordinates_are_rejected():
    assert_rejected_naming(scenario_dict(fairway=[[16, 0], [16, float("nan")]]), "fairway")
    assert_rejected_naming(scenario_dict(control_points=[[10, float("inf")]]), "control_points")
    data = scenario_dict(existing_structures=[{"vertices": [[4, 12], [float("nan"), 8]]}])
    assert_rejected_naming(data, "existing structure 0 vertices")


def test_missing_grid_is_rejected():
    with pytest.raises(ScenarioError):
        build_scenario({"boundary": {"incident_height": 2.0, "wave_direction": 90.0}})


def tiny_with(path, value):
    """tiny_discrete's source with the field at path (a key sequence) set to value."""
    data = json.loads(shipped_scenario_path("tiny_discrete").read_text())
    *parents, last = path
    node = data
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[last] = value
    return data


MALFORMED = [  # (key path into tiny_discrete, bad value, the violation it must report)
    (("materials", "solid_wall"), "stone", "materials solid_wall: must be a number"),
    (("attachments", 0, "x"), None, "attachment 0 x: must be a number"),
    (("existing_structures", 0), [[6, 13], [6, 10]], "existing structure 0: must be an object"),
    (("materials",), [1], "materials: must be an object"),
    (("initialization", "max_length"), "long", "initialization max_length: must be a number"),
    (("nav_sampling_step",), "fine", "nav_sampling_step: must be a number"),
    (("gene_levels", "lengths"), [0.0, "two"], "gene_levels lengths: must be a list of numbers"),
    (("boundary", "wave_direction"), float("nan"), "boundary: wave_direction must be finite"),
    (("diffusion_passes",), 1.5, "diffusion_passes: must be a whole number"),
    (("diffusion_passes",), -1, "diffusion_passes must be a whole number >= 0, got -1"),
    (("attachments", 0, "n_segments"), 1.7, "attachment 0 n_segments: must be a whole number"),
    (("grid", "cell_size"), "wide", "grid cell_size: must be a number"),
    (("grid", "depth"), [[1.0, 2.0], [3.0]], "grid depth: must be rows of numbers"),
    (("attachments",), 5, "attachments: must be a list"),
    (("existing_structures",), 7, "existing_structures: must be a list"),
    # only finite JSON numbers: no quoted number, bool, NaN or infinity
    (("diffusion_passes",), "2", "diffusion_passes: must be a whole number, got '2'"),
    (("boundary", "incident_height"), "2.0", "boundary: missing or malformed (incident_height must be a number"),
    (("boundary", "incident_height"), float("inf"), "boundary: incident_height must be positive and finite"),
    (("control_points",), [["10", "11"]], "control_points: must be a list of [x, y] pairs of finite numbers"),
    (("existing_structures", 0, "vertices"), [[6, 13], [True, 10]], "existing structure 0 vertices: must be"),
    (("materials", "solid_wall"), False, "materials solid_wall: must be a number, got False"),
    (("attachments", 0, "n_segments"), True, "attachment 0 n_segments: must be a whole number, got True"),
    (("attachments", 0, "base_angle"), float("nan"), "attachment 0 base_angle: must be finite"),
    (("attachments", 0, "base_angle"), float("inf"), "attachment 0 base_angle: must be finite"),
    (("attachments", 0, "x"), float("nan"), "attachment 0 x: must be finite, got nan"),
    (("initialization", "max_length"), float("-inf"), "initialization max_length: must be finite"),
    (("gene_levels", "angles"), [0.0, float("nan")], "gene_levels angles: must be a list of numbers"),
    (("gene_levels", "lengths"), "02", "gene_levels lengths: must be a list of numbers"),
    (("grid", "depth", 0, 0), "5.0", "grid depth: must be rows of numbers"),
    (("grid", "depth", 0, 0), True, "grid depth: must be rows of numbers"),
    (("grid", "depth", 3, 2), float("nan"), "grid depth: every cell must be finite"),
    (("grid", "depth", 3, 2), float("-inf"), "grid depth: every cell must be finite"),
]


def row_ids(rows):
    """Each row's id is its violation up to the colon; a later row with the same id adds its value."""
    ids = [violation.split(":")[0] for _, _, violation in rows]
    return [i if i not in ids[:n] else f"{i} {value!r}" for n, (i, (_, value, _)) in enumerate(zip(ids, rows))]


@pytest.mark.parametrize("path, value, violation", MALFORMED, ids=row_ids(MALFORMED))
def test_malformed_field_is_a_scenario_error_naming_it(tmp_path, capsys, path, value, violation):
    data = tiny_with(path, value)
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert any(v.startswith(violation) for v in exc.value.violations), exc.value.violations
    (tmp_path / "scn.json").write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(tmp_path / "scn.json")]) == 1
    assert violation in capsys.readouterr().err


def test_unknown_material_is_rejected():
    data = scenario_dict(materials={"jelly": 0.5})
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert any("jelly" in v for v in exc.value.violations)


def test_degenerate_cell_size_is_rejected():
    data = scenario_dict()
    data["grid"] = dict(data["grid"], cell_size=0.0)
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert any("cell_size" in v for v in exc.value.violations)


def test_empty_angle_range_is_rejected():
    data = scenario_dict(initialization={"max_length": 6.0, "angle_low": 30.0, "angle_high": 30.0})
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert any("angle range" in v for v in exc.value.violations)


def test_structure_crossing_fairway_fails_baseline():
    data = scenario_dict(
        existing_structures=[{"vertices": [[4, 12], [4, 8]]}, {"vertices": [[14, 5], [18, 5]]}]
    )
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert any("clearance" in v for v in exc.value.violations)


def test_existing_structure_crossing_fairway_is_rejected(harbor_scenario):
    # The crossing falls between clearance samples, so the sampled baseline
    # clearance alone (1.70 m) would not catch it.
    data = json.loads(json.dumps(harbor_scenario.source))
    data["existing_structures"][1]["vertices"] = [[24.1, 19.6], [33, 21], [44, 25]]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(data)
    assert exc.value.violations == [
        "existing structure 1 crosses the fairway, so its clearance is zero"
    ]


# ----- file loading -----

def test_load_scenario_with_depth_file(tmp_path):
    depth = np.full((6, 8), 5.0)
    depth[5, :] = -1.0
    np.savetxt(tmp_path / "depth.txt", depth)
    data = scenario_dict()
    data["grid"] = {"cell_size": 10.0, "depth_file": "depth.txt"}
    data["existing_structures"] = [{"vertices": [[2, 5], [2, 2]]}]
    data["attachments"] = [{"x": 2, "y": 2, "base_angle": 0.0, "n_segments": 1}]
    data["control_points"] = [[5, 3]]
    data["fairway"] = [[6, 0], [6, 4]]
    (tmp_path / "scn.json").write_text(json.dumps(data))
    scenario = load_scenario(tmp_path / "scn.json")
    assert scenario.grid.n_rows == 6 and scenario.grid.n_cols == 8
    assert scenario.grid.land_mask[5].all()


@pytest.mark.parametrize(
    "cell, violation",
    [("nan", "grid depth: every cell must be finite"), ("deep", "grid depth: depth_file must hold rows of numbers")],
)
def test_depth_file_cells_must_be_finite_numbers(tmp_path, cell, violation):
    # np.loadtxt reads nan as a number (a water cell) and raises ValueError on a word
    rows = [" ".join(["5.0"] * 8)] * 5 + [" ".join(["-1.0"] * 8)]
    rows[2] = " ".join(["5.0"] * 7 + [cell])
    (tmp_path / "depth.txt").write_text("\n".join(rows) + "\n")
    data = scenario_dict()
    data["grid"] = {"cell_size": 10.0, "depth_file": "depth.txt"}
    (tmp_path / "scn.json").write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(tmp_path / "scn.json")
    assert any(v.startswith(violation) for v in exc.value.violations), exc.value.violations


def test_load_scenario_missing_depth_file(tmp_path):
    data = scenario_dict()
    data["grid"] = {"cell_size": 10.0, "depth_file": "nope.txt"}
    (tmp_path / "scn.json").write_text(json.dumps(data))
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "scn.json")


def test_scenario_to_json_round_trip(unit_scenario):
    text = scenario_to_json(unit_scenario)
    again = build_scenario(json.loads(text))
    assert scenario_to_json(again) == text
    assert json.loads(text)["name"] == "unit"


# ----- gene level snapping -----

LEVELS = GeneLevels(lengths=(0.0, 2.0, 4.0, 6.0, 8.0), angles=(-90.0, -45.0, 0.0, 45.0))


def test_snap_picks_nearest_levels():
    g = Genotype(Encoding.ANGULAR, np.array([3.2, -52.0, 7.9, 10.0]))
    snapped = LEVELS.snap(g)
    assert np.array_equal(snapped.genes, [4.0, -45.0, 8.0, 0.0])


def test_snap_is_idempotent():
    g = Genotype(Encoding.ANGULAR, np.array([2.0, 45.0]))
    snapped = LEVELS.snap(g)
    assert np.array_equal(snapped.genes, g.genes)


def test_snap_passes_cartesian_through():
    g = Genotype(Encoding.CARTESIAN, np.array([3.3, 7.7]))
    assert LEVELS.snap(g) is g


def test_scenario_snap_facade(tiny_scenario, unit_scenario):
    rough = Genotype(Encoding.ANGULAR, np.array([3.1, -50.0]))
    snapped = tiny_scenario.snap(rough)
    assert snapped.genes[0] in tiny_scenario.gene_levels.lengths
    assert snapped.genes[1] in tiny_scenario.gene_levels.angles
    # scenarios without levels pass genotypes through untouched
    free = Genotype(Encoding.ANGULAR, np.array([3.1, -50.0, 0.0, 0.0]))
    assert unit_scenario.snap(free) is free


# ----- evaluation facade -----

def test_scalar_facade_equals_parts(unit_scenario):
    g = Genotype(Encoding.ANGULAR, np.array([6.0, 0.0, 0.0, 0.0]))
    raw = unit_scenario.evaluate(g)
    point = unit_scenario.min_point(raw)
    from bwopt.objectives import relativize, single_objective

    assert np.array_equal(point, relativize(raw, unit_scenario.baseline))
    assert unit_scenario.scalar(point, raw.violations) == single_objective(point, violations=raw.violations)


def test_transmission_defaults_and_overrides():
    data = scenario_dict(materials={"tetrapod": 0.5})
    scenario = build_scenario(data)
    assert scenario.transmission[Material.TETRAPOD] == 0.5
    assert scenario.transmission[Material.SOLID_WALL] == 0.1
