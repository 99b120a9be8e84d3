"""Acceptance gate: one test per shipped claim, one verdict line each.

The comparison runs (criteria 6-9) use the shipped harbor scenario, the
default 30-individual / 30-generation protocol and the shipped seed list;
hypervolumes share a single reference point over all fronts so they are
comparable across variants and generations.
"""
import json
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, mc_hypervolume, scenario_dict
from bwopt.cli import main
from bwopt.evolution import (
    EAConfig,
    Individual,
    environmental_selection,
    run_spea2,
    spea2_fitness,
)
from bwopt.experiment import DEFAULT_SEEDS, resolve_scenario
from bwopt.geometry import (
    Encoding,
    Genotype,
    Layout,
    Material,
    ScenarioGrid,
    convert,
    decode,
    rasterize,
    segment_groups,
)
from bwopt.metrics import all_front_points, hypervolume, reference_point, run_snapshots
from bwopt.objectives import ObjectiveVector, cost, simulate_layout, single_objective
from bwopt.wave import BoundaryConditions, ObstacleSet, simulate


def check(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def harbor():
    return resolve_scenario("sochi_like")


@pytest.fixture(scope="module")
def comparison_runs(harbor):
    """3 variants x the shipped seed list, default protocol, timed."""
    variants = {
        "angular": dict(encoding=Encoding.ANGULAR, greedy=False),
        "cartesian": dict(encoding=Encoding.CARTESIAN, greedy=False),
        "greedy": dict(encoding=Encoding.ANGULAR, greedy=True),
    }
    histories, durations = {}, {}
    for name, kw in variants.items():
        for seed in DEFAULT_SEEDS:
            config = EAConfig(population_size=30, archive_size=30, generations=30,
                              seed=seed, **kw)
            start = time.perf_counter()
            histories[(name, seed)] = run_spea2(config, harbor)
            durations[(name, seed)] = time.perf_counter() - start
    reference = reference_point(all_front_points(histories.values()))

    def front_hv(history, index):
        record = history.records[index]
        if not record.front:
            return 0.0
        return hypervolume(np.array([ind.point for ind in record.front]), reference)

    hv_final = {
        name: [front_hv(histories[(name, s)], -1) for s in DEFAULT_SEEDS]
        for name in variants
    }
    hv_gen10 = {
        name: [front_hv(histories[(name, s)], 10) for s in DEFAULT_SEEDS]
        for name in variants
    }
    return {
        "histories": histories,
        "durations": durations,
        "reference": reference,
        "hv_final": hv_final,
        "hv_gen10": hv_gen10,
    }


def test_criterion_01_encoding_round_trip(harbor):
    rng = np.random.default_rng(0)
    n_genes = 2 * harbor.n_blocks
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        lengths = rng.uniform(0.0, 10.0, harbor.n_blocks)
        angles = rng.uniform(-180.0, 180.0, harbor.n_blocks)
        angular = Genotype(Encoding.ANGULAR, np.column_stack([lengths, angles]).ravel())
        cartesian = Genotype(Encoding.CARTESIAN, rng.uniform(-20.0, 20.0, n_genes))
        for g, other in ((angular, Encoding.CARTESIAN), (cartesian, Encoding.ANGULAR)):
            back = convert(convert(g, harbor.attachments, other), harbor.attachments, g.encoding)
            before = decode(g, harbor.attachments)
            after = decode(back, harbor.attachments)
            for v0, v1 in zip(before.breakwaters, after.breakwaters):
                worst = max(worst, float(np.max(np.abs(np.asarray(v0) - np.asarray(v1)))))
    elapsed = time.perf_counter() - start
    check(
        1, "encoding round-trip",
        worst <= 1e-9 and elapsed < 1.0,
        f"2000 round trips, max vertex error {worst:.2e} cells, {elapsed:.2f} s",
    )


def test_criterion_02_objective_formulas(harbor):
    triangle = Layout(polylines=[np.array([[0.0, 0.0], [3.0, 4.0]])],
                      materials=[Material.SOLID_WALL])
    cost_ok = cost(triangle.segments(), 25.0) == 125.0

    b = harbor.baseline
    base_raw = ObjectiveVector(
        cost=b.cost_ref, nav_distance=b.nav_distance,
        wave_heights=b.wave_heights.copy(),
        self_intersections=0, fairway_intersections=0, land_coverage=0,
    )
    rel_err = float(np.max(np.abs(harbor.min_point(base_raw))))

    score = single_objective(np.zeros(2 + len(b.wave_heights)))  # an unchanged harbor
    check(
        2, "objective formulas",
        cost_ok and rel_err <= 1e-12 and abs(score - 1.0) <= 1e-12,
        f"3-4-5 cost {cost(triangle.segments(), 25.0)!r} m, baseline rel error {rel_err:.1e}, "
        f"base score {score!r}",
    )


def test_criterion_03_exhaustive_pareto_recovery():
    scenario = resolve_scenario("tiny_discrete")
    levels = scenario.gene_levels
    genotypes = [
        Genotype(Encoding.ANGULAR, np.array([length, angle], dtype=float))
        for length in levels.lengths
        for angle in levels.angles
    ]
    assert len(genotypes) == 40
    points, feasible = [], []
    for g in genotypes:
        objectives = scenario.evaluate(g)
        points.append(scenario.min_point(objectives))
        feasible.append(objectives.feasible)
    points = np.array(points)

    def dominates(a, b):
        return bool(np.all(a <= b) and np.any(a < b))

    alive = [i for i in range(len(genotypes)) if feasible[i]]
    true_front = [
        i for i in alive
        if not any(dominates(points[j], points[i]) for j in alive if j != i)
    ]
    unique = []
    for i in true_front:
        if not any(np.allclose(points[i], points[j], atol=1e-12) for j in unique):
            unique.append(i)

    start = time.perf_counter()
    recoveries = 0
    for seed in DEFAULT_SEEDS:
        config = EAConfig(population_size=30, archive_size=30, generations=40, seed=seed)
        history = run_spea2(config, scenario)
        archive = np.array([ind.point for ind in history.records[-1].archive])
        recovered = all(
            any(np.allclose(points[i], a, atol=1e-9) for a in archive) for i in unique
        )
        recoveries += recovered
    elapsed = time.perf_counter() - start
    check(
        3, "exhaustive-oracle Pareto recovery",
        recoveries >= 4 and elapsed < 30.0,
        f"{recoveries}/5 seeds recover all {len(unique)} true front points, {elapsed:.1f} s",
    )


def test_criterion_04_spea2_correctness():
    rng = np.random.default_rng(42)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(2, 5))
        points = rng.uniform(0.0, 1.0, size=(n, d))
        union = [Individual(point=p) for p in points]
        spea2_fitness(union)
        for i, ind in enumerate(union):
            brute_nondominated = not any(
                np.all(points[j] <= points[i]) and np.any(points[j] < points[i])
                for j in range(n) if j != i
            )
            if (ind.fitness < 1.0) != brute_nondominated:
                failures += 1
        target = int(rng.integers(1, n + 1))
        archive = environmental_selection(union, target, rng)
        if len(archive) != target:
            failures += 1
    check(
        4, "spea2 fitness and selection",
        failures == 0,
        f"200 random sets, {failures} failures",
    )


def test_criterion_05_hypervolume_exactness():
    hand = hypervolume(np.array([[0.0, 2.0], [2.0, 0.0]]), np.array([3.0, 3.0]))
    rng = np.random.default_rng(7)
    worst_sigma = 0.0
    for case in range(50):
        d = (2, 3, 4)[case % 3]
        n = int(rng.integers(2, 21))
        points = rng.uniform(0.0, 1.0, size=(n, d))
        ref = np.full(d, 1.1)
        exact = hypervolume(points, ref)
        estimate, se = mc_hypervolume(points, ref, n_samples=1_000_000,
                                      seed=int(rng.integers(1 << 30)))
        if se == 0.0:  # every sample dominated: exact must equal the box volume
            assert exact == estimate
            continue
        worst_sigma = max(worst_sigma, abs(exact - estimate) / se)
    check(
        5, "hypervolume exactness",
        hand == 5.0 and worst_sigma <= 3.0,
        f"hand case {hand!r}, 50 Monte-Carlo checks, worst deviation {worst_sigma:.2f} sigma",
    )


def test_criterion_06_greedy_mask_invariant(comparison_runs):
    history = comparison_runs["histories"][("greedy", DEFAULT_SEEDS[0])]
    expected_checks = 29 * 30  # every offspring of every breeding round
    check(
        6, "greedy mask invariant",
        history.greedy_checks == expected_checks and history.greedy_violations == 0,
        f"{history.greedy_checks} offspring checked inline, "
        f"{history.greedy_violations} violations",
    )


def test_criterion_07_protocol_run(comparison_runs):
    key = ("angular", DEFAULT_SEEDS[0])
    history = comparison_runs["histories"][key]
    duration = comparison_runs["durations"][key]
    model_runs = history.records[-1].model_runs
    (snapshots,) = run_snapshots([history], comparison_runs["reference"])
    values = [s.hypervolume for s in snapshots]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    check(
        7, "30x30 protocol run",
        model_runs == 900 and duration < 60.0 and monotone,
        f"{model_runs} model runs in {duration:.1f} s, "
        f"cumulative-front hypervolume non-decreasing over {len(values)} generations",
    )


def test_criterion_08_angular_vs_cartesian(comparison_runs):
    angular = float(np.median(comparison_runs["hv_final"]["angular"]))
    cartesian = float(np.median(comparison_runs["hv_final"]["cartesian"]))
    check(
        8, "angular encoding effectiveness",
        angular >= cartesian,
        f"median final hypervolume angular {angular:.4e} vs cartesian {cartesian:.4e}, "
        f"seeds {DEFAULT_SEEDS}",
    )


def test_criterion_09_greedy_early_competitiveness(comparison_runs):
    greedy_10 = float(np.median(comparison_runs["hv_gen10"]["greedy"]))
    plain_10 = float(np.median(comparison_runs["hv_gen10"]["angular"]))
    greedy_final = float(np.median(comparison_runs["hv_final"]["greedy"]))
    plain_final = float(np.median(comparison_runs["hv_final"]["angular"]))
    gap = abs(greedy_final - plain_final) / max(greedy_final, plain_final)
    check(
        9, "greedy early competitiveness",
        greedy_10 >= plain_10 and gap <= 0.10,
        f"generation-10 median {greedy_10:.4e} vs {plain_10:.4e}, "
        f"final gap {100 * gap:.1f}% (limit 10%)",
    )


def test_criterion_10_wave_model_properties(unit_scenario):
    depth = np.full((12, 16), 5.0)
    grid = ScenarioGrid(depth, cell_size=10.0)
    boundary = BoundaryConditions(incident_height=2.0, wave_direction=90.0)

    open_field = simulate(grid, ObstacleSet(), boundary, diffusion_passes=0)
    open_ok = bool(np.all(open_field == 2.0))

    wall = ObstacleSet({(x, 5): 0.1 for x in range(16)})
    walled = simulate(grid, wall, boundary, diffusion_passes=0)
    wall_ok = bool(
        np.all(walled[:5, :] == 2.0)
        and np.all(walled[5:, :] == pytest.approx(0.2, abs=0.0))
    )

    scenario = unit_scenario
    base_field = simulate_layout([], scenario)
    water = ~scenario.grid.land_mask
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(100):
        lengths = rng.uniform(0.0, 6.0, scenario.n_blocks)
        angles = rng.uniform(-180.0, 180.0, scenario.n_blocks)
        genotype = Genotype(Encoding.ANGULAR, np.column_stack([lengths, angles]).ravel())
        layout = decode(genotype, scenario.attachments)
        cells = rasterize(segment_groups(layout.breakwaters), layout.materials, scenario.grid, scenario.transmission)
        augmented = simulate_layout(cells, scenario)
        violations += int(np.sum(augmented[water] > base_field[water] + 1e-12))
    check(
        10, "wave model properties",
        open_ok and wall_ok and violations == 0,
        f"open water uniform: {open_ok}, wall shadow exact: {wall_ok}, "
        f"monotonicity violations over 100 layouts: {violations}",
    )


def test_criterion_11_byte_identical_exports(tmp_path):
    plan = {
        "name": "determinism",
        "scenario": "sochi_like",
        "seeds": [DEFAULT_SEEDS[0]],
        "generations": 5,
        "population_size": 10,
        "archive_size": 10,
        "variants": [{"algorithm": "spea2", "encoding": "angular", "greedy": True}],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))

    def tree(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    assert main(["experiment", "--plan", str(plan_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["experiment", "--plan", str(plan_path), "--out", str(tmp_path / "b")]) == 0
    first, second = tree(tmp_path / "a"), tree(tmp_path / "b")
    identical = list(first) == list(second) and all(first[k] == second[k] for k in first)
    check(
        11, "byte-identical determinism",
        identical,
        f"{len(first)} exported files compared byte for byte",
    )
