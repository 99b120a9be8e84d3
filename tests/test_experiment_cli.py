import json
import multiprocessing
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import evaluate_each, scenario_dict
from bwopt import parallel
from bwopt.cli import main
from bwopt.evolution import EAConfig
from bwopt.experiment import (
    DEFAULT_SEEDS,
    ExperimentPlan,
    VariantSpec,
    load_plan,
    optimize_once,
    plan_from_dict,
    plan_to_dict,
    resolve_scenario,
    run_experiment,
    shipped_scenario_path,
)
from bwopt.geometry import Encoding, Genotype
from bwopt.objectives import simulate_layout
from bwopt.scenario import load_scenario
from bwopt.wave import read_field


def write_scenario(path: Path, **overrides) -> Path:
    path.write_text(json.dumps(scenario_dict(**overrides)))
    return path


def plan_dict(**overrides):
    base = {
        "name": "smoke",
        "seeds": [1, 2],
        "generations": 3,
        "population_size": 6,
        "archive_size": 6,
        "variants": [
            {"algorithm": "spea2", "encoding": "angular"},
            {"algorithm": "de", "encoding": "cartesian"},
        ],
    }
    base.update(overrides)
    return base


def tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ----- plan parsing -----

def test_plan_from_dict_full_matrix():
    variants = [
        {"algorithm": alg, "encoding": enc, "greedy": greedy}
        for alg in ("spea2", "de")
        for enc in ("angular", "cartesian")
        for greedy in (False, True)
    ]
    plan = plan_from_dict(plan_dict(variants=variants))
    assert len(plan.variants) == 8
    assert len({v.name for v in plan.variants}) == 8
    assert plan.repeats == 2


def test_plan_single_variant_shorthand():
    plan = plan_from_dict({"algorithm": "de", "encoding": "cartesian", "greedy": True, "seeds": [7]})
    assert len(plan.variants) == 1
    assert plan.variants[0].name == "de_cartesian_greedy"
    assert plan.seeds == [7]


def test_plan_defaults():
    plan = plan_from_dict({"seeds": [1]})
    assert plan.variants[0].name == "spea2_angular"
    assert plan.generations == 30
    assert plan.population_size == 30
    assert plan.archive_size == 30


def test_plan_repeats_mismatch_rejected():
    with pytest.raises(ValueError, match="repeats=3 but lists 2 seeds"):
        plan_from_dict(plan_dict(repeats=3))


def test_plan_duplicate_variants_rejected():
    variants = [{"algorithm": "spea2", "encoding": "angular"}] * 2
    with pytest.raises(ValueError, match="duplicate"):
        plan_from_dict(plan_dict(variants=variants))


def test_plan_empty_seeds_rejected():
    with pytest.raises(ValueError, match="seeds"):
        plan_from_dict(plan_dict(seeds=[]))


def test_plan_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="unknown algorithm"):
        plan_from_dict(plan_dict(variants=[{"algorithm": "cmaes", "encoding": "angular"}]))


def test_plan_unknown_operator_keys_rejected():
    # de_use_ga_operators was an EAConfig field; a stale plan naming it fails loudly
    for key, value in (("turbo", 1), ("de_use_ga_operators", True)):
        with pytest.raises(ValueError, match=f"unknown operator keys.*{key}"):
            plan_from_dict(plan_dict(operators={key: value}))


@pytest.mark.parametrize(
    "key", ["population_size", "archive_size", "generations", "encoding", "greedy", "seed"]
)
def test_plan_operator_keys_set_by_the_plan_rejected(key):
    # config_for would silently override these, while plan.json and summary.csv report the plan's
    with pytest.raises(ValueError, match=f"operator keys.*{key}.*set by the plan"):
        plan_from_dict(plan_dict(operators={key: 7, "mutation_rate": 0.5}))


def test_plan_duplicate_seeds_rejected():
    with pytest.raises(ValueError, match="duplicate seeds"):
        plan_from_dict(plan_dict(seeds=[1, 3, 1]))


def test_plan_built_in_code_is_validated():
    variants = [VariantSpec("spea2", Encoding.ANGULAR)]
    with pytest.raises(ValueError, match="duplicate seeds"):
        ExperimentPlan(variants=variants, seeds=[1, 1])
    with pytest.raises(ValueError, match="unknown operator keys"):
        ExperimentPlan(variants=variants, seeds=[1], operators={"turbo": 1})
    with pytest.raises(ValueError, match="set by the plan"):
        ExperimentPlan(variants=variants, seeds=[1], operators={"seed": 7})


def test_plan_operators_override_config():
    plan = plan_from_dict(plan_dict(operators={"mutation_rate": 0.5, "de_weight": 0.9}))
    config = plan.config_for(plan.variants[0], 11)
    assert config.mutation_rate == 0.5
    assert config.de_weight == 0.9
    assert config.seed == 11
    assert config.population_size == 6


def test_plan_round_trip():
    plan = plan_from_dict(plan_dict(operators={"mutation_rate": 0.3}))
    again = plan_from_dict(plan_to_dict(plan))
    assert again == plan


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"variants": [{"algorithm": "spea2", "encoding": "angular", "greedy": "false"}]}, "greedy"),
        ({"seeds": [1.9, "2"]}, "seeds"),
        ({"generations": 2.7}, "generations"),
        ({"population_size": "10"}, "population_size"),
    ],
    ids=["greedy", "seeds", "generations", "population_size"],
)
def test_plan_value_of_another_json_type_is_rejected_naming_its_key(tmp_path, capsys, overrides, key):
    # each once became a value of the plan: greedy=True, seeds [1, 2], 2 generations, 10 individuals
    with pytest.raises(ValueError, match=f"^plan {key} must be"):
        plan_from_dict(plan_dict(**overrides))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan_dict(scenario="tiny_discrete", **overrides)))
    assert main(["experiment", "--plan", str(plan_path), "--out", str(tmp_path / "out")]) == 1
    assert f"plan {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "operators, message",
    [
        ({"mutation_rate": "0.5"}, "EAConfig mutation_rate must be a finite number, got '0.5'"),
        ({"crossover_rate": True}, "EAConfig crossover_rate must be a finite number, got True"),
        ({"de_weight": float("nan")}, "EAConfig de_weight must be a finite number, got nan"),
    ],
    ids=["string", "bool", "nan"],
)
def test_plan_operator_value_that_is_no_finite_number_is_rejected_before_any_run(tmp_path, capsys, operators, message):
    # the plan once loaded, wrote plan.json, and every run failed in mutate (exit 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        plan_from_dict(plan_dict(operators=operators))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan_dict(scenario="tiny_discrete", operators=operators)))
    assert main(["experiment", "--plan", str(plan_path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_default_seed_list_is_five_distinct():
    assert len(DEFAULT_SEEDS) == 5
    assert len(set(DEFAULT_SEEDS)) == 5


# ----- scenario resolution -----

def test_resolve_shipped_by_name():
    scenario = resolve_scenario("tiny_discrete")
    assert scenario.n_blocks == 1


def test_resolve_path(tmp_path):
    path = write_scenario(tmp_path / "local.json", name="local-unit")
    scenario = resolve_scenario(str(path))
    assert scenario.name == "local-unit"


def test_resolve_prefers_base_dir_over_shipped(tmp_path):
    write_scenario(tmp_path / "tiny_discrete", name="shadowing-file")
    scenario = resolve_scenario("tiny_discrete", base_dir=tmp_path)
    assert scenario.name == "shadowing-file"


def test_resolve_unknown_name():
    with pytest.raises(FileNotFoundError, match="neither a file nor a shipped"):
        resolve_scenario("no_such_scenario")


def test_shipped_scenario_path_accepts_extension():
    assert shipped_scenario_path("tiny_discrete.json") == shipped_scenario_path("tiny_discrete")


# ----- experiment driver -----

@pytest.fixture(scope="module")
def experiment_tree(tmp_path_factory, unit_scenario_module):
    plan = plan_from_dict(plan_dict())
    out = tmp_path_factory.mktemp("exp")
    result = run_experiment(plan, unit_scenario_module, out)
    return plan, result, out


@pytest.fixture(scope="module")
def unit_scenario_module():
    from bwopt.scenario import build_scenario

    return build_scenario(scenario_dict())


def test_experiment_output_tree(experiment_tree):
    plan, result, out = experiment_tree
    assert result.ok
    for name in ("plan.json", "scenario.json", "metrics.json", "summary.csv"):
        assert (out / name).is_file()
    for variant in plan.variants:
        vdir = out / variant.name
        assert (vdir / "convergence.csv").is_file()
        assert (vdir / "fronts_2d.csv").is_file()
        for seed in plan.seeds:
            sdir = vdir / f"seed_{seed}"
            for name in ("history.json", "snapshots.csv", "final_front.json", "final_front.csv"):
                assert (sdir / name).is_file()


def test_experiment_summary_accounting(experiment_tree):
    plan, result, out = experiment_tree
    assert len(result.summary_rows) == len(plan.variants) * len(plan.seeds)
    for row in result.summary_rows:
        assert row["model_runs"] == plan.population_size * plan.generations
        assert row["greedy_violations"] == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + len(result.summary_rows)
    assert lines[0].startswith("variant,algorithm,encoding,greedy,seed")


def test_experiment_metrics_json(experiment_tree):
    plan, result, out = experiment_tree
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["reference_point"]) == 3  # cost, nav, one control point
    assert metrics["objective_labels"] == ["cost_pct", "neg_nav_pct", "h1_pct"]
    for variant in plan.variants:
        entry = metrics["variants"][variant.name]
        finals = [entry["final_hypervolume"][str(s)] for s in plan.seeds]
        assert entry["median_final_hypervolume"] == pytest.approx(float(np.median(finals)))
        assert np.all(np.asarray(result.reference) == np.asarray(metrics["reference_point"]))


def test_experiment_convergence_rows(experiment_tree):
    plan, _, out = experiment_tree
    for variant in plan.variants:
        lines = (out / variant.name / "convergence.csv").read_text().splitlines()
        assert len(lines) == 1 + plan.generations
        hv_medians = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(hv_medians, hv_medians[1:]))


def test_experiment_front_members_reevaluate(experiment_tree, unit_scenario_module):
    plan, _, out = experiment_tree
    scenario = unit_scenario_module
    checked = 0
    front = json.loads((out / "spea2_angular" / "seed_1" / "final_front.json").read_text())
    assert front["scenario"] == scenario.name
    assert front["seed"] == 1
    for member in front["members"]:
        genotype = Genotype(Encoding(member["encoding"]), np.array(member["genes"]))
        objectives = scenario.evaluate(genotype)
        assert objectives.cost == member["objectives"]["cost"]
        assert objectives.nav_distance == member["objectives"]["nav_distance"]
        assert list(objectives.wave_heights) == member["objectives"]["wave_heights"]
        assert objectives.feasible
        checked += 1
    assert checked > 0


def test_experiment_rerun_is_byte_identical(tmp_path, unit_scenario_module):
    plan = plan_from_dict(plan_dict(seeds=[3], generations=2, variants=[
        {"algorithm": "spea2", "encoding": "angular", "greedy": True},
    ]))
    run_experiment(plan, unit_scenario_module, tmp_path / "a")
    run_experiment(plan, unit_scenario_module, tmp_path / "b")
    first, second = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert list(first) == list(second)
    assert all(first[k] == second[k] for k in first)


class FailingEncodingScenario:
    """Delegates everything, but refuses to evaluate cartesian genotypes."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def evaluate(self, genotype):
        if genotype.encoding is Encoding.CARTESIAN:
            raise ValueError("cartesian rejected for the test")
        return self._inner.evaluate(genotype)

    def evaluate_many(self, genotypes):
        return evaluate_each(self.evaluate, genotypes)


def test_experiment_records_partial_failures(tmp_path, unit_scenario_module):
    plan = plan_from_dict(plan_dict(seeds=[1], generations=2))
    scenario = FailingEncodingScenario(unit_scenario_module)
    result = run_experiment(plan, scenario, tmp_path / "out")
    assert not result.ok
    assert [f["variant"] for f in result.failures] == ["de_cartesian"]
    assert "generation 0, individual 0" in result.failures[0]["error"]
    # the healthy variant is still exported and summarized
    assert (tmp_path / "out" / "spea2_angular" / "seed_1" / "history.json").is_file()
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["failures"] == result.failures
    assert metrics["variants"]["de_cartesian"]["median_final_hypervolume"] is None


def test_experiment_all_failed_raises(tmp_path, unit_scenario_module):
    plan = plan_from_dict(plan_dict(seeds=[1], generations=1, variants=[
        {"algorithm": "de", "encoding": "cartesian"},
    ]))
    scenario = FailingEncodingScenario(unit_scenario_module)
    with pytest.raises(RuntimeError, match="all 1 runs failed"):
        run_experiment(plan, scenario, tmp_path / "out")


def test_runs_without_a_feasible_point_write_their_tree_at_hypervolume_zero(tmp_path, harbor_scenario):
    # none of this variant's layouts is feasible on sochi_like with seed 5 (its 30x30 run neither)
    plan = plan_from_dict(plan_dict(seeds=[5], generations=2, population_size=4, archive_size=4,
                                    variants=[{"algorithm": "spea2", "encoding": "cartesian", "greedy": True}]))
    result = run_experiment(plan, harbor_scenario, tmp_path / "experiment")
    assert result.ok and result.summary_rows[0]["final_front_size"] == 0
    run_dir = tmp_path / "experiment" / "spea2_cartesian_greedy" / "seed_5"
    once = tmp_path / "once"
    optimize_once("spea2", plan.config_for(plan.variants[0], 5), harbor_scenario, once)
    for metrics in (tmp_path / "experiment" / "metrics.json", once / "metrics.json"):
        assert json.loads(metrics.read_text())["reference_point"] == [0.0] * 5
    assert result.summary_rows[0]["final_hypervolume"] == 0.0
    for name in ("history.json", "snapshots.csv", "final_front.json", "final_front.csv"):
        assert (run_dir / name).read_bytes() == (once / name).read_bytes()
    hypervolumes = [line.split(",")[3] for line in (run_dir / "snapshots.csv").read_text().splitlines()[1:]]
    assert hypervolumes == ["0.0", "0.0"]


# ----- runs shared across CPUs -----

@pytest.mark.parametrize("failing", [False, True])
def test_experiment_tree_same_for_any_worker_count(tmp_path, monkeypatch, unit_scenario_module, failing):
    plan = plan_from_dict(plan_dict(generations=2))  # 4 runs: 2 variants x 2 seeds
    scenario = FailingEncodingScenario(unit_scenario_module) if failing else unit_scenario_module
    trees, failures = [], []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        result = run_experiment(plan, scenario, tmp_path / f"w{cpus}")
        assert multiprocessing.active_children() == []
        trees.append(tree_bytes(tmp_path / f"w{cpus}"))
        failures.append(result.failures)
    assert trees[1] == trees[0] and trees[2] == trees[0]
    assert failures[1] == failures[0] and failures[2] == failures[0]
    assert [f["variant"] for f in failures[0]] == (["de_cartesian"] * 2 if failing else [])


def test_experiment_with_stub_solver_same_for_any_worker_count(tmp_path, monkeypatch):
    from bwopt.scenario import build_scenario
    from bwopt.wave import FileExchangeWaveModel

    stub = Path(__file__).resolve().parent / "stub_solver.py"
    plan = plan_from_dict(plan_dict(seeds=[1, 2], generations=1, population_size=4, archive_size=4,
                                    variants=[{"algorithm": "spea2", "encoding": "angular"}]))
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        work = tmp_path / f"solver{cpus}"
        scenario = replace(build_scenario(scenario_dict()),
                           wave_model=FileExchangeWaveModel([sys.executable, str(stub), "3"], work))
        run_experiment(plan, scenario, tmp_path / f"w{cpus}")
        trees.append(tree_bytes(tmp_path / f"w{cpus}"))
        workers = sorted(p.name for p in work.glob("worker_*"))
        assert len(workers) == cpus - 1  # the forked run used its own directory
    assert trees[1] == trees[0]


def test_stub_solver_tree_equals_the_builtin_tree(tmp_path):
    # the external path exchanges full fields and samples them; the built-in
    # path computes heights over the control points' box only
    from bwopt.scenario import build_scenario
    from bwopt.wave import FileExchangeWaveModel

    stub = Path(__file__).resolve().parent / "stub_solver.py"
    plan = plan_from_dict(plan_dict(seeds=[1, 2], generations=2, population_size=4, archive_size=4,
                                    variants=[{"algorithm": "spea2", "encoding": "angular"},
                                              {"algorithm": "de", "encoding": "angular"}]))
    run_experiment(plan, build_scenario(scenario_dict()), tmp_path / "builtin")
    scenario = replace(build_scenario(scenario_dict()),
                       wave_model=FileExchangeWaveModel([sys.executable, str(stub), "3"], tmp_path / "work"))
    run_experiment(plan, scenario, tmp_path / "external")
    builtin, external = tree_bytes(tmp_path / "builtin"), tree_bytes(tmp_path / "external")
    assert len(builtin) == 24
    assert list(external) == list(builtin)
    assert [name for name in builtin if external[name] != builtin[name]] == []


# ----- CLI -----

def test_cli_validate_ok(tmp_path, capsys):
    path = write_scenario(tmp_path / "scn.json")
    assert main(["validate", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "is valid" in out and "20x14 grid" in out


def test_cli_validate_reports_problems(tmp_path, capsys):
    path = write_scenario(tmp_path / "bad.json", control_points=[[4, 13]])
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "scenario invalid" in err and "land" in err


def test_cli_validate_missing_file(capsys):
    assert main(["validate", "--scenario", "/nonexistent/scn.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_baseline(tmp_path, capsys):
    path = write_scenario(tmp_path / "scn.json")
    assert main(["baseline", "--scenario", str(path), "--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "cost reference: 40.0 m" in out
    assert "fairway clearance: 120.0 m" in out
    assert "control point 1 wave height: 2.0 m" in out
    baseline = json.loads((tmp_path / "b" / "baseline.json").read_text())
    assert baseline == {"cost_ref": 40.0, "nav_distance": 120.0, "wave_heights": [2.0]}
    field = read_field(tmp_path / "b" / "baseline_field.txt")
    assert field.shape == (14, 20)


def test_cli_optimize_and_metrics(tmp_path, capsys):
    scn = write_scenario(tmp_path / "scn.json")
    out = tmp_path / "run"
    code = main([
        "optimize", "--scenario", str(scn), "--out", str(out),
        "--algorithm", "spea2", "--generations", "3", "--population", "6", "--seed", "4",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "18 model runs" in printed
    config = json.loads((out / "config.json").read_text())
    assert config["archive_size"] == 6  # defaults to the population size
    assert config["seed"] == 4
    for name in ("history.json", "snapshots.csv", "final_front.json", "final_front.csv",
                 "scenario.json", "metrics.json"):
        assert (out / name).is_file()

    assert main(["metrics", str(out)]) == 0
    metrics_out = capsys.readouterr().out
    assert "union hypervolume" in metrics_out
    assert "objective columns: [0, 1, 2]" in metrics_out

    assert main(["metrics", str(out), "--objectives", "cost,waves"]) == 0
    assert "objective columns: [0, 2]" in capsys.readouterr().out

    assert main(["metrics", str(out), "--objectives", "speed"]) == 1
    assert "unknown objective group" in capsys.readouterr().err


def test_cli_optimize_determinism(tmp_path):
    scn = write_scenario(tmp_path / "scn.json")
    args = ["--scenario", str(scn), "--algorithm", "de", "--generations", "2",
            "--population", "5", "--seed", "9"]
    assert main(["optimize", *args, "--out", str(tmp_path / "a")]) == 0
    assert main(["optimize", *args, "--out", str(tmp_path / "b")]) == 0
    first, second = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert list(first) == list(second)
    assert all(first[k] == second[k] for k in first)


def test_cli_experiment(tmp_path, capsys):
    write_scenario(tmp_path / "scn.json")
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan_dict(scenario="scn.json", seeds=[1], generations=2)))
    out = tmp_path / "exp"
    assert main(["experiment", "--plan", str(plan_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "spea2_angular seed 1" in printed
    assert "de_cartesian seed 1" in printed
    assert (out / "summary.csv").is_file()


def test_cli_experiment_scenario_override(tmp_path, capsys):
    write_scenario(tmp_path / "ignored.json", name="ignored")
    override = write_scenario(tmp_path / "other.json", name="override-me")
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan_dict(
        scenario="ignored.json", seeds=[1], generations=1,
        variants=[{"algorithm": "spea2", "encoding": "angular"}],
    )))
    out = tmp_path / "exp"
    assert main(["experiment", "--plan", str(plan_path), "--scenario", str(override), "--out", str(out)]) == 0
    scenario = json.loads((out / "scenario.json").read_text())
    assert scenario["name"] == "override-me"


def test_cli_experiment_requires_scenario(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan_dict(seeds=[1])))
    assert main(["experiment", "--plan", str(plan_path), "--out", str(tmp_path / "x")]) == 1
    assert "names no scenario" in capsys.readouterr().err


@pytest.mark.parametrize("dwell", [0, -1])
def test_cli_experiment_rejects_generations_per_segment_below_one(tmp_path, capsys, dwell):
    # a greedy run would fail after generation 0 (0) or run the schedule backwards (-1)
    write_scenario(tmp_path / "scn.json")
    plan_path = tmp_path / "plan.json"
    plan = plan_dict(scenario="scn.json", operators={"generations_per_segment": dwell})
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "exp"
    assert main(["experiment", "--plan", str(plan_path), "--out", str(out)]) == 1
    assert "generations_per_segment must be at least 1" in capsys.readouterr().err
    assert not out.exists()  # no run started


def test_cli_run_failure_exit_code(tmp_path, monkeypatch, capsys):
    scn = write_scenario(tmp_path / "scn.json")

    def boom(*args, **kwargs):
        raise RuntimeError("evaluation failed at generation 1, individual 2")

    monkeypatch.setattr("bwopt.cli.optimize_once", boom)
    code = main(["optimize", "--scenario", str(scn), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "run failed" in capsys.readouterr().err


def test_cli_export_field_baseline(tmp_path, capsys, unit_scenario):
    scn = write_scenario(tmp_path / "scn.json")
    out = tmp_path / "field"
    assert main(["export-field", "--scenario", str(scn), "--out", str(out)]) == 0
    field = read_field(out / "field.txt")
    land = unit_scenario.grid.land_mask
    assert np.array_equal(field[~land], simulate_layout([], unit_scenario)[~land])
    assert np.all(field[land] == -1.0)
    assert (out / "new_structures.txt").read_text() == ""
    existing = (out / "existing_structures.txt").read_text()
    assert existing.count("\n") == 1  # the one groin polyline


def test_cli_export_field_front_member(tmp_path, capsys, unit_scenario):
    scn = write_scenario(tmp_path / "scn.json")
    run_dir = tmp_path / "run"
    assert main([
        "optimize", "--scenario", str(scn), "--out", str(run_dir),
        "--generations", "3", "--population", "6", "--seed", "4",
    ]) == 0
    out = tmp_path / "field"
    assert main([
        "export-field", "--scenario", str(scn), "--out", str(out),
        "--front", str(run_dir / "final_front.json"), "--member", "0",
    ]) == 0
    field = read_field(out / "field.txt")
    assert field.shape == (14, 20)
    assert (out / "new_structures.txt").read_text() != ""

    assert main([
        "export-field", "--scenario", str(scn), "--out", str(out),
        "--front", str(run_dir / "final_front.json"), "--member", "999",
    ]) == 1
    assert "out of range" in capsys.readouterr().err


def test_load_plan_from_file(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan_dict()))
    plan = load_plan(plan_path)
    assert isinstance(plan, ExperimentPlan)
    assert plan.variants[0] == VariantSpec("spea2", Encoding.ANGULAR, False)


def test_shipped_default_plan_protocol():
    # the shipped comparison protocol: 30 individuals for 30 generations
    plan = plan_from_dict({"seeds": list(DEFAULT_SEEDS)})
    config = plan.config_for(plan.variants[0], DEFAULT_SEEDS[0])
    assert config.population_size == 30
    assert config.generations == 30
