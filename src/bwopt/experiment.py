"""Experiment orchestration and result persistence.

A plan is a JSON file naming a scenario, a seed list and one or more
optimizer variants (algorithm x encoding x greedy flag). Running it produces
a self-describing output tree:

    out/
      plan.json          resolved plan (defaults filled in)
      scenario.json      the scenario the runs used
      metrics.json       shared reference point, per-variant hypervolumes
      summary.csv        one row per (variant, seed)
      <variant>/
        convergence.csv  per-generation hypervolume quartiles across seeds
        fronts_2d.csv    final fronts projected to (cost, mean wave) change
        seed_<s>/
          history.json   per-generation archive/front points and counters
          snapshots.csv  generation, model runs, front size, hypervolume
          final_front.json  genotypes + objectives + decoded layouts
          final_front.csv

Everything is written deterministically (sorted keys, repr floats, no
timestamps): re-running the same plan, scenario and seeds reproduces every
file byte for byte. Hypervolumes within one output tree share a single
reference point computed over all runs, so values are comparable across
variants, seeds and generations.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .evolution import EAConfig, Individual, RunHistory, run_de, run_spea2
from .geometry import Encoding, decode
from .metrics import (
    FrontSnapshot,
    all_front_points,
    quartile_table,
    reduce_to_2d,
    reference_point,
    run_snapshots,
)
from .objectives import COST_INDEX, NAV_INDEX, WAVE_START_INDEX
from .parallel import share
from .scenario import Scenario, load_scenario, scenario_to_json

ALGORITHMS = ("spea2", "de")

# default seed list for shipped-scenario comparisons; the qualitative
# encoding/greedy claims are asserted on exactly these seeds
DEFAULT_SEEDS = (1, 3, 5, 10, 24)


@dataclass(frozen=True)
class VariantSpec:
    algorithm: str
    encoding: Encoding
    greedy: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")

    @property
    def name(self) -> str:
        return f"{self.algorithm}_{self.encoding.value}" + ("_greedy" if self.greedy else "")


# EAConfig fields that config_for takes from the plan, its variant and the seed
_PLAN_FIELDS = {"population_size", "archive_size", "generations", "encoding", "greedy", "seed"}


@dataclass
class ExperimentPlan:
    variants: list[VariantSpec]
    seeds: list[int]
    generations: int = 30
    population_size: int = 30
    archive_size: int = 30
    scenario: str | None = None     # path relative to the plan file, or a shipped name
    name: str = "experiment"
    operators: dict | None = None   # EAConfig field overrides

    def __post_init__(self):
        if not self.variants:
            raise ValueError("plan lists no variants")
        if not self.seeds:
            raise ValueError("plan lists no seeds")
        if len(set(v.name for v in self.variants)) != len(self.variants):
            raise ValueError("plan lists duplicate variants")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("plan lists duplicate seeds")  # their runs would share an output path
        operators = set(self.operators or ())
        unknown = operators - set(EAConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown operator keys in plan: {sorted(unknown)}")
        fixed = operators & _PLAN_FIELDS
        if fixed:
            raise ValueError(f"operator keys {sorted(fixed)} are set by the plan and its variants")
        EAConfig(**(self.operators or {}))  # rejects bad operator values before any run starts

    @property
    def repeats(self) -> int:
        return len(self.seeds)

    def config_for(self, variant: VariantSpec, seed: int) -> EAConfig:
        config = EAConfig(
            population_size=self.population_size,
            archive_size=self.archive_size,
            generations=self.generations,
            encoding=variant.encoding,
            greedy=variant.greedy,
            seed=seed,
        )
        return replace(config, **self.operators) if self.operators else config


def _plan_value(value, key: str, kind: type = int):
    """value if its type is kind, bool or int (a bool or 2.0 is no int); ValueError naming key otherwise."""
    if type(value) is not kind:
        raise ValueError(f"plan {key} must be {'a bool' if kind is bool else 'an integer'}, got {value!r}")
    return value


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Build a plan from parsed JSON; a single top-level variant is allowed."""
    variants = [
        VariantSpec(
            algorithm=str(v.get("algorithm", "spea2")),
            encoding=Encoding(v.get("encoding", "angular")),
            greedy=_plan_value(v.get("greedy", False), "greedy", bool),
        )
        for v in (data["variants"] if "variants" in data else [data])
    ]
    seeds = [_plan_value(s, "seeds") for s in data["seeds"]]
    if "repeats" in data and _plan_value(data["repeats"], "repeats") != len(seeds):
        raise ValueError(f"plan says repeats={data['repeats']} but lists {len(seeds)} seeds")
    sizes = ("generations", "population_size", "archive_size")
    return ExperimentPlan(
        variants=variants,
        seeds=seeds,
        **{key: _plan_value(data.get(key, getattr(ExperimentPlan, key)), key) for key in sizes},
        scenario=data.get("scenario"),
        name=str(data.get("name", ExperimentPlan.name)),
        operators=data.get("operators"),
    )


def load_plan(path: str | Path) -> ExperimentPlan:
    path = Path(path)
    with open(path) as fh:
        return plan_from_dict(json.load(fh))


def plan_to_dict(plan: ExperimentPlan) -> dict:
    out = {
        "name": plan.name,
        "scenario": plan.scenario,
        "seeds": list(plan.seeds),
        "repeats": plan.repeats,
        "generations": plan.generations,
        "population_size": plan.population_size,
        "archive_size": plan.archive_size,
        "variants": [
            {"algorithm": v.algorithm, "encoding": v.encoding.value, "greedy": v.greedy}
            for v in plan.variants
        ],
    }
    if plan.operators:
        out["operators"] = dict(plan.operators)
    return out


def shipped_scenario_path(name: str) -> Path:
    """Path of a scenario JSON shipped inside the package."""
    stem = name[:-5] if name.endswith(".json") else name
    return Path(resources.files("bwopt").joinpath("data", f"{stem}.json"))


def resolve_scenario(spec: str, base_dir: Path | None = None) -> Scenario:
    """Load a scenario from a filesystem path or by shipped name."""
    candidate = Path(spec) if base_dir is None else Path(base_dir) / spec
    if candidate.is_file():
        return load_scenario(candidate)
    if Path(spec).is_file():
        return load_scenario(spec)
    shipped = shipped_scenario_path(spec)
    if shipped.is_file():
        return load_scenario(shipped)
    raise FileNotFoundError(f"scenario {spec!r} is neither a file nor a shipped scenario")


# ----- serialization helpers --------------------------------------------------

def _json_default(obj):
    """json.dump hook for the NumPy values the exports hold."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _f(value) -> str:
    return repr(float(value))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write a header and rows; every float cell, np.float64 included, as repr(float(v))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_f(v) if isinstance(v, float) else v for v in row] for row in rows)


# ----- per-run exports ---------------------------------------------------------

def run_meta(scenario: Scenario, algorithm: str, config: EAConfig) -> dict:
    """What a run's final_front.json says about the run it came from."""
    return {
        "scenario": scenario.name,
        "algorithm": algorithm,
        "encoding": config.encoding.value,
        "greedy": config.greedy,
        "seed": config.seed,
    }


def history_to_dict(history: RunHistory) -> dict:
    return {
        "algorithm": history.algorithm,
        "config": asdict(history.config),
        "greedy_checks": history.greedy_checks,
        "greedy_violations": history.greedy_violations,
        "generations": [
            {
                "generation": r.generation,
                "model_runs": r.model_runs,
                "best_scalar": r.best_scalar,
                "archive": [ind.point for ind in r.archive],
                "front": [ind.point for ind in r.front],
            }
            for r in history.records
        ],
    }


def front_member_dict(ind: Individual, scenario: Scenario) -> dict:
    layout = decode(ind.genotype, scenario.attachments)
    return {
        "encoding": ind.genotype.encoding.value,
        "genes": ind.genotype.genes,
        "point": ind.point,
        "objectives": {
            "cost": ind.objectives.cost,
            "nav_distance": ind.objectives.nav_distance,
            "wave_heights": ind.objectives.wave_heights,
        },
        "relative": {
            "cost": ind.point[COST_INDEX],
            "nav_distance": -ind.point[NAV_INDEX],
            "wave_heights": ind.point[WAVE_START_INDEX:],
        },
        "layout": [verts for verts in layout.breakwaters],
    }


def write_front(dir_path: Path, front: list[Individual], scenario: Scenario, meta: dict) -> None:
    members = [front_member_dict(ind, scenario) for ind in front]
    write_json(dir_path / "final_front.json", {**meta, "members": members})
    n_waves = len(scenario.baseline.wave_heights)
    header = (
        ["member", "cost_m", "nav_m"]
        + [f"h{k + 1}_m" for k in range(n_waves)]
        + ["cost_pct", "nav_pct"]
        + [f"h{k + 1}_pct" for k in range(n_waves)]
        + ["genes", "layout"]
    )
    rows = []
    for i, m in enumerate(members):
        layout_text = "|".join(
            ";".join(f"{_f(x)} {_f(y)}" for x, y in verts) for verts in m["layout"]
        )
        raw, rel = m["objectives"], m["relative"]
        rows.append(
            [i, raw["cost"], raw["nav_distance"], *raw["wave_heights"]]
            + [rel["cost"], rel["nav_distance"], *rel["wave_heights"]]
            + [" ".join(_f(g) for g in m["genes"]), layout_text]
        )
    write_csv(dir_path / "final_front.csv", header, rows)


def write_snapshots(path: Path, snapshots: list[FrontSnapshot]) -> None:
    write_csv(path, [f.name for f in fields(FrontSnapshot)], [astuple(s) for s in snapshots])


def export_run(dir_path: Path, history: RunHistory, scenario: Scenario) -> None:
    """Write the run's files that need no reference: history.json and final_front.*."""
    dir_path.mkdir(parents=True, exist_ok=True)
    write_json(dir_path / "history.json", history_to_dict(history))
    meta = run_meta(scenario, history.algorithm, history.config)
    write_front(dir_path, history.final_front(), scenario, meta)


# ----- experiment driver --------------------------------------------------------

def run_single(algorithm: str, config: EAConfig, scenario: Scenario) -> RunHistory:
    if algorithm == "spea2":
        return run_spea2(config, scenario)
    if algorithm == "de":
        return run_de(config, scenario)
    raise ValueError(f"unknown algorithm {algorithm!r}")


@dataclass
class ExperimentResult:
    out_dir: Path
    reference: np.ndarray
    summary_rows: list[dict]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(plan: ExperimentPlan, scenario: Scenario, out_dir: str | Path) -> ExperimentResult:
    """Execute the plan matrix and persist all results under out_dir.

    The (variant, seed) runs are independent, so they are shared across CPUs
    (parallel.share), and each participant writes the files of its own runs
    that need no reference (export_run) as soon as a run returns. The parent
    then takes the shared reference over every run, computes every run's
    snapshots in one run_snapshots call and writes each snapshots.csv and
    the per-variant and top-level files in plan order.
    A failed run is recorded and the remaining runs continue; the caller can
    check ExperimentResult.ok for the exit status.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "plan.json", plan_to_dict(plan))
    (out / "scenario.json").write_text(scenario_to_json(scenario))

    def attempt(task: tuple[VariantSpec, int]) -> tuple[RunHistory | None, str | None]:
        variant, seed = task
        try:
            history = run_single(variant.algorithm, plan.config_for(variant, seed), scenario)
        except Exception as exc:  # record and keep going
            return None, str(exc)
        export_run(out / variant.name / f"seed_{seed}", history, scenario)
        return history, None

    tasks = [(variant, seed) for variant in plan.variants for seed in plan.seeds]
    histories: dict[tuple[str, int], RunHistory] = {}
    failures: list[dict] = []
    for (variant, seed), (history, error) in zip(tasks, share(attempt, tasks)):
        if error is None:
            histories[(variant.name, seed)] = history
        else:
            failures.append({"variant": variant.name, "seed": seed, "error": error})

    if not histories:
        raise RuntimeError(f"all {len(failures)} runs failed; first error: {failures[0]['error']}")
    reference = shared_reference(histories.values(), scenario)
    snapshots_of = dict(zip(histories, run_snapshots(list(histories.values()), reference)))

    summary_rows: list[dict] = []
    metrics: dict = {
        "reference_point": reference,
        "objective_labels": objective_labels(scenario),
        "variants": {},
    }
    for variant in plan.variants:
        variant_dir = out / variant.name
        variant_dir.mkdir(parents=True, exist_ok=True)
        snapshot_lists: list[list[FrontSnapshot]] = []
        front_rows: list[list] = []
        finals: dict[str, float] = {}
        for seed in plan.seeds:
            history = histories.get((variant.name, seed))
            if history is None:
                continue
            snapshots = snapshots_of[(variant.name, seed)]
            write_snapshots(variant_dir / f"seed_{seed}" / "snapshots.csv", snapshots)
            snapshot_lists.append(snapshots)
            final = snapshots[-1]
            finals[str(seed)] = final.hypervolume
            summary_rows.append(
                {
                    "variant": variant.name,
                    "algorithm": variant.algorithm,
                    "encoding": variant.encoding.value,
                    "greedy": variant.greedy,
                    "seed": seed,
                    "generations": plan.generations,
                    "population_size": plan.population_size,
                    "model_runs": final.model_runs,
                    "final_front_size": final.front_size,
                    "final_hypervolume": final.hypervolume,
                    "best_scalar": final.best_scalar,
                    "greedy_checks": history.greedy_checks,
                    "greedy_violations": history.greedy_violations,
                }
            )
            if history.final_front():
                points = np.array([ind.point for ind in history.final_front()])
                front_rows.extend([seed, *row] for row in reduce_to_2d(points))
        write_csv(
            variant_dir / "convergence.csv",
            ["generation", "model_runs", "hv_q1", "hv_median", "hv_q3", "hv_min", "hv_max"],
            [list(r.values()) for r in quartile_table(snapshot_lists)],
        )
        write_csv(variant_dir / "fronts_2d.csv", ["seed", "cost_pct", "mean_wave_pct"], front_rows)
        values = np.array(sorted(finals.values()))
        metrics["variants"][variant.name] = {
            "final_hypervolume": finals,
            "median_final_hypervolume": float(np.median(values)) if len(values) else None,
            "iqr_final_hypervolume": (
                [float(np.percentile(values, 25)), float(np.percentile(values, 75))]
                if len(values)
                else None
            ),
        }
    if failures:
        metrics["failures"] = failures
    write_json(out / "metrics.json", metrics)

    write_csv(out / "summary.csv", list(summary_rows[0]), [list(r.values()) for r in summary_rows])
    return ExperimentResult(out_dir=out, reference=reference, summary_rows=summary_rows, failures=failures)


def objective_labels(scenario: Scenario) -> list[str]:
    return ["cost_pct", "neg_nav_pct"] + [
        f"h{k + 1}_pct" for k in range(len(scenario.baseline.wave_heights))
    ]


def shared_reference(histories, scenario: Scenario) -> np.ndarray:
    """reference_point over every run's arrivals, or zeros (every hypervolume 0) if there are none."""
    if any(record.arrivals for history in histories for record in history.records):
        return reference_point(all_front_points(histories))
    return np.zeros(len(objective_labels(scenario)))


def optimize_once(
    algorithm: str,
    config: EAConfig,
    scenario: Scenario,
    out_dir: str | Path,
) -> RunHistory:
    """Single run with self-describing exports (scenario + config + results)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    history = run_single(algorithm, config, scenario)
    (out / "scenario.json").write_text(scenario_to_json(scenario))
    write_json(out / "config.json", {"algorithm": algorithm, **asdict(config)})
    export_run(out, history, scenario)
    reference = shared_reference([history], scenario)
    write_snapshots(out / "snapshots.csv", run_snapshots([history], reference)[0])
    write_json(out / "metrics.json", {
        "reference_point": reference,
        "objective_labels": objective_labels(scenario),
    })
    return history
