"""One benchmark pass in a fresh process: load bwopt, run a workload, check it.

Run by perfbench/run.py, one process per pass, so that set-up time and
peak resident memory belong to that pass alone and wrapped (traced) code
never leaks into an untraced pass. Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload spea2_angular --ea-seed 1000 --trace 0
    python3 perfbench/worker.py --setup-only
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SCENARIO = "sochi_like"
POPULATION = 30
GENERATIONS = 30


@dataclass(frozen=True)
class Workload:
    """One pass runs every variant once on a single EA seed."""

    name: str
    kind: str                                    # "search" or "experiment"
    variants: tuple[tuple[str, str, bool], ...]  # (algorithm, encoding, greedy)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spea2_angular", "search", (("spea2", "angular", False),)),
        Workload("experiment_greedy", "experiment", (("spea2", "angular", True), ("de", "angular", True))),
    )
}


# ----- bwopt import ----------------------------------------------------------

def import_bwopt():
    """Import bwopt from this checkout's src/, never from anywhere else."""
    if not (SRC / "bwopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bwopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bwopt

    if Path(bwopt.__file__).resolve().parent != (SRC / "bwopt").resolve():
        raise SystemExit(f"perfbench: imported bwopt from {bwopt.__file__}, not from {SRC}")
    return bwopt


# ----- calibration probe -----------------------------------------------------

def probe() -> float:
    """Seconds for a fixed pure-Python plus numpy loop, a machine-speed yardstick."""
    start = perf_counter()
    acc = 0.0
    for i in range(300_000):
        acc += math.sqrt(i) * 0.5
    grid = np.linspace(0.0, 1.0, 2700).reshape(45, 60)
    for _ in range(800):
        grid = np.sqrt(grid * grid + 1e-3)
        grid[1:, :] *= 0.999
    return perf_counter() - start


# ----- output checks -----------------------------------------------------------
# Each returns a list of problems; empty means the check passed.

def budget_problems(records: list[tuple[int, int]], population: int, generations: int) -> list[str]:
    """records: (generation, model_runs) per generation, in order."""
    out = []
    if len(records) != max(1, generations):
        out.append(f"{len(records)} generation records, expected {max(1, generations)}")
    for gen, runs in records:
        if runs != population * (gen + 1):
            out.append(f"generation {gen}: model_runs {runs} != {population} * {gen + 1}")
    return out


def dominated_rows(points: np.ndarray) -> np.ndarray:
    """Indices of rows strictly dominated by another row (minimization)."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return np.empty(0, dtype=int)
    le = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)
    lt = np.any(pts[:, None, :] < pts[None, :, :], axis=2)
    return np.flatnonzero(np.any(le & lt, axis=0))


def front_problems(points: np.ndarray, violations: list[int]) -> list[str]:
    """Every final-front point must be feasible and no point may dominate another."""
    out = []
    bad = [i for i, v in enumerate(violations) if v != 0]
    if bad:
        out.append(f"final front members {bad[:5]} violate constraints")
    dominated = dominated_rows(points)
    if len(dominated):
        out.append(f"final front points {dominated[:5].tolist()} are dominated")
    return out


def coverage_problems(fronts: list[np.ndarray]) -> list[str]:
    """Each generation's front weakly dominates every point of the previous one.

    This holds for a cumulative nondominated front and implies that its
    hypervolume never decreases, whatever the reference point.
    """
    out = []
    for gen in range(1, len(fronts)):
        prev, cur = np.asarray(fronts[gen - 1]), np.asarray(fronts[gen])
        if len(prev) == 0:
            continue
        if len(cur) == 0:
            out.append(f"generation {gen}: front emptied")
            continue
        covered = np.any(np.all(cur[None, :, :] <= prev[:, None, :], axis=2), axis=1)
        if not np.all(covered):
            out.append(f"generation {gen}: {int((~covered).sum())} earlier front points lost")
    return out


def monotone_problems(values: list[float]) -> list[str]:
    drops = [i for i in range(1, len(values)) if values[i] < values[i - 1]]
    return [f"hypervolume decreases at generations {drops[:5]}"] if drops else []


def front_points(members) -> np.ndarray:
    return np.array([ind.point for ind in members]) if members else np.empty((0, 0))


def history_problems(history, scenario) -> list[str]:
    from bwopt.objectives import constraint_counts

    config = history.config
    front = history.final_front()
    violations = [
        sum(constraint_counts(ind.genotype, scenario)) + (0 if ind.objectives.feasible else 1)
        for ind in front
    ]
    out = budget_problems(
        [(r.generation, r.model_runs) for r in history.records],
        config.population_size,
        config.generations,
    )
    if history.greedy_violations:
        out.append(f"{history.greedy_violations} greedy mask violations")
    out += front_problems(front_points(front), violations)
    out += coverage_problems([front_points(r.front) for r in history.records])
    return out


def exported_run_problems(run_dir: Path, scenario, population: int, generations: int) -> list[str]:
    """Checks on one run's files in an experiment tree."""
    from bwopt.geometry import Encoding, Genotype
    from bwopt.objectives import constraint_counts

    history = json.loads((run_dir / "history.json").read_text())
    out = budget_problems(
        [(g["generation"], g["model_runs"]) for g in history["generations"]], population, generations
    )
    if history["greedy_violations"]:
        out.append(f"{history['greedy_violations']} greedy mask violations")
    out += coverage_problems([np.array(g["front"]) for g in history["generations"]])
    members = json.loads((run_dir / "final_front.json").read_text())["members"]
    points = np.array([m["point"] for m in members])
    violations = [
        sum(constraint_counts(Genotype(Encoding(m["encoding"]), np.array(m["genes"])), scenario))
        for m in members
    ]
    out += front_problems(points, violations)
    lines = (run_dir / "snapshots.csv").read_text().splitlines()
    column = lines[0].split(",").index("hypervolume")
    out += monotone_problems([float(line.split(",")[column]) for line in lines[1:]])
    return out


# ----- workloads ----------------------------------------------------------------

def run_configs(workload: Workload, ea_seed: int, population: int, generations: int) -> list[tuple[str, str, object]]:
    """(label, algorithm, EAConfig) of every optimizer run of a pass, in run order."""
    from bwopt.evolution import EAConfig
    from bwopt.geometry import Encoding

    return [
        (
            f"{algorithm}_{encoding}{'_greedy' if greedy else ''}/seed_{ea_seed}",
            algorithm,
            EAConfig(
                population_size=population,
                archive_size=population,
                generations=generations,
                encoding=Encoding(encoding),
                greedy=greedy,
                seed=ea_seed,
            ),
        )
        for algorithm, encoding, greedy in workload.variants
    ]


def run_search(workload: Workload, ea_seed: int, scenario, population: int, generations: int):
    """Timed part of a search pass: sequential optimizer runs."""
    import bwopt.evolution as evolution

    runs = []
    for label, algorithm, config in run_configs(workload, ea_seed, population, generations):
        try:
            runs.append((label, getattr(evolution, f"run_{algorithm}")(config, scenario), None))
        except Exception:  # a failed run is counted, the pass goes on
            runs.append((label, None, traceback.format_exc()))
    return runs


def check_search(runs, scenario) -> tuple[list[dict], str, dict]:
    results = []
    digest = hashlib.sha256()
    counts = {"evaluations": 0, "front_points": 0}
    for label, history, error in runs:
        problems = [error] if error else history_problems(history, scenario)
        results.append({"label": label, "problems": problems})
        if history is not None and history.records:
            front = history.final_front()
            digest.update(label.encode())
            for ind in front:
                digest.update(np.ascontiguousarray(ind.point, dtype=float).tobytes())
            counts["evaluations"] += history.records[-1].model_runs
            counts["front_points"] += len(front)
    return results, digest.hexdigest(), counts


def run_experiment_pass(workload: Workload, ea_seed: int, scenario, population: int, generations: int, out_dir: Path):
    """Timed part of an experiment pass: the whole run_experiment, export included."""
    import bwopt.experiment as experiment
    from bwopt.geometry import Encoding

    plan = experiment.ExperimentPlan(
        variants=[experiment.VariantSpec(a, Encoding(e), g) for a, e, g in workload.variants],
        seeds=[ea_seed],
        generations=generations,
        population_size=population,
        archive_size=population,
        scenario=SCENARIO,
        name=workload.name,
    )
    try:
        return plan, experiment.run_experiment(plan, scenario, out_dir), None
    except Exception:  # every run of the pass is counted as failed
        return plan, None, traceback.format_exc()


def check_experiment(plan, result, error, out_dir: Path, scenario) -> tuple[list[dict], str, dict]:
    failed = {(f["variant"], f["seed"]): f["error"] for f in (result.failures if result else [])}
    results = []
    for variant in plan.variants:
        for seed in plan.seeds:
            label = f"{variant.name}/seed_{seed}"
            run_dir = out_dir / variant.name / f"seed_{seed}"
            if error or (variant.name, seed) in failed:
                problems = [error or failed[(variant.name, seed)]]
            elif not run_dir.is_dir():
                problems = [f"{run_dir.name} of {variant.name} was not exported"]
            else:
                problems = exported_run_problems(run_dir, scenario, plan.population_size, plan.generations)
            results.append({"label": label, "problems": problems})
    if result is not None and not result.ok and not failed:
        results[0]["problems"].append("ExperimentResult.ok is false")
    digest = hashlib.sha256()
    counts = {"evaluations": 0, "files_written": 0, "bytes_written": 0}
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(data).digest())
            counts["files_written"] += 1
            counts["bytes_written"] += len(data)
    if result is not None:
        counts["evaluations"] = sum(int(r["model_runs"]) for r in result.summary_rows)
    return results, digest.hexdigest(), counts


# ----- tracing -------------------------------------------------------------------

SPAN_TARGETS = {
    "evolution.loop": ["bwopt.evolution:run_spea2", "bwopt.evolution:run_de",
                       "bwopt.experiment:run_spea2", "bwopt.experiment:run_de"],
    "evolution.init": ["bwopt.evolution:init_population"],
    "objectives.evaluate": ["bwopt.scenario:evaluate"],
    "geometry.decode": ["bwopt.objectives:decode"],
    "geometry.constraints": ["bwopt.objectives:_layout_constraints"],
    "geometry.clearance": ["bwopt.objectives:min_distance_to_fairway"],
    "geometry.rasterize": ["bwopt.objectives:rasterize"],
    "wave.obstacle_merge": ["bwopt.wave:ObstacleSet.from_pairs", "bwopt.wave:ObstacleSet.merged_with"],
    "wave.simulate": ["bwopt.wave:simulate"],
    "wave.sample": ["bwopt.objectives:sample"],
    "evolution.spea2_fitness": ["bwopt.evolution:spea2_fitness"],
    "evolution.selection": ["bwopt.evolution:environmental_selection"],
    "evolution.front_update": ["bwopt.evolution:_update_front"],
    "evolution.breed": ["bwopt.evolution:_breed", "bwopt.evolution:_de_trial"],
    "metrics.snapshots": ["bwopt.experiment:run_snapshots"],
    "experiment.export": ["bwopt.experiment:export_run"],
}

COUNT_TARGETS = {
    "evolution.dominance_checks": "bwopt.evolution:dominates",
    "evolution.truncation.removals": "bwopt.evolution:_truncate",
    "evolution.init.probes": "bwopt.objectives:constraint_counts",
    "metrics.hv.recursion_calls": "bwopt.metrics:_hv",
    "metrics.hv.points_added": "bwopt.metrics:IncrementalHypervolume.add",
}


def install_tracing(tracer) -> set[bytes]:
    """Wrap every traced boundary; returns the set of distinct obstacle-set keys."""
    import bwopt.geometry as geometry

    counts = tracer.counts
    obstacle_keys: set[bytes] = set()
    sample_polyline = getattr(geometry, "sample_polyline", None)
    if sample_polyline is None:
        tracer.absent.append("bwopt.geometry:sample_polyline")

    def clearance_pairs(args, _result):
        # min_distance_to_fairway(layout, fairway, cell_size, sampling_step)
        if sample_polyline is None:
            return
        layout, fairway = args[0], args[1]
        step = args[3] if len(args) > 3 else 0.25
        a = sum(len(sample_polyline(v, step)) for v in layout.breakwaters)
        counts["geometry.clearance.sample_pairs"] += a * len(sample_polyline(np.asarray(fairway, float), step))

    def rasterized_cells(_args, result):
        counts["geometry.rasterize.cells"] += len(result)

    def obstacle_key(args, _result):
        cells = getattr(args[1], "cells", None)
        if cells is not None:
            obstacle_keys.add(hashlib.blake2b(repr(sorted(cells.items())).encode()).digest())
        elif "bwopt.wave:ObstacleSet.cells" not in tracer.absent:
            tracer.absent.append("bwopt.wave:ObstacleSet.cells")

    after = {
        "geometry.clearance": clearance_pairs,
        "geometry.rasterize": rasterized_cells,
        "wave.simulate": obstacle_key,
    }
    for name, targets in SPAN_TARGETS.items():
        for target in targets:
            tracer.span(target, name, after.get(name))
    for name, target in COUNT_TARGETS.items():
        amount = (lambda args: len(args[0]) - args[1]) if name == "evolution.truncation.removals" else None
        tracer.count(target, name, amount)
    return obstacle_keys


# Per-layer metrics of a traced pass, name -> unit. Counts and bytes must repeat exactly.
PER_LAYER = {
    "scenario.load_ms": "ms",
    "geometry.decode.busy_ms": "ms",
    "geometry.constraints.calls": "count",
    "geometry.constraints.busy_ms": "ms",
    "geometry.rasterize.busy_ms": "ms",
    "geometry.rasterize.cells": "count",
    "geometry.clearance.busy_ms": "ms",
    "geometry.clearance.sample_pairs": "count",
    "wave.simulate.calls": "count",
    "wave.simulate.busy_ms": "ms",
    "wave.simulate.ms_p50": "ms",
    "wave.obstacle_merge.busy_ms": "ms",
    "wave.sample.busy_ms": "ms",
    "wave.distinct_obstacle_share": "ratio",
    "objectives.evaluate.calls": "count",
    "objectives.evaluate.ms_p50": "ms",
    "objectives.evaluate.ms_p99": "ms",
    "objectives.evaluate.self_ms": "ms",
    "objectives.feasible_share": "ratio",
    "evolution.init.busy_ms": "ms",
    "evolution.init.probes": "count",
    "evolution.spea2_fitness.busy_ms": "ms",
    "evolution.dominance_checks": "count",
    "evolution.selection.busy_ms": "ms",
    "evolution.truncation.removals": "count",
    "evolution.front_update.busy_ms": "ms",
    "evolution.breed.busy_ms": "ms",
    "evolution.loop.self_ms": "ms",
    "metrics.snapshots.busy_ms": "ms",
    "metrics.hv.recursion_calls": "count",
    "metrics.hv.points_added": "count",
    "experiment.export.self_ms": "ms",
    "experiment.bytes_written": "bytes",
    "experiment.files_written": "count",
}


def layer_metrics(tracer, obstacle_keys: set, counts: dict, load_s: float) -> dict:
    """Per-layer metrics of one traced pass; None marks a metric absent at this commit."""
    from tracer import percentile

    def missing(*targets):
        return all(t in tracer.absent for t in targets)

    def span_missing(name):
        return missing(*SPAN_TARGETS[name])

    def ms(x):
        return x * 1e3

    evaluate = tracer.durations("objectives.evaluate")
    simulate = tracer.durations("wave.simulate")
    out = {
        "scenario.load_ms": ms(load_s),
        "geometry.decode.busy_ms": ms(tracer.busy("geometry.decode")),
        "geometry.constraints.calls": len(tracer.durations("geometry.constraints")),
        "geometry.constraints.busy_ms": ms(tracer.busy("geometry.constraints")),
        "geometry.rasterize.busy_ms": ms(tracer.busy("geometry.rasterize")),
        "geometry.rasterize.cells": tracer.counts["geometry.rasterize.cells"],
        "geometry.clearance.busy_ms": ms(tracer.busy("geometry.clearance")),
        "geometry.clearance.sample_pairs": tracer.counts["geometry.clearance.sample_pairs"],
        "wave.simulate.calls": len(simulate),
        "wave.simulate.busy_ms": ms(tracer.busy("wave.simulate")),
        "wave.simulate.ms_p50": ms(percentile(simulate, 50)),
        "wave.obstacle_merge.busy_ms": ms(tracer.busy("wave.obstacle_merge")),
        "wave.sample.busy_ms": ms(tracer.busy("wave.sample")),
        "wave.distinct_obstacle_share": len(obstacle_keys) / len(simulate) if simulate else 0.0,
        "objectives.evaluate.calls": len(evaluate),
        "objectives.evaluate.ms_p50": ms(percentile(evaluate, 50)),
        "objectives.evaluate.ms_p99": ms(percentile(evaluate, 99)),
        "objectives.evaluate.self_ms": ms(tracer.self_time("objectives.evaluate")),
        "objectives.feasible_share": len(simulate) / len(evaluate) if evaluate else 0.0,
        "evolution.init.busy_ms": ms(tracer.busy("evolution.init")),
        "evolution.init.probes": tracer.counts["evolution.init.probes"],
        "evolution.spea2_fitness.busy_ms": ms(tracer.busy("evolution.spea2_fitness")),
        "evolution.dominance_checks": tracer.counts["evolution.dominance_checks"],
        "evolution.selection.busy_ms": ms(tracer.busy("evolution.selection")),
        "evolution.truncation.removals": tracer.counts["evolution.truncation.removals"],
        "evolution.front_update.busy_ms": ms(tracer.busy("evolution.front_update")),
        "evolution.breed.busy_ms": ms(tracer.busy("evolution.breed")),
        "evolution.loop.self_ms": ms(tracer.self_time("evolution.loop")),
        "metrics.snapshots.busy_ms": ms(tracer.busy("metrics.snapshots")),
        "metrics.hv.recursion_calls": tracer.counts["metrics.hv.recursion_calls"],
        "metrics.hv.points_added": tracer.counts["metrics.hv.points_added"],
        "experiment.export.self_ms": ms(tracer.self_time("experiment.export")),
        "experiment.bytes_written": counts.get("bytes_written", 0),
        "experiment.files_written": counts.get("files_written", 0),
    }
    absent = {
        "geometry.clearance.sample_pairs": span_missing("geometry.clearance")
        or missing("bwopt.geometry:sample_polyline"),
        "geometry.rasterize.cells": span_missing("geometry.rasterize"),
        "wave.distinct_obstacle_share": span_missing("wave.simulate")
        or missing("bwopt.wave:ObstacleSet.cells"),
        "objectives.feasible_share": span_missing("wave.simulate") or span_missing("objectives.evaluate"),
        **{name: missing(target) for name, target in COUNT_TARGETS.items()},
    }
    for name in out:
        span = name.rsplit(".", 1)[0]
        if absent.get(name) or (span in SPAN_TARGETS and span_missing(span)):
            out[name] = None
    return out


# ----- one pass --------------------------------------------------------------------

def run_pass(
    name: str,
    ea_seed: int,
    scenario,
    trace: bool,
    load_s: float = 0.0,
    population: int = POPULATION,
    generations: int = GENERATIONS,
) -> dict:
    """Run, time and check one pass of a workload in this process."""
    from tracer import Tracer

    workload = WORKLOADS[name]
    out_dir = OUT_DIR / f"tree-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    probes = [probe() for _ in range(4)]
    tracer = Tracer() if trace else None
    obstacle_keys = install_tracing(tracer) if trace else set()
    try:
        start = perf_counter()
        if workload.kind == "search":
            output = run_search(workload, ea_seed, scenario, population, generations)
        else:
            output = run_experiment_pass(workload, ea_seed, scenario, population, generations, out_dir)
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    probes += [probe() for _ in range(4)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        if workload.kind == "search":
            runs, digest, counts = check_search(output, scenario)
        else:
            runs, digest, counts = check_experiment(*output, out_dir, scenario)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "workload": name,
        "ea_seed": ea_seed,
        "traced": trace,
        "load_s": load_s,
        "wall_s": wall,
        "probe_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "runs": runs,
        "digest": digest,
        "counts": counts,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, obstacle_keys, counts, load_s)
        result["absent"] = sorted(set(tracer.absent))
        result["counts"].update(
            {k: v for k, v in result["layers"].items() if v is not None and PER_LAYER[k] in ("count", "bytes")}
        )
        result["trace"] = tracer.to_json()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--ea-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    import_bwopt()
    from bwopt.experiment import resolve_scenario

    start = perf_counter()
    scenario = resolve_scenario(SCENARIO)
    ready_at = perf_counter()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "load_s": ready_at - start}))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --setup-only is given")
    result = run_pass(args.workload, args.ea_seed, scenario, bool(args.trace), ready_at - start)
    result["ready_at"] = ready_at
    if "trace" in result:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"trace-{args.workload}-ea{args.ea_seed}.json"
        spans_path.write_text(json.dumps(result.pop("trace")))
        result["trace_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
