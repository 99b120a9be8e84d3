"""Command-line interface.

Verbs:
    validate      check a scenario file, listing every violation
    baseline      print (and optionally export) the existing-configuration baseline
    optimize      one optimizer run, results into --out
    experiment    run a plan matrix of variants x seeds, results into --out
    metrics       recompute hypervolume indicators from stored histories
    export-field  write a wave field matrix and layout polylines for plotting

Exit codes: 0 success, 1 validation error, 2 run failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .evolution import EAConfig
from .experiment import (
    _f,
    load_plan,
    optimize_once,
    resolve_scenario,
    run_experiment,
    write_json,
)
from .geometry import Encoding, Genotype, decode, rasterize, segment_groups
from .metrics import hypervolume, reference_point
from .objectives import COST_INDEX, NAV_INDEX, WAVE_START_INDEX, simulate_layout
from .scenario import ScenarioError
from .wave import write_field

OBJECTIVE_GROUPS = {"cost": [COST_INDEX], "nav": [NAV_INDEX]}  # "waves" expands per scenario


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwopt",
        description="Evolutionary layout optimization for attached breakwaters.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("--scenario", required=True)

    p = sub.add_parser("baseline", help="baseline objectives of the existing configuration")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help="directory for the baseline field export")

    p = sub.add_parser("optimize", help="single optimizer run")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--algorithm", choices=["spea2", "de"], default="spea2")
    p.add_argument("--encoding", choices=["angular", "cartesian"], default="angular")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--generations", type=int, default=EAConfig.generations)
    p.add_argument("--population", type=int, default=EAConfig.population_size)
    p.add_argument("--archive", type=int, help="archive size, defaults to the population size")
    p.add_argument("--seed", type=int, default=EAConfig.seed)

    p = sub.add_parser("experiment", help="run a plan of variants x seeds")
    p.add_argument("--plan", required=True)
    p.add_argument("--scenario", help="override the scenario named in the plan")
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="recompute indicators from stored histories")
    p.add_argument("results", help="run or experiment output directory")
    p.add_argument(
        "--objectives",
        default="all",
        help="comma list of cost,nav,waves (default all)",
    )

    p = sub.add_parser("export-field", help="export a wave field matrix for plotting")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--front", help="final_front.json to take the layout from")
    p.add_argument("--member", type=int, default=0, help="front member index (default 0)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ScenarioError as err:
        print(f"scenario invalid:\n{err}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"run failed: {err}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.verb == "validate":
        scenario = resolve_scenario(args.scenario)
        print(
            f"scenario '{scenario.name}' is valid: "
            f"{scenario.grid.n_cols}x{scenario.grid.n_rows} grid, "
            f"{len(scenario.attachments)} attachments, {scenario.n_blocks} segments, "
            f"{len(scenario.control_points)} control points"
        )
        return 0
    if args.verb == "baseline":
        return _baseline(args)
    if args.verb == "optimize":
        return _optimize(args)
    if args.verb == "experiment":
        return _experiment(args)
    if args.verb == "metrics":
        return _metrics(args)
    if args.verb == "export-field":
        return _export_field(args)
    raise AssertionError(f"unhandled verb {args.verb}")


def _baseline(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args.scenario)
    b = scenario.baseline
    print(f"cost reference: {b.cost_ref!r} m")
    print(f"fairway clearance: {b.nav_distance!r} m")
    for i, h in enumerate(b.wave_heights):
        print(f"control point {i + 1} wave height: {float(h)!r} m")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_field(out / "baseline_field.txt", simulate_layout([], scenario), scenario.grid.land_mask)
        write_json(
            out / "baseline.json",
            {
                "cost_ref": b.cost_ref,
                "nav_distance": b.nav_distance,
                "wave_heights": b.wave_heights,
            },
        )
        print(f"baseline field written to {out / 'baseline_field.txt'}")
    return 0


def _optimize(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args.scenario)
    config = EAConfig(
        population_size=args.population,
        archive_size=args.archive if args.archive is not None else args.population,
        generations=args.generations,
        encoding=Encoding(args.encoding),
        greedy=args.greedy,
        seed=args.seed,
    )
    history = optimize_once(args.algorithm, config, scenario, args.out)
    last = history.records[-1]
    print(
        f"{args.algorithm} on '{scenario.name}': {last.model_runs} model runs, "
        f"front size {len(last.front)}, best scalar {last.best_scalar!r}"
    )
    print(f"results in {args.out}")
    return 0


def _experiment(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    scenario_spec = args.scenario or plan.scenario
    if scenario_spec is None:
        print("error: the plan names no scenario and --scenario was not given", file=sys.stderr)
        return 1
    scenario = resolve_scenario(scenario_spec, base_dir=Path(args.plan).parent)
    result = run_experiment(plan, scenario, args.out)
    for row in result.summary_rows:
        print(
            f"{row['variant']} seed {row['seed']}: "
            f"front {row['final_front_size']}, hv {row['final_hypervolume']!r}"
        )
    for failure in result.failures:
        print(
            f"{failure['variant']} seed {failure['seed']} FAILED: {failure['error']}",
            file=sys.stderr,
        )
    print(f"results in {result.out_dir}")
    return 0 if result.ok else 2


def _objective_columns(spec: str, width: int) -> list[int]:
    if spec.strip() == "all":
        return list(range(width))
    columns: set[int] = set()
    for token in spec.split(","):
        token = token.strip()
        if token == "waves":
            columns.update(range(WAVE_START_INDEX, width))
        elif token in OBJECTIVE_GROUPS:
            columns.update(OBJECTIVE_GROUPS[token])
        else:
            raise ValueError(f"unknown objective group {token!r}, expected cost, nav or waves")
    return sorted(columns)


def _metrics(args: argparse.Namespace) -> int:
    root = Path(args.results)
    if not root.is_dir():
        raise FileNotFoundError(f"results directory {root} does not exist")
    history_files = sorted(root.rglob("history.json"))
    if not history_files:
        raise FileNotFoundError(f"no history.json files under {root}")
    fronts = {}
    for path in history_files:
        data = json.loads(path.read_text())
        final = data["generations"][-1]["front"]
        fronts[path] = np.array(final) if final else np.empty((0, 0))
    width = max((f.shape[1] for f in fronts.values() if f.size), default=0)
    if width == 0:
        print("no feasible front points stored in these histories")
        return 0
    columns = _objective_columns(args.objectives, width)
    stacked = np.vstack([f[:, columns] for f in fronts.values() if f.size])
    reference = reference_point(stacked)
    print(f"objective columns: {columns}")
    print(f"reference point: {[repr(float(v)) for v in reference]}")
    for path, front in fronts.items():
        if front.size:
            hv = hypervolume(front[:, columns], reference)
            size = len(front)
        else:
            hv, size = 0.0, 0
        print(f"{path.parent.relative_to(root)}: front {size}, hypervolume {hv!r}")
    print(f"union hypervolume: {hypervolume(stacked, reference)!r}")
    return 0


def _export_field(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.front:
        data = json.loads(Path(args.front).read_text())
        members = data["members"]
        if not 0 <= args.member < len(members):
            raise ValueError(f"member {args.member} out of range, front has {len(members)} members")
        member = members[args.member]
        genotype = Genotype(Encoding(member["encoding"]), np.array(member["genes"], dtype=float))
        layout = decode(genotype, scenario.attachments)
        groups = segment_groups(layout.polylines)
        field = simulate_layout(rasterize(groups, layout.materials, scenario.grid, scenario.transmission), scenario)
        new_polylines = layout.breakwaters
        label = f"member {args.member} of {args.front}"
    else:
        field = simulate_layout([], scenario)
        new_polylines = []
        label = "baseline (existing structures only)"
    write_field(out / "field.txt", field, scenario.grid.land_mask)
    _write_polylines(out / "new_structures.txt", new_polylines)
    _write_polylines(out / "existing_structures.txt", [verts for verts, _ in scenario.existing_structures])
    print(f"exported {label} field to {out / 'field.txt'}")
    return 0


def _write_polylines(path: Path, polylines) -> None:
    lines = [
        ";".join(f"{_f(x)} {_f(y)}" for x, y in verts) for verts in polylines
    ]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


if __name__ == "__main__":
    sys.exit(main())
