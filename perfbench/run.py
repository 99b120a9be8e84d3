"""bwopt benchmark: end-to-end and per-layer numbers for two workloads.

    python3 perfbench/run.py --workload spea2_angular --seed 1 --seconds 55 --trace 0

One caller in a closed loop runs passes one after another, each in a fresh
worker process (perfbench/worker.py) that imports bwopt from ./src, loads
the sochi_like scenario (60x45 grid) and runs one pass of the workload on one
EA seed: one optimizer run of 30 individuals x 30 generations (900 model
runs), or a whole single-seed run_experiment with its export. Pass i of
workload seed s uses EA seed 1000 * s + i. Passes go on while the next one,
and the closing repeat, are expected to end within --seconds; there is
always at least one. Run time varies with the EA seed as well as with the
host, so a run spreads its time over many seeds instead of repeating one.
The run then repeats pass 0 in a new process; the repeat must reproduce its
output digest and every exact count. Every output check runs on every pass.

--trace 0 reports the end-to-end metrics, medians over all passes (the
repeat included):
  wall_s          wall time of one pass
  setup_s         fresh process start to loaded scenario (import + load)
  peak_rss_mb     peak resident set of a pass's own process
wall_s is given in reference seconds: the pass's wall time multiplied by
30 ms over the time a fixed calibration loop took in the same process (the
fastest of eight runs of worker.probe, timed just before and after the
pass). The speed of a shared host drifts by tens of percent within minutes,
and the calibration loop drifts with it. The raw seconds are printed too,
unbounded. setup_s is raw: import time did not follow the calibration loop.
--trace 1 makes the closing repeat a traced pass whose wrapped calls give
the per-layer metrics (perfbench/worker.py: PER_LAYER, raw milliseconds), and
the tracing overhead against the untraced pass 0. Spans are written to
.perfbench_out/.

The digest of each pass (final fronts, or the exported tree) is printed so
that refactors meant to be bit-identical can show equality across commits;
it is compared with perfbench/results/baseline.json where that file has the
same workload and EA seed, and a difference there is reported, not failed.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, counting optimizer runs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = worker.ROOT
BASELINE = HERE / "results" / "baseline.json"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Time metrics are scaled to a host on which worker.probe() takes this long. On the
# 2-core shared host the benchmark was tuned on, raw wall_s spread up to 31% of its
# median over ten seeds while the scaled value stayed within 9%.
REF_PROBE_S = 0.030
RAW = {"raw_wall_s": "s"}  # printed, not bounded
PER_LAYER = {**worker.PER_LAYER, "trace.overhead_share": "ratio", "failed_run_share": "ratio"}

SETUP_SAMPLES = 4       # set-up-only processes per untraced run, on top of one per pass
SEED_STRIDE = 1000      # pass i of workload seed s runs EA seed SEED_STRIDE * s + i
TRACED_SLOWDOWN = 1.5   # expected traced/untraced pass time, for planning only
HARD_LIMIT_S = 170.0    # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker process to completion; returns its JSON and its start time."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bwopt").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    rev, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=10).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": worker.np.__version__,
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
    }


def repeat_problems(first: dict, repeat: dict) -> list[str]:
    """Where a repeat differs from the pass it repeats, in digest or exact counts."""
    out = []
    if repeat["digest"] != first["digest"]:
        out.append(f"digest {repeat['digest'][:16]} != {first['digest'][:16]}")
    for key in sorted(set(first["counts"]) & set(repeat["counts"])):
        if repeat["counts"][key] != first["counts"][key]:
            out.append(f"count {key}={repeat['counts'][key]} != {first['counts'][key]}")
    return out


def summarize(passes: list[dict], repeat: dict | None, setups: list[float], trace: bool,
              crashed: str | None, runs_per_pass: int) -> dict:
    """Everything a run reports: the result object plus the figures behind it.

    passes are the untraced passes; repeat re-runs passes[0], traced when trace,
    and is timed like any other pass when it is not traced.
    """
    everything = passes + ([repeat] if repeat else [])
    timed = [p for p in everything if not p["traced"]]
    mismatch = repeat_problems(passes[0], repeat) if passes and repeat else []
    crashed_runs = runs_per_pass if crashed else 0
    attempted = max(1, sum(len(p["runs"]) for p in everything) + crashed_runs)
    failed = crashed_runs + sum(sum(bool(r["problems"]) for r in p["runs"]) for p in everything)
    if mismatch:  # the repeat's runs cannot be trusted
        failed += sum(not r["problems"] for r in repeat["runs"])
    samples = {
        "wall_s": [p["wall_s"] * REF_PROBE_S / min(p["probe_s"]) for p in timed],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in timed],
        "raw_wall_s": [p["wall_s"] for p in timed],
    }
    layers, absent = {}, []
    if trace and passes and repeat:
        layers = dict(repeat["layers"])
        absent = [k for k, v in layers.items() if v is None]
        layers["trace.overhead_share"] = (
            repeat["wall_s"] / min(repeat["probe_s"]) / (passes[0]["wall_s"] / min(passes[0]["probe_s"])) - 1.0
        )
        layers["failed_run_share"] = failed / attempted
    if trace:
        wanted = {name: (layers.get(name) or 0, unit) for name, unit in PER_LAYER.items()}
    else:
        wanted = {name: (statistics.median(samples[name]) if samples[name] else 0.0, unit)
                  for name, unit in END_TO_END.items()}
    return {
        "result": {
            "correct": failed == 0 and crashed is None and repeat is not None,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in wanted.items()},
        },
        "samples": samples,
        "layers": layers,
        "absent": absent,
        "repeat_problems": mismatch,
    }


def recorded_digests(workload: str) -> dict:
    """EA seed (as a string) -> digest recorded in perfbench/results/baseline.json."""
    if not BASELINE.is_file():
        return {}
    return json.loads(BASELINE.read_text()).get("digests", {}).get(workload, {})


def report(args, machine: dict, passes: list[dict], repeat: dict | None, summary: dict,
           crashed: str | None) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    recorded = recorded_digests(args.workload)
    for i, p in enumerate(passes + ([repeat] if repeat else [])):
        kind = f"pass {i}" if i < len(passes) else "repeat of pass 0" + (" (traced)" if p["traced"] else "")
        known = recorded.get(str(p["ea_seed"]))
        verdict = ("" if known is None else ", same as recorded baseline" if known == p["digest"]
                   else ", differs from recorded baseline (reported, not failed)")
        print(f"{kind}: ea_seed {p['ea_seed']}, wall {p['wall_s']:.4f} s, probe {min(p['probe_s']) * 1e3:.2f} ms, "
              f"rss {p['peak_rss_mb']:.1f} MB, digest {p['digest']}{verdict}")
        print("  counts: " + json.dumps(p["counts"], sort_keys=True))
        for r in p["runs"]:
            for problem in r["problems"]:
                print(f"  CHECK FAILED {r['label']}: {problem}")
    for problem in summary["repeat_problems"]:
        print(f"REPEAT MISMATCH: {problem}")
    if crashed:
        print(f"WORKER FAILED: {crashed}")
    print("end-to-end, median [q1, q3] over n samples:")
    for name, unit in {**END_TO_END, **RAW}.items():
        values = summary["samples"][name]
        if values:
            q1, q2, q3 = quartiles(values)
            note = " (not bounded)" if name in RAW else ""
            print(f"  {name:16s} {q2:.6g} {unit} [{q1:.6g}, {q3:.6g}] n={len(values)}{note}")
    if args.trace:
        print("per-layer, traced repeat of pass 0:")
        for name, unit in PER_LAYER.items():
            value = summary["layers"].get(name)
            shown = "absent at this commit" if name in summary["absent"] else f"{value:.6g} {unit}"
            note = " (computed by the benchmark)" if name == "geometry.clearance.sample_pairs" else ""
            print(f"  {name:34s} {shown}{note}")
        if repeat and repeat.get("absent"):
            print("absent names: " + ", ".join(repeat["absent"]))
        if repeat:
            print(f"spans: {repeat.get('trace_file')}")
    print(json.dumps(summary["result"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (worker.SRC / "bwopt" / "__init__.py").is_file():
        print(f"perfbench: no bwopt sources under {worker.SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = worker.WORKLOADS[args.workload]
    begin = time.perf_counter()
    deadline = begin + args.seconds
    hard_deadline = begin + HARD_LIMIT_S

    def remaining() -> float:
        return hard_deadline - time.perf_counter()

    passes: list[dict] = []
    repeat = None
    setups: list[float] = []
    crashed = None

    def one_pass(unit: int, trace: int) -> dict:
        ea_seed = SEED_STRIDE * args.seed + unit
        result, started = spawn(
            ["--workload", workload.name, "--ea-seed", str(ea_seed), "--trace", str(trace)], remaining()
        )
        result["elapsed"] = time.perf_counter() - started
        setups.append(result["ready_at"] - started)
        return result

    try:
        spawn(["--setup-only"], remaining())  # compiles bytecode, warms the file cache
        for _ in range(0 if args.trace else SETUP_SAMPLES):  # setup_s is not a per-layer metric
            result, started = spawn(["--setup-only"], remaining())
            setups.append(result["ready_at"] - started)
        while True:
            if passes:
                closing = passes[0]["elapsed"] * (TRACED_SLOWDOWN if args.trace else 1.0)
                longest = max(p["elapsed"] for p in passes)
                if time.perf_counter() + longest + closing > deadline:
                    break
            passes.append(one_pass(len(passes), 0))
        repeat = one_pass(0, args.trace)
    except WorkerError as exc:
        crashed = str(exc)
    summary = summarize(passes, repeat, setups, bool(args.trace), crashed, len(workload.variants))
    report(args, machine_record(), passes, repeat, summary, crashed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
