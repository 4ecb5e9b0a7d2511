#!/usr/bin/env python3
"""mapsched benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload run_sine_load --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it measures the package under
`<checkout>/src`, imported as the tier-1 tests import it (`PYTHONPATH=src`,
pure-Python plant unless a compiled kernel was built). Every repeat is a
fresh single-threaded interpreter (worker.py), started one after the other
(a closed loop with one client) until `--seconds` are used. Outputs are
checked after every repeat.

Prints a table with the workload's figures by name and unit, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics: the `end_to_end` metrics of BENCHMARK.json with `--trace 0`, its
`per_layer` metrics with `--trace 1`.

Exit code 0 after a measured run (check `correct`), 2 when the checkout has
no package source or the package does not import, 3 when no repeat finished.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 5
# worker.calibrate() time that defines the reference speed: its median on the
# machine the baseline was taken on (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
CAL_REF_S = 0.035
WORKER_TIMEOUT_S = 100
# RK4 at 200 substeps (the package) against 400 (the replay): measured gaps
# are 1.1e-5 to 3.5e-5 rad, set by where the breakaway from rest falls between
# substeps; a 1% error in Kt, Jd or Rm moves theta by 4.5e-3 to 8e-3 rad
PLANT_REF_TOL = 1e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    env.update({var: "1" for var in THREAD_VARS})
    # the scenario seed comes from the benchmark alone; MAPS_PURE_PYTHON would
    # pick the backend behind the benchmark's back
    env.pop("MAPS_SEED", None)
    env.pop("MAPS_PURE_PYTHON", None)
    return env


def spawn(args, out: Path, env: dict, phase: str, traced: bool = False) -> dict:
    """Run one worker to completion; returns its result, or one with `error`."""
    out.mkdir(parents=True)
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--trace", str(int(traced)),
           "--phase", phase, "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s", "out": out,
                "wall_s": time.monotonic() - spawned, "traced": traced}
    wall = time.monotonic() - spawned
    if proc.returncode != 0 or not (out / "result.json").is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"worker exit {proc.returncode}: {tail[0]}", "out": out,
                "wall_s": wall, "traced": traced}
    result = json.loads((out / "result.json").read_text())
    result.update({"out": out, "wall_s": wall, "traced": traced})
    return result


def read_table(path: Path) -> tuple:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(header, rows, name) -> list:
    j = header.index(name)
    return [float(row[j]) for row in rows]


def _finite_leaves(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_leaves(v) for v in value.values())
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return math.isfinite(value)
    return True


def check_sine(rep: dict, first: dict | None) -> list:
    """Problems with one `maps run` repeat's exit code and output files."""
    run = rep["out"] / "run"
    if rep.get("rc") != 0:
        return [f"maps run exited {rep.get('rc')}"]
    problems = []
    try:
        for name in ("trace.csv", "plot.csv"):
            header, rows = read_table(run / name)
            if len(rows) != rep["ticks"]:
                problems.append(f"{name}: {len(rows)} rows for {rep['ticks']} ticks")
            if not all(math.isfinite(float(v)) for row in rows for v in row):
                problems.append(f"{name}: non-finite value")
        text = (run / "metrics.json").read_text()
        met = json.loads(text)
        if not _finite_leaves(met):
            problems.append("metrics.json: non-finite value")
        if not math.isclose(met["iae"], met["mae"] * met["duration"], rel_tol=1e-9):
            problems.append("metrics.json: iae != mae * duration")
        if first is not None and text != first["metrics_text"]:
            problems.append("metrics.json differs from the first repeat of the same seed")
        rep["metrics_text"], rep["iae"] = text, met["iae"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    rep["output_bytes"] = sum(p.stat().st_size for p in run.glob("*") if p.is_file())
    return problems


def replay_sine(rep: dict, seed: int) -> tuple:
    """(plant_ref_err, problems) for a repeat's trace and plot files."""
    entries = workloads.sine_scenario(seed)
    header, rows = read_table(rep["out"] / "run" / "trace.csv")
    t, theta, u = (column(header, rows, c) for c in ("time", "theta_true", "u"))
    p_header, p_rows = read_table(rep["out"] / "run" / "plot.csv")
    b_true = column(p_header, p_rows, "b_true")
    friction = [workloads.friction_at(entries, tk) for tk in t]
    problems = []
    if [b for b, _ in friction] != b_true:
        problems.append("recorded friction differs from the scheduled friction")
    k = round(workloads.SINE_REPLAY_S / entries["sample_time"])
    return replay(theta[:k], u[:k], friction[:k], entries, problems)


def replay(theta, u, friction, entries, problems) -> tuple:
    dt = 1.0 / (1.0 / entries["sample_time"])
    gap = reference.replay_gap(theta, u, friction, dt, entries)
    if not gap <= PLANT_REF_TOL:
        problems.append(f"truth plant is {gap:.3e} rad from the RK4 reference")
    return gap, problems


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, max(0, math.ceil(q / 100.0 * len(values)) - 1))]


def throughput(rep: dict) -> float:
    """Main-phase operations per second, as measured."""
    return rep.get("ticks", rep.get("designs", 0)) / rep["main_s"]


def load_spans(traced: list) -> list:
    """The spans of every traced repeat in one list (parent indices shifted)."""
    spans = []
    for rep in traced:
        base = len(spans)
        spans += [(name, start, end, parent + base if parent >= 0 else -1, run_id, value)
                  for name, start, end, parent, run_id, value
                  in tracing.read_spans(rep["out"] / "spans.tsv")]
    return spans


LAYERS = {
    "plant": ("plant_step",),
    "estimation": ("imm_step", "kf_predict", "kf_update"),
    "control": ("maps_gain", "control_input", "synthesize_vertex_gains", "solve_dare"),
    "motor": ("build_vertex_set",),
    "stability": ("certify", "find_common_lyapunov", "verify_convex_stability"),
    "cli": ("main",),
}


def layer_self_shares(spans: list, main_s: float) -> dict:
    """Share of the traced main phase each layer spends in its own code."""
    totals = {}
    for name, row in tracing.summarize(spans, "main").items():
        layer = next((k for k, names in LAYERS.items() if name in names), "harness")
        totals[layer] = totals.get(layer, 0.0) + row["self"]
    shares = {k: v / main_s for k, v in sorted(totals.items())}
    shares["(untraced)"] = 1.0 - sum(shares.values())
    return shares


def layer_metrics(spans: list, traced: list, untraced: list, dare_cap) -> dict:
    """Per-layer figures from the traced repeats' spans (see README.md)."""
    every, main = tracing.summarize(spans), tracing.summarize(spans, "main")
    runs = len(traced)
    main_s = sum(rep["main_s"] for rep in traced)
    ticks = sum(rep.get("ticks", 0) for rep in traced)

    def mean(name, scale):
        row = every[name]
        return scale * sum(row["durations"]) / row["calls"] if row["calls"] else 0.0

    def p99(name, scale):
        return scale * percentile(every[name]["durations"], 99)

    def per_tick(*names):
        total = sum(sum(main[n]["durations"]) for n in names)
        return 1e6 * total / ticks if ticks else 0.0

    def share(*names):
        return sum(main[n]["self"] for n in names) / main_s

    def ratio(a, b):
        return a / b if b else 0.0

    capped = sum(1 for s in spans if s[0] == "solve_dare" and s[4] == "main"
                 and dare_cap is not None and s[5] is not None and s[5] >= dare_cap)
    return {
        "plant.step_us": mean("plant_step", 1e6),
        "plant.step_p99_us": p99("plant_step", 1e6),
        "plant.share": share("plant_step"),
        "estimation.imm_us": mean("imm_step", 1e6),
        "estimation.imm_p99_us": p99("imm_step", 1e6),
        "estimation.kf_us": ratio(1e6 * sum(main["kf_predict"]["durations"]
                                            + main["kf_update"]["durations"]),
                                  main["kf_update"]["calls"]),
        "estimation.share": share("imm_step", "kf_predict", "kf_update"),
        "control.gain_us": mean("maps_gain", 1e6),
        "control.law_us": mean("control_input", 1e6),
        "control.dare_ms": mean("solve_dare", 1e3),
        "control.dare_iters": main["solve_dare"]["value"] / runs,
        "control.dare_capped": capped / runs,
        "control.dare_capped_share": ratio(capped, main["solve_dare"]["calls"]),
        "motor.vertex_set_ms": mean("build_vertex_set", 1e3),
        "stability.certify_ms": mean("certify", 1e3),
        "stability.sampled_ms": mean("verify_convex_stability", 1e3),
        "stability.lyap_rounds": main["find_common_lyapunov"]["value"] / runs,
        "harness.self_us": ratio(1e6 * main["run_scenario"]["self"], ticks),
        "harness.friction_us": per_tick("FrictionSchedule.at", "MotorConfig.friction"),
        "harness.reference_us": per_tick("ScenarioSpec.reference_state"),
        "harness.metrics_ms": mean("compute_metrics", 1e3),
        "harness.trace_csv_us": per_tick("write_trace_csv"),
        "harness.plot_csv_us": per_tick("write_plot_csv"),
        "harness.output_bytes": median(r.get("output_bytes", 0) for r in traced),
        "cli.import_s": median(r["import_s"] for r in traced + untraced),
        "cli.self_ms": ratio(1e3 * main["main"]["self"], main["main"]["calls"]),
        "trace.coverage": sum(row["self"] for row in main.values()) / main_s,
        "trace.overhead": median(throughput(r) for r in untraced)
        / median(throughput(r) for r in traced),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mapsched" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = worker_env()
    try:
        # compiles the package's bytecode once, so no repeat pays for it
        warm = spawn(args, work / "warmup", env, "warmup")
        if "error" in warm:
            print(f"error: the package does not import: {warm['error']}", file=sys.stderr)
            return 2
        return measure(args, work, env, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, work: Path, env: dict, units: dict) -> int:
    deadline = time.monotonic() + args.seconds
    repeats = []
    while True:
        traced = bool(args.trace) and len(repeats) % 2 == 1
        repeats.append(spawn(args, work / f"r{len(repeats)}", env, "full", traced))
        if len(repeats) >= 2 and all("error" in r for r in repeats):
            break
        kinds = {r["traced"] for r in repeats if "error" not in r}
        enough = kinds == ({False, True} if args.trace else {False})
        next_traced = bool(args.trace) and len(repeats) % 2 == 1
        expected = median(r["wall_s"] for r in repeats if r["traced"] == next_traced) \
            or repeats[-1]["wall_s"]
        if enough and time.monotonic() + expected > deadline:
            break
    setups = [r["setup_s"] for r in repeats if "error" not in r and not r["traced"]]
    while not args.trace and 0 < len(setups) < MIN_SETUP_SAMPLES:
        probe = spawn(args, work / f"s{len(setups)}", env, "setup")
        if "error" in probe:
            break
        setups.append(probe["setup_s"])

    done = [r for r in repeats if "error" not in r]
    if not done:
        print(f"error: no repeat finished: {repeats[0]['error']}", file=sys.stderr)
        return 3

    # correctness: one operation is one run, or one design on design_grid
    attempted = sum(r.get("ops", 1) if "error" not in r else planned_ops(args) for r in repeats)
    problems = [r["error"] for r in repeats if "error" in r]
    failed = sum(planned_ops(args) for r in repeats if "error" in r)
    figures = {}
    if args.workload == "run_sine_load":
        first = None
        for rep in done:
            found = check_sine(rep, first)
            if first is None and not found:
                first = rep
                gap, found = replay_sine(rep, args.seed)
                figures["plant_ref_err"] = (gap, "rad")
            failed += bool(found)
            problems += found
        if first is not None:
            figures["tracking_iae"] = (first["iae"], "rad*s")
    else:
        for rep in done:
            for found in rep["problems"]:
                failed += bool(found)
                problems += found
    if args.workload == "sweep_friction_switch":
        gaps = []
        for rec in done[0]["replays"]:
            friction = [workloads.friction_at(rec["entries"], t) for t in rec["time"]]
            gap, found = replay(rec["theta"], rec["u"], friction, rec["entries"], [])
            gaps.append(gap)
            failed += bool(found)
            problems += found
        figures["omega_rmse_ratio"] = (median(done[0]["omega_rmse_ratios"]), "ratio")
        figures["plant_ref_err"] = (max(gaps), "rad")
    if args.workload == "design_grid":
        figures["eps_star_min"] = (min(done[0]["eps_star"]), "N*m*s/rad")

    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    rate_name, rate_unit = (("designs_per_s", "designs/s") if args.workload == "design_grid"
                            else ("ticks_per_s", "ticks/s"))
    calibration = median(c for r in untraced for c in r["calibration_s"])
    metrics = {
        "setup_s": median(setups),
        # throughput at the reference speed: the machine's speed during this
        # run, read off the calibration kernel, is divided out
        "ops_per_s": median(throughput(r) for r in untraced) * calibration / CAL_REF_S,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        "ok_frac": 1.0 - failed / attempted,
    }
    table = {
        "setup_s": (metrics["setup_s"], "s"),
        rate_name: (metrics["ops_per_s"], rate_unit + " at reference speed"),
        rate_name + " as measured": (median(throughput(r) for r in untraced), rate_unit),
        "calibration_s": (calibration, "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MiB"),
        "failed_frac": (failed / attempted, "ratio"),
        **figures,
        "import_s": (median(r["import_s"] for r in untraced), "s"),
    }
    if args.trace:
        spans = load_spans(traced)
        metrics = layer_metrics(spans, traced, untraced, done[0]["dare_cap"])

    print_provenance(args, done, len(untraced), len(traced), len(setups))
    for name, (value, unit) in table.items():
        print(f"  {name:<18} {value:>14.6g} {unit}")
    print(f"  {rate_name} per repeat, as measured: "
          + " ".join(f"{throughput(r):.6g}" for r in untraced))
    if args.trace:
        print("  layer self time, share of the traced main phase:")
        main_s = sum(rep["main_s"] for rep in traced)
        for layer, share in layer_self_shares(spans, main_s).items():
            print(f"    {layer:<16} {share:8.4f}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def planned_ops(args) -> int:
    if args.workload == "sweep_friction_switch":
        return workloads.SWEEP_SEEDS * len(workloads.SWEEP_ESTIMATORS)
    if args.workload == "design_grid":
        return len(workloads.grid_points(args.seed))
    return 1


def print_provenance(args, done, n_untraced, n_traced, n_setup) -> None:
    first = done[0]
    backends = sorted({str(r["backend"]) for r in done})
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repeats_untraced": n_untraced, "repeats_traced": n_traced,
        "setup_samples": n_setup, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "python": first["python"],
        "numpy": first["numpy"], "scipy": first["scipy"], "plant_backend": backends,
        "package": os.path.relpath(first["package_file"], ROOT), "commit": commit(),
    }
    print("provenance " + json.dumps(info))
    if backends != ["python"]:
        print(f"  note: plant backend {backends}, not the pure-Python tier-1 path")


if __name__ == "__main__":
    sys.exit(main())
