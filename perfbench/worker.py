"""One repeat of a workload, in a fresh interpreter.

Started by run.py with `PYTHONPATH=<checkout>/src` and one BLAS/OpenMP
thread. It imports the package, makes the workload's first design (together
the set-up), runs the workload's main phase once, checks what it can only
check in memory, and writes `result.json` (and `spans.tsv` when traced) to
its output directory. Wall times go only there, never into the package's
own output files.
"""

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import workloads

CAL_PRODUCTS = 6000


def calibrate() -> float:
    """Seconds for a fixed kernel of small numpy products, the call-bound
    kind of work the filters do. The machine's speed drifts by tens of
    percent over tens of seconds; run.py divides it out of the throughput
    with this kernel's time, taken between the operations of the main phase."""
    import numpy as np

    A, x = np.full((3, 3), 0.25), np.ones(3)
    y, P = x, A
    start = time.perf_counter()
    for _ in range(CAL_PRODUCTS):
        y = A @ y + x
        P = 0.5 * (P + P.T)
    return time.perf_counter() - start


class PhaseClock:
    """Times the main phase, running the calibration kernel before the
    first operation and after each one."""

    def __init__(self):
        self.main_s, self.cal_s = 0.0, [calibrate()]

    def run(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.main_s += time.perf_counter() - start
            self.cal_s.append(calibrate())

    def result(self) -> dict:
        return {"main_s": self.main_s, "calibration_s": self.cal_s}


def _write_config(path: Path, entries: dict) -> Path:
    path.write_text(workloads.config_text(entries))
    return path


def run_sine_load(cli, args, out: Path) -> dict:
    cfg = _write_config(out / "scenario.cfg", workloads.sine_scenario(args.seed))
    clock = PhaseClock()
    rc = clock.run(cli.main, ["run", str(cfg), "--out", str(out / "run")])
    spec, _ = cli.load_scenario(cfg)
    return {"ops": 1, "ticks": spec.n_ticks, "rc": rc, **clock.result()}


def _sweep_checks(rec, met, entries) -> list:
    """Reasons a sweep run's output is wrong (empty when it is right)."""
    import numpy as np

    problems = []
    mu = np.asarray(rec.mu)
    if not (np.all(mu >= -1e-12) and np.all(np.abs(mu.sum(axis=1) - 1.0) <= 1e-12)):
        problems.append("mu row off the simplex")
    values = [met.rmse, met.mae, met.iae, *np.asarray(met.est_rmse).tolist()]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite metric")
    scheduled = [workloads.friction_at(entries, t)[0] for t in rec.time.tolist()]
    if scheduled != rec.b_true.tolist():
        problems.append("recorded friction differs from the scheduled friction")
    return problems


def sweep_friction_switch(cli, args, out: Path, vertices) -> dict:
    runs = []
    for seed, est, entries in workloads.sweep_scenarios(args.seed):
        runs.append((seed, est, entries,
                     _write_config(out / f"sweep-{seed}-{est.replace(':', '')}.cfg", entries)))

    def one_run(cfg):
        try:
            spec, motor = cli.load_scenario(cfg)
            rec = cli.run_scenario(spec, motor, vertices)
            return rec, cli.compute_metrics(rec)
        except Exception as exc:  # one failed run must not hide the others
            return None, repr(exc)

    clock = PhaseClock()
    done = [(seed, est, entries, *clock.run(one_run, cfg)) for seed, est, entries, cfg in runs]

    problems, omega_rmse, replays, ticks = [], {}, [], 0
    for seed, est, entries, rec, met in done:
        if rec is None:
            problems.append([f"{est} seed {seed}: raised {met}"])
            continue
        ticks += rec.time.size
        problems.append([f"{est} seed {seed}: {p}" for p in _sweep_checks(rec, met, entries)])
        omega_rmse[(seed, est)] = float(met.est_rmse[1])
        if seed == done[0][0]:
            k = int(round(workloads.SWEEP_REPLAY_S * rec.spec.sample_rate))
            replays.append({
                "entries": entries,
                "time": rec.time[:k].tolist(), "theta": rec.truth[:k, 0].tolist(),
                "u": rec.u[:k].tolist(),
            })
    ratios = [omega_rmse[(s, "imm")] / omega_rmse[(s, "kf:0")]
              for s in workloads.scenario_seeds(args.seed, workloads.SWEEP_SEEDS)
              if (s, "imm") in omega_rmse and (s, "kf:0") in omega_rmse]
    return {"ops": len(runs), "ticks": ticks, "problems": problems,
            "omega_rmse_ratios": ratios, "replays": replays, **clock.result()}


def design_grid(cli, args, out: Path) -> dict:
    import numpy as np

    cfgs = [_write_config(out / f"motor-{i}.cfg", p)
            for i, p in enumerate(workloads.grid_points(args.seed))]

    def one_design(cfg):
        try:
            vertices = cli.design_from_motor(cli.load_motor_config(cfg))
            return vertices, cli.certify(vertices)
        except Exception as exc:  # one failed design must not hide the others
            return None, repr(exc)

    clock = PhaseClock()
    done = [(cfg, *clock.run(one_design, cfg)) for cfg in cfgs]

    problems, eps = [], []
    for cfg, vertices, cert in done:
        if vertices is None:
            problems.append([f"{cfg.name}: raised {cert}"])
            continue
        radii = [float(np.max(np.abs(np.linalg.eigvals(phi - vertices.Gamma @ K))))
                 for phi, K in zip(vertices.Phi_vertices, vertices.K_vertices)]
        found = []
        if not all(r < 1.0 for r in radii):
            found.append(f"{cfg.name}: vertex closed loop not Schur stable {radii}")
        if not (math.isfinite(cert.eps_star) and cert.eps_star > 0.0):
            found.append(f"{cfg.name}: eps_star {cert.eps_star}")
        problems.append(found)
        eps.append(cert.eps_star)
    return {"ops": len(cfgs), "designs": len(cfgs), "problems": problems, "eps_star": eps,
            **clock.result()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("warmup", "setup", "full"), default="full")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    before_import = time.perf_counter()
    import mapsched
    from mapsched import cli
    import_s = time.perf_counter() - before_import
    if args.phase == "warmup":
        (out / "result.json").write_text(json.dumps({"import_s": import_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_cfg = _write_config(out / "setup.cfg", workloads.setup_entries(args.workload))
    vertices = cli.design_from_motor(cli.load_motor_config(setup_cfg))
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time compares
    setup_s = time.monotonic() - args.spawned

    result = {"setup_s": setup_s, "import_s": import_s}
    if args.phase == "full":
        if tracer is not None:
            tracer.run_id = "main"
        if args.workload == "run_sine_load":
            result.update(run_sine_load(cli, args, out))
        elif args.workload == "sweep_friction_switch":
            result.update(sweep_friction_switch(cli, args, out, vertices))
        else:
            result.update(design_grid(cli, args, out))

    import numpy
    import scipy
    from mapsched import control

    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": getattr(mapsched, "BACKEND", None),
        "package_file": mapsched.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dare_cap": getattr(control, "DARE_MAX_ITER", None),
    })
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / "spans.tsv")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
