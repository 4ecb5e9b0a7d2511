"""Command line interface, and the one module that writes files.

Every format `maps` prints or writes is here: `write_run_csvs` (trace.csv
and plot.csv in one pass; `write_trace_csv` and `write_plot_csv` write one
of them), `write_metrics_json`, `compare_table` and `compare_text` (the
`compare` table), and `gain_report` (the `gains` report). Every JSON file
goes through `write_json` and every small CSV table through `write_csv`.

Subcommands: ident, gains, certify, run, compare. Exit codes: 0 success,
1 invalid config or command line, 2 numerical failure, 3 certification
failure (no common Lyapunov matrix found). `gains`, `certify`, `run` and
`compare` end a success with a `warning:` line on stderr when the
design's discrete model is unstable where the motor is not
(`_warn_unstable_model`).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import ExitStack
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .config import load_motor_config
from .control import vertex_solutions
from .errors import CertificationError, ConfigError, NumericalError
from .harness import (
    CSV_CHUNK,
    compare_runs,
    compute_metrics,
    design_from_motor,
    load_scenario,
    run_scenario,
)
from .ident import identify, read_samples_csv
from .stability import certify


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the code of an invalid
    config, rather than argparse's 2, which here means a numerical failure.
    Subcommand parsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maps",
        description="Mode-aware probabilistic scheduling for a friction-varying DC motor",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ident = sub.add_parser("ident", help="identify the viscous coefficient from a CSV")
    p_ident.add_argument("csv", help="two-column CSV of (voltage, velocity), header optional")
    p_ident.add_argument("--motor", help="motor config file", default=None)

    p_gains = sub.add_parser("gains", help="print vertex LQR gains and closed-loop moduli")
    p_gains.add_argument("--motor", help="motor config file", default=None)
    p_gains.add_argument("--json", help="also write the report as JSON", default=None)
    p_gains.add_argument("--csv", help="also write the gain table as CSV", default=None)

    p_cert = sub.add_parser("certify", help="certify quadratic stability of the scheduled loop")
    p_cert.add_argument("--motor", help="motor config file", default=None)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("scenario", help="scenario config file (key = value lines)")
    p_run.add_argument("--out", default="runout", help="output directory")

    p_cmp = sub.add_parser("compare", help="run variants of a scenario side by side")
    p_cmp.add_argument("scenario", help="scenario config file")
    p_cmp.add_argument(
        "--variant",
        action="append",
        default=None,
        metavar="NAME=CONTROLLER/ESTIMATOR",
        help="e.g. maps=maps/imm (default: maps/imm vs fixed:0/kf:0)",
    )
    p_cmp.add_argument("--out", default=None, help="optional CSV output path")
    return parser


def write_json(path, payload: dict) -> None:
    """The JSON writer of every JSON file `maps` writes: `payload` indented
    by 2, then a newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_csv(path, header, rows) -> None:
    """The CSV writer of every small table `maps` writes: the header, then
    the rows. csv writes a float as its repr, which reads back as the same
    float."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_run_csvs(trace_path, plot_path, record) -> None:
    """Write trace.csv (every logged signal) and plot.csv (a reduced table
    for plotting tools) of a `RunRecord` in one pass; either path may be
    None to skip that file.

    CSV_CHUNK rows of the union of the two files' columns are stacked at a
    time and every value is formatted once, in shortest round-trip form: the
    bytes csv.writer writes for repr(float(v)), so identical runs write
    identical bytes. One orjson call formats the whole chunk; its digits are
    repr's everywhere (both print the shortest string that reads back as the
    same float), and so is its layout for 1e-4 <= |v| < 1e16 and for zeros.
    The values outside that range, non-finite ones included, are picked by
    value and formatted again with repr. Each file's rows are joined from
    those same cells.
    """
    # the union row: the 18 trace.csv columns, then tracking_error and b_true
    trace = (
        ["time", "z", "theta_true", "omega_true", "current_true",
         "theta_est", "omega_est", "current_est", "mu_1", "mu_2", "rho_hat",
         "k_theta", "k_omega", "k_current", "u",
         "theta_ref", "omega_ref", "current_ref"],
        itemgetter(slice(0, 18)),
    )
    plot = (
        ["time", "theta_ref", "theta_true", "theta_est", "tracking_error",
         "mu_1", "mu_2", "rho_hat", "b_true", "u"],
        itemgetter(0, 15, 2, 5, 18, 8, 9, 10, 19, 14),
    )
    theta_ref, theta = record.reference[:, 0], record.truth[:, 0]
    columns = [
        record.time, record.z, record.truth, record.estimate, record.mu,
        record.rho_hat, record.gain, record.u, record.reference,
        theta_ref - theta, record.b_true,
    ]
    with ExitStack() as stack:
        outputs = []
        for path, (header, cells) in ((trace_path, trace), (plot_path, plot)):
            if path is not None:
                fh = stack.enter_context(Path(path).open("w", newline=""))
                fh.write(",".join(header) + "\r\n")
                outputs.append((fh, cells))
        for start in range(0, len(record.time), CSV_CHUNK):
            block = np.column_stack([c[start:start + CSV_CHUNK] for c in columns])
            values = block.ravel()
            text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
            flat = text[1:-1].decode().split(",")
            # orjson prints 1e-05 as 0.00001, 1e+16 as 1e16 and nan as null
            mag = np.abs(values)
            redo = np.flatnonzero(~(((mag >= 1e-4) & (mag < 1e16)) | (values == 0.0)))
            for i, v in zip(redo.tolist(), values[redo].tolist()):
                flat[i] = repr(v)
            step = block.shape[1]
            rows = [flat[i:i + step] for i in range(0, len(flat), step)]
            for fh, cells in outputs:
                fh.write("".join([",".join(cells(row)) + "\r\n" for row in rows]))


def write_trace_csv(path, record) -> None:
    """trace.csv alone, from the pass `maps run` writes both files with."""
    write_run_csvs(path, None, record)


def write_plot_csv(path, record) -> None:
    """plot.csv alone, from the pass `maps run` writes both files with."""
    write_run_csvs(None, path, record)


def _estimation_rmse(metrics) -> dict:
    """A run's estimation RMSE, keyed by state."""
    return dict(zip(("theta", "omega", "current"), metrics.est_rmse.tolist()))


def write_metrics_json(path, record, metrics) -> None:
    """metrics.json of a `RunRecord` and its `MetricsReport`: the tracking
    metrics and per-state estimation RMSE, the scenario's choices and the
    saturation count."""
    spec = record.spec
    write_json(path, {
        "channel": "tracking",
        "rmse": metrics.rmse,
        "mae": metrics.mae,
        "iae": metrics.iae,
        "estimation_rmse": _estimation_rmse(metrics),
        "seed": spec.seed,
        "controller": spec.controller,
        "estimator": spec.estimator,
        "duration": spec.duration,
        "sample_rate": spec.sample_rate,
        "saturation_count": record.saturation_count,
    })


def _percent_change(ref: float, val: float) -> float:
    return 100.0 * (val - ref) / ref if ref else 0.0


def compare_table(comparison) -> tuple:
    """Header and rows of a `Comparison`'s table: each tracking metric and
    per-state estimation RMSE, its value under each variant, then the
    percent change of the second variant against the first."""
    metrics = comparison.metrics
    table = [(attr, [getattr(m, attr) for m in metrics]) for attr in ("rmse", "mae", "iae")]
    est = [_estimation_rmse(m) for m in metrics]
    table += [(f"est_rmse_{state}", [e[state] for e in est]) for state in est[0]]
    rows = [[label, *vals, _percent_change(*vals[:2]) if len(vals) > 1 else 0.0]
            for label, vals in table]
    return ["metric", *comparison.names, "delta_percent"], rows


def compare_text(header, rows) -> str:
    """The table of `compare_table` in fixed-width columns, the label column
    as wide as its longest label."""
    width = max(len(row[0]) for row in (header, *rows))
    lines = [f"{'metric':<{width}}" + "".join(f"{n:>14}" for n in header[1:-1])
             + f"{'delta%':>10}"]
    for label, *vals, delta in rows:
        lines.append(f"{label:<{width}}" + "".join(f"{v:>14.6f}" for v in vals)
                     + f"{delta:>10.2f}")
    return "\n".join(lines)


def gain_report(vertices, solutions) -> dict:
    """JSON-friendly summary of a `VertexSet`'s gains and the Riccati
    solutions they came from, closed-loop eigenvalue moduli included."""
    report = {"mode": vertices.mode, "sample_time": vertices.T, "vertices": []}
    for i, (rho, K, solution) in enumerate(
        zip(vertices.rho, vertices.gains, solutions, strict=True)
    ):
        report["vertices"].append({
            "index": i + 1,
            "rho": rho,
            "K": [float(v) for v in np.asarray(K).reshape(-1)],
            "closed_loop_eigenvalue_moduli": list(solution.moduli),
            "riccati_residual": solution.residual,
            "P": np.asarray(solution.P).tolist(),
        })
    return report


def _cmd_ident(args) -> int:
    motor = load_motor_config(args.motor)
    samples = read_samples_csv(args.csv)
    result = identify(motor, samples)
    print(f"slope mu        = {result.slope:.6e} V*s/rad")
    print(f"viscous coeff b = {result.viscous_coeff:.6e} N*m*s/rad")
    print(f"residual rms    = {result.residual_rms:.6e} V")
    if result.warning:
        print(f"warning: {result.warning}")
    return 0


def _warn_unstable_model(vertices) -> None:
    """Print one warning line to stderr when a vertex Phi's (omega, i)
    block has a pole on or outside the unit circle. The motor's own
    (omega, i) modes are stable, so such a pole is the discretization's:
    forward Euler's electrical pole, near 1 - T Rm / Lm, leaves the circle
    at a tick past about 2 Lm / Rm. The design and its certificate still
    hold for the model; the model does not hold for the motor. The worst
    pole over the vertices is named."""
    pole, b = max(((z, rho) for rho, phi in zip(vertices.rho, vertices.Phi_vertices)
                   for z in np.linalg.eigvals(phi[1:, 1:])), key=lambda zb: abs(zb[0]))
    if abs(pole) >= 1.0:
        print(f"warning: the {vertices.mode} model at T = {vertices.T} s puts an open-loop "
              f"(omega, i) pole at {pole:.4g} (b = {b:.3e}), on or outside the unit "
              "circle, though the motor's own poles are stable; discretization = zoh "
              "keeps them inside", file=sys.stderr)


def _cmd_gains(args) -> int:
    for option, path in (("--json", args.json), ("--csv", args.csv)):
        if path:
            _refuse_bad_file(Path(path), option)
    vertices = design_from_motor(load_motor_config(args.motor))
    # the Riccati solutions that design's gains came from, out of its memo
    report = gain_report(vertices, vertex_solutions(vertices))
    print(f"discretization: {report['mode']}, sample time {report['sample_time']} s")
    for entry in report["vertices"]:
        K = ", ".join(f"{v: .6f}" for v in entry["K"])
        moduli = ", ".join(f"{v:.6f}" for v in entry["closed_loop_eigenvalue_moduli"])
        print(f"vertex {entry['index']}: rho = {entry['rho']:.6e}")
        print(f"  K = [{K}]")
        print(f"  closed-loop |eig| = [{moduli}]")
        print(f"  riccati residual = {entry['riccati_residual']:.3e}")
    if args.json:
        write_json(args.json, report)
        print(f"wrote {args.json}")
    if args.csv:
        # one row per vertex: scheduling value, gain entries, eigenvalue moduli
        write_csv(args.csv, ["vertex", "rho", "k_theta", "k_omega", "k_current",
                             "eig_mod_1", "eig_mod_2", "eig_mod_3"],
                  [[entry["index"], entry["rho"], *entry["K"],
                    *entry["closed_loop_eigenvalue_moduli"]] for entry in report["vertices"]])
        print(f"wrote {args.csv}")
    _warn_unstable_model(vertices)
    return 0


def _cmd_certify(args) -> int:
    vertices = design_from_motor(load_motor_config(args.motor))
    cert = certify(vertices)
    with np.printoptions(precision=6, suppress=False):
        print("common Lyapunov matrix P:")
        print(cert.P_lyap)
    print(f"alpha (worst vertex margin) = {cert.alpha:.6e}")
    print("vertex margins              = "
          + ", ".join(f"{m:.6e}" for m in cert.vertex_margins))
    print(f"L_phi = {cert.L_phi:.6e}  L_k = {cert.L_k:.6e}  L = {cert.L:.6e}")
    print(f"eps_star = {cert.eps_star:.6e}")
    print(f"C = {cert.C:.6e}  lambda = {cert.lambda_:.6e} "
          f"(at epsilon = {0.5 * cert.eps_star:.6e})")
    print("certified: yes")
    _warn_unstable_model(vertices)
    return 0


def _refuse_non_directory(out: Path) -> None:
    """Refuse an output path that is, or lies under, something other than a
    directory before the run, where mkdir would refuse it only after. The
    directory itself is made only once the run succeeds."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"--out {out}: {path} is not a directory")
            return


def _refuse_bad_file(out: Path, option: str) -> None:
    """Refuse the output file path of `option` that is a directory, or whose
    parent is missing or not a directory, before the work whose result it
    would hold; opening it would refuse it only after."""
    if out.is_dir():
        raise IsADirectoryError(f"{option} {out}: is a directory")
    if not out.parent.exists():
        raise FileNotFoundError(f"{option} {out}: {out.parent} does not exist")
    if not out.parent.is_dir():
        raise NotADirectoryError(f"{option} {out}: {out.parent} is not a directory")


def _cmd_run(args) -> int:
    out = Path(args.out)
    _refuse_non_directory(out)
    spec, motor = load_scenario(args.scenario)
    vertices = design_from_motor(motor)
    record = run_scenario(spec, motor, vertices)
    metrics = compute_metrics(record)
    out.mkdir(parents=True, exist_ok=True)
    write_run_csvs(out / "trace.csv", out / "plot.csv", record)
    write_metrics_json(out / "metrics.json", record, metrics)
    print(f"controller={spec.controller} estimator={spec.estimator} "
          f"seed={spec.seed} ticks={spec.n_ticks}")
    print(f"tracking rmse = {metrics.rmse:.6f} rad, mae = {metrics.mae:.6f} rad, "
          f"iae = {metrics.iae:.6f} rad*s")
    print("estimation rmse (theta, omega, current) = "
          + ", ".join(f"{v:.6f}" for v in metrics.est_rmse))
    print(f"saturated ticks = {record.saturation_count}")
    print(f"wrote {out / 'trace.csv'}, {out / 'plot.csv'}, {out / 'metrics.json'}")
    _warn_unstable_model(vertices)
    return 0


def _parse_variants(raw) -> list:
    if not raw:
        return [("maps", "maps", "imm"), ("fixed", "fixed:0", "kf:0")]
    variants = []
    for item in raw:
        name, _, rest = item.partition("=")
        controller, _, estimator = rest.partition("/")
        if not (name and controller and estimator):
            raise ConfigError(
                f"variant {item!r} must look like NAME=CONTROLLER/ESTIMATOR"
            )
        if any(name == seen for seen, _, _ in variants):
            raise ConfigError(f"variant {item!r} repeats the NAME {name!r} of an earlier variant")
        variants.append((name, controller, estimator))
    return variants


def _cmd_compare(args) -> int:
    if args.out:
        _refuse_bad_file(Path(args.out), "--out")
    spec, motor = load_scenario(args.scenario)
    variants = _parse_variants(args.variant)
    # every variant's spec is checked before the design or any run
    for _, controller, estimator in variants:
        replace(spec, controller=controller, estimator=estimator)
    vertices = design_from_motor(motor)
    header, rows = compare_table(compare_runs(spec, variants, motor, vertices))
    print(compare_text(header, rows))
    if args.out:
        write_csv(args.out, header, rows)
        print(f"wrote {args.out}")
    _warn_unstable_model(vertices)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "ident": _cmd_ident,
        "gains": _cmd_gains,
        "certify": _cmd_certify,
        "run": _cmd_run,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"error: certification failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # a path that cannot be read or written: missing, a directory, or
        # not permitted
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
