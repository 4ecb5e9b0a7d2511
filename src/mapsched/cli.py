"""Command line interface.

Subcommands: ident, gains, certify, run, compare. Exit codes: 0 success,
1 invalid config or command line, 2 numerical failure, 3 certification
failure. `gains`, `certify` and `run` end a success with a `warning:` line
on stderr when the design's discrete model is unstable where the motor is
not (`_warn_unstable_model`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_motor_config
from .control import gain_report, vertex_solutions, write_gain_csv, write_gain_report
from .errors import CertificationError, ConfigError, NumericalError
from .harness import (
    compare_runs,
    compute_metrics,
    design_from_motor,
    load_scenario,
    run_scenario,
    write_metrics_json,
    write_run_csvs,
)

# not called here: `run` writes both CSVs through write_run_csvs. The
# benchmark's tracer looks these names up on this module, so they stay
# importable from it
from .harness import write_plot_csv, write_trace_csv  # noqa: F401
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
    p_cert.add_argument("--epsilon", type=float, default=None,
                        help="scheduling mismatch bound to evaluate the rate at")

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
        write_gain_report(args.json, report)
        print(f"wrote {args.json}")
    if args.csv:
        write_gain_csv(args.csv, report)
        print(f"wrote {args.csv}")
    _warn_unstable_model(vertices)
    return 0


def _cmd_certify(args) -> int:
    vertices = design_from_motor(load_motor_config(args.motor))
    cert = certify(vertices, epsilon=args.epsilon)
    with np.printoptions(precision=6, suppress=False):
        print("common Lyapunov matrix P:")
        print(cert.P_lyap)
    print(f"alpha (worst vertex margin) = {cert.alpha:.6e}")
    print("vertex margins              = "
          + ", ".join(f"{m:.6e}" for m in cert.vertex_margins))
    print(f"L_phi = {cert.L_phi:.6e}  L_k = {cert.L_k:.6e}  L = {cert.L:.6e}")
    print(f"eps_star = {cert.eps_star:.6e}")
    print(f"C = {cert.C:.6e}  lambda = {cert.lambda_:.6e} "
          f"(at epsilon = {cert.epsilon_used:.6e})")
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
    comparison = compare_runs(spec, variants, motor, design_from_motor(motor))
    print(comparison.to_text())
    if args.out:
        comparison.to_csv(args.out)
        print(f"wrote {args.out}")
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
