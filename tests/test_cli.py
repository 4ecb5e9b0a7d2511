import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapsched import cli, control, harness
from mapsched.config import MOTOR_DEFAULTS
from mapsched.control import riccati_doubling
from mapsched.errors import NumericalError
from mapsched.motor import build_vertex_set

CLI = [sys.executable, "-m", "mapsched"]


def run_cli(*args):
    """`python -m mapsched` in a child process: kept for one exit code of
    each class, the tests that also cover the module entry point."""
    return subprocess.run([*CLI, *args], capture_output=True, text=True, timeout=300)


@pytest.fixture
def maps(capsys, monkeypatch):
    """`maps` in this process: `cli.main` on the arguments, with the `env`
    entries set for the call only. Returns the exit code (a SystemExit's
    code included) with the captured stdout and stderr, as `run_cli` does;
    any other exception escapes and fails the test. A warning is raised as
    an error, so a stray warning fails the test as it would have shown on a
    child process's stderr."""

    def run(*args, env=None):
        with monkeypatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            for key, value in (env or {}).items():
                mp.setenv(key, value)
            capsys.readouterr()
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
        return subprocess.CompletedProcess(["maps", *args], code, out, err)

    return run


@pytest.fixture(scope="module")
def ident_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("ident") / "samples.csv"
    rows = [(-4, -41.0), (-3, -23.0), (-2, -9.8), (2, 9.3), (3, 23.2), (4, 40.0)]
    path.write_text("voltage,velocity\n" + "\n".join(f"{v},{w}" for v, w in rows) + "\n")
    return path


@pytest.fixture(scope="module")
def scenario_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "scenario.cfg"
    path.write_text(
        "reference = sine\n"
        "amplitude = 2.0\n"
        "duration = 1.0\n"
        "seed = 9\n"
        "friction = window\n"
        "load_start = 0.3\n"
        "load_end = 0.7\n"
        "discretization = zoh\n"
    )
    return path


def test_ident_prints_slope_and_coefficient(maps, ident_csv):
    out = maps("ident", str(ident_csv))
    assert out.returncode == 0
    assert "slope mu" in out.stdout
    assert "viscous coeff b" in out.stdout
    assert "residual rms" in out.stdout


@pytest.mark.parametrize("text", [
    "1,nan\n2,3\n", "1,inf\n2,3\n", "1,2\n1e308,1e308\n", "1,1e-320\n2,2e-320\n",
], ids=["nan", "inf", "overflow", "underflow"])
def test_ident_refuses_samples_it_cannot_fit(maps, tmp_path, text):
    # a sample that is not finite, or sums that leave float range, would
    # print a nan or inf slope after numpy's warnings
    path = tmp_path / "samples.csv"
    path.write_text(text)
    out = maps("ident", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: invalid config: ") and out.stderr.count("\n") == 1


def test_gains_reports_stable_loops(maps):
    out = maps("gains")
    assert out.returncode == 0
    assert "vertex 1" in out.stdout and "vertex 2" in out.stdout
    assert "closed-loop |eig|" in out.stdout


def test_gains_json_export(maps, tmp_path):
    target = tmp_path / "gains.json"
    out = maps("gains", "--json", str(target))
    assert out.returncode == 0
    payload = json.loads(target.read_text())
    assert len(payload["vertices"]) == 2


@pytest.mark.parametrize("target", ["directory", "under-missing", "good-json-bad-csv"])
def test_gains_refuses_a_bad_output_before_designing(maps, tmp_path, monkeypatch, target):
    # both output paths are checked before the design, so a bad one prints
    # no report and leaves no file, not even the other, good one
    def never(*args, **kwargs):
        raise AssertionError("the design started")

    monkeypatch.setattr(cli, "design_from_motor", never)
    good = str(tmp_path / "g.json")
    args, reason = {
        "directory": (["--json", str(tmp_path)], f"--json {tmp_path}: is a directory"),
        "under-missing": (["--csv", str(tmp_path / "missing" / "g.csv")],
                          "missing does not exist"),
        "good-json-bad-csv": (["--json", good, "--csv", str(tmp_path)],
                              f"--csv {tmp_path}: is a directory"),
    }[target]
    out = maps("gains", *args)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("error: invalid config: ")
    assert reason in out.stderr
    assert list(tmp_path.iterdir()) == []


def test_certify_success_exit_zero():
    out = run_cli("certify")
    assert out.returncode == 0
    assert "certified: yes" in out.stdout
    assert "eps_star" in out.stdout


# an Euler design whose vertex loops share no Lyapunov matrix the
# averaging search can find
NO_COMMON_P_MOTOR = "discretization = euler\nb_max = 3e-3\n"


def test_certify_failure_exit_three(tmp_path):
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(NO_COMMON_P_MOTOR)
    out = run_cli("certify", "--motor", str(cfg))
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == ("error: certification failed: no common Lyapunov matrix found "
                          "(worst vertex margin -1.846e+00, after 500 rounds); "
                          "this does not prove instability\n")


def test_certify_epsilon_is_an_unknown_option(maps):
    # the rate is always taken at eps_star / 2, so certify has no mismatch
    # option: --epsilon is a usage error, exit 1
    out = maps("certify", "--epsilon", "1e-5")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("usage: maps")
    assert "unrecognized arguments" in out.stderr
    assert "Traceback" not in out.stderr
    # its help lists --motor as its one option
    assert set(re.findall(r"--[a-z]+", maps("certify", "--help").stdout)) == {"--help", "--motor"}


def test_invalid_config_exit_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("controler = maps\n")
    out = run_cli("run", str(bad))
    assert out.returncode == 1
    assert "invalid config" in out.stderr


def test_missing_file_exit_one(maps, tmp_path):
    out = maps("run", str(tmp_path / "nope.cfg"))
    assert out.returncode == 1


def test_non_finite_duration_exit_one(maps, tmp_path):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("duration = inf\nfriction = constant\n")
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "invalid config" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("text", [
    "duration = 1e9\n",                                     # 5e11 ticks
    "friction = toggle\ntoggle_period = 1e-9\n",            # 3e10 segments
    "substeps = 1000000000\n",                              # not a scenario key
], ids=["ticks", "toggle_segments", "substeps"])
def test_oversized_work_exit_one(maps, tmp_path, text):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "invalid config" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exit_two(tmp_path):
    # forward Euler with Lm = 1e-20 H at a 2 ms tick puts the discrete
    # model's entries at 1.7e18, past float64 round-off against its unit
    # diagonal: the Riccati solve finds no solution
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text("lm = 1e-20\ndiscretization = euler\n")
    out = run_cli("gains", "--motor", str(cfg))
    assert out.returncode == 2
    assert "numerical failure" in out.stderr


@pytest.mark.parametrize("b_m", ["0.139", "0.15", "0.159"])
@pytest.mark.parametrize("command", ["gains", "certify"])
def test_complex_modes_at_b_m_exit_one(maps, tmp_path, command, b_m):
    # the design takes Gamma at b_m, past the scheduled range [0, 10 b_max]
    # here; around b_m / J = R / L the (omega, i) modes there are complex,
    # which the ZOH closed form cannot map: refused as the motor loads
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(f"b_m = {b_m}\n")
    out = maps(command, "--motor", str(cfg))
    assert out.returncode == 1
    assert out.stderr == ("error: invalid config: the motor's (omega, i) modes are not real "
                          f"and distinct at the nominal viscous coefficient b_m = {float(b_m):.3e}\n")


# the motor files whose Riccati defects are large in absolute terms but
# round-off against the equation's terms: ZOH at a 10 us tick (defects of
# 1.6e-9 and 6.5e-9, 1.4e-15 and 5.7e-15 of the largest term), and Euler
# with a microhenry inductance (1.1e-6 and 2.9e-6, at most 1.3e-17)
STIFF_MOTORS = {
    "zoh-10us": "discretization = zoh\nsample_time = 1e-5\n",
    "euler-1uH": "lm = 1e-6\ndiscretization = euler\n",
}


@pytest.mark.parametrize("command", ["gains", "certify"])
@pytest.mark.parametrize("name", STIFF_MOTORS)
def test_accurate_stiff_designs_pass_the_residual_bound(maps, tmp_path, command, name):
    # the defect is bounded relative to the largest entry of Phi'P Phi,
    # Phi'P Gamma K, Q and P, so an accurate solve is kept however large
    # its terms; `gains` still prints the absolute residual
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(STIFF_MOTORS[name])
    out = maps(command, "--motor", str(cfg))
    assert out.returncode == 0, out.stderr
    if command == "gains":
        assert out.stdout.count("riccati residual = ") == 2
    else:
        assert "certified: yes" in out.stdout


# motor files whose design puts an open-loop (omega, i) pole on or outside
# the unit circle: forward Euler at the stock 2 ms tick (-13.46) and with a
# microhenry inductance (-16,799)
UNSTABLE_MODELS = {"euler-stock": ("discretization = euler\n", "-13.46"),
                   "euler-1uH": ("discretization = euler\nlm = 1e-6\n", "-1.68e+04")}


def command_args(command, cfg, tmp_path):
    if command == "run":
        return ("run", str(cfg), "--out", str(tmp_path / "out"))
    if command == "compare":
        return ("compare", str(cfg))
    return (command, "--motor", str(cfg))


# (the estimate diverges on a run of the microhenry model: see the
# failing-command test below)
@pytest.mark.parametrize("command, name", [
    ("gains", "euler-stock"), ("certify", "euler-stock"), ("run", "euler-stock"),
    ("compare", "euler-stock"), ("gains", "euler-1uH"), ("certify", "euler-1uH"),
])
def test_unstable_model_warns_after_success(maps, tmp_path, command, name):
    # one line on stderr after the command's output, which succeeds
    text, pole = UNSTABLE_MODELS[name]
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(text + ("duration = 0.1\n" if command in ("run", "compare") else ""))
    out = maps(*command_args(command, cfg, tmp_path))
    assert out.returncode == 0
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith(f"warning: the euler model at T = 0.002 s puts an open-loop "
                                 f"(omega, i) pole at {pole} (b = 2.460e-06), on or outside "
                                 "the unit circle")
    if command == "certify":
        assert "certified: yes" in out.stdout
    if command == "compare":
        assert out.stdout.startswith("metric")


@pytest.mark.parametrize("command", ["gains", "certify", "run", "compare"])
@pytest.mark.parametrize("text", ["", "discretization = zoh\nlm = 1e-6\n",
                                  "discretization = euler\nsample_time = 1e-4\n"],
                         ids=["stock-zoh", "zoh-1uH", "euler-100us"])
def test_stable_model_prints_no_warning(maps, tmp_path, command, text):
    # every ZOH pole is inside the unit circle, and so is Euler's at a tick
    # short against Lm / Rm (0.277 at 100 us)
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(text + ("duration = 0.01\n" if command in ("run", "compare") else ""))
    out = maps(*command_args(command, cfg, tmp_path))
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


@pytest.mark.parametrize("command, text, code", [
    ("certify", NO_COMMON_P_MOTOR, 3),
    ("run", "discretization = euler\nlm = 1e-6\nduration = 0.1\n", 2),
], ids=["certify-epsilon", "run-diverges"])
def test_failing_command_prints_no_warning(maps, tmp_path, command, text, code):
    # the warning follows a success only: a command that fails after its
    # design still writes the error line alone
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(text)
    out = maps(*command_args(command, cfg, tmp_path))
    assert out.returncode == code
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "warning" not in out.stderr


def test_residual_above_the_bound_exits_two(maps, tmp_path, monkeypatch):
    # a solution P off by 1e-6 relative leaves a defect far above the bound
    monkeypatch.setattr(control, "riccati_doubling",
                        lambda *args: riccati_doubling(*args) * (1.0 + 1e-6))
    control._vertex_solution.cache_clear()
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(STIFF_MOTORS["zoh-10us"])
    for command in ("gains", "certify"):
        out = maps(command, "--motor", str(cfg))
        assert out.returncode == 2
        assert out.stderr.startswith("error: numerical failure: Riccati residual ")
        assert "exceeds 1e-12 of the equation's largest term" in out.stderr


@pytest.mark.parametrize("discretization, code", [("zoh", 0), ("euler", 2)])
@pytest.mark.parametrize("command", ["gains", "certify"])
def test_non_finite_design_exits_with_its_code(tmp_path, command, discretization, code):
    # lm = 1e-150 puts the electrical pole at -7.2e153 /s: the ZOH closed
    # form maps it exactly (e^(lam T) = 0) and the design certifies (exit
    # 0); under Euler Phi reaches ~1.7e148 and the Riccati solve fails (exit
    # 2), with a message that names the float range. Neither lets a
    # floating-point warning or a traceback escape.
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(f"lm = 1e-150\ndiscretization = {discretization}\n")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert cli.main([command, "--motor", str(cfg)]) == code
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert "model's entries reach 1.68e+148" in err.getvalue()
        assert "not stabilizable" not in err.getvalue()
        assert "out of float range" in err.getvalue()


@pytest.mark.parametrize("tau_s, tau_c", [(0.001, 0.002), (-0.001, -0.002), (0.003, -0.001)],
                         ids=["static-below-coulomb", "both-negative", "coulomb-negative"])
@pytest.mark.parametrize("command", ["gains", "certify", "run-constant", "run-window"])
def test_friction_torques_out_of_order_exit_one(maps, monkeypatch, tmp_path, command,
                                                tau_s, tau_c):
    # every command refuses a motor without tau_s >= tau_c >= 0 as it reads
    # the file, before any design: a run under constant friction never
    # applies tau_c, and a window run applies it only once the window opens
    monkeypatch.setattr(cli, "design_from_motor",
                        lambda motor: pytest.fail("designed from a refused motor"))
    torques = f"tau_s = {tau_s}\ntau_c = {tau_c}\n"
    cfg = tmp_path / "in.cfg"
    if command in ("gains", "certify"):
        cfg.write_text(torques)
        out = maps(command, "--motor", str(cfg))
    else:
        friction = command.removeprefix("run-")
        window = "load_start = 0.1\nload_end = 0.3\n" if friction == "window" else ""
        cfg.write_text(f"duration = 0.4\nfriction = {friction}\n{window}{torques}")
        out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "invalid config: friction requires tau_s >= tau_c >= 0" in out.stderr
    assert out.stdout == ""
    assert not (tmp_path / "out").exists()


def test_riccati_doubling_failure_exit_two(monkeypatch):
    # a doubling that has not settled at its cap is the solve's failure:
    # exit 2, no stray warning (the stock design settles in 11 doublings)
    monkeypatch.setattr(control, "DARE_MAX_ITER", 2)
    # `gains` reads the design's solutions from the memo: empty it so that
    # the stock design is solved again, under the lowered cap
    control._vertex_solution.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert cli.main(["gains"]) == 2
    assert err.getvalue() == ("error: numerical failure: Riccati equation has no stabilizing "
                              "solution (the doubling did not settle in 2 doublings); the "
                              "model/weight pair is likely not stabilizable\n")
    assert out.getvalue() == ""


@pytest.mark.parametrize("args", [
    ["run"],                                    # no scenario
    ["certify", "--epsilon", "abc"],            # an unknown option
    ["bogus"],                                  # unknown subcommand
    [],                                         # no subcommand
    ["gains", "--bogus"],                       # unknown option
], ids=["missing-scenario", "epsilon-text", "unknown-command", "no-command", "unknown-option"])
def test_usage_error_exit_one(maps, args):
    # a command-line mistake is an invalid config (1), not argparse's 2,
    # which the documented codes give to a numerical failure
    out = maps(*args)
    assert out.returncode == 1
    assert out.stderr.startswith("usage: maps")
    assert "error: " in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(maps, flag):
    out = maps(flag)
    assert out.returncode == 0
    assert out.stdout and not out.stderr


def test_each_riccati_equation_is_solved_once(monkeypatch, motor):
    # a design solves each vertex problem (Phi_i, Gamma) once per
    # process, from an empty memo; `maps gains` reports the Riccati
    # solutions of the design it prints out of the same memo, so after that
    # design it solves nothing
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return riccati_doubling(*args, **kwargs)

    def solves(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    monkeypatch.setattr(control, "riccati_doubling", counted)
    control._vertex_solution.cache_clear()
    n_vertices = 2
    assert solves(harness.design_from_motor, motor) == n_vertices
    assert solves(harness.design_from_motor, motor) == 0
    # the b_min vertex is the same model; only the b_max vertex is new
    assert solves(harness.design_from_motor, dataclasses.replace(motor, b_max=6e-4)) == 1
    # another sample time makes every vertex problem new
    bare = build_vertex_set(dataclasses.replace(motor, sample_time=0.5 * motor.sample_time))
    assert solves(control.synthesize_vertex_gains, bare) == n_vertices
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gains"]) == 0
    assert len(calls) == 0


@pytest.mark.parametrize("choice", ["estimator = kf:2", "controller = fixed:-1"])
def test_vertex_index_refused_before_the_design(maps, monkeypatch, tmp_path, choice):
    # kf:<i> and fixed:<i> name vertex 0 or 1; another index is refused as
    # the scenario loads, before any Riccati equation is solved
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return riccati_doubling(*args, **kwargs)

    monkeypatch.setattr(control, "riccati_doubling", counted)
    control._vertex_solution.cache_clear()
    cfg = tmp_path / "index.cfg"
    cfg.write_text(f"duration = 0.1\n{choice}\n")
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert out.stderr.startswith("error: invalid config: ")
    assert "index must be vertex 0 or 1" in out.stderr
    assert len(calls) == 0
    assert not (tmp_path / "out").exists()


def test_sample_rate_is_not_a_scenario_key(maps, tmp_path):
    # a run's tick is its motor's sample_time; a scenario file cannot set it
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("duration = 0.1\nsample_rate = 500\n")
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "unknown scenario keys: ['sample_rate']" in out.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("duration, fault", [
    ("1e9", "duration 1e+09 s at sample_time 0.002 s is 5e+11 ticks, past the cap of 1000000"),
    ("1e-9", "duration 1e-09 s at sample_time 0.002 s is 5e-07 ticks, which rounds to no tick"),
], ids=["cap", "no-tick"])
def test_tick_count_refusal_names_the_motor_sample_time(maps, tmp_path, duration, fault):
    cfg = tmp_path / "ticks.cfg"
    cfg.write_text(f"duration = {duration}\n")
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert out.stderr == f"error: invalid config: {fault}\n"
    assert not (tmp_path / "out").exists()


def test_load_window_from_zero_runs(maps, tmp_path):
    # the window holds b_max from the first tick; Euler saturates on this
    # scenario, so it is designed under ZOH
    cfg = tmp_path / "window0.cfg"
    cfg.write_text("discretization = zoh\nduration = 1.0\nfriction = window\n"
                   "load_start = 0\nload_end = 0.5\n")
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    with (tmp_path / "out" / "plot.csv").open(newline="") as fh:
        b_true = [float(row["b_true"]) for row in csv.DictReader(fh)]
    assert len(b_true) == 500
    assert b_true[:250] == [MOTOR_DEFAULTS["b_max"]] * 250
    assert b_true[250:] == [MOTOR_DEFAULTS["b_min"]] * 250


def test_run_writes_outputs(maps, tmp_path, scenario_cfg):
    out_dir = tmp_path / "out"
    out = maps("run", str(scenario_cfg), "--out", str(out_dir))
    assert out.returncode == 0
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "plot.csv").exists()
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["seed"] == 9
    assert "rmse" in metrics


@pytest.mark.parametrize("target", ["file", "under-file"])
def test_run_refuses_an_out_that_is_not_a_directory(tmp_path, scenario_cfg, monkeypatch,
                                                     target):
    # refused before the scenario is loaded, designed or simulated
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("load_scenario", "design_from_motor", "run_scenario"):
        monkeypatch.setattr(cli, name, never)
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out_dir = blocker if target == "file" else blocker / "sub" / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["run", str(scenario_cfg), "--out", str(out_dir)]) == 1
    assert err.getvalue().startswith("error: invalid config: ")
    assert f"{blocker} is not a directory" in err.getvalue()
    assert blocker.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_run_byte_identical_reruns(maps, tmp_path, scenario_cfg):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert maps("run", str(scenario_cfg), "--out", str(d1)).returncode == 0
    assert maps("run", str(scenario_cfg), "--out", str(d2)).returncode == 0
    assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()


def test_run_metrics_agree_across_blas_kernels(tmp_path, scenario_cfg):
    # output bytes hold per BLAS kernel only: OpenBLAS rounds the design's
    # Riccati solve per kernel, and the run carries that design's bits
    # (it makes no BLAS call of its own). A run under the Sandybridge (AVX)
    # kernels and one under the kernel OpenBLAS picks for the CPU still
    # report the same metrics within a relative 1e-9 (they differed by
    # 5.7e-14 at most over the Sandybridge, Nehalem and Haswell kernels
    # against an avx512f CPU's SkylakeX), and the same saturation count
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    metrics = []
    for name, extra in (("default", {}), ("sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"})):
        out_dir = tmp_path / name
        done = subprocess.run([*CLI, "run", str(scenario_cfg), "--out", str(out_dir)],
                              env={**env, **extra}, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        metrics.append(json.loads((out_dir / "metrics.json").read_text()))
    default, other = ({**m.pop("estimation_rmse"), **m} for m in metrics)
    assert default.keys() == other.keys()
    for key, value in default.items():
        if key in ("rmse", "mae", "iae", "theta", "omega", "current"):
            assert other[key] == pytest.approx(value, rel=1e-9, abs=0.0), key
        else:
            assert other[key] == value, key


def test_maps_seed_env_is_not_read(maps, tmp_path, scenario_cfg):
    # the run's seed is the scenario file's alone
    d1 = tmp_path / "seeded"
    out = maps("run", str(scenario_cfg), "--out", str(d1), env={"MAPS_SEED": "123"})
    assert out.returncode == 0
    metrics = json.loads((d1 / "metrics.json").read_text())
    assert metrics["seed"] == 9


@pytest.mark.parametrize("text", ["seed = -1\n"], ids=["file"])
def test_negative_seed_exit_one(maps, tmp_path, text):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("duration = 0.1\n" + text)
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "invalid config" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "process_noise_std = -1\n",
    "meas_noise_std = -0.5\n",
], ids=["process", "meas"])
def test_negative_noise_exit_one(maps, tmp_path, text):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text("duration = 0.1\n" + text)
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "invalid config" in out.stderr and "noise_std" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, reason", [
    ("duration = 1\nfriction = window\nramp_time = -1\n", "ramp_time must be a number >= 0"),
    ("duration = 1\nfriction = toggle\nramp_time = -1\n",
     "ramp_time is read by friction = window; friction 'toggle' does not read it"),
    ("duration = 1\nfriction = constant\nramp_time = -0.5\n",
     "ramp_time is read by friction = window; friction 'constant' does not read it"),
    ("duration = 1\nfriction = constant\nramp_time = 7\n",
     "ramp_time is read by friction = window; friction 'constant' does not read it"),
    ("duration = 1\nfriction = toggle\nramp_time = 0.05\n",
     "ramp_time is read by friction = window; friction 'toggle' does not read it"),
    ("duration = 1\nfriction = toggle\nramp_time = 0\n",
     "ramp_time is read by friction = window; friction 'toggle' does not read it"),
    ("duration = 1\nfrequency = 1e308\n", "sine frequency 1e+308 puts the reference's rate"),
    ("duration = 1\namplitude = 100\nfrequency = 1e307\n", "sine frequency 1e+307 puts"),
    ("duration = 30\nfrequency = 1e307\n", "sine frequency 1e+307 puts the reference's rate"),
    ("duration = 1\nreference = step\nfrequency = 7\n",
     "frequency is read by reference = sine; reference 'step' does not read it"),
    ("duration = 1\nperiod = 2\n",
     "period is read by reference = step; reference 'sine' does not read it"),
    ("duration = 1\nfriction = constant\nload_start = 0.2\n",
     "load_start is read by friction = window; friction 'constant' does not read it"),
    ("duration = 1\nfriction = toggle\nload_end = 0.5\n",
     "load_end is read by friction = window; friction 'toggle' does not read it"),
    ("duration = 1\ntoggle_start = 0.2\n",
     "toggle_start is read by friction = toggle; friction 'constant' does not read it"),
    ("duration = 1\nfriction = window\ntoggle_period = 0.5\n",
     "toggle_period is read by friction = toggle; friction 'window' does not read it"),
], ids=["negative-ramp", "negative-ramp-toggle", "negative-ramp-constant", "ramp-constant",
        "ramp-toggle", "zero-ramp-toggle", "rate", "peak", "phase", "frequency-step",
        "period-sine", "load_start-constant", "load_end-toggle", "toggle_start-constant",
        "toggle_period-window"])
def test_schedule_and_reference_out_of_range_exit_one(maps, tmp_path, text, reason):
    # a negative ramp would run as step switches, and is refused; a sine
    # whose rate, peak or phase overflows would reach the plant as a NaN
    # input or raise in sin. A key that only another kind of reference or
    # schedule reads would be ignored, and is refused, naming the kind that
    # reads it: ramp_time, whatever its value, under a schedule that does
    # not ramp
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert out.stderr.startswith("error: invalid config: ") and reason in out.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base, ramp, spec_friction", [
    ("friction = window\nload_start = 0.1\nload_end = 0.3\n", "ramp_time = 0\n", None),
    ("friction = window\nload_start = 0.1\nload_end = 0.3\n", "ramp_time = 0.05\n",
     lambda m: harness.load_window_schedule(m.b_min, m.b_max, start=0.1, end=0.3,
                                            ramp_time=0.05)),
], ids=["window-0", "window-0.05"])
def test_ramp_time_a_schedule_takes_runs(maps, tmp_path, motor, base, ramp, spec_friction):
    # ramp_time = 0 is no ramp: the run is the one without the key; a
    # ramped window runs the schedule load_window_schedule builds
    files = {}
    for name, text in (("plain", base), ("ramp", base + ramp)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("duration = 0.4\nseed = 2\n" + text)
        assert maps("run", str(cfg), "--out", str(tmp_path / name)).returncode == 0
        files[name] = [(tmp_path / name / f).read_bytes() for f in ("trace.csv", "plot.csv")]
    if spec_friction is None:
        assert files["ramp"] == files["plain"]
        return
    spec = harness.ScenarioSpec(duration=0.4, seed=2, sample_time=motor.sample_time,
                                friction=spec_friction(motor))
    record = harness.run_scenario(spec, motor, harness.design_from_motor(motor))
    cli.write_run_csvs(tmp_path / "trace.csv", tmp_path / "plot.csv", record)
    assert files["ramp"] == [(tmp_path / f).read_bytes() for f in ("trace.csv", "plot.csv")]
    assert files["ramp"] != files["plain"]


def test_diverged_estimate_exit_two(maps, tmp_path):
    # a 1e100 N*m torque disturbance drives the estimate past what float64
    # resolves against R; the filter's inputs stay finite to the end
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("duration = 0.4\ndiscretization = zoh\nprocess_noise_std = 1e100\n")
    out = maps("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 2
    assert out.stderr.startswith("error: numerical failure: the estimate diverged")
    assert "Traceback" not in out.stderr


def test_compare_default_variants(maps, scenario_cfg, tmp_path):
    out_csv = tmp_path / "cmp.csv"
    out = maps("compare", str(scenario_cfg), "--out", str(out_csv))
    assert out.returncode == 0
    assert "maps" in out.stdout and "fixed" in out.stdout
    assert out_csv.exists()


def test_compare_table_values_start_at_one_column(maps, scenario_cfg):
    # the label column is as wide as the longest label, est_rmse_current:
    # every row's values (two columns of 14 and delta% of 10) start where
    # the header's variant names do
    out = maps("compare", str(scenario_cfg))
    assert out.returncode == 0
    lines = out.stdout.splitlines()[:7]
    labels = ["metric", "rmse", "mae", "iae", "est_rmse_theta", "est_rmse_omega",
              "est_rmse_current"]
    start = len(max(labels, key=len))
    for line, label in zip(lines, labels, strict=True):
        assert len(line) == start + 2 * 14 + 10, line
        assert line[:start].rstrip() == label and line[start] == " ", line
        assert len(line[start:].split()) == 3, line


@pytest.mark.parametrize("target", ["directory", "under-file", "under-missing"])
def test_compare_refuses_a_bad_out_before_running(tmp_path, scenario_cfg, monkeypatch, target):
    # refused before the scenario is loaded, designed or compared
    def never(*args, **kwargs):
        raise AssertionError("the comparison started")

    for name in ("load_scenario", "design_from_motor", "compare_runs"):
        monkeypatch.setattr(cli, name, never)
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out_csv, reason = {
        "directory": (tmp_path, "is a directory"),
        "under-file": (blocker / "cmp.csv", f"{blocker} is not a directory"),
        "under-missing": (tmp_path / "missing" / "cmp.csv", "missing does not exist"),
    }[target]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["compare", str(scenario_cfg), "--out", str(out_csv)]) == 1
    assert err.getvalue().startswith("error: invalid config: ")
    assert reason in err.getvalue()
    assert blocker.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("variant, reason", [
    ("b=fixed:7/kf:0", "controller index must be vertex 0 or 1, got 'fixed:7'"),
    ("b=maps/ukf", "unknown estimator 'ukf'"),
    ("b=maps", "variant 'b=maps' must look like NAME=CONTROLLER/ESTIMATOR"),
    ("a=fixed:0/kf:0", "variant 'a=fixed:0/kf:0' repeats the NAME 'a' of an earlier variant"),
], ids=["vertex-index", "estimator", "malformed", "repeated-name"])
def test_compare_refuses_a_bad_variant_before_designing(maps, scenario_cfg, monkeypatch,
                                                        variant, reason):
    # every variant is checked as the scenario loads: a bad second one is
    # refused (exit 1) before the design, which here would fail (exit 2),
    # and before the first variant runs
    def design_fails(motor):
        raise NumericalError("the design started")

    def never(*args, **kwargs):
        raise AssertionError("a variant ran")

    monkeypatch.setattr(cli, "design_from_motor", design_fails)
    monkeypatch.setattr(harness, "run_scenario", never)
    out = maps("compare", str(scenario_cfg), "--variant", "a=maps/imm", "--variant", variant)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == f"error: invalid config: {reason}\n"


def test_compare_custom_variants(maps, scenario_cfg):
    out = maps(
        "compare", str(scenario_cfg),
        "--variant", "a=maps/imm", "--variant", "b=fixed:1/kf:1",
    )
    assert out.returncode == 0
    assert "a" in out.stdout and "b" in out.stdout


STOCK_MOTOR = "".join(f"{k} = {v}\n" for k, v in MOTOR_DEFAULTS.items())


# every scenario key a sine under a load window reads, at its default but
# for a 0.4 s run (200 ticks at the stock motor's 2 ms) and the window, and
# the design the gates use
STOCK_SCENARIO = {
    "reference": "sine", "amplitude": 2.0, "frequency": 0.5,
    "duration": 0.4, "seed": 1, "controller": "maps",
    "estimator": "imm", "v_limit": 4.0, "friction": "window", "load_start": 0.1,
    "load_end": 0.3, "ramp_time": 0.0,
    "process_noise_std": 0.0, "meas_noise_std": 0.003, "discretization": "zoh",
}
# the same run of a step under toggling friction, with the keys those kinds
# read in place of the sine's and the window's
STEP_SCENARIO = {
    **{k: v for k, v in STOCK_SCENARIO.items()
       if k not in ("frequency", "load_start", "load_end")},
    "reference": "step", "period": 0.2, "friction": "toggle", "toggle_start": 0.3,
    "toggle_period": 0.05,
}
SCENARIO_WORDS = ("sine", "step", "maps", "open", "fixed:1", "fixed:2", "kf:0", "kf:1", "kf:-1",
                  "imm", "imm:0", "constant", "window", "toggle", "euler")


def mutate_file(draw, stock: dict, words=()) -> bytes:
    """`key = value` lines of `stock` with up to three of them dropped,
    duplicated, rescaled or given another value, then up to two bytes
    overwritten or inserted."""
    lines = {k: [f"{k} = {v}\n"] for k, v in stock.items()}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(lines)))
        action = draw(st.sampled_from(("drop", "twice", "scale", "value")))
        value = stock[key]
        if action == "scale" and isinstance(value, float):
            value *= 10.0 ** draw(st.integers(-4, 4)) * draw(st.sampled_from((1, 1, 1, -1)))
        elif action == "value":
            value = draw(st.one_of(
                st.floats(allow_nan=True, allow_infinity=True).map(repr),
                st.sampled_from(("0", "-0", "1e308", "1e-320", "zoh", "euler", "", "=", "#",
                                 *words)),
                st.text(max_size=8),
            ))
        lines[key] = {"drop": [], "twice": lines[key] * 2}.get(action, [f"{key} = {value}\n"])
    data = bytearray("".join(line for key in stock for line in lines[key]).encode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        if draw(st.booleans()) and at < len(data):
            data[at] = byte
        else:
            data.insert(at, byte)
    return bytes(data)


@st.composite
def mutated_stock_motor(draw):
    """The stock motor file, mutated by `mutate_file`."""
    return mutate_file(draw, MOTOR_DEFAULTS)


@st.composite
def mutated_stock_scenario(draw):
    """The stock sine or step scenario file, mutated by `mutate_file`."""
    stock = draw(st.sampled_from((STOCK_SCENARIO, STEP_SCENARIO)))
    return mutate_file(draw, stock, SCENARIO_WORDS)


@pytest.mark.parametrize("command", ["gains", "certify"])
@given(data=st.one_of(st.binary(max_size=300), mutated_stock_motor()))
@example(data=STOCK_MOTOR.encode())
@example(data=b"\xff\xfe")
@example(data=b"sample_time = 1e308\ndiscretization = zoh\n")    # T * A overflows
@example(data=b"sample_time = 1e308\ndiscretization = euler\n")
@example(data=b"b_m = 0.15\n")                 # complex modes at b_m: exit 1
@example(data=b"b_m = 1e300\ndiscretization = euler\n")
@settings(max_examples=60, deadline=None)
def test_fuzzed_motor_file_exits_with_a_documented_code(command, data):
    # `gains` and `certify` design from the motor file and simulate nothing;
    # whatever its bytes, they exit 0-3 with a message and no traceback (an
    # exception escaping main fails the test on its own)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "motor.cfg"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--motor", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")


STOCK_SCENARIO_TEXT = "".join(f"{k} = {v}\n" for k, v in STOCK_SCENARIO.items())
STEP_SCENARIO_TEXT = "".join(f"{k} = {v}\n" for k, v in STEP_SCENARIO.items())


def main_on_scenario_bytes(data, command, out_name):
    """Exit code and stderr of `cli.main` running `command` on a scenario
    file holding `data`, with `--out` a temporary path named `out_name`. The
    tick cap is lowered to the stock file's 200 ticks, so a mutation that
    asks for more is refused before any work."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "MAX_TICKS", 200)
        path = Path(tmp) / "scenario.cfg"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), "--out", str(Path(tmp) / out_name)])
    return code, err.getvalue()


@given(data=mutated_stock_scenario())
@example(data=STOCK_SCENARIO_TEXT.encode())
@example(data=STEP_SCENARIO_TEXT.encode())
@example(data=STOCK_SCENARIO_TEXT.replace("= 0.003", "= 1e200").encode())
@settings(max_examples=60, deadline=None)
def test_fuzzed_scenario_file_exits_with_a_documented_code(data):
    # `run` on mutated scenario bytes exits 0-3 with a message and no
    # traceback
    code, err = main_on_scenario_bytes(data, "run", "out")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")


@given(data=mutated_stock_scenario())
@example(data=STOCK_SCENARIO_TEXT.encode())
@example(data=STOCK_SCENARIO_TEXT.replace("noise_std = 0.0", "noise_std = 1e100").encode())
@settings(max_examples=60, deadline=None)
def test_fuzzed_scenario_file_under_compare_exits_with_a_documented_code(data):
    # `compare` runs the scenario under maps/imm and fixed:0/kf:0 and
    # writes their table; on mutated bytes it exits 0-3 with a message and
    # no traceback
    code, err = main_on_scenario_bytes(data, "compare", "cmp.csv")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")


# argv pieces for the argument fuzz: every subcommand and flag, hostile
# values, and paths relative to the example's working directory (a stock
# scenario of 50 ticks, the stock motor, an ident CSV, a file that is not
# UTF-8, a missing file and a directory)
SUBCOMMANDS = ("ident", "gains", "certify", "run", "compare", "", "bogus")


def subcommand_flags() -> dict:
    """Each subcommand's options, read from the parser, less -h/--help."""
    (sub,) = (action for action in cli._build_parser()._actions
              if isinstance(action, argparse._SubParsersAction))
    return {name: tuple(flag for action in parser._actions for flag in action.option_strings
                        if flag not in ("-h", "--help"))
            for name, parser in sub.choices.items()}


OWN_FLAGS = subcommand_flags()
# every option, then the top-level ones and two unknown flags
FLAGS = tuple(dict.fromkeys([*(flag for flags in OWN_FLAGS.values() for flag in flags),
                             "--help", "--version", "--bogus", "--epsilon"]))
HOSTILE = ("nan", "inf", "-inf", "-0.1", "", "0", "1e-5", "9" * 400, "-" + "9" * 400)
PATHS = ("scenario.cfg", "motor.cfg", "samples.csv", "binary.dat", "missing.cfg", "subdir", ".",
         "out")
VARIANTS = ("a=maps/imm", "b=fixed:1/kf:1", "c=open/kf:0", "d=fixed:" + "9" * 400 + "/imm",
            "e=kf:0/maps", "bad", "=/")
FLAG_VALUES = {"--epsilon": HOSTILE, "--variant": VARIANTS}
ARG_SCENARIO = {**STOCK_SCENARIO, "duration": 0.1}


@st.composite
def cli_argv(draw):
    """A subcommand, maybe a positional, then up to three flags, mostly the
    subcommand's own. Each value is drawn half the time from its flag's kind
    (paths by default), else from any hostile value, path or variant."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    anything = st.sampled_from((*HOSTILE, *PATHS, *VARIANTS))
    argv = [command]
    # a positional mostly where the subcommand takes one
    if draw(st.integers(0, 3)) < (3 if command in ("ident", "run", "compare") else 1):
        argv.append(draw(st.one_of(st.sampled_from(PATHS), anything)))
    own = OWN_FLAGS.get(command, FLAGS)
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(own if draw(st.integers(0, 3)) else FLAGS))
        argv.append(flag)
        if draw(st.integers(0, 4)):
            argv.append(draw(st.one_of(st.sampled_from(FLAG_VALUES.get(flag, PATHS)), anything)))
    return argv


@given(argv=cli_argv())
@example(argv=["run", "scenario.cfg"])
@example(argv=["compare", "scenario.cfg", "--variant", "a=maps/imm", "--out", "out"])
@example(argv=["gains", "--motor", "subdir", "--json", "out"])
@example(argv=["ident", "binary.dat"])
@example(argv=["certify", "--epsilon", "9" * 400])
@settings(max_examples=50, deadline=None)
def test_fuzzed_arguments_exit_with_a_documented_code(ident_csv, argv):
    # whatever the arguments, `maps` returns or exits with 0-3 and raises
    # nothing else (an exception escaping main fails the test on its own).
    # Each example runs in a fresh directory, where `run` writes `runout/`
    # by default; the tick cap is lowered to 200, so a run of more ticks
    # (the stock 30 s scenario under a motor file) is refused before any work
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setattr(harness, "MAX_TICKS", 200)
        Path("scenario.cfg").write_text("".join(f"{k} = {v}\n" for k, v in ARG_SCENARIO.items()))
        Path("motor.cfg").write_text(STOCK_MOTOR)
        Path("samples.csv").write_bytes(ident_csv.read_bytes())
        Path("binary.dat").write_bytes(b"\xff\xfe\x00\x01")
        Path("subdir").mkdir()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code, usage = exc.code, True
            else:
                usage = False
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code and not usage:
        assert err.getvalue().startswith("error: ")
