import contextlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from mapsched import cli, control, harness
from mapsched.config import MOTOR_DEFAULTS

CLI = [sys.executable, "-m", "mapsched"]


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, env=full_env, timeout=300
    )


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


def test_ident_prints_slope_and_coefficient(ident_csv):
    out = run_cli("ident", str(ident_csv))
    assert out.returncode == 0
    assert "slope mu" in out.stdout
    assert "viscous coeff b" in out.stdout
    assert "residual rms" in out.stdout


def test_gains_reports_stable_loops():
    out = run_cli("gains")
    assert out.returncode == 0
    assert "vertex 1" in out.stdout and "vertex 2" in out.stdout
    assert "closed-loop |eig|" in out.stdout


def test_gains_json_export(tmp_path):
    target = tmp_path / "gains.json"
    out = run_cli("gains", "--json", str(target))
    assert out.returncode == 0
    payload = json.loads(target.read_text())
    assert len(payload["vertices"]) == 2


def test_certify_success_exit_zero():
    out = run_cli("certify")
    assert out.returncode == 0
    assert "certified: yes" in out.stdout
    assert "eps_star" in out.stdout


def test_certify_failure_exit_three():
    # an epsilon far beyond the certified budget is a certification failure
    out = run_cli("certify", "--epsilon", "1.0")
    assert out.returncode == 3
    assert "certification failed" in out.stderr


def test_invalid_config_exit_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("controler = maps\n")
    out = run_cli("run", str(bad))
    assert out.returncode == 1
    assert "invalid config" in out.stderr


def test_missing_file_exit_one(tmp_path):
    out = run_cli("run", str(tmp_path / "nope.cfg"))
    assert out.returncode == 1


def test_non_finite_duration_exit_one(tmp_path):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("duration = inf\nfriction = constant\n")
    out = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "invalid config" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("text", [
    "duration = 1e9\n",                                     # 5e11 ticks
    "friction = toggle\ntoggle_period = 1e-9\n",            # 3e10 segments
    "substeps = 1000000000\n",                              # not a scenario key
], ids=["ticks", "toggle_segments", "substeps"])
def test_oversized_work_exit_one(tmp_path, text):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    out = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "invalid config" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exit_two(tmp_path):
    # forward Euler with a microsecond electrical constant at a 2 ms tick is
    # far outside the well-conditioned regime: the Riccati residual misses
    # its bound
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text("lm = 1e-6\n")
    out = run_cli("gains", "--motor", str(cfg))
    assert out.returncode == 2
    assert "numerical failure" in out.stderr


@pytest.mark.parametrize("discretization, code", [("zoh", 1), ("euler", 2)])
@pytest.mark.parametrize("command", ["gains", "certify"])
def test_non_finite_design_exits_with_its_code(tmp_path, command, discretization, code):
    # lm = 1e-150 puts the electrical pole out of float range: under ZOH the
    # matrix exponential is NaN, which the vertex set refuses (exit 1);
    # under Euler Phi is finite (~1.7e151) and the Riccati solve fails (exit
    # 2). Neither lets a floating-point warning escape.
    cfg = tmp_path / "motor.cfg"
    cfg.write_text(f"lm = 1e-150\ndiscretization = {discretization}\n")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert cli.main([command, "--motor", str(cfg)]) == code
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert f"the {discretization} discrete model at T = 0.002 s is not finite" in err.getvalue()


def test_each_riccati_equation_is_solved_once(monkeypatch, motor):
    # `maps gains` reports the Riccati solutions of the design it prints,
    # so it makes as many scipy solves as design_from_motor: one per vertex
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_discrete_are(*args, **kwargs)

    monkeypatch.setattr(control, "solve_discrete_are", counted)
    n_vertices = len(motor.vertex_rho)
    harness.design_from_motor(motor)
    assert len(calls) == n_vertices
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gains"]) == 0
    assert len(calls) == n_vertices


def test_run_writes_outputs(tmp_path, scenario_cfg):
    out_dir = tmp_path / "out"
    out = run_cli("run", str(scenario_cfg), "--out", str(out_dir))
    assert out.returncode == 0
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "plot.csv").exists()
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["seed"] == 9
    assert "rmse" in metrics


def test_run_byte_identical_reruns(tmp_path, scenario_cfg):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("run", str(scenario_cfg), "--out", str(d1)).returncode == 0
    assert run_cli("run", str(scenario_cfg), "--out", str(d2)).returncode == 0
    assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()


def test_maps_seed_env_override(tmp_path, scenario_cfg):
    d1 = tmp_path / "seeded"
    out = run_cli("run", str(scenario_cfg), "--out", str(d1), env={"MAPS_SEED": "123"})
    assert out.returncode == 0
    metrics = json.loads((d1 / "metrics.json").read_text())
    assert metrics["seed"] == 123


@pytest.mark.parametrize("text,env", [
    ("seed = -1\n", None),
    ("", {"MAPS_SEED": "-1"}),
], ids=["file", "env"])
def test_negative_seed_exit_one(tmp_path, text, env):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("duration = 0.1\n" + text)
    out = run_cli("run", str(cfg), "--out", str(tmp_path / "out"), env=env)
    assert out.returncode == 1
    assert "invalid config" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "process_noise_std = -1\n",
    "meas_noise_std = -0.5\n",
], ids=["process", "meas"])
def test_negative_noise_exit_one(tmp_path, text):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text("duration = 0.1\n" + text)
    out = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert "invalid config" in out.stderr and "noise_std" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_diverged_estimate_exit_two(tmp_path):
    # a 1e100 N*m torque disturbance drives the estimate past what float64
    # resolves against R; the filter's inputs stay finite to the end
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("duration = 0.4\ndiscretization = zoh\nprocess_noise_std = 1e100\n")
    out = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
    assert out.returncode == 2
    assert out.stderr.startswith("error: numerical failure: the estimate diverged")
    assert "Traceback" not in out.stderr


def test_compare_default_variants(scenario_cfg, tmp_path):
    out_csv = tmp_path / "cmp.csv"
    out = run_cli("compare", str(scenario_cfg), "--out", str(out_csv))
    assert out.returncode == 0
    assert "maps" in out.stdout and "fixed" in out.stdout
    assert out_csv.exists()


def test_compare_custom_variants(scenario_cfg):
    out = run_cli(
        "compare", str(scenario_cfg),
        "--variant", "a=maps/imm", "--variant", "b=fixed:1/kf:1",
    )
    assert out.returncode == 0
    assert "a" in out.stdout and "b" in out.stdout


STOCK_MOTOR = "".join(f"{k} = {v}\n" for k, v in MOTOR_DEFAULTS.items())


# every scenario key, at its default but for a 0.4 s run (200 ticks at the
# stock 500 Hz) with a load window, and the design the gates use
STOCK_SCENARIO = {
    "reference": "sine", "amplitude": 2.0, "frequency": 0.5, "period": 10.0,
    "duration": 0.4, "sample_rate": 500.0, "seed": 1, "controller": "maps",
    "estimator": "imm", "v_limit": 4.0, "friction": "window", "load_start": 0.1,
    "load_end": 0.3, "toggle_start": 0.3, "toggle_period": 5.0, "ramp_time": 0.0,
    "process_noise_std": 0.0, "meas_noise_std": 0.003, "discretization": "zoh",
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
    """The stock scenario file, mutated by `mutate_file`."""
    return mutate_file(draw, STOCK_SCENARIO, SCENARIO_WORDS)


@pytest.mark.parametrize("command", ["gains", "certify"])
@given(data=st.one_of(st.binary(max_size=300), mutated_stock_motor()))
@example(data=STOCK_MOTOR.encode())
@example(data=b"\xff\xfe")
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


def main_on_scenario_bytes(data, command, out_name):
    """Exit code and stderr of `cli.main` running `command` on a scenario
    file holding `data`, with `--out` a temporary path named `out_name`. The
    tick cap is lowered to the stock file's 200 ticks, so a mutation that
    asks for more is refused before any work."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "MAX_TICKS", 200)
        mp.delenv("MAPS_SEED", raising=False)
        path = Path(tmp) / "scenario.cfg"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), "--out", str(Path(tmp) / out_name)])
    return code, err.getvalue()


@given(data=mutated_stock_scenario())
@example(data=STOCK_SCENARIO_TEXT.encode())
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
