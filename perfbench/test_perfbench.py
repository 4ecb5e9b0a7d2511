"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9];
    # c [8, 12] overlaps b and runs past the root, so only [9, 10] is new
    spans = [
        ("root", 0.0, 10.0, -1, "main", None),
        ("a", 1.0, 4.0, 0, "main", None),
        ("a1", 2.0, 3.0, 1, "main", None),
        ("b", 5.0, 9.0, 0, "main", None),
        ("c", 8.0, 12.0, 0, "main", None),
    ]
    assert tracing.self_times(spans) == [10.0 - 3.0 - 4.0 - 1.0, 2.0, 1.0, 4.0, 4.0]
    table = tracing.summarize(spans[:4], "main")
    # without the overlapping span, self times add up to the root's duration
    assert sum(row["self"] for row in table.values()) == 10.0
    assert tracing.summarize(spans, "setup") == {}


def test_spans_round_trip_through_the_file(tmp_path):
    tracer = tracing.Tracer()
    square = tracer.wrap(lambda x: x * x, "square")
    outer = tracer.wrap(lambda x: square(x) + 1, "outer")
    assert outer(3) == 10
    tracer.write(tmp_path / "spans.tsv")
    spans = tracing.read_spans(tmp_path / "spans.tsv")
    assert [(s[0], s[3], s[4]) for s in spans] == [("outer", -1, "setup"), ("square", 0, "setup")]
    assert spans == tracer.spans


def _targets():
    found = {}
    for module_name, attr in tracing.TARGETS:
        resolved = tracing._resolve(module_name, attr)
        assert resolved is not None, f"{module_name}.{attr} is missing"
        owner, last = resolved
        found[(module_name, attr)] = (owner, last, getattr(owner, last))
    return found


def test_untraced_worker_installs_no_wrappers(tmp_path, monkeypatch):
    originals = _targets()

    def refuse(self, targets=tracing.TARGETS):
        raise AssertionError("the untraced mode installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    assert worker.main(["--workload", "design_grid", "--seed", "1", "--out", str(tmp_path),
                        "--spawned", repr(time.monotonic()), "--trace", "0",
                        "--phase", "setup"]) == 0
    for owner, last, original in originals.values():
        assert getattr(owner, last) is original


def test_tracer_wraps_every_target_and_restores_it():
    originals = _targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, last, original in originals.values():
            assert getattr(owner, last).__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, last, original in originals.values():
        assert getattr(owner, last) is original


def test_missing_target_reads_as_zero_calls():
    tracer = tracing.Tracer()
    tracer.install([("mapsched.harness", "run_batch"), ("mapsched.nowhere", "f")])
    assert tracer._saved == [] and tracer.spans == []


def test_friction_schedule_matches_the_package():
    from mapsched.harness import load_window_schedule, toggle_schedule

    sine = workloads.sine_scenario(1)
    sweep = workloads.sweep_scenarios(1)[0][2]
    window = load_window_schedule(sine["b_min"], sine["b_max"], start=sine["load_start"],
                                  end=sine["load_end"])
    toggle = toggle_schedule(sweep["b_min"], sweep["b_max"], first=sweep["toggle_start"],
                             period=sweep["toggle_period"], duration=sweep["duration"])
    for k in range(0, 4000, 7):
        t = k * 0.002
        b, coulomb_on = window.at(t)
        assert workloads.friction_at(sine, t) == (b, sine["tau_c"] if coulomb_on else 0.0)
        assert workloads.friction_at(sweep, t)[0] == toggle.at(t)[0]


def test_reference_replays_its_own_trajectory_exactly():
    motor = workloads.MOTOR
    c = reference.motor_constants(motor)
    friction = [(motor["b_min"], 0.0)] * 5 + [(motor["b_max"], motor["tau_c"])] * 5
    u = [3.0 * math.sin(k) for k in range(10)]
    state, theta = (0.0, 0.0, 0.0), []
    for k in range(10):
        theta.append(state[0])
        state = reference.rk4_tick(state, u[k], 0.002, c, *friction[k], substeps=400)
    assert reference.replay_gap(theta, u, friction, 0.002, motor) == 0.0
    theta[7] += 1e-3
    assert reference.replay_gap(theta, u, friction, 0.002, motor) == pytest.approx(1e-3)


def _run_bench(cwd: Path, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_friction_switch",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(m["better"] in ("lower", "higher") for m in declared[kind])
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
