import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    closed_loop_by_tick,
    delta_percent,
    friction_at,
    friction_by_scan,
    reference_state,
    write_run_csvs_repr,
)

from mapsched import cli, harness
from mapsched.cli import write_metrics_json, write_run_csvs
from mapsched.errors import ConfigError, ParameterError
from mapsched.estimation import (
    FILTER_Q,
    FILTER_R,
    FilterBank,
    default_transition_matrix,
    imm_step,
    initial_belief,
    kf_predict,
    kf_update,
)
from mapsched.harness import (
    Controller,
    FrictionSchedule,
    FrictionSegment,
    RunRecord,
    ScenarioSpec,
    compare_runs,
    compute_metrics,
    constant_schedule,
    load_scenario,
    load_window_schedule,
    run_scenario,
    scenario_from_entries,
    toggle_schedule,
)

B_MIN, B_MAX = 2.46e-6, 1.63e-4


def short_spec(**kw):
    base = dict(
        reference="sine", amplitude=2.0, frequency=0.5, duration=2.0,
        sample_time=0.002, friction=constant_schedule(B_MIN), seed=3,
        controller="maps", estimator="imm",
    )
    base.update(kw)
    return ScenarioSpec(**base)


def synthetic_record(errors, T=0.002):
    """RunRecord whose tracking error series is exactly `errors`."""
    n = len(errors)
    spec = short_spec(duration=n * T)
    ref = np.zeros((n, 3))
    truth = np.zeros((n, 3))
    truth[:, 0] = -np.asarray(errors)
    return RunRecord(
        spec=spec,
        time=np.arange(n) * T,
        z=truth[:, 0].copy(),
        truth=truth,
        estimate=truth.copy(),
        mu=np.full((n, 2), 0.5),
        rho_hat=np.full(n, B_MIN),
        gain=np.zeros((n, 3)),
        u=np.zeros(n),
        reference=ref,
        b_true=np.full(n, B_MIN),
        saturation_count=0,
    )


class TestFrictionSchedule:
    def test_segments_must_be_sorted(self):
        with pytest.raises(ParameterError):
            FrictionSchedule(
                segments=(FrictionSegment(1.0, B_MIN, False), FrictionSegment(0.5, B_MAX, True))
            )

    def test_step_lookup(self):
        sched = load_window_schedule(B_MIN, B_MAX, start=10.0, end=20.0)
        assert sched.at(0.0) == (B_MIN, False)
        assert sched.at(10.0) == (B_MAX, True)
        assert sched.at(19.999) == (B_MAX, True)
        assert sched.at(20.0) == (B_MIN, False)

    @pytest.mark.parametrize("ramp_time", [0.0, 0.25])
    def test_window_from_zero_holds_from_the_first_tick(self, ramp_time):
        sched = load_window_schedule(B_MIN, B_MAX, 0.0, 1.0, ramp_time=ramp_time)
        assert sched.at(0.0) == (B_MAX, True)
        assert sched.at(0.999) == (B_MAX, True)
        assert sched.at(1.0 + ramp_time) == (B_MIN, False)
        times = np.arange(0, 1000) * 0.002
        values, coulomb = sched.at_times(times)
        scan = [friction_at(sched, float(t)) for t in times]
        assert values.tobytes() == np.array([b for b, _ in scan]).tobytes()
        assert coulomb.tolist() == [c for _, c in scan]

    def test_ramp_interpolation(self):
        sched = load_window_schedule(B_MIN, B_MAX, start=10.0, end=20.0, ramp_time=1.0)
        b_mid, _ = sched.at(10.5)
        assert b_mid == pytest.approx(0.5 * (B_MIN + B_MAX))
        assert sched.at(11.0)[0] == B_MAX

    def test_ramps_exactly_when_ramp_time_is_positive(self):
        assert load_window_schedule(B_MIN, B_MAX, start=10.0, end=20.0).at(10.5) == (B_MAX, True)
        for bad in (-1.0, -5e-324, math.nan):
            with pytest.raises(ParameterError, match="ramp_time must be a number >= 0"):
                load_window_schedule(B_MIN, B_MAX, start=10.0, end=20.0, ramp_time=bad)

    def test_toggle_layout(self):
        sched = toggle_schedule(B_MIN, B_MAX, first=0.3, period=5.0, duration=30.0)
        assert sched.at(0.0) == (B_MIN, False)
        assert sched.at(0.3)[0] == B_MAX
        assert sched.at(5.29)[0] == B_MAX
        assert sched.at(5.3)[0] == B_MIN
        assert sched.at(10.3)[0] == B_MAX

    def test_range_validation(self):
        sched = constant_schedule(100.0)
        with pytest.raises(ParameterError):
            sched.validate_range(B_MAX)

    def test_bisected_lookup_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        n = 12_000
        starts = np.cumsum(rng.uniform(1e-4, 3e-3, n)) + 0.5
        segs = tuple(FrictionSegment(float(t), float(b), bool(c)) for t, b, c in
                     zip(starts, rng.uniform(0.0, B_MAX, n), rng.integers(0, 2, n)))
        gaps = np.diff(starts)
        times = sorted(float(t) for t in (
            *starts,                            # every segment start
            *(starts[:-1] + 0.5 * gaps),        # between starts
            *(starts[:-1] + 0.999 * gaps),
            starts[-1] + 1.0,                   # past the last start
            -1.0, 0.0, 0.25, 0.5 * starts[0],   # before the first start
        ))
        step = FrictionSchedule(segments=segs)
        # a ramp longer than some gaps and shorter than others
        ramp = FrictionSchedule(segments=segs, ramp_time=1.5e-3)
        for sched in (step, ramp):
            scan = friction_by_scan(sched, times)
            assert [friction_at(sched, t) for t in times] == scan
            assert [sched.at(t) for t in times] == scan
            # the per-run lookup of run_scenario: the same values, bit for bit
            values, coulomb = sched.at_times(np.array(times))
            assert values.tobytes() == np.array([b for b, _ in scan]).tobytes()
            assert coulomb.tolist() == [c for _, c in scan]

    def test_max_rho_step_for_slow_variation_bound(self):
        def max_rho_step(schedule, tick, duration):
            b = [schedule.at(k * tick)[0] for k in range(int(round(duration / tick)))]
            return max(abs(y - x) for x, y in zip(b, b[1:]))

        step = toggle_schedule(B_MIN, B_MAX, first=0.3, period=5.0, duration=2.0)
        assert max_rho_step(step, 0.002, 2.0) == pytest.approx(B_MAX - B_MIN)
        ramped = load_window_schedule(B_MIN, B_MAX, start=0.5, end=1.5, ramp_time=0.5)
        # the ramp spreads the change over 250 ticks
        assert max_rho_step(ramped, 0.002, 2.0) == pytest.approx(
            (B_MAX - B_MIN) * 0.002 / 0.5, rel=1e-6
        )


class TestReferenceSignals:
    def test_step_levels_and_zero_rate(self):
        spec = short_spec(reference="step", amplitude=2.0, period=10.0, duration=20.0)
        assert np.allclose(spec.reference_state(0.0), [2.0, 0.0, 0.0])
        assert np.allclose(spec.reference_state(4.999), [2.0, 0.0, 0.0])
        assert np.allclose(spec.reference_state(5.0), [-2.0, 0.0, 0.0])
        assert np.allclose(spec.reference_state(10.0), [2.0, 0.0, 0.0])

    def test_sine_analytic_derivative(self):
        spec = short_spec(reference="sine", amplitude=1.5, frequency=0.5)
        w = 2.0 * np.pi * 0.5
        t = 0.37
        ref = spec.reference_state(t)
        assert ref[0] == pytest.approx(1.5 * np.sin(w * t))
        assert ref[1] == pytest.approx(1.5 * w * np.cos(w * t))
        assert ref[2] == 0.0

    @pytest.mark.parametrize("reference", ["sine", "step"])
    def test_per_run_reference_matches_reference_state_bitwise(self, reference):
        # run_scenario forms the reference of every tick up front; each row
        # must be the bits reference_state gives at that tick's time
        spec = short_spec(reference=reference, amplitude=1.7, frequency=0.7, period=0.8,
                          duration=200.0)
        half = 0.5 / spec.frequency if reference == "sine" else 0.5 * spec.period
        # a whole long run's times and exact multiples of half a period, both
        # from t = 0, and the last tick of a run of MAX_TICKS ticks
        times = np.concatenate((
            np.arange(spec.n_ticks) * spec.sample_time,
            np.arange(200) * half,
            [(harness.MAX_TICKS - 1) * spec.sample_time],
        ))
        rows = spec.reference_states(times)
        assert rows.shape == (times.size, 3)
        expected = np.array([reference_state(spec, t) for t in times.tolist()])
        assert rows.tobytes() == expected.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            short_spec(duration=-1.0)
        with pytest.raises(ConfigError):
            short_spec(controller="pid")
        with pytest.raises(ConfigError):
            short_spec(estimator="ekf")
        with pytest.raises(ConfigError):
            short_spec(amplitude=0.0)
        with pytest.raises(ConfigError):
            short_spec(seed=-1)
        with pytest.raises(ConfigError):
            # an infinite tick: no tick fits in the run
            short_spec(sample_time=math.inf)
        with pytest.raises(ConfigError):
            # under half a tick at 500 Hz rounds to an empty run
            short_spec(duration=0.001, sample_time=0.002)
        for kw in (dict(frequency=1e308), dict(amplitude=100.0, frequency=1e307),
                   dict(frequency=1e307, duration=30.0)):
            # the rate 2 pi f, the peak A 2 pi f or the phase 2 pi f t overflows
            with pytest.raises(ConfigError, match="rate or phase past float range"):
                short_spec(**kw)
        # short of overflow the spec stands and its reference stays finite
        edge = short_spec(amplitude=20.0, frequency=1e306)
        assert all(map(math.isfinite, edge.reference_state(edge.duration - edge.sample_time)))
        for key in ("process_noise_std", "meas_noise_std"):
            for std in (-0.5, -5e-324, float("inf"), float("nan")):
                with pytest.raises(ConfigError, match=key):
                    short_spec(**{key: std})
            assert getattr(short_spec(**{key: 0.0}), key) == 0.0

    def test_spec_is_made_for_its_motor(self):
        # the tick and the friction are a motor's: no stock motor's value
        # stands in for either
        with pytest.raises(TypeError, match="missing 2 required keyword-only arguments: "
                                            "'sample_time' and 'friction'"):
            ScenarioSpec(duration=1.0)
        with pytest.raises(TypeError, match="missing 1 required keyword-only argument: "
                                            "'friction'"):
            ScenarioSpec(sample_time=0.002)

    @pytest.mark.parametrize("kw", [dict(estimator="kf:2"), dict(controller="fixed:-1")],
                             ids=["kf:2", "fixed:-1"])
    def test_spec_refuses_a_vertex_other_than_0_or_1(self, kw):
        # kf:<i> and fixed:<i> name a vertex of the two-vertex design, b_min
        # or b_max; another index is refused when the spec is made
        with pytest.raises(ConfigError, match="index must be vertex 0 or 1"):
            short_spec(**kw)


class TestRunScenario:
    def test_zero_everything_stays_zero(self, motor_zoh, vertices_zoh):
        # no measurement noise, vanishing reference, zero initial state:
        # the whole loop sits at the rest equilibrium
        spec = short_spec(duration=0.5, meas_noise_std=0.0, amplitude=1e-12)
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        assert np.max(np.abs(rec.truth)) < 1e-9
        assert np.max(np.abs(rec.u)) < 1e-9

    def test_saturation_respected(self, motor_zoh, vertices_zoh):
        spec = short_spec(reference="step", amplitude=3.0, period=4.0, duration=1.0)
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        assert np.max(np.abs(rec.u)) <= spec.v_limit + 1e-15
        assert rec.saturation_count > 0

    def test_deterministic_same_seed(self, motor_zoh, vertices_zoh):
        spec = short_spec(duration=1.0)
        a = run_scenario(spec, motor_zoh, vertices_zoh)
        b = run_scenario(spec, motor_zoh, vertices_zoh)
        for field in ("time", "z", "truth", "estimate", "mu", "rho_hat", "gain", "u"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_different_seed_differs(self, motor_zoh, vertices_zoh):
        spec = short_spec(duration=1.0)
        a = run_scenario(spec, motor_zoh, vertices_zoh)
        b = run_scenario(dataclasses.replace(spec, seed=999), motor_zoh, vertices_zoh)
        assert not np.array_equal(a.z, b.z)

    def test_vertex_set_without_gains_rejected(self, motor_zoh, vertices_zoh):
        bare = dataclasses.replace(vertices_zoh, K_vertices=None)
        with pytest.raises(ParameterError, match="gains have not been synthesized"):
            run_scenario(short_spec(duration=0.1), motor_zoh, bare)

    def test_tick_mismatch_rejected(self, motor_zoh, vertices_zoh):
        spec = short_spec(sample_time=0.01)
        with pytest.raises(ConfigError):
            run_scenario(spec, motor_zoh, vertices_zoh)

    def test_run_ticks_at_the_design_sample_time(self, motor_zoh):
        # 1 / (1 / 0.00072) is not 0.00072: the run's tick is the motor's
        # sample_time itself, the T its design was made at
        motor = dataclasses.replace(motor_zoh, sample_time=0.00072)
        assert 1.0 / (1.0 / motor.sample_time) != motor.sample_time
        spec = scenario_from_entries({"duration": "0.05"}, motor)
        design = harness.design_from_motor(motor)
        rec = run_scenario(spec, motor, design)
        assert spec.sample_time == design.T == 0.00072
        assert rec.time.tobytes() == (np.arange(spec.n_ticks) * 0.00072).tobytes()

    def test_kf_variant_mu_one_hot(self, motor_zoh, vertices_zoh):
        spec = short_spec(duration=0.2, estimator="kf:1", controller="fixed:1")
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        assert np.all(rec.mu[:, 1] == 1.0)
        assert np.all(rec.rho_hat == vertices_zoh.rho[1])

    def test_open_loop_applies_reference_volts(self, motor_zoh, vertices_zoh):
        spec = short_spec(duration=0.2, controller="open", amplitude=1.5)
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        assert np.allclose(rec.u, rec.reference[:, 0], atol=1e-15)
        assert np.all(rec.gain == 0.0)


_RUN_KERNEL_CHILD = """
import dataclasses, hashlib, json, sys
from mapsched.config import load_motor_config
from mapsched.harness import ScenarioSpec, load_window_schedule, run_scenario
from mapsched.motor import VertexSet
data = json.load(sys.stdin)
floats = lambda rows: [[float.fromhex(v) for v in row] for row in rows]
vertices = VertexSet(rho=[float.fromhex(r) for r in data["rho"]],
                     Phi_vertices=[floats(phi) for phi in data["phis"]],
                     Gamma=floats(data["Gamma"]), T=float.fromhex(data["T"]), mode="zoh",
                     K_vertices=[floats(K) for K in data["gains"]])
motor = dataclasses.replace(load_motor_config(), discretization="zoh")
spec = ScenarioSpec(duration=6.0, seed=4, sample_time=motor.sample_time,
                    friction=load_window_schedule(motor.b_min, motor.b_max, start=2.0, end=4.0))
rec = run_scenario(spec, motor, vertices)
digest = hashlib.sha256()
for array in (rec.truth, rec.estimate, rec.mu, rec.u):
    digest.update(array.tobytes())
print(digest.hexdigest())
"""


def test_run_bits_depend_on_the_blas_kernel_only_through_the_design(vertices_zoh):
    # the truth plant, the two-mode IMM cycle and the control law make no
    # BLAS call, so a run handed one design's floats gives the same bits
    # under the kernel OpenBLAS picks for the CPU, Haswell's and
    # Sandybridge's: the truth, estimate, mode probabilities and voltage of
    # a 6 s sine run with a 2-4 s load window hash alike. The design's
    # Riccati solve rounds per kernel (its ZOH vertex arrays do not), so the
    # children are handed this process's stock ZOH design rather than
    # designing their own
    hexed = lambda a: [[float.hex(v) for v in row] for row in np.asarray(a).tolist()]
    data = json.dumps({
        "rho": [float.hex(r) for r in vertices_zoh.rho],
        "phis": [hexed(phi) for phi in vertices_zoh.Phi_vertices],
        "Gamma": hexed(vertices_zoh.Gamma),
        "gains": [hexed(K) for K in vertices_zoh.gains],
        "T": float.hex(vertices_zoh.T),
    })
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    digests = {}
    for kernel in ("", "Haswell", "Sandybridge"):
        done = subprocess.run([sys.executable, "-c", _RUN_KERNEL_CHILD], input=data,
                              env={**env, **({"OPENBLAS_CORETYPE": kernel} if kernel else {})},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests[kernel or "default"] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests


def friction_switch_run(motor, vertices, estimator):
    """2 s of the friction-switch scenario: b_min -> b_max at 0.3 s, a
    0.25 rad step reference with a 2 s period, fixed vertex-0 gain."""
    spec = short_spec(
        reference="step", amplitude=0.25, period=2.0, duration=2.0, seed=7,
        friction=toggle_schedule(B_MIN, B_MAX, first=0.3, period=5.0, duration=2.0),
        controller="fixed:0", estimator=estimator,
    )
    return run_scenario(spec, motor, vertices)


class TestRunPathEstimators:
    @pytest.mark.parametrize("index", [0, 1])
    def test_kf_matches_single_filter_loop(self, motor_zoh, vertices_zoh, index):
        # the one-mode bank of the run loop is the plain Kalman filter
        rec = friction_switch_run(motor_zoh, vertices_zoh, f"kf:{index}")
        phi, Gamma = vertices_zoh.Phi_vertices[index], vertices_zoh.Gamma
        (x, P), u_prev, worst = initial_belief(), 0.0, 0.0
        for k in range(rec.time.size):
            x, P = kf_predict(x, P, phi, Gamma, u_prev, FILTER_Q)
            x, P, _, _ = kf_update(x, P, rec.z[k], FILTER_R)
            worst = max(worst, float(np.max(np.abs(rec.estimate[k] - x))))
            u_prev = rec.u[k]
        assert worst <= 1e-12

    def test_imm_matches_imm_step_loop(self, motor_zoh, vertices_zoh):
        # the run loop is a loop of imm_step calls
        rec = friction_switch_run(motor_zoh, vertices_zoh, "imm")
        bank = FilterBank(vertices_zoh.Phi_vertices, vertices_zoh.Gamma,
                          default_transition_matrix(2), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        u_prev = 0.0
        for k in range(rec.time.size):
            means, covs, mu, _, fused = imm_step(bank, means, covs, mu, u_prev, rec.z[k])
            assert rec.estimate[k].tolist() == list(fused)
            assert rec.mu[k].tolist() == mu
            rho_hat = 0.0
            for m, r in zip(mu, vertices_zoh.rho):
                rho_hat += m * r
            assert rec.rho_hat[k] == rho_hat
            u_prev = rec.u[k]

    @pytest.mark.parametrize("kw", [
        dict(friction=load_window_schedule(B_MIN, B_MAX, start=0.6, end=1.4, ramp_time=0.3)),
        dict(reference="step", amplitude=3.0, period=1.0, controller="fixed:1",
             estimator="kf:1", friction=FrictionSchedule(tuple(
                 dataclasses.replace(s, coulomb_on=s.b == B_MAX) for s in toggle_schedule(
                     B_MIN, B_MAX, first=0.3, period=0.4, duration=2.0).segments))),
        dict(controller="open", estimator="kf:0", amplitude=1.0, process_noise_std=2e-3),
        dict(duration=617 / 500.0, process_noise_std=1e-4, meas_noise_std=1e-2,
             friction=load_window_schedule(B_MIN, B_MAX, start=0.3, end=0.9)),
        dict(estimator="kf:1", friction=toggle_schedule(B_MIN, B_MAX, first=0.3, period=0.5,
                                                        duration=2.0)),
    ], ids=["maps-imm-ramp", "fixed1-kf1-coulomb-toggle", "open-kf0-process-noise",
            "617-ticks", "maps-kf1-toggle"])
    def test_chunked_loop_matches_tick_by_tick_loop(self, motor_zoh, vertices_zoh, kw):
        # chunked noise draws and row stores, the gain of fixed:<i> and open
        # and the weights of kf:<i> formed once, and the one-pass IMM cycle
        # change no bit of the run
        spec = short_spec(**kw)
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        columns, saturations = closed_loop_by_tick(spec, motor_zoh, vertices_zoh)
        for name, column in columns.items():
            got = getattr(rec, name)
            assert got.shape == column.shape, name
            assert got.tobytes() == column.tobytes(), name
        assert rec.saturation_count == saturations
        if spec.controller == "fixed:1":
            assert saturations > 0

    @pytest.mark.parametrize("estimator,reference,friction", [
        ("imm", "step", toggle_schedule(B_MIN, B_MAX, first=0.3, period=0.5, duration=2.0)),
        ("kf:0", "step", toggle_schedule(B_MIN, B_MAX, first=0.3, period=0.5, duration=2.0)),
        ("imm", "sine", load_window_schedule(B_MIN, B_MAX, start=0.5, end=1.5, ramp_time=0.3)),
        ("kf:0", "sine", load_window_schedule(B_MIN, B_MAX, start=0.5, end=1.5, ramp_time=0.3)),
    ], ids=["imm-step", "kf0-step", "imm-sine-ramp", "kf0-sine-ramp"])
    def test_friction_and_reference_formed_per_run(self, monkeypatch, motor_zoh, vertices_zoh,
                                                   estimator, reference, friction):
        # the loop reads friction and reference from arrays formed before it;
        # the one-time forms are for callers and the benchmark's tracer
        def refused(*args, **kwargs):
            raise AssertionError("scalar lookup called by the run")

        monkeypatch.setattr(FrictionSchedule, "at", refused)
        monkeypatch.setattr(ScenarioSpec, "reference_state", refused)
        spec = short_spec(reference=reference, period=1.0, estimator=estimator,
                          friction=friction)
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        assert rec.time.size == spec.n_ticks

    def test_run_peak_memory_near_its_log(self, monkeypatch, motor_zoh, vertices_zoh):
        # the per-run arrays add little to the log the run returns: the
        # traced peak of a 15,000-tick run stays within 1.5x the bytes of
        # its (ticks, 19) float64 log. The traced run replays the
        # estimator's and the plant's results from an untraced first run
        # (they keep no memory across ticks), which makes tracing ~10x faster
        spec = short_spec(duration=30.0, friction=load_window_schedule(
            B_MIN, B_MAX, start=10.0, end=20.0, ramp_time=0.5))
        results = {"imm_step": [], "plant_step": []}
        for name, out in results.items():
            def recorded(*args, _out=out, _call=getattr(harness, name)):
                _out.append(_call(*args))
                return _out[-1]

            monkeypatch.setattr(harness, name, recorded)
        first = run_scenario(spec, motor_zoh, vertices_zoh)
        for name, out in results.items():
            monkeypatch.setattr(harness, name, lambda *args, _next=iter(out).__next__: _next())
        tracemalloc.start()
        try:
            rec = run_scenario(spec, motor_zoh, vertices_zoh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.time.size == 15_000
        assert rec.u.tobytes() == first.u.tobytes()
        log_bytes = spec.n_ticks * 19 * 8
        assert peak <= 1.5 * log_bytes

    def test_asymmetric_process_noise_folded_to_symmetric_part(self, vertices_zoh):
        # the bank's q and r are all the IMM cycle reads of the noise model
        Q = np.diag([1e-6, 1e-6, 1e-6])
        Q[0, 1] = 4e-7
        a, b = (FilterBank(vertices_zoh.Phi_vertices, vertices_zoh.Gamma,
                           default_transition_matrix(2), q, FILTER_R)
                for q in (Q, 0.5 * (Q + Q.T)))
        assert a.q == b.q and a.r == b.r


class TestController:
    @pytest.mark.parametrize("kw", [
        dict(friction=load_window_schedule(B_MIN, B_MAX, start=0.3, end=0.7)),
        dict(reference="step", amplitude=3.0, period=1.0, controller="fixed:1",
             estimator="kf:1"),
        dict(controller="open", estimator="kf:0", amplitude=5.0),
    ], ids=["maps-imm", "fixed1-kf1", "open-kf0"])
    def test_reproduces_a_run_from_its_logged_measurements(self, motor_zoh, vertices_zoh, kw):
        # driven as on hardware: built from the design alone, and fed each
        # tick's measured z, the reference row and the previous tick's u
        spec = short_spec(duration=1.0, process_noise_std=1e-4, **kw)
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        controller = Controller(vertices_zoh, spec.controller, spec.estimator, spec.v_limit)
        rows, u, saturations = [], 0.0, 0
        for z, ref in zip(rec.z.tolist(), rec.reference.tolist()):
            x_hat, weights, K, u, saturated = controller.step(u, z, ref)
            rows.append((*x_hat, *weights, *K, u))
            saturations += saturated
        log = np.array(rows)
        assert log[:, 0:3].tobytes() == rec.estimate.tobytes()
        assert log[:, 3:5].tobytes() == rec.mu.tobytes()
        assert log[:, 5:8].tobytes() == rec.gain.tobytes()
        assert log[:, 8].tobytes() == rec.u.tobytes()
        assert saturations == rec.saturation_count
        if spec.controller != "maps":
            assert saturations > 0

    @pytest.mark.parametrize("controller, estimator", [("maps", "imm"), ("fixed:0", "kf:0")])
    def test_benchmark_spans_fire_once_per_tick(self, monkeypatch, motor_zoh, vertices_zoh,
                                                controller, estimator):
        # the benchmark times the plant, estimator, gain and control-law
        # layers by wrapping these names on harness, so the loop and `step`
        # must look them up there on every call
        calls = dict.fromkeys(("imm_step", "maps_gain", "control_input", "plant_step"), 0)
        for name in calls:
            def counted(*args, _name=name, _call=getattr(harness, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        spec = short_spec(duration=0.1, controller=controller, estimator=estimator)
        run_scenario(spec, motor_zoh, vertices_zoh)
        n = spec.n_ticks
        # a fixed gain is formed once per run
        gains = n if controller == "maps" else 1
        assert calls == {"imm_step": n, "maps_gain": gains, "control_input": n, "plant_step": n}

    @pytest.mark.parametrize("controller, estimator, reason", [
        ("fixed:2", "imm", "controller index must be vertex 0 or 1"),
        ("maps", "ukf", "unknown estimator 'ukf'"),
        ("open:1", "imm", "controller 'open' takes no index"),
    ])
    def test_refuses_a_bad_choice(self, vertices_zoh, controller, estimator, reason):
        with pytest.raises(ConfigError, match=reason):
            Controller(vertices_zoh, controller, estimator, 4.0)


class TestMetrics:
    def test_constant_error(self):
        rec = synthetic_record([0.5] * 10)
        met = compute_metrics(rec)
        assert met.rmse == pytest.approx(0.5)
        assert met.mae == pytest.approx(0.5)
        assert met.iae == pytest.approx(10 * 0.5 * 0.002)
        assert met.iae == pytest.approx(0.01)

    def test_alternating_unit_error(self):
        rec = synthetic_record([1.0, -1.0] * 5)
        met = compute_metrics(rec)
        assert met.rmse == pytest.approx(1.0)
        assert met.mae == pytest.approx(1.0)

    def test_iae_equals_mae_times_duration(self, motor_zoh, vertices_zoh):
        rec = run_scenario(short_spec(duration=1.0), motor_zoh, vertices_zoh)
        met = compute_metrics(rec)
        assert met.iae == pytest.approx(met.mae * rec.spec.duration, rel=1e-9)

    def test_rmse_at_least_mae(self, motor_zoh, vertices_zoh):
        rec = run_scenario(short_spec(duration=1.0), motor_zoh, vertices_zoh)
        met = compute_metrics(rec)
        assert met.rmse >= met.mae

    def test_empty_series_rejected(self):
        rec = synthetic_record([0.5])
        rec.time = np.empty(0)
        with pytest.raises(ParameterError):
            compute_metrics(rec)


class TestCompareRuns:
    def test_identical_variants_zero_delta(self, motor_zoh, vertices_zoh):
        spec = short_spec(duration=1.0)
        cmpr = compare_runs(
            spec, [("a", "maps", "imm"), ("b", "maps", "imm")], motor_zoh, vertices_zoh
        )
        for attr in ("rmse", "mae", "iae"):
            assert delta_percent(cmpr, attr) == pytest.approx(0.0, abs=1e-12)
        text = cli.compare_text(*cli.compare_table(cmpr))
        assert "rmse" in text and "a" in text and "b" in text

    def test_scheduled_gain_beats_wrong_fixed_gain(self, motor_zoh, vertices_zoh):
        # no-load sine: the deliberately mismatched high-friction vertex gain
        # must lose to the probability-scheduled gain on the same seed
        spec = short_spec(duration=4.0)
        cmpr = compare_runs(
            spec,
            [("maps", "maps", "imm"), ("wrong", "fixed:1", "kf:1")],
            motor_zoh,
            vertices_zoh,
        )
        assert np.isfinite(cmpr.metrics[0].iae)
        assert cmpr.metrics[0].iae < cmpr.metrics[1].iae

    def test_csv_export(self, tmp_path, motor_zoh, vertices_zoh):
        spec = short_spec(duration=0.5)
        cmpr = compare_runs(
            spec, [("a", "maps", "imm"), ("b", "fixed:0", "kf:0")], motor_zoh, vertices_zoh
        )
        out = tmp_path / "cmp.csv"
        cli.write_csv(out, *cli.compare_table(cmpr))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "metric,a,b,delta_percent"
        assert len(lines) == 7  # rmse, mae, iae + 3 estimation rows

    def test_holds_one_run_record_at_a_time(self, monkeypatch, motor_zoh, vertices_zoh):
        # a record is ~150 bytes a tick: each run's is freed before the
        # next run starts, and none outlives the comparison's return
        records = []

        def run(*args):
            assert all(ref() is None for ref in records)
            record = run_scenario(*args)
            records.append(weakref.ref(record))
            return record

        monkeypatch.setattr(harness, "run_scenario", run)
        variants = [("a", "maps", "imm"), ("b", "fixed:0", "kf:0"), ("c", "open", "kf:1")]
        cmpr = compare_runs(short_spec(duration=0.2), variants, motor_zoh, vertices_zoh)
        assert len(records) == 3 and all(ref() is None for ref in records)
        assert cmpr.names == ("a", "b", "c") and len(cmpr.metrics) == 3


class TestModeDetection:
    def test_dominant_mode_flips_within_150ms(self, motor_zoh, vertices_zoh):
        sched = toggle_schedule(B_MIN, B_MAX, first=0.3, period=5.0, duration=30.0)
        spec = ScenarioSpec(
            reference="step", amplitude=0.25, period=10.0, duration=1.5,
            sample_time=motor_zoh.sample_time, friction=sched,
            seed=1, controller="fixed:0", estimator="imm",
        )
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        after = (rec.time >= 0.3) & (rec.time <= 0.45)
        dominant = np.argmax(rec.mu, axis=1)
        assert np.any(dominant[after] == 1), "high-friction mode not detected within 0.15 s"


class TestTraceOutputs:
    def test_trace_csv_header_and_rows(self, tmp_path, motor_zoh, vertices_zoh):
        rec = run_scenario(short_spec(duration=0.1), motor_zoh, vertices_zoh)
        path = tmp_path / "trace.csv"
        write_run_csvs(path, None, rec)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "time,z,theta_true,omega_true,current_true,"
            "theta_est,omega_est,current_est,mu_1,mu_2,rho_hat,"
            "k_theta,k_omega,k_current,u,theta_ref,omega_ref,current_ref"
        )
        assert len(lines) == 1 + rec.spec.n_ticks

    def test_plot_csv(self, tmp_path, motor_zoh, vertices_zoh):
        rec = run_scenario(short_spec(duration=0.1), motor_zoh, vertices_zoh)
        path = tmp_path / "plot.csv"
        write_run_csvs(None, path, rec)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("time,theta_ref,theta_true,theta_est,tracking_error,mu_1")
        assert len(lines) == 1 + rec.spec.n_ticks

    def test_metrics_json(self, tmp_path, motor_zoh, vertices_zoh):
        rec = run_scenario(short_spec(duration=0.1), motor_zoh, vertices_zoh)
        met = compute_metrics(rec)
        path = tmp_path / "metrics.json"
        write_metrics_json(path, rec, met)
        payload = json.loads(path.read_text())
        assert payload["seed"] == rec.spec.seed
        assert payload["rmse"] == met.rmse
        assert set(payload["estimation_rmse"]) == {"theta", "omega", "current"}


def csv_module_reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def csv_module_bytes(directory, rec):
    """The trace.csv and plot.csv bytes csv.writer writes for `rec`, one
    repr(float(v)) per cell, built row by row from the record's fields."""
    n = rec.time.size
    trace_header = [
        "time", "z", "theta_true", "omega_true", "current_true",
        "theta_est", "omega_est", "current_est", "mu_1", "mu_2", "rho_hat",
        "k_theta", "k_omega", "k_current", "u", "theta_ref", "omega_ref", "current_ref",
    ]
    trace_rows = [[rec.time[k], rec.z[k], *rec.truth[k], *rec.estimate[k], *rec.mu[k],
                   rec.rho_hat[k], *rec.gain[k], rec.u[k], *rec.reference[k]]
                  for k in range(n)]
    csv_module_reference(directory / "trace_ref.csv", trace_header, trace_rows)
    plot_header = ["time", "theta_ref", "theta_true", "theta_est", "tracking_error",
                   "mu_1", "mu_2", "rho_hat", "b_true", "u"]
    plot_rows = [[rec.time[k], rec.reference[k, 0], rec.truth[k, 0], rec.estimate[k, 0],
                  rec.reference[k, 0] - rec.truth[k, 0], *rec.mu[k], rec.rho_hat[k],
                  rec.b_true[k], rec.u[k]] for k in range(n)]
    csv_module_reference(directory / "plot_ref.csv", plot_header, plot_rows)
    return (directory / "trace_ref.csv").read_bytes(), (directory / "plot_ref.csv").read_bytes()


def test_writers_match_csv_module_bytes(tmp_path, monkeypatch):
    # chunks of 2 rows, so a 5-row record spans three of them
    monkeypatch.setattr(cli, "CSV_CHUNK", 2)
    rec = synthetic_record([0.5, -1e-05, 3.0e-300, -0.0, 123456789.125])
    n = rec.time.size
    rec.estimate = np.array([[1e-05, -2.5, 7.0], [0.1, 0.2, 0.3], [-1e-300, 1e300, 0.0],
                             [5e-324, -5e-324, 2.0 / 3.0], [1.0, -1.0, 1e-05]])
    rec.mu = np.array([[0.25, 0.75], [1.0, 0.0], [1e-05, 1.0 - 1e-05],
                       [0.5, 0.5], [0.0, 1.0]])
    rec.gain = np.arange(3 * n, dtype=float).reshape(n, 3) * -0.1
    rec.u = np.linspace(-4.0, 4.0, n)
    rec.b_true = np.array([5e-324, 1e-05, 1.63e-4, 1e16, 2.46e-6])
    # theta_ref - theta_true is -0.0 - 0.0 = -0.0 in row 3
    rec.reference[:, 0] = [1e-05, 0.1, 1e300, -0.0, 2.0 / 3.0]
    # each end of the range where orjson lays a float out as repr does, the
    # values either side of it, and the values orjson cannot lay out at all
    rec.truth[:, 1:] = [[math.nextafter(1e-4, 0.0), 1e-4],
                        [math.nextafter(1e-4, 1.0), math.nextafter(1e16, 0.0)],
                        [1e16, math.nextafter(1e16, math.inf)],
                        [1e15, math.nan],
                        [math.inf, -math.inf]]
    rec.reference[:, 1:] = [[5e-324, -5e-324],
                            [1.7976931348623157e308, -1.7976931348623157e308],
                            [-math.nextafter(1e-4, 0.0), -math.nextafter(1e16, 0.0)],
                            [-1e16, -1e-4],
                            [-1e15, math.nextafter(1e-4, 1.0)]]
    assert "-0.0" in [repr(float(rec.reference[k, 0] - rec.truth[k, 0])) for k in range(n)]
    trace_ref, plot_ref = csv_module_bytes(tmp_path, rec)

    # both files from the one pass `maps run` makes
    write_run_csvs(tmp_path / "trace.csv", tmp_path / "plot.csv", rec)
    assert (tmp_path / "trace.csv").read_bytes() == trace_ref
    assert (tmp_path / "plot.csv").read_bytes() == plot_ref

    # each file alone
    write_run_csvs(tmp_path / "trace_alone.csv", None, rec)
    write_run_csvs(None, tmp_path / "plot_alone.csv", rec)
    assert (tmp_path / "trace_alone.csv").read_bytes() == trace_ref
    assert (tmp_path / "plot_alone.csv").read_bytes() == plot_ref


# any float64: drawn as a float, or as a raw 64-bit pattern, which reaches
# subnormals, NaN payloads and every exponent evenly
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_writers_match_csv_module_bytes_on_any_float(data, n):
    # every cell of every field drawn; chunks of 2 rows
    rec = synthetic_record([0.0] * n)
    for name in ("time", "z", "truth", "estimate", "mu", "rho_hat", "gain", "u",
                 "reference", "b_true"):
        shape = getattr(rec, name).shape
        cells = data.draw(st.lists(ANY_FLOAT, min_size=int(np.prod(shape)),
                                   max_size=int(np.prod(shape))), label=name)
        setattr(rec, name, np.array(cells, dtype=float).reshape(shape))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "CSV_CHUNK", 2), \
            np.errstate(invalid="ignore", over="ignore"):
        directory = Path(tmp)
        trace_ref, plot_ref = csv_module_bytes(directory, rec)
        write_run_csvs(directory / "trace.csv", directory / "plot.csv", rec)
        assert (directory / "trace.csv").read_bytes() == trace_ref
        assert (directory / "plot.csv").read_bytes() == plot_ref


@pytest.mark.parametrize("discretization, kw", [
    ("zoh", dict(friction=load_window_schedule(B_MIN, B_MAX, start=0.5, end=1.5))),
    ("euler", dict(friction=load_window_schedule(B_MIN, B_MAX, start=0.5, end=1.5))),
    ("zoh", dict(reference="step", amplitude=0.25, period=1.0, controller="fixed:0",
                 estimator="kf:0", friction=toggle_schedule(B_MIN, B_MAX, first=0.3,
                                                            period=0.5, duration=2.0))),
    ("zoh", dict(controller="open", estimator="kf:0", amplitude=1.0, process_noise_std=2e-3)),
], ids=["sine-load-zoh", "sine-load-euler", "step-toggle-kf0", "open-loop-torque-noise"])
def test_writer_matches_repr_writer(tmp_path, motor, vertices_euler, motor_zoh, vertices_zoh,
                                    discretization, kw):
    # the orjson cells plus repr where its layout differs give the bytes of
    # the writer that formats every cell with repr, on whole runs
    motor, vertices = ((motor_zoh, vertices_zoh) if discretization == "zoh"
                       else (motor, vertices_euler))
    rec = run_scenario(short_spec(**kw), motor, vertices)
    write_run_csvs(tmp_path / "trace.csv", tmp_path / "plot.csv", rec)
    write_run_csvs_repr(tmp_path / "trace_ref.csv", tmp_path / "plot_ref.csv", rec)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "trace_ref.csv").read_bytes()
    assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "plot_ref.csv").read_bytes()


class TestScenarioConfig:
    def test_full_file_with_motor_keys(self, tmp_path):
        path = tmp_path / "scen.cfg"
        path.write_text(
            "reference = step\n"
            "amplitude = 1.0\n"
            "period = 8.0\n"
            "duration = 12.0\n"
            "seed = 42\n"
            "controller = fixed:1\n"
            "estimator = kf:0\n"
            "friction = toggle\n"
            "toggle_start = 0.3\n"
            "toggle_period = 5.0\n"
            "discretization = zoh\n"
            "b_m = 1.2e-5\n"
        )
        spec, motor = load_scenario(path)
        assert spec.reference == "step" and spec.period == 8.0
        assert spec.seed == 42
        assert spec.controller == "fixed:1"
        assert motor.discretization == "zoh"
        assert motor.b_m == 1.2e-5
        assert spec.friction.at(0.3)[0] == motor.b_max

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scen.cfg"
        path.write_text("refernce = sine\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_seed_is_read_from_the_file_alone(self, tmp_path, monkeypatch):
        # the seed has one source: a MAPS_SEED variable is not read
        path = tmp_path / "scen.cfg"
        path.write_text("seed = 5\n")
        monkeypatch.setenv("MAPS_SEED", "77")
        spec, _ = load_scenario(path)
        assert spec.seed == 5

    def test_defaults(self, motor, tmp_path):
        # an empty scenario file gives ScenarioSpec's field defaults, with
        # the sample time and the constant friction of its motor; only the
        # window's and the toggle's times default in scenario_from_entries
        # instead
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        assert load_scenario(empty) == (ScenarioSpec(
            sample_time=motor.sample_time, friction=constant_schedule(motor.b_min)), motor)
        other = dataclasses.replace(motor, sample_time=0.001, b_min=1e-6)
        assert scenario_from_entries({}, other) == ScenarioSpec(
            sample_time=0.001, friction=constant_schedule(1e-6))
        spec = scenario_from_entries({}, motor)
        assert spec.reference == "sine"
        assert spec.duration == 30.0
        assert spec.sample_rate == pytest.approx(500.0)
        assert spec.controller == "maps" and spec.estimator == "imm"
        assert spec.v_limit == 4.0
