import csv
import dataclasses
import json

import numpy as np
import pytest
from reference import delta_percent, friction_by_scan

from mapsched import harness
from mapsched.errors import ConfigError, ParameterError
from mapsched.estimation import (
    FilterBank,
    NoiseConfig,
    default_transition_matrix,
    imm_step,
    initial_belief,
    kf_predict,
    kf_update,
)
from mapsched.harness import (
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
    write_metrics_json,
    write_plot_csv,
    write_run_csvs,
    write_trace_csv,
)

B_MIN, B_MAX = 2.46e-6, 1.63e-4


def short_spec(**kw):
    base = dict(
        reference="sine", amplitude=2.0, frequency=0.5, duration=2.0,
        sample_rate=500.0, friction=constant_schedule(B_MIN), seed=3,
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

    def test_ramp_interpolation(self):
        sched = load_window_schedule(B_MIN, B_MAX, start=10.0, end=20.0, ramp_time=1.0)
        b_mid, _ = sched.at(10.5)
        assert b_mid == pytest.approx(0.5 * (B_MIN + B_MAX))
        assert sched.at(11.0)[0] == B_MAX

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
        ramp = FrictionSchedule(segments=segs, interpolation="ramp", ramp_time=1.5e-3)
        for sched in (step, ramp):
            assert [sched.at(t) for t in times] == friction_by_scan(sched, times)

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
            # 1 / 5e-324 s is an infinite tick: no default substep count
            short_spec(sample_rate=5e-324)
        with pytest.raises(ConfigError):
            # under half a tick at 500 Hz rounds to an empty run
            short_spec(duration=0.001, sample_rate=500.0)


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

    def test_tick_mismatch_rejected(self, motor_zoh, vertices_zoh):
        spec = short_spec(sample_rate=100.0)
        with pytest.raises(ConfigError):
            run_scenario(spec, motor_zoh, vertices_zoh)

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


def friction_switch_run(motor, vertices, estimator, noise=None):
    """2 s of the friction-switch scenario: b_min -> b_max at 0.3 s, a
    0.25 rad step reference with a 2 s period, fixed vertex-0 gain."""
    spec = short_spec(
        reference="step", amplitude=0.25, period=2.0, duration=2.0, seed=7,
        friction=toggle_schedule(B_MIN, B_MAX, first=0.3, period=5.0, duration=2.0),
        controller="fixed:0", estimator=estimator,
    )
    return run_scenario(spec, motor, vertices, noise=noise)


class TestRunPathEstimators:
    @pytest.mark.parametrize("index", [0, 1])
    def test_kf_matches_single_filter_loop(self, motor_zoh, vertices_zoh, noise, index):
        # the one-mode bank of the run loop is the plain Kalman filter
        rec = friction_switch_run(motor_zoh, vertices_zoh, f"kf:{index}")
        model = vertices_zoh.models()[index]
        (x, P), u_prev, worst = initial_belief(), 0.0, 0.0
        for k in range(rec.time.size):
            x, P = kf_predict(x, P, model, u_prev, noise.Q)
            x, P, _, _ = kf_update(x, P, model, rec.z[k], noise.R)
            worst = max(worst, float(np.max(np.abs(rec.estimate[k] - x))))
            u_prev = rec.u[k]
        assert worst <= 1e-12

    def test_imm_matches_imm_step_loop(self, motor_zoh, vertices_zoh, noise):
        # the run loop is a loop of imm_step calls
        rec = friction_switch_run(motor_zoh, vertices_zoh, "imm")
        bank = FilterBank(vertices_zoh.models(), default_transition_matrix(2), noise)
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

    def test_asymmetric_process_noise_folded_to_symmetric_part(self, motor_zoh, vertices_zoh):
        Q = np.diag([1e-6, 1e-6, 1e-6])
        Q[0, 1] = 4e-7
        asym = NoiseConfig(Q=Q, R=np.array([[1e-5]]))
        sym = NoiseConfig(Q=0.5 * (Q + Q.T), R=np.array([[1e-5]]))
        a = friction_switch_run(motor_zoh, vertices_zoh, "imm", noise=asym)
        b = friction_switch_run(motor_zoh, vertices_zoh, "imm", noise=sym)
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(a.mu, b.mu)


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

    def test_estimation_channels(self, motor_zoh, vertices_zoh):
        rec = run_scenario(short_spec(duration=0.5), motor_zoh, vertices_zoh)
        for channel in ("theta", "omega", "current"):
            met = compute_metrics(rec, channel=channel)
            assert met.rmse >= met.mae >= 0.0

    def test_empty_series_rejected(self):
        rec = synthetic_record([0.5])
        rec.time = np.empty(0)
        with pytest.raises(ParameterError):
            compute_metrics(rec)

    def test_unknown_channel(self):
        with pytest.raises(ParameterError):
            compute_metrics(synthetic_record([0.1]), channel="voltage")


class TestCompareRuns:
    def test_identical_variants_zero_delta(self, motor_zoh, vertices_zoh):
        spec = short_spec(duration=1.0)
        cmpr = compare_runs(
            spec, [("a", "maps", "imm"), ("b", "maps", "imm")], motor_zoh, vertices_zoh
        )
        for attr in ("rmse", "mae", "iae"):
            assert delta_percent(cmpr, attr) == pytest.approx(0.0, abs=1e-12)
        text = cmpr.to_text()
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
        cmpr.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "metric,a,b,delta_percent"
        assert len(lines) == 7  # rmse, mae, iae + 3 estimation rows


class TestModeDetection:
    def test_dominant_mode_flips_within_150ms(self, motor_zoh, vertices_zoh):
        sched = toggle_schedule(B_MIN, B_MAX, first=0.3, period=5.0, duration=30.0)
        spec = ScenarioSpec(
            reference="step", amplitude=0.25, period=10.0, duration=1.5,
            friction=sched, seed=1, controller="fixed:0", estimator="imm",
        )
        rec = run_scenario(spec, motor_zoh, vertices_zoh)
        after = (rec.time >= 0.3) & (rec.time <= 0.45)
        dominant = np.argmax(rec.mu, axis=1)
        assert np.any(dominant[after] == 1), "high-friction mode not detected within 0.15 s"


class TestTraceOutputs:
    def test_trace_csv_header_and_rows(self, tmp_path, motor_zoh, vertices_zoh):
        rec = run_scenario(short_spec(duration=0.1), motor_zoh, vertices_zoh)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, rec)
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
        write_plot_csv(path, rec)
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


def test_writers_match_csv_module_bytes(tmp_path, monkeypatch):
    # chunks of 2 rows, so a 5-row record spans three of them
    monkeypatch.setattr(harness, "CSV_CHUNK", 2)
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

    trace_header = [
        "time", "z", "theta_true", "omega_true", "current_true",
        "theta_est", "omega_est", "current_est", "mu_1", "mu_2", "rho_hat",
        "k_theta", "k_omega", "k_current", "u", "theta_ref", "omega_ref", "current_ref",
    ]
    trace_rows = [[rec.time[k], rec.z[k], *rec.truth[k], *rec.estimate[k], *rec.mu[k],
                   rec.rho_hat[k], *rec.gain[k], rec.u[k], *rec.reference[k]]
                  for k in range(n)]
    csv_module_reference(tmp_path / "trace_ref.csv", trace_header, trace_rows)
    plot_header = ["time", "theta_ref", "theta_true", "theta_est", "tracking_error",
                   "mu_1", "mu_2", "rho_hat", "b_true", "u"]
    plot_rows = [[rec.time[k], rec.reference[k, 0], rec.truth[k, 0], rec.estimate[k, 0],
                  rec.reference[k, 0] - rec.truth[k, 0], *rec.mu[k], rec.rho_hat[k],
                  rec.b_true[k], rec.u[k]] for k in range(n)]
    assert "-0.0" in [repr(float(row[4])) for row in plot_rows]
    csv_module_reference(tmp_path / "plot_ref.csv", plot_header, plot_rows)
    trace_ref = (tmp_path / "trace_ref.csv").read_bytes()
    plot_ref = (tmp_path / "plot_ref.csv").read_bytes()

    # both files from the one pass `maps run` makes
    write_run_csvs(tmp_path / "trace.csv", tmp_path / "plot.csv", rec)
    assert (tmp_path / "trace.csv").read_bytes() == trace_ref
    assert (tmp_path / "plot.csv").read_bytes() == plot_ref

    # each file alone
    write_trace_csv(tmp_path / "trace_alone.csv", rec)
    write_plot_csv(tmp_path / "plot_alone.csv", rec)
    assert (tmp_path / "trace_alone.csv").read_bytes() == trace_ref
    assert (tmp_path / "plot_alone.csv").read_bytes() == plot_ref


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
        assert motor.params.b_m == 1.2e-5
        assert spec.friction.at(0.3)[0] == motor.b_max

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scen.cfg"
        path.write_text("refernce = sine\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "scen.cfg"
        path.write_text("seed = 5\n")
        monkeypatch.setenv("MAPS_SEED", "77")
        spec, _ = load_scenario(path)
        assert spec.seed == 77

    def test_defaults(self, motor):
        spec = scenario_from_entries({}, motor)
        assert spec.reference == "sine"
        assert spec.duration == 30.0
        assert spec.sample_rate == pytest.approx(500.0)
        assert spec.controller == "maps" and spec.estimator == "imm"
        assert spec.v_limit == 4.0
