"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them inline)."""

import dataclasses
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from reference import dlyap_series

from mapsched.config import load_motor_config
from mapsched.control import solve_dare
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
    ScenarioSpec,
    compute_metrics,
    constant_schedule,
    design_from_motor,
    load_window_schedule,
    run_scenario,
    toggle_schedule,
)
from mapsched.ident import SteadyStateSample, identify, viscous_from_slope
from mapsched.plant import TickMap, plant_step
from mapsched.stability import (
    certify,
    find_common_lyapunov,
    vertex_margins,
    verify_convex_stability,
)

SEEDS = (1, 2, 3, 4, 5)

# recorded 30-second hardware benchmark rows (mae, iae) used by the metric
# identity check: iae must equal mae * duration for uniformly sampled runs
HARDWARE_ROWS_30S = [
    ("step_noload_fixed", 0.4735, 14.2026),
    ("step_noload_sched", 0.4815, 14.4405),
    ("sine_noload_fixed", 0.4920, 14.7622),
    ("sine_noload_sched", 0.4715, 14.1458),
    ("step_load_fixed", 0.6243, 18.7269),
    ("step_load_sched", 0.5886, 17.6559),
    ("sine_load_fixed", 0.7485, 22.4560),
    ("sine_load_sched", 0.6344, 19.0336),
]


def full_covariances(upper):
    """(..., 3, 3) symmetric matrices from the (..., 6) upper triangles
    imm_step returns."""
    rows, cols = np.triu_indices(3)
    out = np.empty(upper.shape[:-1] + (3, 3))
    out[..., rows, cols] = upper
    out[..., cols, rows] = upper
    return out


def fused_covariances(mus, fused_means, mode_means, mode_covs):
    """Moment-matched covariance of each tick's mu-weighted mode beliefs."""
    d = mode_means - fused_means[:, None, :]
    return np.einsum("ki,kiab->kab", mus, mode_covs + d[..., :, None] * d[..., None, :])


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"PASS {name} ({elapsed:.2f}s < {budget_s:.0f}s)")


@pytest.fixture(scope="module")
def motor_zoh():
    # the stock motor designs by ZOH
    motor = load_motor_config()
    assert motor.discretization == "zoh"
    return motor


@pytest.fixture(scope="module")
def motor_euler(motor_zoh):
    return dataclasses.replace(motor_zoh, discretization="euler")


@pytest.fixture(scope="module")
def design_zoh(motor_zoh):
    return design_from_motor(motor_zoh)


@pytest.fixture(scope="module")
def design_euler(motor_euler):
    return design_from_motor(motor_euler)


def friction_switch_spec(motor, seed, estimator):
    return ScenarioSpec(
        reference="step",
        amplitude=0.25,
        period=10.0,
        duration=30.0,
        sample_time=motor.sample_time,
        friction=toggle_schedule(motor.b_min, motor.b_max, first=0.3, period=5.0,
                                 duration=30.0),
        seed=seed,
        controller="fixed:0",
        estimator=estimator,
    )


def test_criterion_1_friction_identification(motor_euler):
    with criterion("criterion 1: friction identification", 1.0):
        motor = motor_euler
        b_low = viscous_from_slope(motor, motor.Ke + 4.9208e-4)
        assert b_low == pytest.approx(2.4604e-6, rel=1e-6)
        assert abs(b_low - 2.46e-6) / 2.46e-6 < 0.01
        b_high = viscous_from_slope(motor, motor.Ke + 0.0325)
        assert b_high == pytest.approx(1.625e-4, rel=1e-6)
        assert abs(b_high - 1.63e-4) / 1.63e-4 < 0.01
        # noiseless synthetic data round-trips to machine precision
        for b_true in (3.3e-6, 4.0e-5, 1.5e-4):
            mu = motor.Rm * b_true / motor.Kt + motor.Ke
            samples = [
                SteadyStateSample(voltage=mu * w, velocity=w) for w in (5.0, 12.0, 31.0)
            ]
            got = identify(motor, samples)
            assert got.viscous_coeff == pytest.approx(b_true, rel=1e-12)


def test_criterion_2_dare_correctness(motor_euler, design_euler, design_zoh):
    with criterion("criterion 2: DARE correctness", 1.0):
        sol = solve_dare(np.array([[1.0]]), np.array([[1.0]]),
                         np.array([[1.0]]), np.array([[1.0]]))
        assert sol.P[0, 0] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-10)
        for design in (design_euler, design_zoh):
            for phi, K in zip(design.Phi_vertices, design.K_vertices):
                closed = phi - design.Gamma @ K
                assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0


def test_criterion_3_imm_invariants(motor_zoh, design_zoh):
    with criterion("criterion 3: IMM invariants over 15000 ticks", 10.0):
        phis, Gamma = design_zoh.Phi_vertices, design_zoh.Gamma
        sched = toggle_schedule(motor_zoh.b_min, motor_zoh.b_max, first=0.3,
                                period=5.0, duration=30.0)
        T, n = 0.002, 15_000
        rng = np.random.default_rng(2024)
        meas_std = math.sqrt(FILTER_R[0, 0])

        # open-loop drive: precompute one truth/measurement stream, with one
        # plant TickMap per friction value of the schedule
        ticks = {(g.b, g.coulomb_on):
                 TickMap(motor_zoh, motor_zoh.friction(g.b, g.coulomb_on), T)
                 for g in sched.segments}
        truth = np.zeros(3)
        us = np.empty(n)
        zs = np.empty(n)
        for k in range(n):
            t = k * T
            us[k] = 2.0 * math.sin(2.0 * math.pi * 0.5 * t)
            zs[k] = truth[0] + meas_std * rng.standard_normal()
            truth = plant_step(truth, us[k], ticks[sched.at(t)])

        bank = FilterBank(phis, Gamma, default_transition_matrix(2), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        u_prev = 0.0
        fused_means = np.empty((n, 3))
        mode_means = np.empty((n, 2, 3))
        mode_covs = np.empty((n, 2, 6))
        mus = np.empty((n, 2))
        for k in range(n):
            means, covs, mu, _, fused_means[k] = imm_step(bank, means, covs, mu, u_prev, zs[k])
            assert abs(sum(mu) - 1.0) <= 1e-12
            assert min(mu) >= 0.0
            mode_means[k], mode_covs[k], mus[k] = means, covs, mu
            u_prev = us[k]
        full = full_covariances(mode_covs)
        fused = fused_covariances(mus, fused_means, mode_means, full)
        min_eigs = np.linalg.eigvalsh(np.concatenate([full.reshape(-1, 3, 3), fused]))[:, 0]
        assert float(min_eigs.min()) >= -1e-9

        # a bank of identical models must collapse to the standard KF
        phi = phis[0]
        bank = FilterBank((phi, phi), Gamma, default_transition_matrix(2), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        x, P = initial_belief()
        kf_means = np.empty((n, 3))
        kf_covs = np.empty((n, 3, 3))
        u_prev = 0.0
        for k in range(n):
            means, covs, mu, _, fused_means[k] = imm_step(bank, means, covs, mu, u_prev, zs[k])
            mode_means[k], mode_covs[k], mus[k] = means, covs, mu
            x, P = kf_predict(x, P, phi, Gamma, u_prev, FILTER_Q)
            x, P, _, _ = kf_update(x, P, zs[k], FILTER_R)
            kf_means[k], kf_covs[k] = x, P
            u_prev = us[k]
        fused = fused_covariances(mus, fused_means, mode_means, full_covariances(mode_covs))
        worst = max(float(np.max(np.abs(fused_means - kf_means))),
                    float(np.max(np.abs(fused - kf_covs))))
        assert worst <= 1e-9


def test_criterion_4_estimation_improvement(motor_zoh, design_zoh, motor_euler,
                                            design_euler):
    with criterion("criterion 4: estimation improvement (friction switch)", 60.0):
        ratios = []
        for seed in SEEDS:
            rec_imm = run_scenario(
                friction_switch_spec(motor_zoh, seed, "imm"), motor_zoh, design_zoh
            )
            rec_kf = run_scenario(
                friction_switch_spec(motor_zoh, seed, "kf:0"), motor_zoh, design_zoh
            )
            est_imm = compute_metrics(rec_imm).est_rmse
            est_kf = compute_metrics(rec_kf).est_rmse
            ratios.append(est_imm / est_kf)
        med = np.median(np.stack(ratios), axis=0)
        print(f"  zoh seed-median rmse ratios theta/omega/current = "
              f"{med[0]:.3f}/{med[1]:.3f}/{med[2]:.3f}")
        assert med[1] <= 0.30, f"omega ratio {med[1]:.3f} > 0.30"
        assert med[2] <= 0.30, f"current ratio {med[2]:.3f} > 0.30"
        assert 0.8 <= med[0] <= 1.2, f"theta ratio {med[0]:.3f} outside +/-20%"

        # forward-Euler counterpart, recorded but not gated (the stiff
        # electrical pole makes its design models unusable for quantitative
        # claims)
        rec_imm = run_scenario(
            friction_switch_spec(motor_euler, SEEDS[0], "imm"), motor_euler, design_euler
        )
        rec_kf = run_scenario(
            friction_switch_spec(motor_euler, SEEDS[0], "kf:0"), motor_euler, design_euler
        )
        eul = compute_metrics(rec_imm).est_rmse / compute_metrics(rec_kf).est_rmse
        print(f"  euler (recorded only) ratios = {eul[0]:.3f}/{eul[1]:.3f}/{eul[2]:.3f}")


def test_criterion_5_control_improvement(motor_zoh, design_zoh, motor_euler,
                                         design_euler):
    with criterion("criterion 5: control improvement (scheduled vs fixed)", 60.0):
        def run_pair(motor, design, spec):
            rec_maps = run_scenario(spec, motor, design)
            fixed = dataclasses.replace(spec, controller="fixed:0", estimator="kf:0")
            rec_fixed = run_scenario(fixed, motor, design)
            return compute_metrics(rec_maps), compute_metrics(rec_fixed)

        sine_load = ScenarioSpec(
            reference="sine", amplitude=2.0, frequency=0.5, duration=30.0,
            sample_time=motor_zoh.sample_time,
            friction=load_window_schedule(motor_zoh.b_min, motor_zoh.b_max,
                                          start=10.0, end=20.0),
            seed=1, controller="maps", estimator="imm",
        )
        m_maps, m_fixed = run_pair(motor_zoh, design_zoh, sine_load)
        gains = {
            attr: 100.0 * (1.0 - getattr(m_maps, attr) / getattr(m_fixed, attr))
            for attr in ("iae", "mae", "rmse")
        }
        print(f"  sine+load improvement: iae {gains['iae']:.1f}%, "
              f"mae {gains['mae']:.1f}%, rmse {gains['rmse']:.1f}%")
        for attr, gain in gains.items():
            assert gain >= 5.0, f"scheduled gain improves {attr} by only {gain:.2f}%"

        step_noload = ScenarioSpec(
            reference="step", amplitude=2.0, period=10.0, duration=30.0,
            sample_time=motor_zoh.sample_time, friction=constant_schedule(motor_zoh.b_min),
            seed=1, controller="maps", estimator="imm",
        )
        p_maps, p_fixed = run_pair(motor_zoh, design_zoh, step_noload)
        for attr in ("iae", "mae", "rmse"):
            rel = getattr(p_maps, attr) / getattr(p_fixed, attr) - 1.0
            assert abs(rel) <= 0.05, f"step parity violated on {attr}: {100 * rel:.2f}%"
        print("  step no-load parity within +/-5% on iae/mae/rmse")

        # forward Euler counterpart, recorded but not gated
        e_maps, e_fixed = run_pair(
            motor_euler, design_euler,
            dataclasses.replace(sine_load, friction=load_window_schedule(
                motor_euler.b_min, motor_euler.b_max, start=10.0, end=20.0)),
        )
        print(f"  euler (recorded only) sine+load iae: scheduled {e_maps.iae:.3f} "
              f"vs fixed {e_fixed.iae:.3f}")


def test_criterion_6_stability_certification(design_euler, design_zoh):
    with criterion("criterion 6: stability certification", 5.0):
        # the stock design (ZOH) and the Euler one, each at the same bound
        for design in (design_zoh, design_euler):
            loops = [
                phi - design.Gamma @ K
                for phi, K in zip(design.Phi_vertices, design.K_vertices)
            ]
            search = find_common_lyapunov(loops)
            assert search.certified
            assert search.worst_margin > 0.0
            sampled = verify_convex_stability(search.P, loops, n_samples=1000, seed=42)
            assert sampled > 0.0
            cert = certify(design)
            for value in (cert.eps_star, cert.C, cert.lambda_):
                assert np.isfinite(value)
        # scalar analytic anchor
        A = np.array([[0.5]])
        P = dlyap_series(A)
        assert P[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert vertex_margins(P, [A])[0] == pytest.approx(1.0, rel=1e-12)


def test_criterion_7_metric_identities(motor_zoh, design_zoh):
    with criterion("criterion 7: metric identities", 60.0):
        for name, mae, iae in HARDWARE_ROWS_30S:
            assert abs(mae * 30.0 - iae) / iae < 0.005, f"identity violated for {name}"
        for reference in ("sine", "step"):
            spec = ScenarioSpec(
                reference=reference, amplitude=1.0, duration=2.0,
                sample_time=motor_zoh.sample_time,
                friction=load_window_schedule(motor_zoh.b_min, motor_zoh.b_max,
                                              start=0.5, end=1.5),
                seed=4, controller="maps", estimator="imm",
            )
            met = compute_metrics(run_scenario(spec, motor_zoh, design_zoh))
            assert met.iae == pytest.approx(met.mae * spec.duration, rel=1e-9)
            assert met.rmse >= met.mae


def test_criterion_8_determinism(tmp_path):
    with criterion("criterion 8: determinism (byte-identical reruns)", 60.0):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "reference = sine\namplitude = 2.0\nduration = 2.0\nseed = 11\n"
            "friction = window\nload_start = 0.5\nload_end = 1.5\n"
            "discretization = zoh\n"
        )
        outs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            result = subprocess.run(
                [sys.executable, "-m", "mapsched", "run", str(cfg), "--out", str(out_dir)],
                capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            outs.append((out_dir / "trace.csv").read_bytes())
        assert outs[0] == outs[1]
