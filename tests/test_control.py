import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from mapsched import control
from mapsched.control import (
    LqrWeights,
    control_input,
    dare_residual,
    gain_report,
    maps_gain,
    solve_dare,
    synthesize_vertex_gains,
)
from mapsched.errors import NumericalError, ParameterError
from mapsched.estimation import NoiseConfig
from mapsched.motor import DiscreteModel, build_vertex_set

B_MIN, B_MAX = 2.46e-6, 1.63e-4


def scalar_model(phi, gamma):
    return DiscreteModel(
        Phi=np.array([[phi]]), Gamma=np.array([[gamma]]), H=np.array([[1.0]]), T=1.0
    )


def scalar_weights(q, r):
    return LqrWeights(Q=np.array([[q]]), R=np.array([[r]]))


class TestSolveDare:
    def test_scalar_golden_ratio(self):
        sol = solve_dare(scalar_model(1.0, 1.0), scalar_weights(1.0, 1.0))
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert sol.P[0, 0] == pytest.approx(golden, abs=1e-10)
        assert sol.K[0, 0] == pytest.approx(golden / (1.0 + golden), abs=1e-10)

    def test_scalar_zero_phi(self):
        sol = solve_dare(scalar_model(0.0, 1.0), scalar_weights(3.0, 1.0))
        assert sol.P[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert sol.K[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    def test_motor_vertices_stabilized(self, motor, weights, mode):
        vs = build_vertex_set(motor.params, (B_MIN, B_MAX), 0.002, mode=mode)
        vs = synthesize_vertex_gains(vs, vs.Gamma, weights)
        for phi, K in zip(vs.Phi_vertices, vs.K_vertices):
            closed = phi - vs.Gamma @ K
            assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0

    def test_matches_scipy_solution(self, motor, weights, vertices_zoh):
        for phi in vertices_zoh.Phi_vertices:
            mdl = DiscreteModel(Phi=phi, Gamma=vertices_zoh.Gamma, H=vertices_zoh.H, T=0.002)
            sol = solve_dare(mdl, weights)
            ref = solve_discrete_are(phi, vertices_zoh.Gamma, weights.Q, weights.R)
            assert np.allclose(sol.P, ref, rtol=1e-8, atol=1e-8)

    def test_residual_bound_holds(self, vertices_euler, weights):
        for phi in vertices_euler.Phi_vertices:
            mdl = DiscreteModel(Phi=phi, Gamma=vertices_euler.Gamma, H=vertices_euler.H, T=0.002)
            sol = solve_dare(mdl, weights)
            assert sol.residual <= 1e-9
            assert dare_residual(mdl.Phi, mdl.Gamma, weights.Q, weights.R, sol.P) <= 1e-9

    def test_pinned_gains_euler_1ms(self, motor, weights):
        # Euler, T = 1 ms, b_max = 6e-4: the b_max vertex took the former
        # fixed-point iteration to its 100k-step cap; these gains are what
        # that iteration returned
        pinned = (
            [0.4876469109705959, 0.01393943684978135, -6.956799150669618],
            [0.4926684553752959, -0.0006540751422416855, -6.980618093608604],
        )
        vs = build_vertex_set(motor.params, (B_MIN, 6e-4), 0.001, mode="euler")
        for model, K_ref in zip(vs.models(), pinned):
            K = solve_dare(model, weights).K.reshape(-1)
            assert np.max(np.abs(K - K_ref)) <= 1e-12 * np.max(np.abs(K_ref))

    def test_unstabilizable_pair_rejected(self):
        # uncontrollable unstable mode: Gamma = 0
        with pytest.raises(NumericalError):
            solve_dare(scalar_model(2.0, 0.0), scalar_weights(1.0, 1.0))

    def test_non_finite_gain_is_a_numerical_failure(self, monkeypatch, vertices_euler,
                                                    weights):
        # a Riccati solution so large that the gain overflows to NaN is
        # refused by the eigenvalue solver: a numerical failure, no warning
        monkeypatch.setattr(control, "solve_discrete_are", lambda *args: np.full((3, 3), 1e308))
        with warnings.catch_warnings(), pytest.raises(NumericalError,
                                                      match="no stabilizing solution"):
            warnings.simplefilter("error")
            solve_dare(vertices_euler.models()[0], weights)

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            LqrWeights(Q=np.diag([1.0, -1.0, 1.0]), R=np.array([[1.0]]))
        with pytest.raises(ParameterError):
            LqrWeights(Q=np.eye(3), R=np.array([[0.0]]))


class TestVertexGains:
    def test_identical_vertices_equal_gains(self, motor, weights):
        vs = build_vertex_set(motor.params, (B_MIN, B_MAX), 0.002)
        # same Phi at both corners by zeroing the parameter footprint
        same = vs.with_gains([np.zeros((1, 3)), np.zeros((1, 3))])
        import dataclasses

        same = dataclasses.replace(
            vs,
            Phi_vertices=(vs.Phi_vertices[0], vs.Phi_vertices[0]),
            Phi_hat=np.zeros((3, 3)),
            Phi0=vs.Phi_vertices[0],
            K_vertices=None,
            mode="zoh",
        )
        got = synthesize_vertex_gains(same, vs.Gamma, weights)
        assert np.allclose(got.K_vertices[0], got.K_vertices[1], atol=1e-12)

    def test_distinct_vertices_distinct_gains(self, vertices_euler):
        K1, K2 = vertices_euler.K_vertices
        assert not np.allclose(K1, K2)

    def test_riccati_not_affine_in_rho(self, motor, weights):
        # gain at the midpoint vertex is close to but not exactly the mean of
        # the corner gains: the Riccati map is nonlinear in the parameter
        mid = 0.5 * (B_MIN + B_MAX)
        vs3 = build_vertex_set(motor.params, (B_MIN, mid, B_MAX), 0.002, mode="euler")
        vs3 = synthesize_vertex_gains(vs3, vs3.Gamma, weights)
        K_lo, K_mid, K_hi = vs3.K_vertices
        avg = 0.5 * (K_lo + K_hi)
        gap = float(np.max(np.abs(K_mid - avg)))
        assert gap > 1e-10


def gain_rows(vertices):
    return [tuple(K.reshape(-1).tolist()) for K in vertices.K_vertices]


class TestMapsGain:
    def test_pure_mode(self, vertices_euler):
        K = maps_gain([1.0, 0.0], gain_rows(vertices_euler))
        assert np.array_equal(K, vertices_euler.K_vertices[0][0])

    def test_arithmetic_mean(self):
        K = maps_gain([0.5, 0.5], [(1.0, 2.0, 3.0), (3.0, 4.0, 5.0)])
        assert np.allclose(K, [2.0, 3.0, 4.0])

    def test_rho_hat_weighting(self):
        mu = np.array([0.3, 0.7])
        rho = np.array([1.63e-4, 2.46e-6])
        assert float(mu @ rho) == pytest.approx(5.0622e-5, rel=1e-4)

    @given(alpha=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_in_mu(self, vertices_euler, alpha):
        gains = gain_rows(vertices_euler)
        mu1 = np.array([0.9, 0.1])
        mu2 = np.array([0.2, 0.8])
        blended = alpha * mu1 + (1.0 - alpha) * mu2
        K_blend = np.array(maps_gain(blended.tolist(), gains))
        K_mix = alpha * np.array(maps_gain(mu1.tolist(), gains)) + (1.0 - alpha) * np.array(
            maps_gain(mu2.tolist(), gains)
        )
        assert np.allclose(K_blend, K_mix, atol=1e-12)

    def test_equals_barycentric_interpolation_at_rho_hat(self, vertices_euler):
        # for two vertices both schedules are the same affine map of rho
        gains = gain_rows(vertices_euler)
        mu = np.array([0.37, 0.63])
        lo, hi = vertices_euler.rho
        rho_hat = float(mu @ np.array(vertices_euler.rho))
        frac = (rho_hat - lo) / (hi - lo)
        K_mu = maps_gain(mu.tolist(), gains)
        K_xi = maps_gain([1.0 - frac, frac], gains)
        assert np.allclose(K_mu, K_xi, atol=1e-12)

    def test_length_mismatch(self, vertices_euler):
        with pytest.raises(ValueError):
            maps_gain([0.2, 0.3, 0.5], gain_rows(vertices_euler))


class TestControlInput:
    def test_zero_error_zero_input(self):
        ref = np.array([1.0, 0.0, 0.0])
        u, sat = control_input(np.array([5.0, 1.0, 0.5]), ref, np.array([1.0, 0.0, 0.0]), 10.0)
        assert u == 0.0 and not sat

    def test_proportional_channel(self):
        ref = np.array([2.0, 0.0, 0.0])
        u, sat = control_input(np.array([1.0, 0.0, 0.0]), ref, np.zeros(3), 10.0)
        assert u == pytest.approx(2.0) and not sat

    def test_saturation_flagged(self):
        ref = np.array([2.0, 0.0, 0.0])
        u, sat = control_input(np.array([10.0, 0.0, 0.0]), ref, np.zeros(3), 4.0)
        assert u == 4.0 and sat

    def test_negative_saturation(self):
        ref = np.array([-2.0, 0.0, 0.0])
        u, sat = control_input(np.array([10.0, 0.0, 0.0]), ref, np.zeros(3), 4.0)
        assert u == -4.0 and sat

    def test_feedforward_drives_reference_open_loop(self):
        # open-loop drive: no gain, theta_ref applied as the voltage, saturated
        u, sat = control_input((0.0, 0.0, 0.0), (1.5, 3.0, 0.0), (9.0, 9.0, 9.0), 4.0,
                               feedforward=1.0)
        assert u == 1.5 and not sat
        u, sat = control_input((0.0, 0.0, 0.0), (-6.0, 0.0, 0.0), (0.0, 0.0, 0.0), 4.0,
                               feedforward=1.0)
        assert u == -4.0 and sat


def test_gain_report_shape(vertices_euler):
    report = gain_report(vertices_euler)
    assert report["mode"] == "euler"
    assert len(report["vertices"]) == 2
    for entry in report["vertices"]:
        assert len(entry["K"]) == 3
        assert all(mod < 1.0 for mod in entry["closed_loop_eigenvalue_moduli"])


@pytest.mark.parametrize("cls, Q, R", [
    (LqrWeights, np.diag([100.0, 1.0, 1.0]), np.array([[10.0]])),
    (NoiseConfig, np.diag([1e-6, 1e-6, 1e-6]), np.array([[1e-5]])),
], ids=["LqrWeights", "NoiseConfig"])
def test_default_is_one_shared_read_only_instance(cls, Q, R):
    default = cls.default()
    assert cls.default() is default
    fresh = cls(Q=Q, R=R)
    for name in ("Q", "R"):
        held = getattr(default, name)
        assert np.array_equal(held, getattr(fresh, name))
        with pytest.raises(ValueError):
            held[0, 0] = 1.0
