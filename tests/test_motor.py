import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _domega, discretize_exact_zoh, discretize_forward_euler

from mapsched.errors import ParameterError
from mapsched.motor import (
    OMEGA_REST,
    FrictionModel,
    MotorParams,
    build_continuous_model,
    build_vertex_set,
    euler_discretize,
    zoh_discretize,
)


def expm_series(M, terms=20):
    """Independent matrix exponential: scale so the norm is small, sum the
    plain Taylor series, square back."""
    M = np.asarray(M, dtype=float)
    norm = np.max(np.sum(np.abs(M), axis=1))
    s = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    A = M / (2.0**s)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


class TestContinuousModel:
    def test_table_values_nominal_friction(self, motor):
        cm = build_continuous_model(motor.params, 1.0e-5)
        p = motor.params
        assert cm.A[1, 1] == pytest.approx(-1.0e-5 / 2.06e-5, rel=1e-12)
        assert cm.A[1, 2] == pytest.approx(p.Kt / p.Jeq, rel=1e-12)
        assert cm.A[1, 2] == pytest.approx(2038.83, rel=1e-5)
        assert cm.A[2, 2] == pytest.approx(-7241.38, rel=1e-6)
        assert cm.A[2, 1] == pytest.approx(-p.Ke / p.Lm, rel=1e-12)
        assert np.array_equal(cm.B.ravel(), [0.0, 0.0, 1.0 / p.Lm])
        assert np.array_equal(cm.C, [[1.0, 0.0, 0.0]])

    def test_zero_friction(self, motor):
        cm = build_continuous_model(motor.params, 0.0)
        assert cm.A[1, 1] == 0.0
        assert cm.A[1, 2] == pytest.approx(2038.83, rel=1e-5)

    def test_max_friction(self, motor):
        cm = build_continuous_model(motor.params, 1.63e-4)
        assert cm.A[1, 1] == pytest.approx(-7.9126, rel=1e-4)

    def test_jeq_is_sum_of_inertias(self):
        p = MotorParams()
        assert p.Jeq == pytest.approx(p.Jr + p.Jh + p.Jd, rel=0, abs=0)
        assert p.Jeq == pytest.approx(2.06e-5)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ParameterError):
            MotorParams(Lm=0.0)
        with pytest.raises(ParameterError):
            MotorParams(Jr=-1e-6)
        with pytest.raises(ParameterError):
            build_continuous_model(MotorParams(), -1e-6)

    @given(b=st.floats(min_value=0.0, max_value=1e-2))
    @settings(max_examples=50, deadline=None)
    def test_structural_zeros_for_all_b(self, b):
        cm = build_continuous_model(MotorParams(), b)
        assert cm.A[0, 0] == 0.0 and cm.A[0, 2] == 0.0 and cm.A[0, 1] == 1.0
        assert cm.A[1, 0] == 0.0 and cm.A[2, 0] == 0.0
        assert cm.B[0, 0] == 0.0 and cm.B[1, 0] == 0.0


class TestForwardEuler:
    def test_zero_dynamics_gives_identity(self):
        B = np.array([[0.0], [0.0], [5.0]])
        Phi, Gamma = euler_discretize(np.zeros((3, 3)), B, 0.01)
        assert np.array_equal(Phi, np.eye(3))
        assert np.array_equal(Gamma, 0.01 * B)

    def test_motor_entries(self, motor):
        cm = build_continuous_model(motor.params, 1.0e-5)
        dm = discretize_forward_euler(cm, 0.002)
        assert dm.Phi[1, 1] == pytest.approx(0.9990291, abs=1e-7)
        assert dm.Phi[1, 2] == pytest.approx(4.07767, rel=1e-6)
        assert dm.Phi[2, 2] == pytest.approx(-13.4828, rel=1e-5)
        assert np.allclose(dm.Phi, np.eye(3) + 0.002 * cm.A, atol=0, rtol=0)

    def test_gamma_is_t_over_lm(self, motor):
        cm = build_continuous_model(motor.params, motor.params.b_m)
        dm = discretize_forward_euler(cm, 0.002)
        assert dm.Gamma[2, 0] == pytest.approx(0.002 / 0.00116, rel=1e-12)
        assert dm.Gamma[2, 0] == pytest.approx(1.72414, rel=1e-5)
        assert dm.Gamma[0, 0] == 0.0 and dm.Gamma[1, 0] == 0.0

    def test_requires_positive_sample_time(self, motor):
        cm = build_continuous_model(motor.params, 1e-5)
        with pytest.raises(ParameterError):
            discretize_forward_euler(cm, 0.0)


class TestExactZoh:
    def test_zero_dynamics(self):
        B = np.array([[1.0], [2.0], [3.0]])
        Phi, Gamma = zoh_discretize(np.zeros((3, 3)), B, 0.5)
        assert np.allclose(Phi, np.eye(3), atol=1e-15)
        assert np.allclose(Gamma, 0.5 * B, atol=1e-15)

    def test_scalar_closed_form(self):
        Phi, Gamma = zoh_discretize([[-1.0]], [[1.0]], 1.0)
        assert Phi[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert Gamma[0, 0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_motor_matches_series_oracle(self, motor):
        cm = build_continuous_model(motor.params, motor.params.b_m)
        dm = discretize_exact_zoh(cm, 0.002)
        ref = expm_series(cm.A * 0.002)
        assert np.allclose(dm.Phi, ref, rtol=1e-9, atol=1e-12)

    def test_motor_spectral_radius_at_most_one(self, motor):
        cm = build_continuous_model(motor.params, motor.params.b_m)
        dm = discretize_exact_zoh(cm, 0.002)
        assert np.max(np.abs(np.linalg.eigvals(dm.Phi))) <= 1.0 + 1e-12

    def test_first_order_agreement_with_euler(self, motor):
        # || Phi_zoh - Phi_euler || = O(T^2): errors at T and T/10 differ ~100x
        cm = build_continuous_model(motor.params, motor.params.b_m)
        errs = []
        for T in (1e-5, 1e-6):
            pz, _ = zoh_discretize(cm.A, cm.B, T)
            pe, _ = euler_discretize(cm.A, cm.B, T)
            errs.append(np.max(np.abs(pz - pe)))
        ratio = errs[0] / errs[1]
        assert 50.0 < ratio < 150.0


def friction_torque(omega, applied_torque, f):
    """Friction torque of the truth plant's RK4 right-hand side: applied
    torque minus net torque, at unit inertia."""
    net = _domega(omega, 0.0, applied_torque, 1.0, 1.0,
                  f.tau_s, f.tau_c, f.b, OMEGA_REST)
    return applied_torque - net


class TestFrictionTorque:
    def test_stiction_cancels_subthreshold_torque(self):
        f = FrictionModel(tau_s=0.01, tau_c=0.002, b=1e-5)
        assert friction_torque(0.0, 0.001, f) == 0.001

    def test_moving_coulomb_plus_viscous(self):
        f = FrictionModel(tau_s=0.003, tau_c=0.002, b=1.63e-4)
        assert friction_torque(10.0, 1.0, f) == pytest.approx(0.002 + 1.63e-3, rel=1e-12)

    def test_odd_in_omega(self):
        f = FrictionModel(tau_s=0.003, tau_c=0.002, b=1.63e-4)
        assert friction_torque(-10.0, 1.0, f) == pytest.approx(-3.63e-3, rel=1e-12)

    @given(omega=st.floats(min_value=1e-5, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_odd_symmetry_outside_rest(self, omega):
        f = FrictionModel(tau_s=0.003, tau_c=0.002, b=2e-4)
        assert friction_torque(-omega, 0.0, f) == -friction_torque(omega, 0.0, f)

    def test_breakaway_above_threshold(self):
        f = FrictionModel(tau_s=0.003, tau_c=0.002, b=1e-5)
        # applied torque above tau_s: stiction does not hold, sgn(0) = 0
        assert friction_torque(0.0, 0.01, f) == 0.0

    def test_invariants(self):
        with pytest.raises(ParameterError):
            FrictionModel(tau_s=0.001, tau_c=0.002, b=1e-5)
        with pytest.raises(ParameterError):
            FrictionModel(tau_s=0.003, tau_c=0.002, b=-1e-5)


class TestVertexSet:
    def test_euler_phi_hat_single_entry(self, motor):
        vs = build_vertex_set(motor.params, (2.46e-6, 1.63e-4), 0.002, mode="euler")
        assert vs.Phi_hat[1, 1] == pytest.approx(-0.002 / 2.06e-5, rel=1e-12)
        assert vs.Phi_hat[1, 1] == pytest.approx(-97.087, rel=1e-5)
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        assert np.all(vs.Phi_hat[mask] == 0.0)

    def test_rejects_non_increasing(self, motor):
        with pytest.raises(ParameterError):
            build_vertex_set(motor.params, (0.0, 0.0), 0.002)
        with pytest.raises(ParameterError):
            build_vertex_set(motor.params, (1e-4,), 0.002)

    def test_two_vertex_affine_difference(self, motor):
        rho = (2.46e-6, 1.63e-4)
        vs = build_vertex_set(motor.params, rho, 0.002, mode="euler")
        diff = vs.Phi_vertices[1] - vs.Phi_vertices[0]
        assert np.allclose(diff, (rho[1] - rho[0]) * vs.Phi_hat, atol=1e-15)

    @given(f=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_euler_affine_in_b_everywhere(self, motor, f):
        b_lo, b_hi = 2.46e-6, 1.63e-4
        vs = build_vertex_set(motor.params, (b_lo, b_hi), 0.002, mode="euler")
        b = b_lo + f * (b_hi - b_lo)
        cm = build_continuous_model(motor.params, b)
        phi_direct, _ = euler_discretize(cm.A, cm.B, 0.002)
        assert np.max(np.abs(phi_direct - (vs.Phi0 + b * vs.Phi_hat))) < 1e-12

    def test_zoh_vertices_independently_discretized(self, motor):
        rho = (2.46e-6, 1.63e-4)
        vs = build_vertex_set(motor.params, rho, 0.002, mode="zoh")
        for r, phi in zip(rho, vs.Phi_vertices):
            cm = build_continuous_model(motor.params, r)
            ref, _ = zoh_discretize(cm.A, cm.B, 0.002)
            assert np.allclose(phi, ref, atol=0, rtol=0)
        # affine fit is exact through two points
        for r, phi in zip(rho, vs.Phi_vertices):
            assert np.allclose(phi, vs.Phi0 + r * vs.Phi_hat, atol=1e-12)

    def test_models_share_gamma_and_h(self, motor):
        vs = build_vertex_set(motor.params, (2.46e-6, 1.63e-4), 0.002)
        models = vs.models()
        assert len(models) == 2
        for mdl in models:
            assert np.array_equal(mdl.Gamma, vs.Gamma)
            assert np.array_equal(mdl.H, [[1.0, 0.0, 0.0]])
            assert mdl.T == 0.002
            assert mdl.H.shape[0] == 1

    def test_with_gains_freezes_only_the_gains(self, motor):
        vs = build_vertex_set(motor.params, (2.46e-6, 1.63e-4), 0.002, mode="zoh")
        gains = [np.ones((1, 3)), np.full((1, 3), 2.0)]
        filled = vs.with_gains(gains)
        gains[0][0, 0] = 5.0
        assert vs.K_vertices is None
        assert [K.tolist() for K in filled.K_vertices] == [[[1.0] * 3], [[2.0] * 3]]
        assert not any(K.flags.writeable for K in filled.K_vertices)
        # the models were validated and frozen when the set was made
        for name in ("rho", "Phi_vertices", "Phi0", "Phi_hat", "Gamma", "H", "T", "mode"):
            assert getattr(filled, name) is getattr(vs, name)

    def test_refuses_a_non_finite_discrete_model(self, motor):
        # an electrical pole out of float range: expm returns NaN
        tiny = dataclasses.replace(motor.params, Lm=1e-150)
        with pytest.raises(ParameterError, match="zoh discrete model at T = 0.002 s is not finite"):
            build_vertex_set(tiny, (2.46e-6, 1.63e-4), 0.002, mode="zoh")

    def test_with_gains_requires_one_per_vertex(self, motor):
        vs = build_vertex_set(motor.params, (2.46e-6, 1.63e-4), 0.002)
        with pytest.raises(ParameterError):
            vs.with_gains([np.zeros((1, 3))])
