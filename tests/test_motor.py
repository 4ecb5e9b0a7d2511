import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _domega, euler_vertices_affine
from scipy.linalg import expm

from mapsched.errors import ParameterError
from mapsched.estimation import FILTER_Q, FILTER_R, FilterBank, default_transition_matrix
from mapsched.motor import (
    DISCRETIZERS,
    OMEGA_REST,
    FrictionModel,
    VertexSet,
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
        A, B = build_continuous_model(motor, 1.0e-5)
        assert A[1, 1] == pytest.approx(-1.0e-5 / 2.06e-5, rel=1e-12)
        assert A[1, 2] == pytest.approx(motor.Kt / motor.Jeq, rel=1e-12)
        assert A[1, 2] == pytest.approx(2038.83, rel=1e-5)
        assert A[2, 2] == pytest.approx(-7241.38, rel=1e-6)
        assert A[2, 1] == pytest.approx(-motor.Ke / motor.Lm, rel=1e-12)
        assert np.array_equal(B.ravel(), [0.0, 0.0, 1.0 / motor.Lm])

    def test_zero_friction(self, motor):
        A, _ = build_continuous_model(motor, 0.0)
        assert A[1, 1] == 0.0
        assert A[1, 2] == pytest.approx(2038.83, rel=1e-5)

    def test_max_friction(self, motor):
        A, _ = build_continuous_model(motor, 1.63e-4)
        assert A[1, 1] == pytest.approx(-7.9126, rel=1e-4)

    def test_jeq_is_sum_of_inertias(self, motor):
        assert motor.Jeq == pytest.approx(motor.Jr + motor.Jh + motor.Jd, rel=0, abs=0)
        assert motor.Jeq == pytest.approx(2.06e-5)

    def test_nonpositive_parameters_rejected(self, motor):
        with pytest.raises(ParameterError):
            dataclasses.replace(motor, Lm=0.0)
        with pytest.raises(ParameterError):
            dataclasses.replace(motor, Jr=-1e-6)
        with pytest.raises(ParameterError):
            build_continuous_model(motor, -1e-6)

    @given(b=st.floats(min_value=0.0, max_value=1e-2))
    @settings(max_examples=50, deadline=None)
    def test_structural_zeros_for_all_b(self, motor, b):
        A, B = build_continuous_model(motor, b)
        assert A[0, 0] == 0.0 and A[0, 2] == 0.0 and A[0, 1] == 1.0
        assert A[1, 0] == 0.0 and A[2, 0] == 0.0
        assert B[0, 0] == 0.0 and B[1, 0] == 0.0


class TestForwardEuler:
    def test_zero_dynamics_gives_identity(self):
        B = np.array([[0.0], [0.0], [5.0]])
        Phi, Gamma = euler_discretize(np.zeros((3, 3)), B, 0.01)
        assert np.array_equal(Phi, np.eye(3))
        assert np.array_equal(Gamma, 0.01 * B)

    def test_motor_entries(self, motor):
        A, B = build_continuous_model(motor, 1.0e-5)
        Phi, _ = euler_discretize(A, B, 0.002)
        assert Phi[1, 1] == pytest.approx(0.9990291, abs=1e-7)
        assert Phi[1, 2] == pytest.approx(4.07767, rel=1e-6)
        assert Phi[2, 2] == pytest.approx(-13.4828, rel=1e-5)
        assert np.allclose(Phi, np.eye(3) + 0.002 * A, atol=0, rtol=0)

    def test_gamma_is_t_over_lm(self, motor):
        _, Gamma = euler_discretize(*build_continuous_model(motor, motor.b_m), 0.002)
        assert Gamma[2, 0] == pytest.approx(0.002 / 0.00116, rel=1e-12)
        assert Gamma[2, 0] == pytest.approx(1.72414, rel=1e-5)
        assert Gamma[0, 0] == 0.0 and Gamma[1, 0] == 0.0

    def test_requires_positive_sample_time(self, motor):
        # the motor refuses it, so no design ever discretizes at it
        for T in (0.0, -0.002, math.nan):
            with pytest.raises(ParameterError, match="sample_time must be positive"):
                dataclasses.replace(motor, sample_time=T)


# the sample times the ZOH oracle spans, 10 us to 10 ms
ZOH_SAMPLE_TIMES = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 2e-3, 3e-3, 1e-2)


class TestExactZoh:
    @pytest.mark.parametrize("A, B", [
        (np.zeros((3, 3)), [[1.0], [2.0], [3.0]]),      # no theta' = omega
        ([[-1.0]], [[1.0]]),                           # not a motor's size
        ([[0.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, -1.0, -1.0]],
         [[0.0], [1.0], [1.0]]),                       # the input drives omega
    ], ids=["zero-dynamics", "scalar", "input-on-omega"])
    def test_refuses_a_pair_without_the_motor_structure(self, A, B):
        with pytest.raises(ParameterError, match="needs a motor's"):
            zoh_discretize(A, B, 0.002)

    @pytest.mark.parametrize("block", [
        [[-1.0, 1.0], [-1.0, -1.0]],                   # complex modes
        [[-2.0, 1.0], [0.0, -2.0]],                    # a double mode
        [[0.0, 1.0], [-1.0, -2.0]],                    # a double mode at -1
        [[0.5, 1.0], [0.0, -1.0]],                     # a growing mode
    ], ids=["complex", "double", "double-coupled", "unstable"])
    def test_refuses_modes_that_are_not_real_distinct_and_negative(self, block):
        A = np.zeros((3, 3))
        A[0, 1], A[1:, 1:] = 1.0, block
        with pytest.raises(ParameterError, match="real, distinct, negative"):
            zoh_discretize(A, [[0.0], [0.0], [1.0]], 0.002)

    # past 10 ms expm's scaling and squaring loses digits (2.6e-14 per
    # entry at T = 0.2 s against a 60-digit exponential, 1.3e-12 at 1 s,
    # where the closed form is within 1.1e-14), so the long ticks, which
    # also take the slow mode's recurrence, are held to 1e-13
    @pytest.mark.parametrize("T, bound", [*((T, 2e-15) for T in ZOH_SAMPLE_TIMES),
                                          (0.2, 1e-13), (1.0, 1e-13)])
    def test_matches_expm_at_each_vertex(self, motor, T, bound):
        # scipy's augmented-matrix exponential is the oracle: every entry of
        # Phi and Gamma agrees within 2e-15 of the largest from T = 10 us to
        # 10 ms, at b_min, b_m, b_max and the top of the scheduled range;
        # Phi's first column is e0
        for b in (motor.b_min, motor.b_m, motor.b_max, 10.0 * motor.b_max):
            A, B = build_continuous_model(motor, b)
            M = np.zeros((4, 4))
            M[:3, :3], M[:3, 3:] = A, B
            E = expm(M * T)
            Phi, Gamma = zoh_discretize(A, B, T)
            assert Phi[:, 0].tolist() == [1.0, 0.0, 0.0]
            assert np.max(np.abs(Phi - E[:3, :3])) <= bound * np.max(np.abs(E[:3, :3]))
            assert np.max(np.abs(Gamma - E[:3, 3:])) <= bound * np.max(np.abs(E[:3, 3:]))

    def test_motor_matches_series_oracle(self, motor):
        A, B = build_continuous_model(motor, motor.b_m)
        Phi, _ = zoh_discretize(A, B, 0.002)
        ref = expm_series(A * 0.002)
        assert np.allclose(Phi, ref, rtol=1e-9, atol=1e-12)

    def test_motor_spectral_radius_at_most_one(self, motor):
        Phi, _ = zoh_discretize(*build_continuous_model(motor, motor.b_m), 0.002)
        assert np.max(np.abs(np.linalg.eigvals(Phi))) <= 1.0 + 1e-12

    def test_first_order_agreement_with_euler(self, motor):
        # || Phi_zoh - Phi_euler || = O(T^2): errors at T and T/10 differ ~100x
        A, B = build_continuous_model(motor, motor.b_m)
        errs = []
        for T in (1e-5, 1e-6):
            pz, _ = zoh_discretize(A, B, T)
            pe, _ = euler_discretize(A, B, T)
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
    def test_euler_vertices_differ_only_in_the_viscous_entry(self, motor_euler):
        # Phi(rho) = I + T A(rho): rho enters A only at [1, 1], as -rho / Jeq
        rho = (2.46e-6, 1.63e-4)
        vs = build_vertex_set(motor_euler)
        diff = vs.Phi_vertices[1] - vs.Phi_vertices[0]
        assert diff[1, 1] / (rho[1] - rho[0]) == pytest.approx(-0.002 / 2.06e-5, rel=1e-12)
        assert diff[1, 1] / (rho[1] - rho[0]) == pytest.approx(-97.087, rel=1e-5)
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        assert np.all(diff[mask] == 0.0)

    def test_rejects_non_increasing(self, motor):
        # a motor with an empty friction range is refused before any design
        with pytest.raises(ParameterError, match="need 0 <= b_min < b_max"):
            dataclasses.replace(motor, b_max=motor.b_min)
        # MAPS schedules between two friction modes: a set has two vertices
        vs = build_vertex_set(motor)
        for rho, message in (((0.0, 0.0), "strictly increasing"),
                             ((1e-4,), "2 vertices, got 1"),
                             ((2.46e-6, 8.3e-5, 1.63e-4), "2 vertices, got 3")):
            with pytest.raises(ParameterError, match=message):
                dataclasses.replace(vs, rho=rho)

    def test_two_vertex_affine_difference(self, motor_euler):
        # the two Euler vertices of any set differ by -(rho_1 - rho_0) T / Jeq
        # at [1, 1]
        slope = np.zeros((3, 3))
        slope[1, 1] = -0.002 / motor_euler.Jeq
        for rho in ((2.46e-6, 8.3e-5), (8.3e-5, 1.63e-4), (2.46e-6, 1.63e-4)):
            lo, hi = build_vertex_set(
                dataclasses.replace(motor_euler, b_min=rho[0], b_max=rho[1])).Phi_vertices
            assert np.allclose(hi - lo, (rho[1] - rho[0]) * slope, rtol=0, atol=1e-15)

    @given(f=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_euler_affine_in_b_everywhere(self, motor_euler, f):
        # the Euler map at any b between the vertices is their interpolation
        b_lo, b_hi = 2.46e-6, 1.63e-4
        vs = build_vertex_set(motor_euler)
        b = b_lo + f * (b_hi - b_lo)
        phi_direct, _ = euler_discretize(*build_continuous_model(motor_euler, b), 0.002)
        lo, hi = vs.Phi_vertices
        frac = (b - b_lo) / (b_hi - b_lo)
        assert np.max(np.abs(phi_direct - (lo + frac * (hi - lo)))) < 1e-12

    @pytest.mark.parametrize("changes", [
        {},
        *({"sample_time": T, "b_max": b} for T in (0.001, 0.002) for b in (1.63e-4, 6e-4)),
    ], ids=["stock", "1ms-stock", "1ms-6e-4", "2ms-stock", "2ms-6e-4"])
    def test_euler_rule_is_the_affine_construction_bit_for_bit(self, motor, changes):
        # I + T A(b_i) at each vertex, on the stock motor and the Euler
        # points of the benchmark's design grid, has the bits of the affine
        # family Phi0 + rho Phi_hat, and Gamma those of T B
        euler = dataclasses.replace(motor, discretization="euler", **changes)
        got, ref = build_vertex_set(euler), euler_vertices_affine(euler)
        for a, b in zip((*got.Phi_vertices, got.Gamma), (*ref.Phi_vertices, ref.Gamma)):
            assert a.tobytes() == b.tobytes()

    @given(name=st.sampled_from(("euler", "zoh", "ZOH", "Euler", "tustin", "", "zoh "))
           | st.text(max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_motor_accepts_exactly_the_table_names(self, motor, name):
        if name in DISCRETIZERS:
            assert dataclasses.replace(motor, discretization=name).discretization == name
        else:
            with pytest.raises(ParameterError,
                               match="^discretization must be 'euler' or 'zoh'$"):
                dataclasses.replace(motor, discretization=name)

    def test_a_table_entry_is_a_discretization(self, motor_euler, monkeypatch):
        # the motor's refusal and the vertex rule both read the table: an
        # entry added to it is accepted and builds every vertex
        def doubled(A, B, T):
            return euler_discretize(A, B, 2.0 * T)

        monkeypatch.setitem(DISCRETIZERS, "doubled", doubled)
        vs = build_vertex_set(dataclasses.replace(motor_euler, discretization="doubled"))
        ref = build_vertex_set(
            dataclasses.replace(motor_euler, sample_time=2.0 * motor_euler.sample_time))
        assert vs.mode == "doubled" and vs.T == motor_euler.sample_time
        for a, b in zip((*vs.Phi_vertices, vs.Gamma), (*ref.Phi_vertices, ref.Gamma)):
            assert a.tobytes() == b.tobytes()

    def test_zoh_vertices_independently_discretized(self, motor):
        rho = (2.46e-6, 1.63e-4)
        vs = build_vertex_set(dataclasses.replace(motor, discretization="zoh"))
        for r, phi in zip(rho, vs.Phi_vertices):
            ref, _ = zoh_discretize(*build_continuous_model(motor, r), 0.002)
            assert np.allclose(phi, ref, atol=0, rtol=0)

    def test_models_share_gamma_and_h(self, motor):
        # one Phi per vertex and the one Gamma of the set; the measurement
        # row H = e0 is the filter bank's, which takes the arrays as they are
        vs = build_vertex_set(motor)
        assert len(vs.Phi_vertices) == 2
        assert vs.Gamma.shape == (3, 1) and vs.T == 0.002
        FilterBank(vs.Phi_vertices, vs.Gamma, default_transition_matrix(2), FILTER_Q, FILTER_R)

    def test_replace_fills_frozen_gain_copies(self, motor):
        vs = build_vertex_set(dataclasses.replace(motor, discretization="zoh"))
        gains = [np.ones((1, 3)), np.full((1, 3), 2.0)]
        filled = dataclasses.replace(vs, K_vertices=gains)
        gains[0][0, 0] = 5.0
        assert vs.K_vertices is None
        assert [K.tolist() for K in filled.K_vertices] == [[[1.0] * 3], [[2.0] * 3]]
        assert not any(K.flags.writeable for K in filled.K_vertices)
        # the models are validated and frozen again, as copies of the same values
        assert (filled.rho, filled.T, filled.mode) == (vs.rho, vs.T, vs.mode)
        for a, b in zip((*filled.Phi_vertices, filled.Gamma), (*vs.Phi_vertices, vs.Gamma)):
            assert np.array_equal(a, b) and not a.flags.writeable

    def test_refuses_a_non_finite_discrete_model(self, motor):
        # an Euler tick so long that T A overflows: Phi holds inf
        long_tick = dataclasses.replace(motor, sample_time=1e306, discretization="euler")
        with pytest.raises(ParameterError,
                           match="euler discrete model at T = 1e[+]306 s is not finite"):
            build_vertex_set(long_tick)

    def test_zoh_maps_an_electrical_pole_past_float_range(self, motor):
        # Lm = 1e-150 puts the electrical pole at -7.2e153 /s: the closed
        # form maps it to e^(lam T) = 0 and the current to its quasi-static
        # value, every entry finite; Euler's Phi reaches 1.7e148
        tiny = dataclasses.replace(motor, Lm=1e-150, discretization="zoh")
        vs = build_vertex_set(tiny)
        for a in (*vs.Phi_vertices, vs.Gamma):
            assert np.isfinite(a).all()
        assert max(abs(phi[2, 2]) for phi in vs.Phi_vertices) < 1e-140

    @pytest.mark.parametrize("T", [0.0, -0.002, math.nan])
    def test_refuses_a_non_positive_sample_time(self, motor, T):
        vs = build_vertex_set(motor)
        with pytest.raises(ParameterError, match="sample time must be positive"):
            VertexSet(rho=vs.rho, Phi_vertices=vs.Phi_vertices, Gamma=vs.Gamma, T=T,
                      mode=vs.mode)

    def test_gains_require_one_per_vertex(self, motor):
        vs = build_vertex_set(motor)
        with pytest.raises(ParameterError, match="one gain row per vertex required"):
            dataclasses.replace(vs, K_vertices=[np.zeros((1, 3))])


# builds the stock ZOH vertex set and prints the bytes of its Phi and Gamma
_ZOH_BYTES_CHILD = """
from mapsched.config import load_motor_config
from mapsched.motor import build_vertex_set
vs = build_vertex_set(load_motor_config())
print(b"".join(a.tobytes() for a in (*vs.Phi_vertices, vs.Gamma)).hex())
"""


def test_zoh_vertex_bytes_do_not_depend_on_the_blas_kernel():
    # the closed form is scalar `math`, so the kernel OpenBLAS picks for the
    # CPU, Haswell's and Sandybridge's build the same vertex floats
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    found = {}
    for kernel in ("", "Haswell", "Sandybridge"):
        done = subprocess.run([sys.executable, "-c", _ZOH_BYTES_CHILD],
                              env={**env, **({"OPENBLAS_CORETYPE": kernel} if kernel else {})},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        found[kernel or "default"] = done.stdout.strip()
    assert len(set(found.values())) == 1, found
