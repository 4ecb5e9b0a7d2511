import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from mapsched import control
from mapsched.cli import gain_report
from mapsched.control import (
    Q_LQR,
    R_LQR,
    _gain_and_defect,
    control_input,
    maps_gain,
    solve_dare,
    synthesize_vertex_gains,
)
from mapsched.errors import NumericalError, ParameterError
from mapsched.estimation import FILTER_Q, FILTER_R
from mapsched.harness import design_from_motor
from mapsched.motor import build_vertex_set

B_MIN, B_MAX = 2.46e-6, 1.63e-4


def scalar_model(phi, gamma):
    """(Phi, Gamma) of the scalar model x+ = phi x + gamma u."""
    return np.array([[phi]]), np.array([[gamma]])


def scalar_weights(q, r):
    """(Q, R) of the scalar cost q x^2 + r u^2."""
    return np.array([[q]]), np.array([[r]])


class TestSolveDare:
    def test_scalar_golden_ratio(self):
        sol = solve_dare(*scalar_model(1.0, 1.0), *scalar_weights(1.0, 1.0))
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert sol.P[0, 0] == pytest.approx(golden, abs=1e-10)
        assert sol.K[0, 0] == pytest.approx(golden / (1.0 + golden), abs=1e-10)

    def test_scalar_zero_phi(self):
        sol = solve_dare(*scalar_model(0.0, 1.0), *scalar_weights(3.0, 1.0))
        assert sol.P[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert sol.K[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    def test_motor_vertices_stabilized(self, motor, mode):
        vs = build_vertex_set(dataclasses.replace(motor, discretization=mode))
        vs = synthesize_vertex_gains(vs)
        for phi, K in zip(vs.Phi_vertices, vs.K_vertices):
            closed = phi - vs.Gamma @ K
            assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0

    def test_matches_scipy_solution(self, motor, vertices_zoh):
        for phi in vertices_zoh.Phi_vertices:
            sol = solve_dare(phi, vertices_zoh.Gamma, Q_LQR, R_LQR)
            ref = solve_discrete_are(phi, vertices_zoh.Gamma, Q_LQR, R_LQR)
            assert np.allclose(sol.P, ref, rtol=1e-8, atol=1e-8)

    def test_residual_bound_holds(self, vertices_euler):
        for phi in vertices_euler.Phi_vertices:
            sol = solve_dare(phi, vertices_euler.Gamma, Q_LQR, R_LQR)
            assert sol.residual <= 1e-9
            _, defect, scale = _gain_and_defect(phi, vertices_euler.Gamma, Q_LQR, R_LQR, sol.P)
            assert defect <= 1e-9 and defect <= 1e-14 * scale

    def test_pinned_gains_euler_1ms(self, motor_euler):
        # Euler, T = 1 ms, b_max = 6e-4: the b_max vertex took the former
        # fixed-point iteration to its 100k-step cap; these gains are what
        # that iteration returned
        pinned = (
            [0.4876469109705959, 0.01393943684978135, -6.956799150669618],
            [0.4926684553752959, -0.0006540751422416855, -6.980618093608604],
        )
        vs = build_vertex_set(dataclasses.replace(motor_euler, b_max=6e-4, sample_time=0.001))
        for phi, K_ref in zip(vs.Phi_vertices, pinned):
            K = solve_dare(phi, vs.Gamma, Q_LQR, R_LQR).K.reshape(-1)
            assert np.max(np.abs(K - K_ref)) <= 1e-12 * np.max(np.abs(K_ref))

    def test_unstabilizable_pair_rejected(self):
        # uncontrollable unstable mode: Gamma = 0
        with pytest.raises(NumericalError, match="likely not stabilizable"):
            solve_dare(*scalar_model(2.0, 0.0), *scalar_weights(1.0, 1.0))

    def test_model_out_of_float_range_is_named(self, motor_euler):
        # an Euler electrical pole 1 - T Rm / Lm of -1.7e148 (Lm = 1e-150):
        # the solve fails because the model is past float64 round-off, not
        # because the pair is not stabilizable
        tiny = dataclasses.replace(motor_euler, Lm=1e-150)
        vs = build_vertex_set(tiny)
        with pytest.raises(NumericalError, match="reach 1.68e[+]148.*out of float range"):
            solve_dare(vs.Phi_vertices[0], vs.Gamma, Q_LQR, R_LQR)

    def test_non_finite_gain_is_a_numerical_failure(self, monkeypatch, vertices_euler):
        # a Riccati solution so large that the gain overflows to NaN is
        # refused by the eigenvalue solver: a numerical failure, no warning
        monkeypatch.setattr(control, "riccati_doubling", lambda *args: np.full((3, 3), 1e308))
        with warnings.catch_warnings(), pytest.raises(NumericalError,
                                                      match="no stabilizing solution"):
            warnings.simplefilter("error")
            solve_dare(vertices_euler.Phi_vertices[0], vertices_euler.Gamma, Q_LQR, R_LQR)


class TestVertexGains:
    def test_identical_vertices_equal_gains(self, motor):
        vs = build_vertex_set(motor)
        # same Phi at both corners
        same = dataclasses.replace(vs, Phi_vertices=(vs.Phi_vertices[0], vs.Phi_vertices[0]))
        got = synthesize_vertex_gains(same)
        assert np.allclose(got.K_vertices[0], got.K_vertices[1], atol=1e-12)

    def test_distinct_vertices_distinct_gains(self, vertices_euler):
        K1, K2 = vertices_euler.K_vertices
        assert not np.allclose(K1, K2)

    def test_riccati_not_affine_in_rho(self, motor):
        # gain at the midpoint is close to but not exactly the mean of the
        # corner gains: the Riccati map is nonlinear in the parameter. Each
        # vertex's gain is solved on its own, so the b_min gain of both
        # designs is the same
        mid = 0.5 * (B_MIN + B_MAX)
        K_lo, K_mid = synthesize_vertex_gains(
            build_vertex_set(dataclasses.replace(motor, b_max=mid))).K_vertices
        K_corner, K_hi = synthesize_vertex_gains(build_vertex_set(motor)).K_vertices
        assert K_corner.tobytes() == K_lo.tobytes()
        avg = 0.5 * (K_lo + K_hi)
        gap = float(np.max(np.abs(K_mid - avg)))
        assert gap > 1e-10


GRID = list(itertools.product(("euler", "zoh"), (0.001, 0.002), (1.63e-4, 6e-4)))


def fresh_gains(vertices) -> list:
    """Gain bytes of a fresh `solve_dare` of each vertex, past the memo."""
    return [solve_dare(phi, vertices.Gamma, Q_LQR, R_LQR).K.tobytes()
            for phi in vertices.Phi_vertices]


class TestGainMemo:
    @pytest.mark.parametrize("mode, T, b_max", GRID)
    def test_hit_is_bit_identical_to_a_fresh_solve(self, motor, mode, T, b_max):
        designed = dataclasses.replace(motor, discretization=mode, sample_time=T, b_max=b_max)
        first = design_from_motor(designed)
        hits = control._vertex_solution.cache_info().hits
        again = design_from_motor(designed)
        assert control._vertex_solution.cache_info().hits == hits + len(again.rho)
        want = fresh_gains(again)
        assert [K.tobytes() for K in first.K_vertices] == want
        assert [K.tobytes() for K in again.K_vertices] == want

    def test_failed_solve_is_not_kept(self, monkeypatch, motor):
        def fails(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        control._vertex_solution.cache_clear()
        monkeypatch.setattr(control, "riccati_doubling", fails)
        for _ in range(2):
            with pytest.raises(NumericalError, match="no stabilizing solution"):
                design_from_motor(motor)
        assert control._vertex_solution.cache_info().currsize == 0
        monkeypatch.undo()
        vertices = design_from_motor(motor)
        assert [K.tobytes() for K in vertices.K_vertices] == fresh_gains(vertices)

    def test_memo_stays_within_its_bound(self, motor):
        # each sample time makes both vertex problems of the design new
        control._vertex_solution.cache_clear()
        designs = control.GAIN_MEMO_SIZE // 2 + 4
        for T in np.linspace(0.001, 0.003, designs).tolist():
            synthesize_vertex_gains(build_vertex_set(dataclasses.replace(motor, sample_time=T)))
        info = control._vertex_solution.cache_info()
        assert info.misses == 2 * designs
        assert info.currsize == control.GAIN_MEMO_SIZE

    def test_gains_are_read_only(self, motor):
        vertices = design_from_motor(motor)
        for K, held in zip(vertices.K_vertices, control.vertex_solutions(vertices)):
            for array in (K, held.K, held.P):
                with pytest.raises(ValueError):
                    array[0, 0] = 1.0


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
    solutions = [solve_dare(phi, vertices_euler.Gamma, Q_LQR, R_LQR)
                 for phi in vertices_euler.Phi_vertices]
    report = gain_report(vertices_euler, solutions)
    assert report["mode"] == "euler"
    assert len(report["vertices"]) == 2
    for entry, solution in zip(report["vertices"], solutions):
        assert len(entry["K"]) == 3
        assert all(mod < 1.0 for mod in entry["closed_loop_eigenvalue_moduli"])
        assert entry["riccati_residual"] == solution.residual
        assert entry["P"] == solution.P.tolist()


@pytest.mark.parametrize("design", ["vertices_euler", "vertices_zoh"])
def test_gain_report_moduli_are_the_closed_loop_spectrum(request, design):
    # the moduli solve_dare keeps from its Schur check are the ones the
    # report would form itself from the design's gains, bit for bit
    vertices = request.getfixturevalue(design)
    report = gain_report(vertices, control.vertex_solutions(vertices))
    for entry, phi, K in zip(report["vertices"], vertices.Phi_vertices, vertices.K_vertices):
        want = sorted(float(m) for m in np.abs(np.linalg.eigvals(phi - vertices.Gamma @ K)))
        assert np.array(entry["closed_loop_eigenvalue_moduli"]).tobytes() == \
            np.array(want).tobytes()


def test_gain_report_requires_gains(motor):
    bare = build_vertex_set(motor)
    solutions = [solve_dare(phi, bare.Gamma, Q_LQR, R_LQR) for phi in bare.Phi_vertices]
    with pytest.raises(ParameterError, match="gains have not been synthesized"):
        gain_report(bare, solutions)


@pytest.mark.parametrize("Q, R", [(Q_LQR, R_LQR), (FILTER_Q, FILTER_R)],
                         ids=["lqr", "filter"])
def test_stock_weights_are_read_only_and_definite(Q, R):
    # Q positive semidefinite, R positive definite, neither writable
    assert Q.shape == (3, 3) and R.shape == (1, 1)
    assert np.array_equal(Q, Q.T)
    assert np.all(np.linalg.eigvalsh(Q) >= 0.0)
    assert np.all(np.linalg.eigvalsh(R) > 0.0)
    for held in (Q, R):
        with pytest.raises(ValueError):
            held[0, 0] = 1.0
