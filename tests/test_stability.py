import dataclasses
import itertools

import numpy as np
import pytest
from reference import certify_checked, gains_by_replace

from mapsched.control import solve_dare, synthesize_vertex_gains
from mapsched.errors import CertificationError, ParameterError
from mapsched.harness import design_from_motor
from mapsched.motor import build_vertex_set
from mapsched.stability import (
    MismatchAssumptions,
    StabilityCert,
    certify,
    dlyap_series,
    epsilon_star,
    find_common_lyapunov,
    lipschitz_constants,
    sample_simplex,
    vertex_margins,
    verify_convex_stability,
)


class TestLyapunovSeries:
    def test_scalar_geometric_sum(self):
        P = dlyap_series(np.array([[0.5]]))
        assert P[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        margins = vertex_margins(P, [np.array([[0.5]])])
        assert margins[0] == pytest.approx(1.0, rel=1e-12)

    def test_nilpotent_one_step(self):
        P = dlyap_series(np.zeros((3, 3)))
        assert np.allclose(P, np.eye(3))
        assert vertex_margins(P, [np.zeros((3, 3))])[0] == pytest.approx(1.0)

    def test_rejects_unstable(self):
        from mapsched.errors import NumericalError

        with pytest.raises(NumericalError):
            dlyap_series(np.array([[1.0]]))

    def test_matches_scipy(self, vertices_euler):
        from scipy.linalg import solve_discrete_lyapunov

        A = vertices_euler.Phi_vertices[0] - vertices_euler.Gamma @ vertices_euler.K_vertices[0]
        P = dlyap_series(A)
        ref = solve_discrete_lyapunov(A.T, np.eye(3))
        assert np.allclose(P, ref, rtol=1e-9, atol=1e-9)


def closed_loops(vs):
    return [phi - vs.Gamma @ K for phi, K in zip(vs.Phi_vertices, vs.K_vertices)]


class TestCommonLyapunov:
    # regression constants from the first certification run of the stock
    # motor pair; they only move if the search or the models change
    PINNED_ALPHA = {"vertices_euler": 0.47214416, "vertices_zoh": 0.95597200}

    @pytest.mark.parametrize("fixture", ["vertices_euler", "vertices_zoh"])
    def test_motor_pair_certifies(self, request, fixture):
        vs = request.getfixturevalue(fixture)
        search = find_common_lyapunov(closed_loops(vs))
        assert search.certified
        assert search.worst_margin > 0.0
        assert search.worst_margin == pytest.approx(self.PINNED_ALPHA[fixture], rel=1e-4)
        assert np.all(search.vertex_margins > 0.0)
        assert np.all(np.linalg.eigvalsh(search.P) > 0.0)

    def test_single_system(self):
        search = find_common_lyapunov([np.array([[0.5]])])
        assert search.certified
        assert search.worst_margin == pytest.approx(1.0, rel=1e-12)

    def test_rejects_unstable_vertex(self):
        with pytest.raises(ParameterError):
            find_common_lyapunov([np.array([[0.5]]), np.array([[1.5]])])


class TestConvexVerification:
    def test_sampled_margins_positive_seed_42(self, vertices_euler):
        loops = closed_loops(vertices_euler)
        search = find_common_lyapunov(loops)
        worst = verify_convex_stability(search.P, loops, n_samples=1000, seed=42)
        assert worst > 0.0

    def test_deterministic_given_seed(self, vertices_euler):
        loops = closed_loops(vertices_euler)
        search = find_common_lyapunov(loops)
        a = verify_convex_stability(search.P, loops, n_samples=100, seed=7)
        b = verify_convex_stability(search.P, loops, n_samples=100, seed=7)
        assert a == b

    def test_single_system_sample_equals_vertex_margin(self):
        A = np.array([[0.5]])
        P = dlyap_series(A)
        worst = verify_convex_stability(P, [A], n_samples=10, seed=0)
        assert worst == pytest.approx(vertex_margins(P, [A])[0], rel=1e-12)

    def test_corner_weights_reproduce_vertex_margins(self, vertices_euler):
        loops = closed_loops(vertices_euler)
        search = find_common_lyapunov(loops)
        for i, A in enumerate(loops):
            got = -float(np.linalg.eigvalsh(A.T @ search.P @ A - search.P)[-1])
            assert got == pytest.approx(search.vertex_margins[i], rel=1e-9)

    @pytest.mark.parametrize("mode, T, b_max", list(itertools.product(
        ("euler", "zoh"), (0.001, 0.002), (1.63e-4, 6e-4))))
    def test_sampled_margin_never_below_worst_vertex(self, motor, mode, T, b_max):
        # A -> A'PA is matrix-convex, so the decrease margin is concave over
        # the simplex and its minimum sits at a vertex: the vertex margins
        # alone decide certification
        motor = dataclasses.replace(motor, b_max=b_max, sample_time=T, discretization=mode)
        loops = closed_loops(design_from_motor(motor))
        search = find_common_lyapunov(loops)
        assert search.certified
        assert verify_convex_stability(search.P, loops) >= search.worst_margin

    def test_sampled_combinations_schur_stable(self, vertices_euler):
        loops = np.stack(closed_loops(vertices_euler))
        for w in sample_simplex(1000, 2, seed=42):
            A = np.tensordot(w, loops, axes=1)
            assert np.max(np.abs(np.linalg.eigvals(A))) < 1.0


class TestLipschitzConstants:
    def test_euler_lphi_is_phi_hat_norm(self, vertices_euler):
        L_phi, _, _ = lipschitz_constants(vertices_euler, vertices_euler.Gamma)
        assert L_phi == pytest.approx(0.002 / 2.06e-5, rel=1e-9)
        assert L_phi == pytest.approx(97.087, rel=1e-5)

    def test_identical_vertices_zero_lphi(self, vertices_euler):
        same = dataclasses.replace(
            vertices_euler,
            Phi_vertices=(vertices_euler.Phi_vertices[0], vertices_euler.Phi_vertices[0]),
            Phi_hat=np.zeros((3, 3)),
            Phi0=vertices_euler.Phi_vertices[0],
            K_vertices=(vertices_euler.K_vertices[0], vertices_euler.K_vertices[0]),
            mode="zoh",
        )
        L_phi, L_k, L = lipschitz_constants(same, vertices_euler.Gamma)
        assert L_phi == 0.0 and L_k == 0.0 and L == 0.0

    def test_l_scales_with_gamma(self, vertices_euler):
        _, _, L1 = lipschitz_constants(vertices_euler, vertices_euler.Gamma)
        L_phi, L_k, L2 = lipschitz_constants(vertices_euler, 2.0 * vertices_euler.Gamma)
        assert L2 - L_phi == pytest.approx(2.0 * (L1 - L_phi), rel=1e-9)


class TestEpsilonStar:
    def test_plug_in_formula(self):
        eps, C, lam = epsilon_star(np.diag([1.0, 2.0]), alpha=1.0, L=1.0, epsilon=0.0)
        assert eps == pytest.approx(0.5, rel=1e-12)
        assert C == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_identity_p(self):
        eps, C, lam = epsilon_star(np.eye(2), alpha=1.0, L=1.0, epsilon=0.0)
        assert eps == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert C == 1.0

    def test_large_l_shrinks_budget(self):
        eps1, _, _ = epsilon_star(np.eye(2), alpha=1.0, L=10.0, epsilon=0.0)
        eps2, _, _ = epsilon_star(np.eye(2), alpha=1.0, L=1000.0, epsilon=0.0)
        assert eps2 < eps1 < 1.0

    def test_monotonicity_grid(self):
        # eps_star falls with L and lambda_max(P), rises with alpha
        alphas = [0.1, 0.5, 0.9]
        pmaxes = [1.0, 5.0, 20.0]
        ls = [1.0, 10.0, 100.0]
        values = {}
        for a, p, l in itertools.product(alphas, pmaxes, ls):
            values[(a, p, l)] = epsilon_star(np.diag([0.5, p]), alpha=a, L=l, epsilon=0.0)[0]
        for a, p, l in itertools.product(alphas, pmaxes, ls):
            for a2 in alphas:
                if a2 > a:
                    assert values[(a2, p, l)] > values[(a, p, l)]
            for p2 in pmaxes:
                if p2 > p:
                    assert values[(a, p2, l)] < values[(a, p, l)]
            for l2 in ls:
                if l2 > l:
                    assert values[(a, p, l2)] < values[(a, p, l)]

    def test_epsilon_beyond_budget_rejected(self):
        with pytest.raises(CertificationError):
            epsilon_star(np.eye(2), alpha=1.0, L=1.0, epsilon=10.0)

    def test_requires_positive_definite_p(self):
        with pytest.raises(ParameterError):
            epsilon_star(np.diag([1.0, 0.0]), alpha=1.0, L=1.0)


class TestCertify:
    def test_full_pipeline_euler(self, vertices_euler):
        cert = certify(vertices_euler)
        assert cert.alpha > 0.0
        assert cert.alpha == float(np.min(cert.vertex_margins))
        assert np.isfinite(cert.eps_star) and cert.eps_star > 0.0
        assert np.isfinite(cert.C) and cert.C >= 1.0
        assert 0.0 < cert.lambda_ < 1.0

    def test_reports_assumed_epsilon(self, vertices_zoh):
        cert0 = certify(vertices_zoh)
        eps = 0.25 * cert0.eps_star
        cert = certify(vertices_zoh, assumptions=MismatchAssumptions(epsilon=eps))
        assert cert.epsilon_used == eps
        # smaller mismatch leaves more decrease: faster certified rate
        assert cert.lambda_ < certify(
            vertices_zoh, assumptions=MismatchAssumptions(epsilon=0.9 * cert0.eps_star)
        ).lambda_

    def test_gains_required(self, motor):
        bare = build_vertex_set(motor.params, (2.46e-6, 1.63e-4), 0.002)
        with pytest.raises(ParameterError):
            certify(bare)


class TestPerturbedSchedulingBound:
    def test_trajectory_bounded_by_certified_envelope(self, vertices_euler):
        # regulation run with the scheduling value perturbed by half the
        # certified mismatch budget: the state stays under C * lambda^k * |x0|
        cert = certify(vertices_euler)
        eps = 0.5 * cert.eps_star
        loops = np.stack(closed_loops(vertices_euler))
        rng = np.random.default_rng(42)
        lo, hi = vertices_euler.rho
        x = np.array([1.0, 0.0, 0.0])
        x0_norm = float(np.linalg.norm(x))
        rho_true = 0.5 * (lo + hi)
        for k in range(400):
            rho_hat = float(np.clip(rho_true + rng.uniform(-eps, eps), lo, hi))
            frac = (rho_hat - lo) / (hi - lo)
            mu = np.array([1.0 - frac, frac])
            A = np.tensordot(mu, loops, axes=1)
            x = A @ x
            bound = cert.C * cert.lambda_ ** (k + 1) * x0_norm * 1.1
            assert float(np.linalg.norm(x)) <= bound


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the benchmark's design grid, then a 3-vertex ZOH set whose affine fit is
# over-determined
DESIGNS = [*itertools.product(("euler", "zoh"), (0.001, 0.002), (1.63e-4, 6e-4)),
           pytest.param("zoh", 0.002, (2.46e-6, 8.3e-5, 1.63e-4), id="zoh-0.002-3vertex")]


@pytest.mark.parametrize("mode, T, b_max", DESIGNS)
def test_design_and_certificate_match_the_checked_path(motor, weights, mode, T, b_max):
    # the package solves each Riccati and Lyapunov equation once and
    # validates each array once; the reference path solves Gamma' P Gamma + R
    # twice per vertex, fills the gains through dataclasses.replace and
    # checks every loop's spectral radius on every Lyapunov solve. Every
    # bit of the design and of the certificate must agree.
    if isinstance(b_max, tuple):
        bare = build_vertex_set(motor.params, b_max, T, mode=mode)
        vertices = synthesize_vertex_gains(bare, bare.Gamma, weights)
    else:
        designed = dataclasses.replace(motor, b_max=b_max, sample_time=T, discretization=mode)
        bare = build_vertex_set(designed.params, designed.vertex_rho, T, mode=mode)
        vertices = design_from_motor(designed, weights)
    ref_vertices, ref_solutions = gains_by_replace(bare, weights)
    for field in dataclasses.fields(vertices):
        got, want = getattr(vertices, field.name), getattr(ref_vertices, field.name)
        if isinstance(want, tuple) and want and isinstance(want[0], np.ndarray):
            assert len(got) == len(want)
            assert all(same_bits(g, w) for g, w in zip(got, want)), field.name
        elif isinstance(want, np.ndarray):
            assert same_bits(got, want), field.name
        else:
            assert got == want, field.name
    for model, ref in zip(bare.models(), ref_solutions):
        solution = solve_dare(model, weights)
        assert same_bits(solution.K, ref.K)
        assert same_bits(solution.P, ref.P)
        assert solution.residual == ref.residual
    cert, ref_cert = certify(vertices), certify_checked(ref_vertices)
    for field in dataclasses.fields(StabilityCert):
        got, want = getattr(cert, field.name), getattr(ref_cert, field.name)
        if isinstance(want, np.ndarray):
            assert same_bits(got, want), field.name
        else:
            assert type(got) is type(want) and got == want, field.name
