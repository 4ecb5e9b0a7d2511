import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapsched.errors import NumericalError, ParameterError
from mapsched.estimation import (
    FilterBank,
    GaussianBelief,
    ImmState,
    NoiseConfig,
    default_transition_matrix,
    imm_combine,
    imm_likelihood,
    imm_mix,
    imm_step,
    imm_update_probabilities,
    initial_belief,
    initial_imm_state,
    kf_predict,
    kf_update,
)
from mapsched.harness import ScenarioSpec, run_scenario, toggle_schedule, write_trace_csv
from mapsched.motor import DiscreteModel
from mapsched.plant import plant_step


def scalar_model(phi, gamma=0.0, h=1.0, T=1.0):
    return DiscreteModel(
        Phi=np.array([[phi]]), Gamma=np.array([[gamma]]), H=np.array([[h]]), T=T
    )


def belief1(x, p):
    return GaussianBelief(mean=np.array([x]), cov=np.array([[p]]))


class TestGaussianBelief:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ParameterError):
            GaussianBelief(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_resymmetrizes_small_asymmetry(self):
        cov = np.array([[1.0, 1e-10], [0.0, 1.0]])
        b = GaussianBelief(mean=np.zeros(2), cov=cov)
        assert np.array_equal(b.cov, b.cov.T)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            GaussianBelief(mean=np.zeros(3), cov=np.eye(2))


class TestKfPredict:
    def test_identity_dynamics_leaves_belief(self):
        mdl = scalar_model(1.0, gamma=0.0)
        b = belief1(0.7, 2.0)
        out = kf_predict(b, mdl, 5.0, Q=np.array([[0.0]]))
        assert out.mean[0] == 0.7
        assert out.cov[0, 0] == 2.0

    def test_scalar_covariance_propagation(self):
        out = kf_predict(belief1(0.0, 1.0), scalar_model(2.0), 0.0, Q=np.array([[1.0]]))
        assert out.cov[0, 0] == pytest.approx(5.0, rel=1e-15)

    def test_input_enters_through_gamma(self, motor, vertices_euler):
        mdl = vertices_euler.models()[0]
        b = GaussianBelief(mean=np.zeros(3), cov=np.zeros((3, 3)))
        out = kf_predict(b, mdl, 1.0, Q=np.zeros((3, 3)))
        assert out.mean == pytest.approx([0.0, 0.0, 1.72414], rel=1e-5)


class TestKfUpdate:
    def test_perfect_prior_ignores_measurement(self):
        b = belief1(0.3, 0.0)
        post, r, S = kf_update(b, scalar_model(1.0), 9.0, R=np.array([[1.0]]))
        assert post.mean[0] == 0.3
        assert post.cov[0, 0] == 0.0
        assert r[0] == pytest.approx(8.7)

    def test_scalar_closed_form(self):
        post, r, S = kf_update(belief1(0.0, 1.0), scalar_model(1.0), 2.0, R=np.array([[1.0]]))
        assert S[0, 0] == pytest.approx(2.0)
        assert post.mean[0] == pytest.approx(1.0, rel=1e-15)
        assert post.cov[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_huge_r_keeps_prior(self):
        post, _, _ = kf_update(belief1(0.4, 1.0), scalar_model(1.0), 100.0, R=np.array([[1e12]]))
        assert post.mean[0] == pytest.approx(0.4, abs=1e-9)

    def test_indefinite_innovation_rejected(self):
        b = belief1(0.0, 0.0)
        with pytest.raises(NumericalError):
            kf_update(b, scalar_model(1.0), 1.0, R=np.array([[-1.0]]))


class TestImmMix:
    def test_identity_transition_keeps_beliefs(self):
        modes = (belief1(1.0, 2.0), belief1(-1.0, 3.0))
        state = ImmState(
            modes=modes, mu=np.array([0.3, 0.7]), Pi=np.eye(2),
            models=(scalar_model(1.0), scalar_model(1.0)), rho=(0.0, 1.0),
        )
        mixed, mu_pred = imm_mix(state)
        assert np.allclose(mu_pred, [0.3, 0.7])
        for got, want in zip(mixed, modes):
            assert got.mean[0] == pytest.approx(want.mean[0])
            assert got.cov[0, 0] == pytest.approx(want.cov[0, 0])

    def test_predicted_probabilities_row_product(self):
        state = ImmState(
            modes=(belief1(0.0, 1.0), belief1(0.0, 1.0)),
            mu=np.array([1.0, 0.0]),
            Pi=np.array([[0.9, 0.1], [0.1, 0.9]]),
            models=(scalar_model(1.0), scalar_model(1.0)), rho=(0.0, 1.0),
        )
        _, mu_pred = imm_mix(state)
        assert np.allclose(mu_pred, [0.9, 0.1])

    def test_identical_beliefs_mix_to_themselves(self):
        b = belief1(0.5, 1.5)
        state = ImmState(
            modes=(b, b), mu=np.array([0.2, 0.8]),
            Pi=np.array([[0.6, 0.4], [0.3, 0.7]]),
            models=(scalar_model(1.0), scalar_model(1.0)), rho=(0.0, 1.0),
        )
        mixed, _ = imm_mix(state)
        for got in mixed:
            assert got.mean[0] == pytest.approx(0.5, rel=1e-15)
            assert got.cov[0, 0] == pytest.approx(1.5, rel=1e-15)


class TestImmLikelihood:
    def test_standard_normal_at_zero(self):
        lam = imm_likelihood(np.array([0.0]), np.array([[1.0]]), 1)
        assert lam == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_density_ratio(self):
        r = math.sqrt(2.0 * math.log(2.0))
        lam = imm_likelihood(np.array([r]), np.array([[1.0]]), 1)
        assert lam == pytest.approx(0.3989422804014327 / 2.0, rel=1e-12)

    def test_far_tail_underflows_gracefully(self):
        lam = imm_likelihood(np.array([math.sqrt(1000.0)]), np.array([[1.0]]), 1)
        assert lam >= 0.0
        assert lam < 1e-100

    def test_rejects_nonpositive_s(self):
        with pytest.raises(NumericalError):
            imm_likelihood(np.array([0.0]), np.array([[-1.0]]), 1)


class TestImmProbabilityUpdate:
    def test_bayes_arithmetic(self):
        mu = imm_update_probabilities(np.array([2.0, 1.0]), np.array([0.5, 0.5]))
        assert np.allclose(mu, [2.0 / 3.0, 1.0 / 3.0])

    def test_uninformative_likelihood_keeps_prediction(self):
        mu = imm_update_probabilities(np.array([3.0, 3.0]), np.array([0.25, 0.75]))
        assert np.allclose(mu, [0.25, 0.75])

    def test_degenerate_support_falls_back(self):
        mu = imm_update_probabilities(np.array([0.0, 5.0]), np.array([1.0, 0.0]))
        assert np.allclose(mu, [1.0, 0.0])


class TestImmCombine:
    def test_point_mass(self):
        modes = (belief1(1.0, 2.0), belief1(9.0, 5.0))
        fused = imm_combine(modes, np.array([1.0, 0.0]))
        assert fused.mean[0] == 1.0
        assert fused.cov[0, 0] == 2.0

    def test_mixture_moments(self):
        modes = (belief1(0.0, 1.0), belief1(2.0, 1.0))
        fused = imm_combine(modes, np.array([0.5, 0.5]))
        assert fused.mean[0] == pytest.approx(1.0)
        assert fused.cov[0, 0] == pytest.approx(2.0)

    def test_identical_modes_no_spread(self):
        modes = (belief1(0.7, 1.3), belief1(0.7, 1.3))
        fused = imm_combine(modes, np.array([0.4, 0.6]))
        assert fused.mean[0] == pytest.approx(0.7, rel=1e-15)
        assert fused.cov[0, 0] == pytest.approx(1.3, rel=1e-15)


class TestImmStep:
    def test_single_model_reduces_to_kf(self, vertices_zoh, noise):
        mdl = vertices_zoh.models()[0]
        state = initial_imm_state((mdl,), (vertices_zoh.rho[0],), Pi=np.array([[1.0]]))
        belief = initial_belief()
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = 0.01 * rng.standard_normal()
            state, out = imm_step(state, 0.3, z, noise)
            belief = kf_predict(belief, mdl, 0.3, noise.Q)
            belief, _, _ = kf_update(belief, mdl, z, noise.R)
            assert out.mu[0] == 1.0
            assert np.allclose(out.fused.mean, belief.mean, atol=1e-12)
            assert np.allclose(out.fused.cov, belief.cov, atol=1e-12)

    def test_identical_models_match_standard_kf(self, vertices_zoh, noise):
        mdl = vertices_zoh.models()[0]
        rho0 = vertices_zoh.rho[0]
        state = initial_imm_state((mdl, mdl), (rho0, rho0))
        belief = initial_belief()
        rng = np.random.default_rng(1)
        worst = 0.0
        for k in range(1000):
            z = 0.05 * math.sin(0.01 * k) + 0.003 * rng.standard_normal()
            state, out = imm_step(state, 0.5, z, noise)
            belief = kf_predict(belief, mdl, 0.5, noise.Q)
            belief, _, _ = kf_update(belief, mdl, z, noise.R)
            worst = max(worst, float(np.max(np.abs(out.fused.mean - belief.mean))))
        assert worst < 1e-9

    def test_rho_hat_is_probability_weighted(self, vertices_zoh, noise):
        state = initial_imm_state(vertices_zoh.models(), vertices_zoh.rho)
        state, out = imm_step(state, 0.0, 0.0, noise)
        assert out.rho_hat == pytest.approx(float(np.dot(out.mu, vertices_zoh.rho)))

    def test_fused_mean_is_probability_weighted(self, vertices_zoh, noise):
        state = initial_imm_state(vertices_zoh.models(), vertices_zoh.rho)
        rng = np.random.default_rng(5)
        for _ in range(20):
            state, out = imm_step(state, rng.uniform(-2, 2), 0.1 * rng.standard_normal(), noise)
            expected = out.mu @ np.stack([m.mean for m in state.modes])
            assert np.max(np.abs(out.fused.mean - expected)) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_simplex_preserved(self, vertices_zoh, noise, seed):
        rng = np.random.default_rng(seed)
        state = initial_imm_state(vertices_zoh.models(), vertices_zoh.rho)
        for _ in range(20):
            z = 0.1 * rng.standard_normal()
            u = 2.0 * rng.standard_normal()
            state, out = imm_step(state, u, z, noise)
            assert abs(float(out.mu.sum()) - 1.0) <= 1e-12
            assert np.all(out.mu >= 0.0)

    def test_vector_measurement_rejected(self, noise):
        mdl = DiscreteModel(Phi=np.eye(3), Gamma=np.zeros((3, 1)), H=np.eye(3)[:2], T=1.0)
        state = initial_imm_state((mdl, mdl), (0.0, 1.0))
        with pytest.raises(ParameterError):
            imm_step(state, 0.0, np.zeros(2), noise)

    def test_covariances_stay_psd_short_run(self, vertices_zoh, noise):
        rng = np.random.default_rng(11)
        state = initial_imm_state(vertices_zoh.models(), vertices_zoh.rho)
        for _ in range(500):
            state, out = imm_step(state, rng.uniform(-2, 2), 0.2 * rng.standard_normal(), noise)
            for b in (*state.modes, out.fused):
                assert float(np.linalg.eigvalsh(b.cov)[0]) >= -1e-9


class TestFilterBank:
    def test_rejects_models_that_are_not_three_state(self, noise):
        with pytest.raises(ParameterError):
            FilterBank([scalar_model(1.0)], [[1.0]], noise)

    def test_rejects_vector_measurement(self, noise):
        mdl = DiscreteModel(Phi=np.eye(3), Gamma=np.zeros((3, 1)), H=np.eye(3)[:2], T=1.0)
        with pytest.raises(ParameterError):
            FilterBank([mdl], [[1.0]], noise)
        vector_r = NoiseConfig(Q=noise.Q, R=np.eye(2) * 1e-5)
        with pytest.raises(ParameterError):
            FilterBank([DiscreteModel(Phi=np.eye(3), Gamma=np.zeros((3, 1)),
                                      H=np.eye(3)[:1], T=1.0)], [[1.0]], vector_r)


def per_mode_imm_step(state, u, z, noise):
    """The IMM cycle written mode by mode from the single-filter pieces:
    (fused mean, fused covariance, mu, per-mode beliefs)."""
    mu_pred = state.Pi.T @ state.mu
    mixing = state.Pi * state.mu[:, None] / np.maximum(mu_pred, 1e-300)[None, :]
    means = np.stack([m.mean for m in state.modes])
    posteriors, likelihoods = [], []
    for j, model in enumerate(state.models):
        w = mixing[:, j]
        x0 = w @ means
        P0 = np.zeros((3, 3))
        for i, mode in enumerate(state.modes):
            d = mode.mean - x0
            P0 += w[i] * (mode.cov + np.outer(d, d))
        belief = kf_predict(GaussianBelief(x0, P0), model, u, noise.Q)
        belief, r, S = kf_update(belief, model, z, noise.R)
        posteriors.append(belief)
        likelihoods.append(imm_likelihood(r, S, model.d))
    mu = imm_update_probabilities(np.maximum(likelihoods, 1e-300), mu_pred)
    x = mu @ np.stack([b.mean for b in posteriors])
    P = np.zeros((3, 3))
    for j, b in enumerate(posteriors):
        d = b.mean - x
        P += mu[j] * (b.cov + np.outer(d, d))
    return x, 0.5 * (P + P.T), mu, posteriors


def test_stacked_cycle_matches_per_mode_cycle(motor_zoh, vertices_zoh, noise):
    # the friction-switch stream of acceptance criterion 3, 15000 ticks
    sched = toggle_schedule(motor_zoh.b_min, motor_zoh.b_max, first=0.3,
                            period=5.0, duration=30.0)
    rng = np.random.default_rng(2024)
    truth = np.zeros(3)
    state = initial_imm_state(vertices_zoh.models(), vertices_zoh.rho)
    u_prev = 0.0
    worst = 0.0
    for k in range(15_000):
        t = k * 0.002
        u = 2.0 * math.sin(2.0 * math.pi * 0.5 * t)
        z = truth[0] + math.sqrt(noise.R[0, 0]) * rng.standard_normal()
        truth = plant_step(truth, u, motor_zoh.friction(*sched.at(t)), motor_zoh.params, 0.002)
        # both cycles start from the same state each tick, so the check does
        # not depend on how round-off grows over the run
        x, P, mu, modes = per_mode_imm_step(state, u_prev, z, noise)
        state, out = imm_step(state, u_prev, z, noise)
        pairs = [(out.fused.mean, x), (out.fused.cov, P), (out.mu, mu)]
        pairs += [(a.mean, b.mean) for a, b in zip(state.modes, modes)]
        pairs += [(a.cov, b.cov) for a, b in zip(state.modes, modes)]
        worst = max(worst, *(float(np.max(np.abs(a - b))) for a, b in pairs))
        u_prev = u
    assert worst <= 1e-12


class TestNisConsistency:
    def test_normalized_innovation_in_chi_square_band(self, vertices_zoh, noise):
        # linear truth identical to the filter model, with matched noise:
        # the time-average NIS must sit near the measurement dimension
        mdl = vertices_zoh.models()[0]
        rng = np.random.default_rng(123)
        Lq = np.linalg.cholesky(noise.Q)
        truth = np.zeros(3)
        belief = initial_belief()
        nis = []
        for k in range(10_000):
            u = 1.5 * math.sin(0.005 * k)
            truth = mdl.Phi @ truth + mdl.Gamma[:, 0] * u + Lq @ rng.standard_normal(3)
            z = truth[0] + math.sqrt(noise.R[0, 0]) * rng.standard_normal()
            belief = kf_predict(belief, mdl, u, noise.Q)
            belief, r, S = kf_update(belief, mdl, z, noise.R)
            nis.append(float(r[0] ** 2 / S[0, 0]))
        avg = float(np.mean(nis))
        assert 0.5 <= avg <= 2.0


class TestStateValidation:
    def test_mu_must_be_simplex(self, vertices_zoh):
        models = vertices_zoh.models()
        with pytest.raises(ParameterError):
            ImmState(
                modes=(initial_belief(), initial_belief()),
                mu=np.array([0.7, 0.7]),
                Pi=default_transition_matrix(2),
                models=models, rho=vertices_zoh.rho,
            )

    def test_pi_rows_must_sum_to_one(self, vertices_zoh):
        with pytest.raises(ParameterError):
            ImmState(
                modes=(initial_belief(), initial_belief()),
                mu=np.array([0.5, 0.5]),
                Pi=np.array([[0.9, 0.2], [0.1, 0.9]]),
                models=vertices_zoh.models(), rho=vertices_zoh.rho,
            )

    def test_default_transition_matrix(self):
        Pi = default_transition_matrix(2, stay=0.9)
        assert np.allclose(Pi, [[0.9, 0.1], [0.1, 0.9]])
        assert np.allclose(default_transition_matrix(3).sum(axis=1), 1.0)

    def test_noise_config_validation(self):
        with pytest.raises(ParameterError):
            NoiseConfig(Q=np.diag([1e-6, -1e-3, 1e-6]), R=np.array([[1e-5]]))
        with pytest.raises(ParameterError):
            NoiseConfig(Q=np.eye(3) * 1e-6, R=np.array([[0.0]]))


def test_filter_trace_csv(tmp_path, motor_zoh, vertices_zoh):
    # the run trace carries the IMM outputs of every tick, round-tripped exactly
    rec = run_scenario(ScenarioSpec(duration=0.01, seed=3), motor_zoh, vertices_zoh)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, rec)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for k, row in enumerate(rows):
        assert [float(row[c]) for c in ("mu_1", "mu_2")] == rec.mu[k].tolist()
        assert [float(row[c]) for c in ("theta_est", "omega_est", "current_est")] == (
            rec.estimate[k].tolist()
        )
        assert float(row["rho_hat"]) == rec.rho_hat[k]
