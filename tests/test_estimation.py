import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import imm_update_probabilities

from mapsched.errors import NumericalError, ParameterError
from mapsched.estimation import (
    FilterBank,
    NoiseConfig,
    default_transition_matrix,
    imm_likelihood,
    imm_step,
    initial_belief,
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


def full(c):
    """Symmetric 3x3 covariance from the upper triangle imm_step returns."""
    p00, p01, p02, p11, p12, p22 = c
    return np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])


def fused_cov(means, covs, mu):
    """Moment-matched covariance of the mu-weighted per-mode beliefs."""
    x = np.asarray(mu) @ np.array(means)
    P = np.zeros((3, 3))
    for m, mean, c in zip(mu, means, covs):
        d = np.array(mean) - x
        P += m * (full(c) + np.outer(d, d))
    return P


def belief3(x, p):
    """Mean (x, 0, 0) and upper triangle of diag(p, 1, 1)."""
    return (x, 0.0, 0.0), (p, 0.0, 0.0, 1.0, 0.0, 1.0)


def hold_bank(Pi):
    """A bank whose filters hold their priors: Phi = I, no input, H = 0 and
    Q = 0. imm_step then returns the mixed priors as its means and
    covariances, and every mode has the same likelihood, so mu is mu_pred."""
    hold = DiscreteModel(Phi=np.eye(3), Gamma=np.zeros((3, 1)), H=np.zeros((1, 3)), T=1.0)
    noise = NoiseConfig(Q=np.zeros((3, 3)), R=np.array([[1.0]]))
    return FilterBank([hold] * len(Pi), Pi, noise)


def hold_step(Pi, beliefs, mu):
    means, covs = zip(*beliefs)
    means, covs, mu, _, fused = imm_step(hold_bank(Pi), list(means), list(covs), mu, 0.0, 0.0)
    return means, covs, mu, fused


class TestKfPredict:
    def test_identity_dynamics_leaves_belief(self):
        mdl = scalar_model(1.0, gamma=0.0)
        x, P = kf_predict(np.array([0.7]), np.array([[2.0]]), mdl, 5.0, Q=np.array([[0.0]]))
        assert x[0] == 0.7
        assert P[0, 0] == 2.0

    def test_scalar_covariance_propagation(self):
        _, P = kf_predict(np.array([0.0]), np.array([[1.0]]), scalar_model(2.0), 0.0,
                          Q=np.array([[1.0]]))
        assert P[0, 0] == pytest.approx(5.0, rel=1e-15)

    def test_input_enters_through_gamma(self, motor, vertices_euler):
        mdl = vertices_euler.models()[0]
        x, _ = kf_predict(np.zeros(3), np.zeros((3, 3)), mdl, 1.0, Q=np.zeros((3, 3)))
        assert x == pytest.approx([0.0, 0.0, 1.72414], rel=1e-5)


class TestKfUpdate:
    def test_perfect_prior_ignores_measurement(self):
        x, P, r, s = kf_update(np.array([0.3]), np.array([[0.0]]), scalar_model(1.0), 9.0,
                               R=np.array([[1.0]]))
        assert x[0] == 0.3
        assert P[0, 0] == 0.0
        assert r == pytest.approx(8.7)

    def test_scalar_closed_form(self):
        x, P, r, s = kf_update(np.array([0.0]), np.array([[1.0]]), scalar_model(1.0), 2.0,
                               R=np.array([[1.0]]))
        assert s == pytest.approx(2.0)
        assert x[0] == pytest.approx(1.0, rel=1e-15)
        assert P[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_huge_r_keeps_prior(self):
        x, _, _, _ = kf_update(np.array([0.4]), np.array([[1.0]]), scalar_model(1.0), 100.0,
                               R=np.array([[1e12]]))
        assert x[0] == pytest.approx(0.4, abs=1e-9)

    def test_indefinite_innovation_rejected(self):
        with pytest.raises(NumericalError):
            kf_update(np.array([0.0]), np.array([[0.0]]), scalar_model(1.0), 1.0,
                      R=np.array([[-1.0]]))

    def test_vector_measurement_rejected(self):
        mdl = DiscreteModel(Phi=np.eye(3), Gamma=np.zeros((3, 1)), H=np.eye(3)[:2], T=1.0)
        with pytest.raises(ParameterError):
            kf_update(np.zeros(3), np.eye(3), mdl, np.zeros(2), R=np.eye(2))


class TestMixing:
    def test_identity_transition_keeps_beliefs(self):
        beliefs = (belief3(1.0, 2.0), belief3(-1.0, 3.0))
        means, covs, mu, _ = hold_step(np.eye(2), beliefs, [0.3, 0.7])
        assert np.allclose(mu, [0.3, 0.7])
        for mean, cov, (want_mean, want_cov) in zip(means, covs, beliefs):
            assert mean[0] == pytest.approx(want_mean[0])
            assert cov[0] == pytest.approx(want_cov[0])

    def test_predicted_probabilities_row_product(self):
        beliefs = (belief3(0.0, 1.0), belief3(0.0, 1.0))
        _, _, mu, _ = hold_step(np.array([[0.9, 0.1], [0.1, 0.9]]), beliefs, [1.0, 0.0])
        assert np.allclose(mu, [0.9, 0.1])

    def test_identical_beliefs_mix_to_themselves(self):
        b = belief3(0.5, 1.5)
        means, covs, _, _ = hold_step(np.array([[0.6, 0.4], [0.3, 0.7]]), (b, b), [0.2, 0.8])
        for mean, cov in zip(means, covs):
            assert mean[0] == pytest.approx(0.5, rel=1e-15)
            assert cov[0] == pytest.approx(1.5, rel=1e-15)


class TestImmLikelihood:
    def test_standard_normal_at_zero(self):
        lam = imm_likelihood(0.0, 1.0)
        assert lam == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_density_ratio(self):
        r = math.sqrt(2.0 * math.log(2.0))
        lam = imm_likelihood(r, 1.0)
        assert lam == pytest.approx(0.3989422804014327 / 2.0, rel=1e-12)

    def test_far_tail_underflows_gracefully(self):
        lam = imm_likelihood(math.sqrt(1000.0), 1.0)
        assert lam >= 0.0
        assert lam < 1e-100

    def test_rejects_nonpositive_s(self):
        with pytest.raises(NumericalError):
            imm_likelihood(0.0, -1.0)


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


class TestFusedMoments:
    def test_point_mass(self):
        means, covs, mu, fused = hold_step(
            np.eye(2), (belief3(1.0, 2.0), belief3(9.0, 5.0)), [1.0, 0.0])
        assert fused[0] == 1.0
        assert fused_cov(means, covs, mu)[0, 0] == 2.0

    def test_mixture_moments(self):
        means, covs, mu, fused = hold_step(
            np.eye(2), (belief3(0.0, 1.0), belief3(2.0, 1.0)), [0.5, 0.5])
        assert fused[0] == pytest.approx(1.0)
        assert fused_cov(means, covs, mu)[0, 0] == pytest.approx(2.0)

    def test_identical_modes_no_spread(self):
        b = belief3(0.7, 1.3)
        means, covs, mu, fused = hold_step(np.eye(2), (b, b), [0.4, 0.6])
        assert fused[0] == pytest.approx(0.7, rel=1e-15)
        assert fused_cov(means, covs, mu)[0, 0] == pytest.approx(1.3, rel=1e-15)


class TestImmStep:
    def test_single_model_reduces_to_kf(self, vertices_zoh, noise):
        mdl = vertices_zoh.models()[0]
        bank = FilterBank((mdl,), np.array([[1.0]]), noise)
        means, covs, mu = bank.initial()
        x, P = initial_belief()
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = 0.01 * rng.standard_normal()
            means, covs, mu, _, fused = imm_step(bank, means, covs, mu, 0.3, z)
            x, P = kf_predict(x, P, mdl, 0.3, noise.Q)
            x, P, _, _ = kf_update(x, P, mdl, z, noise.R)
            assert mu[0] == 1.0
            assert np.allclose(fused, x, atol=1e-12)
            assert np.allclose(fused_cov(means, covs, mu), P, atol=1e-12)

    def test_identical_models_match_standard_kf(self, vertices_zoh, noise):
        mdl = vertices_zoh.models()[0]
        bank = FilterBank((mdl, mdl), default_transition_matrix(2), noise)
        means, covs, mu = bank.initial()
        x, P = initial_belief()
        rng = np.random.default_rng(1)
        worst = 0.0
        for k in range(1000):
            z = 0.05 * math.sin(0.01 * k) + 0.003 * rng.standard_normal()
            means, covs, mu, _, fused = imm_step(bank, means, covs, mu, 0.5, z)
            x, P = kf_predict(x, P, mdl, 0.5, noise.Q)
            x, P, _, _ = kf_update(x, P, mdl, z, noise.R)
            worst = max(worst, float(np.max(np.abs(np.array(fused) - x))))
        assert worst < 1e-9

    def test_fused_mean_is_probability_weighted(self, vertices_zoh, noise):
        bank = FilterBank(vertices_zoh.models(), default_transition_matrix(2), noise)
        means, covs, mu = bank.initial()
        rng = np.random.default_rng(5)
        for _ in range(20):
            means, covs, mu, _, fused = imm_step(
                bank, means, covs, mu, rng.uniform(-2, 2), 0.1 * rng.standard_normal())
            expected = np.array(mu) @ np.array(means)
            assert np.max(np.abs(np.array(fused) - expected)) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_simplex_preserved(self, vertices_zoh, noise, seed):
        rng = np.random.default_rng(seed)
        bank = FilterBank(vertices_zoh.models(), default_transition_matrix(2), noise)
        means, covs, mu = bank.initial()
        for _ in range(20):
            z = 0.1 * rng.standard_normal()
            u = 2.0 * rng.standard_normal()
            means, covs, mu, _, _ = imm_step(bank, means, covs, mu, u, z)
            assert abs(sum(mu) - 1.0) <= 1e-12
            assert min(mu) >= 0.0

    def test_covariances_stay_psd_short_run(self, vertices_zoh, noise):
        rng = np.random.default_rng(11)
        bank = FilterBank(vertices_zoh.models(), default_transition_matrix(2), noise)
        means, covs, mu = bank.initial()
        for _ in range(500):
            means, covs, mu, _, _ = imm_step(
                bank, means, covs, mu, rng.uniform(-2, 2), 0.2 * rng.standard_normal())
            for P in (*map(full, covs), fused_cov(means, covs, mu)):
                assert float(np.linalg.eigvalsh(P)[0]) >= -1e-9


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

    @pytest.mark.parametrize("Pi", [
        [[0.9, 0.2], [0.1, 0.9]],    # a row sums to 1.1
        [[1.1, -0.1], [0.1, 0.9]],   # a negative entry
        [[math.nan, 1.0], [0.1, 0.9]],
    ], ids=["row_sum", "negative", "nan"])
    def test_pi_rows_must_be_probability_vectors(self, vertices_zoh, noise, Pi):
        with pytest.raises(ParameterError):
            FilterBank(vertices_zoh.models(), Pi, noise)


def per_mode_imm_step(Pi, models, means, covs, mu, u, z, noise):
    """The IMM cycle written mode by mode from the single-filter pieces, on
    arrays: (fused mean, fused covariance, mu, per-mode means, covariances)."""
    mu = np.array(mu)
    mu_pred = Pi.T @ mu
    mixing = Pi * mu[:, None] / np.maximum(mu_pred, 1e-300)[None, :]
    means = np.array(means)
    covs = [full(c) for c in covs]
    post_means, post_covs, likelihoods = [], [], []
    for j, model in enumerate(models):
        w = mixing[:, j]
        x0 = w @ means
        P0 = np.zeros((3, 3))
        for i in range(len(models)):
            d = means[i] - x0
            P0 += w[i] * (covs[i] + np.outer(d, d))
        x, P = kf_predict(x0, P0, model, u, noise.Q)
        x, P, r, s = kf_update(x, P, model, z, noise.R)
        post_means.append(x)
        post_covs.append(P)
        likelihoods.append(imm_likelihood(r, s))
    mu = imm_update_probabilities(np.maximum(likelihoods, 1e-300), mu_pred)
    x = mu @ np.stack(post_means)
    P = np.zeros((3, 3))
    for j in range(len(models)):
        d = post_means[j] - x
        P += mu[j] * (post_covs[j] + np.outer(d, d))
    return x, 0.5 * (P + P.T), mu, post_means, post_covs


def test_stacked_cycle_matches_per_mode_cycle(motor_zoh, vertices_zoh, noise):
    # the friction-switch stream of acceptance criterion 3, 15000 ticks
    sched = toggle_schedule(motor_zoh.b_min, motor_zoh.b_max, first=0.3,
                            period=5.0, duration=30.0)
    rng = np.random.default_rng(2024)
    truth = np.zeros(3)
    models, Pi = vertices_zoh.models(), default_transition_matrix(2)
    bank = FilterBank(models, Pi, noise)
    means, covs, mu = bank.initial()
    u_prev = 0.0
    worst = 0.0
    for k in range(15_000):
        t = k * 0.002
        u = 2.0 * math.sin(2.0 * math.pi * 0.5 * t)
        z = truth[0] + math.sqrt(noise.R[0, 0]) * rng.standard_normal()
        truth = plant_step(truth, u, motor_zoh.friction(*sched.at(t)), motor_zoh.params, 0.002)
        # both cycles start from the same state each tick, so the check does
        # not depend on how round-off grows over the run
        x, P, mu_ref, ref_means, ref_covs = per_mode_imm_step(
            Pi, models, means, covs, mu, u_prev, z, noise)
        means, covs, mu, _, fused = imm_step(bank, means, covs, mu, u_prev, z)
        pairs = [(fused, x), (fused_cov(means, covs, mu), P), (mu, mu_ref)]
        pairs += list(zip(means, ref_means))
        pairs += [(full(a), b) for a, b in zip(covs, ref_covs)]
        worst = max(worst, *(float(np.max(np.abs(np.subtract(a, b)))) for a, b in pairs))
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
        x, P = initial_belief()
        nis = []
        for k in range(10_000):
            u = 1.5 * math.sin(0.005 * k)
            truth = mdl.Phi @ truth + mdl.Gamma[:, 0] * u + Lq @ rng.standard_normal(3)
            z = truth[0] + math.sqrt(noise.R[0, 0]) * rng.standard_normal()
            x, P = kf_predict(x, P, mdl, u, noise.Q)
            x, P, r, s = kf_update(x, P, mdl, z, noise.R)
            nis.append(r ** 2 / s)
        avg = float(np.mean(nis))
        assert 0.5 <= avg <= 2.0


class TestStateValidation:
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
