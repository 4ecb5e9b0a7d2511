import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import imm_likelihood, imm_step_two_pass, imm_update_probabilities

from mapsched.errors import NumericalError, ParameterError
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
    constant_schedule,
    run_scenario,
    toggle_schedule,
    write_run_csvs,
)
from mapsched.motor import build_vertex_set
from mapsched.plant import TickMap, plant_step


def scalar_model(phi, gamma=0.0):
    """(Phi, Gamma) of the scalar model x+ = phi x + gamma u."""
    return np.array([[phi]]), np.array([[gamma]])


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


# a 3-state model that holds its state and takes no input
HOLD_PHI, HOLD_GAMMA = np.eye(3), np.zeros((3, 1))


def hold_bank(Pi):
    """A bank whose filters hold their priors: Phi = I, no input, Q = 0 and
    the angle measured with R = 1e300. The update then moves a mean by
    p0j r / R and a covariance entry by p0i p0j / R, far below the last bit
    of the moderate beliefs used here, and every mode has the same
    likelihood, so imm_step returns the mixed priors as its means and
    covariances, and mu is mu_pred up to the rounding of the Bayes update."""
    return FilterBank([HOLD_PHI] * len(Pi), HOLD_GAMMA, Pi, np.zeros((3, 3)),
                      np.array([[1e300]]))


def hold_step(Pi, beliefs, mu):
    means, covs = zip(*beliefs)
    means, covs, mu, _, fused = imm_step(hold_bank(Pi), list(means), list(covs), mu, 0.0, 0.0)
    return means, covs, mu, fused


class TestKfPredict:
    def test_identity_dynamics_leaves_belief(self):
        x, P = kf_predict(np.array([0.7]), np.array([[2.0]]), *scalar_model(1.0, gamma=0.0), 5.0,
                          Q=np.array([[0.0]]))
        assert x[0] == 0.7
        assert P[0, 0] == 2.0

    def test_scalar_covariance_propagation(self):
        _, P = kf_predict(np.array([0.0]), np.array([[1.0]]), *scalar_model(2.0), 0.0,
                          Q=np.array([[1.0]]))
        assert P[0, 0] == pytest.approx(5.0, rel=1e-15)

    def test_input_enters_through_gamma(self, motor, vertices_euler):
        x, _ = kf_predict(np.zeros(3), np.zeros((3, 3)), vertices_euler.Phi_vertices[0],
                          vertices_euler.Gamma, 1.0, Q=np.zeros((3, 3)))
        assert x == pytest.approx([0.0, 0.0, 1.72414], rel=1e-5)


class TestKfUpdate:
    def test_perfect_prior_ignores_measurement(self):
        x, P, r, s = kf_update(np.array([0.3]), np.array([[0.0]]), 9.0, R=np.array([[1.0]]))
        assert x[0] == 0.3
        assert P[0, 0] == 0.0
        assert r == pytest.approx(8.7)

    def test_scalar_closed_form(self):
        x, P, r, s = kf_update(np.array([0.0]), np.array([[1.0]]), 2.0, R=np.array([[1.0]]))
        assert s == pytest.approx(2.0)
        assert x[0] == pytest.approx(1.0, rel=1e-15)
        assert P[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_huge_r_keeps_prior(self):
        x, _, _, _ = kf_update(np.array([0.4]), np.array([[1.0]]), 100.0, R=np.array([[1e12]]))
        assert x[0] == pytest.approx(0.4, abs=1e-9)

    def test_indefinite_innovation_rejected(self):
        with pytest.raises(NumericalError):
            kf_update(np.array([0.0]), np.array([[0.0]]), 1.0, R=np.array([[-1.0]]))


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
    def test_single_model_reduces_to_kf(self, vertices_zoh):
        phi, Gamma = vertices_zoh.Phi_vertices[0], vertices_zoh.Gamma
        bank = FilterBank((phi,), Gamma, np.array([[1.0]]), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        x, P = initial_belief()
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = 0.01 * rng.standard_normal()
            means, covs, mu, _, fused = imm_step(bank, means, covs, mu, 0.3, z)
            x, P = kf_predict(x, P, phi, Gamma, 0.3, FILTER_Q)
            x, P, _, _ = kf_update(x, P, z, FILTER_R)
            assert mu[0] == 1.0
            assert np.allclose(fused, x, atol=1e-12)
            assert np.allclose(fused_cov(means, covs, mu), P, atol=1e-12)

    def test_identical_models_match_standard_kf(self, vertices_zoh):
        phi, Gamma = vertices_zoh.Phi_vertices[0], vertices_zoh.Gamma
        bank = FilterBank((phi, phi), Gamma, default_transition_matrix(2), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        x, P = initial_belief()
        rng = np.random.default_rng(1)
        worst = 0.0
        for k in range(1000):
            z = 0.05 * math.sin(0.01 * k) + 0.003 * rng.standard_normal()
            means, covs, mu, _, fused = imm_step(bank, means, covs, mu, 0.5, z)
            x, P = kf_predict(x, P, phi, Gamma, 0.5, FILTER_Q)
            x, P, _, _ = kf_update(x, P, z, FILTER_R)
            worst = max(worst, float(np.max(np.abs(np.array(fused) - x))))
        assert worst < 1e-9

    def test_fused_mean_is_probability_weighted(self, vertices_zoh):
        bank = FilterBank(vertices_zoh.Phi_vertices, vertices_zoh.Gamma,
                          default_transition_matrix(2), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        rng = np.random.default_rng(5)
        for _ in range(20):
            means, covs, mu, _, fused = imm_step(
                bank, means, covs, mu, rng.uniform(-2, 2), 0.1 * rng.standard_normal())
            expected = np.array(mu) @ np.array(means)
            assert np.max(np.abs(np.array(fused) - expected)) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_simplex_preserved(self, vertices_zoh, seed):
        rng = np.random.default_rng(seed)
        bank = FilterBank(vertices_zoh.Phi_vertices, vertices_zoh.Gamma,
                          default_transition_matrix(2), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        for _ in range(20):
            z = 0.1 * rng.standard_normal()
            u = 2.0 * rng.standard_normal()
            means, covs, mu, _, _ = imm_step(bank, means, covs, mu, u, z)
            assert abs(sum(mu) - 1.0) <= 1e-12
            assert min(mu) >= 0.0

    def test_covariances_stay_psd_short_run(self, vertices_zoh):
        rng = np.random.default_rng(11)
        bank = FilterBank(vertices_zoh.Phi_vertices, vertices_zoh.Gamma,
                          default_transition_matrix(2), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        for _ in range(500):
            means, covs, mu, _, _ = imm_step(
                bank, means, covs, mu, rng.uniform(-2, 2), 0.2 * rng.standard_normal())
            for P in (*map(full, covs), fused_cov(means, covs, mu)):
                assert float(np.linalg.eigvalsh(P)[0]) >= -1e-9


    def test_refuses_innovations_without_a_likelihood(self, vertices_zoh):
        # s is NaN for a NaN prior covariance; a residual past ~1e154
        # overflows r ** 2: both are numerical failures, not a traceback
        bank = FilterBank(vertices_zoh.Phi_vertices, vertices_zoh.Gamma,
                          default_transition_matrix(2), FILTER_Q, FILTER_R)
        means, covs, mu = bank.initial()
        nan_covs = [(math.nan,) * 6] * 2
        with pytest.raises(NumericalError, match="positive definite"):
            imm_step(bank, means, nan_covs, mu, 0.0, 0.0)
        with pytest.raises(NumericalError, match="overflows"):
            imm_step(bank, means, covs, mu, 0.0, 1e200)

    def test_names_a_diverged_estimate(self, vertices_zoh):
        bank = FilterBank(vertices_zoh.Phi_vertices, vertices_zoh.Gamma,
                          default_transition_matrix(2), FILTER_Q, FILTER_R)
        _, covs, mu = bank.initial()
        # finite means 2e200 apart: the spread overflows, +inf and -inf meet
        # in Phi P Phi' and s is NaN
        apart = [(0.0, 1e200, -1e200), (0.0, -1e200, 1e200)]
        with pytest.raises(NumericalError, match="diverged: mode 0's mixed prior covariance"):
            imm_step(bank, apart, covs, mu, 0.0, 0.0)
        # a finite covariance grown past round-off against R has lost its
        # positive definiteness; a small indefinite one has not diverged
        means = [(0.0, 0.0, 0.0)] * 2
        grown = [(0.0, 0.0, 0.0, -1e200, 0.0, 0.0)] * 2
        with pytest.raises(NumericalError, match="diverged: mode 0's predicted covariance"):
            imm_step(bank, means, grown, mu, 0.0, 0.0)
        indefinite = [(-1.0, 0.0, 0.0, 1e-3, 0.0, 1e-3)] * 2
        with pytest.raises(NumericalError, match="positive definite"):
            imm_step(bank, means, indefinite, mu, 0.0, 0.0)


class TestFilterBank:
    def test_rejects_models_that_are_not_three_state(self):
        phi, gamma = scalar_model(1.0)
        with pytest.raises(ParameterError, match="3-state, single-input"):
            FilterBank([phi], gamma, [[1.0]], FILTER_Q, FILTER_R)

    @pytest.mark.parametrize("Gamma", [np.zeros((1, 3)), np.zeros(3), np.zeros((3, 2))],
                             ids=["row", "flat", "two-input"])
    def test_rejects_a_gamma_that_is_not_three_by_one(self, Gamma):
        with pytest.raises(ParameterError, match="3-state, single-input"):
            FilterBank([HOLD_PHI], Gamma, [[1.0]], FILTER_Q, FILTER_R)

    @pytest.mark.parametrize("nv", [0, 3])
    def test_refuses_a_mode_count_other_than_one_or_two(self, nv):
        with pytest.raises(ParameterError, match=f"1 or 2 modes, got {nv}"):
            FilterBank([HOLD_PHI] * nv, HOLD_GAMMA, default_transition_matrix(max(nv, 1)),
                       FILTER_Q, FILTER_R)

    def test_rejects_vector_measurement(self):
        with pytest.raises(ParameterError, match="1x1 R"):
            FilterBank([HOLD_PHI], HOLD_GAMMA, [[1.0]], FILTER_Q, np.eye(2) * 1e-5)

    @pytest.mark.parametrize("Pi", [
        [[0.9, 0.2], [0.1, 0.9]],    # a row sums to 1.1
        [[1.1, -0.1], [0.1, 0.9]],   # a negative entry
        [[math.nan, 1.0], [0.1, 0.9]],
    ], ids=["row_sum", "negative", "nan"])
    def test_pi_rows_must_be_probability_vectors(self, vertices_zoh, Pi):
        with pytest.raises(ParameterError):
            FilterBank(vertices_zoh.Phi_vertices, vertices_zoh.Gamma, Pi, FILTER_Q, FILTER_R)


def per_mode_imm_step(Pi, phis, Gamma, means, covs, mu, u, z):
    """The IMM cycle written mode by mode from the single-filter pieces, on
    arrays: (fused mean, fused covariance, mu, per-mode means, covariances,
    innovations). Each mode's likelihood is `imm_likelihood` of its
    innovation (r, s)."""
    mu = np.array(mu)
    # the two-term sums from 0.0 in mode order, as the package forms them
    mu_pred = np.array([0.0 + Pi[0, j] * mu[0] + Pi[1, j] * mu[1] for j in range(2)])
    mixing = Pi * mu[:, None] / np.maximum(mu_pred, 1e-300)[None, :]
    means = np.array(means)
    covs = [full(c) for c in covs]
    post_means, post_covs, likelihoods, innovations = [], [], [], []
    for j, phi in enumerate(phis):
        w = mixing[:, j]
        x0 = 0.0 + w[0] * means[0] + w[1] * means[1]
        P0 = np.zeros((3, 3))
        for i in range(len(phis)):
            d = means[i] - x0
            P0 += w[i] * (covs[i] + np.outer(d, d))
        x, P = kf_predict(x0, P0, phi, Gamma, u, FILTER_Q)
        x, P, r, s = kf_update(x, P, z, FILTER_R)
        post_means.append(x)
        post_covs.append(P)
        likelihoods.append(imm_likelihood(r, s))
        innovations.append((r, s))
    mu = imm_update_probabilities(np.maximum(likelihoods, 1e-300), mu_pred)
    x = mu @ np.stack(post_means)
    P = np.zeros((3, 3))
    for j in range(len(phis)):
        d = post_means[j] - x
        P += mu[j] * (post_covs[j] + np.outer(d, d))
    return x, 0.5 * (P + P.T), mu, post_means, post_covs, innovations


def friction_switch_stream(motor_zoh):
    """(previous input, measurement) per tick of acceptance criterion 3's
    friction-switch stream: 15000 ticks of a 2 V, 0.5 Hz sine drive of the
    truth plant with friction toggling every 5 s."""
    sched = toggle_schedule(motor_zoh.b_min, motor_zoh.b_max, first=0.3,
                            period=5.0, duration=30.0)
    ticks = {(g.b, g.coulomb_on):
             TickMap(motor_zoh, motor_zoh.friction(g.b, g.coulomb_on), 0.002)
             for g in sched.segments}
    rng = np.random.default_rng(2024)
    truth = np.zeros(3)
    u_prev = 0.0
    for k in range(15_000):
        t = k * 0.002
        u = 2.0 * math.sin(2.0 * math.pi * 0.5 * t)
        z = truth[0] + math.sqrt(FILTER_R[0, 0]) * rng.standard_normal()
        truth = plant_step(truth, u, ticks[sched.at(t)])
        yield u_prev, z
        u_prev = u


def test_stacked_cycle_matches_per_mode_cycle(motor_zoh, vertices_zoh):
    # the friction-switch stream of acceptance criterion 3, 15000 ticks
    phis, Gamma, Pi = vertices_zoh.Phi_vertices, vertices_zoh.Gamma, default_transition_matrix(2)
    bank = FilterBank(phis, Gamma, Pi, FILTER_Q, FILTER_R)
    means, covs, mu = bank.initial()
    worst = 0.0
    for u_prev, z in friction_switch_stream(motor_zoh):
        # both cycles start from the same state each tick, so the check does
        # not depend on how round-off grows over the run
        x, P, mu_ref, ref_means, ref_covs, ref_innovations = per_mode_imm_step(
            Pi, phis, Gamma, means, covs, mu, u_prev, z)
        means, covs, mu, innovations, fused = imm_step(bank, means, covs, mu, u_prev, z)
        pairs = [(fused, x), (fused_cov(means, covs, mu), P), (mu, mu_ref)]
        pairs += list(zip(innovations, ref_innovations))
        pairs += list(zip(means, ref_means))
        pairs += [(full(a), b) for a, b in zip(covs, ref_covs)]
        worst = max(worst, *(float(np.max(np.abs(np.subtract(a, b)))) for a, b in pairs))
    assert worst <= 1e-12


@pytest.mark.parametrize("modes", ["two-vertex", "one-mode"])
def test_one_pass_cycle_matches_two_pass_cycle(motor_zoh, vertices_zoh, modes):
    # the one-pass cycle returns the two-pass cycle's bits, every output on
    # every tick of criterion 3's stream, each tick from the same state
    phis, Gamma = vertices_zoh.Phi_vertices, vertices_zoh.Gamma
    if modes == "one-mode":
        phis = phis[1:]
    bank = FilterBank(phis, Gamma, default_transition_matrix(len(phis)),
                      FILTER_Q, FILTER_R)
    state = bank.initial()
    for u_prev, z in friction_switch_stream(motor_zoh):
        out = imm_step(bank, *state, u_prev, z)
        assert out == imm_step_two_pass(bank, phis, Gamma, *state, u_prev, z)
        state = out[:3]


# a child interpreter: the two-mode bank of the float.hex vertex arrays on
# stdin, every return of imm_step over the (u, z) stream hashed
_KERNEL_CHILD = """
import hashlib, json, sys
from mapsched.estimation import (FILTER_Q, FILTER_R, FilterBank,
                                 default_transition_matrix, imm_step)
data = json.load(sys.stdin)
floats = lambda rows: [[float.fromhex(v) for v in row] for row in rows]
bank = FilterBank([floats(phi) for phi in data["phis"]], floats(data["Gamma"]),
                  default_transition_matrix(2), FILTER_Q, FILTER_R)
state = bank.initial()
digest = hashlib.sha256()
for u, z in floats(data["stream"]):
    out = imm_step(bank, *state, u, z)
    digest.update(repr(out).encode())
    state = out[:3]
print(digest.hexdigest())
"""


def test_cycle_bits_do_not_depend_on_the_blas_kernel(motor_zoh, vertices_zoh):
    # the two-mode cycle makes no BLAS call, so the kernel OpenBLAS picks
    # for the CPU, Haswell's and Sandybridge's give it the same bits: the
    # same vertex floats over the first 4000 ticks of criterion 3's stream
    # hash alike. The design's expm is per kernel, so the children are
    # handed this process's arrays rather than designing their own
    hexed = lambda a: [[float.hex(v) for v in row] for row in np.asarray(a).tolist()]
    data = json.dumps({
        "phis": [hexed(phi) for phi in vertices_zoh.Phi_vertices],
        "Gamma": hexed(vertices_zoh.Gamma),
        "stream": hexed(list(islice(friction_switch_stream(motor_zoh), 4_000))),
    })
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    digests = {}
    for kernel in ("", "Haswell", "Sandybridge"):
        done = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], input=data,
                              env={**env, **({"OPENBLAS_CORETYPE": kernel} if kernel else {})},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests[kernel or "default"] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests


def test_one_pass_cycle_matches_two_pass_cycle_on_held_priors():
    # hold_bank (R = 1e300) returns the mixed priors, so random beliefs and
    # probabilities exercise the mixing and the spread of the two-mode
    # cycle on their own; under Pi = I a one-hot mu leaves predicted
    # probabilities at the floor. The one-mode bank's probability is 0.0,
    # one that its likelihood (~1e-150 here) underflows to 0.0, or one that
    # the Bayes update sets to 1.0
    upper = np.triu_indices(3)
    for nv, banks in (
        (2, (hold_bank(np.array([[0.9, 0.1], [0.3, 0.7]])), hold_bank(np.eye(2)))),
        (1, (hold_bank([[1.0]]),) * 2),
    ):
        rng = np.random.default_rng(7)
        for k in range(2_000):
            bank = banks[k % 2]
            means = [tuple(rng.normal(0.0, 10.0 ** rng.integers(-3, 3), 3).tolist())
                     for _ in range(nv)]
            covs = [tuple((A @ A.T)[upper].tolist()) for A in rng.normal(size=(nv, 3, 3))]
            if nv == 1:
                mu = [(0.0, 1e-320, 0.3, 1.0, rng.uniform())[k % 5]]
            else:
                mu = rng.dirichlet(np.ones(nv)).tolist() if k % 3 else [0.0, 1.0]
            # repr, so a zero's sign counts: it reaches trace.csv
            out = repr(imm_step(bank, means, covs, mu, 0.0, 0.0))
            assert out == repr(imm_step_two_pass(bank, [HOLD_PHI] * nv, HOLD_GAMMA, means,
                                                 covs, mu, 0.0, 0.0))


def _outcome(cycle, *args):
    """repr of what one IMM cycle returns, or the type and message it raises."""
    try:
        return repr(cycle(*args))
    except NumericalError as exc:
        return f"NumericalError: {exc}"


@pytest.mark.parametrize("nv", [1, 2])
@pytest.mark.parametrize("mode", ["euler", "zoh"])
def test_folded_cycle_fails_where_the_full_cycle_fails(motor, mode, nv):
    # the full cycle's s is NaN whenever any entry of the predicted
    # covariance (or of Phi P's first column) is not finite, through its
    # products with Phi's and H's zeros; the folded cycle tests those
    # entries itself. One non-finite or overflowing entry in each position
    # of one mode's prior covariance, from finite and non-finite inputs,
    # must give the same error, or the same output where neither raises
    vs = build_vertex_set(dataclasses.replace(motor, discretization=mode))
    phis, Gamma = vs.Phi_vertices[:nv], vs.Gamma
    bank = FilterBank(phis, Gamma, default_transition_matrix(nv), FILTER_Q, FILTER_R)
    means, covs, mu = bank.initial()
    raised = 0
    for pos in range(6):
        for value in (math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 1e160, -1e160):
            bad = list(covs)
            bad[0] = tuple(value if k == pos else c for k, c in enumerate(covs[0]))
            want = _outcome(imm_step_two_pass, bank, phis, Gamma, means, bad, mu, 0.5, 0.01)
            assert _outcome(imm_step, bank, means, bad, mu, 0.5, 0.01) == want
            raised += want.startswith("NumericalError")
    # every non-finite entry raises, and so do some overflowing ones
    assert raised > 18


def test_folded_cycle_names_each_diverged_covariance(motor):
    # finite means 2e150 to 2e300 apart, along each state: the spread
    # overflows or it does not; and the last mode's covariance grown past
    # round-off against R. Each outcome, a failure's message included, is
    # the full cycle's. Under the default Pi each mode mixes from the other
    # and mode 0 fails first. Under an upper-triangular Pi mode 0 mixes
    # from itself alone, so mode 1 can fail by itself
    vs = build_vertex_set(dataclasses.replace(motor, discretization="zoh"))
    outcomes = []
    for Pi in (default_transition_matrix(2), [[0.9, 0.1], [0.0, 1.0]]):
        bank = FilterBank(vs.Phi_vertices, vs.Gamma, Pi, FILTER_Q, FILTER_R)
        held, covs, mu = bank.initial()
        cases = [(held, [covs[0], (0.0, 0.0, 0.0, -1e200, 0.0, 0.0)])]
        for k in range(3):
            for scale in (1e150, 1e200, 1e300):
                apart = [tuple(scale if i == k else 0.0 for i in range(3)),
                         tuple(-scale if i == k else 0.0 for i in range(3))]
                cases.append((apart, covs))
        for means, priors in cases:
            want = _outcome(imm_step_two_pass, bank, vs.Phi_vertices, vs.Gamma, means,
                            priors, mu, 0.0, 0.0)
            assert _outcome(imm_step, bank, means, priors, mu, 0.0, 0.0) == want
            outcomes.append(want)
    assert any("mode 0's mixed prior covariance is not finite" in o for o in outcomes)
    assert any("mode 1's predicted covariance reached" in o for o in outcomes)
    assert not all(o.startswith("NumericalError") for o in outcomes)


@pytest.mark.parametrize("b_max", [1.63e-4, 6e-4, 1.3e-2])
@pytest.mark.parametrize("T", [1e-4, 5e-4, 1e-3, 2e-3, 1e-2])
@pytest.mark.parametrize("mode", ["euler", "zoh"])
def test_bank_takes_every_vertex_model(motor, mode, T, b_max):
    # Phi's first column e0 holds exactly for every model the vertex set
    # builds, under either discretization
    vs = build_vertex_set(dataclasses.replace(motor, b_max=b_max, sample_time=T,
                                              discretization=mode))
    for phi in vs.Phi_vertices:
        assert phi[:, 0].tolist() == [1.0, 0.0, 0.0]
    FilterBank(vs.Phi_vertices, vs.Gamma, default_transition_matrix(2), FILTER_Q, FILTER_R)


@pytest.mark.parametrize("Phi_col", [
    [1.0, 1e-300, 0.0],
    [1.0 + 2.0 ** -52, 0.0, 0.0],
    [1.0, 0.0, math.nan],
], ids=["Phi-tiny", "Phi-ulp", "Phi-nan"])
def test_bank_refuses_models_without_the_motor_structure(Phi_col):
    Phi = np.eye(3)
    Phi[:, 0] = Phi_col
    with pytest.raises(ParameterError, match="first column e0"):
        FilterBank([Phi], HOLD_GAMMA, [[1.0]], FILTER_Q, FILTER_R)


class TestNisConsistency:
    def test_normalized_innovation_in_chi_square_band(self, vertices_zoh):
        # linear truth identical to the filter model, with matched noise:
        # the time-average NIS must sit near the measurement dimension
        phi, Gamma = vertices_zoh.Phi_vertices[0], vertices_zoh.Gamma
        rng = np.random.default_rng(123)
        Lq = np.linalg.cholesky(FILTER_Q)
        truth = np.zeros(3)
        x, P = initial_belief()
        nis = []
        for k in range(10_000):
            u = 1.5 * math.sin(0.005 * k)
            truth = phi @ truth + Gamma[:, 0] * u + Lq @ rng.standard_normal(3)
            z = truth[0] + math.sqrt(FILTER_R[0, 0]) * rng.standard_normal()
            x, P = kf_predict(x, P, phi, Gamma, u, FILTER_Q)
            x, P, r, s = kf_update(x, P, z, FILTER_R)
            nis.append(r ** 2 / s)
        avg = float(np.mean(nis))
        assert 0.5 <= avg <= 2.0


class TestStateValidation:
    def test_default_transition_matrix(self):
        # bit for bit: the two-mode off-diagonal is 1.0 - 0.9, one ulp
        # below the literal 0.1, and it reaches every imm run
        assert default_transition_matrix(1).tolist() == [[1.0]]
        assert default_transition_matrix(2).tolist() == [[0.9, 1.0 - 0.9], [1.0 - 0.9, 0.9]]
        assert default_transition_matrix(2)[0, 1] == 0.09999999999999998 != 0.1
        with pytest.raises(ParameterError, match="1 or 2 modes, got 3"):
            default_transition_matrix(3)


def test_filter_trace_csv(tmp_path, motor_zoh, vertices_zoh):
    # the run trace carries the IMM outputs of every tick, round-tripped exactly
    spec = ScenarioSpec(duration=0.01, seed=3, sample_time=motor_zoh.sample_time,
                        friction=constant_schedule(motor_zoh.b_min))
    rec = run_scenario(spec, motor_zoh, vertices_zoh)
    path = tmp_path / "trace.csv"
    write_run_csvs(path, None, rec)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for k, row in enumerate(rows):
        assert [float(row[c]) for c in ("mu_1", "mu_2")] == rec.mu[k].tolist()
        assert [float(row[c]) for c in ("theta_est", "omega_est", "current_est")] == (
            rec.estimate[k].tolist()
        )
        assert float(row["rho_hat"]) == rec.rho_hat[k]
