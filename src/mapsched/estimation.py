"""Kalman filtering and the interacting-multiple-model (IMM) cycle.

A bank of per-mode Kalman filters is fused through Markov-chain mode
probabilities; the probability-weighted scheduling value rho_hat feeds the
gain scheduler downstream.

`imm_step` is the one IMM cycle in the package. It runs on plain floats for
the 3-state motor models with the scalar angle measurement: per mode a mean
3-tuple and the upper triangle (p00, p01, p02, p11, p12, p22) of its
covariance. A `FilterBank` holds the models, Pi and noise it reads. A single
Kalman filter is the one-mode bank with Pi = [[1]]. `kf_predict`,
`kf_update` and `imm_likelihood` are the per-mode array forms the tests
check the cycle against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .motor import DiscreteModel, _frozen

# probability floors sit above the subnormal range so normalization stays finite
LIKELIHOOD_FLOOR = 1e-300
MIX_FLOOR = 1e-300

_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_P0_DIAG = (1e-3, 1e-1, 1e-2)


def _sym(P: np.ndarray) -> np.ndarray:
    """Symmetrize a covariance."""
    return 0.5 * (P + P.T)


def _upper(P) -> tuple:
    """Upper triangle (p00, p01, p02, p11, p12, p22) of a 3x3 covariance."""
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = np.asarray(P, dtype=float).tolist()
    return p00, p01, p02, p11, p12, p22


@dataclass(frozen=True)
class NoiseConfig:
    """Process and measurement covariances used by every filter mode."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = _frozen(self.Q)
        R = _frozen(np.atleast_2d(self.R))
        if np.any(np.linalg.eigvalsh(_sym(Q)) < -1e-12):
            raise ParameterError("Q must be positive semidefinite")
        if np.any(np.linalg.eigvalsh(_sym(R)) <= 0.0):
            raise ParameterError("R must be positive definite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)

    @classmethod
    def default(cls) -> "NoiseConfig":
        return cls(Q=np.diag([1e-6, 1e-6, 1e-6]), R=np.array([[1e-5]]))


def initial_belief() -> tuple:
    """(x0, P0): zero mean with a broad diagonal covariance relative to
    signal scales."""
    return np.zeros(3), np.diag(DEFAULT_P0_DIAG)


def default_transition_matrix(nv: int, stay: float = 0.9) -> np.ndarray:
    """Transition matrix with `stay` on the diagonal, uniform leakage elsewhere."""
    if nv == 1:
        return np.array([[1.0]])
    Pi = np.full((nv, nv), (1.0 - stay) / (nv - 1))
    np.fill_diagonal(Pi, stay)
    return Pi


def kf_predict(x: np.ndarray, P: np.ndarray, model: DiscreteModel, u: float,
               Q: np.ndarray) -> tuple:
    """Time update: x = Phi x + Gamma u, P = Phi P Phi' + Q."""
    return model.Phi @ x + model.Gamma[:, 0] * u, _sym(model.Phi @ P @ model.Phi.T + Q)


def kf_update(x: np.ndarray, P: np.ndarray, model: DiscreteModel, z: float,
              R: np.ndarray) -> tuple:
    """Scalar measurement update with the short-form covariance update.

    Returns (x, P, residual r, innovation variance s).
    """
    H = model.H
    if H.shape[0] != 1:
        raise ParameterError("kf_update takes a scalar measurement")
    r = float(z - (H @ x)[0])
    PHt = P @ H[0]
    s = float(H[0] @ PHt) + float(np.atleast_2d(R)[0, 0])
    if not s > 0.0:
        raise NumericalError("innovation covariance is not positive definite")
    K = PHt / s
    return x + K * r, _sym(P - np.outer(K, PHt)), r, s


def imm_likelihood(r: float, s: float) -> float:
    """Gaussian density of the scalar innovation r with variance s, computed
    in log space and exponentiated once to dodge underflow."""
    if not s > 0.0:
        raise NumericalError("innovation covariance is not positive definite")
    return math.exp(-0.5 * (_LOG_2PI + math.log(s) + r ** 2 / s))


def _spread(weights, x, means, covs):
    """Covariance upper triangle of the Gaussian mixture
    sum_i weights[i] N(means[i], covs[i]) whose mean is x."""
    x0, x1, x2 = x
    p00 = p01 = p02 = p11 = p12 = p22 = 0.0
    for w, (m0, m1, m2), (c00, c01, c02, c11, c12, c22) in zip(weights, means, covs):
        d0, d1, d2 = m0 - x0, m1 - x1, m2 - x2
        p00 += w * (c00 + d0 * d0)
        p01 += w * (c01 + d0 * d1)
        p02 += w * (c02 + d0 * d2)
        p11 += w * (c11 + d1 * d1)
        p12 += w * (c12 + d1 * d2)
        p22 += w * (c22 + d2 * d2)
    return p00, p01, p02, p11, p12, p22


class FilterBank:
    """Per-mode models, the transition matrix Pi and the noise of an IMM bank
    of 3-state filters with a scalar measurement, held as float tuples.

    Q is folded into its symmetric part, as `kf_predict` folds it.
    """

    __slots__ = ("phi", "gamma", "h", "pi_t", "pi_cols", "q", "r")

    def __init__(self, models, Pi, noise: NoiseConfig):
        models = tuple(models)
        for m in models:
            if m.Phi.shape != (3, 3) or m.Gamma.shape != (3, 1):
                raise ParameterError("the filter bank takes 3-state, single-input models")
            if m.H.shape != (1, 3):
                raise ParameterError("the filter bank takes a scalar measurement")
        Pi = np.asarray(Pi, dtype=float)
        if not models or Pi.shape != (len(models), len(models)):
            raise ParameterError("Pi must be Nv x Nv for Nv >= 1 modes")
        if any(not min(row) >= 0.0 or not abs(sum(row) - 1.0) <= 1e-12 for row in Pi.tolist()):
            raise ParameterError("each row of Pi must be a probability vector")
        if noise.Q.shape != (3, 3) or noise.R.shape != (1, 1):
            raise ParameterError("noise must be a 3x3 Q and a 1x1 R")
        self.phi = tuple(tuple(m.Phi.reshape(-1).tolist()) for m in models)
        self.gamma = tuple(tuple(m.Gamma[:, 0].tolist()) for m in models)
        self.h = tuple(tuple(m.H[0].tolist()) for m in models)
        self.pi_t = _frozen(Pi).T
        self.pi_cols = tuple(map(tuple, Pi.T.tolist()))
        self.q = _upper(_sym(noise.Q))
        self.r = float(noise.R[0, 0])

    def initial(self):
        """(means, covs, mu): every mode starts from `initial_belief()`, with
        uniform mode probabilities."""
        x0, P0 = initial_belief()
        nv = len(self.phi)
        return [tuple(x0.tolist())] * nv, [_upper(P0)] * nv, [1.0 / nv] * nv


def imm_step(bank: FilterBank, means, covs, mu, u: float, z: float):
    """One IMM cycle of `bank`: mix, per-mode predict and scalar update,
    likelihoods, probability update, fused mean.

    Returns (means, covs, mu, likelihoods, fused mean), all floats.
    """
    q00, q01, q02, q11, q12, q22 = bank.q
    R = bank.r
    nv = len(mu)
    if nv == 1:
        # Pi = [[1]]: the mode is its own mixed prior
        mu_pred, priors = mu, [(means[0], covs[0])]
    else:
        # interaction: mu_pred = Pi' mu and the mixed prior of every mode,
        # mixing[j][i] = P(mode i previously | mode j now). mu_pred and the
        # mixed means are numpy products so that they round as the per-mode
        # array form does: the likelihood ratio scales the last bit of the
        # mixed angle by r/s (up to ~700 per rad on the motor), and the two
        # forms of the cycle agree to 1e-12 in mu only this way.
        mu_pred = (bank.pi_t @ np.array(mu)).tolist()
        mixing = [[p * m / max(c, MIX_FLOOR) for p, m in zip(col, mu)]
                  for col, c in zip(bank.pi_cols, mu_pred)]
        mixed_means = (np.array(mixing) @ np.array(means)).tolist()
        priors = [(x, _spread(w, x, means, covs)) for w, x in zip(mixing, mixed_means)]
    out_means, out_covs, liks = [], [], []
    for j in range(nv):
        (m0, m1, m2), (p00, p01, p02, p11, p12, p22) = priors[j]
        f00, f01, f02, f10, f11, f12, f20, f21, f22 = bank.phi[j]
        g0, g1, g2 = bank.gamma[j]
        h0, h1, h2 = bank.h[j]
        # time update: x = Phi x + Gamma u, P = Phi P Phi' + Q
        y0 = f00 * m0 + f01 * m1 + f02 * m2 + g0 * u
        y1 = f10 * m0 + f11 * m1 + f12 * m2 + g1 * u
        y2 = f20 * m0 + f21 * m1 + f22 * m2 + g2 * u
        a00 = f00 * p00 + f01 * p01 + f02 * p02
        a01 = f00 * p01 + f01 * p11 + f02 * p12
        a02 = f00 * p02 + f01 * p12 + f02 * p22
        a10 = f10 * p00 + f11 * p01 + f12 * p02
        a11 = f10 * p01 + f11 * p11 + f12 * p12
        a12 = f10 * p02 + f11 * p12 + f12 * p22
        a20 = f20 * p00 + f21 * p01 + f22 * p02
        a21 = f20 * p01 + f21 * p11 + f22 * p12
        a22 = f20 * p02 + f21 * p12 + f22 * p22
        n00 = a00 * f00 + a01 * f01 + a02 * f02 + q00
        n01 = a00 * f10 + a01 * f11 + a02 * f12 + q01
        n02 = a00 * f20 + a01 * f21 + a02 * f22 + q02
        n11 = a10 * f10 + a11 * f11 + a12 * f12 + q11
        n12 = a10 * f20 + a11 * f21 + a12 * f22 + q12
        n22 = a20 * f20 + a21 * f21 + a22 * f22 + q22
        # scalar measurement update; the likelihood refuses s <= 0
        v0 = n00 * h0 + n01 * h1 + n02 * h2
        v1 = n01 * h0 + n11 * h1 + n12 * h2
        v2 = n02 * h0 + n12 * h1 + n22 * h2
        s = h0 * v0 + h1 * v1 + h2 * v2 + R
        res = z - (h0 * y0 + h1 * y1 + h2 * y2)
        liks.append(max(imm_likelihood(res, s), LIKELIHOOD_FLOOR))
        k0, k1, k2 = v0 / s, v1 / s, v2 / s
        out_means.append((y0 + k0 * res, y1 + k1 * res, y2 + k2 * res))
        out_covs.append((n00 - k0 * v0, n01 - k0 * v1, n02 - k0 * v2,
                         n11 - k1 * v1, n12 - k1 * v2, n22 - k2 * v2))
    # Bayes update; if every product underflows the prediction is kept
    w = [lik * m for lik, m in zip(liks, mu_pred)]
    total = 0.0
    for v in w:
        total += v
    mu = [v / total for v in w] if 0.0 < total < math.inf else mu_pred
    x0 = x1 = x2 = 0.0
    for m, (e0, e1, e2) in zip(mu, out_means):
        x0 += m * e0
        x1 += m * e1
        x2 += m * e2
    return out_means, out_covs, mu, liks, (x0, x1, x2)
