"""Kalman filtering and the interacting-multiple-model (IMM) cycle.

A bank of per-mode Kalman filters is fused through Markov-chain mode
probabilities; the probability-weighted scheduling value rho_hat feeds the
gain scheduler downstream.

`imm_step` is the one IMM cycle in the package. It runs on plain floats for
the 3-state motor models with the scalar angle measurement: per mode a mean
3-tuple and the upper triangle (p00, p01, p02, p11, p12, p22) of its
covariance. After the two mixing products it makes one pass over the modes:
mixed prior covariance, prediction, update, likelihood and the mode's share
of the probability update. A `FilterBank` holds what the cycle reads: one
flat tuple of Phi, Gamma and H per mode, Pi and the noise. A single Kalman
filter is the one-mode bank with Pi = [[1]], whose probability is exactly
1.0 on every cycle. `kf_predict`, `kf_update` and `imm_likelihood` are the
per-mode array forms the tests check the cycle against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import chain

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
    @cache
    def default(cls) -> "NoiseConfig":
        """The stock covariances: one validated, read-only instance, built
        on first use and shared by every caller."""
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


class FilterBank:
    """Per-mode models, the transition matrix Pi and the noise of an IMM bank
    of 3-state filters with a scalar measurement, held as float tuples.

    Q is folded into its symmetric part, as `kf_predict` folds it.
    """

    __slots__ = ("modes", "pi_t", "pi_cols", "q", "r")

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
        # per mode: Phi row-major, Gamma, H
        self.modes = tuple(
            tuple(np.concatenate((m.Phi.reshape(-1), m.Gamma[:, 0], m.H[0])).tolist())
            for m in models
        )
        self.pi_t = _frozen(Pi).T
        self.pi_cols = tuple(map(tuple, Pi.T.tolist()))
        self.q = _upper(_sym(noise.Q))
        self.r = float(noise.R[0, 0])

    def initial(self):
        """(means, covs, mu): every mode starts from `initial_belief()`, with
        uniform mode probabilities."""
        x0, P0 = initial_belief()
        nv = len(self.modes)
        return [tuple(x0.tolist())] * nv, [_upper(P0)] * nv, [1.0 / nv] * nv


def imm_step(bank: FilterBank, means, covs, mu, u: float, z: float):
    """One IMM cycle of `bank`: mix, then one pass over the modes that forms
    each mode's mixed prior covariance, predicts, updates and weighs its
    likelihood; then the probability update and the fused mean.

    Returns (means, covs, mu, likelihoods, fused mean), all floats.
    """
    q00, q01, q02, q11, q12, q22 = bank.q
    R = bank.r
    if len(mu) == 1:
        # Pi = [[1]]: the mode is its own mixed prior
        mu_pred, mixing, priors = mu, (None,), means
    else:
        # interaction: mu_pred = Pi' mu and the mixed means, with
        # mixing[j][i] = P(mode i previously | mode j now). Both products
        # stay BLAS calls: OpenBLAS's kernel, chosen at run time, rounds
        # w1 m1 + w0 m0 as fma(w1, m1, w0 m0), which a float loop does not
        # reproduce, and the likelihood ratio scales the last bit of the
        # mixed angle by r/s (up to ~700 per rad on the motor). Called as
        # ndarray methods they skip np.dot's dispatch, with the same bits.
        mu_pred = bank.pi_t.dot(mu).tolist()
        mixing = [[p * m / (MIX_FLOOR if MIX_FLOOR > c else c) for p, m in zip(col, mu)]
                  for col, c in zip(bank.pi_cols, mu_pred)]
        priors = np.array(mixing).dot(np.array(means)).tolist()
    out_means, out_covs, liks, w = [], [], [], []
    total = 0.0
    for mode, weights, (m0, m1, m2), mp in zip(bank.modes, mixing, priors, mu_pred):
        if weights is None:
            p00, p01, p02, p11, p12, p22 = covs[0]
        else:
            # mixed prior covariance: the weighted spread about the mixed mean
            p00 = p01 = p02 = p11 = p12 = p22 = 0.0
            for wi, (e0, e1, e2), (c00, c01, c02, c11, c12, c22) in zip(weights, means, covs):
                d0, d1, d2 = e0 - m0, e1 - m1, e2 - m2
                p00 += wi * (c00 + d0 * d0)
                p01 += wi * (c01 + d0 * d1)
                p02 += wi * (c02 + d0 * d2)
                p11 += wi * (c11 + d1 * d1)
                p12 += wi * (c12 + d1 * d2)
                p22 += wi * (c22 + d2 * d2)
        f00, f01, f02, f10, f11, f12, f20, f21, f22, g0, g1, g2, h0, h1, h2 = mode
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
        # scalar measurement update and the likelihood, as imm_likelihood
        v0 = n00 * h0 + n01 * h1 + n02 * h2
        v1 = n01 * h0 + n11 * h1 + n12 * h2
        v2 = n02 * h0 + n12 * h1 + n22 * h2
        s = h0 * v0 + h1 * v1 + h2 * v2 + R
        if not s > 0.0:
            raise _innovation_error(
                len(liks), means, covs, mu, u, z,
                (p00, p01, p02, p11, p12, p22), (n00, n01, n02, n11, n12, n22), R)
        res = z - (h0 * y0 + h1 * y1 + h2 * y2)
        try:
            lik = math.exp(-0.5 * (_LOG_2PI + math.log(s) + res ** 2 / s))
        except OverflowError:
            raise NumericalError(f"innovation {res!r} overflows the likelihood") from None
        if lik < LIKELIHOOD_FLOOR:
            lik = LIKELIHOOD_FLOOR
        liks.append(lik)
        k0, k1, k2 = v0 / s, v1 / s, v2 / s
        out_means.append((y0 + k0 * res, y1 + k1 * res, y2 + k2 * res))
        out_covs.append((n00 - k0 * v0, n01 - k0 * v1, n02 - k0 * v2,
                         n11 - k1 * v1, n12 - k1 * v2, n22 - k2 * v2))
        wj = lik * mp
        w.append(wj)
        total += wj
    # Bayes update; if every product underflows the prediction is kept
    mu = [v / total for v in w] if 0.0 < total < math.inf else mu_pred
    x0 = x1 = x2 = 0.0
    for m, (e0, e1, e2) in zip(mu, out_means):
        x0 += m * e0
        x1 += m * e1
        x2 += m * e2
    return out_means, out_covs, mu, liks, (x0, x1, x2)


def _innovation_error(j, means, covs, mu, u, z, prior, predicted, R) -> NumericalError:
    """The failure of mode j's innovation variance. From finite inputs an
    estimate that has diverged gets here two ways: its mixed prior or
    predicted covariance overflows, or it grows until the round-off of
    Phi P Phi' exceeds R and the covariance loses positive definiteness.
    Anything else is reported as an indefinite innovation."""
    if all(map(math.isfinite, chain((u, z), mu, *means, *covs))):
        for name, cov in (("mixed prior", prior), ("predicted", predicted)):
            if not all(map(math.isfinite, cov)):
                return NumericalError(
                    f"the estimate diverged: mode {j}'s {name} covariance is not finite")
        size = max(map(abs, predicted))
        if size * sys.float_info.epsilon > R:
            return NumericalError(
                f"the estimate diverged: mode {j}'s predicted covariance reached {size:.3g}, "
                f"past float64 round-off against R = {R:.3g}")
    return NumericalError("innovation covariance is not positive definite")
