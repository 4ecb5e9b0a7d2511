"""Kalman filtering and the interacting-multiple-model (IMM) cycle.

A bank of per-mode Kalman filters is fused through Markov-chain mode
probabilities; the probability-weighted scheduling value rho_hat feeds the
gain scheduler downstream.

`imm_step` is the one IMM cycle in the package. It runs on plain floats for
the 3-state motor models with the scalar angle measurement: per mode a mean
3-tuple and the upper triangle (p00, p01, p02, p11, p12, p22) of its
covariance. A bank holds one or two modes. MAPS schedules on two friction
modes, the vertices b_min and b_max, and the `imm` estimator's two-mode
bank takes `_two_mode_step`: the predicted probabilities and the mixed
means, then per mode its mixed prior covariance and `_mode_step`, which
predicts, updates and weighs the likelihood, then the probability update,
all with no numpy call. Each mode's innovation (r, s), the angle residual
and its variance, is returned in place of its likelihood: the normalized
innovation squared of the mode is r^2 / s. The one-mode bank of `kf:<i>`
is its own mixed prior: one `_mode_step`, and its probability stays 1.0.
`_mode_step` is the one copy of the per-mode filter arithmetic and of its
failure checks. The per-mode step is folded for the motor's structure,
H = [1, 0, 0] and Phi's first column e0: the products with those ones and
zeros are left out, which changes no bit of a result, and the failures the
left-out zeros would have turned into a NaN innovation variance are tested
for explicitly. A `FilterBank` takes the vertex arrays Phi_i and Gamma,
refuses a Phi whose first column is not e0, and holds what the cycle reads:
Phi's last two columns and Gamma per mode as one flat tuple, the columns
of Pi and the covariances Q and R; every run passes the stock FILTER_Q
and FILTER_R. A single Kalman filter is the one-mode bank with
Pi = [[1]]. Every run's Pi
is `default_transition_matrix`'s: [[1]] for one mode, and for two, each
mode kept with probability 0.9. `kf_predict` and `kf_update` are the
per-mode array forms of the prediction and the angle update: no run calls
them, the tests check the cycle against them, and the benchmark's tracer
looks them up on `harness`.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

import numpy as np

from .errors import NumericalError, ParameterError
from .motor import _frozen

# probability floors sit above the subnormal range so normalization stays finite
LIKELIHOOD_FLOOR = 1e-300
MIX_FLOOR = 1e-300

_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_P0_DIAG = (1e-3, 1e-1, 1e-2)

# the stock process and measurement covariances of every filter mode,
# read-only
FILTER_Q = _frozen(np.diag([1e-6, 1e-6, 1e-6]))
FILTER_R = _frozen([[1e-5]])


def _sym(P: np.ndarray) -> np.ndarray:
    """Symmetrize a covariance."""
    return 0.5 * (P + P.T)


def _upper(P) -> tuple:
    """Upper triangle (p00, p01, p02, p11, p12, p22) of a 3x3 covariance."""
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = np.asarray(P, dtype=float).tolist()
    return p00, p01, p02, p11, p12, p22


def initial_belief() -> tuple:
    """(x0, P0): zero mean with a broad diagonal covariance relative to
    signal scales."""
    return np.zeros(3), np.diag(DEFAULT_P0_DIAG)


def default_transition_matrix(n_modes: int) -> np.ndarray:
    """The stock mode transition matrix of a bank: [[1]] for one mode, and
    for the two friction modes, keep the mode with probability 0.9 and leak
    1.0 - 0.9 to the other."""
    if n_modes == 1:
        return np.array([[1.0]])
    if n_modes != 2:
        raise ParameterError(f"a transition matrix for 1 or 2 modes, got {n_modes}")
    stay = 0.9
    return np.array([[stay, 1.0 - stay], [1.0 - stay, stay]])


def kf_predict(x: np.ndarray, P: np.ndarray, Phi: np.ndarray, Gamma: np.ndarray,
               u: float, Q: np.ndarray) -> tuple:
    """Time update: x = Phi x + Gamma u, P = Phi P Phi' + Q."""
    return Phi @ x + Gamma[:, 0] * u, _sym(Phi @ P @ Phi.T + Q)


def kf_update(x: np.ndarray, P: np.ndarray, z: float, R: np.ndarray) -> tuple:
    """Update on a measurement z of the first state, H = [1, 0, ...], with
    the short-form covariance update.

    Returns (x, P, residual r, innovation variance s).
    """
    r = float(z - x[0])
    PHt = P[:, 0]
    s = float(PHt[0]) + float(np.atleast_2d(R)[0, 0])
    if not s > 0.0:
        raise NumericalError("innovation covariance is not positive definite")
    K = PHt / s
    return x + K * r, _sym(P - np.outer(K, PHt)), r, s


class FilterBank:
    """Per-mode transition matrices `phis` with the shared input map Gamma,
    the mode transition matrix Pi and the process and measurement
    covariances Q and R of an IMM bank of 3-state filters measuring the
    first state, held as float tuples. A bank holds one mode, a Kalman
    filter, or two, the IMM of the two friction vertices.

    Every Phi must have the motor's structure exactly: its first column e0
    (the angle enters only its own integration). That holds for every
    vertex `build_vertex_set` makes: A's first column is zero, which each
    of DISCRETIZERS maps to e0 (I + T A under Euler, expm(T A) under ZOH). So
    per mode only Phi's last two columns and Gamma are held, the nine
    floats `imm_step` reads. Q is folded into its symmetric part, as
    `kf_predict` folds it.
    """

    __slots__ = ("modes", "pi_cols", "q", "r")

    def __init__(self, phis, Gamma, Pi, Q, R):
        phis = tuple(np.asarray(phi, dtype=float) for phi in phis)
        nv = len(phis)
        if nv not in (1, 2):
            raise ParameterError(f"the filter bank takes 1 or 2 modes, got {nv}")
        Gamma = np.asarray(Gamma, dtype=float)
        if Gamma.shape != (3, 1) or any(phi.shape != (3, 3) for phi in phis):
            raise ParameterError("the filter bank takes 3-state, single-input models")
        if any(phi[:, 0].tolist() != [1.0, 0.0, 0.0] for phi in phis):
            raise ParameterError("the filter bank takes models whose first state "
                                 "only integrates: Phi's first column e0 exactly")
        Pi = np.asarray(Pi, dtype=float)
        if Pi.shape != (nv, nv):
            raise ParameterError(f"Pi must be {nv}x{nv}, one row and column per mode")
        if any(not min(row) >= 0.0 or not abs(sum(row) - 1.0) <= 1e-12 for row in Pi.tolist()):
            raise ParameterError("each row of Pi must be a probability vector")
        Q, R = np.asarray(Q, dtype=float), np.asarray(R, dtype=float)
        if Q.shape != (3, 3) or R.shape != (1, 1):
            raise ParameterError("noise must be a 3x3 Q and a 1x1 R")
        # per mode: Phi's last two columns row-major, then Gamma
        self.modes = tuple(
            tuple(np.concatenate((phi[:, 1:].reshape(-1), Gamma[:, 0])).tolist())
            for phi in phis
        )
        self.pi_cols = tuple(map(tuple, Pi.T.tolist()))
        self.q = _upper(_sym(Q))
        self.r = float(R[0, 0])

    def initial(self):
        """(means, covs, mu): every mode starts from `initial_belief()`, with
        uniform mode probabilities."""
        x0, P0 = initial_belief()
        nv = len(self.modes)
        return [tuple(x0.tolist())] * nv, [_upper(P0)] * nv, [1.0 / nv] * nv


def imm_step(bank: FilterBank, means, covs, mu, u: float, z: float):
    """One IMM cycle of `bank`: mix, each mode's mixed prior covariance and
    `_mode_step` on it, then the probability update and the fused mean.

    A two-mode bank, the `imm` estimator's, takes `_two_mode_step`. A
    one-mode bank, `kf:<i>`'s, has Pi = [[1]]: its mode is its own mixed
    prior, and its probability lik mu / lik mu is 1.0 wherever that
    product is positive and finite.

    Returns (means, covs, mu, innovations, fused mean), all floats; each
    mode's innovation is its (residual r, variance s).
    """
    if len(bank.modes) == 2:
        return _two_mode_step(bank, means, covs, mu, u, z)
    x, P, lik, inn = _mode_step(bank, 0, means[0], covs[0], means, covs, mu, u, z)
    # Bayes update; if the product underflows the prediction is kept
    if 0.0 < lik * mu[0] < math.inf:
        mu = [1.0]
    m = mu[0]
    # summed from 0.0, as the two-mode mean is: a mean of -0.0 fuses to +0.0
    return [x], [P], mu, [inn], (0.0 + m * x[0], 0.0 + m * x[1], 0.0 + m * x[2])


def _two_mode_step(bank: FilterBank, means, covs, mu, u: float, z: float):
    """The IMM cycle of a two-mode bank, on floats: `mu_pred = Pi' mu`, the
    floored mixing weights and the mixed means, each mode's mixed prior
    covariance (`_spread`) and `_mode_step` on it, then the probability
    update and the fused mean. Every sum over the two modes, from mu_pred
    to the fused mean, is summed from 0.0 in mode order.
    """
    mu0, mu1 = mu
    # mu_pred_j = sum_i Pi[i][j] mu_i
    (pi00, pi10), (pi01, pi11) = bank.pi_cols
    mp0, mp1 = mu_pred = [0.0 + pi00 * mu0 + pi10 * mu1, 0.0 + pi01 * mu0 + pi11 * mu1]
    # wji = P(mode i previously | mode j now) = Pi[i][j] mu_i / mu_pred_j
    c = MIX_FLOOR if MIX_FLOOR > mp0 else mp0
    w00, w01 = pi00 * mu0 / c, pi10 * mu1 / c
    c = MIX_FLOOR if MIX_FLOOR > mp1 else mp1
    w10, w11 = pi01 * mu0 / c, pi11 * mu1 / c
    # the mixed means, then each mode's filter step from its mixed prior
    (a0, a1, a2), (b0, b1, b2) = means
    m = (0.0 + w00 * a0 + w01 * b0, 0.0 + w00 * a1 + w01 * b1, 0.0 + w00 * a2 + w01 * b2)
    n = (0.0 + w10 * a0 + w11 * b0, 0.0 + w10 * a1 + w11 * b1, 0.0 + w10 * a2 + w11 * b2)
    x, P, lik0, inn0 = _mode_step(bank, 0, m, _spread(w00, w01, m, means, covs),
                                  means, covs, mu, u, z)
    y, S, lik1, inn1 = _mode_step(bank, 1, n, _spread(w10, w11, n, means, covs),
                                  means, covs, mu, u, z)
    w0, w1 = lik0 * mp0, lik1 * mp1
    total = 0.0 + w0 + w1
    # Bayes update; if every product underflows the prediction is kept
    if 0.0 < total < math.inf:
        mu0, mu1 = mu = [w0 / total, w1 / total]
    else:
        mu0, mu1 = mu = mu_pred
    return ([x, y], [P, S], mu, [inn0, inn1],
            (0.0 + mu0 * x[0] + mu1 * y[0], 0.0 + mu0 * x[1] + mu1 * y[1],
             0.0 + mu0 * x[2] + mu1 * y[2]))


def _spread(wa, wb, mean, means, covs) -> tuple:
    """A two-mode bank's mixed prior covariance: the spread of the beliefs
    `means`, `covs`, weighted wa and wb, about their mixed mean, summed
    from 0.0 in mode order."""
    m0, m1, m2 = mean
    (a0, a1, a2), (b0, b1, b2) = means
    (a00, a01, a02, a11, a12, a22), (b00, b01, b02, b11, b12, b22) = covs
    d0, d1, d2 = a0 - m0, a1 - m1, a2 - m2
    e0, e1, e2 = b0 - m0, b1 - m1, b2 - m2
    return (0.0 + wa * (a00 + d0 * d0) + wb * (b00 + e0 * e0),
            0.0 + wa * (a01 + d0 * d1) + wb * (b01 + e0 * e1),
            0.0 + wa * (a02 + d0 * d2) + wb * (b02 + e0 * e2),
            0.0 + wa * (a11 + d1 * d1) + wb * (b11 + e1 * e1),
            0.0 + wa * (a12 + d1 * d2) + wb * (b12 + e1 * e2),
            0.0 + wa * (a22 + d2 * d2) + wb * (b22 + e2 * e2))


def _mode_step(bank: FilterBank, j: int, mean, prior, means, covs, mu, u: float, z: float):
    """Mode j's filter step from its mixed prior (mean, prior): predict,
    update on the angle z and weigh the likelihood. `means`, `covs` and `mu`
    are the cycle's inputs, read only to name a failure.

    Returns the updated mean, the upper triangle of its covariance, the
    floored likelihood and the innovation (r, s).
    """
    m0, m1, m2 = mean
    p00, p01, p02, p11, p12, p22 = prior
    q00, q01, q02, q11, q12, q22 = bank.q
    R = bank.r
    f01, f02, f11, f12, f21, f22, g0, g1, g2 = bank.modes[j]
    # time update: x = Phi x + Gamma u, P = Phi P Phi' + Q, with Phi's
    # first column e0: its 1.0 and 0.0 products drop out
    y0 = m0 + f01 * m1 + f02 * m2 + g0 * u
    y1 = f11 * m1 + f12 * m2 + g1 * u
    y2 = f21 * m1 + f22 * m2 + g2 * u
    a00 = p00 + f01 * p01 + f02 * p02
    a01 = p01 + f01 * p11 + f02 * p12
    a02 = p02 + f01 * p12 + f02 * p22
    a11 = f11 * p11 + f12 * p12
    a12 = f11 * p12 + f12 * p22
    a21 = f21 * p11 + f22 * p12
    a22 = f21 * p12 + f22 * p22
    n00 = a00 + a01 * f01 + a02 * f02 + q00
    n01 = a01 * f11 + a02 * f12 + q01
    n02 = a01 * f21 + a02 * f22 + q02
    n11 = a11 * f11 + a12 * f12 + q11
    n12 = a11 * f21 + a12 * f22 + q12
    n22 = a21 * f21 + a22 * f22 + q22
    # scalar measurement update of the angle: P H' = (n00, n01, n02),
    # s = n00 + R and the residual z - y0
    s = n00 + R
    # through Phi's and H's zeros the unfolded cycle's s is NaN where
    # Phi P's first column (a00, a10, a20) or the predicted covariance
    # past n00 is not finite. One sum tests them all; a sum that
    # overflows from finite terms is tested again term by term
    a10 = f11 * p01 + f12 * p02
    a20 = f21 * p01 + f22 * p02
    if not (s > 0.0 and (a00 + a10 + a20 + n01 + n02 + n11 + n12 + n22) * 0.0 == 0.0):
        # the unfolded predicted covariance, NaN where those products are
        unfolded = (n00, n01 + a00 * 0.0, n02 + a00 * 0.0,
                    n11 + a10 * 0.0, n12 + a10 * 0.0, n22 + a20 * 0.0)
        if not (s > 0.0 and all(map(math.isfinite, unfolded[1:]))):
            raise _innovation_error(j, means, covs, mu, u, z, prior, unfolded, R)
    res = z - y0
    try:
        lik = math.exp(-0.5 * (_LOG_2PI + math.log(s) + res ** 2 / s))
    except OverflowError:
        raise NumericalError(f"innovation {res!r} overflows the likelihood") from None
    if lik < LIKELIHOOD_FLOOR:
        lik = LIKELIHOOD_FLOOR
    k0, k1, k2 = n00 / s, n01 / s, n02 / s
    return ((y0 + k0 * res, y1 + k1 * res, y2 + k2 * res),
            (n00 - k0 * n00, n01 - k0 * n01, n02 - k0 * n02,
             n11 - k1 * n01, n12 - k1 * n02, n22 - k2 * n02),
            lik, (res, s))


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
