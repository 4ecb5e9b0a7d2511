"""Kalman filtering and the interacting-multiple-model (IMM) cycle.

A bank of per-mode Kalman filters is fused through Markov-chain mode
probabilities; the probability-weighted scheduling value rho_hat feeds the
gain scheduler downstream.

`FilterBank.step` is the one IMM cycle in the package. It runs on plain
floats for the 3-state motor models with the scalar angle measurement: per
mode a mean 3-tuple and the upper triangle (p00, p01, p02, p11, p12, p22) of
its covariance. A single Kalman filter is the one-mode bank with Pi = [[1]].
`imm_step` adapts the immutable `ImmState` values to it; `kf_predict`,
`kf_update` and the `imm_*` pieces are the array forms the tests check the
cycle against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .motor import DiscreteModel, _frozen

# probability floors sit above the subnormal range so normalization stays finite
LIKELIHOOD_FLOOR = 1e-300
MIX_FLOOR = 1e-300

_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_P0_DIAG = (1e-3, 1e-1, 1e-2)


def _sym(P: np.ndarray) -> np.ndarray:
    """Symmetrize a covariance, or each of a stack of them."""
    return 0.5 * (P + P.swapaxes(-1, -2))


def _upper(P) -> tuple:
    """Upper triangle (p00, p01, p02, p11, p12, p22) of a 3x3 covariance."""
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = np.asarray(P, dtype=float).tolist()
    return p00, p01, p02, p11, p12, p22


def _full(p) -> np.ndarray:
    """Symmetric 3x3 matrix from its upper triangle."""
    p00, p01, p02, p11, p12, p22 = p
    return np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])


@dataclass(frozen=True)
class GaussianBelief:
    """State estimate and covariance pair (x_hat, P); P is re-symmetrized."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ParameterError("covariance shape must match the state dimension")
        if not (cov == cov.T).all():
            if abs(cov - cov.T).max() > 1e-9:
                raise ParameterError("covariance is not symmetric within 1e-9")
            cov = _sym(cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.cov)[0])


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


@dataclass(frozen=True)
class ImmState:
    """Per-mode beliefs, mode probabilities mu, transition matrix Pi, and the
    per-mode models with their scheduling values.

    `imm_step` keeps the `FilterBank` it built for the models, Pi and noise
    on the states it returns, so a run of steps builds it once.
    """

    modes: tuple
    mu: np.ndarray
    Pi: np.ndarray
    models: tuple
    rho: tuple
    _bank: "FilterBank | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        nv = len(self.modes)
        mu = _frozen(self.mu)
        Pi = _frozen(self.Pi)
        if mu.shape != (nv,) or Pi.shape != (nv, nv):
            raise ParameterError("mu must be length Nv and Pi Nv x Nv")
        probs = mu.tolist()
        if abs(sum(probs) - 1.0) > 1e-12 or min(probs) < 0.0 or max(probs) > 1.0:
            raise ParameterError("mode probabilities must lie on the simplex")
        if any(min(row) < 0.0 or abs(sum(row) - 1.0) > 1e-12 for row in Pi.tolist()):
            raise ParameterError("each row of Pi must be a probability vector")
        if len(self.models) != nv or len(self.rho) != nv:
            raise ParameterError("one model and one rho per mode required")
        if len({m.mean.size for m in self.modes}) > 1:
            raise ParameterError("all modes must share one state dimension")
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))

    @property
    def n_modes(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class ImmOutput:
    fused: GaussianBelief
    mu: np.ndarray
    likelihoods: np.ndarray
    rho_hat: float


def initial_belief(n: int = 3, p0_diag=DEFAULT_P0_DIAG) -> GaussianBelief:
    """Zero mean with a broad diagonal covariance relative to signal scales."""
    return GaussianBelief(mean=np.zeros(n), cov=np.diag(p0_diag[:n]))


def default_transition_matrix(nv: int, stay: float = 0.9) -> np.ndarray:
    """Transition matrix with `stay` on the diagonal, uniform leakage elsewhere."""
    if nv == 1:
        return np.array([[1.0]])
    Pi = np.full((nv, nv), (1.0 - stay) / (nv - 1))
    np.fill_diagonal(Pi, stay)
    return Pi


def initial_imm_state(models, rho, Pi=None, belief: GaussianBelief | None = None) -> ImmState:
    models = tuple(models)
    nv = len(models)
    if belief is None:
        belief = initial_belief()
    if Pi is None:
        Pi = default_transition_matrix(nv)
    return ImmState(
        modes=tuple(belief for _ in range(nv)),
        mu=np.full(nv, 1.0 / nv),
        Pi=Pi,
        models=models,
        rho=tuple(rho),
    )


def kf_predict(belief: GaussianBelief, model: DiscreteModel, u: float,
               Q: np.ndarray) -> GaussianBelief:
    """Time update: x = Phi x + Gamma u, P = Phi P Phi' + Q."""
    x = model.Phi @ belief.mean + model.Gamma[:, 0] * u
    P = _sym(model.Phi @ belief.cov @ model.Phi.T + Q)
    return GaussianBelief(mean=x, cov=P)


def kf_update(belief: GaussianBelief, model: DiscreteModel, z, R: np.ndarray):
    """Measurement update returning (posterior, residual, innovation covariance),
    with the short-form covariance update."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    H = model.H
    r = z - H @ belief.mean
    if model.d == 1:
        # scalar innovation: no matrix factorizations needed
        PHt = belief.cov @ H[0]
        s = float(H[0] @ PHt) + float(np.atleast_2d(R)[0, 0])
        if not s > 0.0:
            raise NumericalError("innovation covariance is not positive definite")
        K = PHt / s
        x = belief.mean + K * r[0]
        P = _sym(belief.cov - np.outer(K, PHt))
        return GaussianBelief(mean=x, cov=P), r, np.array([[s]])
    S = H @ belief.cov @ H.T + np.atleast_2d(R)
    S = _sym(S)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NumericalError("innovation covariance is not positive definite") from None
    K = belief.cov @ H.T @ np.linalg.inv(S)
    x = belief.mean + K @ r
    P = (np.eye(belief.mean.size) - K @ H) @ belief.cov
    return GaussianBelief(mean=x, cov=_sym(P)), r, S


def _moment_match(weights: np.ndarray, means: np.ndarray, covs: np.ndarray):
    """Gaussian moments of the mixture sum_i w[i, j] N(means[i], covs[i])
    for every column j of `weights`, stacked along the leading axis."""
    x = weights.T @ means
    d = means[:, None, :] - x[None, :, :]
    spread = covs[:, None] + d[..., :, None] * d[..., None, :]
    return x, _sym((weights[:, :, None, None] * spread).sum(axis=0))


def imm_mix(state: ImmState):
    """Interaction step: returns the mixed per-mode beliefs and the predicted
    mode probabilities mu_pred = Pi' mu."""
    mu_pred = state.Pi.T @ state.mu
    # mixing[i, j] = P(mode i previously | mode j now)
    mixing = state.Pi * state.mu[:, None] / np.maximum(mu_pred, MIX_FLOOR)[None, :]
    x0, P0 = _moment_match(mixing, np.stack([m.mean for m in state.modes]),
                           np.stack([m.cov for m in state.modes]))
    return [GaussianBelief(mean=x, cov=P) for x, P in zip(x0, P0)], mu_pred


def _scalar_likelihood(r: float, s: float, d: int = 1) -> float:
    return math.exp(-0.5 * (d * _LOG_2PI + math.log(s) + r ** 2 / s))


def imm_likelihood(r: np.ndarray, S: np.ndarray, d: int) -> float:
    """Gaussian measurement likelihood, computed in log space and
    exponentiated once to dodge underflow."""
    r = np.atleast_1d(r)
    S = np.atleast_2d(S)
    if S.shape == (1, 1):
        s = float(S[0, 0])
        if s <= 0.0:
            raise NumericalError("innovation covariance has non-positive determinant")
        return _scalar_likelihood(float(r[0]), s, d)
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0.0:
        raise NumericalError("innovation covariance has non-positive determinant")
    quad = float(r @ np.linalg.solve(S, r))
    log_l = -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
    return float(np.exp(log_l))


def imm_update_probabilities(likelihoods: np.ndarray, mu_pred: np.ndarray) -> np.ndarray:
    """Bayes update of the mode probabilities; if every product underflows to
    zero the measurement carries no information and mu_pred is kept."""
    w = np.asarray(likelihoods, dtype=float) * np.asarray(mu_pred, dtype=float)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        return np.asarray(mu_pred, dtype=float).copy()
    return w / total


def imm_combine(modes, mu: np.ndarray) -> GaussianBelief:
    """Moment-matched fusion of the per-mode beliefs."""
    means = np.stack([m.mean for m in modes])
    covs = np.stack([m.cov for m in modes])
    x, P = _moment_match(np.asarray(mu, dtype=float)[:, None], means, covs)
    return GaussianBelief(mean=x[0], cov=P[0])


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

    __slots__ = ("noise", "phi", "gamma", "h", "pi_t", "pi_cols", "q", "r")

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
        if noise.Q.shape != (3, 3) or noise.R.shape != (1, 1):
            raise ParameterError("noise must be a 3x3 Q and a 1x1 R")
        self.noise = noise
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
        belief = initial_belief()
        nv = len(self.phi)
        return [tuple(belief.mean.tolist())] * nv, [_upper(belief.cov)] * nv, [1.0 / nv] * nv

    def step(self, means, covs, mu, u: float, z: float):
        """One IMM cycle: mix, per-mode predict and scalar update, likelihoods,
        probability update, fused mean.

        Returns (means, covs, mu, likelihoods, fused mean), all floats.
        """
        q00, q01, q02, q11, q12, q22 = self.q
        R = self.r
        nv = len(mu)
        if nv == 1:
            # Pi = [[1]]: the mode is its own mixed prior
            mu_pred, priors = mu, [(means[0], covs[0])]
        else:
            # interaction: mu_pred = Pi' mu and the mixed prior of every mode,
            # mixing[j][i] = P(mode i previously | mode j now). mu_pred and
            # the mixed means are numpy products so that they round as the
            # array form does: the likelihood ratio scales the last bit of
            # the mixed angle by r/s (up to ~700 per rad on the motor), and
            # the two forms of the cycle agree to 1e-12 in mu only this way.
            mu_pred = (self.pi_t @ np.array(mu)).tolist()
            mixing = [[p * m / max(c, MIX_FLOOR) for p, m in zip(col, mu)]
                      for col, c in zip(self.pi_cols, mu_pred)]
            mixed_means = (np.array(mixing) @ np.array(means)).tolist()
            priors = [(x, _spread(w, x, means, covs)) for w, x in zip(mixing, mixed_means)]
        out_means, out_covs, liks = [], [], []
        for j in range(nv):
            (m0, m1, m2), (p00, p01, p02, p11, p12, p22) = priors[j]
            f00, f01, f02, f10, f11, f12, f20, f21, f22 = self.phi[j]
            g0, g1, g2 = self.gamma[j]
            h0, h1, h2 = self.h[j]
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
            # scalar measurement update
            v0 = n00 * h0 + n01 * h1 + n02 * h2
            v1 = n01 * h0 + n11 * h1 + n12 * h2
            v2 = n02 * h0 + n12 * h1 + n22 * h2
            s = h0 * v0 + h1 * v1 + h2 * v2 + R
            if not s > 0.0:
                raise NumericalError("innovation covariance is not positive definite")
            res = z - (h0 * y0 + h1 * y1 + h2 * y2)
            k0, k1, k2 = v0 / s, v1 / s, v2 / s
            out_means.append((y0 + k0 * res, y1 + k1 * res, y2 + k2 * res))
            out_covs.append((n00 - k0 * v0, n01 - k0 * v1, n02 - k0 * v2,
                             n11 - k1 * v1, n12 - k1 * v2, n22 - k2 * v2))
            liks.append(max(_scalar_likelihood(res, s), LIKELIHOOD_FLOOR))
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


def imm_step(state: ImmState, u: float, z, noise: NoiseConfig):
    """One full IMM cycle: mix, per-mode predict/update, likelihoods,
    probability update, combination. Returns (next state, output).

    Runs `FilterBank.step`; the measurement is the scalar angular position.
    """
    bank = state._bank
    if bank is None or bank.noise is not noise:
        bank = FilterBank(state.models, state.Pi, noise)
    means = [tuple(m.mean.tolist()) for m in state.modes]
    covs = [_upper(m.cov) for m in state.modes]
    means, covs, mu, likelihoods, fused_mean = bank.step(
        means, covs, state.mu.tolist(), float(u), float(z))
    fused_cov = _spread(mu, fused_mean, means, covs)
    modes = tuple(GaussianBelief(mean=m, cov=_full(c)) for m, c in zip(means, covs))
    next_state = ImmState(modes=modes, mu=np.array(mu), Pi=state.Pi,
                          models=state.models, rho=state.rho)
    object.__setattr__(next_state, "_bank", bank)
    rho_hat = 0.0
    for m, r in zip(mu, state.rho):
        rho_hat += m * r
    output = ImmOutput(fused=GaussianBelief(mean=fused_mean, cov=_full(fused_cov)),
                       mu=next_state.mu, likelihoods=_frozen(likelihoods), rho_hat=rho_hat)
    return next_state, output
