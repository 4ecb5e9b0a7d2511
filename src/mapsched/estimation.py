"""Kalman filtering and the interacting-multiple-model (IMM) cycle.

A bank of per-mode Kalman filters is fused through Markov-chain mode
probabilities; the probability-weighted scheduling value rho_hat feeds the
gain scheduler downstream. All operations are pure functions over immutable
state values.
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


@dataclass(frozen=True)
class GaussianBelief:
    """State estimate and covariance pair (x_hat, P); P is re-symmetrized."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen(np.asarray(self.mean, dtype=float).reshape(-1))
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ParameterError("covariance shape must match the state dimension")
        if float(np.max(np.abs(cov - cov.T))) > 1e-9:
            raise ParameterError("covariance is not symmetric within 1e-9")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _frozen(_sym(cov)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.cov)[0])


def _make_belief(mean: np.ndarray, cov: np.ndarray) -> GaussianBelief:
    """Internal constructor for beliefs whose covariance the caller has
    already symmetrized; skips the public validation on the per-tick path."""
    belief = object.__new__(GaussianBelief)
    mean.setflags(write=False)
    cov.setflags(write=False)
    object.__setattr__(belief, "mean", mean)
    object.__setattr__(belief, "cov", cov)
    return belief


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

    The beliefs and the models are also kept stacked along a leading mode
    axis (means, covariances, and Phi / Gamma column / H per mode), which
    is what the IMM cycle computes on.
    """

    modes: tuple
    mu: np.ndarray
    Pi: np.ndarray
    models: tuple
    rho: tuple
    _means: np.ndarray = field(init=False, repr=False, compare=False)
    _covs: np.ndarray = field(init=False, repr=False, compare=False)
    _bank: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nv = len(self.modes)
        mu = _frozen(self.mu)
        Pi = _frozen(self.Pi)
        if mu.shape != (nv,) or Pi.shape != (nv, nv):
            raise ParameterError("mu must be length Nv and Pi Nv x Nv")
        if np.any(mu < 0.0) or np.any(mu > 1.0) or abs(mu.sum() - 1.0) > 1e-12:
            raise ParameterError("mode probabilities must lie on the simplex")
        if np.any(Pi < 0.0) or np.any(np.abs(Pi.sum(axis=1) - 1.0) > 1e-12):
            raise ParameterError("each row of Pi must be a probability vector")
        if len(self.models) != nv or len(self.rho) != nv:
            raise ParameterError("one model and one rho per mode required")
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        try:
            object.__setattr__(self, "_means", _frozen(np.stack([m.mean for m in self.modes])))
            object.__setattr__(self, "_covs", _frozen(np.stack([m.cov for m in self.modes])))
            object.__setattr__(self, "_bank", tuple(
                _frozen(np.stack(mats)) for mats in zip(
                    *((m.Phi, m.Gamma[:, 0], m.H) for m in self.models)
                )
            ))
        except ValueError:
            raise ParameterError("all modes must share one state dimension") from None

    @property
    def n_modes(self) -> int:
        return len(self.modes)


def _advance_state(prev: ImmState, means: np.ndarray, covs: np.ndarray,
                   mu: np.ndarray) -> ImmState:
    """Next filter state from stacked posteriors, reusing the validated
    Pi/models/rho of `prev`; mu comes normalized out of the probability
    update."""
    state = object.__new__(ImmState)
    for a in (means, covs, mu):
        a.setflags(write=False)
    object.__setattr__(state, "modes", tuple(map(_make_belief, means, covs)))
    object.__setattr__(state, "mu", mu)
    object.__setattr__(state, "Pi", prev.Pi)
    object.__setattr__(state, "models", prev.models)
    object.__setattr__(state, "rho", prev.rho)
    object.__setattr__(state, "_means", means)
    object.__setattr__(state, "_covs", covs)
    object.__setattr__(state, "_bank", prev._bank)
    return state


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
    return _make_belief(x, P)


def kf_update(belief: GaussianBelief, model: DiscreteModel, z,
              R: np.ndarray, joseph: bool = False):
    """Measurement update returning (posterior, residual, innovation covariance).

    Uses the short-form covariance update by default; the Joseph form is
    available for extra numerical robustness.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    H = model.H
    r = z - H @ belief.mean
    if model.d == 1 and not joseph:
        # scalar innovation: no matrix factorizations needed
        PHt = belief.cov @ H[0]
        s = float(H[0] @ PHt) + float(np.atleast_2d(R)[0, 0])
        if not s > 0.0:
            raise NumericalError("innovation covariance is not positive definite")
        K = PHt / s
        x = belief.mean + K * r[0]
        P = _sym(belief.cov - np.outer(K, PHt))
        return _make_belief(x, P), r, np.array([[s]])
    S = H @ belief.cov @ H.T + np.atleast_2d(R)
    S = _sym(S)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NumericalError("innovation covariance is not positive definite") from None
    K = belief.cov @ H.T @ np.linalg.inv(S)
    x = belief.mean + K @ r
    if joseph:
        IKH = np.eye(belief.mean.size) - K @ H
        P = IKH @ belief.cov @ IKH.T + K @ np.atleast_2d(R) @ K.T
    else:
        P = (np.eye(belief.mean.size) - K @ H) @ belief.cov
    return GaussianBelief(mean=x, cov=_sym(P)), r, S


def _moment_match(weights: np.ndarray, means: np.ndarray, covs: np.ndarray):
    """Gaussian moments of the mixture sum_i w[i, j] N(means[i], covs[i])
    for every column j of `weights`, stacked along the leading axis."""
    x = weights.T @ means
    d = means[:, None, :] - x[None, :, :]
    spread = covs[:, None] + d[..., :, None] * d[..., None, :]
    return x, _sym((weights[:, :, None, None] * spread).sum(axis=0))


def _mix(state: ImmState):
    """Stacked interaction step: mixed means and covariances per mode, and
    the predicted mode probabilities mu_pred = Pi' mu."""
    mu_pred = state.Pi.T @ state.mu
    # mixing[i, j] = P(mode i previously | mode j now)
    mixing = state.Pi * state.mu[:, None] / np.maximum(mu_pred, MIX_FLOOR)[None, :]
    x0, P0 = _moment_match(mixing, state._means, state._covs)
    return x0, P0, mu_pred


def imm_mix(state: ImmState):
    """Interaction step: returns the mixed per-mode beliefs and the predicted
    mode probabilities mu_pred = Pi' mu."""
    x0, P0, mu_pred = _mix(state)
    return list(map(_make_belief, x0, P0)), mu_pred


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
    return _make_belief(x[0], P[0])


def imm_step(state: ImmState, u: float, z, noise: NoiseConfig):
    """One full IMM cycle: mix, per-mode predict/update, likelihoods,
    probability update, combination. Returns (next state, output).

    Every mode is processed at once on the stacked arrays of `state`; the
    measurement is the scalar angular position.
    """
    Phi, gamma, H = state._bank
    if H.shape[1] != 1:
        raise ParameterError("the IMM cycle takes a scalar measurement")
    h = H[:, 0]
    x0, P0, mu_pred = _mix(state)
    # per-mode Kalman time update
    x = (Phi @ x0[:, :, None])[:, :, 0] + gamma * u
    P = _sym(Phi @ P0 @ Phi.swapaxes(1, 2) + noise.Q)
    # per-mode scalar measurement update
    PHt = (P @ h[:, :, None])[:, :, 0]
    s = (h * PHt).sum(axis=1) + noise.R[0, 0]
    if not s.min() > 0.0:
        raise NumericalError("innovation covariance is not positive definite")
    r = z - (h * x).sum(axis=1)
    K = PHt / s[:, None]
    means = x + K * r[:, None]
    covs = _sym(P - K[:, :, None] * PHt[:, None, :])
    likelihoods = np.array(list(map(_scalar_likelihood, r.tolist(), s.tolist())))
    mu = imm_update_probabilities(np.maximum(likelihoods, LIKELIHOOD_FLOOR), mu_pred)
    fused_mean, fused_cov = _moment_match(mu[:, None], means, covs)
    rho_hat = float(np.dot(mu, state.rho))
    next_state = _advance_state(state, means, covs, mu)
    likelihoods.setflags(write=False)
    output = ImmOutput(fused=_make_belief(fused_mean[0], fused_cov[0]), mu=mu,
                       likelihoods=likelihoods, rho_hat=rho_hat)
    return next_state, output

