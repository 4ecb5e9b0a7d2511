"""Reference implementations the tests hold the package against.

`motor_rk4` is a fixed-step RK4 of the nonlinear motor truth plant: the
converged reference for `mapsched.plant.plant_step`. On a tick that changes
friction regime its error is first order in the substep: the friction torque
jumps inside the substep that straddles the event. It resolves sticking only
when one substep moves omega less than the rest band's width.
`slipping_state` is the other form of the plant's closed form: the matrix
exponential of the slipping motor augmented with its held inputs.

The rest are array or plain-loop forms of what the package computes another
way: the Gaussian likelihood of one innovation, the IMM probability update,
the percent change of a comparison, the friction lookup by bisection and by
linear scan, the reference signal one time at a time, the IMM cycle in two
passes, the closed loop run tick by tick, the Lyapunov solve with its own
stability check, uniform draws from the simplex, the sampled
convex-combination margin one sample at a time, the design path that
solves, validates and checks everything as many times as it is used, the
Euler vertex set built as an affine family, and the run CSV writer that
formats every cell with repr.
"""

import dataclasses
import math
from bisect import bisect_right
from contextlib import ExitStack
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from mapsched.cli import _percent_change
from mapsched.control import (
    Q_LQR,
    R_LQR,
    RiccatiSolution,
    control_input,
    maps_gain,
    riccati_doubling,
)
from mapsched.errors import CertificationError, NumericalError, ParameterError
from mapsched.estimation import (
    _LOG_2PI,
    LIKELIHOOD_FLOOR,
    MIX_FLOOR,
    FILTER_Q,
    FILTER_R,
    FilterBank,
    _innovation_error,
    default_transition_matrix,
)
from mapsched.harness import CSV_CHUNK, _parse_choice
from mapsched.motor import VertexSet, build_continuous_model, euler_discretize
from mapsched.plant import TickMap, plant_step
from mapsched.stability import (
    LyapunovSearch,
    StabilityCert,
    _dlyap,
    epsilon_star,
    lipschitz_constants,
    vertex_margins,
)


def _domega(omega, cur, tau_ext, kt, jeq, tau_s, tau_c, b, omega_rest):
    tau_m = kt * cur + tau_ext
    if abs(omega) < omega_rest and abs(tau_m) < tau_s:
        return 0.0
    if omega > 0.0:
        sgn = 1.0
    elif omega < 0.0:
        sgn = -1.0
    else:
        sgn = 0.0
    return (tau_m - (tau_c * sgn + b * omega)) / jeq


def motor_rk4(theta, omega, cur, u, dt, substeps,
              kt, ke, jeq, lm, rm, tau_s, tau_c, b, omega_rest, tau_ext):
    """Advance (theta, omega, current) by dt using `substeps` RK4 steps with
    the input voltage and external torque held constant."""
    h = dt / substeps
    for _ in range(substeps):
        k1t = omega
        k1w = _domega(omega, cur, tau_ext, kt, jeq, tau_s, tau_c, b, omega_rest)
        k1c = (u - rm * cur - ke * omega) / lm

        w2 = omega + 0.5 * h * k1w
        c2 = cur + 0.5 * h * k1c
        k2t = w2
        k2w = _domega(w2, c2, tau_ext, kt, jeq, tau_s, tau_c, b, omega_rest)
        k2c = (u - rm * c2 - ke * w2) / lm

        w3 = omega + 0.5 * h * k2w
        c3 = cur + 0.5 * h * k2c
        k3t = w3
        k3w = _domega(w3, c3, tau_ext, kt, jeq, tau_s, tau_c, b, omega_rest)
        k3c = (u - rm * c3 - ke * w3) / lm

        w4 = omega + h * k3w
        c4 = cur + h * k3c
        k4t = w4
        k4w = _domega(w4, c4, tau_ext, kt, jeq, tau_s, tau_c, b, omega_rest)
        k4c = (u - rm * c4 - ke * w4) / lm

        theta = theta + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        omega = omega + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        cur = cur + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
    return theta, omega, cur


def slipping_state(state, u, friction, motor, t, tau_ext=0.0):
    """(theta, omega, i) after t of slipping with omega's sign held, from
    the exponential of the motor's (A, B) augmented with its constant
    inputs: the external torque less Coulomb friction, and the voltage."""
    sign = 1.0 if state[1] > 0.0 else -1.0
    M = np.zeros((5, 5))
    M[:3, :3], M[:3, 4:] = build_continuous_model(motor, friction.b)
    M[1, 3] = 1.0 / motor.Jeq
    x = np.r_[state, tau_ext - friction.tau_c * sign, u]
    return tuple((expm(M * t) @ x)[:3].tolist())


def imm_likelihood(r: float, s: float) -> float:
    """Gaussian density of the scalar innovation r with variance s, computed
    in log space and exponentiated once to dodge underflow."""
    if not s > 0.0:
        raise NumericalError("innovation covariance is not positive definite")
    return math.exp(-0.5 * (_LOG_2PI + math.log(s) + r ** 2 / s))


def imm_update_probabilities(likelihoods, mu_pred):
    """Bayes update of the mode probabilities; if every product underflows to
    zero the measurement carries no information and mu_pred is kept."""
    w = np.asarray(likelihoods, dtype=float) * np.asarray(mu_pred, dtype=float)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        return np.asarray(mu_pred, dtype=float).copy()
    return w / total


def delta_percent(comparison, attr, i=1, base=0):
    """Percent change of metric `attr` of variant i relative to `base`."""
    return _percent_change(getattr(comparison.metrics[base], attr),
                           getattr(comparison.metrics[i], attr))


def friction_at(schedule, t):
    """Friction value and Coulomb flag of `schedule` at time t: those of the
    last segment starting at or before t (found by bisection), the first
    segment before that, ramped from the previous segment's value over
    ramp_time."""
    segs = schedule.segments
    idx = max(bisect_right(segs, t, key=lambda s: s.start) - 1, 0)
    seg = segs[idx]
    if schedule.ramp_time > 0.0 and idx > 0:
        lapsed = t - seg.start
        if lapsed < schedule.ramp_time:
            prev = segs[idx - 1]
            frac = lapsed / schedule.ramp_time
            return prev.b + frac * (seg.b - prev.b), seg.coulomb_on
    return seg.b, seg.coulomb_on


def reference_state(spec, t):
    """Full-state reference (theta, omega, current) of `spec` at time t:
    position signal, its analytic derivative, zero current."""
    if spec.reference == "sine":
        w = 2.0 * math.pi * spec.frequency
        return (spec.amplitude * math.sin(w * t), spec.amplitude * w * math.cos(w * t), 0.0)
    phase = math.fmod(t, spec.period)
    level = spec.amplitude if phase < 0.5 * spec.period else -spec.amplitude
    return (level, 0.0, 0.0)


def friction_by_scan(schedule, times):
    """`friction_at` at each of the ascending `times`, by one scan over the
    segments in time order."""
    segs = schedule.segments
    out, idx = [], 0
    for t in times:
        while idx + 1 < len(segs) and segs[idx + 1].start <= t:
            idx += 1
        seg, value = segs[idx], (segs[idx].b, segs[idx].coulomb_on)
        if schedule.ramp_time > 0.0 and idx > 0:
            lapsed = t - seg.start
            if lapsed < schedule.ramp_time:
                prev = segs[idx - 1]
                frac = lapsed / schedule.ramp_time
                value = (prev.b + frac * (seg.b - prev.b), seg.coulomb_on)
        out.append(value)
    return out


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


def _weighted_sum(weights, values):
    """sum_i weights[i] values[i], summed from 0.0 in index order."""
    total = 0.0
    for w, v in zip(weights, values):
        total += w * v
    return total


def imm_step_two_pass(bank, phis, Gamma, means, covs, mu, u, z):
    """`estimation.imm_step` as two passes: every mode's mixed prior first
    (`_weighted_sum`, `_spread`), then predict and update mode by mode
    with the full Phi of `phis`, the full Gamma and the measurement row
    H = [1, 0, 0] written out, then the probability update over the list of
    weights. Only Pi and the noise are read from `bank`. The package's
    one-pass cycle, which folds H = e0 and Phi's first column e0 into its
    arithmetic, must return the same bits, each mode's innovation (r, s)
    among them."""
    q00, q01, q02, q11, q12, q22 = bank.q
    R = bank.r
    nv = len(mu)
    if nv == 1:
        # Pi = [[1]]: the mode is its own mixed prior
        mu_pred, priors = mu, [(means[0], covs[0])]
    else:
        mu_pred = [_weighted_sum(col, mu) for col in bank.pi_cols]
        mixing = [[p * m / max(c, MIX_FLOOR) for p, m in zip(col, mu)]
                  for col, c in zip(bank.pi_cols, mu_pred)]
        mixed_means = [tuple(_weighted_sum(w, column) for column in zip(*means))
                       for w in mixing]
        priors = [(x, _spread(w, x, means, covs)) for w, x in zip(mixing, mixed_means)]
    out_means, out_covs, liks, innovations = [], [], [], []
    g0, g1, g2 = np.asarray(Gamma)[:, 0].tolist()
    h0, h1, h2 = 1.0, 0.0, 0.0
    for j in range(nv):
        (m0, m1, m2), (p00, p01, p02, p11, p12, p22) = priors[j]
        (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = np.asarray(phis[j]).tolist()
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
            raise _innovation_error(j, means, covs, mu, u, z, priors[j][1],
                                    (n00, n01, n02, n11, n12, n22), R)
        res = z - (h0 * y0 + h1 * y1 + h2 * y2)
        try:
            lik = math.exp(-0.5 * (_LOG_2PI + math.log(s) + res ** 2 / s))
        except OverflowError:
            raise NumericalError(f"innovation {res!r} overflows the likelihood") from None
        liks.append(max(lik, LIKELIHOOD_FLOOR))
        innovations.append((res, s))
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
    return out_means, out_covs, mu, innovations, (x0, x1, x2)


def closed_loop_by_tick(spec, motor, vertices):
    """`harness.run_scenario`'s loop one tick at a time: the friction and
    the reference by `friction_at` and `reference_state` at each tick's
    time, scalar draws from the seed's generator (the measurement noise,
    then the torque noise when it is on), the two-pass IMM cycle, the mode
    probabilities spread over the vertices, rho_hat, the controller weights
    `scale * mu + offset` and the gain recomputed every tick, one log row
    stored per tick. `vertices` must carry gains.

    Returns (log columns by RunRecord field, saturation count).
    """
    nv = len(vertices.rho)
    est_kind, est_idx = _parse_choice(spec.estimator, "estimator", ("imm", "kf"))
    ctl_kind, ctl_idx = _parse_choice(spec.controller, "controller", ("maps", "fixed", "open"))
    slots = tuple(range(nv)) if est_kind == "imm" else (est_idx,)
    phis = [vertices.Phi_vertices[i] for i in slots]
    bank = FilterBank(phis, vertices.Gamma, default_transition_matrix(len(slots)),
                      FILTER_Q, FILTER_R)
    means, covs, mu = bank.initial()
    gains = tuple(tuple(K.reshape(-1).tolist()) for K in vertices.K_vertices)
    scale = 1.0 if ctl_kind == "maps" else 0.0
    offset = tuple(1.0 if ctl_kind == "fixed" and i == ctl_idx else 0.0 for i in range(nv))
    feedforward = 1.0 if ctl_kind == "open" else 0.0
    normal = np.random.default_rng(spec.seed).standard_normal
    meas_std = spec.meas_noise_std
    dist_std = spec.process_noise_std
    T = spec.sample_time

    @lru_cache(maxsize=16)
    def tick_map(b, coulomb_on):
        return TickMap(motor, motor.friction(b, coulomb_on), T)

    rows = []
    truth, u, saturations = (0.0, 0.0, 0.0), 0.0, 0
    for k in range(spec.n_ticks):
        t = k * T
        z = truth[0] + meas_std * normal()
        tau_dist = dist_std * normal() if dist_std > 0.0 else 0.0
        means, covs, mu, _, x_hat = imm_step_two_pass(bank, phis, vertices.Gamma,
                                                      means, covs, mu, u, z)
        mu_v = [0.0] * nv
        for slot, m in zip(slots, mu):
            mu_v[slot] = m
        rho_hat = 0.0
        for m, r in zip(mu_v, vertices.rho):
            rho_hat += m * r
        K = maps_gain([scale * m + o for m, o in zip(mu_v, offset)], gains)
        ref = reference_state(spec, t)
        u, saturated = control_input(K, ref, x_hat, spec.v_limit, feedforward)
        saturations += saturated
        b_t, coulomb_on = friction_at(spec.friction, t)
        rows.append((t, z, *truth, *x_hat, *mu_v, rho_hat, *K, u, *ref, b_t))
        truth = plant_step(truth, u, tick_map(b_t, coulomb_on), tau_dist)
    log = np.array(rows)
    c = 8 + nv
    columns = {
        "time": log[:, 0], "z": log[:, 1], "truth": log[:, 2:5],
        "estimate": log[:, 5:8], "mu": log[:, 8:c], "rho_hat": log[:, c],
        "gain": log[:, c + 1:c + 4], "u": log[:, c + 4],
        "reference": log[:, c + 5:c + 8], "b_true": log[:, c + 8],
    }
    return columns, saturations


def euler_vertices_affine(motor) -> VertexSet:
    """The motor's Euler vertex set as an affine family in rho: each vertex
    is Phi0 + rho * Phi_hat, the Euler map at b = 0 plus rho times the
    viscous entry's slope -T/Jeq, and Gamma is T B."""
    T = motor.sample_time
    Phi0, Gamma = euler_discretize(*build_continuous_model(motor, 0.0), T)
    Phi_hat = np.zeros((3, 3))
    Phi_hat[1, 1] = -T / motor.Jeq
    rho = (motor.b_min, motor.b_max)
    return VertexSet(rho=rho, Phi_vertices=tuple(Phi0 + r * Phi_hat for r in rho),
                     Gamma=Gamma, T=T, mode="euler")


def dare_residual_two_solve(Phi, Gamma, Q, R, P) -> float:
    """Max-norm defect of P in the discrete algebraic Riccati equation,
    solving Gamma' P Gamma + R on its own."""
    G = Gamma.T @ P @ Gamma + R
    correction = Phi.T @ P @ Gamma @ np.linalg.solve(G, Gamma.T @ P @ Phi)
    defect = Phi.T @ P @ Phi - correction + Q - P
    return float(np.max(np.abs(defect)))


def solve_dare_two_solve(Phi, Gamma, Q, R) -> RiccatiSolution:
    """`control.solve_dare` solving Gamma' P Gamma + R twice: once in the
    residual, once for K."""
    try:
        P = riccati_doubling(Phi, Gamma, Q, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(
            f"Riccati equation has no stabilizing solution ({exc}); "
            "the model/weight pair is likely not stabilizable"
        ) from None
    residual = dare_residual_two_solve(Phi, Gamma, Q, R, P)
    K = np.linalg.solve(Gamma.T @ P @ Gamma + R, Gamma.T @ P @ Phi)
    moduli = sorted(float(m) for m in np.abs(np.linalg.eigvals(Phi - Gamma @ K)))
    if not moduli[-1] < 1.0:
        raise NumericalError(
            f"closed loop is not Schur stable (spectral radius {moduli[-1]:.6f}); "
            "the model/weight pair is not stabilizable-detectable"
        )
    return RiccatiSolution(P=P, K=K, residual=residual, moduli=tuple(moduli))


def gains_by_replace(vertices):
    """(gain-filled set, Riccati solutions): one `solve_dare_two_solve` per
    vertex under the stock weights, the gains filled through
    `dataclasses.replace`, which validates and freezes the whole set again."""
    Gamma = np.asarray(vertices.Gamma, dtype=float)
    solutions = [solve_dare_two_solve(phi, Gamma, Q_LQR, R_LQR)
                 for phi in vertices.Phi_vertices]
    filled = dataclasses.replace(vertices, K_vertices=tuple(s.K for s in solutions))
    return filled, solutions


def dlyap_series(A) -> np.ndarray:
    """Solve A' P A - P = -I for a Schur-stable A, whose solution is the
    convergent series P = sum_k (A')^k A^k; refuses a loop whose spectral
    radius is 1 or more before the package's solve."""
    A = np.asarray(A, dtype=float)
    if float(np.max(np.abs(np.linalg.eigvals(A)))) >= 1.0:
        raise NumericalError("Lyapunov series diverges: spectral radius >= 1")
    return _dlyap(A)


def sample_simplex(n_samples: int, nv: int, seed: int = 42) -> np.ndarray:
    """`n_samples` weight vectors drawn uniformly from the nv-vertex simplex,
    the draws `stability.verify_convex_stability` makes for the same seed."""
    return np.random.default_rng(seed).dirichlet(np.ones(nv), size=n_samples)


def convex_margin_by_sample(P, closed_loops, n_samples: int = 1000, seed: int = 42) -> float:
    """`stability.verify_convex_stability` forming and checking one sample
    at a time: the minimum decrease margin -lambda_max(A' P A - P) over
    convex combinations A of the loops drawn by `sample_simplex`."""
    loops = np.stack([np.asarray(A, dtype=float) for A in closed_loops])
    worst = np.inf
    for w in sample_simplex(n_samples, loops.shape[0], seed):
        A = np.tensordot(w, loops, axes=1)
        defect = A.T @ P @ A - P
        margin = -float(np.linalg.eigvalsh(0.5 * (defect + defect.T))[-1])
        worst = min(worst, margin)
    return worst


def find_common_lyapunov_checked(closed_loops, max_rounds: int = 500) -> LyapunovSearch:
    """`stability.find_common_lyapunov` solving every Lyapunov equation
    through `dlyap_series`, which checks the loop's spectral radius again."""
    loops = [np.asarray(A, dtype=float) for A in closed_loops]
    if not loops:
        raise ParameterError("need at least one closed loop")
    for i, A in enumerate(loops):
        radius = float(np.max(np.abs(np.linalg.eigvals(A))))
        if radius >= 1.0:
            raise ParameterError(
                f"vertex {i + 1} closed loop has spectral radius {radius:.6f} >= 1"
            )
    P = dlyap_series(loops[0])
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        margins = vertex_margins(P, loops)
        if np.all(margins > 0.0):
            break
        for i in np.flatnonzero(margins <= 0.0):
            P = 0.5 * (P + dlyap_series(loops[i]))
    else:
        margins = vertex_margins(P, loops)
    return LyapunovSearch(P=P, vertex_margins=margins, certified=bool(np.all(margins > 0.0)),
                          rounds=rounds)


def certify_checked(vertices) -> StabilityCert:
    """`stability.certify` over `find_common_lyapunov_checked`."""
    loops = [phi - vertices.Gamma @ K for phi, K in zip(vertices.Phi_vertices, vertices.gains)]
    search = find_common_lyapunov_checked(loops)
    if not search.certified:
        raise CertificationError(
            "no common Lyapunov matrix found "
            f"(worst vertex margin {search.worst_margin:.3e}, after {search.rounds} rounds); "
            "this does not prove instability"
        )
    L_phi, L_k, L = lipschitz_constants(vertices)
    eps_star, C, lam = epsilon_star(search.P, search.worst_margin, L)
    return StabilityCert(
        P_lyap=search.P,
        alpha=search.worst_margin,
        vertex_margins=search.vertex_margins,
        L_phi=L_phi,
        L_k=L_k,
        L=L,
        eps_star=eps_star,
        C=C,
        lambda_=lam,
    )


def write_run_csvs_repr(trace_path, plot_path, record):
    """`cli.write_run_csvs` with every cell formatted by repr(float(v)),
    chunk by chunk, and each file's rows joined from those cells."""
    nv = record.mu.shape[1]
    mu_names = [f"mu_{j + 1}" for j in range(nv)]
    # the union row: the trace.csv columns, then tracking_error and b_true
    width = 16 + nv
    trace = (
        ["time", "z", "theta_true", "omega_true", "current_true",
         "theta_est", "omega_est", "current_est", *mu_names, "rho_hat",
         "k_theta", "k_omega", "k_current", "u",
         "theta_ref", "omega_ref", "current_ref"],
        itemgetter(slice(0, width)),
    )
    plot = (
        ["time", "theta_ref", "theta_true", "theta_est", "tracking_error",
         *mu_names, "rho_hat", "b_true", "u"],
        itemgetter(0, width - 3, 2, 5, width, *range(8, 9 + nv), width + 1, width - 4),
    )
    theta_ref, theta = record.reference[:, 0], record.truth[:, 0]
    columns = [
        record.time, record.z, record.truth, record.estimate, record.mu,
        record.rho_hat, record.gain, record.u, record.reference,
        theta_ref - theta, record.b_true,
    ]
    with ExitStack() as stack:
        outputs = []
        for path, (header, cells) in ((trace_path, trace), (plot_path, plot)):
            if path is not None:
                fh = stack.enter_context(Path(path).open("w", newline=""))
                fh.write(",".join(header) + "\r\n")
                outputs.append((fh, cells))
        for start in range(0, len(record.time), CSV_CHUNK):
            block = np.column_stack([c[start:start + CSV_CHUNK] for c in columns])
            rows = [list(map(repr, row)) for row in block.tolist()]
            for fh, cells in outputs:
                fh.write("".join([",".join(cells(row)) + "\r\n" for row in rows]))
