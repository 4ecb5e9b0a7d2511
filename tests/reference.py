"""Reference implementations the tests hold the package against.

`motor_rk4` is a fixed-step RK4 of the nonlinear motor truth plant: the
converged reference for `mapsched.plant.plant_step`. On a tick that changes
friction regime its error is first order in the substep: the friction torque
jumps inside the substep that straddles the event. It resolves sticking only
when one substep moves omega less than the rest band's width.

The rest are array or plain-loop forms of what the package computes another
way: the IMM probability update, single-model discretizations, the percent
change of a comparison, a friction lookup by linear scan, the IMM cycle in
two passes, the closed loop run tick by tick, and the design path that
solves, validates and checks everything as many times as it is used.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, solve_discrete_are

from mapsched.control import RiccatiSolution, control_input, maps_gain
from mapsched.errors import CertificationError, NumericalError, ParameterError
from mapsched.estimation import (
    _LOG_2PI,
    LIKELIHOOD_FLOOR,
    MIX_FLOOR,
    FilterBank,
    NoiseConfig,
    default_transition_matrix,
)
from mapsched.harness import _parse_choice, _percent_change
from mapsched.motor import DiscreteModel, euler_discretize, zoh_discretize
from mapsched.plant import plant_step
from mapsched.stability import (
    LyapunovSearch,
    StabilityCert,
    dlyap_series,
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


def imm_update_probabilities(likelihoods, mu_pred):
    """Bayes update of the mode probabilities; if every product underflows to
    zero the measurement carries no information and mu_pred is kept."""
    w = np.asarray(likelihoods, dtype=float) * np.asarray(mu_pred, dtype=float)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        return np.asarray(mu_pred, dtype=float).copy()
    return w / total


def discretize_forward_euler(model, T):
    """Discretize with forward Euler: Phi = I + T*A, Gamma = T*B, H = C."""
    Phi, Gamma = euler_discretize(model.A, model.B, T)
    return DiscreteModel(Phi=Phi, Gamma=Gamma, H=model.C, T=T)


def discretize_exact_zoh(model, T):
    """Discretize exactly under a zero-order hold on the input."""
    Phi, Gamma = zoh_discretize(model.A, model.B, T)
    return DiscreteModel(Phi=Phi, Gamma=Gamma, H=model.C, T=T)


def delta_percent(comparison, attr, i=1, base=0):
    """Percent change of metric `attr` of variant i relative to `base`."""
    return _percent_change(getattr(comparison.metrics[base], attr),
                           getattr(comparison.metrics[i], attr))


def friction_by_scan(schedule, times):
    """`FrictionSchedule.at` at each of the ascending `times`, by one scan
    over the segments in time order."""
    segs = schedule.segments
    out, idx = [], 0
    for t in times:
        while idx + 1 < len(segs) and segs[idx + 1].start <= t:
            idx += 1
        seg, value = segs[idx], (segs[idx].b, segs[idx].coulomb_on)
        if schedule.interpolation == "ramp" and idx > 0:
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


def imm_step_two_pass(bank, means, covs, mu, u, z):
    """`estimation.imm_step` as two passes: every mode's mixed prior first
    (`np.dot` on lists, `_spread`), then predict and update mode by mode,
    then the probability update over the list of weights. The package's
    one-pass cycle must return the same bits."""
    q00, q01, q02, q11, q12, q22 = bank.q
    R = bank.r
    nv = len(mu)
    if nv == 1:
        # Pi = [[1]]: the mode is its own mixed prior
        mu_pred, priors = mu, [(means[0], covs[0])]
    else:
        mu_pred = np.dot(bank.pi_t, mu).tolist()
        mixing = [[p * m / max(c, MIX_FLOOR) for p, m in zip(col, mu)]
                  for col, c in zip(bank.pi_cols, mu_pred)]
        mixed_means = np.dot(mixing, means).tolist()
        priors = [(x, _spread(w, x, means, covs)) for w, x in zip(mixing, mixed_means)]
    out_means, out_covs, liks = [], [], []
    for j in range(nv):
        (m0, m1, m2), (p00, p01, p02, p11, p12, p22) = priors[j]
        f00, f01, f02, f10, f11, f12, f20, f21, f22, g0, g1, g2, h0, h1, h2 = bank.modes[j]
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
            raise NumericalError("innovation covariance is not positive definite")
        res = z - (h0 * y0 + h1 * y1 + h2 * y2)
        try:
            lik = math.exp(-0.5 * (_LOG_2PI + math.log(s) + res ** 2 / s))
        except OverflowError:
            raise NumericalError(f"innovation {res!r} overflows the likelihood") from None
        liks.append(max(lik, LIKELIHOOD_FLOOR))
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


def closed_loop_by_tick(spec, motor, vertices, noise=None):
    """`harness.run_scenario`'s loop one tick at a time: scalar draws from
    the seed's generator (the measurement noise, then the torque noise when
    it is on), the two-pass IMM cycle, the mode probabilities spread over
    the vertices, rho_hat, the controller weights `scale * mu + offset` and
    the gain recomputed every tick, one log row stored per tick. `vertices`
    must carry gains.

    Returns (log columns by RunRecord field, saturation count).
    """
    noise = noise if noise is not None else NoiseConfig.default()
    nv = vertices.n_vertices
    est_kind, est_idx = _parse_choice(spec.estimator, "estimator", ("imm", "kf"))
    ctl_kind, ctl_idx = _parse_choice(spec.controller, "controller", ("maps", "fixed", "open"))
    slots = tuple(range(nv)) if est_kind == "imm" else (est_idx,)
    models = vertices.models()
    bank = FilterBank([models[i] for i in slots], default_transition_matrix(len(slots)), noise)
    means, covs, mu = bank.initial()
    gains = tuple(tuple(K.reshape(-1).tolist()) for K in vertices.K_vertices)
    scale = 1.0 if ctl_kind == "maps" else 0.0
    offset = tuple(1.0 if ctl_kind == "fixed" and i == ctl_idx else 0.0 for i in range(nv))
    feedforward = 1.0 if ctl_kind == "open" else 0.0
    normal = np.random.default_rng(spec.seed).standard_normal
    meas_std = (spec.meas_noise_std if spec.meas_noise_std is not None
                else math.sqrt(float(noise.R[0, 0])))
    dist_std = spec.process_noise_std
    friction = lru_cache(maxsize=16)(motor.friction)
    T = spec.tick
    rows = []
    truth, u, saturations = (0.0, 0.0, 0.0), 0.0, 0
    for k in range(spec.n_ticks):
        t = k * T
        z = truth[0] + meas_std * normal()
        tau_dist = dist_std * normal() if dist_std > 0.0 else 0.0
        means, covs, mu, _, x_hat = imm_step_two_pass(bank, means, covs, mu, u, z)
        mu_v = [0.0] * nv
        for slot, m in zip(slots, mu):
            mu_v[slot] = m
        rho_hat = 0.0
        for m, r in zip(mu_v, vertices.rho):
            rho_hat += m * r
        K = maps_gain([scale * m + o for m, o in zip(mu_v, offset)], gains)
        ref = spec.reference_state(t)
        u, saturated = control_input(K, ref, x_hat, spec.v_limit, feedforward)
        saturations += saturated
        b_t, coulomb_on = spec.friction.at(t)
        rows.append((t, z, *truth, *x_hat, *mu_v, rho_hat, *K, u, *ref, b_t))
        truth = plant_step(truth, u, friction(b_t, coulomb_on), motor.params, T, tau_dist)
    log = np.array(rows)
    c = 8 + nv
    columns = {
        "time": log[:, 0], "z": log[:, 1], "truth": log[:, 2:5],
        "estimate": log[:, 5:8], "mu": log[:, 8:c], "rho_hat": log[:, c],
        "gain": log[:, c + 1:c + 4], "u": log[:, c + 4],
        "reference": log[:, c + 5:c + 8], "b_true": log[:, c + 8],
    }
    return columns, saturations


def dare_residual_two_solve(Phi, Gamma, Q, R, P) -> float:
    """Max-norm defect of P in the discrete algebraic Riccati equation,
    solving Gamma' P Gamma + R on its own."""
    G = Gamma.T @ P @ Gamma + R
    correction = Phi.T @ P @ Gamma @ np.linalg.solve(G, Gamma.T @ P @ Phi)
    defect = Phi.T @ P @ Phi - correction + Q - P
    return float(np.max(np.abs(defect)))


def solve_dare_two_solve(model, weights) -> RiccatiSolution:
    """`control.solve_dare` solving Gamma' P Gamma + R twice: once in the
    residual, once for K."""
    Phi, Gamma = model.Phi, model.Gamma
    Q, R = weights.Q, weights.R
    try:
        P = solve_discrete_are(Phi, Gamma, Q, R)
    except (LinAlgError, ValueError) as exc:
        raise NumericalError(
            f"Riccati equation has no stabilizing solution ({exc}); "
            "the model/weight pair is likely not stabilizable"
        ) from None
    residual = dare_residual_two_solve(Phi, Gamma, Q, R, P)
    K = np.linalg.solve(Gamma.T @ P @ Gamma + R, Gamma.T @ P @ Phi)
    closed = Phi - Gamma @ K
    radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    if not radius < 1.0:
        raise NumericalError(
            f"closed loop is not Schur stable (spectral radius {radius:.6f}); "
            "the model/weight pair is not stabilizable-detectable"
        )
    return RiccatiSolution(P=P, K=K, residual=residual)


def gains_by_replace(vertices, weights):
    """(gain-filled set, Riccati solutions): one `solve_dare_two_solve` per
    vertex, the gains filled through `dataclasses.replace`, which validates
    and freezes the whole set again."""
    Gamma = np.asarray(vertices.Gamma, dtype=float)
    solutions = [
        solve_dare_two_solve(DiscreteModel(Phi=phi, Gamma=Gamma, H=vertices.H, T=vertices.T),
                             weights)
        for phi in vertices.Phi_vertices
    ]
    filled = dataclasses.replace(vertices, K_vertices=tuple(s.K for s in solutions))
    return filled, solutions


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


def certify_checked(vertices, Gamma=None, assumptions=None) -> StabilityCert:
    """`stability.certify` over `find_common_lyapunov_checked`."""
    if vertices.K_vertices is None:
        raise ParameterError("vertex gains have not been synthesized")
    Gamma = vertices.Gamma if Gamma is None else np.asarray(Gamma, dtype=float)
    loops = [
        phi - Gamma @ K for phi, K in zip(vertices.Phi_vertices, vertices.K_vertices)
    ]
    search = find_common_lyapunov_checked(loops)
    if not search.certified:
        raise CertificationError(
            "no common Lyapunov matrix found "
            f"(worst vertex margin {search.worst_margin:.3e}, after {search.rounds} rounds); "
            "this does not prove instability"
        )
    L_phi, L_k, L = lipschitz_constants(vertices, Gamma)
    eps_used = assumptions.epsilon if assumptions is not None else None
    eps_star, C, lam = epsilon_star(search.P, search.worst_margin, L, epsilon=eps_used)
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
        epsilon_used=eps_used if eps_used is not None else 0.5 * eps_star,
    )
