"""Reference implementations the tests hold the package against.

`motor_rk4` is a fixed-step RK4 of the nonlinear motor truth plant: the
converged reference for `mapsched.plant.plant_step`. On a tick that changes
friction regime its error is first order in the substep: the friction torque
jumps inside the substep that straddles the event. It resolves sticking only
when one substep moves omega less than the rest band's width.

The rest are array or plain-loop forms of what the package computes another
way: the IMM probability update, single-model discretizations, the percent
change of a comparison, a friction lookup by linear scan and the closed
loop run tick by tick.
"""

import math
from functools import lru_cache

import numpy as np

from mapsched.control import control_input, maps_gain
from mapsched.estimation import FilterBank, NoiseConfig, default_transition_matrix, imm_step
from mapsched.harness import _parse_choice, _percent_change
from mapsched.motor import DiscreteModel, euler_discretize, zoh_discretize
from mapsched.plant import plant_step


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


def closed_loop_by_tick(spec, motor, vertices, noise=None):
    """`harness.run_scenario`'s loop one tick at a time: scalar draws from
    the seed's generator (the measurement noise, then the torque noise when
    it is on), the controller weights `scale * mu + offset` and the gain
    recomputed every tick, one log row stored per tick. `vertices` must
    carry gains.

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
        means, covs, mu, _, x_hat = imm_step(bank, means, covs, mu, u, z)
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
