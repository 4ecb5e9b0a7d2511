"""Reference implementations the tests hold the package against.

`motor_rk4` is a fixed-step RK4 of the nonlinear motor truth plant: the
converged reference for `mapsched.plant.plant_step`. On a tick that changes
friction regime its error is first order in the substep: the friction torque
jumps inside the substep that straddles the event. It resolves sticking only
when one substep moves omega less than the rest band's width.

The rest are array or plain-loop forms of what the package computes another
way: the IMM probability update, single-model discretizations, the percent
change of a comparison and a friction lookup by linear scan.
"""

import numpy as np

from mapsched.harness import _percent_change
from mapsched.motor import DiscreteModel, euler_discretize, zoh_discretize


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
