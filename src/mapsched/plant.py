"""Truth-plant integration: an exact step per friction regime, RK4 across
regime changes.

The voltage u and the external torque tau_ext are held over a control tick,
so within one friction regime the motor is an affine linear system and the
tick has a closed-form solution:

- slipping (|omega| >= OMEGA_REST over the whole tick, sign s fixed):
  x+ = Ad(b) x + Bd(b) [tau_ext - tau_c s, u], with (Ad, Bd) from one
  augmented matrix exponential, cached per (params, b, dt);
- stuck (|omega| < OMEGA_REST and |Kt i + tau_ext| < tau_s): omega is held,
  theta advances by omega dt and i relaxes exponentially toward
  (u - Ke omega) / Rm.

A tick that enters the rest band, breaks away or changes sign is integrated
with fixed-step RK4 at dt/substeps instead (`_plant_py.motor_rk4`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._plant_py import motor_rk4
from .errors import NumericalError, ParameterError
from .motor import OMEGA_REST, FrictionModel, MotorParams, zoh_discretize

# inner RK4 step small enough for the stiff electrical time constant
MAX_INNER_STEP = 1e-5


def default_substeps(dt: float) -> int:
    return max(1, math.ceil(dt / MAX_INNER_STEP))


@lru_cache(maxsize=256)
def _slip_model(kt, ke, jeq, lm, rm, b, dt):
    """One-tick maps and modal data of the slipping dynamics at viscous
    coefficient b, or None when the (omega, i) modes are not real and
    distinct.

    Returns (Ad rows, Bd rows, lam_slow, lam_fast, m_slow, m_fast), where
    [1, m] is the (omega, i) eigenvector of each mode.
    """
    tr = -(b / jeq + rm / lm)
    det = (b * rm + kt * ke) / (jeq * lm)
    disc = tr * tr - 4.0 * det
    if not disc > 0.0:
        return None
    lam_fast = 0.5 * (tr - math.sqrt(disc))
    lam_slow = det / lam_fast  # product of the roots; avoids cancellation
    A = np.array([
        [0.0, 1.0, 0.0],
        [0.0, -b / jeq, kt / jeq],
        [0.0, -ke / lm, -rm / lm],
    ])
    B = np.array([[0.0, 0.0], [1.0 / jeq, 0.0], [0.0, 1.0 / lm]])
    Ad, Bd = zoh_discretize(A, B, dt)
    return (
        tuple(map(tuple, Ad.tolist())), tuple(map(tuple, Bd.tolist())),
        lam_slow, lam_fast,
        (lam_slow + b / jeq) * jeq / kt, (lam_fast + b / jeq) * jeq / kt,
    )


def _slip_step(theta, omega, cur, u, tau_ext, f, p, dt):
    """Exact tick when omega keeps its sign and stays outside the rest band
    throughout; None otherwise.

    omega(t) = w_ss + a1 e^(lam_slow t) + a2 e^(lam_fast t) has at most one
    interior extremum, so the band test at both ends and at that extremum
    covers the whole tick.
    """
    model = _slip_model(p.Kt, p.Ke, p.Jeq, p.Lm, p.Rm, f.b, dt)
    if model is None:
        return None
    ad, bd, lam1, lam2, m1, m2 = model
    s = 1.0 if omega > 0.0 else -1.0
    torque = tau_ext - f.tau_c * s
    w_ss = (p.Kt * u + p.Rm * torque) / (f.b * p.Rm + p.Kt * p.Ke)
    dw, di = omega - w_ss, cur - (u - p.Ke * w_ss) / p.Rm
    # split the offset from steady state over the eigenvectors [1, m]
    a1 = (di - m2 * dw) / (m1 - m2)
    a2 = dw - a1
    if a1 != 0.0 and a2 != 0.0:
        ratio = -(a2 * lam2) / (a1 * lam1)
        if ratio > 0.0:
            t_ext = math.log(ratio) / (lam1 - lam2)
            if 0.0 < t_ext < dt:
                w_ext = w_ss + a1 * math.exp(lam1 * t_ext) + a2 * math.exp(lam2 * t_ext)
                if not s * w_ext >= OMEGA_REST:
                    return None
    out = tuple(
        row[0] * theta + row[1] * omega + row[2] * cur + g[0] * torque + g[1] * u
        for row, g in zip(ad, bd)
    )
    if not s * out[1] >= OMEGA_REST:
        return None
    return out


def _stuck_step(theta, omega, cur, u, tau_ext, f, p, dt):
    """Exact tick while stiction holds the rotor; None on breakaway.

    i relaxes monotonically, so the motor torque stays below the threshold
    over the whole tick iff it does at both ends.
    """
    i_ss = (u - p.Ke * omega) / p.Rm
    cur_end = i_ss + (cur - i_ss) * math.exp(-p.Rm * dt / p.Lm)
    if not abs(p.Kt * cur_end + tau_ext) < f.tau_s:
        return None
    return theta + omega * dt, omega, cur_end


def plant_step(state, u: float, f: FrictionModel, params: MotorParams,
               dt: float, substeps: int | None = None,
               tau_ext: float = 0.0) -> np.ndarray:
    """Advance the nonlinear truth plant one control tick of length dt.

    Solves theta' = omega, Jeq omega' = Kt i + tau_ext - tau_fric,
    Lm i' = -Rm i - Ke omega + u with u and tau_ext held. A tick that stays
    in one friction regime (slipping with a fixed sign, or stuck) takes the
    exact affine step; any other tick is integrated with fixed-step RK4 at
    dt/substeps, so `substeps` only sets that fallback.
    """
    if substeps is None:
        substeps = default_substeps(dt)
    if substeps < 1:
        raise ParameterError("substeps must be at least 1")
    theta, omega, cur = (float(v) for v in np.asarray(state, dtype=float).reshape(3))
    u, tau_ext = float(u), float(tau_ext)
    if abs(omega) >= OMEGA_REST:
        nxt = _slip_step(theta, omega, cur, u, tau_ext, f, params, dt)
    elif abs(params.Kt * cur + tau_ext) < f.tau_s:
        nxt = _stuck_step(theta, omega, cur, u, tau_ext, f, params, dt)
    else:
        nxt = None
    if nxt is None:
        nxt = motor_rk4(
            theta, omega, cur, u, float(dt), int(substeps),
            params.Kt, params.Ke, params.Jeq, params.Lm, params.Rm,
            f.tau_s, f.tau_c, f.b, OMEGA_REST, tau_ext,
        )
    theta, omega, cur = nxt
    if not (math.isfinite(theta) and math.isfinite(omega) and math.isfinite(cur)):
        raise NumericalError(
            f"truth plant diverged (state=({theta}, {omega}, {cur}), u={u}, b={f.b})"
        )
    return np.array([theta, omega, cur])
