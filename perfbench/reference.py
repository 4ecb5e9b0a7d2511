"""Independent fixed-step RK4 of the motor truth ODE.

The benchmark replays a recorded run through this integrator and reports the
largest position gap as `plant_ref_err`. It deliberately shares no code with
`mapsched.plant`, so a change to the package's plant cannot move its own
reference. Model (state theta, omega, i):

    theta' = omega
    Jeq omega' = Kt i - (tau_c sign(omega) + b omega)   (0 while stuck)
    Lm i' = u - Rm i - Ke omega

The rotor counts as stuck when |omega| < OMEGA_REST and |Kt i| < tau_s.
"""

from __future__ import annotations

import math

OMEGA_REST = 1e-6
SUBSTEPS = 400


def _derivative(omega, cur, u, c, b, coulomb):
    """(theta', omega', i') for motor constants `c`."""
    drive = c["kt"] * cur
    if abs(omega) < OMEGA_REST and abs(drive) < c["tau_s"]:
        accel = 0.0
    else:
        sign = (omega > 0.0) - (omega < 0.0)
        accel = (drive - coulomb * sign - b * omega) / c["jeq"]
    return omega, accel, (u - c["rm"] * cur - c["ke"] * omega) / c["lm"]


def rk4_tick(state, u, dt, c, b, coulomb, substeps=SUBSTEPS):
    """Advance (theta, omega, i) by one held-input tick of length dt."""
    theta, omega, cur = state
    h = dt / substeps
    for _ in range(substeps):
        a1, b1, c1 = _derivative(omega, cur, u, c, b, coulomb)
        a2, b2, c2 = _derivative(omega + 0.5 * h * b1, cur + 0.5 * h * c1, u, c, b, coulomb)
        a3, b3, c3 = _derivative(omega + 0.5 * h * b2, cur + 0.5 * h * c2, u, c, b, coulomb)
        a4, b4, c4 = _derivative(omega + h * b3, cur + h * c3, u, c, b, coulomb)
        theta += h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        omega += h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
        cur += h * (c1 + 2.0 * c2 + 2.0 * c3 + c4) / 6.0
    return theta, omega, cur


def motor_constants(motor: dict) -> dict:
    """Constants the ODE needs, from the benchmark's motor key/value table."""
    return {
        "kt": motor["kt"], "ke": motor["ke"], "lm": motor["lm"], "rm": motor["rm"],
        "jeq": motor["jr"] + motor["jh"] + motor["jd"], "tau_s": motor["tau_s"],
    }


def replay_gap(theta_rec, u_rec, friction, dt, motor: dict) -> float:
    """Largest |theta| gap between a recorded truth trajectory and this RK4.

    theta_rec[k] is the recorded truth at tick k, before u_rec[k] is applied;
    friction[k] is the (b, tau_c) pair active over tick k. The replay starts
    from rest, like every benchmark scenario.
    """
    c = motor_constants(motor)
    state = (0.0, 0.0, 0.0)
    worst = 0.0
    for k, theta in enumerate(theta_rec):
        gap = abs(theta - state[0])
        if not math.isfinite(gap):
            return math.inf
        worst = max(worst, gap)
        if k + 1 < len(theta_rec):
            b, coulomb = friction[k]
            state = rk4_tick(state, u_rec[k], dt, c, b, coulomb)
    return worst
