"""Truth-plant integration: exact segments split at friction events.

The voltage u and the external torque tau_ext are held over a control tick,
so between friction events the motor is an affine linear system with a
closed-form solution:

- slipping with sign s: Jeq omega' = Kt i + tau_ext - tau_c s - b omega.
  omega(t) = w_ss + a1 e^(lam1 t) + a2 e^(lam2 t) over the two real (omega, i)
  modes, i(t) = i_ss + a1 m1 e^(lam1 t) + a2 m2 e^(lam2 t) and theta
  advancing by the integral of omega;
- at rest (|omega| <= OMEGA_REST) with |Kt i + tau_ext| below the breakaway
  torque: stuck. omega is held, theta advances by omega dt and i relaxes
  exponentially toward (u - Ke omega) / Rm.

A tick that changes regime is chained from such segments, split at its
friction events, after Karnopp's stick-slip model (ASME J. Dyn. Sys.,
Meas., Control 107, 1985):

- band entry: slipping ends where s omega falls to OMEGA_REST, a root of the
  closed form on a monotone piece of omega. If the motor torque drives the
  rotor the other way harder than Coulomb friction resists,
  -s (Kt i + tau_ext) > tau_c, it reverses and slips on with sign -s;
  otherwise it stops, omega = 0, and is stuck. So static friction holds a
  rotor at rest, not one whose velocity only passes through zero: this is
  what a fixed-step integrator of the same model does at any practical
  step, since it steps over the band;
- breakaway: a rotor at rest is held while |Kt i + tau_ext| stays below the
  breakaway torque, and slips off with the sign of that torque where the
  relaxing current brings it there (one log).

At most MAX_EVENTS events are located per tick. Motors whose (omega, i)
modes are complex are refused.

A `TickMap` binds one motor, friction model and dt: the modes, their
exponentials over dt, and the motor and friction constants the closed forms
read, as floats. It is built once per friction segment, so a slipping tick
reads one flat tuple and looks nothing up. Everything here is scalar float
arithmetic and the `math` module, so no BLAS kernel rounds the truth.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import NumericalError, ParameterError
from .motor import OMEGA_REST, FrictionModel

if TYPE_CHECKING:
    from .config import MotorConfig

# friction events (band entries and breakaways) located within one tick
MAX_EVENTS = 8

# Newton iterations of an event-time solve; each one that leaves the bracket
# bisects it instead, so 64 cover any tick to float resolution. A scipy
# root finder would cost ~0.2 s of import in every run.
MAX_ROOT_ITER = 64


class TickMap:
    """The truth plant's constants for one motor, friction model and tick
    length dt, built once and read by every `plant_step` on them.

    `slip` is one flat float tuple, the slipping dynamics at viscous
    coefficient b: the modes lam_slow and lam_fast with their (omega, i)
    eigenvectors [1, m_slow] and [1, m_fast], m_slow - m_fast, each mode's
    exp(lam dt) and expm1(lam dt) / lam (the integral of e^(lam t) over the
    tick), dt, tau_c, Kt, Rm, Ke and b Rm + Kt Ke. The stuck segments also
    read the breakaway torque tau_b, Lm and Lm / Rm. Raises ParameterError
    when the modes are not real and distinct.
    """

    __slots__ = ("slip", "tau_b", "lm", "lm_rm", "b")

    def __init__(self, motor: MotorConfig, friction: FrictionModel, dt: float):
        kt, ke, jeq, lm, rm = motor.Kt, motor.Ke, motor.Jeq, motor.Lm, motor.Rm
        b = friction.b
        tr = -(b / jeq + rm / lm)
        det = (b * rm + kt * ke) / (jeq * lm)
        disc = tr * tr - 4.0 * det
        if not disc > 0.0:
            raise ParameterError(
                f"the motor's (omega, i) modes are not real and distinct at b = {b:.3e}"
            )
        lam_fast = 0.5 * (tr - math.sqrt(disc))
        lam_slow = det / lam_fast  # product of the roots; avoids cancellation
        m_slow = (lam_slow + b / jeq) * jeq / kt
        m_fast = (lam_fast + b / jeq) * jeq / kt
        self.slip = (
            lam_slow, lam_fast, m_slow, m_fast, m_slow - m_fast,
            math.exp(lam_slow * dt), math.exp(lam_fast * dt),
            math.expm1(lam_slow * dt) / lam_slow, math.expm1(lam_fast * dt) / lam_fast,
            dt, friction.tau_c, kt, rm, ke, b * rm + kt * ke,
        )
        # breakaway torque: tau_s, or tau_c + b OMEGA_REST where that is
        # larger (tau_s = tau_c), so a rotor breaking away anywhere in the
        # rest band accelerates out of it
        self.tau_b = max(friction.tau_s, friction.tau_c + b * OMEGA_REST)
        self.lm, self.lm_rm, self.b = lm, lm / rm, b


def _modes(omega, cur, u, torque, kt, rm, ke, den, m2, dm):
    """(w_ss, i_ss, a1, a2): the steady state of the slipping dynamics under
    the constant torque `torque` and the offset from it split over the
    eigenvectors [1, m1], [1, m2]; den = b Rm + Kt Ke and dm = m1 - m2."""
    w_ss = (kt * u + rm * torque) / den
    i_ss = (u - ke * w_ss) / rm
    dw, di = omega - w_ss, cur - i_ss
    a1 = (di - m2 * dw) / dm
    return w_ss, i_ss, a1, dw - a1


def _extremum(a1, a2, lam1, lam2):
    """Time of the one extremum of a1 e^(lam1 t) + a2 e^(lam2 t), or None."""
    if a1 != 0.0 and a2 != 0.0:
        ratio = -(a2 * lam2) / (a1 * lam1)
        if ratio > 0.0:
            return math.log(ratio) / (lam1 - lam2)
    return None


def _slip_step(theta, omega, cur, u, tau_ext, slip):
    """Exact tick when omega keeps its sign and stays outside the rest band
    throughout; None otherwise.

    omega(t) has at most one interior extremum, so the band test at both
    ends and at that extremum covers the whole tick. The end state is the
    closed form `_event_step` takes over a slipping segment of length dt,
    with the same bits.
    """
    lam1, lam2, m1, m2, dm, e1, e2, f1, f2, dt, tau_c, kt, rm, ke, den = slip
    s = 1.0 if omega > 0.0 else -1.0
    w_ss, i_ss, a1, a2 = _modes(omega, cur, u, tau_ext - tau_c * s, kt, rm, ke, den, m2, dm)
    t_ext = _extremum(a1, a2, lam1, lam2)
    if t_ext is not None and 0.0 < t_ext < dt:
        w_ext = w_ss + a1 * math.exp(lam1 * t_ext) + a2 * math.exp(lam2 * t_ext)
        if not s * w_ext >= OMEGA_REST:
            return None
    # omega first: a tick that ends inside the band needs no more
    w = w_ss + a1 * e1 + a2 * e2
    if not s * w >= OMEGA_REST:
        return None
    return theta + (w_ss * dt + a1 * f1 + a2 * f2), w, i_ss + a1 * m1 * e1 + a2 * m2 * e2


def _entry_time(h, dh, lo, hi, h_lo, h_hi):
    """Root of h on [lo, hi], where h falls monotonically from h_lo > 0 to
    h_hi <= 0: Newton steps from the secant guess, each step that leaves
    the shrinking bracket replaced by its midpoint."""
    tol = 1e-15 * hi
    t = lo + (hi - lo) * h_lo / (h_lo - h_hi)
    for _ in range(MAX_ROOT_ITER):
        v = h(t)
        if v > 0.0:
            lo = t
        else:
            hi = t
        d = dh(t)
        nxt = t - v / d if d != 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= tol:
            return nxt
        t = nxt
    return hi


def _band_entry(s, w_ss, a1, a2, lam1, lam2, span):
    """First time in (0, span] at which s omega(t) falls to OMEGA_REST, or
    None. omega(t) = w_ss + a1 e^(lam1 t) + a2 e^(lam2 t) is split into
    monotone pieces at its extremum; a piece that starts inside the band
    after a maximum (a peak within the band) enters it at its start."""
    def h(t):
        return s * (w_ss + a1 * math.exp(lam1 * t) + a2 * math.exp(lam2 * t)) - OMEGA_REST

    def dh(t):
        return s * (a1 * lam1 * math.exp(lam1 * t) + a2 * lam2 * math.exp(lam2 * t))

    cuts = [0.0, span]
    t_ext = _extremum(a1, a2, lam1, lam2)
    # an extremum within rounding of t = 0, where omega' = 0 at the start
    # (a breakaway at exactly tau_c), is no split
    if t_ext is not None and 1e-12 / (lam1 - lam2) < t_ext < span:
        cuts.insert(1, t_ext)
    h_a, rose = h(0.0), False
    for a, c in zip(cuts, cuts[1:]):
        h_c = h(c)
        if h_c < h_a:
            if h_a <= 0.0:
                # a peak within the band; a piece falling from inside the
                # band at t = 0 only rounds, since a rotor slips off from
                # rest toward its torque
                if rose:
                    return a
            elif h_c <= 0.0:
                return _entry_time(h, dh, a, c, h_a, h_c)
        h_a, rose = h_c, h_c > h_a
    return None


def _event_step(theta, omega, cur, u, tau_ext, tick):
    """Tick chained from exact segments, stuck or slipping with a fixed
    sign, split where the rotor enters the rest band or breaks away. A tick
    that stays stuck is one segment: the stuck map."""
    lam1, lam2, m1, m2, dm, _, _, _, _, dt, tau_c, kt, rm, ke, den = tick.slip
    tau_b, lm, lm_rm = tick.tau_b, tick.lm, tick.lm_rm
    sign = math.copysign(1.0, omega) if abs(omega) > OMEGA_REST else 0.0
    left = dt
    for _ in range(MAX_EVENTS + 1):
        if sign == 0.0:
            torque = kt * cur + tau_ext
            if abs(torque) > tau_b:
                sign = math.copysign(1.0, torque)
        if sign == 0.0:
            # stuck: i relaxes toward i_ss, and the torque with it
            i_ss = (u - ke * omega) / rm
            tau_ss = kt * i_ss + tau_ext
            span = left
            if abs(tau_ss) > tau_b:
                ratio = (torque - tau_ss) / (math.copysign(tau_b, tau_ss) - tau_ss)
                span = min(left, lm_rm * math.log(max(ratio, 1.0)))
            cur = i_ss + (cur - i_ss) * math.exp(-rm * span / lm)
            theta += omega * span
            if span >= left:
                return theta, omega, cur
            sign = math.copysign(1.0, tau_ss)
        else:
            w_ss, i_ss, a1, a2 = _modes(omega, cur, u, tau_ext - tau_c * sign,
                                        kt, rm, ke, den, m2, dm)
            entry = _band_entry(sign, w_ss, a1, a2, lam1, lam2, left)
            span = left if entry is None else entry
            e1, e2 = math.exp(lam1 * span), math.exp(lam2 * span)
            # a1 * (expm1 / lam), as `_slip_step` reads it from the tick
            theta += (w_ss * span + a1 * (math.expm1(lam1 * span) / lam1)
                      + a2 * (math.expm1(lam2 * span) / lam2))
            cur = i_ss + a1 * m1 * e1 + a2 * m2 * e2
            omega = w_ss + a1 * e1 + a2 * e2
            if entry is None:
                return theta, omega, cur
            if -sign * (kt * cur + tau_ext) > tau_c:
                # the torque carries the rotor on through zero against
                # Coulomb friction: it reverses without coming to rest
                sign = -sign
            else:
                omega, sign = 0.0, 0.0  # it stops; static friction holds it
            if span >= left:
                return theta, omega, cur
        left -= span
    raise NumericalError(
        f"truth plant tick needs more than {MAX_EVENTS} friction events "
        f"(u={u}, tau_ext={tau_ext}, b={tick.b})"
    )


def plant_step(state, u: float, tick: TickMap, tau_ext: float = 0.0) -> tuple:
    """Advance the nonlinear truth plant one control tick of `tick`'s dt.

    Solves theta' = omega, Jeq omega' = Kt i + tau_ext - tau_fric,
    Lm i' = -Rm i - Ke omega + u with u and tau_ext held, exactly: a tick
    that stays in one friction regime (slipping with a fixed sign, or stuck)
    is one closed-form segment, any other tick is chained from exact
    segments split at its friction events. `tick` holds the motor's and the
    friction model's constants; `state` is any 3-sequence (theta, omega, i).
    Returns the next state as a 3-tuple of floats.
    """
    theta, omega, cur = state
    theta, omega, cur = float(theta), float(omega), float(cur)
    u, tau_ext = float(u), float(tau_ext)
    nxt = None
    if abs(omega) > OMEGA_REST:
        nxt = _slip_step(theta, omega, cur, u, tau_ext, tick.slip)
    if nxt is None:
        nxt = _event_step(theta, omega, cur, u, tau_ext, tick)
    theta, omega, cur = nxt
    if not (math.isfinite(theta) and math.isfinite(omega) and math.isfinite(cur)):
        raise NumericalError(
            f"truth plant diverged (state=({theta}, {omega}, {cur}), u={u}, b={tick.b})"
        )
    return nxt
