import dataclasses

import numpy as np
import pytest
from reference import motor_rk4, slipping_state
from scipy.optimize import minimize_scalar

from mapsched import plant
from mapsched.config import motor_config_from_entries
from mapsched.errors import ConfigError, NumericalError, ParameterError
from mapsched.motor import OMEGA_REST, FrictionModel
from mapsched.plant import TickMap, plant_step


def test_equilibrium_under_stiction(motor):
    f = FrictionModel(tau_s=0.003, tau_c=0.002, b=2.46e-6)
    state = plant_step(np.zeros(3), 0.0, TickMap(motor, f, 0.002))
    assert np.array_equal(state, np.zeros(3))


def test_small_torque_does_not_break_away(motor):
    # voltage small enough that Kt*i stays below the stiction threshold
    tick = TickMap(motor, FrictionModel(tau_s=0.003, tau_c=0.002, b=2.46e-6), 0.002)
    state = np.zeros(3)
    for _ in range(500):
        state = plant_step(state, 0.3, tick)
    assert state[1] == 0.0
    assert state[0] == 0.0
    assert state[2] > 0.0  # current flows, rotor held


def test_steady_state_velocity_matches_regression_model(motor):
    # after 2 s at constant voltage the speed sits on the steady-state line
    # omega = V / (Rm*b/Kt + Ke) used by the identification procedure
    b = 2.46e-6
    tick = TickMap(motor, FrictionModel(tau_s=0.003, tau_c=0.0, b=b), 0.002)
    state = np.zeros(3)
    for _ in range(1000):
        state = plant_step(state, 1.0, tick)
    expected = 1.0 / (motor.Rm * b / motor.Kt + motor.Ke)
    assert state[1] == pytest.approx(expected, rel=0.02)


def test_passive_decay_with_zero_input(motor):
    tick = TickMap(motor, FrictionModel(tau_s=0.003, tau_c=0.002, b=2.46e-6), 0.002)
    state = np.array([0.0, 5.0, 0.0])
    norms = []
    for _ in range(1000):
        state = plant_step(state, 0.0, tick)
        norms.append(float(np.linalg.norm(state)))
    # after the initial transient the norm never grows: the rotor comes to
    # rest and sticks
    tail = np.array(norms[250:])
    assert np.all(np.diff(tail) <= 1e-8)
    assert tail[-1] <= tail[0] + 1e-6
    assert abs(state[1]) < 1e-3  # spun down


STOCK_FRICTION = FrictionModel(tau_s=0.003, tau_c=0.002, b=2.46e-6)


def _rk4(state, u, f, motor, substeps, tau_ext=0.0, dt=0.002):
    return motor_rk4(
        *(float(v) for v in state), u, dt, substeps,
        motor.Kt, motor.Ke, motor.Jeq, motor.Lm, motor.Rm,
        f.tau_s, f.tau_c, f.b, OMEGA_REST, tau_ext,
    )


# every pin is a literal: the plant is scalar float arithmetic, so its bits
# hold on every BLAS kernel. A slipping tick is also held within 1e-12 of
# the exponential of the augmented (A, B), the other form of its closed form
@pytest.mark.parametrize(
    "state, u, f, tau_ext, expected",
    [
        ([0.1, 3.0, -0.02], 2.0, FrictionModel(0.003, 0.002, 1.63e-4), 0.0,
         (0.10653540639538726, 3.5906879496974686, 0.22036580185391438)),
        ([0.1, -3.0, 0.02], -2.0, FrictionModel(0.003, 0.002, 1.63e-4), 0.0,
         (0.09346459360461275, -3.5906879496974686, -0.22036580185391438)),
        ([0.1, 3.0, -0.02], 2.0, FrictionModel(0.003, 0.0, 2.46e-6), 0.0,
         (0.10677749879838648, 3.833615778086858, 0.21923578908716718)),
        ([-0.2, -30.0, 0.3], 1.0, FrictionModel(0.003, 0.0, 2.46e-6), 1e-3,
         (-0.258789330047167, -28.80085838941359, 0.26345929030017323)),
        ([0.3, 0.0, 0.01], 0.3, STOCK_FRICTION, 0.0,
         (0.3, 0.0, 0.03571427251980467)),
        ([0.3, 5e-7, 0.01], -0.2, STOCK_FRICTION, 1e-3,
         (0.300000001, 5e-07, -0.02380950896122338)),
    ],
    ids=["slip+coulomb", "slip-coulomb", "slip+viscous", "slip-viscous-load",
         "stuck", "stuck-creeping"],
)
def test_one_regime_ticks_exact(motor, state, u, f, tau_ext, expected):
    # bitwise the pinned state, and within 1e-9 of RK4 at 400 substeps
    ref = np.array(_rk4(state, u, f, motor, 400, tau_ext=tau_ext))
    got = plant_step(state, u, TickMap(motor, f, 0.002), tau_ext=tau_ext)
    assert type(got) is tuple and all(type(v) is float for v in got)
    assert got == expected
    assert np.max(np.abs(np.array(got) - ref) / np.maximum(np.abs(ref), 1e-12)) < 1e-9
    if abs(state[1]) > OMEGA_REST:
        exact = np.array(slipping_state(state, u, f, motor, 0.002, tau_ext))
        assert np.max(np.abs(np.array(got) - exact) / np.abs(exact)) < 1e-12


@pytest.mark.parametrize("scale, coulomb_on", [(0.0, False), (1.0, True), (10.0, True)],
                         ids=["b_min", "b_max-coulomb", "10b_max-coulomb"])
def test_slip_step_is_the_event_step_without_events(motor, scale, coulomb_on):
    # a slipping tick with no event takes the same closed form through
    # either function, so the fast path returns the event step's bits
    b = motor.b_min if scale == 0.0 else scale * motor.b_max
    tick = TickMap(motor, motor.friction(b, coulomb_on), 0.002)
    rng = np.random.default_rng(26)
    fast = 0
    for _ in range(3_000):
        theta, cur, u, tau_ext = rng.normal(0.0, (3.0, 0.3, 3.0, 2e-3))
        omega = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 2.0)
        args = (float(theta), float(omega), float(cur), float(u), float(tau_ext))
        got = plant._slip_step(*args, tick.slip)
        if got is not None:
            fast += 1
            assert got == plant._event_step(*args, tick)
    assert fast > 1_500


@pytest.mark.parametrize("omega0", [0.1457725, 0.12], ids=["graze-band", "reverse-and-back"])
def test_interior_dip_reaches_rest_band(motor, omega0):
    # a negative current brakes the rotor while the voltage reverses it, so
    # omega dips to its minimum about 0.17 ms into the tick and ends fast;
    # both ends of the tick lie far outside the rest band. These ticks are
    # inputs of test_event_ticks_match_reference
    state, u = [0.0, omega0, -1.0], 4.0

    def omega(t):
        return slipping_state(state, u, STOCK_FRICTION, motor, t)[1]

    ends = [omega(t) for t in (0.0, 0.002)]
    dip = minimize_scalar(omega, bounds=(0.0, 0.002), method="bounded",
                          options={"xatol": 1e-12})
    assert min(ends) > 0.1 and dip.fun < OMEGA_REST


EVENT_TICKS = [
    ([0.0, 1.01e-6, 0.0], 0.0, FrictionModel(0.003, 0.0, 2.46e-6), 0.0),
    ([0.0, 0.0, 0.0], 5.0, STOCK_FRICTION, 0.0),
    ([0.0, 0.0, 0.0], 3.0, STOCK_FRICTION, -1e-3),
    ([0.0, 0.0, 0.1], 1.0, STOCK_FRICTION, 0.0),
    ([0.0, 0.05, 0.0], -4.0, STOCK_FRICTION, 0.0),
    # reversals with tau_c < |Kt i| < tau_s: the rotor passes through zero
    ([0.0, 0.01, -0.0238], -0.2, FrictionModel(0.003, 0.0, 2.46e-6), 0.0),
    ([0.0, 0.01, -0.0595], -0.5, STOCK_FRICTION, 0.0),
    ([0.0, 0.1457725, -1.0], 4.0, STOCK_FRICTION, 0.0),
    ([0.0, 0.12, -1.0], 4.0, STOCK_FRICTION, 0.0),
    # omega' = 0 at the start, so rounding alone would pick a direction: the
    # torque at exactly tau_s = tau_c and falling, or no friction at all
    ([0.0, 0.0, 0.003 / 0.042], -0.6, FrictionModel(0.003, 0.003, 0.0), 0.0),
    ([0.0, 0.0, 0.0], -0.6, FrictionModel(0.0, 0.0, 0.0), 0.0),
    ([0.0, OMEGA_REST, 0.0], 1.07, FrictionModel(0.0, 0.0, 0.0), 0.0),
]
EVENT_IDS = ["enter-band", "breakaway", "breakaway-load", "break-at-start", "reversal",
             "reversal-below-stiction", "reversal-below-stiction-coulomb",
             "graze-band", "reverse-and-back",
             "balanced-at-breakaway", "frictionless", "frictionless-band-edge"]


@pytest.mark.parametrize("state, u, f, tau_ext", EVENT_TICKS, ids=EVENT_IDS)
def test_event_ticks_match_reference(motor, state, u, f, tau_ext):
    # the reference's own error on these ticks is first order: the friction
    # torque jumps inside the substep h that straddles each of the tick's
    # (at most two) events, so omega is off by up to 2 (tau_s + tau_c) h / Jeq,
    # which halves with each doubling of the substeps; 1e-12 covers round-off
    dt = 0.002
    got = np.array(plant_step(state, u, TickMap(motor, f, dt), tau_ext=tau_ext))
    refs = {n: np.array(_rk4(state, u, f, motor, n, tau_ext=tau_ext))
            for n in (400, 800, 1600, 3200)}
    scale = np.array([dt, 1.0, motor.Ke * dt / motor.Lm])  # omega's error carried into theta and i
    for n in (400, 800, 1600):
        tol = (2.0 * (f.tau_s + f.tau_c) / motor.Jeq * (dt / n) + 1e-12) * scale
        assert np.all(np.abs(refs[n] - refs[2 * n]) <= tol)
        assert np.all(np.abs(got - refs[n]) <= tol)


def test_coulomb_stick_matches_fine_reference(motor):
    # Coulomb friction stops the rotor at ~100 rad/s^2; the reference only
    # lands in the 2e-6 rad/s rest band when a substep moves omega less than
    # that, here at 15 ns. It then holds omega inside the band, where the
    # event step holds omega = 0
    dt = 5e-4
    state = (0.0, 0.02, 0.0)
    got = plant_step(state, 0.0, TickMap(motor, STOCK_FRICTION, dt))
    ref = _rk4(state, 0.0, STOCK_FRICTION, motor, 32768, dt=dt)
    assert got[1] == 0.0 and abs(ref[1]) < OMEGA_REST
    assert abs(got[0] - ref[0]) <= OMEGA_REST * dt
    assert abs(got[2] - ref[2]) <= 1e-8


def test_coast_down_sticks_and_holds(motor):
    # from a spin with no voltage, Coulomb friction brings the rotor to rest
    # in ~50 ms; it then stays stuck, omega exactly 0 and theta fixed
    tick = TickMap(motor, STOCK_FRICTION, 0.002)
    state = (0.0, 5.0, 0.0)
    thetas, omegas = [], []
    for _ in range(500):
        state = plant_step(state, 0.0, tick)
        thetas.append(state[0])
        omegas.append(state[1])
    rest = next(k for k, w in enumerate(omegas) if abs(w) <= OMEGA_REST)
    assert rest < 40
    assert all(w == 0.0 for w in omegas[rest:])
    assert state[0] == thetas[rest]
    assert abs(state[2]) < 1e-6


def test_event_cap_raises(motor, monkeypatch):
    # the graze tick takes two events: stick at the dip, then break away
    state, u = (0.0, 0.1457725, -1.0), 4.0
    tick = TickMap(motor, STOCK_FRICTION, 0.002)
    monkeypatch.setattr(plant, "MAX_EVENTS", 2)
    plant_step(state, u, tick)
    monkeypatch.setattr(plant, "MAX_EVENTS", 1)
    with pytest.raises(NumericalError, match="friction events"):
        plant_step(state, u, tick)


def test_complex_modes_refused(motor):
    # a large inductance makes the (omega, i) modes a complex pair: the
    # motor itself is refused, so no TickMap is built for it
    with pytest.raises(ParameterError, match="not real and distinct for every"):
        dataclasses.replace(motor, Lm=1.0)
    with pytest.raises(ConfigError, match="not real and distinct"):
        motor_config_from_entries({"lm": "1.0"})


def test_config_refuses_complex_modes_inside_schedule_range(motor):
    # the modes are complex for b/Jeq within 2 sqrt(Kt Ke / (Jeq Lm)) of
    # Rm/Lm, b in about (0.138, 0.160) for the stock motor. b_max = 0.02 is
    # real at both vertices, but schedules may reach 10 b_max. A b past the
    # stock motor's range reaches TickMap's own check
    for b in (0.0, 0.02, 0.2):
        tick = TickMap(motor, dataclasses.replace(STOCK_FRICTION, b=b), 0.002)
        plant_step((0.0, 3.0, 0.1), 2.0, tick)
    with pytest.raises(ParameterError, match="not real and distinct at b = 1.500e-01"):
        TickMap(motor, dataclasses.replace(STOCK_FRICTION, b=0.15), 0.002)
    with pytest.raises(ConfigError, match="not real and distinct"):
        motor_config_from_entries({"b_max": "0.02"})
    assert motor_config_from_entries({"b_max": "0.013"}).b_max == 0.013
