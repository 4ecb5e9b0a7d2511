import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from mapsched import _plant_py, plant
from mapsched.errors import ParameterError
from mapsched.motor import OMEGA_REST, FrictionModel, MotorParams, build_continuous_model
from mapsched.plant import default_substeps, plant_step


def test_default_substeps_keeps_inner_step_small():
    assert default_substeps(0.002) == 200
    assert 0.002 / default_substeps(0.002) <= 1e-5
    assert default_substeps(1e-6) == 1


def test_equilibrium_under_stiction(motor):
    f = FrictionModel(tau_s=0.003, tau_c=0.002, b=2.46e-6)
    state = plant_step(np.zeros(3), 0.0, f, motor.params, 0.002)
    assert np.array_equal(state, np.zeros(3))


def test_small_torque_does_not_break_away(motor):
    # voltage small enough that Kt*i stays below the stiction threshold
    f = FrictionModel(tau_s=0.003, tau_c=0.002, b=2.46e-6)
    state = np.zeros(3)
    for _ in range(500):
        state = plant_step(state, 0.3, f, motor.params, 0.002)
    assert state[1] == 0.0
    assert state[0] == 0.0
    assert state[2] > 0.0  # current flows, rotor held


def test_steady_state_velocity_matches_regression_model(motor):
    # after 2 s at constant voltage the speed sits on the steady-state line
    # omega = V / (Rm*b/Kt + Ke) used by the identification procedure
    b = 2.46e-6
    f = FrictionModel(tau_s=0.003, tau_c=0.0, b=b)
    p = motor.params
    state = np.zeros(3)
    for _ in range(1000):
        state = plant_step(state, 1.0, f, p, 0.002)
    expected = 1.0 / (p.Rm * b / p.Kt + p.Ke)
    assert state[1] == pytest.approx(expected, rel=0.02)


def test_substep_doubling_converged(motor):
    f = FrictionModel(tau_s=0.003, tau_c=0.002, b=1.63e-4)
    start = np.array([0.1, 3.0, -0.02])
    a = plant_step(start, 2.0, f, motor.params, 0.002, substeps=200)
    b = plant_step(start, 2.0, f, motor.params, 0.002, substeps=400)
    assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)) < 1e-9


def test_passive_decay_with_zero_input(motor):
    f = FrictionModel(tau_s=0.003, tau_c=0.002, b=2.46e-6)
    state = np.array([0.0, 5.0, 0.0])
    norms = []
    for _ in range(1000):
        state = plant_step(state, 0.0, f, motor.params, 0.002)
        norms.append(float(np.linalg.norm(state)))
    # after the initial transient the norm never grows beyond the Coulomb
    # chatter resolution of the fixed-step integrator
    tail = np.array(norms[250:])
    assert np.all(np.diff(tail) <= 1e-8)
    assert tail[-1] <= tail[0] + 1e-6
    assert abs(state[1]) < 1e-3  # spun down


def test_substeps_must_be_positive(motor):
    f = FrictionModel()
    with pytest.raises(ParameterError):
        plant_step(np.zeros(3), 0.0, f, motor.params, 0.002, substeps=0)


STOCK_FRICTION = FrictionModel(tau_s=0.003, tau_c=0.002, b=2.46e-6)


def _rk4(state, u, f, params, substeps, tau_ext=0.0):
    return _plant_py.motor_rk4(
        *(float(v) for v in state), u, 0.002, substeps,
        params.Kt, params.Ke, params.Jeq, params.Lm, params.Rm,
        f.tau_s, f.tau_c, f.b, OMEGA_REST, tau_ext,
    )


def _no_fallback(*args):
    raise AssertionError("tick left the exact path")


@pytest.mark.parametrize(
    "state, u, f, tau_ext",
    [
        ([0.1, 3.0, -0.02], 2.0, FrictionModel(0.003, 0.002, 1.63e-4), 0.0),
        ([0.1, -3.0, 0.02], -2.0, FrictionModel(0.003, 0.002, 1.63e-4), 0.0),
        ([0.1, 3.0, -0.02], 2.0, FrictionModel(0.003, 0.0, 2.46e-6), 0.0),
        ([-0.2, -30.0, 0.3], 1.0, FrictionModel(0.003, 0.0, 2.46e-6), 1e-3),
        ([0.3, 0.0, 0.01], 0.3, STOCK_FRICTION, 0.0),
        ([0.3, 5e-7, 0.01], -0.2, STOCK_FRICTION, 1e-3),
    ],
    ids=["slip+coulomb", "slip-coulomb", "slip+viscous", "slip-viscous-load",
         "stuck", "stuck-creeping"],
)
def test_exact_ticks_match_converged_rk4(motor, monkeypatch, state, u, f, tau_ext):
    ref = np.array(_rk4(state, u, f, motor.params, 400, tau_ext=tau_ext))
    monkeypatch.setattr(plant, "motor_rk4", _no_fallback)
    got = plant_step(np.array(state), u, f, motor.params, 0.002, tau_ext=tau_ext)
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12)) < 1e-9


@pytest.mark.parametrize(
    "state, u, f",
    [
        ([0.0, 1.01e-6, 0.0], 0.0, FrictionModel(0.003, 0.0, 2.46e-6)),  # coasts into the band
        ([0.0, 0.0, 0.0], 5.0, STOCK_FRICTION),    # current builds past the stiction torque
        ([0.0, 0.0, 0.1], 1.0, STOCK_FRICTION),    # starts above the stiction torque
        ([0.0, 0.05, 0.0], -4.0, STOCK_FRICTION),  # reverses within the tick
    ],
    ids=["enter-band", "breakaway", "break-at-start", "cross-zero"],
)
@pytest.mark.parametrize("substeps", [50, 200])
def test_regime_changes_fall_back_to_rk4(motor, state, u, f, substeps):
    got = plant_step(np.array(state), u, f, motor.params, 0.002, substeps=substeps)
    assert tuple(got) == _rk4(state, u, f, motor.params, substeps)


def _slipping_omega(state, u, f, params, t):
    """omega(t) of the forward-slipping affine dynamics, by the exponential
    of the system augmented with its constant inputs."""
    M = np.zeros((5, 5))
    M[:3, :3] = build_continuous_model(params, f.b).A
    M[1, 3] = 1.0 / params.Jeq
    M[2, 4] = 1.0 / params.Lm
    return float((expm(M * t) @ np.r_[state, -f.tau_c, u])[1])


@pytest.mark.parametrize("omega0", [0.1457725, 0.12], ids=["graze-band", "reverse-and-back"])
def test_interior_dip_into_rest_band_falls_back(motor, omega0):
    # a negative current brakes the rotor while the voltage reverses it, so
    # omega dips to its minimum about 0.17 ms into the tick and ends fast;
    # both ends of the tick lie far outside the rest band
    state, u, p = [0.0, omega0, -1.0], 4.0, motor.params
    ends = [_slipping_omega(state, u, STOCK_FRICTION, p, t) for t in (0.0, 0.002)]
    dip = minimize_scalar(lambda t: _slipping_omega(state, u, STOCK_FRICTION, p, t),
                          bounds=(0.0, 0.002), method="bounded", options={"xatol": 1e-12})
    assert min(ends) > 0.1 and dip.fun < OMEGA_REST
    got = plant_step(np.array(state), u, STOCK_FRICTION, p, 0.002, substeps=50)
    assert tuple(got) == _rk4(state, u, STOCK_FRICTION, p, 50)


def test_oscillatory_modes_fall_back_to_rk4():
    # a large inductance makes the (omega, i) modes a complex pair
    p = MotorParams(Lm=1.0)
    state = [0.0, 3.0, 0.1]
    got = plant_step(np.array(state), 2.0, STOCK_FRICTION, p, 0.002, substeps=50)
    assert tuple(got) == _rk4(state, 2.0, STOCK_FRICTION, p, 50)
