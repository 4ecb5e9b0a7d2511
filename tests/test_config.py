import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapsched.config import (
    B_RANGE,
    MOTOR_DEFAULTS,
    MOTOR_KEYS,
    MotorConfig,
    load_motor_config,
    motor_config_from_entries,
)
from mapsched.errors import ConfigError, ParameterError
from mapsched.harness import MAX_TICKS, SCENARIO_KEYS, scenario_from_entries
from mapsched.motor import DISCRETIZERS, build_vertex_set
from mapsched.plant import TickMap


def test_defaults_without_file():
    cfg = load_motor_config()
    assert cfg.Kt == 0.042
    assert cfg.Ke == 0.042
    assert cfg.Lm == pytest.approx(1.16e-3)
    assert cfg.Rm == 8.4
    assert cfg.Jeq == pytest.approx(2.06e-5)
    assert cfg.b_min == pytest.approx(2.46e-6)
    assert cfg.b_max == pytest.approx(1.63e-4)
    assert cfg.sample_time == 0.002
    assert cfg.discretization == "zoh"


def test_file_overrides_and_fallbacks(tmp_path):
    path = tmp_path / "motor.cfg"
    path.write_text(
        "# overrides\n"
        "b_m = 2.0e-5\n"
        "discretization = euler\n"
        "tau_s = 0.004  # inline comment\n"
    )
    cfg = load_motor_config(path)
    assert cfg.b_m == 2.0e-5
    assert cfg.discretization == "euler"
    assert cfg.tau_s == 0.004
    # untouched keys fall back
    assert cfg.Rm == MOTOR_DEFAULTS["rm"]


# the MotorConfig field each motor key sets, written out
FIELD_OF_KEY = {"kt": "Kt", "ke": "Ke", "jr": "Jr", "jh": "Jh", "jd": "Jd", "lm": "Lm",
                "rm": "Rm"}


@pytest.mark.parametrize("key", sorted(MOTOR_KEYS))
def test_each_motor_key_sets_its_own_field(tmp_path, key):
    # a valid value that no stock key holds changes the key's field alone
    # (and Jeq, the sum of the inertias); the stock kt and ke are equal, so
    # only a value of its own tells the two apart
    stock = load_motor_config()
    value = "euler" if key == "discretization" else 1.25 * MOTOR_DEFAULTS[key]
    assert value not in MOTOR_DEFAULTS.values()
    path = tmp_path / "motor.cfg"
    path.write_text(f"{key} = {value}\n")
    got = load_motor_config(path)
    name = FIELD_OF_KEY.get(key, key)
    assert getattr(got, name) == value
    changed = {f.name for f in dataclasses.fields(MotorConfig)
               if getattr(got, f.name) != getattr(stock, f.name)}
    assert changed == ({name, "Jeq"} if key in ("jr", "jh", "jd") else {name})


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "motor.cfg"
    path.write_text("kq = 1.0\n")
    with pytest.raises(ConfigError):
        load_motor_config(path)


def test_scenario_keys_are_the_spec_fields_and_the_kind_keys():
    # SCENARIO_KEYS is derived from ScenarioSpec and KIND_KEYS; a scenario
    # file keeps accepting exactly these keys
    assert SCENARIO_KEYS == {
        "reference", "amplitude", "frequency", "period", "duration",
        "seed", "controller", "estimator", "v_limit",
        "friction", "load_start", "load_end", "toggle_start", "toggle_period",
        "ramp_time", "process_noise_std", "meas_noise_std",
    }


def test_bad_discretization_rejected(tmp_path):
    path = tmp_path / "motor.cfg"
    path.write_text("discretization = tustin\n")
    with pytest.raises(ParameterError):
        load_motor_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "motor.cfg"
    path.write_text("kt = 0.042\nkt = 0.05\n")
    with pytest.raises(ConfigError):
        load_motor_config(path)


def test_non_numeric_value_rejected(tmp_path):
    path = tmp_path / "motor.cfg"
    path.write_text("kt = fast\n")
    with pytest.raises(ConfigError):
        load_motor_config(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_value_rejected(tmp_path, value):
    path = tmp_path / "motor.cfg"
    path.write_text(f"kt = {value}\n")
    with pytest.raises(ConfigError, match="finite"):
        load_motor_config(path)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "motor.cfg"
    path.write_bytes(b"kt = \xff\xfe\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_motor_config(path)


def test_friction_helper_toggles_coulomb():
    cfg = load_motor_config()
    on = cfg.friction(cfg.b_max, coulomb_on=True)
    off = cfg.friction(cfg.b_min, coulomb_on=False)
    assert on.tau_c == cfg.tau_c and on.b == cfg.b_max
    assert off.tau_c == 0.0 and off.b == cfg.b_min


WORDS = ("sine", "step", "maps", "open", "fixed", "fixed:1", "fixed:x", "kf:0", "kf:9",
         "imm", "imm:1", "constant", "window", "toggle", "zoh", "euler", "ZOH", "")
VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.floats(min_value=-30.0, max_value=30.0).map(lambda e: f"1e{e:.0f}"),
    st.sampled_from(WORDS),
    st.text(min_size=1),
)


@given(entries=st.dictionaries(st.sampled_from(sorted(SCENARIO_KEYS | MOTOR_KEYS | {"bogus"})),
                               VALUES, max_size=12))
@example(entries={"lm": "1e0"})       # complex (omega, i) modes at every b
@example(entries={"b_max": "2e-2"})   # complex modes for b in (0.138, 0.160)
@example(entries={"lm": "3.35062960497086e-257"})  # (R/L)^2 overflows a float
@example(entries={"b_m": "0.15"})     # complex modes at b_m, past 10 b_max
@example(entries={"b_m": "0.139", "b_max": "1e-5"})
@example(entries={"kt": "5e-324"})   # Kt Ke underflows: no slow mode at b = 0
@example(entries={"process_noise_std": "-1"})
@example(entries={"meas_noise_std": "-0.5"})
@settings(max_examples=300, deadline=None)
def test_fuzzed_entries_are_refused_or_bounded(entries):
    # every scenario + motor input either fails as a ConfigError or asks for
    # bounded work (ticks and a seed the generator accepts) of a motor whose
    # (omega, i) modes are real and distinct over the scheduled friction range
    # and at b_m, with noise of a non-negative spread
    try:
        motor = motor_config_from_entries({k: v for k, v in entries.items() if k in MOTOR_KEYS})
    except ConfigError:
        return
    # no consumer of the modes refuses a motor the config accepted: the
    # truth plant at both ends of the scheduled range, with Coulomb friction
    # off and on, and each discretization, which may still find its model
    # out of float range at an extreme sample time
    for b in (0.0, B_RANGE * motor.b_max):
        for coulomb_on in (False, True):
            TickMap(motor, motor.friction(b, coulomb_on), motor.sample_time)
    for mode in DISCRETIZERS:
        try:
            build_vertex_set(dataclasses.replace(motor, discretization=mode))
        except ParameterError as exc:
            assert f"{mode} discrete model at T = " in str(exc) and "is not finite" in str(exc)
    try:
        spec = scenario_from_entries(
            {k: v for k, v in entries.items() if k not in MOTOR_KEYS}, motor)
    except ConfigError:
        return
    assert 1 <= spec.n_ticks <= MAX_TICKS
    for b in (0.0, B_RANGE * motor.b_max):
        assert ((b / motor.Jeq - motor.Rm / motor.Lm) ** 2
                > 4.0 * motor.Kt * motor.Ke / (motor.Jeq * motor.Lm))
    assert B_RANGE * motor.b_max / motor.Jeq < motor.Rm / motor.Lm
    assert ((motor.b_m / motor.Jeq - motor.Rm / motor.Lm) ** 2
            > 4.0 * motor.Kt * motor.Ke / (motor.Jeq * motor.Lm))
    assert spec.process_noise_std >= 0.0
    assert spec.meas_noise_std >= 0.0
    np.random.default_rng(spec.seed)
