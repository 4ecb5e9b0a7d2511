import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapsched.config import (
    MOTOR_DEFAULTS,
    MOTOR_KEYS,
    load_motor_config,
    motor_config_from_entries,
)
from mapsched.errors import ConfigError, ParameterError
from mapsched.harness import MAX_SUBSTEPS, MAX_TICKS, SCENARIO_KEYS, scenario_from_entries


def test_defaults_without_file():
    cfg = load_motor_config()
    assert cfg.params.Kt == 0.042
    assert cfg.params.Ke == 0.042
    assert cfg.params.Lm == pytest.approx(1.16e-3)
    assert cfg.params.Rm == 8.4
    assert cfg.params.Jeq == pytest.approx(2.06e-5)
    assert cfg.b_min == pytest.approx(2.46e-6)
    assert cfg.b_max == pytest.approx(1.63e-4)
    assert cfg.sample_time == 0.002
    assert cfg.discretization == "euler"


def test_file_overrides_and_fallbacks(tmp_path):
    path = tmp_path / "motor.cfg"
    path.write_text(
        "# overrides\n"
        "b_m = 2.0e-5\n"
        "discretization = zoh\n"
        "tau_s = 0.004  # inline comment\n"
    )
    cfg = load_motor_config(path)
    assert cfg.params.b_m == 2.0e-5
    assert cfg.discretization == "zoh"
    assert cfg.tau_s == 0.004
    # untouched keys fall back
    assert cfg.params.Rm == MOTOR_DEFAULTS["rm"]


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "motor.cfg"
    path.write_text("kq = 1.0\n")
    with pytest.raises(ConfigError):
        load_motor_config(path)


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
@settings(max_examples=300, deadline=None)
def test_fuzzed_entries_are_refused_or_bounded(entries):
    # every scenario + motor input either fails as a ConfigError or asks for
    # bounded work: ticks, RK4 substeps and a seed the generator accepts
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("MAPS_SEED", raising=False)
            motor = motor_config_from_entries(
                {k: v for k, v in entries.items() if k in MOTOR_KEYS})
            spec = scenario_from_entries(
                {k: v for k, v in entries.items() if k not in MOTOR_KEYS}, motor)
    except ConfigError:
        return
    assert 1 <= spec.n_ticks <= MAX_TICKS
    assert 1 <= spec.n_substeps <= MAX_SUBSTEPS
    np.random.default_rng(spec.seed)
