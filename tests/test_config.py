import pytest

from mapsched.config import MOTOR_DEFAULTS, load_motor_config
from mapsched.errors import ConfigError, ParameterError


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


def test_friction_helper_toggles_coulomb():
    cfg = load_motor_config()
    on = cfg.friction(cfg.b_max, coulomb_on=True)
    off = cfg.friction(cfg.b_min, coulomb_on=False)
    assert on.tau_c == cfg.tau_c and on.b == cfg.b_max
    assert off.tau_c == 0.0 and off.b == cfg.b_min
