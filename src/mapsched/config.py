"""Plain-text key/value configuration files.

Motor files use exactly the keys kt, ke, jr, jh, jd, lm, rm, b_m, b_min,
b_max, tau_s, tau_c, sample_time, discretization; missing keys fall back to
the stock parameter set. Scenario files share the same flat `key = value`
syntax (see harness.scenario_from_config for the scenario keys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ParameterError
from .motor import FrictionModel, MotorParams

MOTOR_DEFAULTS = {
    "kt": 0.042,
    "ke": 0.042,
    "jr": 4.0e-6,
    "jh": 0.6e-6,
    "jd": 1.6e-5,
    "lm": 1.16e-3,
    "rm": 8.4,
    "b_m": 1.0e-5,
    "b_min": 2.46e-6,
    "b_max": 1.63e-4,
    "tau_s": 0.003,
    "tau_c": 0.002,
    "sample_time": 0.002,
    "discretization": "euler",
}

MOTOR_KEYS = frozenset(MOTOR_DEFAULTS)


@dataclass(frozen=True)
class MotorConfig:
    """Motor parameters plus the friction range and design-time choices."""

    params: MotorParams
    b_min: float
    b_max: float
    tau_s: float
    tau_c: float
    sample_time: float
    discretization: str

    def __post_init__(self):
        if not (0.0 <= self.b_min < self.b_max):
            raise ParameterError("need 0 <= b_min < b_max")
        if self.discretization not in ("euler", "zoh"):
            raise ParameterError("discretization must be 'euler' or 'zoh'")
        if not self.sample_time > 0.0:
            raise ParameterError("sample_time must be positive")

    def friction(self, b: float, coulomb_on: bool = True) -> FrictionModel:
        return FrictionModel(
            tau_s=self.tau_s,
            tau_c=self.tau_c if coulomb_on else 0.0,
            b=b,
        )

    @property
    def vertex_rho(self) -> tuple:
        return (self.b_min, self.b_max)


def parse_kv_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    entries = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip().strip("\"'")
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _to_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
    return number


def motor_config_from_entries(entries: dict) -> MotorConfig:
    unknown = set(entries) - MOTOR_KEYS
    if unknown:
        raise ConfigError(f"unknown motor config keys: {sorted(unknown)}")
    merged = dict(MOTOR_DEFAULTS)
    merged.update(entries)
    values = {
        k: (_to_float(k, v) if k != "discretization" else str(v).lower())
        if isinstance(v, str)
        else v
        for k, v in merged.items()
    }
    params = MotorParams(
        Kt=values["kt"],
        Ke=values["ke"],
        Jr=values["jr"],
        Jh=values["jh"],
        Jd=values["jd"],
        Lm=values["lm"],
        Rm=values["rm"],
        b_m=values["b_m"],
    )
    return MotorConfig(
        params=params,
        b_min=values["b_min"],
        b_max=values["b_max"],
        tau_s=values["tau_s"],
        tau_c=values["tau_c"],
        sample_time=values["sample_time"],
        discretization=values["discretization"],
    )


def load_motor_config(path=None) -> MotorConfig:
    """Load a motor config file; with no path, return the stock configuration."""
    entries = parse_kv_file(path) if path is not None else {}
    return motor_config_from_entries(entries)
