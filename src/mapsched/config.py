"""The motor and its plain-text key/value configuration files.

`MotorConfig` is the one motor value: its physical constants, the friction
range [b_min, b_max] the design schedules over, the friction torques, the
sample time and the discretization. The design, the truth plant and the
identification all read it. Motor files use exactly the keys kt, ke, jr,
jh, jd, lm, rm, b_m, b_min, b_max, tau_s, tau_c, sample_time,
discretization, each the lower-case name of its `MotorConfig` field;
missing keys fall back to MOTOR_DEFAULTS, the one table of the stock motor.
The stock motor designs by ZOH, the discretization the accuracy gates run
and certify; forward Euler is there only when a file names it.
Scenario files share the same flat `key = value` syntax (see
harness.scenario_from_entries for the scenario keys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, ParameterError
from .motor import DISCRETIZERS, FrictionModel

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
    "discretization": "zoh",
}

MOTOR_KEYS = frozenset(MOTOR_DEFAULTS)

# scheduled viscous coefficients may range over [0, B_RANGE * b_max]
B_RANGE = 10.0


@dataclass(frozen=True)
class MotorConfig:
    """One motor: its physical constants (inertias in kg*m^2, Lm in H, Rm in
    ohm), the friction range and torques, and the design-time choices."""

    Kt: float        # torque constant, N*m/A
    Ke: float        # back-EMF constant, V*s/rad
    Jr: float        # rotor inertia
    Jh: float        # hub inertia
    Jd: float        # disc inertia
    Lm: float        # inductance
    Rm: float        # resistance
    b_m: float       # nominal viscous coefficient, N*m*s/rad
    b_min: float
    b_max: float
    tau_s: float
    tau_c: float
    sample_time: float
    discretization: str
    Jeq: float = field(init=False)

    def __post_init__(self):
        for name in ("Kt", "Ke", "Jr", "Jh", "Jd", "Lm", "Rm", "b_m"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"motor parameter {name} must be strictly positive")
        object.__setattr__(self, "Jeq", self.Jr + self.Jh + self.Jd)
        if not (0.0 <= self.b_min < self.b_max):
            raise ParameterError("need 0 <= b_min < b_max")
        if self.discretization not in DISCRETIZERS:
            raise ParameterError("discretization must be " + " or ".join(map(repr, DISCRETIZERS)))
        if not self.sample_time > 0.0:
            raise ParameterError("sample_time must be positive")
        # every schedule's friction holds these torques, with the Coulomb one
        # switched off or on; the friction model checks them here, before
        # any design or tick runs
        self.friction(self.b_min, True)
        # the truth plant solves the slipping dynamics over their two real
        # (omega, i) modes; their discriminant (b/J - R/L)^2 - 4 Kt Ke/(J L)
        # is positive over every b in [0, B_RANGE b_max] iff the interval of
        # b/J - R/L lies below -2 sqrt(Kt Ke/(J L))
        if not B_RANGE * self.b_max / self.Jeq - self.Rm / self.Lm < -2.0 * math.sqrt(
                self.Kt * self.Ke / self.Jeq / self.Lm):
            raise ParameterError(
                "the motor's (omega, i) modes are not real and distinct for every "
                f"viscous coefficient in [0, {B_RANGE * self.b_max:.3e}]"
            )
        # the ZOH design takes Gamma at b_m, through the same modes, which
        # may lie past that range: its discriminant, as zoh_discretize forms
        # it, must be positive too
        gap = self.Rm / self.Lm - self.b_m / self.Jeq
        if not gap * gap - 4.0 * (self.Kt / self.Jeq) * (self.Ke / self.Lm) > 0.0:
            raise ParameterError(
                "the motor's (omega, i) modes are not real and distinct at the nominal "
                f"viscous coefficient b_m = {self.b_m:.3e}"
            )
        # the plant forms that discriminant as tr^2 - 4 det, largest at the
        # ends of the range; a motor whose terms overflow or divide by an
        # underflowed J L has no float modes to solve over
        for b in (0.0, B_RANGE * self.b_max, self.b_m):
            tr = b / self.Jeq + self.Rm / self.Lm
            jl = self.Jeq * self.Lm
            if not (jl > 0.0
                    and math.isfinite(tr * tr - 4.0 * (b * self.Rm + self.Kt * self.Ke) / jl)):
                raise ParameterError(
                    f"the motor's (omega, i) modes at b = {b:.3e} are out of float range"
                )

    def friction(self, b: float, coulomb_on: bool) -> FrictionModel:
        return FrictionModel(
            tau_s=self.tau_s,
            tau_c=self.tau_c if coulomb_on else 0.0,
            b=b,
        )


def read_text_file(path) -> str:
    """A file's contents, which must be UTF-8 text."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_kv_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    entries = {}
    text = read_text_file(path)
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
    # each key is its field's name in lower case
    return MotorConfig(**{f.name: values[f.name.lower()] for f in fields(MotorConfig) if f.init})


def load_motor_config(path=None) -> MotorConfig:
    """Load a motor config file; with no path, return the stock configuration."""
    entries = parse_kv_file(path) if path is not None else {}
    return motor_config_from_entries(entries)
