"""Viscous-coefficient identification from steady-state voltage/velocity data.

At steady state the motor obeys V = (Rm*b/Kt + Ke) * omega, so the slope of
an origin-constrained regression of voltage on velocity yields b directly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .config import MotorConfig, read_text_file
from .errors import ConfigError, ParameterError


@dataclass(frozen=True)
class SteadyStateSample:
    """One steady-state operating point: applied voltage and settled velocity."""

    voltage: float
    velocity: float

    def __post_init__(self):
        if not (np.isfinite(self.voltage) and np.isfinite(self.velocity)):
            raise ParameterError(
                f"steady-state samples must be finite (got V={self.voltage}, "
                f"omega={self.velocity})"
            )
        if self.velocity != 0.0 and self.voltage * self.velocity < 0.0:
            raise ParameterError(
                "steady-state voltage and velocity must share a sign "
                f"(got V={self.voltage}, omega={self.velocity})"
            )


@dataclass(frozen=True)
class IdentResult:
    slope: float            # V*s/rad
    viscous_coeff: float    # N*m*s/rad
    residual_rms: float     # V
    warning: str | None = None


def regress_slope(samples) -> tuple[float, float]:
    """Least-squares slope of V = mu * omega through the origin.

    Returns (mu, residual_rms). Requires at least two samples with distinct
    velocities; all-zero velocities are degenerate. Samples whose sums
    overflow or underflow float64 are refused, as their slope or residual
    is not finite.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ParameterError("need at least 2 steady-state samples")
    omega = np.array([s.velocity for s in samples])
    volts = np.array([s.voltage for s in samples])
    if np.all(omega == 0.0):
        raise ParameterError("all velocities are zero; slope is undefined")
    if np.unique(omega).size < 2:
        raise ParameterError("need at least two distinct velocities")
    with np.errstate(all="ignore"):
        mu = float(np.dot(volts, omega) / np.dot(omega, omega))
        residual_rms = float(np.sqrt(np.mean((volts - mu * omega) ** 2)))
    if not (np.isfinite(mu) and np.isfinite(residual_rms)):
        raise ParameterError(
            f"slope {mu} or residual {residual_rms} is not finite: the samples' "
            "squared sums are out of float range"
        )
    return mu, residual_rms


def viscous_from_slope(motor: MotorConfig, mu: float) -> float:
    """b = (Kt/Rm) * (mu - Ke); may be negative, the caller decides what to do."""
    return motor.Kt / motor.Rm * (mu - motor.Ke)


def identify(motor: MotorConfig, samples) -> IdentResult:
    """Full identification: regress the slope, convert to b, flag b <= 0."""
    mu, residual_rms = regress_slope(samples)
    b = viscous_from_slope(motor, mu)
    warning = None
    if b <= 0.0:
        warning = (
            f"identified viscous coefficient is non-positive ({b:.4e}); "
            "slope does not exceed the back-EMF constant"
        )
    return IdentResult(slope=mu, viscous_coeff=b, residual_rms=residual_rms, warning=warning)


def read_samples_csv(path) -> list[SteadyStateSample]:
    """Read (voltage, velocity) rows from a two-column CSV; header optional."""
    rows = []
    for i, row in enumerate(csv.reader(io.StringIO(read_text_file(path), newline=""))):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ConfigError(f"{path}: row {i + 1} needs two columns (voltage, velocity)")
        try:
            v, w = float(row[0]), float(row[1])
        except ValueError:
            if i == 0:
                continue  # header row
            raise ConfigError(f"{path}: row {i + 1} is not numeric") from None
        rows.append(SteadyStateSample(voltage=v, velocity=w))
    if not rows:
        raise ConfigError(f"{path}: no samples found")
    return rows
