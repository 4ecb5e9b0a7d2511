"""Scenario simulation harness.

Runs the nonlinear truth plant in closed loop with a chosen estimator
(single Kalman filter or IMM) and controller (fixed vertex gain or the
probability-scheduled gain), under a scheduled friction profile, and
computes tracking/estimation metrics. Runs are deterministic for a given
seed; measurement noise is the only random input by default.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import (
    MOTOR_KEYS,
    MotorConfig,
    _to_float,
    motor_config_from_entries,
    parse_kv_file,
)
from .control import LqrWeights, control_input, maps_gain, synthesize_vertex_gains
from .errors import ConfigError, ParameterError
from .estimation import (
    NoiseConfig,
    imm_step,
    initial_belief,
    initial_imm_state,
    kf_predict,
    kf_update,
)
from .motor import VertexSet, build_vertex_set
from .plant import default_substeps, plant_step

SCENARIO_KEYS = frozenset(
    {
        "reference", "amplitude", "frequency", "period", "duration",
        "sample_rate", "seed", "controller", "estimator", "v_limit",
        "friction", "load_start", "load_end", "toggle_start", "toggle_period",
        "ramp_time", "process_noise_std", "meas_noise_std", "substeps",
    }
)


@dataclass(frozen=True)
class FrictionSegment:
    start: float
    b: float
    coulomb_on: bool


@dataclass(frozen=True)
class FrictionSchedule:
    """Piecewise friction profile for the truth plant; segment values either
    switch instantly or ramp linearly over ramp_time."""

    segments: tuple
    interpolation: str = "step"
    ramp_time: float = 0.0

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ParameterError("friction schedule needs at least one segment")
        starts = [s.start for s in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ParameterError("friction segments must be time-sorted")
        if self.interpolation not in ("step", "ramp"):
            raise ParameterError("interpolation must be 'step' or 'ramp'")
        if self.interpolation == "ramp" and not self.ramp_time > 0.0:
            raise ParameterError("ramp interpolation needs ramp_time > 0")
        object.__setattr__(self, "segments", segs)

    def validate_range(self, b_max: float) -> None:
        for s in self.segments:
            if not (0.0 <= s.b <= 10.0 * b_max):
                raise ParameterError(
                    f"scheduled friction {s.b:.3e} outside [0, {10 * b_max:.3e}]"
                )

    def at(self, t: float) -> tuple[float, bool]:
        """Friction value and Coulomb flag active at time t."""
        idx = 0
        for i, seg in enumerate(self.segments):
            if seg.start <= t:
                idx = i
            else:
                break
        seg = self.segments[idx]
        if self.interpolation == "ramp" and idx > 0:
            lapsed = t - seg.start
            if lapsed < self.ramp_time:
                prev = self.segments[idx - 1]
                frac = lapsed / self.ramp_time
                return prev.b + frac * (seg.b - prev.b), seg.coulomb_on
        return seg.b, seg.coulomb_on


def constant_schedule(b: float, coulomb_on: bool = False) -> FrictionSchedule:
    return FrictionSchedule(segments=(FrictionSegment(0.0, b, coulomb_on),))


def load_window_schedule(b_low: float, b_high: float, start: float = 10.0,
                         end: float = 20.0, ramp_time: float = 0.0) -> FrictionSchedule:
    """No-load friction with a high-friction (loaded) window [start, end)."""
    if not 0.0 <= start < end:
        raise ParameterError("load window needs 0 <= start < end")
    segs = (
        FrictionSegment(0.0, b_low, False),
        FrictionSegment(start, b_high, True),
        FrictionSegment(end, b_low, False),
    )
    if ramp_time > 0.0:
        return FrictionSchedule(segments=segs, interpolation="ramp", ramp_time=ramp_time)
    return FrictionSchedule(segments=segs)


def toggle_schedule(b_low: float, b_high: float, first: float = 0.3,
                    period: float = 5.0, duration: float = 30.0,
                    coulomb_on_high: bool = False) -> FrictionSchedule:
    """Alternate b_low/b_high starting at `first` and every `period` after."""
    if not (first > 0.0 and period > 0.0):
        raise ParameterError("toggle schedule needs positive first switch and period")
    segs = [FrictionSegment(0.0, b_low, False)]
    t, high = first, True
    while t < duration:
        segs.append(FrictionSegment(t, b_high if high else b_low,
                                    coulomb_on_high and high))
        t += period
        high = not high
    return FrictionSchedule(segments=tuple(segs))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one run.

    controller "open" turns the run into an estimation bench: the reference
    signal is applied directly as a voltage command (amplitude in volts) and
    no state feedback acts, so every estimator variant sees identical data.
    """

    reference: str = "sine"          # "sine" | "step"
    amplitude: float = 2.0           # rad (volts under controller "open")
    frequency: float = 0.5           # Hz (sine)
    period: float = 10.0             # s (step square wave)
    duration: float = 30.0
    sample_rate: float = 500.0
    friction: FrictionSchedule = field(
        default_factory=lambda: constant_schedule(2.46e-6)
    )
    seed: int = 1
    controller: str = "maps"         # "maps" | "fixed:<vertex>" | "open"
    estimator: str = "imm"           # "imm" | "kf:<model>"
    v_limit: float = 4.0
    process_noise_std: float = 0.0   # torque disturbance, default off
    meas_noise_std: float | None = None  # None -> sqrt(R) of the filter config
    substeps: int | None = None

    def __post_init__(self):
        if self.reference not in ("sine", "step"):
            raise ConfigError(f"unknown reference kind {self.reference!r}")
        if not self.duration > 0.0:
            raise ConfigError("duration must be positive")
        if not self.sample_rate > 0.0:
            raise ConfigError("sample_rate must be positive")
        if not 0.0 < self.amplitude <= 100.0:
            raise ConfigError("reference amplitude must be in (0, 100] rad")
        if self.reference == "sine" and not self.frequency > 0.0:
            raise ConfigError("sine frequency must be positive")
        if self.reference == "step" and not self.period > 0.0:
            raise ConfigError("step period must be positive")
        if not self.v_limit > 0.0:
            raise ConfigError("v_limit must be positive")
        _parse_choice(self.controller, "controller", ("maps", "fixed", "open"))
        _parse_choice(self.estimator, "estimator", ("imm", "kf"))

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration * self.sample_rate))

    @property
    def tick(self) -> float:
        return 1.0 / self.sample_rate

    def reference_state(self, t: float) -> np.ndarray:
        """Full-state reference: position signal, its analytic derivative,
        zero current."""
        if self.reference == "sine":
            w = 2.0 * math.pi * self.frequency
            return np.array(
                [self.amplitude * math.sin(w * t), self.amplitude * w * math.cos(w * t), 0.0]
            )
        phase = math.fmod(t, self.period)
        level = self.amplitude if phase < 0.5 * self.period else -self.amplitude
        return np.array([level, 0.0, 0.0])


def _parse_choice(text: str, what: str, allowed) -> tuple[str, int]:
    kind, _, idx = text.partition(":")
    if kind not in allowed:
        raise ConfigError(f"unknown {what} {text!r}")
    if kind in ("fixed", "kf"):
        if not idx:
            idx = "0"
        try:
            return kind, int(idx)
        except ValueError:
            raise ConfigError(f"{what} index must be an integer, got {text!r}") from None
    if idx:
        raise ConfigError(f"{what} {kind!r} takes no index")
    return kind, 0


def _clamp(value: float, limit: float) -> tuple[float, bool]:
    if value > limit:
        return limit, True
    if value < -limit:
        return -limit, True
    return value, False


@dataclass
class RunRecord:
    """Logged closed-loop run; all series share length n_ticks."""

    spec: ScenarioSpec
    time: np.ndarray
    z: np.ndarray
    truth: np.ndarray       # (N, 3)
    estimate: np.ndarray    # (N, 3)
    mu: np.ndarray          # (N, Nv)
    rho_hat: np.ndarray
    gain: np.ndarray        # (N, 3)
    u: np.ndarray
    reference: np.ndarray   # (N, 3)
    b_true: np.ndarray
    saturation_count: int


@dataclass(frozen=True)
class MetricsReport:
    """Tracking metrics on one channel plus per-state estimation RMSE."""

    channel: str
    rmse: float
    mae: float
    iae: float
    est_rmse: np.ndarray    # (theta, omega, current)

    def as_dict(self) -> dict:
        return {
            "channel": self.channel,
            "rmse": self.rmse,
            "mae": self.mae,
            "iae": self.iae,
            "estimation_rmse": {
                "theta": float(self.est_rmse[0]),
                "omega": float(self.est_rmse[1]),
                "current": float(self.est_rmse[2]),
            },
        }


def run_scenario(spec: ScenarioSpec, motor: MotorConfig, vertices: VertexSet,
                 weights: LqrWeights | None = None,
                 noise: NoiseConfig | None = None) -> RunRecord:
    """Simulate one closed-loop run of the spec against the truth plant."""
    noise = noise if noise is not None else NoiseConfig.default()
    weights = weights if weights is not None else LqrWeights.default()
    if vertices.K_vertices is None:
        vertices = synthesize_vertex_gains(vertices, vertices.Gamma, weights)
    T = spec.tick
    if abs(T - vertices.T) > 1e-12:
        raise ConfigError(
            f"scenario tick {T} does not match the design sample time {vertices.T}"
        )
    spec.friction.validate_range(motor.b_max)

    models = vertices.models()
    nv = vertices.n_vertices
    est_kind, est_idx = _parse_choice(spec.estimator, "estimator", ("imm", "kf"))
    ctl_kind, ctl_idx = _parse_choice(spec.controller, "controller", ("maps", "fixed", "open"))
    if est_kind == "kf" and not 0 <= est_idx < nv:
        raise ConfigError(f"kf model index {est_idx} out of range")
    if ctl_kind == "fixed" and not 0 <= ctl_idx < nv:
        raise ConfigError(f"fixed gain index {ctl_idx} out of range")

    if est_kind == "imm":
        imm_state = initial_imm_state(models, vertices.rho)
    else:
        belief = initial_belief()

    n = spec.n_ticks
    rec = RunRecord(
        spec=spec,
        time=np.empty(n),
        z=np.empty(n),
        truth=np.empty((n, 3)),
        estimate=np.empty((n, 3)),
        mu=np.empty((n, nv)),
        rho_hat=np.empty(n),
        gain=np.empty((n, 3)),
        u=np.empty(n),
        reference=np.empty((n, 3)),
        b_true=np.empty(n),
        saturation_count=0,
    )

    rng = np.random.default_rng(spec.seed)
    meas_std = (
        spec.meas_noise_std
        if spec.meas_noise_std is not None
        else math.sqrt(float(noise.R[0, 0]))
    )
    substeps = spec.substeps if spec.substeps is not None else default_substeps(T)
    truth = np.zeros(3)
    u_prev = 0.0
    saturations = 0

    for k in range(n):
        t = k * T
        z = truth[0] + meas_std * rng.standard_normal()
        tau_dist = (
            spec.process_noise_std * rng.standard_normal()
            if spec.process_noise_std > 0.0
            else 0.0
        )

        if est_kind == "imm":
            imm_state, out = imm_step(imm_state, u_prev, z, noise)
            x_hat = out.fused.mean
            mu = out.mu
            rho_hat = out.rho_hat
        else:
            belief = kf_predict(belief, models[est_idx], u_prev, noise.Q)
            belief, _, _ = kf_update(belief, models[est_idx], z, noise.R)
            x_hat = belief.mean
            mu = np.zeros(nv)
            mu[est_idx] = 1.0
            rho_hat = vertices.rho[est_idx]

        ref = spec.reference_state(t)
        if ctl_kind == "open":
            K = np.zeros(3)
            u, saturated = _clamp(ref[0], spec.v_limit)
        else:
            K = maps_gain(mu, vertices) if ctl_kind == "maps" else vertices.K_vertices[ctl_idx]
            u, saturated = control_input(K, ref, x_hat, spec.v_limit)
        saturations += saturated

        rec.time[k] = t
        rec.z[k] = z
        rec.truth[k] = truth
        rec.estimate[k] = x_hat
        rec.mu[k] = mu
        rec.rho_hat[k] = rho_hat
        rec.gain[k] = np.asarray(K).reshape(-1)
        rec.u[k] = u
        rec.reference[k] = ref
        b_t, coulomb_on = spec.friction.at(t)
        rec.b_true[k] = b_t
        truth = plant_step(
            truth, u, motor.friction(b_t, coulomb_on), motor.params, T,
            substeps=substeps, tau_ext=tau_dist,
        )
        u_prev = u

    rec.saturation_count = saturations
    return rec


def compute_metrics(record: RunRecord, channel: str = "tracking") -> MetricsReport:
    """RMSE / MAE / IAE on the chosen error channel plus per-state
    estimation RMSE (truth minus fused estimate)."""
    if record.time.size == 0:
        raise ParameterError("cannot compute metrics on an empty run")
    if channel == "tracking":
        err = record.reference[:, 0] - record.truth[:, 0]
    elif channel in ("theta", "omega", "current"):
        idx = ("theta", "omega", "current").index(channel)
        err = record.truth[:, idx] - record.estimate[:, idx]
    else:
        raise ParameterError(f"unknown metrics channel {channel!r}")
    T = record.spec.tick
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    iae = float(np.sum(np.abs(err)) * T)
    est_err = record.truth - record.estimate
    est_rmse = np.sqrt(np.mean(est_err**2, axis=0))
    return MetricsReport(channel=channel, rmse=rmse, mae=mae, iae=iae, est_rmse=est_rmse)


@dataclass(frozen=True)
class Comparison:
    names: tuple
    metrics: tuple          # MetricsReport per variant
    records: tuple

    def delta_percent(self, attr: str, i: int = 1, base: int = 0) -> float:
        """Percent change of metric `attr` of variant i relative to `base`."""
        ref = getattr(self.metrics[base], attr)
        val = getattr(self.metrics[i], attr)
        return 100.0 * (val - ref) / ref

    def to_text(self) -> str:
        rows = [f"{'metric':<14}" + "".join(f"{n:>14}" for n in self.names) + f"{'delta%':>10}"]
        for attr in ("rmse", "mae", "iae"):
            cells = "".join(f"{getattr(m, attr):>14.6f}" for m in self.metrics)
            delta = self.delta_percent(attr) if len(self.metrics) > 1 else 0.0
            rows.append(f"{attr:<14}{cells}{delta:>10.2f}")
        for j, state in enumerate(("theta", "omega", "current")):
            cells = "".join(f"{float(m.est_rmse[j]):>14.6f}" for m in self.metrics)
            if len(self.metrics) > 1:
                ref = float(self.metrics[0].est_rmse[j])
                delta = 100.0 * (float(self.metrics[1].est_rmse[j]) - ref) / ref if ref else 0.0
            else:
                delta = 0.0
            rows.append(f"est_rmse_{state:<5}{cells}{delta:>10.2f}")
        return "\n".join(rows)

    def to_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", *self.names, "delta_percent"])
            for attr in ("rmse", "mae", "iae"):
                vals = [getattr(m, attr) for m in self.metrics]
                delta = self.delta_percent(attr) if len(vals) > 1 else 0.0
                writer.writerow([attr, *[repr(v) for v in vals], repr(delta)])
            for j, state in enumerate(("theta", "omega", "current")):
                vals = [float(m.est_rmse[j]) for m in self.metrics]
                ref = vals[0]
                delta = 100.0 * (vals[1] - ref) / ref if len(vals) > 1 and ref else 0.0
                writer.writerow([f"est_rmse_{state}", *[repr(v) for v in vals], repr(delta)])


def compare_runs(spec: ScenarioSpec, variants, motor: MotorConfig,
                 vertices: VertexSet, weights: LqrWeights | None = None,
                 noise: NoiseConfig | None = None,
                 channel: str = "tracking") -> Comparison:
    """Run named (controller, estimator) variants of the same scenario with a
    shared seed and friction schedule and tabulate their metrics."""
    names, metrics, records = [], [], []
    for name, controller, estimator in variants:
        vspec = replace(spec, controller=controller, estimator=estimator)
        if vspec.duration != spec.duration:
            raise ConfigError("variant durations must match")
        rec = run_scenario(vspec, motor, vertices, weights=weights, noise=noise)
        names.append(name)
        records.append(rec)
        metrics.append(compute_metrics(rec, channel=channel))
    return Comparison(names=tuple(names), metrics=tuple(metrics), records=tuple(records))


TRACE_HEADER = [
    "time", "z",
    "theta_true", "omega_true", "current_true",
    "theta_est", "omega_est", "current_est",
]


def write_trace_csv(path, record: RunRecord) -> None:
    """One row per tick with every logged signal; floats use shortest
    round-trip formatting so identical runs write identical bytes."""
    nv = record.mu.shape[1]
    header = (
        TRACE_HEADER
        + [f"mu_{j + 1}" for j in range(nv)]
        + ["rho_hat", "k_theta", "k_omega", "k_current", "u",
           "theta_ref", "omega_ref", "current_ref"]
    )
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(record.time.size):
            row = [
                record.time[k], record.z[k],
                *record.truth[k], *record.estimate[k],
                *record.mu[k], record.rho_hat[k],
                *record.gain[k], record.u[k], *record.reference[k],
            ]
            writer.writerow([repr(float(v)) for v in row])


def write_plot_csv(path, record: RunRecord) -> None:
    """Reduced per-tick table for plotting tools."""
    nv = record.mu.shape[1]
    header = (
        ["time", "theta_ref", "theta_true", "theta_est", "tracking_error"]
        + [f"mu_{j + 1}" for j in range(nv)]
        + ["rho_hat", "b_true", "u"]
    )
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(record.time.size):
            row = [
                record.time[k], record.reference[k, 0], record.truth[k, 0],
                record.estimate[k, 0],
                record.reference[k, 0] - record.truth[k, 0],
                *record.mu[k], record.rho_hat[k], record.b_true[k], record.u[k],
            ]
            writer.writerow([repr(float(v)) for v in row])


def write_metrics_json(path, record: RunRecord, metrics: MetricsReport) -> None:
    payload = metrics.as_dict()
    payload.update(
        {
            "seed": record.spec.seed,
            "controller": record.spec.controller,
            "estimator": record.spec.estimator,
            "duration": record.spec.duration,
            "sample_rate": record.spec.sample_rate,
            "saturation_count": record.saturation_count,
        }
    )
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def scenario_from_entries(entries: dict, motor: MotorConfig) -> ScenarioSpec:
    """Build a ScenarioSpec from flat key/value entries (strings)."""
    unknown = set(entries) - SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")

    def fget(key, default):
        return _to_float(key, entries[key]) if key in entries else default

    seed = entries.get("seed", "1")
    env_seed = os.environ.get("MAPS_SEED")
    if env_seed is not None:
        seed = env_seed
    try:
        seed = int(seed)
    except ValueError:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None

    kind = entries.get("friction", "constant")
    duration = fget("duration", 30.0)
    ramp_time = fget("ramp_time", 0.0)
    if kind == "constant":
        schedule = constant_schedule(motor.b_min)
    elif kind == "window":
        schedule = load_window_schedule(
            motor.b_min, motor.b_max,
            start=fget("load_start", 10.0), end=fget("load_end", 20.0),
            ramp_time=ramp_time,
        )
    elif kind == "toggle":
        schedule = toggle_schedule(
            motor.b_min, motor.b_max,
            first=fget("toggle_start", 0.3), period=fget("toggle_period", 5.0),
            duration=duration,
        )
    else:
        raise ConfigError(f"unknown friction schedule {kind!r}")

    substeps = entries.get("substeps")
    if substeps is not None:
        try:
            substeps = int(substeps)
        except ValueError:
            raise ConfigError("substeps must be an integer") from None
    meas_noise_std = fget("meas_noise_std", -1.0)

    return ScenarioSpec(
        reference=entries.get("reference", "sine"),
        amplitude=fget("amplitude", 2.0),
        frequency=fget("frequency", 0.5),
        period=fget("period", 10.0),
        duration=duration,
        sample_rate=fget("sample_rate", 1.0 / motor.sample_time),
        friction=schedule,
        seed=seed,
        controller=entries.get("controller", "maps"),
        estimator=entries.get("estimator", "imm"),
        v_limit=fget("v_limit", 4.0),
        process_noise_std=fget("process_noise_std", 0.0),
        meas_noise_std=meas_noise_std if meas_noise_std >= 0.0 else None,
        substeps=substeps,
    )


def load_scenario(path) -> tuple[ScenarioSpec, MotorConfig]:
    """Load a scenario config file; motor keys may appear inline alongside
    the scenario keys in the same flat key/value namespace."""
    entries = parse_kv_file(path)
    motor_entries = {k: v for k, v in entries.items() if k in MOTOR_KEYS}
    scenario_entries = {k: v for k, v in entries.items() if k not in MOTOR_KEYS}
    motor = motor_config_from_entries(motor_entries)
    return scenario_from_entries(scenario_entries, motor), motor


def design_from_motor(motor: MotorConfig, weights: LqrWeights | None = None) -> VertexSet:
    """Vertex models at (b_min, b_max) under the configured discretization,
    with LQR gains synthesized."""
    weights = weights if weights is not None else LqrWeights.default()
    vertices = build_vertex_set(
        motor.params, motor.vertex_rho, motor.sample_time, mode=motor.discretization
    )
    return synthesize_vertex_gains(vertices, vertices.Gamma, weights)
