"""Scenario simulation harness.

Runs the nonlinear truth plant in closed loop with a chosen estimator
(single Kalman filter or IMM) and controller (fixed vertex gain, the
probability-scheduled gain, or open-loop drive), under a scheduled friction
profile, and computes tracking/estimation metrics. Every variant runs the
same loop on plain floats. The truth plant is solved exactly, friction
events included (`plant.plant_step`), so a scenario has no integration
setting. Runs are deterministic for a given seed; measurement noise is the
only random input by default.
"""

from __future__ import annotations

import csv
import json
import math
import os
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

import numpy as np

from .config import (
    B_RANGE,
    MOTOR_KEYS,
    MotorConfig,
    _to_float,
    motor_config_from_entries,
    parse_kv_file,
)
from .control import LqrWeights, control_input, maps_gain, synthesize_vertex_gains
from .errors import ConfigError, ParameterError
from .estimation import FilterBank, NoiseConfig, default_transition_matrix, imm_step

# not called here: `kf:<i>` runs the one-mode bank through imm_step. The
# benchmark's tracer looks these names up on this module, so they stay
# importable from it
from .estimation import kf_predict, kf_update  # noqa: F401
from .motor import VertexSet, build_vertex_set
from .plant import plant_step

SCENARIO_KEYS = frozenset(
    {
        "reference", "amplitude", "frequency", "period", "duration",
        "sample_rate", "seed", "controller", "estimator", "v_limit",
        "friction", "load_start", "load_end", "toggle_start", "toggle_period",
        "ramp_time", "process_noise_std", "meas_noise_std",
    }
)

# cap on the ticks one scenario may ask for: they are logged in memory
# (~150 bytes each)
MAX_TICKS = 1_000_000

# rows formatted per write; a chunk holds both files' columns as Python
# floats and strings, ~5 KB per row, so small chunks keep the writers' peak
# memory low (on a 6 s run, against not writing, 1,024 rows added ~4.9 MiB
# of peak RSS, 128 rows ~0.45 MiB, 64 rows ~0.25 MiB)
CSV_CHUNK = 64


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
    _starts: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_starts", tuple(starts))

    def validate_range(self, b_max: float) -> None:
        for s in self.segments:
            if not (0.0 <= s.b <= B_RANGE * b_max):
                raise ParameterError(
                    f"scheduled friction {s.b:.3e} outside [0, {B_RANGE * b_max:.3e}]"
                )

    def at(self, t: float) -> tuple[float, bool]:
        """Friction value and Coulomb flag active at time t: those of the
        last segment starting at or before t, the first segment before that."""
        idx = max(bisect_right(self._starts, t) - 1, 0)
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

    def __post_init__(self):
        if self.reference not in ("sine", "step"):
            raise ConfigError(f"unknown reference kind {self.reference!r}")
        _tick_count(self.duration, self.sample_rate)
        if not 0.0 < self.amplitude <= 100.0:
            raise ConfigError("reference amplitude must be in (0, 100] rad")
        if self.reference == "sine" and not self.frequency > 0.0:
            raise ConfigError("sine frequency must be positive")
        if self.reference == "step" and not self.period > 0.0:
            raise ConfigError("step period must be positive")
        if not self.v_limit > 0.0:
            raise ConfigError("v_limit must be positive")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        _parse_choice(self.controller, "controller", ("maps", "fixed", "open"))
        _parse_choice(self.estimator, "estimator", ("imm", "kf"))

    @property
    def n_ticks(self) -> int:
        return _tick_count(self.duration, self.sample_rate)

    @property
    def tick(self) -> float:
        return 1.0 / self.sample_rate

    def reference_state(self, t: float) -> tuple:
        """Full-state reference (theta, omega, current): position signal, its
        analytic derivative, zero current."""
        if self.reference == "sine":
            w = 2.0 * math.pi * self.frequency
            return (self.amplitude * math.sin(w * t), self.amplitude * w * math.cos(w * t), 0.0)
        phase = math.fmod(t, self.period)
        level = self.amplitude if phase < 0.5 * self.period else -self.amplitude
        return (level, 0.0, 0.0)


def _tick_count(duration: float, sample_rate: float) -> int:
    """Ticks of a run; refuses a non-positive duration or sample rate and
    fewer than 1 or more than MAX_TICKS ticks."""
    if not duration > 0.0:
        raise ConfigError("duration must be positive")
    if not sample_rate > 0.0:
        raise ConfigError("sample_rate must be positive")
    ticks = duration * sample_rate
    if not ticks <= MAX_TICKS:
        raise ConfigError(
            f"duration x sample_rate = {ticks:.6g} ticks exceeds the cap of {MAX_TICKS}"
        )
    n = int(round(ticks))
    if n < 1:
        raise ConfigError(
            f"duration x sample_rate = {ticks:.6g} ticks rounds to no tick"
        )
    return n


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
    """Simulate one closed-loop run of the spec against the truth plant.

    Every variant runs one loop. The estimator is `imm_step` over a
    `FilterBank`: `imm` holds every vertex model, `kf:<i>` the one model i.
    The controller weights the vertex gains by `scale * mu + offset`: the
    mode probabilities for `maps`, vertex i for `fixed:<i>`, nothing for
    `open`, which feeds theta_ref forward as the voltage instead.
    """
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

    # the vertex each filter mode stands for
    slots = tuple(range(nv)) if est_kind == "imm" else (est_idx,)
    bank = FilterBank([models[i] for i in slots], default_transition_matrix(len(slots)), noise)
    means, covs, mu = bank.initial()
    gains = tuple(tuple(K.reshape(-1).tolist()) for K in vertices.K_vertices)
    scale = 1.0 if ctl_kind == "maps" else 0.0
    offset = tuple(1.0 if ctl_kind == "fixed" and i == ctl_idx else 0.0 for i in range(nv))
    feedforward = 1.0 if ctl_kind == "open" else 0.0

    n = spec.n_ticks
    # one row per tick: time, z, truth (3), estimate (3), mu (nv), rho_hat,
    # gain (3), u, reference (3), b_true
    log = np.empty((n, 17 + nv))
    normal = np.random.default_rng(spec.seed).standard_normal
    meas_std = (
        spec.meas_noise_std
        if spec.meas_noise_std is not None
        else math.sqrt(float(noise.R[0, 0]))
    )
    dist_std = spec.process_noise_std
    reference, friction_at = spec.reference_state, spec.friction.at
    # one FrictionModel per schedule segment, not per tick; a ramp misses
    friction = lru_cache(maxsize=16)(motor.friction)
    params, v_limit, rho = motor.params, spec.v_limit, vertices.rho
    truth = (0.0, 0.0, 0.0)
    u = 0.0
    saturations = 0

    for k in range(n):
        t = k * T
        z = truth[0] + meas_std * normal()
        tau_dist = dist_std * normal() if dist_std > 0.0 else 0.0
        means, covs, mu, _, x_hat = imm_step(bank, means, covs, mu, u, z)
        mu_v = [0.0] * nv
        for slot, m in zip(slots, mu):
            mu_v[slot] = m
        rho_hat = 0.0
        for m, r in zip(mu_v, rho):
            rho_hat += m * r
        K = maps_gain([scale * m + o for m, o in zip(mu_v, offset)], gains)
        ref = reference(t)
        u, saturated = control_input(K, ref, x_hat, v_limit, feedforward)
        saturations += saturated
        b_t, coulomb_on = friction_at(t)
        log[k] = (t, z, *truth, *x_hat, *mu_v, rho_hat, *K, u, *ref, b_t)
        truth = plant_step(truth, u, friction(b_t, coulomb_on), params, T, tau_dist)

    c = 8 + nv
    return RunRecord(
        spec=spec,
        time=log[:, 0],
        z=log[:, 1],
        truth=log[:, 2:5],
        estimate=log[:, 5:8],
        mu=log[:, 8:c],
        rho_hat=log[:, c],
        gain=log[:, c + 1:c + 4],
        u=log[:, c + 4],
        reference=log[:, c + 5:c + 8],
        b_true=log[:, c + 8],
        saturation_count=saturations,
    )


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

    def _rows(self) -> list:
        """(label, value per variant, percent change of the second variant
        against the first) for the tracking metrics and per-state
        estimation RMSE."""
        table = [(attr, [getattr(m, attr) for m in self.metrics])
                 for attr in ("rmse", "mae", "iae")]
        table += [(f"est_rmse_{state}", [float(m.est_rmse[j]) for m in self.metrics])
                  for j, state in enumerate(("theta", "omega", "current"))]
        return [(label, vals, _percent_change(*vals[:2]) if len(vals) > 1 else 0.0)
                for label, vals in table]

    def to_text(self) -> str:
        lines = [f"{'metric':<14}" + "".join(f"{n:>14}" for n in self.names) + f"{'delta%':>10}"]
        for label, vals, delta in self._rows():
            lines.append(f"{label:<14}" + "".join(f"{v:>14.6f}" for v in vals) + f"{delta:>10.2f}")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", *self.names, "delta_percent"])
            for label, vals, delta in self._rows():
                writer.writerow([label, *[repr(v) for v in vals], repr(delta)])


def _percent_change(ref: float, val: float) -> float:
    return 100.0 * (val - ref) / ref if ref else 0.0


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


def write_run_csvs(trace_path, plot_path, record: RunRecord) -> None:
    """Write trace.csv (every logged signal) and plot.csv (a reduced table
    for plotting tools) in one pass; either path may be None to skip that
    file.

    CSV_CHUNK rows of the union of the two files' columns are stacked at a
    time and every value is formatted once, in shortest round-trip form (the
    bytes csv.writer writes for repr(float(v))), so identical runs write
    identical bytes. Each file's rows are joined from those same cells.
    """
    nv = record.mu.shape[1]
    mu_names = [f"mu_{j + 1}" for j in range(nv)]
    # the union row: the trace.csv columns, then tracking_error and b_true
    width = 16 + nv
    trace = (
        ["time", "z", "theta_true", "omega_true", "current_true",
         "theta_est", "omega_est", "current_est", *mu_names, "rho_hat",
         "k_theta", "k_omega", "k_current", "u",
         "theta_ref", "omega_ref", "current_ref"],
        itemgetter(slice(0, width)),
    )
    plot = (
        ["time", "theta_ref", "theta_true", "theta_est", "tracking_error",
         *mu_names, "rho_hat", "b_true", "u"],
        itemgetter(0, width - 3, 2, 5, width, *range(8, 9 + nv), width + 1, width - 4),
    )
    theta_ref, theta = record.reference[:, 0], record.truth[:, 0]
    columns = [
        record.time, record.z, record.truth, record.estimate, record.mu,
        record.rho_hat, record.gain, record.u, record.reference,
        theta_ref - theta, record.b_true,
    ]
    with ExitStack() as stack:
        outputs = []
        for path, (header, cells) in ((trace_path, trace), (plot_path, plot)):
            if path is not None:
                fh = stack.enter_context(Path(path).open("w", newline=""))
                fh.write(",".join(header) + "\r\n")
                outputs.append((fh, cells))
        for start in range(0, len(record.time), CSV_CHUNK):
            block = np.column_stack([c[start:start + CSV_CHUNK] for c in columns])
            rows = [list(map(repr, row)) for row in block.tolist()]
            for fh, cells in outputs:
                fh.write("".join([",".join(cells(row)) + "\r\n" for row in rows]))


def write_trace_csv(path, record: RunRecord) -> None:
    """trace.csv alone, from the pass `maps run` writes both files with."""
    write_run_csvs(path, None, record)


def write_plot_csv(path, record: RunRecord) -> None:
    """plot.csv alone, from the pass `maps run` writes both files with."""
    write_run_csvs(None, path, record)


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
    sample_rate = fget("sample_rate", 1.0 / motor.sample_time)
    ramp_time = fget("ramp_time", 0.0)
    # refuse oversized runs before any schedule is built
    ticks = _tick_count(duration, sample_rate)
    if kind == "constant":
        schedule = constant_schedule(motor.b_min)
    elif kind == "window":
        schedule = load_window_schedule(
            motor.b_min, motor.b_max,
            start=fget("load_start", 10.0), end=fget("load_end", 20.0),
            ramp_time=ramp_time,
        )
    elif kind == "toggle":
        first, period = fget("toggle_start", 0.3), fget("toggle_period", 5.0)
        # segments = 1 + ceil((duration - first) / period)
        if period > 0.0 and (duration - first) / period > ticks - 1:
            raise ConfigError(
                f"toggle_period {period!r} gives more friction segments than the {ticks} ticks"
            )
        schedule = toggle_schedule(
            motor.b_min, motor.b_max, first=first, period=period, duration=duration,
        )
    else:
        raise ConfigError(f"unknown friction schedule {kind!r}")

    meas_noise_std = fget("meas_noise_std", -1.0)

    return ScenarioSpec(
        reference=entries.get("reference", "sine"),
        amplitude=fget("amplitude", 2.0),
        frequency=fget("frequency", 0.5),
        period=fget("period", 10.0),
        duration=duration,
        sample_rate=sample_rate,
        friction=schedule,
        seed=seed,
        controller=entries.get("controller", "maps"),
        estimator=entries.get("estimator", "imm"),
        v_limit=fget("v_limit", 4.0),
        process_noise_std=fget("process_noise_std", 0.0),
        meas_noise_std=meas_noise_std if meas_noise_std >= 0.0 else None,
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
