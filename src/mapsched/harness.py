"""Scenario simulation harness.

Runs the nonlinear truth plant in closed loop with a `Controller`, the
estimator and gain of one controller tick, under a scheduled friction
profile, and computes tracking/estimation metrics. Every estimator and
controller variant runs the same loop on plain floats; the variant rules
are written in `Controller`'s docstring. The truth plant is solved exactly,
friction events included (`plant.plant_step`), so a scenario has no
integration setting. A run takes the gain-filled design `design_from_motor`
returns. A `ScenarioSpec` is made for one motor: its `sample_time` and
`friction` have no default and are passed by keyword. A scenario file sets
neither: its tick is its motor's sample_time, and its constant friction its
motor's b_min. The spec's other field defaults are the scenario defaults,
but for the window's and the toggle's times, which `scenario_from_entries`
sets. A spec refuses a controller or estimator choice `Controller` would.
Runs are deterministic for a given seed; measurement noise is the only
random input by default. The harness writes no file: `cli` formats and
writes a run's and a comparison's outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from itertools import chain, repeat
from struct import pack_into

import numpy as np

# numpy loads numpy.random on first use; run_scenario draws its noise from it,
# so it is loaded with the package, not inside the first run
from numpy.random import default_rng

from .config import (
    B_RANGE,
    MOTOR_KEYS,
    MotorConfig,
    _to_float,
    motor_config_from_entries,
    parse_kv_file,
)
from .control import control_input, maps_gain, synthesize_vertex_gains
from .errors import ConfigError, ParameterError
from .estimation import FILTER_Q, FILTER_R, FilterBank, default_transition_matrix, imm_step

# not called here: `kf:<i>` runs the one-mode bank through imm_step. The
# benchmark's tracer looks these names up on this module, so they stay
# importable from it
from .estimation import kf_predict, kf_update  # noqa: F401
from .motor import VertexSet, build_vertex_set
from .plant import TickMap, plant_step

# the keys only one kind of reference or friction schedule reads
KIND_KEYS = {
    ("reference", "sine"): ("frequency",),
    ("reference", "step"): ("period",),
    ("friction", "window"): ("load_start", "load_end", "ramp_time"),
    ("friction", "toggle"): ("toggle_start", "toggle_period"),
}

# cap on the ticks one scenario may ask for: they are logged in memory
# (~150 bytes each)
MAX_TICKS = 1_000_000

# ticks per chunk of the run loop, and rows `cli.write_run_csvs` formats per
# write; a chunk holds both files' cells and rows as Python strings, so small
# chunks keep the writer's peak memory low (on a 6 s run, against not
# writing, 1,024 rows added ~4.8 MiB of peak RSS, 256 rows ~1.0 MiB, 64 rows
# ~0.4 MiB; 32 to 256 rows wrote equally fast)
CSV_CHUNK = 64


@dataclass(frozen=True)
class FrictionSegment:
    start: float
    b: float
    coulomb_on: bool


@dataclass(frozen=True)
class FrictionSchedule:
    """Piecewise friction profile for the truth plant; segment values switch
    instantly when ramp_time is 0 and ramp linearly over ramp_time when it
    is positive. The segments' starts, values and Coulomb flags are held as
    arrays, formed once."""

    segments: tuple
    ramp_time: float = 0.0
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _b: np.ndarray = field(init=False, repr=False, compare=False)
    _coulomb: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ParameterError("friction schedule needs at least one segment")
        starts = [s.start for s in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ParameterError("friction segments must be time-sorted")
        if not self.ramp_time >= 0.0:
            raise ParameterError(f"ramp_time must be a number >= 0, got {self.ramp_time!r}")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_starts", np.array(starts, dtype=float))
        object.__setattr__(self, "_b", np.array([s.b for s in segs], dtype=float))
        object.__setattr__(self, "_coulomb", np.array([s.coulomb_on for s in segs], dtype=bool))

    def validate_range(self, b_max: float) -> None:
        for s in self.segments:
            if not (0.0 <= s.b <= B_RANGE * b_max):
                raise ParameterError(
                    f"scheduled friction {s.b:.3e} outside [0, {B_RANGE * b_max:.3e}]"
                )

    def at(self, t: float) -> tuple[float, bool]:
        """Friction value and Coulomb flag active at time t: `at_times` at
        the one time t."""
        values, coulomb = self.at_times(np.array([t], dtype=float))
        return float(values[0]), bool(coulomb[0])

    def at_times(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Friction value and Coulomb flag at each of `times`, as a float
        and a bool array: those of the last segment starting at or before
        t, the first segment before that. A ramp's value is the previous
        segment's value plus lapsed / ramp_time of the step to this one."""
        starts, b = self._starts, self._b
        idx = np.searchsorted(starts, times, side="right")
        idx = np.maximum(idx - 1, 0, out=idx)
        values = b[idx]
        if self.ramp_time > 0.0:
            lapsed = times - starts[idx]
            ramping = np.flatnonzero((idx > 0) & (lapsed < self.ramp_time))
            seg = idx[ramping]
            prev, frac = b[seg - 1], lapsed[ramping] / self.ramp_time
            values[ramping] = prev + frac * (b[seg] - prev)
        return values, self._coulomb[idx]


def constant_schedule(b: float) -> FrictionSchedule:
    """Viscous friction b for the whole run, Coulomb friction off."""
    return FrictionSchedule(segments=(FrictionSegment(0.0, b, False),))


def load_window_schedule(b_low: float, b_high: float, start: float, end: float,
                         ramp_time: float = 0.0) -> FrictionSchedule:
    """No-load friction with a high-friction (loaded) window [start, end).
    A window from 0 holds from the first tick, with no segment to ramp
    from; a later one must finish its ramp up before it ends."""
    if not 0.0 <= start < end:
        raise ParameterError("load window needs 0 <= start < end")
    if start > 0.0 and ramp_time > end - start:
        raise ParameterError(f"ramp_time {ramp_time!r} outlasts the load window: "
                             f"load_end - load_start = {end - start!r}")
    segs = (FrictionSegment(start, b_high, True), FrictionSegment(end, b_low, False))
    if start > 0.0:
        segs = (FrictionSegment(0.0, b_low, False), *segs)
    return FrictionSchedule(segments=segs, ramp_time=ramp_time)


def toggle_schedule(b_low: float, b_high: float, first: float, period: float,
                    duration: float) -> FrictionSchedule:
    """Alternate b_low/b_high starting at `first` and every `period` after,
    Coulomb friction off."""
    if not (first > 0.0 and period > 0.0):
        raise ParameterError("toggle schedule needs positive first switch and period")
    segs = [FrictionSegment(0.0, b_low, False)]
    t, high = first, True
    while t < duration:
        segs.append(FrictionSegment(t, b_high if high else b_low, False))
        t += period
        high = not high
    return FrictionSchedule(segments=tuple(segs))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one run.

    `sample_time` and `friction` are its motor's, so they have no default
    and are keyword-only. controller "open" turns the run into an
    estimation bench: the reference signal is applied directly as a voltage
    command (amplitude in volts) and no state feedback acts, so every
    estimator variant sees identical data.
    """

    reference: str = "sine"          # "sine" | "step"
    amplitude: float = 2.0           # rad (volts under controller "open")
    frequency: float = 0.5           # Hz (sine)
    period: float = 10.0             # s (step square wave)
    duration: float = 30.0
    sample_time: float = field(kw_only=True)  # s, its motor's, the design's T
    friction: FrictionSchedule = field(kw_only=True)
    seed: int = 1
    controller: str = "maps"         # "maps" | "fixed:<vertex>" | "open"
    estimator: str = "imm"           # "imm" | "kf:<model>"
    v_limit: float = 4.0
    process_noise_std: float = 0.0   # N*m torque disturbance, default off
    meas_noise_std: float = math.sqrt(FILTER_R[0, 0])  # rad, the filters' own R

    def __post_init__(self):
        if self.reference not in ("sine", "step"):
            raise ConfigError(f"unknown reference kind {self.reference!r}")
        _tick_count(self.duration, self.sample_time)
        if not 0.0 < self.amplitude <= 100.0:
            raise ConfigError("reference amplitude must be in (0, 100] rad")
        if self.reference == "sine":
            if not self.frequency > 0.0:
                raise ConfigError("sine frequency must be positive")
            # the reference's rate w = 2 pi f, its peak A w and its phase w t
            # up to the end of the run, as reference_state forms them
            w = 2.0 * math.pi * self.frequency
            if not (math.isfinite(self.amplitude * w) and math.isfinite(w * self.duration)):
                raise ConfigError(
                    f"sine frequency {self.frequency!r} puts the reference's rate or "
                    "phase past float range"
                )
        if self.reference == "step" and not self.period > 0.0:
            raise ConfigError("step period must be positive")
        if not self.v_limit > 0.0:
            raise ConfigError("v_limit must be positive")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        for key in ("process_noise_std", "meas_noise_std"):
            std = getattr(self, key)
            if not 0.0 <= std < math.inf:
                raise ConfigError(f"{key} must be a finite number >= 0, got {std!r}")
        _parse_choice(self.controller, "controller", ("maps", "fixed", "open"))
        _parse_choice(self.estimator, "estimator", ("imm", "kf"))

    @property
    def n_ticks(self) -> int:
        return _tick_count(self.duration, self.sample_time)

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.sample_time

    def reference_state(self, t: float) -> tuple:
        """Full-state reference (theta, omega, current) at time t:
        `reference_states` at the one time t."""
        return tuple(self.reference_states(np.array([t], dtype=float))[0].tolist())

    def reference_states(self, times: np.ndarray) -> np.ndarray:
        """Full-state reference at each of `times`, one (theta, omega,
        current) row per time: the position signal, its analytic derivative
        and zero current. The step's phase is `np.fmod`, exact as
        `math.fmod` is, and the sine is `math.sin` and `math.cos` (not
        numpy's, whose SIMD loops may round differently) mapped over the
        phases w t."""
        out = np.zeros((times.size, 3))
        if self.reference == "sine":
            w = 2.0 * math.pi * self.frequency
            phases = w * times
            out[:, 0] = self.amplitude * np.fromiter(map(math.sin, phases), float, times.size)
            out[:, 1] = self.amplitude * w * np.fromiter(map(math.cos, phases), float, times.size)
        else:
            first_half = np.fmod(times, self.period) < 0.5 * self.period
            out[:, 0] = np.where(first_half, self.amplitude, -self.amplitude)
        return out


# the keys a scenario file may set: ScenarioSpec's fields but the motor's
# sample time, and the keys only one kind of reference or friction reads
SCENARIO_KEYS = frozenset(
    {f.name for f in fields(ScenarioSpec) if f.name != "sample_time"}.union(*KIND_KEYS.values())
)


def _tick_count(duration: float, sample_time: float) -> int:
    """Ticks of a run, duration times the sample rate 1 / sample_time;
    refuses a non-positive duration or sample time and fewer than 1 or more
    than MAX_TICKS ticks."""
    if not duration > 0.0:
        raise ConfigError("duration must be positive")
    if not sample_time > 0.0:
        raise ConfigError("sample_time must be positive")
    ticks = duration * (1.0 / sample_time)
    if ticks <= MAX_TICKS and (n := int(round(ticks))) >= 1:
        return n
    fault = "which rounds to no tick" if ticks <= MAX_TICKS else f"past the cap of {MAX_TICKS}"
    raise ConfigError(f"duration {duration:.6g} s at sample_time {sample_time:.6g} s "
                      f"is {ticks:.6g} ticks, {fault}")


def _parse_choice(text: str, what: str, allowed) -> tuple[str, int]:
    """(kind, vertex index) of a controller or estimator choice; `fixed`
    and `kf` take vertex 0 (b_min, the default) or 1 (b_max)."""
    kind, _, idx = text.partition(":")
    if kind not in allowed:
        raise ConfigError(f"unknown {what} {text!r}")
    if kind in ("fixed", "kf"):
        try:
            vertex = int(idx or "0")
        except ValueError:
            raise ConfigError(f"{what} index must be an integer, got {text!r}") from None
        if vertex not in (0, 1):
            raise ConfigError(f"{what} index must be vertex 0 or 1, got {text!r}")
        return kind, vertex
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
    mu: np.ndarray          # (N, 2)
    rho_hat: np.ndarray
    gain: np.ndarray        # (N, 3)
    u: np.ndarray
    reference: np.ndarray   # (N, 3)
    b_true: np.ndarray
    saturation_count: int


@dataclass(frozen=True)
class MetricsReport:
    """Tracking-error metrics plus per-state estimation RMSE."""

    rmse: float
    mae: float
    iae: float
    est_rmse: np.ndarray    # (theta, omega, current)


class Controller:
    """One controller tick of MAPS, built once per run from the design:
    the estimator's `FilterBank` and belief, the mode weights and the gain.

    `step(u_prev, z, ref)` takes the input applied on the previous tick, the
    measured angle and the (theta, omega, current) reference, and returns
    `(x_hat, weights, K, u, saturated)`: the fused estimate, the vertex
    weights, the gain row, the input and whether it was clipped to
    `v_limit`. It calls `imm_step`, `maps_gain` and `control_input` by
    their names in this module, where the benchmark's tracer wraps them.

    The variants, each a choice the constructor forms once:

    - estimator `imm`: `imm_step` over both vertices' Phi with the default
      0.9-stay transition matrix; the weights are its mode probabilities.
    - estimator `kf:<i>`: the one-mode bank of vertex i's Phi, a Kalman
      filter through the same `imm_step`. Its one mode has probability
      lik / lik = 1.0 on every tick, so its weights are one-hot at i.
    - controller `maps`: the gain `maps_gain(weights, gains)`, each tick.
    - controller `fixed:<i>`: vertex gain i, the `maps_gain` of weights
      one-hot at i.
    - controller `open`: a zero gain, with theta_ref fed forward as the
      voltage.

    `fixed:<i>` and `open` weigh the vertex gains the same on every tick,
    so their gain is formed once. `kf:<i>` and `fixed:<i>` name vertex 0
    (b_min) or 1 (b_max); any other choice raises ConfigError, and a design
    without gains ParameterError. The filters run with the stock
    covariances FILTER_Q and FILTER_R.
    """

    __slots__ = ("bank", "means", "covs", "mu", "gains", "fixed_gain", "feedforward",
                 "kf_weights", "v_limit")

    def __init__(self, vertices: VertexSet, controller: str, estimator: str, v_limit: float):
        self.gains = tuple(tuple(K.reshape(-1).tolist()) for K in vertices.gains)
        est_kind, est_idx = _parse_choice(estimator, "estimator", ("imm", "kf"))
        ctl_kind, ctl_idx = _parse_choice(controller, "controller", ("maps", "fixed", "open"))
        # the vertex each filter mode stands for
        slots = (0, 1) if est_kind == "imm" else (est_idx,)
        self.bank = FilterBank([vertices.Phi_vertices[i] for i in slots], vertices.Gamma,
                               default_transition_matrix(len(slots)), FILTER_Q, FILTER_R)
        self.means, self.covs, self.mu = self.bank.initial()
        self.fixed_gain = None if ctl_kind == "maps" else maps_gain(
            [1.0 if ctl_kind == "fixed" and i == ctl_idx else 0.0 for i in (0, 1)], self.gains
        )
        self.feedforward = 1.0 if ctl_kind == "open" else 0.0
        self.kf_weights = None if est_kind == "imm" else [
            1.0 if i == est_idx else 0.0 for i in (0, 1)
        ]
        self.v_limit = v_limit

    def step(self, u_prev: float, z: float, ref) -> tuple:
        self.means, self.covs, self.mu, _, x_hat = imm_step(
            self.bank, self.means, self.covs, self.mu, u_prev, z)
        weights = self.mu if self.kf_weights is None else self.kf_weights
        K = maps_gain(weights, self.gains) if self.fixed_gain is None else self.fixed_gain
        u, saturated = control_input(K, ref, x_hat, self.v_limit, self.feedforward)
        return x_hat, weights, K, u, saturated


def run_scenario(spec: ScenarioSpec, motor: MotorConfig, vertices: VertexSet) -> RunRecord:
    """Simulate one closed-loop run of the spec against the truth plant.

    `vertices` is a gain-filled design, as `design_from_motor` returns; a
    set without gains is refused with ParameterError. Every variant runs
    one loop, and a tick does only the feedback work: the measurement, one
    `step` of the run's `Controller` (whose docstring holds the variant
    rules) and `plant_step` on the tick's `TickMap`, taken from a 16-entry
    cache.

    What the loop only reads by time or only records is formed once per
    run with numpy, by the float operations of one tick, so its bits are
    those of the scalar rules: the times k T, the friction of each tick
    (`FrictionSchedule.at_times`), the reference (`reference_states`) and,
    after the loop, rho_hat = 0.0 + mu_0 rho_0 + mu_1 rho_1, term by term
    as the loop would.
    The loop runs in chunks of CSV_CHUNK ticks: a chunk draws its noise in
    one call and packs its rows into the log with one `struct.pack_into`.
    """
    step = Controller(vertices, spec.controller, spec.estimator, spec.v_limit).step
    T = spec.sample_time
    if T != vertices.T:
        raise ConfigError(
            f"scenario tick {T} does not match the design sample time {vertices.T}"
        )
    spec.friction.validate_range(motor.b_max)

    n = spec.n_ticks
    # what the loop only reads by time, formed once with one tick's float
    # operations: t = k T, the friction and the reference at t
    time = np.arange(n) * T
    b_true, coulomb = spec.friction.at_times(time)
    reference = spec.reference_states(time)
    # what the loop computes, one row per tick: z, truth (3), estimate (3),
    # mu (2), gain (3), u; a chunk's rows are packed into it at once
    log = np.empty((n, 13))
    normal = default_rng(spec.seed).standard_normal
    meas_std, dist_std = spec.meas_noise_std, spec.process_noise_std

    # one TickMap per schedule segment, not per tick; a ramp misses
    @lru_cache(maxsize=16)
    def tick_map(b, coulomb_on):
        return TickMap(motor, motor.friction(b, coulomb_on), T)

    truth = (0.0, 0.0, 0.0)
    u = 0.0
    saturations = 0

    for start in range(0, n, CSV_CHUNK):
        stop = min(start + CSV_CHUNK, n)
        # a tick draws its measurement noise, then its torque noise when that
        # is on: row-major (ticks, 2) draws are the same stream as scalar draws
        if dist_std > 0.0:
            draws = normal((stop - start, 2)).tolist()
        else:
            draws = zip(normal(stop - start).tolist(), repeat(0.0))
        rows = []
        for (e_z, e_d), ref, b_t, coulomb_on in zip(
            draws, reference[start:stop].tolist(),
            b_true[start:stop].tolist(), coulomb[start:stop].tolist(),
        ):
            z = truth[0] + meas_std * e_z
            tau_dist = dist_std * e_d
            x_hat, weights, K, u, saturated = step(u, z, ref)
            saturations += saturated
            rows.append((z, *truth, *x_hat, *weights, *K, u))
            truth = plant_step(truth, u, tick_map(b_t, coulomb_on), tau_dist)
        pack_into(f"{len(rows) * 13}d", log, start * 13 * 8, *chain.from_iterable(rows))

    # added term by term from 0.0 as a tick would: elementwise, not a BLAS
    # product, whose kernel may fuse
    rho_0, rho_1 = vertices.rho
    rho_hat = 0.0 + log[:, 7] * rho_0 + log[:, 8] * rho_1
    return RunRecord(
        spec=spec,
        time=time,
        z=log[:, 0],
        truth=log[:, 1:4],
        estimate=log[:, 4:7],
        mu=log[:, 7:9],
        rho_hat=rho_hat,
        gain=log[:, 9:12],
        u=log[:, 12],
        reference=reference,
        b_true=b_true,
        saturation_count=saturations,
    )


def compute_metrics(record: RunRecord) -> MetricsReport:
    """RMSE / MAE / IAE of the tracking error theta_ref - theta plus
    per-state estimation RMSE (truth minus fused estimate)."""
    if record.time.size == 0:
        raise ParameterError("cannot compute metrics on an empty run")
    err = record.reference[:, 0] - record.truth[:, 0]
    T = record.spec.sample_time
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    iae = float(np.sum(np.abs(err)) * T)
    est_err = record.truth - record.estimate
    est_rmse = np.sqrt(np.mean(est_err**2, axis=0))
    return MetricsReport(rmse=rmse, mae=mae, iae=iae, est_rmse=est_rmse)


@dataclass(frozen=True)
class Comparison:
    """Each variant's name and metrics, in variant order; `cli` renders the
    table."""

    names: tuple
    metrics: tuple          # MetricsReport per variant


def compare_runs(spec: ScenarioSpec, variants, motor: MotorConfig,
                 vertices: VertexSet) -> Comparison:
    """Run named (controller, estimator) variants of the same scenario with a
    shared seed and friction schedule and tabulate their tracking metrics.
    Only the metrics are kept: each run's log is freed before the next run."""
    names, metrics = [], []
    for name, controller, estimator in variants:
        names.append(name)
        metrics.append(compute_metrics(run_scenario(
            replace(spec, controller=controller, estimator=estimator), motor, vertices)))
    return Comparison(names=tuple(names), metrics=tuple(metrics))


def scenario_from_entries(entries: dict, motor: MotorConfig) -> ScenarioSpec:
    """Build a ScenarioSpec from flat key/value entries (strings). A field
    the entries do not set keeps ScenarioSpec's default. The sample time,
    which no entry sets, is the motor's, and every schedule is built from
    the motor's b_min and b_max (constant: b_min); the window's and the
    toggle's times default here. A key that only another kind of reference
    or friction schedule reads (KIND_KEYS) is refused, as it would be
    ignored."""
    unknown = set(entries) - SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")

    def fget(key, default=None):
        return _to_float(key, entries[key]) if key in entries else default

    values = {}
    if "seed" in entries:
        try:
            values["seed"] = int(entries["seed"])
        except ValueError:
            raise ConfigError(f"seed must be an integer, got {entries['seed']!r}") from None

    kind = entries.get("friction", "constant")
    duration = fget("duration", ScenarioSpec.duration)
    # refuse oversized runs before any schedule is built
    ticks = _tick_count(duration, motor.sample_time)
    if kind == "constant":
        schedule = constant_schedule(motor.b_min)
    elif kind == "window":
        schedule = load_window_schedule(
            motor.b_min, motor.b_max,
            start=fget("load_start", 10.0), end=fget("load_end", 20.0),
            ramp_time=fget("ramp_time", 0.0),
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

    values.update((key, entries[key]) for key in ("reference", "controller", "estimator")
                  if key in entries)
    values.update((key, fget(key)) for key in (
        "amplitude", "frequency", "period", "v_limit", "process_noise_std", "meas_noise_std",
    ) if key in entries)
    spec = ScenarioSpec(duration=duration, sample_time=motor.sample_time, friction=schedule,
                        **values)
    chosen = {"reference": spec.reference, "friction": kind}
    for (setting, reader), keys in KIND_KEYS.items():
        for key in keys:
            if key in entries and chosen[setting] != reader:
                raise ConfigError(f"{key} is read by {setting} = {reader}; "
                                  f"{setting} {chosen[setting]!r} does not read it")
    return spec


def load_scenario(path) -> tuple[ScenarioSpec, MotorConfig]:
    """Load a scenario config file; motor keys may appear inline alongside
    the scenario keys in the same flat key/value namespace."""
    entries = parse_kv_file(path)
    motor_entries = {k: v for k, v in entries.items() if k in MOTOR_KEYS}
    scenario_entries = {k: v for k, v in entries.items() if k not in MOTOR_KEYS}
    motor = motor_config_from_entries(motor_entries)
    return scenario_from_entries(scenario_entries, motor), motor


def design_from_motor(motor: MotorConfig) -> VertexSet:
    """Vertex models at (b_min, b_max) under the configured discretization,
    with LQR gains synthesized under the stock weights Q_LQR and R_LQR."""
    return synthesize_vertex_gains(build_vertex_set(motor))
