"""DC motor models: the continuous (A, B) pair of a motor and its
discretizations, the friction parameters, and the polytopic vertex set
used by the scheduled controller. DISCRETIZERS maps each discretization
name a motor may give to its function, and one rule builds every vertex.

State ordering is [theta, omega, i] (rad, rad/s, A) throughout; the single
input is the armature voltage and the single measurement is theta. The
motor itself, its constants, friction range and design choices, is one
`config.MotorConfig`. The vertex set is the one design container, built
from the motor alone: its arrays are passed as they are to the Riccati
solver, the filter bank and the certificate. Nothing here has a stock
value: the stock motor is the table `config.MOTOR_DEFAULTS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:
    from .config import MotorConfig

# |omega| below this counts as "at rest" for the stiction branch
OMEGA_REST = 1e-6

# the ZOH map sums an exponential divided difference as its Taylor series
# when its nodes span at most ZOH_SERIES_SPAN (in units of 1/T), where the
# recurrence would cancel; ZOH_SERIES_TERMS terms reach float round-off
ZOH_SERIES_SPAN = 1.0
ZOH_SERIES_TERMS = 24


def _frozen(a) -> np.ndarray:
    """Read-only C-contiguous float copy, for the arrays held by frozen
    dataclasses."""
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FrictionModel:
    """Static + Coulomb + viscous friction torque parameters."""

    tau_s: float
    tau_c: float
    b: float

    def __post_init__(self):
        if not (self.tau_s >= self.tau_c >= 0.0):
            raise ParameterError("friction requires tau_s >= tau_c >= 0")
        if self.b < 0.0:
            raise ParameterError("viscous coefficient must be non-negative")


@dataclass(frozen=True)
class VertexSet:
    """Polytopic vertex models Phi[i], one per scheduling value rho[i], plus
    the shared input map Gamma, at sample time T; every vertex measures the
    first state. MAPS schedules between two friction modes, so a set has
    exactly two vertices, b_min < b_max.

    Gains are synthesized separately: the gain-filled set is
    `dataclasses.replace(vertices, K_vertices=gains)`, validated and frozen
    whole as any new set is.
    """

    rho: tuple
    Phi_vertices: tuple
    Gamma: np.ndarray
    T: float
    mode: str
    K_vertices: tuple | None = None

    def __post_init__(self):
        rho = tuple(float(r) for r in self.rho)
        if len(rho) != 2:
            raise ParameterError(f"a vertex set has 2 vertices, got {len(rho)}")
        if rho[1] <= rho[0]:
            raise ParameterError("scheduling vertices must be strictly increasing")
        phis = tuple(_frozen(p) for p in self.Phi_vertices)
        if len(phis) != len(rho):
            raise ParameterError("one vertex matrix per scheduling value required")
        if not self.T > 0.0:
            raise ParameterError("sample time must be positive")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "Phi_vertices", phis)
        object.__setattr__(self, "Gamma", _frozen(self.Gamma))
        if self.K_vertices is not None:
            ks = tuple(_frozen(k) for k in self.K_vertices)
            if len(ks) != len(rho):
                raise ParameterError("one gain row per vertex required")
            object.__setattr__(self, "K_vertices", ks)

    @property
    def gains(self) -> tuple:
        """The vertex gains, K_vertices; a set without them is refused."""
        if self.K_vertices is None:
            raise ParameterError("vertex gains have not been synthesized")
        return self.K_vertices


def build_continuous_model(motor: MotorConfig, b: float) -> tuple:
    """Continuous state-space pair (A, B) of the motor's dx/dt = A x + B u
    at viscous coefficient b.

    A couples omega and i through the torque and back-EMF constants; the
    voltage input enters the electrical state through 1/Lm.
    """
    if b < 0.0:
        raise ParameterError("viscous coefficient must be non-negative")
    A = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, -b / motor.Jeq, motor.Kt / motor.Jeq],
            [0.0, -motor.Ke / motor.Lm, -motor.Rm / motor.Lm],
        ]
    )
    B = np.array([[0.0], [0.0], [1.0 / motor.Lm]])
    return A, B


def euler_discretize(A: np.ndarray, B: np.ndarray, T: float):
    """Forward-Euler pair (I + T*A, T*B)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return np.eye(A.shape[0]) + T * A, T * B


def _phi1(x: float) -> float:
    """(e^x - 1) / x, the divided difference e[0, x] of the exponential."""
    return math.expm1(x) / x if x != 0.0 else 1.0


def _dd_series(x1: float, x2: float, m: int) -> float:
    """The exponential's divided difference over the m + 1 nodes 0 (m - 1
    times), x1 and x2, summed as its Taylor series sum_n h_n(x1, x2) / (n +
    m)!, h_n the complete symmetric polynomial of degree n; for nodes within
    a unit span."""
    total, h, x2n, fact = 0.0, 1.0, 1.0, float(math.factorial(m))
    for n in range(ZOH_SERIES_TERMS):
        total += h / fact
        x2n *= x2
        h = x1 * h + x2n
        fact *= n + 1 + m
    return total


def zoh_discretize(A: np.ndarray, B: np.ndarray, T: float):
    """Exact zero-order-hold pair of a motor's (A, B) in closed form.

    The (omega, i) block M = [[s, p], [q, r]] has the real, distinct,
    negative modes lam1 > lam2 (refused otherwise, as is a pair without the
    motor's structure: theta' = omega, the input driving i alone). With x_k =
    lam_k T, Putzer's form exp(M t) = e^(lam_k t) I + f(t) (M - lam_k I),
    f = (e^(lam1 t) - e^(lam2 t)) / (lam1 - lam2), holds for either k, and
    its integrals over the tick are the exponential's divided differences
    e[0, x1, x2] and e[0, 0, x1, x2] times powers of T. Each diagonal entry
    takes the mode nearest it, with the offset d - lam_near = -p q / (d -
    lam_far), so no entry subtracts close numbers. Everything is scalar
    `math`, so no BLAS kernel rounds the map; Phi's first column is exactly
    e0.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (A.shape == (3, 3) and B.shape == (3, 1) and not A[:, 0].any()
            and A[0, 1] == 1.0 and A[0, 2] == 0.0 and not B[:2].any()):
        raise ParameterError("the ZOH closed form needs a motor's (A, B): theta' = omega "
                             "and the input entering the current alone")
    ((s, p), (q, r)), g = A[1:, 1:].tolist(), float(B[2, 0])
    tr, det, disc = s + r, s * r - p * q, (s - r) * (s - r) + 4.0 * p * q
    lam2 = 0.5 * (tr - math.sqrt(disc)) if disc > 0.0 and tr < 0.0 and det > 0.0 else math.nan
    lam1 = det / lam2  # product of the roots; avoids cancellation
    if not lam2 < lam1:
        raise ParameterError("the ZOH closed form needs real, distinct, negative "
                             "(omega, i) modes")
    x1, x2 = lam1 * T, lam2 * T
    e12 = math.exp(x1) * _phi1(x2 - x1)  # e[x1, x2]
    if -x2 <= ZOH_SERIES_SPAN:
        d2, d3 = _dd_series(x1, x2, 2), _dd_series(x1, x2, 3)
    else:
        # recurrences over the span 0 - x2, which is at least 1
        phi2 = _dd_series(x1, 0.0, 2) if -x1 <= ZOH_SERIES_SPAN else (_phi1(x1) - 1.0) / x1
        d2 = (_phi1(x1) - e12) / -x2
        d3 = (phi2 - d2) / -x2

    def nearest_mode(d):
        """(e^x, x, d - lam) of the mode nearest the diagonal entry d."""
        if abs(d - lam1) <= abs(d - lam2):
            return math.exp(x1), x1, -p * q / (d - lam2)
        return math.exp(x2), x2, -p * q / (d - lam1)

    (es, xs, ds), (er, xr, dr) = nearest_mode(s), nearest_mode(r)
    TT = T * T
    Phi = np.array([
        [1.0, T * _phi1(xs) + TT * d2 * ds, TT * d2 * p],
        [0.0, es + T * e12 * ds, T * e12 * p],
        [0.0, T * e12 * q, er + T * e12 * dr],
    ])
    Gamma = np.array([[g * TT * T * d3 * p], [g * TT * d2 * p],
                      [g * (T * _phi1(xr) + TT * d2 * dr)]])
    return Phi, Gamma


# the discretizations a motor may name, each mapping (A, B, T) to (Phi, Gamma)
DISCRETIZERS = {"euler": euler_discretize, "zoh": zoh_discretize}


def build_vertex_set(motor: MotorConfig) -> VertexSet:
    """The motor's polytopic vertex models at its friction range (b_min,
    b_max), at its sample time T under its discretization D, one entry of
    DISCRETIZERS: Phi_i = D(A(b_i), B, T)[0] at each vertex and the shared
    Gamma = D(A(b_m), B, T)[1] at the nominal viscous coefficient b_m.
    """
    rho, T, mode = (motor.b_min, motor.b_max), motor.sample_time, motor.discretization
    discretize = DISCRETIZERS[mode]
    # a model that leaves float range is refused below, not warned about
    with np.errstate(all="ignore"):
        phis = [discretize(*build_continuous_model(motor, r), T)[0] for r in rho]
        _, Gamma = discretize(*build_continuous_model(motor, motor.b_m), T)
    if not all(np.isfinite(a).all() for a in (*phis, Gamma)):
        raise ParameterError(
            f"the {mode} discrete model at T = {T!r} s is not finite; "
            "the motor's time constants are out of float range at this sample time"
        )
    return VertexSet(rho=rho, Phi_vertices=tuple(phis), Gamma=Gamma, T=T, mode=mode)
