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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import expm

from .errors import ParameterError

if TYPE_CHECKING:
    from .config import MotorConfig

# |omega| below this counts as "at rest" for the stiction branch
OMEGA_REST = 1e-6


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


def zoh_discretize(A: np.ndarray, B: np.ndarray, T: float):
    """Exact zero-order-hold pair via the augmented-matrix exponential."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = A.shape[0], B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = expm(M * T)
    return E[:n, :n], E[:n, n:]


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
