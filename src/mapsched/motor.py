"""DC motor models: physical parameters, linear state-space models
(continuous and discrete), the friction parameters, and the
polytopic vertex models used by the scheduled controller.

State ordering is [theta, omega, i] (rad, rad/s, A) throughout; the single
input is the armature voltage and the single measurement is theta.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ParameterError

# |omega| below this counts as "at rest" for the stiction branch
OMEGA_REST = 1e-6


def _frozen(a) -> np.ndarray:
    """Read-only float copy, for the arrays held by frozen dataclasses."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MotorParams:
    """Physical constants of the motor; inertias in kg*m^2, Lm in H, Rm in ohm."""

    Kt: float = 0.042        # torque constant, N*m/A
    Ke: float = 0.042        # back-EMF constant, V*s/rad
    Jr: float = 4.0e-6       # rotor inertia
    Jh: float = 0.6e-6       # hub inertia
    Jd: float = 1.6e-5       # disc inertia
    Lm: float = 1.16e-3      # inductance
    Rm: float = 8.4          # resistance
    b_m: float = 1.0e-5      # nominal viscous coefficient, N*m*s/rad
    Jeq: float = field(init=False)

    def __post_init__(self):
        for name in ("Kt", "Ke", "Jr", "Jh", "Jd", "Lm", "Rm", "b_m"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"motor parameter {name} must be strictly positive")
        object.__setattr__(self, "Jeq", self.Jr + self.Jh + self.Jd)


@dataclass(frozen=True)
class ContinuousModel:
    """Continuous linear model dx/dt = A x + B u, y = C x at a fixed viscous coefficient."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    viscous_coeff: float

    def __post_init__(self):
        A, B, C = _frozen(self.A), _frozen(self.B), _frozen(self.C)
        if A.shape != (3, 3) or B.shape != (3, 1) or C.shape != (1, 3):
            raise ParameterError("continuous model must be 3x3 / 3x1 / 1x3")
        if A[0, 1] != 1.0 or A[0, 0] != 0.0 or A[0, 2] != 0.0:
            raise ParameterError("first state must integrate omega: A row 0 = [0, 1, 0]")
        if B[0, 0] != 0.0 or B[1, 0] != 0.0:
            raise ParameterError("input must enter through the electrical state only")
        if not np.array_equal(C, [[1.0, 0.0, 0.0]]):
            raise ParameterError("measurement must be the angular position")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)


@dataclass(frozen=True)
class DiscreteModel:
    """Discrete model x+ = Phi x + Gamma u, z = H x at sample time T."""

    Phi: np.ndarray
    Gamma: np.ndarray
    H: np.ndarray
    T: float

    def __post_init__(self):
        if not self.T > 0.0:
            raise ParameterError("sample time must be positive")
        Phi, Gamma, H = _frozen(self.Phi), _frozen(self.Gamma), _frozen(self.H)
        if H.ndim != 2:
            raise ParameterError("H must be a matrix, one row per measurement")
        object.__setattr__(self, "Phi", Phi)
        object.__setattr__(self, "Gamma", Gamma)
        object.__setattr__(self, "H", H)


@dataclass(frozen=True)
class FrictionModel:
    """Static + Coulomb + viscous friction torque parameters."""

    tau_s: float = 0.003
    tau_c: float = 0.002
    b: float = 1.0e-5

    def __post_init__(self):
        if not (self.tau_s >= self.tau_c >= 0.0):
            raise ParameterError("friction requires tau_s >= tau_c >= 0")
        if self.b < 0.0:
            raise ParameterError("viscous coefficient must be non-negative")


@dataclass(frozen=True)
class VertexSet:
    """Polytopic vertex models Phi[i] = Phi0 + rho[i] * Phi_hat, plus the
    shared input/measurement maps the scheduled controller and filters use.

    Gains are synthesized separately; `with_gains` returns a filled copy.
    """

    rho: tuple
    Phi_vertices: tuple
    Phi0: np.ndarray
    Phi_hat: np.ndarray
    Gamma: np.ndarray
    H: np.ndarray
    T: float
    mode: str
    K_vertices: tuple | None = None

    def __post_init__(self):
        rho = tuple(float(r) for r in self.rho)
        if len(rho) < 2:
            raise ParameterError("a vertex set needs at least 2 vertices")
        if any(b <= a for a, b in zip(rho, rho[1:])):
            raise ParameterError("scheduling vertices must be strictly increasing")
        phis = tuple(_frozen(p) for p in self.Phi_vertices)
        if len(phis) != len(rho):
            raise ParameterError("one vertex matrix per scheduling value required")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "Phi_vertices", phis)
        object.__setattr__(self, "Phi0", _frozen(self.Phi0))
        object.__setattr__(self, "Phi_hat", _frozen(self.Phi_hat))
        object.__setattr__(self, "Gamma", _frozen(self.Gamma))
        object.__setattr__(self, "H", _frozen(self.H))
        if self.K_vertices is not None:
            object.__setattr__(self, "K_vertices", self._gain_rows(self.K_vertices))
        # the affine decomposition must reproduce the vertices exactly; only
        # an over-determined fit (zoh with >2 vertices) is allowed residual.
        # On finite matrices this decides as np.allclose(phi, recon, rtol=0,
        # atol=1e-10); a non-finite entry never passes
        if len(rho) == 2 or self.mode == "euler":
            for r, phi in zip(rho, phis):
                recon = self.Phi0 + r * self.Phi_hat
                if not float(np.max(np.abs(phi - recon))) <= 1e-10:
                    raise ParameterError("vertex matrices do not match Phi0 + rho*Phi_hat")

    def _gain_rows(self, gains) -> tuple:
        ks = tuple(_frozen(k) for k in gains)
        if len(ks) != len(self.rho):
            raise ParameterError("one gain row per vertex required")
        return ks

    @property
    def n_vertices(self) -> int:
        return len(self.rho)

    def with_gains(self, gains) -> "VertexSet":
        """A copy holding `gains`; the models were validated when this set
        was made, so only the gains are checked and frozen."""
        ks = self._gain_rows(gains)
        filled = copy.copy(self)
        object.__setattr__(filled, "K_vertices", ks)
        return filled

    def models(self) -> tuple:
        """Per-vertex discrete models sharing Gamma and H."""
        return tuple(
            DiscreteModel(Phi=phi, Gamma=self.Gamma, H=self.H, T=self.T)
            for phi in self.Phi_vertices
        )


def build_continuous_model(params: MotorParams, b: float) -> ContinuousModel:
    """Continuous state-space matrices at viscous coefficient b.

    A couples omega and i through the torque and back-EMF constants; the
    voltage input enters the electrical state through 1/Lm.
    """
    if b < 0.0:
        raise ParameterError("viscous coefficient must be non-negative")
    A = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, -b / params.Jeq, params.Kt / params.Jeq],
            [0.0, -params.Ke / params.Lm, -params.Rm / params.Lm],
        ]
    )
    B = np.array([[0.0], [0.0], [1.0 / params.Lm]])
    C = np.array([[1.0, 0.0, 0.0]])
    return ContinuousModel(A=A, B=B, C=C, viscous_coeff=float(b))


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


def build_vertex_set(params: MotorParams, rho_values, T: float,
                     mode: str = "euler") -> VertexSet:
    """Construct the polytopic vertex models at the given scheduling values.

    Under forward Euler the family is affine in rho by construction. Under
    exact ZOH each vertex is discretized independently and (Phi0, Phi_hat)
    is the per-entry affine least-squares fit, exact for two vertices. The
    shared Gamma is T*B under Euler and the ZOH input map at the nominal
    viscous coefficient otherwise.
    """
    rho = [float(r) for r in rho_values]
    if len(rho) < 2:
        raise ParameterError("need at least 2 scheduling vertices")
    if any(b <= a for a, b in zip(rho, rho[1:])):
        raise ParameterError("scheduling vertices must be strictly increasing")
    if mode not in ("euler", "zoh"):
        raise ParameterError(f"unknown discretization mode {mode!r}")
    if not T > 0.0:
        raise ParameterError("sample time must be positive")

    H = np.array([[1.0, 0.0, 0.0]])
    if mode == "euler":
        base = build_continuous_model(params, 0.0)
        Phi0, Gamma = euler_discretize(base.A, base.B, T)
        Phi_hat = np.zeros((3, 3))
        Phi_hat[1, 1] = -T / params.Jeq
        phis = [Phi0 + r * Phi_hat for r in rho]
    else:
        phis = []
        for r in rho:
            cm = build_continuous_model(params, r)
            phi, _ = zoh_discretize(cm.A, cm.B, T)
            phis.append(phi)
        nom = build_continuous_model(params, params.b_m)
        _, Gamma = zoh_discretize(nom.A, nom.B, T)
    if not all(np.isfinite(a).all() for a in (*phis, Gamma)):
        raise ParameterError(
            f"the {mode} discrete model at T = {T!r} s is not finite; "
            "the motor's time constants are out of float range at this sample time"
        )
    if mode == "zoh":
        # affine fit Phi(rho) ~ Phi0 + rho*Phi_hat, entrywise least squares
        design = np.column_stack([np.ones(len(rho)), rho])
        stacked = np.stack(phis).reshape(len(rho), 9)
        coef, *_ = np.linalg.lstsq(design, stacked, rcond=None)
        Phi0 = coef[0].reshape(3, 3)
        Phi_hat = coef[1].reshape(3, 3)

    return VertexSet(
        rho=tuple(rho),
        Phi_vertices=tuple(phis),
        Phi0=Phi0,
        Phi_hat=Phi_hat,
        Gamma=Gamma,
        H=H,
        T=T,
        mode=mode,
    )
