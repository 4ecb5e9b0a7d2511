"""LQR synthesis and probabilistically scheduled gain computation.

The Riccati equation is solved by scipy's Schur (QZ) method and then
checked against a residual bound, vertex gains are synthesized offline, and
the per-tick scheduled gain is the probability-weighted convex combination
of the vertex gains. Sign convention: K is the regulator gain for which
u = -K x stabilizes, applied as u = K (x_ref - x_hat), so every closed loop
is Phi - Gamma K.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, solve_discrete_are

from .errors import NumericalError, ParameterError
from .motor import DiscreteModel, VertexSet, _frozen

RESIDUAL_LIMIT = 1e-9


@dataclass(frozen=True)
class LqrWeights:
    """Quadratic cost weights; Q penalizes state error, R input effort."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = _frozen(self.Q)
        R = _frozen(np.atleast_2d(self.R))
        if np.any(np.linalg.eigvalsh(0.5 * (Q + Q.T)) < -1e-12):
            raise ParameterError("Q_lqr must be positive semidefinite")
        if np.any(np.linalg.eigvalsh(0.5 * (R + R.T)) <= 0.0):
            raise ParameterError("R_lqr must be positive definite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)

    @classmethod
    def default(cls) -> "LqrWeights":
        # tight position regulation, moderate input attenuation
        return cls(Q=np.diag([100.0, 1.0, 1.0]), R=np.array([[10.0]]))


@dataclass(frozen=True)
class RiccatiSolution:
    P: np.ndarray
    K: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "P", _frozen(self.P))
        object.__setattr__(self, "K", _frozen(self.K))
        if not self.residual <= RESIDUAL_LIMIT:
            raise NumericalError(
                f"Riccati residual {self.residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}"
            )


def dare_residual(Phi, Gamma, Q, R, P) -> float:
    """Max-norm defect of P in the discrete algebraic Riccati equation."""
    G = Gamma.T @ P @ Gamma + R
    correction = Phi.T @ P @ Gamma @ np.linalg.solve(G, Gamma.T @ P @ Phi)
    defect = Phi.T @ P @ Phi - correction + Q - P
    return float(np.max(np.abs(defect)))


def solve_dare(model: DiscreteModel, weights: LqrWeights) -> RiccatiSolution:
    """Stabilizing DARE solution and its LQR gain.

    The solution is validated against the residual bound, and the closed
    loop Phi - Gamma K must be Schur stable.
    """
    Phi, Gamma = model.Phi, model.Gamma
    Q, R = weights.Q, weights.R
    try:
        P = solve_discrete_are(Phi, Gamma, Q, R)
    except (LinAlgError, ValueError) as exc:
        raise NumericalError(
            f"Riccati equation has no stabilizing solution ({exc}); "
            "the model/weight pair is likely not stabilizable"
        ) from None
    residual = dare_residual(Phi, Gamma, Q, R, P)
    K = np.linalg.solve(Gamma.T @ P @ Gamma + R, Gamma.T @ P @ Phi)
    closed = Phi - Gamma @ K
    radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    if not radius < 1.0:
        raise NumericalError(
            f"closed loop is not Schur stable (spectral radius {radius:.6f}); "
            "the model/weight pair is not stabilizable-detectable"
        )
    return RiccatiSolution(P=P, K=K, residual=residual)


def synthesize_vertex_gains(vertices: VertexSet, Gamma, weights: LqrWeights) -> VertexSet:
    """Solve one Riccati problem per vertex and return the gain-filled set."""
    Gamma = np.asarray(Gamma, dtype=float)
    gains = []
    for phi in vertices.Phi_vertices:
        model = DiscreteModel(Phi=phi, Gamma=Gamma, H=vertices.H, T=vertices.T)
        gains.append(solve_dare(model, weights).K)
    return vertices.with_gains(gains)


def maps_gain(mu, vertices: VertexSet) -> np.ndarray:
    """Probability-scheduled gain K = sum_i mu_i K[i]."""
    mu = np.asarray(mu, dtype=float)
    if vertices.K_vertices is None:
        raise ParameterError("vertex gains have not been synthesized")
    if mu.size != len(vertices.K_vertices):
        raise ValueError("one probability per vertex gain required")
    K = np.zeros_like(vertices.K_vertices[0])
    for w, Kv in zip(mu, vertices.K_vertices):
        K = K + w * Kv
    return K


def control_input(K: np.ndarray, x_ref, x_hat, v_limit: float):
    """Error-feedback law u = K (x_ref - x_hat) on the full-state reference
    (theta_ref, omega_ref, i_ref), saturated to +/- v_limit.

    Returns (u, saturated) so callers can count saturation events.
    """
    K = np.asarray(K, dtype=float).reshape(-1)
    e = np.asarray(x_ref, dtype=float) - np.asarray(x_hat, dtype=float).reshape(-1)
    u = float(K @ e)
    if u > v_limit:
        return v_limit, True
    if u < -v_limit:
        return -v_limit, True
    return u, False


def gain_report(vertices: VertexSet, solutions=None) -> dict:
    """JSON-friendly summary of the vertex gains and closed-loop eigenvalues."""
    if vertices.K_vertices is None:
        raise ParameterError("vertex gains have not been synthesized")
    report = {"mode": vertices.mode, "sample_time": vertices.T, "vertices": []}
    for i, (rho, phi, K) in enumerate(
        zip(vertices.rho, vertices.Phi_vertices, vertices.K_vertices)
    ):
        closed = phi - vertices.Gamma @ K
        moduli = sorted(float(m) for m in np.abs(np.linalg.eigvals(closed)))
        entry = {
            "index": i + 1,
            "rho": rho,
            "K": [float(v) for v in np.asarray(K).reshape(-1)],
            "closed_loop_eigenvalue_moduli": moduli,
        }
        if solutions is not None:
            entry["riccati_residual"] = solutions[i].residual
            entry["P"] = np.asarray(solutions[i].P).tolist()
        report["vertices"].append(entry)
    return report


def write_gain_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def write_gain_csv(path, report: dict) -> None:
    """One row per vertex: scheduling value, gain entries, eigenvalue moduli."""
    import csv

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["vertex", "rho", "k_theta", "k_omega", "k_current",
             "eig_mod_1", "eig_mod_2", "eig_mod_3"]
        )
        for entry in report["vertices"]:
            writer.writerow(
                [entry["index"], repr(entry["rho"]),
                 *[repr(v) for v in entry["K"]],
                 *[repr(v) for v in entry["closed_loop_eigenvalue_moduli"]]]
            )
