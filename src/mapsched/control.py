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
from functools import cache
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
    @cache
    def default(cls) -> "LqrWeights":
        """The stock weights: one validated, read-only instance, built on
        first use and shared by every caller."""
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


def _gain_and_defect(Phi, Gamma, Q, R, P) -> tuple:
    """LQR gain K = (Gamma' P Gamma + R)^-1 Gamma' P Phi of a DARE solution P,
    and the max-norm defect of P, Phi' P Phi - (Phi' P Gamma) K + Q - P."""
    PhiT_P, GammaT_P = Phi.T @ P, Gamma.T @ P
    K = np.linalg.solve(GammaT_P @ Gamma + R, GammaT_P @ Phi)
    defect = PhiT_P @ Phi - PhiT_P @ Gamma @ K + Q - P
    return K, float(np.max(np.abs(defect)))


def dare_residual(Phi, Gamma, Q, R, P) -> float:
    """Max-norm defect of P in the discrete algebraic Riccati equation."""
    return _gain_and_defect(Phi, Gamma, Q, R, P)[1]


def solve_dare(model: DiscreteModel, weights: LqrWeights) -> RiccatiSolution:
    """Stabilizing DARE solution and its LQR gain.

    The solution is validated against the residual bound, and the closed
    loop Phi - Gamma K must be Schur stable. A model whose entries overflow
    the solver's arithmetic fails as a NumericalError: the solve and the
    checks run with numpy's floating-point warnings off, and a non-finite
    gain is refused by the eigenvalue solver.
    """
    Phi, Gamma = model.Phi, model.Gamma
    Q, R = weights.Q, weights.R
    with np.errstate(all="ignore"):
        try:
            P = solve_discrete_are(Phi, Gamma, Q, R)
            K, residual = _gain_and_defect(Phi, Gamma, Q, R, P)
            radius = float(np.max(np.abs(np.linalg.eigvals(Phi - Gamma @ K))))
        except (LinAlgError, ValueError) as exc:
            raise NumericalError(
                f"Riccati equation has no stabilizing solution ({exc}); "
                "the model/weight pair is likely not stabilizable"
            ) from None
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


def maps_gain(mu, gains) -> tuple:
    """Probability-scheduled gain K = sum_i mu_i K[i], with each vertex gain
    K[i] given as a row of 3 floats; returns the 3 gain entries."""
    if len(mu) != len(gains):
        raise ValueError("one probability per vertex gain required")
    k0 = k1 = k2 = 0.0
    for w, (g0, g1, g2) in zip(mu, gains):
        k0 += w * g0
        k1 += w * g1
        k2 += w * g2
    return k0, k1, k2


def control_input(K, x_ref, x_hat, v_limit: float, feedforward: float = 0.0):
    """Error-feedback law u = K (x_ref - x_hat) + feedforward * theta_ref on
    the full-state reference (theta_ref, omega_ref, i_ref), saturated to
    +/- v_limit. Open-loop drive is K = 0 with feedforward 1.

    Returns (u, saturated) so callers can count saturation events.
    """
    k0, k1, k2 = K
    r0, r1, r2 = x_ref
    e0, e1, e2 = x_hat
    u = k0 * (r0 - e0) + k1 * (r1 - e1) + k2 * (r2 - e2) + feedforward * r0
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
