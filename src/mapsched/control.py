"""LQR synthesis and probabilistically scheduled gain computation.

The Riccati equation of a vertex's (Phi, Gamma) pair under the stock cost
weights Q_LQR and R_LQR is solved by the structure-preserving doubling
algorithm (`riccati_doubling`) and then checked against a residual bound
relative to its terms. Each distinct vertex problem is solved once per
process: `vertex_solutions` keeps every vertex's solution (P, K,
residual, closed-loop eigenvalue moduli), from which
`synthesize_vertex_gains` fills the design's gains and `maps gains`
reports the same solves (`cli.gain_report`). The per-tick scheduled gain
is the probability-weighted convex combination of the two vertex gains.
Sign convention: K is the regulator gain for which u = -K x stabilizes,
applied as u = K (x_ref - x_hat), so every closed loop is Phi - Gamma K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .motor import VertexSet, _frozen

# bound on the DARE defect relative to the equation's largest term
RESIDUAL_LIMIT = 1e-12
# doublings after which the Riccati iteration is taken to have failed; each
# one squares the error, so the stock designs settle in 9 to 22
DARE_MAX_ITER = 64
# distinct vertex Riccati problems whose solutions a process keeps
GAIN_MEMO_SIZE = 128


# the stock LQR cost weights, read-only: tight position regulation (Q
# penalizes state error), moderate input attenuation (R, input effort)
Q_LQR = _frozen(np.diag([100.0, 1.0, 1.0]))
R_LQR = _frozen([[10.0]])


@dataclass(frozen=True)
class RiccatiSolution:
    P: np.ndarray
    K: np.ndarray
    residual: float
    moduli: tuple  # |eig(Phi - Gamma K)|, ascending

    def __post_init__(self):
        object.__setattr__(self, "P", _frozen(self.P))
        object.__setattr__(self, "K", _frozen(self.K))


def _gain_and_defect(Phi, Gamma, Q, R, P) -> tuple:
    """LQR gain K = (Gamma' P Gamma + R)^-1 Gamma' P Phi of a DARE solution P,
    the max-norm defect of P, Phi' P Phi - (Phi' P Gamma) K + Q - P, and the
    largest |entry| of those four terms, the scale of the equation."""
    PhiT_P, GammaT_P = Phi.T @ P, Gamma.T @ P
    K = np.linalg.solve(GammaT_P @ Gamma + R, GammaT_P @ Phi)
    terms = (PhiT_P @ Phi, PhiT_P @ Gamma @ K, Q, P)
    defect = terms[0] - terms[1] + terms[2] - terms[3]
    return K, float(np.max(np.abs(defect))), float(np.abs(terms).max())


def riccati_doubling(Phi: np.ndarray, Gamma: np.ndarray, Q: np.ndarray,
                     R: np.ndarray) -> np.ndarray:
    """The DARE solution P by the structure-preserving doubling algorithm
    (Anderson, Int. J. Control 28(2), 1978; Chu, Fan, Lin & Wang, Int. J.
    Control 77(8), 2004): from A = Phi, G = Gamma R^-1 Gamma' and H = Q,

        A <- A W^-1 A,  G <- G + A W^-1 G A',  H <- H + A' H W^-1 A,

    W = I + G H, until a doubling leaves H unchanged. H converges
    quadratically to the stabilizing solution when there is one. Raises
    LinAlgError after DARE_MAX_ITER doublings, or when W is singular."""
    n = Phi.shape[0]
    A, H, eye = Phi, Q, np.eye(n)
    G = Gamma @ np.linalg.solve(R, Gamma.T)
    for _ in range(DARE_MAX_ITER):
        X = np.linalg.solve(eye + G @ H, np.hstack((A, G)))
        WA, WG = X[:, :n], X[:, n:]
        H_next = H + A.T @ H @ WA
        G = G + A @ WG @ A.T
        A = A @ WA
        if np.array_equal(H_next, H):
            return 0.5 * (H + H.T)
        H = H_next
    raise np.linalg.LinAlgError(f"the doubling did not settle in {DARE_MAX_ITER} doublings")


def solve_dare(Phi: np.ndarray, Gamma: np.ndarray, Q: np.ndarray,
               R: np.ndarray) -> RiccatiSolution:
    """Stabilizing DARE solution and its LQR gain for the float arrays Phi
    and Gamma of x+ = Phi x + Gamma u under the cost weights Q and R.

    The closed loop Phi - Gamma K must be Schur stable; its eigenvalue
    moduli, sorted, are kept with the solution. The defect of P, kept as
    its residual, must be at most RESIDUAL_LIMIT times the largest |entry|
    of Phi' P Phi, Phi' P Gamma K, Q and P, as round-off grows with those
    terms. A model whose entries overflow the solver's arithmetic fails as
    a NumericalError: the solve and the checks run with numpy's
    floating-point warnings off, and a non-finite gain is refused by the
    eigenvalue solver. A doubling that does not settle fails the same way.
    A failed solve of a model with an entry past 1/eps is blamed on the
    model's float range, not on its stabilizability.
    """
    with np.errstate(all="ignore"):
        try:
            P = riccati_doubling(Phi, Gamma, Q, R)
            K, residual, scale = _gain_and_defect(Phi, Gamma, Q, R, P)
            moduli = tuple(sorted(np.abs(np.linalg.eigvals(Phi - Gamma @ K)).tolist()))
        except (np.linalg.LinAlgError, ValueError) as exc:
            size = max(float(np.max(np.abs(Phi))), float(np.max(np.abs(Gamma))))
            if not size * np.finfo(float).eps <= 1.0:
                cause = (f"the discrete model's entries reach {size:.3g}, past float64 "
                         "round-off against its unit diagonal: the motor's time constants "
                         "are out of float range at this sample time")
            else:
                cause = "the model/weight pair is likely not stabilizable"
            raise NumericalError(
                f"Riccati equation has no stabilizing solution ({exc}); {cause}"
            ) from None
    if not moduli[-1] < 1.0:
        raise NumericalError(
            f"closed loop is not Schur stable (spectral radius {moduli[-1]:.6f}); "
            "the model/weight pair is not stabilizable-detectable"
        )
    if not residual <= RESIDUAL_LIMIT * scale < math.inf:
        raise NumericalError(f"Riccati residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e} "
                             f"of the equation's largest term, {scale:.3e}")
    return RiccatiSolution(P=P, K=K, residual=residual, moduli=moduli)


@lru_cache(maxsize=GAIN_MEMO_SIZE)
def _vertex_solution(phi_shape: tuple, phi_bytes: bytes, gamma_shape: tuple,
                     gamma_bytes: bytes) -> RiccatiSolution:
    """The read-only solution of the problem of the float64 (Phi, Gamma)
    with these shapes and C-order bytes, the only inputs of a solve under
    the stock weights. A solve that raises leaves nothing in the memo, so
    the same problem is solved (and fails) again on its next design."""
    return solve_dare(np.frombuffer(phi_bytes).reshape(phi_shape),
                      np.frombuffer(gamma_bytes).reshape(gamma_shape), Q_LQR, R_LQR)


def vertex_solutions(vertices: VertexSet) -> tuple:
    """The Riccati solution of each vertex's (Phi_i, Gamma) under the stock
    weights Q_LQR and R_LQR, in vertex order. Each distinct problem is
    solved once per process: the solutions of the last GAIN_MEMO_SIZE are
    kept, and a repeat returns its first solve's."""
    gamma = vertices.Gamma
    return tuple(_vertex_solution(phi.shape, phi.tobytes(), gamma.shape, gamma.tobytes())
                 for phi in vertices.Phi_vertices)


def synthesize_vertex_gains(vertices: VertexSet) -> VertexSet:
    """The gain-filled copy of `vertices`, one LQR gain per vertex from
    `vertex_solutions`."""
    return replace(vertices, K_vertices=[s.K for s in vertex_solutions(vertices)])


def maps_gain(mu, gains) -> tuple:
    """Probability-scheduled gain K = mu_0 K[0] + mu_1 K[1] of the two
    vertex gains, each a row of 3 floats; returns the 3 gain entries, each
    summed from 0.0 in vertex order. Any other count of weights or gains
    raises ValueError."""
    (w0, w1), ((a0, a1, a2), (b0, b1, b2)) = mu, gains
    return 0.0 + w0 * a0 + w1 * b0, 0.0 + w0 * a1 + w1 * b1, 0.0 + w0 * a2 + w1 * b2


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
