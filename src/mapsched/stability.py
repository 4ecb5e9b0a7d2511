"""Quadratic stability certification of the scheduled closed loop.

A common Lyapunov matrix for all vertex closed loops certifies every convex
combination: A' P A - P < 0 is, by a Schur complement, an LMI linear in A,
so it holds on the convex hull once it holds at the vertices. On top of
that, Lipschitz constants of the polytopic maps give the largest scheduling
mismatch eps_star for which exponential stability survives, with overshoot
constant C and contraction rate lambda, the rate taken at half that
budget. `certify` takes a gain-filled vertex set and reads the closed
loops, Gamma included, from its arrays.

The common-P search is a heuristic (averaged Lyapunov solutions), so failure
is reported as "not certified", never as "unstable".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ParameterError
from .motor import VertexSet, _frozen

# averaging rounds after which the common-P search reports no certificate
MAX_ROUNDS = 500


@dataclass(frozen=True)
class LyapunovSearch:
    """Outcome of the common-P search: P, per-vertex margins and
    feasibility."""

    P: np.ndarray
    vertex_margins: np.ndarray
    certified: bool
    rounds: int

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.vertex_margins))


@dataclass(frozen=True)
class StabilityCert:
    P_lyap: np.ndarray
    alpha: float
    vertex_margins: np.ndarray
    L_phi: float
    L_k: float
    L: float
    eps_star: float
    C: float
    lambda_: float

    def __post_init__(self):
        object.__setattr__(self, "P_lyap", _frozen(self.P_lyap))
        object.__setattr__(self, "vertex_margins", _frozen(self.vertex_margins))


def _dlyap(A: np.ndarray) -> np.ndarray:
    """Solve A' P A - P = -I for a float array A already known to be Schur
    stable; the solution is the convergent series P = sum_k (A')^k A^k,
    symmetrized. The direct method: vec P solves (I - A' (x) A') vec P =
    vec I, one n^2 x n^2 linear system."""
    n = A.shape[0]
    P = np.linalg.solve(np.eye(n * n) - np.kron(A.T, A.T), np.eye(n).reshape(-1)).reshape(n, n)
    return 0.5 * (P + P.T)


def vertex_margins(P: np.ndarray, closed_loops) -> np.ndarray:
    """Per-vertex decrease margins -lambda_max(A' P A - P); positive means the
    Lyapunov inequality holds at that vertex."""
    margins = []
    for A in closed_loops:
        A = np.asarray(A, dtype=float)
        defect = A.T @ P @ A - P
        margins.append(-float(np.linalg.eigvalsh(0.5 * (defect + defect.T))[-1]))
    return np.array(margins)


def find_common_lyapunov(closed_loops) -> LyapunovSearch:
    """Search for a single P certifying every vertex closed loop.

    Starts from the Lyapunov solution of the first vertex and repeatedly
    averages in the Lyapunov solutions of violating vertices until every
    vertex margin is positive, which certifies the whole convex hull, or
    MAX_ROUNDS rounds have passed. Each vertex must be Schur stable on its
    own (precondition); an exhausted search is an inconclusive report, not
    an instability proof.
    """
    loops = [np.asarray(A, dtype=float) for A in closed_loops]
    if not loops:
        raise ParameterError("need at least one closed loop")
    for i, A in enumerate(loops):
        radius = float(np.max(np.abs(np.linalg.eigvals(A))))
        if radius >= 1.0:
            raise ParameterError(
                f"vertex {i + 1} closed loop has spectral radius {radius:.6f} >= 1"
            )
    # every loop is Schur stable from here on, so each solve skips the check
    P = _dlyap(loops[0])
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        margins = vertex_margins(P, loops)
        if np.all(margins > 0.0):
            break
        for i in np.flatnonzero(margins <= 0.0):
            P = 0.5 * (P + _dlyap(loops[i]))
    else:
        margins = vertex_margins(P, loops)
    return LyapunovSearch(P=P, vertex_margins=margins, certified=bool(np.all(margins > 0.0)),
                          rounds=rounds)


def verify_convex_stability(P: np.ndarray, closed_loops, n_samples: int = 1000,
                            seed: int = 42) -> float:
    """Minimum Lyapunov decrease margin over convex combinations of the
    vertex closed loops drawn uniformly from the simplex; deterministic for
    a given seed.

    Not part of `certify`: the margin is concave over the simplex, so it is
    never below the worst vertex margin. The tests run it as a reference
    check, and the benchmark's tracer looks it up here.
    """
    loops = np.stack([np.asarray(A, dtype=float) for A in closed_loops])
    weights = np.random.default_rng(seed).dirichlet(np.ones(loops.shape[0]), size=n_samples)
    samples = [np.tensordot(w, loops, axes=1) for w in weights]
    return float(np.min(vertex_margins(P, samples), initial=np.inf))


def lipschitz_constants(vertices: VertexSet) -> tuple[float, float, float]:
    """Lipschitz constants of the polytopic maps rho -> Phi(rho), rho -> K(rho)
    and the combined closed-loop sensitivity L = L_phi + ||Gamma|| L_k.

    The two-vertex family is affine, so the constants are exact slopes:
    the vertices' differences over the gap rho[1] - rho[0], which is
    positive since the set's rho is strictly increasing.
    """
    gap = vertices.rho[1] - vertices.rho[0]
    (phi0, phi1), (k0, k1) = vertices.Phi_vertices, vertices.gains
    L_phi = float(np.linalg.norm(phi1 - phi0, 2)) / gap
    L_k = float(np.linalg.norm(k1 - k0, 2)) / gap
    L = L_phi + float(np.linalg.norm(vertices.Gamma, 2)) * L_k
    return L_phi, L_k, L


def epsilon_star(P: np.ndarray, alpha: float, L: float) -> tuple[float, float, float]:
    """Mismatch budget eps_star = sqrt(alpha / (2 lambda_max(P) L^2)),
    overshoot constant C, and the contraction rate at a mismatch of
    eps_star / 2, where the decrease left is alpha_tilde = 7 alpha / 8.

    The rate normalizes the Lyapunov decrease by lambda_max(P) so that
    ||x_k|| <= C * lambda^k * ||x_0|| holds along certified trajectories.
    """
    eigs = np.linalg.eigvalsh(0.5 * (P + P.T))
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0:
        raise ParameterError("P must be positive definite")
    if alpha <= 0.0 or L <= 0.0:
        raise ParameterError("need alpha > 0 and L > 0")
    eps_star = float(np.sqrt(alpha / (2.0 * hi * L * L)))
    C = float(np.sqrt(hi / lo))
    epsilon = 0.5 * eps_star
    alpha_tilde = alpha - hi * L * L * epsilon * epsilon
    lam = float(np.sqrt(1.0 - alpha_tilde / hi))
    return eps_star, C, lam


def certify(vertices: VertexSet) -> StabilityCert:
    """Full certification pipeline for a gain-filled vertex set, with the
    rate evaluated at a scheduling mismatch of eps_star / 2.

    Raises CertificationError when the common-P heuristic finds no P with a
    positive decrease margin at every vertex.
    """
    loops = [phi - vertices.Gamma @ K for phi, K in zip(vertices.Phi_vertices, vertices.gains)]
    search = find_common_lyapunov(loops)
    if not search.certified:
        raise CertificationError(
            "no common Lyapunov matrix found "
            f"(worst vertex margin {search.worst_margin:.3e}, after {search.rounds} rounds); "
            "this does not prove instability"
        )
    L_phi, L_k, L = lipschitz_constants(vertices)
    eps_star, C, lam = epsilon_star(search.P, search.worst_margin, L)
    return StabilityCert(
        P_lyap=search.P,
        alpha=search.worst_margin,
        vertex_margins=search.vertex_margins,
        L_phi=L_phi,
        L_k=L_k,
        L=L,
        eps_star=eps_star,
        C=C,
        lambda_=lam,
    )
