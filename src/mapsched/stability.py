"""Quadratic stability certification of the scheduled closed loop.

A common Lyapunov matrix for all vertex closed loops certifies every convex
combination: A' P A - P < 0 is, by a Schur complement, an LMI linear in A,
so it holds on the convex hull once it holds at the vertices. On top of
that, Lipschitz constants of the polytopic maps give the largest scheduling
mismatch eps_star for which exponential stability survives, with overshoot
constant C and contraction rate lambda.

The common-P search is a heuristic (averaged Lyapunov solutions), so failure
is reported as "not certified", never as "unstable".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .errors import CertificationError, NumericalError, ParameterError
from .motor import VertexSet, _frozen


@dataclass(frozen=True)
class MismatchAssumptions:
    """Bound on the scheduling estimation error."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ParameterError("mismatch bound must be non-negative")


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
    epsilon_used: float

    def __post_init__(self):
        object.__setattr__(self, "P_lyap", _frozen(self.P_lyap))
        object.__setattr__(self, "vertex_margins", _frozen(self.vertex_margins))


def dlyap_series(A: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """Solve A' P A - P = -rhs (rhs defaults to I) for a Schur-stable A, whose
    solution is the convergent series P = sum_k (A')^k rhs A^k."""
    A = np.asarray(A, dtype=float)
    if float(np.max(np.abs(np.linalg.eigvals(A)))) >= 1.0:
        raise NumericalError("Lyapunov series diverges: spectral radius >= 1")
    return _dlyap(A, rhs)


def _dlyap(A: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """`dlyap_series` without its spectral-radius check, for a float array A
    already known to be Schur stable."""
    rhs = np.eye(A.shape[0]) if rhs is None else np.asarray(rhs, dtype=float)
    P = solve_discrete_lyapunov(A.T, rhs)
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


def find_common_lyapunov(closed_loops, max_rounds: int = 500) -> LyapunovSearch:
    """Search for a single P certifying every vertex closed loop.

    Starts from the Lyapunov solution of the first vertex and repeatedly
    averages in the Lyapunov solutions of violating vertices until every
    vertex margin is positive, which certifies the whole convex hull. Each
    vertex must be Schur stable on its own (precondition); an exhausted
    search is an inconclusive report, not an instability proof.
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
    for rounds in range(1, max_rounds + 1):
        margins = vertex_margins(P, loops)
        if np.all(margins > 0.0):
            break
        for i in np.flatnonzero(margins <= 0.0):
            P = 0.5 * (P + _dlyap(loops[i]))
    else:
        margins = vertex_margins(P, loops)
    return LyapunovSearch(P=P, vertex_margins=margins, certified=bool(np.all(margins > 0.0)),
                          rounds=rounds)


def sample_simplex(n_samples: int, nv: int, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(nv), size=n_samples)


def verify_convex_stability(P: np.ndarray, closed_loops, n_samples: int = 1000,
                            seed: int = 42) -> float:
    """Minimum Lyapunov decrease margin over randomly sampled convex
    combinations of the vertex closed loops; deterministic for a given seed.

    Not part of `certify`: the margin is concave over the simplex, so it is
    never below the worst vertex margin. Kept as a reference check.
    """
    loops = np.stack([np.asarray(A, dtype=float) for A in closed_loops])
    weights = sample_simplex(n_samples, loops.shape[0], seed=seed)
    worst = np.inf
    for w in weights:
        A = np.tensordot(w, loops, axes=1)
        defect = A.T @ P @ A - P
        margin = -float(np.linalg.eigvalsh(0.5 * (defect + defect.T))[-1])
        worst = min(worst, margin)
    return worst


def lipschitz_constants(vertices: VertexSet, Gamma) -> tuple[float, float, float]:
    """Lipschitz constants of the polytopic maps rho -> Phi(rho), rho -> K(rho)
    and the combined closed-loop sensitivity L = L_phi + ||Gamma|| L_k.

    The two-vertex family is affine, so the constants are exact slopes; with
    more vertices the pairwise maximum slope is used.
    """
    if vertices.K_vertices is None:
        raise ParameterError("vertex gains have not been synthesized")
    Gamma = np.asarray(Gamma, dtype=float)
    L_phi = 0.0
    L_k = 0.0
    nv = vertices.n_vertices
    for i in range(nv):
        for j in range(i + 1, nv):
            gap = vertices.rho[j] - vertices.rho[i]
            if gap <= 0.0:
                raise ParameterError("coincident scheduling vertices")
            dphi = vertices.Phi_vertices[j] - vertices.Phi_vertices[i]
            dk = vertices.K_vertices[j] - vertices.K_vertices[i]
            L_phi = max(L_phi, float(np.linalg.norm(dphi, 2)) / gap)
            L_k = max(L_k, float(np.linalg.norm(dk, 2)) / gap)
    L = L_phi + float(np.linalg.norm(Gamma, 2)) * L_k
    return L_phi, L_k, L


def epsilon_star(P: np.ndarray, alpha: float, L: float,
                 epsilon: float | None = None) -> tuple[float, float, float]:
    """Mismatch budget eps_star = sqrt(alpha / (2 lambda_max(P) L^2)),
    overshoot constant C, and the contraction rate evaluated at `epsilon`
    (defaults to eps_star / 2).

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
    if epsilon is None:
        epsilon = 0.5 * eps_star
    alpha_tilde = alpha - hi * L * L * epsilon * epsilon
    if alpha_tilde <= 0.0:
        raise CertificationError(
            f"mismatch bound {epsilon:.3e} exceeds the certified budget (alpha_tilde <= 0)"
        )
    lam = float(np.sqrt(1.0 - alpha_tilde / hi))
    return eps_star, C, lam


def certify(vertices: VertexSet, Gamma=None,
            assumptions: MismatchAssumptions | None = None) -> StabilityCert:
    """Full certification pipeline for a gain-filled vertex set.

    Raises CertificationError when the common-P heuristic finds no P with a
    positive decrease margin at every vertex.
    """
    if vertices.K_vertices is None:
        raise ParameterError("vertex gains have not been synthesized")
    Gamma = vertices.Gamma if Gamma is None else np.asarray(Gamma, dtype=float)
    loops = [
        phi - Gamma @ K for phi, K in zip(vertices.Phi_vertices, vertices.K_vertices)
    ]
    search = find_common_lyapunov(loops)
    if not search.certified:
        raise CertificationError(
            "no common Lyapunov matrix found "
            f"(worst vertex margin {search.worst_margin:.3e}, after {search.rounds} rounds); "
            "this does not prove instability"
        )
    L_phi, L_k, L = lipschitz_constants(vertices, Gamma)
    eps_used = assumptions.epsilon if assumptions is not None else None
    eps_star, C, lam = epsilon_star(search.P, search.worst_margin, L, epsilon=eps_used)
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
        epsilon_used=eps_used if eps_used is not None else 0.5 * eps_star,
    )
