"""Primal-dual active-point solver for the measure-space control problem.

Minimizes  j(q) = 0.5 ||S q - u_d||^2 + alpha * TV(q)  over measures
supported on interior mesh nodes, where S is the discrete heat
propagator. Each outer iteration evaluates the adjoint state z, adds the
maximizing node of |z| to the active set together with up to
MAX_INSERTIONS - 1 further local maxima of |z| above alpha (a multi-point
conditional-gradient step, as in Pieper & Walter, ESAIM: COCV 27, 2021),
propagates the new columns in one batched solve, and re-solves an
l1-regularized least-squares problem in the active coefficients. The
primal-dual gap certifies suboptimality and drives the stopping test.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverFailure
from .measures import PRUNE_TOL, DiscreteMeasure, tv_norm
from .timestepping import adjoint_dirac, forward_dirac

# Nodes activated per outer iteration at most, the argmax node included.
MAX_INSERTIONS = 4
# First-order residual target and iteration budget of the coefficient
# solves; running out of iterations is a SolverFailure.
SUBPROBLEM_TOL = 1e-11
SUBPROBLEM_MAX_ITERATIONS = 100

_log = logging.getLogger("sparseheat")


@dataclass
class PdapConfig:
    """Regularization weight and stopping rule of `run`.

    The outer loop stops once the gap drops below tol * M0, where
    M0 = j(0)/alpha is the gap scale, j(0) being the objective of the
    empty measure, or after
    max_outer_iterations iterations without convergence.
    """

    alpha: float
    tol: float = 1e-8
    max_outer_iterations: int = 200

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite positive number, got {self.tol}")
        if self.max_outer_iterations < 0:
            raise ValueError("max_outer_iterations must be nonnegative")


@dataclass
class IterationRecord:
    n: int
    phi: float
    objective: float
    support_size: int
    new_node: int  # argmax node of |z|; -1 when the iteration only evaluated/stopped
    subproblem_iters: int
    inserted: int  # columns propagated in this iteration (first row: seeds too)


class IterationLog:
    """Per-iteration history of gap, objective and support growth.

    `records` holds one row per outer iteration, each with one adjoint
    evaluation. A warm-started log also has `start`, the row of the empty
    measure that the seed solve starts from: its objective is j(0) =
    alpha * M0, and its phi is NaN, as no adjoint is evaluated there.
    `write_csv` writes `start` first, so row 0 of every log.csv is the
    empty measure and gives the stopping threshold tol * M0.
    """

    def __init__(self):
        self.start = None
        self.records = []

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("n,phi,objective,support_size,new_node,subproblem_iters,inserted\n")
            for r in ([self.start] if self.start else []) + self.records:
                f.write(
                    f"{r.n},{r.phi:.17g},{r.objective:.17g},"
                    f"{r.support_size},{r.new_node},{r.subproblem_iters},"
                    f"{r.inserted}\n"
                )


@dataclass
class PdapResult:
    """Outcome of `run`.

    `state` is the terminal state S q of the returned measure, assembled
    from the cached columns (no extra propagation); `adjoint` is the
    adjoint trace S*(S q - u_d) of the same iterate.
    """

    measure: DiscreteMeasure
    log: IterationLog
    converged: bool
    objective: float
    gap: float
    state: np.ndarray
    adjoint: np.ndarray
    m0: float
    active_nodes: list = field(default_factory=list)
    coefficients: np.ndarray = field(default_factory=lambda: np.zeros(0))


def objective(model, u_d, q, alpha):
    """0.5 ||S q - u_d||^2 + alpha TV(q), recomputed from scratch."""
    resid = forward_dirac(model, q) - u_d
    sq = float(resid @ (model.mass @ resid))
    return 0.5 * max(sq, 0.0) + alpha * tv_norm(q)


def adjoint_state(model, u_d, q):
    """Initial adjoint trace S*(S q - u_d) as nodal values."""
    return adjoint_dirac(model, forward_dirac(model, q) - u_d)


def select_candidates(z, mass, interior, active, alpha):
    """Nodes to activate for the adjoint nodal values z, argmax node first.

    The first node is the interior maximizer of |z|, ties to the lowest
    node index. If it is already active, it is returned alone. Otherwise
    up to MAX_INSERTIONS - 1 more nodes follow, in decreasing |z| with
    ties to the lowest index: interior, inactive nodes with |z| > alpha
    that are maxima of |z| over their P1 neighbours, the column pattern
    of their row in the (CSR, full) mass matrix.
    """
    interior = np.asarray(interior)
    if interior.size == 0:
        raise ValueError("empty interior node list")
    absz = np.abs(z)
    first = int(interior[np.argmax(absz[interior])])
    if first in active:
        return [first]
    # Every row of the mass matrix holds its diagonal, so each
    # neighbourhood maximum includes the node itself.
    nbr_max = np.maximum.reduceat(absz[mass.indices], mass.indptr[:-1])
    ok = np.zeros(absz.size, dtype=bool)
    ok[interior] = True
    ok[list(active)] = False
    ok[first] = False
    ok &= (absz > alpha) & (absz >= nbr_max)
    # Repeated argmax rather than a sort: the first maximum breaks ties
    # to the lowest index, and no sorting kernel is paged in, which would
    # raise the peak RSS by its library code.
    cand = np.flatnonzero(ok)
    vals = absz[cand]
    nodes = [first]
    for _ in range(min(MAX_INSERTIONS - 1, cand.size)):
        i = int(np.argmax(vals))
        nodes.append(int(cand[i]))
        vals[i] = -1.0
    return nodes


def _gap_forms(pairing, tv, zmax, alpha, m0):
    """Identity and general gap forms from <z0, q>, TV(q) and max |z0|."""
    return m0 * (zmax - alpha), pairing + alpha * tv + m0 * max(zmax - alpha, 0.0)


def _subgradient_residual(G, c, alpha, beta):
    """Worst first-order violation of the l1 least-squares optimality system."""
    if beta.size == 0:
        return 0.0
    r = G @ beta - c
    on = np.abs(r + alpha * np.sign(beta))
    off = np.maximum(np.abs(r) - alpha, 0.0)
    return float(np.where(beta != 0.0, on, off).max())


def _sign_pattern_solve(G, c, alpha, idx, theta):
    """Stationary point of the smooth restriction with signs theta on idx."""
    sub = G[np.ix_(idx, idx)]
    rhs = c[idx] - alpha * theta
    try:
        x = np.linalg.solve(sub, rhs)
        x += np.linalg.solve(sub, rhs - sub @ x)  # one refinement step
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(sub, rhs, rcond=None)[0]
    return x


def _feature_sign_search(G, c, alpha, beta0, tol, max_iter):
    """Active-set semismooth Newton with sign line search (feature-sign search).

    Each step solves the restriction to the current sign pattern exactly
    and damps along the segment to the new point, stopping at the first
    sign flip when the full step is infeasible. Finitely convergent and
    stable on strongly correlated columns.
    """

    def f(b):
        return 0.5 * b @ G @ b - c @ b + alpha * np.abs(b).sum()

    beta = beta0.copy()
    best, fbest = beta.copy(), f(beta)
    for it in range(1, max_iter + 1):
        g = G @ beta - c
        active = beta != 0.0
        grow = -1
        act_res = (
            float(np.abs(g + alpha * np.sign(beta))[active].max())
            if active.any()
            else 0.0
        )
        if act_res <= tol:
            off_grad = np.where(active, -np.inf, np.abs(g))
            i0 = int(np.argmax(off_grad)) if (~active).any() else -1
            if i0 < 0 or off_grad[i0] <= alpha + tol:
                return beta, it, _subgradient_residual(G, c, alpha, beta) <= tol
            grow = i0
            active = active.copy()
            active[i0] = True
        idx = np.flatnonzero(active)
        theta = np.sign(beta[idx])
        if grow >= 0:
            theta[idx == grow] = -np.sign(g[grow])
        b_new = _sign_pattern_solve(G, c, alpha, idx, theta)
        cur = beta[idx]
        # Candidate steps: full step plus every zero crossing en route.
        candidates = [(1.0, -1)]
        denom = cur - b_new
        for j in range(idx.size):
            if denom[j] != 0.0:
                t = cur[j] / denom[j]
                if 0.0 < t < 1.0:
                    candidates.append((t, j))
        fmin, tstar, jstar = None, 1.0, -1
        for t, j in candidates:
            trial = beta.copy()
            trial[idx] = cur + t * (b_new - cur)
            if j >= 0:
                trial[idx[j]] = 0.0
            ft = f(trial)
            if fmin is None or ft < fmin:
                fmin, tstar, jstar = ft, t, j
        beta = beta.copy()
        beta[idx] = cur + tstar * (b_new - cur)
        if jstar >= 0:
            beta[idx[jstar]] = 0.0
        if fmin < fbest:
            best, fbest = beta.copy(), fmin
        if _subgradient_residual(G, c, alpha, beta) <= tol:
            return beta, it, True
    return best, max_iter, False

def solve_subproblem(G, c, alpha, beta0, tol, max_iter):
    """Minimize 0.5 b'Gb - c'b + alpha |b|_1 over the active coefficients.

    Feature-sign search (Lee, Battle, Raina & Ng, NIPS 2007): each step
    solves the smooth restriction to one sign pattern exactly and damps
    along the segment to the first sign flip, so it converges finitely.
    The exact solves keep it reliable on the Gram matrices of heat columns
    at neighbouring nodes, whose condition numbers exceed 1e8 and defeat
    plain first-order methods. Returns (beta, iterations). Raises
    SolverFailure, with the best iterate in `best_coefficients`, when the
    first-order residual is still above `tol` after `max_iter` steps.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    beta = np.asarray(beta0, dtype=float).copy()
    if c.size == 0:
        return beta, 0
    # Guard against tolerances below the floating-point floor of G@b - c.
    tol = max(tol, 1e-14 * max(1.0, float(np.abs(c).max())))
    if _subgradient_residual(G, c, alpha, beta) <= tol:
        return beta, 0
    if float(np.linalg.eigvalsh(G)[-1]) <= 0.0:
        return np.zeros_like(beta), 0

    beta, iters, ok = _feature_sign_search(G, c, alpha, beta, tol, max_iter)
    if not ok:
        raise SolverFailure(
            f"subproblem stalled after {iters} iterations at residual "
            f"{_subgradient_residual(G, c, alpha, beta):.3e} (tol {tol:.3e}, "
            f"m={c.size}, cond(G)={np.linalg.cond(G):.3e})",
            best_coefficients=beta,
        )
    return beta, iters


def run(model, u_d, config, seed_nodes=()):
    """Primal-dual active-point loop on the interior-node control space.

    Starting from the empty measure the loop alternates adjoint
    evaluation, candidate selection and the active-set subproblem,
    pruning coefficients of magnitude at most PRUNE_TOL (the rule of
    `DiscreteMeasure`) after each solve. Each iteration activates
    the argmax node of |z| and up to MAX_INSERTIONS - 1 inactive local
    maxima of |z| above alpha (`select_candidates`); their columns
    S(delta_node) are propagated together in one batched solve and
    cached, and the returned terminal state is assembled from them. When
    the argmax node is already active the gap stems from subproblem
    inexactness, so the subproblem tolerance is tightened and nothing is
    inserted. Stops when the gap falls below config.tol * M0; hitting the
    iteration cap returns the current iterate flagged as non-converged.
    Logs one progress line per iteration to the "sparseheat" logger at
    INFO level.

    `seed_nodes` warm-starts the loop from a guess of the support, such
    as the support found on a coarser level of a refinement study: their
    columns are propagated in one batched solve, the subproblem is solved
    on them from zero coefficients and pruned before the first adjoint
    evaluation. The first outer iteration's record counts the seed
    columns in `inserted` and the seed solve in `subproblem_iters`. The
    gap scale M0 is still that of the empty measure, which the log keeps
    as its `start` row, numbered 0, so the outer iterations of a
    warm-started log are numbered from 1. Raises ValueError for seed
    nodes that are not interior or repeat.
    """
    alpha = config.alpha
    interior = model.interior
    seed_nodes = [int(i) for i in seed_nodes]
    if len(set(seed_nodes)) != len(seed_nodes):
        raise ValueError(f"seed nodes repeat: {seed_nodes}")
    for i in seed_nodes:
        if not 0 <= i < model.mesh.num_nodes or model.mesh.boundary_mask[i]:
            raise ValueError(f"seed node {i} is not an interior node")
    ud_norm_sq = max(float(u_d @ (model.mass @ u_d)), 0.0)
    ud_pairing = (model.mass @ u_d)[interior]  # c_i = col_i . (M u_d)
    Mi = model.mass_int

    active = []  # node indices into the full numbering
    beta = np.zeros(0)
    cols = []  # interior vectors S(delta_node), aligned with `active`
    G = np.zeros((0, 0))
    c = np.zeros(0)

    def add_nodes(nodes):
        nonlocal beta, G, c
        m, k = len(cols), len(nodes)
        load = np.zeros((interior.size, k))
        load[np.searchsorted(interior, nodes), np.arange(k)] = 1.0
        new = [col.copy() for col in model.propagate_load(load).T]
        # Each Gram entry is one dot product, mirrored, so G stays exactly
        # symmetric. Dot products instead of a matrix product keep to the
        # BLAS kernels that single insertion used: a newly executed kernel
        # pages in library code and raises the peak RSS.
        G_new = np.zeros((m + k, m + k))
        G_new[:m, :m] = G
        for i, col in enumerate(new):
            col_m = Mi @ col
            for j, other in enumerate(cols + new[: i + 1]):
                G_new[m + i, j] = G_new[j, m + i] = col_m @ other
        G = G_new
        c = np.concatenate([c, [col @ ud_pairing for col in new]])
        cols.extend(new)
        active.extend(nodes)
        beta = np.concatenate([beta, np.zeros(k)])

    def prune():
        nonlocal beta, G, c, cols, active
        keep = np.abs(beta) > PRUNE_TOL
        if not keep.all():
            beta = beta[keep]
            G = G[np.ix_(keep, keep)]
            c = c[keep]
            cols = [col for col, k in zip(cols, keep) if k]
            active = [a for a, k in zip(active, keep) if k]

    def current_objective():
        if beta.size == 0:
            return 0.5 * ud_norm_sq
        return (
            0.5 * float(beta @ G @ beta)
            - float(c @ beta)
            + 0.5 * ud_norm_sq
            + alpha * float(np.abs(beta).sum())
        )

    def record(n, phi, j, support, node, sub_iters, inserted):
        if n == 0:  # the first record also accounts for the seed solve
            sub_iters += seed_iters
            inserted += len(seed_nodes)
        r = IterationRecord(
            n + bool(seed_nodes), phi, j, support, node, sub_iters, inserted
        )
        log.append(r)
        _log.info(
            "pdap n=%d phi=%.3e support=%d inserted=%d ms=%.1f",
            r.n, r.phi, r.support_size, r.inserted,
            1e3 * (time.perf_counter() - started),
        )

    j = current_objective()
    m0 = j / alpha
    tol_abs = config.tol * m0
    sub_tol = SUBPROBLEM_TOL
    log = IterationLog()
    converged = False
    seed_iters = 0
    if seed_nodes:
        log.start = IterationRecord(0, float("nan"), j, 0, -1, 0, 0)
        add_nodes(seed_nodes)
        beta, seed_iters = solve_subproblem(
            G, c, alpha, beta, sub_tol, SUBPROBLEM_MAX_ITERATIONS
        )
        prune()
        j = current_objective()

    for n in range(config.max_outer_iterations + 1):
        started = time.perf_counter()
        state = np.zeros(model.mesh.num_nodes)
        if beta.size:
            state[interior] = np.column_stack(cols) @ beta
        z = adjoint_dirac(model, state - u_d)
        zi = z[interior]
        zmax = float(np.abs(zi).max()) if zi.size else 0.0
        pairing = 0.0
        if beta.size:
            pos = np.searchsorted(interior, np.asarray(active))
            pairing = float(beta @ zi[pos])
        identity, general = _gap_forms(
            pairing, float(np.abs(beta).sum()), zmax, alpha, m0
        )
        # The identity form applies after a subproblem solve, which every
        # iterate but the cold start follows; it only drops below the
        # general form when the iterate is already optimal with slack
        # (max |z| < alpha), where the certificate is zero.
        phi = general if n == 0 and not seed_nodes else max(identity, general)

        if m0 == 0.0 or phi < tol_abs:
            record(n, phi, j, len(active), -1, 0, 0)
            converged = True
            break
        if n == config.max_outer_iterations:
            record(n, phi, j, len(active), -1, 0, 0)
            break

        nodes = select_candidates(z, model.mass, interior, active, alpha)
        support_before = len(active)
        if nodes[0] in active:
            # Gap now stems from subproblem inexactness; tighten and re-solve.
            sub_tol *= 0.1
            inserted = 0
        else:
            add_nodes(nodes)
            inserted = len(nodes)
        beta, sub_iters = solve_subproblem(
            G, c, alpha, beta, sub_tol, SUBPROBLEM_MAX_ITERATIONS
        )
        prune()

        record(n, phi, j, support_before, nodes[0], sub_iters, inserted)
        j = current_objective()

    measure = DiscreteMeasure(model.mesh.nodes[active], beta)
    return PdapResult(
        measure=measure,
        log=log,
        converged=converged,
        objective=j,
        gap=phi,
        state=state,
        adjoint=z,
        m0=m0,
        active_nodes=list(active),
        coefficients=beta.copy(),
    )

