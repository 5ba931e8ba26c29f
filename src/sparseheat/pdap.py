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
Columns, states and adjoints are nodal vectors, zero on the boundary, as
the propagations return them.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverFailure
from .measures import PRUNE_TOL, DiscreteMeasure
from .timestepping import adjoint_dirac

# Nodes activated per outer iteration at most, the argmax node included;
# also the widest batch of columns propagated at once, as a wider one
# raises the peak RSS (8 seed columns in one batch: about +1 MB on
# `reconstruct`).
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
    max_outer_iterations iterations without convergence. Since j(q) - j*
    is at most the gap, tol must be below alpha: otherwise the stop
    certifies nothing better than j(q) <= j(0).
    """

    alpha: float
    tol: float = 1e-8
    max_outer_iterations: int = 200

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite positive number, got {self.tol}")
        if self.tol >= self.alpha:
            raise ValueError(f"tol must be below alpha = {self.alpha:g}, got {self.tol:g}")
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


class IterationLog(list):
    """Per-iteration history of gap, objective and support growth.

    A list of one `IterationRecord` per outer iteration, each with one
    adjoint evaluation. A warm-started log also has `start`, the row of
    the empty measure that the seed solve starts from: its objective is
    j(0) = alpha * M0, and its phi is NaN, as no adjoint is evaluated
    there. `write_csv` writes `start` first, so row 0 of every log.csv is
    the empty measure and gives the stopping threshold tol * M0.
    """

    start = None

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("n,phi,objective,support_size,new_node,subproblem_iters,inserted\n")
            for r in ([self.start] if self.start else []) + self:
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


def select_candidates(z, mass, boundary, active, alpha):
    """Nodes to activate for the adjoint nodal values z, argmax node first.

    The first node is the maximizer of |z| off the `boundary` mask, ties
    to the lowest node index. If it is already active, it is returned
    alone. Otherwise up to MAX_INSERTIONS - 1 more nodes follow, in
    decreasing |z| with ties to the lowest index: interior, inactive
    nodes with |z| > alpha that are maxima of |z| over their P1
    neighbours, the column pattern of their row in the (CSR, full) mass
    matrix.
    """
    absz = np.abs(z)
    # The first maximum breaks ties to the lowest node index; |z| >= 0 > -1
    # on the boundary.
    first = int(np.argmax(np.where(boundary, -1.0, absz)))
    if first in active:
        return [first]
    # Every row of the mass matrix holds its diagonal, so each
    # neighbourhood maximum includes the node itself.
    nbr_max = np.maximum.reduceat(absz[mass.indices], mass.indptr[:-1])
    ok = ~boundary
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


def solve_subproblem(G, c, alpha, beta0, tol, max_iter):
    """Minimize 0.5 b'Gb - c'b + alpha |b|_1 over the active coefficients.

    Feature-sign search (Lee, Battle, Raina & Ng, NIPS 2007): each step
    solves the smooth restriction to one sign pattern exactly, adding the
    most violating inactive coefficient once the pattern is stationary,
    and damps along the segment to the first sign flip, so it converges
    finitely. The exact solves keep it reliable on the Gram matrices of
    heat columns at neighbouring nodes, whose condition numbers exceed
    1e8 and defeat plain first-order methods. Returns (beta, steps), with
    steps 0 when beta0 already meets `tol`. Raises SolverFailure when the
    first-order residual is still above `tol` after `max_iter` steps.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    beta = np.asarray(beta0, dtype=float).copy()
    # Guard against tolerances below the floating-point floor of G@b - c.
    tol = max(tol, 1e-14 * max(1.0, float(np.abs(c).max(initial=0.0))))

    def f(b):
        return 0.5 * b @ G @ b - c @ b + alpha * np.abs(b).sum()

    for it in range(max_iter + 1):
        residual = _subgradient_residual(G, c, alpha, beta)
        if residual <= tol:
            return beta, it
        if it == max_iter:
            raise SolverFailure(
                f"subproblem stalled after {it} iterations at residual "
                f"{residual:.3e} (tol {tol:.3e}, m={c.size}, "
                f"cond(G)={np.linalg.cond(G):.3e})"
            )
        g = G @ beta - c
        active = beta != 0.0
        grow = -1
        if not active.any() or np.abs(g + alpha * np.sign(beta))[active].max() <= tol:
            # The pattern is stationary, so the residual lies off it.
            grow = int(np.argmax(np.where(active, -np.inf, np.abs(g))))
            active[grow] = True
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
        beta[idx] = cur + tstar * (b_new - cur)
        if jstar >= 0:
            beta[idx[jstar]] = 0.0


def run(model, u_d, config, seed_nodes=()):
    """Primal-dual active-point loop on the interior-node control space.

    Starting from the empty measure the loop alternates adjoint
    evaluation, candidate selection and the active-set subproblem,
    pruning coefficients of magnitude at most PRUNE_TOL (the rule of
    `DiscreteMeasure`) after each solve. Each iteration activates
    the argmax node of |z| and up to MAX_INSERTIONS - 1 inactive local
    maxima of |z| above alpha (`select_candidates`); their columns
    S(delta_node) are propagated together in one batched solve and
    cached, and the returned terminal state is assembled from them. Every
    iterate q, seeded or not, is certified by the gap
    phi = <z, q> + alpha TV(q) + M0 max(max_node |z| - alpha, 0). Stops
    when phi falls below config.tol * M0. Otherwise it returns the
    current iterate flagged as non-converged once the iteration cap is
    hit or the argmax node is already active: the subproblem is solved
    exactly on its sign pattern, so the gap is then at round-off and no
    further iteration can lower it.
    Logs one progress line per iteration to the "sparseheat" logger at
    INFO level.

    `seed_nodes` warm-starts the loop from a guess of the support, such
    as the seed that `mesh.refine_support` carries from a coarser level
    of a refinement study. Seeds take the insertion step of an outer
    iteration before the first adjoint evaluation: their columns are
    propagated in batches of at most MAX_INSERTIONS, in order, and the
    subproblem is solved on them from zero coefficients and pruned. The
    first outer iteration's record counts them, as every record counts
    the columns and subproblem steps of the insertions since the one
    before. The gap scale M0 is still that of the empty measure, which
    the log keeps as its `start` row, numbered 0, so the outer
    iterations of a warm-started log are numbered from 1. Raises
    ValueError for seed nodes that are not interior or repeat.
    """
    alpha = config.alpha
    boundary = model.mesh.boundary_mask
    seed_nodes = [int(i) for i in seed_nodes]
    if len(set(seed_nodes)) != len(seed_nodes):
        raise ValueError(f"seed nodes repeat: {seed_nodes}")
    for i in seed_nodes:
        if not 0 <= i < model.mesh.num_nodes or boundary[i]:
            raise ValueError(f"seed node {i} is not an interior node")
    ud_m = model.mass @ u_d  # c_i = col_i . (M u_d)
    ud_norm_sq = max(float(u_d @ ud_m), 0.0)

    active = []  # node indices into the full numbering
    beta = np.zeros(0)
    cols = []  # nodal vectors S(delta_node), aligned with `active`
    G = np.zeros((0, 0))
    c = np.zeros(0)
    inserted = steps = 0  # columns and subproblem steps the next record counts

    def insert(nodes):
        """Activates `nodes`, re-solves the subproblem and prunes."""
        nonlocal beta, G, c, cols, active, inserted, steps
        m, k = len(cols), len(nodes)
        new = []
        for first in range(0, k, MAX_INSERTIONS):
            batch = nodes[first : first + MAX_INSERTIONS]
            load = np.zeros((model.mesh.num_nodes, len(batch)))
            load[batch, np.arange(len(batch))] = 1.0
            new += [col.copy() for col in model.propagate_load(load).T]
        # Each Gram entry is one dot product, mirrored, so G stays exactly
        # symmetric. Dot products instead of a matrix product keep to the
        # BLAS kernels that single insertion used: a newly executed kernel
        # pages in library code and raises the peak RSS.
        G_new = np.zeros((m + k, m + k))
        G_new[:m, :m] = G
        for i, col in enumerate(new):
            row = model.pairings(model.mass @ col, cols + new[: i + 1])
            G_new[m + i, : m + i + 1] = G_new[: m + i + 1, m + i] = row
        G = G_new
        c = np.concatenate([c, model.pairings(ud_m, new)])
        cols.extend(new)
        active.extend(nodes)
        beta, its = solve_subproblem(
            G, c, alpha, np.concatenate([beta, np.zeros(k)]),
            SUBPROBLEM_TOL, SUBPROBLEM_MAX_ITERATIONS,
        )
        keep = np.abs(beta) > PRUNE_TOL
        if not keep.all():
            beta = beta[keep]
            G = G[np.ix_(keep, keep)]
            c = c[keep]
            cols = [col for col, on in zip(cols, keep) if on]
            active = [a for a, on in zip(active, keep) if on]
        inserted += k
        steps += its

    def objective():
        return (
            0.5 * float(beta @ G @ beta)
            - float(c @ beta)
            + 0.5 * ud_norm_sq
            + alpha * float(np.abs(beta).sum())
        )

    j = objective()
    m0 = j / alpha
    tol_abs = config.tol * m0
    log = IterationLog()
    if seed_nodes:
        log.start = IterationRecord(0, float("nan"), j, 0, -1, 0, 0)
        insert(seed_nodes)

    for n in range(config.max_outer_iterations + 1):
        started = time.perf_counter()
        j = objective()
        state = np.column_stack(cols) @ beta if cols else np.zeros(len(u_d))
        z = adjoint_dirac(model, state - u_d)
        pairing = float(beta @ z[active])
        zmax = float(np.abs(z).max())
        phi = pairing + alpha * float(np.abs(beta).sum()) + m0 * max(zmax - alpha, 0.0)

        converged = m0 == 0.0 or phi < tol_abs
        if not converged:
            nodes = select_candidates(z, model.mass, boundary, active, alpha)
        stop = converged or n == config.max_outer_iterations or nodes[0] in active
        support = len(active)
        if not stop:
            insert(nodes)
        r = IterationRecord(
            n + bool(seed_nodes), phi, j, support, -1 if stop else nodes[0],
            steps, inserted,
        )
        log.append(r)
        _log.info(
            "pdap n=%d phi=%.3e support=%d inserted=%d ms=%.1f",
            r.n, r.phi, r.support_size, r.inserted,
            1e3 * (time.perf_counter() - started),
        )
        inserted = steps = 0
        if stop:
            break

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

