import dataclasses
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseheat import (
    DiscreteMeasure,
    assemble_mass,
    build_uniform,
    eval_field,
    l2_inner,
    l2_norm,
    tv_norm,
)
from sparseheat import pdap
from sparseheat.errors import ConfigError
from sparseheat.experiments import config_from_dict, make_observation
from sparseheat.pdap import (
    MAX_INSERTIONS,
    PdapConfig,
    _subgradient_residual,
    select_candidates,
    solve_subproblem,
)
from sparseheat.timestepping import HeatModel, TimeGrid, forward_dirac

from measure_helpers import adjoint_state, all_cells, objective


def make_model(n=8, M=8, r=0):
    return HeatModel(build_uniform(n), TimeGrid(0.1, M), r)


def test_config_validation():
    with pytest.raises(ValueError):
        PdapConfig(alpha=0.0)
    for tol in (-1.0, float("inf"), float("nan"), 1.0, 2.0):
        with pytest.raises(ValueError):
            PdapConfig(alpha=1.0, tol=tol)
    with pytest.raises(ValueError):
        PdapConfig(alpha=1.0, max_outer_iterations=-3)
    with pytest.raises(ConfigError):
        config_from_dict({"pdap": {"max_outer_iterations": -3}})
    for key, value in (
        ("tol_mode", "relative"),
        ("subproblem_tol", 1e-11),
        ("subproblem_max_iterations", 100),
        ("prune_threshold", 1e-12),
    ):
        with pytest.raises(ConfigError, match="unknown pdap keys"):
            config_from_dict({"pdap": {key: value}})
    cfg = PdapConfig(alpha=1.0, max_outer_iterations=0)
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "alpha",
        "tol",
        "max_outer_iterations",
    ]


def test_subproblem_1d_shrinkage():
    beta, _ = solve_subproblem(np.array([[1.0]]), np.array([2.0]), 0.5,
                               np.zeros(1), 1e-12, 50)
    assert beta[0] == pytest.approx(1.5, abs=1e-12)


def test_subproblem_1d_dead_zone():
    beta, _ = solve_subproblem(np.array([[1.0]]), np.array([0.4]), 0.5,
                               np.zeros(1), 1e-12, 50)
    assert beta[0] == 0.0


def test_subproblem_2d_separable():
    G = np.eye(2)
    c = np.array([3.0, -0.2])
    beta, _ = solve_subproblem(G, c, 1.0, np.zeros(2), 1e-12, 50)
    assert np.allclose(beta, [2.0, 0.0], atol=1e-12)


def test_subproblem_2d_against_grid_search():
    # Blockwise exhaustive search over [-4, 4]^2 at resolution 1e-3.
    G = np.eye(2)
    c = np.array([3.0, -0.2])
    alpha = 1.0
    grid = np.arange(-4.0, 4.0 + 1e-9, 1e-3)
    best_val, best_pt = np.inf, None
    for chunk_start in range(0, grid.size, 500):
        b1 = grid[chunk_start : chunk_start + 500][:, None]
        b2 = grid[None, :]
        vals = (
            0.5 * (b1**2 + b2**2)
            - c[0] * b1
            - c[1] * b2
            + alpha * (np.abs(b1) + np.abs(b2))
        )
        k = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[k] < best_val:
            best_val = vals[k]
            best_pt = (float(b1[k[0], 0]), float(b2[0, k[1]]))
    beta, _ = solve_subproblem(G, c, alpha, np.zeros(2), 1e-12, 50)
    assert abs(beta[0] - best_pt[0]) <= 1e-3
    assert abs(beta[1] - best_pt[1]) <= 1e-3


def test_subproblem_handles_near_collinear_columns():
    # Column pairs from neighboring mesh nodes are almost identical; the
    # solver must still reach the first-order tolerance.
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        base = rng.standard_normal((40, m))
        base[:, 1:] = base[:, [0]] + 10.0 ** (-rng.uniform(2, 7)) * base[:, 1:]
        G = base.T @ base
        c = base.T @ rng.standard_normal(40)
        alpha = 10.0 ** (-rng.uniform(0.5, 3)) * np.abs(c).max()
        tol = 1e-10 * max(1.0, np.abs(c).max())
        beta, _ = solve_subproblem(G, c, alpha, np.zeros(m), tol, 100)
        assert _subgradient_residual(G, c, alpha, beta) <= tol


def l1_objective(G, c, alpha, beta):
    return 0.5 * beta @ G @ beta - c @ beta + alpha * np.abs(beta).sum()


def enumerate_patterns(G, c, alpha):
    """Reference oracle: the best stationary point over all 3^m sign patterns.

    Each pattern's smooth restriction is solved directly; patterns whose
    solution contradicts the assumed signs are discarded, and the point
    with the smallest first-order residual wins. Viable for m <= 6.
    """
    m = c.size
    best = np.zeros(m)
    best_res = _subgradient_residual(G, c, alpha, best)
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=m):
        theta = np.asarray(signs)
        idx = np.flatnonzero(theta)
        if idx.size == 0:
            continue
        sub = G[np.ix_(idx, idx)]
        rhs = c[idx] - alpha * theta[idx]
        beta = np.zeros(m)
        beta[idx] = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        if np.any(np.sign(beta[idx]) != theta[idx]):
            continue
        res = _subgradient_residual(G, c, alpha, beta)
        if res < best_res:
            best, best_res = beta, res
    return best, best_res


HEAT_LATTICE = 16  # mesh_n of the heat columns; 15 x 15 interior nodes


@functools.lru_cache(maxsize=None)
def heat_model(T):
    return HeatModel(build_uniform(HEAT_LATTICE), TimeGrid(T, 8), 0)


@functools.lru_cache(maxsize=None)
def heat_column(T, i, j):
    """S(delta) at interior lattice node (i, j), on all nodes."""
    model = heat_model(T)
    load = np.zeros(model.mesh.num_nodes)
    load[(i + 1) * (HEAT_LATTICE + 1) + j + 1] = 1.0
    return model.propagate_load(load)


def heat_subproblem(T, anchor, offsets, weights, noise_seed, alpha_frac):
    """Gram system of heat columns at the interior lattice nodes anchor +
    offsets, as PDAP builds it: G = C' M C and c = C' M u_d for data u_d
    near span(C)."""
    mass = heat_model(T).mass
    C = np.column_stack(
        [heat_column(T, anchor[0] + di, anchor[1] + dj) for di, dj in offsets]
    )
    w = np.asarray(weights[: len(offsets)])
    rng = np.random.default_rng(noise_seed)
    u_d = C @ w + 1e-3 * np.abs(C @ w).max() * rng.standard_normal(C.shape[0])
    G = C.T @ (mass @ C)
    c = C.T @ (mass @ u_d)
    return G, c, alpha_frac * np.abs(c).max()


NEIGHBOUR = st.tuples(st.integers(-1, 1), st.integers(-1, 1))


@settings(max_examples=60, deadline=None)
@given(
    T=st.sampled_from([0.02, 0.1]),
    anchor=st.tuples(st.integers(1, 13), st.integers(1, 13)),
    offsets=st.lists(NEIGHBOUR, min_size=2, max_size=6, unique=True),
    weights=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
    noise_seed=st.integers(0, 2**16),
    alpha_frac=st.floats(1e-4, 0.5),
)
def test_subproblem_matches_oracle_on_neighbouring_heat_columns(
    T, anchor, offsets, weights, noise_seed, alpha_frac
):
    # Heat columns at neighbouring nodes are nearly collinear, so these
    # Gram matrices are the ill-conditioned case feature-sign search must
    # handle without a fallback.
    G, c, alpha = heat_subproblem(T, anchor, offsets, weights, noise_seed, alpha_frac)
    tol = max(1e-11, 1e-14 * max(1.0, np.abs(c).max()))
    beta, _ = solve_subproblem(G, c, alpha, np.zeros(c.size), 1e-11, 100)
    assert _subgradient_residual(G, c, alpha, beta) <= tol
    oracle, _ = enumerate_patterns(G, c, alpha)
    f_solver = l1_objective(G, c, alpha, beta)
    f_oracle = l1_objective(G, c, alpha, oracle)
    assert f_solver <= f_oracle + 1e-10 * max(1.0, abs(f_oracle))


def test_subproblem_matches_oracle_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        A = rng.standard_normal((10, m))
        G = A.T @ A
        c = A.T @ rng.standard_normal(10)
        alpha = rng.uniform(0.05, 1.0) * np.abs(c).max()
        beta, _ = solve_subproblem(G, c, alpha, np.zeros(m), 1e-12, 100)
        oracle, res = enumerate_patterns(G, c, alpha)
        assert res <= 1e-10
        assert np.allclose(beta, oracle, atol=1e-9)


def test_subproblem_spent_budget_returns_its_last_iterate():
    # A solve cut short does not raise: `run` certifies the iterate it
    # returns by the gap, as any other.
    offsets = [(0, 0), (0, 1), (1, 0), (1, 1), (-1, 0)]
    weights = [3.0, -2.0, 1.0, 4.0, -1.0]
    G, c, alpha = heat_subproblem(0.1, (7, 7), offsets, weights, 0, 1e-4)
    beta, steps = solve_subproblem(G, c, alpha, np.zeros(c.size), 1e-11, 1)
    assert steps == 1
    assert _subgradient_residual(G, c, alpha, beta) > 1e-11


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    alpha_frac=st.floats(0.05, 0.9),
    start=st.sampled_from(["zero", "random", "flipped"]),
)
def test_subproblem_reaches_the_oracle_from_any_start(m, seed, alpha_frac, start):
    # A warm start may carry wrong signs: the previous outer iterate's
    # coefficients, or an arbitrary guess. Each must end at the optimum.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((10, m))
    G = A.T @ A
    c = A.T @ rng.standard_normal(10)
    alpha = alpha_frac * np.abs(c).max()
    oracle, res = enumerate_patterns(G, c, alpha)
    assert res <= 1e-10
    beta0 = {
        "zero": np.zeros(m),
        "random": rng.standard_normal(m),
        "flipped": -oracle + 0.1 * rng.standard_normal(m),
    }[start]
    beta, _ = solve_subproblem(G, c, alpha, beta0, 1e-12, 100)
    assert np.allclose(beta, oracle, atol=1e-8)


def test_subproblem_warm_start_noop():
    G = np.array([[2.0]])
    c = np.array([3.0])
    beta0 = np.array([(3.0 - 0.5) / 2.0])
    beta, iters = solve_subproblem(G, c, 0.5, beta0, 1e-12, 50)
    assert iters == 0
    assert beta[0] == beta0[0]


@functools.lru_cache(maxsize=None)
def lattice_mass(n):
    return assemble_mass(build_uniform(n))


def select(z, active=(), alpha=1.0):
    n = math.isqrt(z.size) - 1  # z holds the (n + 1)^2 lattice nodes
    boundary = build_uniform(n).boundary_mask
    return select_candidates(z, lattice_mass(n), boundary, list(active), alpha)


def test_select_candidate_prefers_largest_and_lowest():
    mesh = build_uniform(4)
    interior = mesh.interior_nodes()
    z = np.zeros(mesh.num_nodes)
    z[interior[3]] = -2.0
    z[interior[5]] = 1.5
    assert select(z) == [interior[3], interior[5]]
    # Extra nodes need |z| strictly above alpha.
    assert select(z, alpha=1.5) == [interior[3]]
    # An active argmax node is returned alone; inactive extras wait.
    assert select(z, active=[interior[3]]) == [interior[3]]
    # Exact tie: the lower node index comes first.
    z[interior[5]] = 2.0
    assert select(z) == [interior[3], interior[5]]
    zero = np.zeros(mesh.num_nodes)
    assert select(zero) == [interior[0]]
    # A plateau over two neighbouring nodes: both are neighbourhood
    # maxima, taken in index order.
    plateau = np.zeros(mesh.num_nodes)
    plateau[interior[[0, 1, 8]]] = [2.0, -2.0, 2.0]
    assert select(plateau) == list(interior[[0, 1, 8]])
    # The cap holds the batch to MAX_INSERTIONS nodes, largest first.
    fine = build_uniform(8)
    spikes = np.zeros(fine.num_nodes)
    nodes = [2 * 9 + 2, 2 * 9 + 6, 6 * 9 + 2, 6 * 9 + 6, 4 * 9 + 4]
    spikes[nodes] = [5.0, 4.0, 3.0, 2.0, 6.0]
    expected = [nodes[4]] + nodes[:MAX_INSERTIONS - 1]
    assert select(spikes) == expected


def lattice_neighbours(mesh):
    """Each node's P1 neighbours, itself included, read off the cells."""
    nbrs = [{i} for i in range(mesh.num_nodes)]
    for cell in all_cells(mesh):
        for a in cell:
            nbrs[a].update(int(b) for b in cell)
    return nbrs


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 6),
    alpha=st.sampled_from([0.5, 1.0, 2.5]),
    data=st.data(),
)
def test_select_candidates_rule(n, alpha, data):
    # Values from a small set, so ties and plateaus are common.
    mesh = build_uniform(n)
    interior = mesh.interior_nodes()
    values = st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    z = np.zeros(mesh.num_nodes)  # z = 0 on the boundary
    z[interior] = data.draw(
        st.lists(values, min_size=interior.size, max_size=interior.size)
    )
    active = data.draw(st.lists(st.sampled_from(list(interior)), unique=True))
    nodes = select(z, active, alpha)
    absz = np.abs(z)

    top = absz[interior].max()
    assert nodes[0] == min(i for i in interior if absz[i] == top)
    assert len(set(nodes)) == len(nodes) <= MAX_INSERTIONS
    if nodes[0] in active:
        assert nodes == [nodes[0]]
        return
    nbrs = lattice_neighbours(mesh)
    interior_set = set(int(i) for i in interior)
    for i in nodes[1:]:
        assert i in interior_set and i not in active
        assert absz[i] > alpha
        assert all(absz[i] >= absz[j] for j in nbrs[i])
    qualifying = [
        i
        for i in interior_set - set(active) - {nodes[0]}
        if absz[i] > alpha and all(absz[i] >= absz[j] for j in nbrs[i])
    ]
    # Decreasing |z|; a plateau tie goes to the lowest index.
    expected = sorted(qualifying, key=lambda i: (-absz[i], i))
    assert nodes[1:] == expected[: MAX_INSERTIONS - 1]


def test_two_sources_enter_in_one_batched_propagation(monkeypatch):
    # Two separated sources are both local maxima of |z| at iteration 0,
    # so one outer iteration activates both with one (N, 2) propagation
    # and the next one certifies convergence.
    model = HeatModel(build_uniform(8), TimeGrid(0.01, 8), 0)
    truth = DiscreteMeasure([[0.25, 0.25], [0.75, 0.625]], [5.0, -4.0])
    u_d = forward_dirac(model, truth)
    loads, adjoints = [], []

    def counted(calls, fn):
        def wrapper(self, b):
            calls.append(np.shape(b))
            return fn(self, b)

        return wrapper

    monkeypatch.setattr(
        HeatModel, "propagate_load", counted(loads, HeatModel.propagate_load)
    )
    monkeypatch.setattr(
        HeatModel, "propagate_adjoint", counted(adjoints, HeatModel.propagate_adjoint)
    )
    res = pdap.run(model, u_d, PdapConfig(alpha=1e-3, tol=1e-8))
    assert res.converged
    assert loads == [(model.mesh.num_nodes, 2)]
    assert len(adjoints) == len(res.log) == 2
    assert [r.inserted for r in res.log] == [2, 0]
    assert sorted(res.measure.positions.tolist()) == sorted(truth.positions.tolist())


@functools.lru_cache(maxsize=None)
def off_grid_problem():
    """Two off-grid sources whose optimum spreads over eight nodes."""
    model = HeatModel(build_uniform(8), TimeGrid(0.01, 8), 0)
    truth = DiscreteMeasure([[0.3, 0.27], [0.7, 0.6]], [5.0, -4.0])
    u_d = forward_dirac(model, truth)
    cfg = PdapConfig(alpha=1e-3, tol=1e-10)
    return model, u_d, cfg, pdap.run(model, u_d, cfg)


def test_seed_with_the_optimal_support_stops_after_one_adjoint(monkeypatch):
    model, u_d, cfg, cold = off_grid_problem()
    assert len(cold.log) > 2
    loads, adjoints = [], []

    def counted(calls, fn):
        def wrapper(self, b):
            calls.append(np.shape(b))
            return fn(self, b)

        return wrapper

    monkeypatch.setattr(
        HeatModel, "propagate_load", counted(loads, HeatModel.propagate_load)
    )
    monkeypatch.setattr(
        HeatModel, "propagate_adjoint", counted(adjoints, HeatModel.propagate_adjoint)
    )
    res = pdap.run(model, u_d, cfg, cold.active_nodes)
    assert res.converged and res.gap < cfg.tol * res.m0
    assert res.m0 == cold.m0
    assert len(adjoints) == len(res.log) == 1
    # The seed columns go out in batches of at most MAX_INSERTIONS and
    # count in row 0.
    k, size = pdap.MAX_INSERTIONS, len(cold.active_nodes)
    assert loads == [(model.mesh.num_nodes, min(k, size - i)) for i in range(0, size, k)]
    assert res.log[0].inserted == len(cold.active_nodes)
    assert res.active_nodes == cold.active_nodes
    scale = np.abs(cold.state).max()
    assert np.allclose(res.state, cold.state, rtol=0.0, atol=1e-12 * scale)
    assert res.objective == pytest.approx(cold.objective, rel=1e-12)


def test_seed_of_more_than_max_insertions_nodes_propagates_in_batches(monkeypatch):
    # Nine seeds reach propagate_load as batches of 4, 4 and 1 unit
    # columns, in seed order.
    model, u_d, cfg, _ = off_grid_problem()
    seeds = model.mesh.interior_nodes()[:9].tolist()
    batches = []

    def propagate_load(self, b):
        batches.append(np.argmax(b, axis=0).tolist())
        return real_load(self, b)

    real_load = HeatModel.propagate_load
    monkeypatch.setattr(HeatModel, "propagate_load", propagate_load)
    pdap.run(model, u_d, dataclasses.replace(cfg, max_outer_iterations=0), seeds)
    assert batches == [seeds[:4], seeds[4:8], seeds[8:]]


@pytest.mark.parametrize("seeded", [False, True], ids=["cold", "seeded"])
def test_log_counts_every_propagated_column_and_subproblem_step(monkeypatch, seeded):
    # Seeds and each iteration's candidates take one insertion step, and
    # the log accounts for every column it propagates and every step of
    # its subproblem solves: a seeded run stopping at its first record
    # counts the seed there.
    model, u_d, cfg, cold = off_grid_problem()
    columns, steps = [], []
    real_load, real_solve = HeatModel.propagate_load, pdap.solve_subproblem

    def propagate_load(self, b):
        columns.append(np.shape(b)[1])
        return real_load(self, b)

    def solve_subproblem(*args):
        beta, its = real_solve(*args)
        steps.append(its)
        return beta, its

    monkeypatch.setattr(HeatModel, "propagate_load", propagate_load)
    monkeypatch.setattr(pdap, "solve_subproblem", solve_subproblem)
    res = pdap.run(model, u_d, cfg, cold.active_nodes if seeded else ())
    assert res.converged
    assert len(res.log) == (1 if seeded else len(cold.log))
    assert sum(r.inserted for r in res.log) == sum(columns) > 0
    assert sum(r.subproblem_iters for r in res.log) == sum(steps) > 0
    if seeded:
        assert sum(columns) == len(cold.active_nodes) and len(steps) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_from_any_seed_reaches_the_cold_optimum(data):
    # Seeds may be anything interior, nodes far from every source
    # included: the loop still certifies the optimum, and a seed node that
    # stays in the support carries the optimal weight.
    model, u_d, cfg, cold = off_grid_problem()
    seed = data.draw(
        st.lists(st.sampled_from(model.interior.tolist()), unique=True, max_size=10)
    )
    res = pdap.run(model, u_d, cfg, seed)
    bound = cfg.tol * res.m0
    assert res.converged and res.gap < bound
    assert abs(res.objective - cold.objective) <= bound
    assert sum(r.inserted for r in res.log) >= len(seed)
    weights = dict(zip(cold.active_nodes, cold.coefficients))
    scale = np.abs(cold.coefficients).max()
    for node, b in zip(res.active_nodes, res.coefficients):
        if node in seed:
            assert node in weights
            assert b == pytest.approx(weights[node], abs=1e-8 * scale)


def test_warm_started_log_keeps_each_row_at_its_own_iterate(tmp_path):
    # The seeded rows hold the objectives of their own iterates, each
    # within its gap of the final one; the empty measure the seed solve
    # starts from is a row of its own, row 0 of log.csv, with j(0) =
    # alpha * M0 and no gap, as no adjoint is evaluated there.
    model, u_d, cfg, cold = off_grid_problem()
    res = pdap.run(model, u_d, cfg, cold.active_nodes[:2])
    start, records = res.log.start, res.log
    assert len(records) >= 2
    assert (start.n, start.support_size, start.new_node, start.inserted) == (0, 0, -1, 0)
    assert math.isnan(start.phi) and start.objective == cfg.alpha * res.m0
    assert [r.n for r in records] == list(range(1, len(records) + 1))
    assert records[0].objective < start.objective
    for r in records:
        assert r.objective - res.objective <= r.phi + 1e-10
    assert records[-1].objective == res.objective
    res.log.write_csv(tmp_path / "log.csv")
    lines = (tmp_path / "log.csv").read_text().splitlines()
    assert len(lines) == 2 + len(records)
    assert lines[1].startswith("0,nan,") and lines[2].startswith("1,")
    assert cold.log.start is None


def test_seed_nodes_must_be_distinct_interior_nodes():
    model = make_model(n=4, M=2)
    u_d = np.ones(model.mesh.num_nodes)
    cfg = PdapConfig(alpha=1e-3)
    inner = int(model.interior[0])
    boundary = int(np.flatnonzero(model.mesh.boundary_mask)[0])
    outside = model.mesh.num_nodes
    for seed in ([boundary], [inner, boundary], [inner, inner], [-1], [outside]):
        with pytest.raises(ValueError):
            pdap.run(model, u_d, cfg, seed)


def primal_dual_gap(mesh, q, z0, alpha, m0, form="identity"):
    """Oracle for the gap certificate of `pdap.run`.

    The identity form m0 * (max_node |z0| - alpha) is valid for iterates
    that follow a subproblem solve. The general form

        <z0, q> + alpha TV(q) + m0 * max(max_node |z0| - alpha, 0)

    is valid for any iterate (in particular iteration 0) and agrees with
    the identity form after a subproblem solve.
    """
    zmax = float(np.abs(z0).max()) if z0.size else 0.0
    if form == "identity":
        return m0 * (zmax - alpha)
    pairing = float(q.coefficients @ eval_field(mesh, z0, q.positions))
    return pairing + alpha * tv_norm(q) + m0 * max(zmax - alpha, 0.0)


def test_gap_forms_agree_after_subproblem():
    # Use a weight small enough that the solution keeps a nonzero support,
    # so the closed gap form applies at the final iterate. The second run
    # is warm-started from every other node of the first run's support.
    model = make_model(n=8, M=4)
    rng = np.random.default_rng(1)
    u_d = rng.standard_normal(model.mesh.num_nodes)
    cfg = PdapConfig(alpha=0.01, tol=1e-10, max_outer_iterations=60)
    cold = pdap.run(model, u_d, cfg)
    warm = pdap.run(model, u_d, cfg, cold.active_nodes[::2])
    assert warm.log.start is not None
    for res in (cold, warm):
        assert len(res.measure) > 0
        z = adjoint_state(model, u_d, res.measure)
        ident = primal_dual_gap(
            model.mesh, res.measure, z, cfg.alpha, res.m0, form="identity"
        )
        general = primal_dual_gap(
            model.mesh, res.measure, z, cfg.alpha, res.m0, form="general"
        )
        assert ident == pytest.approx(general, abs=1e-10 * max(res.m0, 1.0))
        assert res.gap == pytest.approx(general, abs=1e-10 * max(res.m0, 1.0))
        assert all(r.phi >= -1e-12 for r in res.log)


def test_gap_zero_when_max_equals_alpha():
    mesh = build_uniform(4)
    z = np.zeros(mesh.num_nodes)
    z[mesh.interior_nodes()[0]] = 0.05
    assert primal_dual_gap(mesh, DiscreteMeasure(), z, 0.05, 3.0) == pytest.approx(0.0)


def test_run_zero_data_converges_immediately():
    model = make_model(n=4, M=2)
    u_d = np.zeros(model.mesh.num_nodes)
    res = pdap.run(model, u_d, PdapConfig(alpha=1e-3, tol=1e-8))
    assert res.converged
    assert len(res.measure) == 0
    assert res.gap == 0.0
    assert len(res.log) == 1


def test_run_recovers_single_source_structure():
    model = make_model(n=8, M=8)
    node = 4 * 9 + 4  # the central node of the 9 x 9 lattice
    truth = DiscreteMeasure([model.mesh.nodes[node]], [4.0])
    u_d = forward_dirac(model, truth)
    alpha = 1e-3
    res = pdap.run(model, u_d, PdapConfig(alpha=alpha, tol=1e-9))
    assert res.converged
    zi = res.adjoint
    assert np.abs(zi).max() <= alpha + 1e-8
    for n_, b in zip(res.active_nodes, res.coefficients):
        assert zi[n_] + alpha * np.sign(b) == pytest.approx(0.0, abs=1e-8)
    # The dominant recovered atom sits at the true node.
    dominant = res.active_nodes[int(np.argmax(np.abs(res.coefficients)))]
    assert dominant == node


def test_run_monotone_and_gap_bounds():
    model = make_model(n=8, M=8)
    rng = np.random.default_rng(2)
    u_d = rng.standard_normal(model.mesh.num_nodes)
    res = pdap.run(model, u_d, PdapConfig(alpha=0.02, tol=1e-10))
    assert res.converged
    records = res.log
    for a, b in zip(records, records[1:]):
        assert b.objective <= a.objective + 1e-12
    for r in records[1:]:
        assert r.phi >= -1e-12
        # The gap bounds the distance to the final objective.
        assert r.objective - res.objective <= r.phi + 1e-10


def test_run_objective_matches_recompute():
    model = make_model(n=8, M=4)
    rng = np.random.default_rng(3)
    u_d = rng.standard_normal(model.mesh.num_nodes)
    cfg = PdapConfig(alpha=0.05, tol=1e-9)
    res = pdap.run(model, u_d, cfg)
    recomputed = objective(model, u_d, res.measure, cfg.alpha)
    assert res.objective == pytest.approx(recomputed, rel=1e-10, abs=1e-12)
    state = forward_dirac(model, res.measure)
    assert np.allclose(res.state, state, rtol=1e-12, atol=1e-14)


def test_run_flags_non_convergence():
    model = make_model(n=8, M=4)
    rng = np.random.default_rng(4)
    u_d = rng.standard_normal(model.mesh.num_nodes)
    res = pdap.run(model, u_d, PdapConfig(alpha=1e-4, tol=1e-12, max_outer_iterations=1))
    assert not res.converged
    assert len(res.measure) >= 1


def test_run_stops_unconverged_once_the_argmax_node_is_active():
    # tol 1e-24 is far below the round-off of the gap, about 1e-16 M0 here,
    # so the stop cannot hang on the last bits of a summation order. Once
    # the argmax node is already active the exactly solved subproblem
    # leaves nothing to gain, so the solve ends there instead of running
    # to the iteration cap.
    model = HeatModel(build_uniform(16), TimeGrid(0.1, 32), 0)
    truth = DiscreteMeasure([[0.3, 0.3], [0.7, 0.65]], [-10.0, 25.0])
    u_d = make_observation(model, truth, 0.05, 3)
    cfg = PdapConfig(alpha=1e-3, tol=1e-24, max_outer_iterations=200)
    res = pdap.run(model, u_d, cfg)
    assert not res.converged
    assert len(res.log) < cfg.max_outer_iterations
    last = res.log[-1]
    assert (last.new_node, last.subproblem_iters, last.inserted) == (-1, 0, 0)
    assert select_candidates(
        res.adjoint, model.mass, model.mesh.boundary_mask, res.active_nodes, cfg.alpha
    )[0] in res.active_nodes
    assert res.gap < 1e-13 * res.m0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), alpha=st.floats(0.005, 0.05))
def test_gap_bounds_the_objective_after_a_spent_subproblem_budget(seed, alpha):
    # Coefficient solves cut at 0-3 steps leave iterates that the gap
    # still certifies: j(q) - j* <= phi, with j* from a full-budget solve
    # to tol 1e-12. A run that converges anyway ends on the full-budget
    # support; one that does not is flagged unconverged.
    model = make_model(n=8, M=4)
    u_d = np.random.default_rng(seed).standard_normal(model.mesh.num_nodes)
    best = pdap.run(model, u_d, PdapConfig(alpha=alpha, tol=1e-12))
    assert best.converged
    cfg = PdapConfig(alpha=alpha, tol=1e-10, max_outer_iterations=50)
    for budget in range(4):
        with mock.patch.object(pdap, "SUBPROBLEM_MAX_ITERATIONS", budget):
            res = pdap.run(model, u_d, cfg)
        assert res.objective - best.objective <= res.gap + 1e-14 * alpha * res.m0
        if res.converged:
            assert sorted(res.active_nodes) == sorted(best.active_nodes)


def test_objective_of_empty_measure():
    model = make_model(n=4, M=2)
    rng = np.random.default_rng(8)
    u_d = rng.standard_normal(model.mesh.num_nodes)
    val = objective(model, u_d, DiscreteMeasure(), alpha=0.3)
    assert val == pytest.approx(0.5 * l2_norm(model.mass, u_d) ** 2, rel=1e-12)
    assert val >= 0.0


def test_adjoint_state_zero_control():
    model = make_model(n=4, M=2)
    rng = np.random.default_rng(5)
    u_d = rng.standard_normal(model.mesh.num_nodes)
    z = adjoint_state(model, u_d, DiscreteMeasure())
    from sparseheat.timestepping import adjoint_dirac

    assert np.allclose(z, adjoint_dirac(model, -u_d), atol=1e-14)


def test_iteration_log_csv(tmp_path):
    model = make_model(n=4, M=2)
    rng = np.random.default_rng(6)
    u_d = rng.standard_normal(model.mesh.num_nodes)
    res = pdap.run(model, u_d, PdapConfig(alpha=0.05, tol=1e-8))
    path = tmp_path / "log.csv"
    res.log.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,phi,objective,support_size,new_node,subproblem_iters,inserted"
    assert len(lines) == len(res.log) + 1
