import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebpow

from sparseheat import (
    DiscreteMeasure,
    build_uniform,
    l2_inner,
    l2_norm,
    eval_field,
    spd_solve,
    tv_norm,
)
from sparseheat import pdap, timestepping
from sparseheat.experiments import first_eigenmode
from sparseheat.fem import delta_load, interior_mass, interior_stiffness, l2_load
from sparseheat.timestepping import (
    LAMBDA_1,
    HeatModel,
    InvariantSector,
    TimeGrid,
    adjoint_dirac,
    forward_dirac,
    forward_field,
    pade_step_oracle,
    power_weights,
    spectral_interval,
)

from measure_helpers import AscendingHeatModel, project_to_nodes, propagate_by_stepping
from measure_helpers import slab_lu


def make_model(n=4, M=4, r=0, T=0.1):
    return HeatModel(build_uniform(n), TimeGrid(T, M), r)


def embed(model, interior_values):
    return model.embed(interior_values)


def test_time_grid_uniform_sums_exactly():
    grid = TimeGrid(0.1, 256)
    assert (grid.T, grid.M, grid.k) == (0.1, 256, 0.1 / 256)
    assert type(grid.M) is int
    assert grid.M * grid.k == pytest.approx(0.1, abs=1e-16)
    grid3 = TimeGrid(0.1, 3)
    assert abs(grid3.M * grid3.k - 0.1) <= 1e-15


def test_time_grid_validation():
    for T in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            TimeGrid(T, 4)
    for M in (0, -2):
        with pytest.raises(ValueError):
            TimeGrid(1.0, M)


def test_dg_order_validated():
    with pytest.raises(ValueError):
        make_model(r=2)
    with pytest.raises(ValueError):
        pade_step_oracle(1.0, 1.0, 2)


def test_pade_oracle_dg0_value():
    assert pade_step_oracle(1.0, 0.5, 0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_pade_oracle_no_decay_at_zero():
    assert pade_step_oracle(0.0, 0.3, 0) == 1.0
    assert pade_step_oracle(0.0, 0.3, 1) == pytest.approx(1.0, abs=1e-14)


def test_pade_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        pade_step_oracle(1.0, 0.0, 0)
    with pytest.raises(ValueError):
        pade_step_oracle(-1.0, 0.5, 1)


def test_pade_oracle_dg1_third_order():
    # The dG(1) slab factor matches exp(-s) through third order; the
    # fourth-order defect is s^4/72, so s^4 bounds it with a wide margin.
    for s in (1e-2, 1e-3):
        val = pade_step_oracle(s, 1.0, 1)
        assert abs(val - np.exp(-s)) <= s**4
        assert abs(val - (1.0 - s + s * s / 2.0 - s**3 / 6.0)) <= s**4


def test_pade_oracle_dg1_closed_form():
    # Independent closed form of the (1,2) rational approximation.
    for s in (0.3, 1.0, 4.0):
        closed = (1.0 - s / 3.0) / (1.0 + 2.0 * s / 3.0 + s * s / 6.0)
        assert pade_step_oracle(s, 1.0, 1) == pytest.approx(closed, rel=1e-14)


def eigenbasis(model):
    interior = model.interior
    A = interior_stiffness(model.mesh).toarray()
    M = model.mass_int.toarray()
    return sla.eigh(A, M)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("M", [1, 4])
def test_forward_field_matches_step_oracle_per_eigenmode(r, M):
    # Small T keeps every per-step factor O(1), so cross-mode round-off
    # cannot pollute the per-mode relative comparison.
    model = make_model(n=4, M=M, r=r, T=0.0025)
    lam, W = eigenbasis(model)
    for j in range(len(lam)):
        w = W[:, j]
        out = forward_field(model, embed(model, w))
        factor = pade_step_oracle(lam[j], model.grid.k, r) ** M
        got = out[model.interior]
        assert np.linalg.norm(got - w * factor) <= 1e-10 * abs(factor) * np.linalg.norm(w)


def test_forward_dirac_zero_measure():
    model = make_model()
    out = forward_dirac(model, DiscreteMeasure())
    assert not out.any()


def test_forward_linearity():
    model = make_model(n=8, M=4, r=1)
    rng = np.random.default_rng(0)
    p1 = 0.2 + 0.6 * rng.random((2, 2))
    p2 = 0.2 + 0.6 * rng.random((3, 2))
    q1 = DiscreteMeasure(p1, rng.standard_normal(2))
    q2 = DiscreteMeasure(p2, rng.standard_normal(3))
    combo = DiscreteMeasure(
        np.vstack([p1, p2]),
        np.concatenate([2.0 * q1.coefficients, -0.5 * q2.coefficients]),
    )
    lhs = forward_dirac(model, combo)
    rhs = 2.0 * forward_dirac(model, q1) - 0.5 * forward_dirac(model, q2)
    scale = np.linalg.norm(rhs)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("r", [0, 1])
def test_energy_decay(r):
    model = make_model(n=8, M=8, r=r)
    rng = np.random.default_rng(1)
    M = model.mass
    for _ in range(5):
        v0 = rng.standard_normal(model.mesh.num_nodes)
        out = forward_field(model, v0)
        assert l2_norm(M, out) <= l2_norm(M, v0) + 1e-13


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("M", [1, 4])
def test_adjoint_identity(r, M):
    model = make_model(n=8, M=M, r=r)
    mesh = model.mesh
    rng = np.random.default_rng(2)
    for _ in range(3):
        pos = 0.1 + 0.8 * rng.random((3, 2))
        q = DiscreteMeasure(pos, rng.standard_normal(3))
        g = rng.standard_normal(mesh.num_nodes)
        sq = forward_dirac(model, q)
        z = adjoint_dirac(model, g)
        lhs = float(q.coefficients @ eval_field(mesh, z, q.positions))
        rhs = l2_inner(model.mass, sq, g)
        assert abs(lhs - rhs) <= 1e-10 * tv_norm(q) * l2_norm(model.mass, g)


def test_adjoint_single_step_against_direct_path():
    # dG(0), one step: the initial adjoint trace solves (M + kA) Z = M g,
    # assembled here explicitly as an independent code path.
    model = make_model(n=4, M=1, r=0)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(model.mesh.num_nodes)
    z = adjoint_dirac(model, g)
    k = model.grid.k
    mat = (model.mass_int + k * interior_stiffness(model.mesh)).toarray()
    rhs = (model.mass @ g)[model.interior]
    direct = np.linalg.solve(mat, rhs)
    assert np.allclose(z[model.interior], direct, atol=1e-12)
    x = (0.3, 0.45)
    q = DiscreteMeasure([x], [1.0])
    pairing = eval_field(model.mesh, z, [x])[0]
    assert pairing == pytest.approx(
        l2_inner(model.mass, forward_dirac(model, q), g), abs=1e-12
    )


def test_propagations_factor_one_interior_matrix(monkeypatch):
    # Forward and adjoint dG(1) propagation share one shifted N x N
    # factorization on a uniform grid.
    shapes = []
    splu = timestepping.spla.splu

    def recording_splu(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(timestepping.spla, "splu", recording_splu)
    model = make_model(n=8, M=4, r=1)
    b = np.random.default_rng(5).standard_normal(model.mesh.num_nodes)
    model.propagate_load(b)
    model.propagate_adjoint(b)
    assert shapes == [(model.interior.size, model.interior.size)]


def test_full_mass_is_assembled_once_on_first_read(monkeypatch):
    # Propagation uses the interior blocks only; the full mass is built
    # when `mass` is first read and kept for the model's lifetime.
    meshes = []
    assemble_mass = timestepping.assemble_mass

    def counting_assemble_mass(mesh):
        meshes.append(mesh)
        return assemble_mass(mesh)

    monkeypatch.setattr(timestepping, "assemble_mass", counting_assemble_mass)
    model = make_model(n=8, M=4, r=1)
    g = np.random.default_rng(5).standard_normal(model.mesh.num_nodes)
    model.propagate_load(g)
    model.propagate_adjoint(g)
    assert meshes == []
    forward_field(model, g)
    adjoint_dirac(model, g)
    assert model.mass is model.mass
    assert meshes == [model.mesh]


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("M", [4])
def test_batched_propagation_matches_columnwise(r, M):
    # PDAP propagates several new columns in one (N, k) call; each column
    # must equal its own single-vector propagation.
    model = make_model(n=8, M=M, r=r)
    loads = np.random.default_rng(6).standard_normal((model.mesh.num_nodes, 4))
    for propagate in (model.propagate_load, model.propagate_adjoint):
        batched = propagate(loads)
        assert batched.shape == loads.shape
        for j in range(loads.shape[1]):
            single = propagate(loads[:, j])
            assert np.linalg.norm(batched[:, j] - single) <= 1e-13 * np.linalg.norm(single)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("kind", ["load", "adjoint"])
def test_propagation_ignores_boundary_rows_and_returns_zero_boundary(kind, batch, r):
    # Propagations take and return nodal vectors, one column or a batch:
    # the load's boundary rows do not enter, and the end state is exactly
    # zero on the boundary.
    model = make_model(n=8, M=4, r=r)
    propagate = getattr(model, f"propagate_{kind}")
    boundary = model.mesh.boundary_mask
    load = np.random.default_rng(9).standard_normal((model.mesh.num_nodes, *batch))
    cleared = load.copy()
    cleared[boundary] = 0.0
    got = propagate(load)
    assert got.shape == load.shape
    assert np.array_equal(got, propagate(cleared))
    assert not got[boundary].any()
    assert got[~boundary].all()


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize(
    "T, M",
    [(0.1, 1), (0.1, 2), (0.1, 16), (0.1, 64), (0.1, 256), (1.0, 64), (3.0, 256), (1.0, 4)],
)
def test_propagation_matches_explicit_stepping(r, T, M):
    # The Chebyshev series equals M explicit steps to round-off relative to
    # the decayed state, up to T = 3. At (1, 4) dG(1) has k 2 pi^2 > 3, so
    # b = 0 and the weights alternate in sign.
    model = make_model(n=32, M=M, r=r, T=T)
    dirac = delta_load(model.mesh, DiscreteMeasure([(0.3, 0.6)], [1.0]))
    rng = np.random.default_rng(7)
    loads = np.column_stack([dirac, rng.standard_normal(model.mesh.num_nodes)])
    expected = propagate_by_stepping(model, loads)
    for propagate in (model.propagate_load, model.propagate_adjoint):
        got = propagate(loads)
        error = np.abs(got - expected).max(axis=0) / np.abs(expected).max(axis=0)
        assert error.max() <= 1e-13


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 32),
    M=st.integers(1, 300),
    T=st.floats(0.01, 3.0),
    r=st.sampled_from([0, 1]),
    unit=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagation_is_stepping_to_its_computed_round_off(n, M, T, r, unit, seed):
    # The series sums d = len(weights) terms, each of round-off about
    # eps rho^(M-1) |u1| with rho = max(b, -a) of `spectral_interval`, so
    # its distance from M explicit steps is bounded by a multiple of
    # eps d rho^(M-1) max|u1|. The worst of 1000 random cases read 0.83
    # of that, on random and on unit nodal loads.
    model = make_model(n=n, M=M, r=r, T=T)
    rng = np.random.default_rng(seed)
    if unit:
        load = np.zeros(model.mesh.num_nodes)
        load[rng.choice(model.interior)] = 1.0
    else:
        load = rng.standard_normal(model.mesh.num_nodes)
    a, b = spectral_interval(model.grid.k, r)
    u1 = model._step(load[model.interior])
    d = model._weights.size
    bound = 8 * np.finfo(float).eps * d * max(b, -a) ** (M - 1) * np.abs(u1).max()
    error = np.abs(model.propagate_load(load) - propagate_by_stepping(model, load)).max()
    assert error <= bound


@pytest.mark.parametrize("r, many", [(0, {256: 96, 64: 47}), (1, {256: 100, 64: 48})])
def test_propagation_solve_count(monkeypatch, r, many):
    # Slab solves per propagation at T = 0.1: one per Chebyshev term, about
    # sqrt(37 M) instead of M, and exactly M up to M = 16. The sector's
    # pairing sums the same series on the folded blocks, with as many.
    calls = []
    step = HeatModel._step

    def counting_step(self, f):
        calls.append(1)
        return step(self, f)

    monkeypatch.setattr(HeatModel, "_step", counting_step)
    monkeypatch.setattr(InvariantSector, "_step", counting_step)
    expected = {M: M for M in range(1, 17)} | many
    for M, solves in expected.items():
        model = make_model(n=4, M=M, r=r, T=0.1)
        sector = InvariantSector(model.mesh, model.grid, r)
        load = np.ones(model.mesh.num_nodes)
        for propagate in (
            model.propagate_load,
            model.propagate_adjoint,
            lambda load: sector.pair_end_state(load, load),
        ):
            calls.clear()
            propagate(load)
            assert len(calls) == solves, M


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 32),
    M=st.integers(1, 300),
    r=st.sampled_from([0, 1]),
    x0=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    dirac=st.booleans(),
    invariant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairing_is_the_point_value_of_the_propagation(n, M, r, x0, dirac, invariant, seed):
    # The Dirac load of x0 carries the barycentric weights of eval_field,
    # so the pairing is the point value of the propagated state, up to the
    # round-off of two Chebyshev sums, each about eps rho^(M-1) |u1|
    # (`spectral_interval`), one on the model and one on the folded
    # blocks of the sector, one unknown per orbit: at most 6.4e-15 times
    # the scale below in 1500 random invariant cases. A load averaged over
    # the four lattice maps is invariant, and so is a Dirac load next to
    # the boundary, zero on the interior. Any other load is refused.
    model = make_model(n=n, M=M, r=r, T=0.1)
    mesh = model.mesh
    sector = InvariantSector(mesh, model.grid, r)
    orbits = n * n // 4
    assert sector._slab_lu.shape == (orbits, orbits)
    rng = np.random.default_rng(seed)
    if dirac:
        load = delta_load(mesh, DiscreteMeasure([rng.uniform(0.0, 1.0, 2)], [1.0]))
    else:
        load = rng.standard_normal(mesh.num_nodes)
    if invariant:
        load = np.mean(mesh.symmetric_images(load), axis=0).ravel()
    point = delta_load(mesh, DiscreteMeasure([x0], [1.0]))
    if not invariant and load[model.interior].any():
        with pytest.raises(ValueError, match="not invariant"):
            sector.pair_end_state(point, load)
        return
    value = sector.pair_end_state(point, load)
    u = model.propagate_load(load)
    a, b = spectral_interval(model.grid.k, r)
    u1 = model._step(load[model.interior])
    scale = max(np.abs(u).max(), max(b, -a) ** (M - 1) * np.abs(u1).max())
    assert abs(value - eval_field(mesh, u, [x0])[0]) <= 1e-13 * scale


@pytest.mark.parametrize("r", [0, 1])
def test_pairing_rejects_a_near_invariant_load(r):
    # The eigenmode load pairs in the sector; perturbed by 1e-8 at one
    # node it is no longer invariant, and the sector, which would pair
    # only its invariant part, refuses it rather than return that value.
    mesh = build_uniform(16)
    sector = InvariantSector(mesh, TimeGrid(0.1, 16), r)
    load = l2_load(mesh, first_eigenmode)
    point = delta_load(mesh, DiscreteMeasure([(0.3, 0.62)], [1.0]))
    assert sector.pair_end_state(point, load) > 0.0
    load[sector.interior[5]] += 1e-8
    with pytest.raises(ValueError, match="not invariant"):
        sector.pair_end_state(point, load)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("M", [1, 2, 3, 64])
def test_pairing_of_a_zero_load_is_zero(r, M):
    mesh = build_uniform(8)
    sector = InvariantSector(mesh, TimeGrid(0.1, M), r)
    point = delta_load(mesh, DiscreteMeasure([(0.3, 0.6)], [1.0]))
    assert sector.pair_end_state(point, np.zeros(mesh.num_nodes)) == 0.0


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("r", [0, 1])
def test_slab_lu_is_the_lu_of_the_summed_blocks(r, n):
    # `_slab_lu` writes kA - sigma M in one pass, with no sparse sum: its
    # factors equal bit for bit those of the blocks summed by scipy, and
    # factoring leaves the interior mass block as it was written.
    model = make_model(n=n, M=16, r=r)
    lu = model._slab_lu
    mass = interior_mass(model.mesh)
    oracle = slab_lu(interior_stiffness(model.mesh), mass, model.grid.k, r)
    for factor in ("L", "U"):
        for attr in ("data", "indices", "indptr"):
            ours, theirs = (getattr(getattr(x, factor), attr) for x in (lu, oracle))
            assert ours.dtype == theirs.dtype
            np.testing.assert_array_equal(ours, theirs)
    np.testing.assert_array_equal(lu.perm_r, oracle.perm_r)
    np.testing.assert_array_equal(lu.perm_c, oracle.perm_c)
    for attr in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(model.mass_int, attr), getattr(mass, attr))


@pytest.mark.parametrize("r", [0, 1])
def test_slab_setup_memory_is_the_blocks_it_keeps(monkeypatch, r):
    # The traced peak from building a model to its slab `splu` call, at
    # n = 128, stays below 1.6 times the live bytes there: the interior
    # mass block plus the slab matrix handed to splu. A stored stiffness
    # block, or the temporaries of a sparse sum and a CSC copy, exceed
    # it: a model that stored both blocks and summed them read 3.03 for
    # dG(0) and 3.50 for dG(1), one stored stiffness block on top of
    # today's design reads 2.02 and 1.69, and today's one stencil pass
    # reads 1.52 and 1.31. The traced peak repeats to within about
    # 30 kB; SuperLU's own heap is not traced.
    seen = {}

    def nbytes(mat):
        return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes

    def splu(mat, **options):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        seen["slab"] = nbytes(mat)
        return spla.splu(mat, **options)

    monkeypatch.setattr(timestepping, "spla", SimpleNamespace(splu=splu))
    mesh = build_uniform(128)
    tracemalloc.start()
    try:
        model = HeatModel(mesh, TimeGrid(0.1, 16), r)
        model._slab_lu
    finally:
        tracemalloc.stop()
    ratio = seen["peak"] / (nbytes(model.mass_int) + seen["slab"])
    assert ratio <= 1.6, ratio


@pytest.mark.parametrize("r", [0, 1])
def test_nested_dissection_order_matches_the_ascending_oracle(r):
    # The numbering of the interior changes the rounding only: forward and
    # adjoint solves and a PDAP solve agree with the model on the
    # ascending numbering to 1e-13 relative. Atoms on lattice nodes keep
    # the Gram matrix well conditioned; the final adjoint is a small
    # difference of terms of the size of S* u_d, so it is compared there.
    mesh, grid = build_uniform(16), TimeGrid(0.1, 16)
    model, oracle = HeatModel(mesh, grid, r), AscendingHeatModel(mesh, grid, r)
    assert not (np.diff(model.interior) > 0).all()
    q = DiscreteMeasure([(0.25, 0.25), (0.75, 0.25), (0.5, 0.75)], [10.0, -12.0, 15.0])

    def close(got, expected, scale=None):
        scale = np.abs(expected).max() if scale is None else scale
        return np.abs(got - expected).max() <= 1e-13 * scale

    u = forward_dirac(model, q)
    assert close(u, forward_dirac(oracle, q))
    g = np.random.default_rng(8).standard_normal(mesh.num_nodes)
    assert close(adjoint_dirac(model, g), adjoint_dirac(oracle, g))
    config = pdap.PdapConfig(alpha=1e-3, tol=1e-10)
    res, ref = pdap.run(model, u, config), pdap.run(oracle, u, config)
    assert res.converged and ref.converged
    assert res.active_nodes == ref.active_nodes
    assert close(res.coefficients, ref.coefficients)
    assert close(res.state, ref.state)
    assert close(res.objective, ref.objective)
    assert close(res.adjoint, ref.adjoint, np.abs(adjoint_dirac(oracle, u)).max())


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_discrete_dirichlet_spectrum_above_lambda_1(n):
    model = make_model(n=n)
    lam = sla.eigh(
        interior_stiffness(model.mesh).toarray(),
        model.mass_int.toarray(),
        eigvals_only=True,
        subset_by_index=[0, 0],
    )
    assert lam[0] >= LAMBDA_1


@settings(max_examples=200, deadline=None)
@given(
    k=st.floats(1e-5, 10.0),
    excess=st.floats(0.0, 1e6),
    r=st.sampled_from([0, 1]),
)
def test_step_factor_lies_in_the_spectral_interval(k, excess, r):
    a, b = spectral_interval(k, r)
    value = pade_step_oracle(LAMBDA_1 * (1.0 + excess), k, r)
    assert a - 1e-15 <= value <= b + 1e-15


def test_power_weights_sum_to_the_power_at_b():
    # At x = 1 every T_j is 1, so the weights sum to b^(M-1); relative to
    # sum |w| where b = 0 or alternating signs leave nothing to compare to.
    for r in (0, 1):
        for M in range(1, 301):
            for T in (0.1, 1.0, 3.0):
                a, b = spectral_interval(T / M, r)
                w = power_weights(M, a, b)
                assert 1 <= w.size <= M
                assert abs(w.sum() - b ** (M - 1)) <= 1e-13 * np.abs(w).sum()


def record_fills(monkeypatch):
    """LU fill L.nnz + U.nnz of every later splu call, in call order."""
    fills = []
    splu = timestepping.spla.splu

    def recording_splu(mat, *args, **kwargs):
        lu = splu(mat, *args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(timestepping.spla, "splu", recording_splu)
    return fills


def test_factorizations_keep_nested_dissection_fill(monkeypatch):
    # LU fill at n = 64: the slab matrices in nested-dissection order give
    # 188,416 (minimum degree 188,548), the mass matrix of spd_solve, still
    # under minimum degree, 203,460. COLAMD, the SuperLU default,
    # gives 270,474 for either slab matrix and 297,882 for the mass matrix.
    fills = record_fills(monkeypatch)
    for r in (0, 1):
        model = make_model(n=64, M=2, r=r)
        model.propagate_load(np.ones(model.mesh.num_nodes))
    spd_solve(model.mass, np.ones(model.mass.shape[0]))
    slab_dg0, slab_dg1, mass = fills
    assert slab_dg0 <= 200_000
    assert slab_dg1 <= 200_000
    assert mass <= 215_000


def test_slab_fill_at_n_256_is_below_minimum_degree(monkeypatch):
    # Fill counts are exact: 4,931,760 in nested-dissection order against
    # 5,644,786 under minimum degree for the dG(0) slab matrix at n = 256.
    fills = record_fills(monkeypatch)
    model = make_model(n=256, M=2, r=0)
    model.propagate_load(np.ones(model.mesh.num_nodes))
    assert fills[0] < 5_000_000


def test_folded_slab_fill_at_n_256_is_below_a_quarter_of_the_full_slab(monkeypatch):
    # The sector factors the folded dG(0) slab matrix when built, 16,384
    # unknowns under minimum degree: 981,618 LU nonzeros (an exact count),
    # against 4,931,760 for the full slab. A quarter of that bounds it,
    # and the pairing factors nothing more.
    fills = record_fills(monkeypatch)
    mesh = build_uniform(256)
    sector = InvariantSector(mesh, TimeGrid(0.1, 2), 0)
    load = l2_load(mesh, first_eigenmode)
    sector.pair_end_state(load, load)
    assert len(fills) == 1
    assert fills[0] < 4_931_760 / 4


def test_power_weights_match_the_full_chebpow_build():
    # Dropping the tail during the build leaves the weights of the full
    # M - 1 products, then cut at WEIGHT_CUTOFF, to round-off.
    for r in (0, 1):
        for M in [*range(1, 70), 100, 255, 256, 257, 500, 1000, 1999, 2000]:
            for T in (0.1, 1.0, 3.0):
                a, b = spectral_interval(T / M, r)
                full = chebpow([(a + b) / 2.0, (b - a) / 2.0], M - 1, maxpower=None)
                w = power_weights(M, a, b)
                assert w.size <= full.size
                full[: w.size] -= w
                assert np.abs(full).sum() <= 1e-15 * np.abs(w).sum()


@pytest.mark.parametrize("r", [0, 1])
def test_nodal_projection_compatibility(r):
    # Splitting atoms onto nodes by hat weights leaves the propagated
    # state unchanged.
    model = make_model(n=8, M=4, r=r)
    rng = np.random.default_rng(4)
    for _ in range(3):
        pos = 0.15 + 0.7 * rng.random((3, 2))
        q = DiscreteMeasure(pos, rng.standard_normal(3))
        direct = forward_dirac(model, q)
        projected = forward_dirac(model, project_to_nodes(model.mesh, q))
        assert np.linalg.norm(direct - projected) <= 1e-12 * max(
            np.linalg.norm(direct), 1.0
        )


def test_forward_field_dimension_mismatch():
    model = make_model(n=4)
    other = build_uniform(8)
    with pytest.raises(ValueError):
        forward_field(model, np.zeros(other.num_nodes))
    with pytest.raises(ValueError):
        adjoint_dirac(model, np.zeros(other.num_nodes))
