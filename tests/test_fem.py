import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from sparseheat import (
    DiscreteMeasure,
    assemble_mass,
    assemble_stiffness,
    build_uniform,
    delta_load,
    eval_field,
    field_to_csv,
    interpolation_matrix,
    l2_inner,
    l2_load,
    l2_norm,
    l2_project,
    refine,
    spd_solve,
)
from sparseheat.errors import NumericalError
from sparseheat.fem import interior_stiffness
from sparseheat.timestepping import _POLES, HeatModel, TimeGrid


def lattice_node(n, i, j):
    return i * (n + 1) + j


def test_mass_total_is_domain_area():
    mesh = build_uniform(2)
    for _ in range(3):
        M = assemble_mass(mesh)
        assert M.sum() == pytest.approx(1.0, abs=1e-12)
        mesh = refine(mesh)


def test_mass_interior_stencil():
    n = 4
    mesh = build_uniform(n)
    M = assemble_mass(mesh)
    s = 1.0 / n
    i = lattice_node(n, 2, 2)
    row = M[i].toarray().ravel()
    assert abs(row[i] - s * s / 2) <= 1e-14
    neighbors = [v for j, v in enumerate(row) if j != i and v != 0.0]
    assert len(neighbors) == 6
    assert np.allclose(neighbors, s * s / 12, atol=1e-14, rtol=0)


def test_mass_symmetric_nonnegative():
    # Both matrices are exactly symmetric as assembled, so no solve
    # needs to check symmetry.
    for n in (3, 8, 64):
        mesh = build_uniform(n)
        M = assemble_mass(mesh)
        A = assemble_stiffness(mesh)
        assert (M != M.T).nnz == 0
        assert (A != A.T).nnz == 0
        assert M.min() >= 0.0


def test_stiffness_interior_stencil():
    n = 8
    mesh = build_uniform(n)
    A = assemble_stiffness(mesh)
    i = lattice_node(n, 4, 4)
    row = A[i].toarray().ravel()
    assert abs(row[i] - 4.0) <= 1e-14
    axis = [lattice_node(n, 4, 3), lattice_node(n, 4, 5),
            lattice_node(n, 3, 4), lattice_node(n, 5, 4)]
    diag = [lattice_node(n, 3, 3), lattice_node(n, 5, 5)]
    for j in axis:
        assert abs(row[j] + 1.0) <= 1e-14
    for j in diag:
        assert abs(row[j]) <= 1e-14


def test_stiffness_row_sums_vanish():
    mesh = build_uniform(4)
    A = assemble_stiffness(mesh)
    assert np.abs(A.sum(axis=1)).max() <= 1e-13


def test_stiffness_interior_block_spd():
    mesh = build_uniform(4)
    interior = mesh.interior_nodes()
    A = assemble_stiffness(mesh)[interior][:, interior].toarray()
    eigs = sla.eigvalsh(A)
    assert eigs[0] > 0.0


def test_delta_load_at_node():
    mesh = build_uniform(4)
    i = lattice_node(4, 2, 2)
    b = delta_load(mesh, DiscreteMeasure([mesh.nodes[i]], [1.0]))
    expected = np.zeros(mesh.num_nodes)
    expected[i] = 1.0
    assert np.allclose(b, expected, atol=1e-14)


def test_delta_load_at_centroid():
    mesh = build_uniform(4)
    cell = 5
    centroid = mesh.nodes[mesh.cells[cell]].mean(axis=0)
    b = delta_load(mesh, DiscreteMeasure([centroid], [3.0]))
    assert b.sum() == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(b[mesh.cells[cell]], 1.0, atol=1e-12)


def test_delta_load_rejects_outside_atom():
    from sparseheat.errors import OutOfDomainError

    mesh = build_uniform(4)
    with pytest.raises(OutOfDomainError):
        delta_load(mesh, DiscreteMeasure([(1.1, 0.5)], [1.0]))


def test_delta_load_linear_in_coefficients():
    mesh = build_uniform(4)
    rng = np.random.default_rng(0)
    pos = 0.2 + 0.6 * rng.random((3, 2))
    coef = rng.standard_normal(3)
    b1 = delta_load(mesh, DiscreteMeasure(pos, coef))
    b2 = delta_load(mesh, DiscreteMeasure(pos, 2.5 * coef))
    assert np.allclose(b2, 2.5 * b1, atol=1e-13)


def test_solve_spd_roundtrip():
    mesh = build_uniform(4)
    M = assemble_mass(mesh)
    rng = np.random.default_rng(1)
    y = rng.standard_normal(mesh.num_nodes)
    x = spd_solve(M, M @ y)
    assert np.allclose(x, y, atol=1e-12)
    with pytest.raises(ValueError):
        spd_solve(M, y[:-1])


def sliced_stiffness(mesh):
    """The interior block of the assembled stiffness matrix, explicit
    zeros (the cancelled diagonal couplings) eliminated."""
    interior = mesh.interior_nodes()
    block = assemble_stiffness(mesh)[interior][:, interior].tocsr()
    block.eliminate_zeros()
    return block


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 64])
def test_interior_stiffness_is_the_sliced_assembly(n):
    # Same CSR arrays. The stencil's 4 and -1 are exact, while assembly
    # rounds the coordinates i/n: bit-identical on dyadic lattices, and
    # within four ulp elsewhere (n = 5).
    mesh = build_uniform(n)
    stencil, sliced = interior_stiffness(mesh), sliced_stiffness(mesh)
    assert stencil.format == "csr" and stencil.dtype == np.float64
    np.testing.assert_array_equal(stencil.indptr, sliced.indptr)
    np.testing.assert_array_equal(stencil.indices, sliced.indices)
    if n & (n - 1) == 0:
        np.testing.assert_array_equal(stencil.data, sliced.data)
    else:
        np.testing.assert_array_max_ulp(stencil.data, sliced.data, maxulp=4)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("order", [0, 1])
def test_slab_matrix_is_unchanged_by_the_stencil(n, order):
    # The slab matrix kA - sigma M that HeatModel factors equals, array for
    # array, the one built from the sliced full stiffness assembly.
    model = HeatModel(build_uniform(n), TimeGrid(0.1, 16), order)
    sigma = _POLES[order][0]
    k, mass = model.grid.k, model.mass_int
    ours = (k * model.stiff_int - sigma * mass).tocsc()
    interior = model.interior
    full = assemble_stiffness(model.mesh)[interior][:, interior].tocsr()
    oracle = (k * full - sigma * mass).tocsc()
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(ours, attr), getattr(oracle, attr))


def test_solve_spd_single_interior_node():
    A = sliced_stiffness(build_uniform(2))
    x = spd_solve(A, np.array([2.0]))
    assert x[0] == pytest.approx(0.5, abs=1e-15)  # stencil center is 4


def test_solve_spd_residual_contract():
    A = sliced_stiffness(build_uniform(8))
    rng = np.random.default_rng(2)
    b = rng.standard_normal(A.shape[0])
    x = spd_solve(A, b)
    res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    assert res <= 1e-12


def test_solve_spd_detects_singular():
    singular = sp.csr_matrix(np.zeros((2, 2)))
    with pytest.raises(NumericalError):
        spd_solve(singular, np.array([1.0, 0.0]))


def test_l2_project_reproduces_constants():
    mesh = build_uniform(8)
    p = l2_project(mesh, lambda x, y: np.ones_like(x))
    assert np.allclose(p, 1.0, atol=1e-10)


def test_l2_project_reproduces_linears():
    mesh = build_uniform(8)
    p = l2_project(mesh, lambda x, y: x + y)
    exact = mesh.nodes[:, 0] + mesh.nodes[:, 1]
    assert np.allclose(p, exact, atol=1e-10)


def test_l2_load_is_mass_times_projection():
    mesh = build_uniform(16)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + x * x - y
    load = l2_load(mesh, f)
    mass_proj = assemble_mass(mesh) @ l2_project(mesh, f)
    assert np.linalg.norm(mass_proj - load) <= 1e-14 * np.linalg.norm(load)


@pytest.mark.parametrize(
    "f, nodal",
    [
        (lambda x, y: np.ones_like(x), lambda p: np.ones(len(p))),
        (lambda x, y: 2.0 * x - y + 0.25, lambda p: 2.0 * p[:, 0] - p[:, 1] + 0.25),
    ],
    ids=["constant", "linear"],
)
def test_l2_load_reproduces_constants_and_linears(f, nodal):
    # The midpoint rule is exact for quadratics, so the load of a P1
    # function is its mass-matrix product.
    mesh = build_uniform(8)
    expected = assemble_mass(mesh) @ nodal(mesh.nodes)
    assert np.allclose(l2_load(mesh, f), expected, atol=1e-15, rtol=1e-13)


def test_l2_project_is_stable_for_eigenmode():
    mesh = build_uniform(16)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    p = l2_project(mesh, f)
    M = assemble_mass(mesh)
    # ||f||_{L2} = 1/2 on the unit square; verified against a fine midpoint rule.
    xs = (np.arange(2000) + 0.5) / 2000
    X, Y = np.meshgrid(xs, xs)
    ref = np.sqrt((f(X, Y) ** 2).mean())
    assert ref == pytest.approx(0.5, abs=1e-6)
    assert l2_norm(M, p) <= ref + 1e-3


def test_eval_field_nodal_and_centroid():
    mesh = build_uniform(4)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(mesh.num_nodes)
    i = lattice_node(4, 1, 2)
    cell = 7
    centroid = mesh.nodes[mesh.cells[cell]].mean(axis=0)
    values = eval_field(mesh, v, [mesh.nodes[i], centroid])
    assert values == pytest.approx(
        [v[i], v[mesh.cells[cell]].mean()], abs=1e-13
    )


def test_eval_field_exact_for_linears():
    mesh = build_uniform(4)
    v = 2.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1] + 1.0
    points = np.random.default_rng(4).random((20, 2))
    assert eval_field(mesh, v, points) == pytest.approx(
        2.0 * points[:, 0] - 0.5 * points[:, 1] + 1.0, abs=1e-12
    )


def test_l2_inner_norm_basics():
    mesh = build_uniform(4)
    M = assemble_mass(mesh)
    zero = np.zeros(mesh.num_nodes)
    ones = np.ones(mesh.num_nodes)
    assert l2_norm(M, zero) == 0.0
    assert l2_norm(M, ones) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(mesh.num_nodes)
    v = rng.standard_normal(mesh.num_nodes)
    assert l2_inner(M, u, v) == l2_inner(M, v, u)
    with pytest.raises(ValueError):
        l2_inner(M, u, v[:-1])


def test_duality_pairing_identity():
    # delta_load(q) . z equals the atom-weighted point evaluation of z.
    mesh = build_uniform(8)
    rng = np.random.default_rng(6)
    z = rng.standard_normal(mesh.num_nodes)
    pos = 0.1 + 0.8 * rng.random((4, 2))
    coef = rng.standard_normal(4)
    q = DiscreteMeasure(pos, coef)
    lhs = float(delta_load(mesh, q) @ z)
    rhs = float(q.coefficients @ eval_field(mesh, z, q.positions))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_field_csv_roundtrip(tmp_path):
    mesh = build_uniform(2)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(mesh.num_nodes)
    path = tmp_path / "field.csv"
    field_to_csv(mesh, v, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    values = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.array_equal(values, v)  # 17 significant digits round-trip


def test_nested_interpolation_exact_at_parent_nodes():
    n = 4
    coarse = build_uniform(n)
    fine = refine(coarse)
    interp = interpolation_matrix(coarse, fine)
    assert interp.shape == (fine.num_nodes, coarse.num_nodes)
    # Coarse node (r, c) is fine node (2r, 2c); its row is a unit row.
    r, c = np.divmod(np.arange(coarse.num_nodes), n + 1)
    parents = lattice_node(2 * n, 2 * r, 2 * c)
    assert np.array_equal(interp[parents].toarray(), np.eye(coarse.num_nodes))
    rng = np.random.default_rng(8)
    v = rng.standard_normal(coarse.num_nodes)
    assert np.array_equal((interp @ v)[parents], v)
    # Midpoint nodes interpolate linearly, so a linear field lifts exactly.
    lin = coarse.nodes @ [1.5, -2.0] + 0.25
    assert np.allclose(interp @ lin, fine.nodes @ [1.5, -2.0] + 0.25, atol=1e-14)


@pytest.mark.parametrize("n", [3, 4])
def test_two_level_interpolation_is_product_of_one_level_steps(n):
    coarse = build_uniform(n)
    mid = refine(coarse)
    fine = refine(mid)
    direct = interpolation_matrix(coarse, fine)
    chained = interpolation_matrix(mid, fine) @ interpolation_matrix(coarse, mid)
    assert abs(direct - chained).max() <= 1e-15
    lin = coarse.nodes @ [-0.75, 2.5] + 1.0
    assert np.allclose(direct @ lin, fine.nodes @ [-0.75, 2.5] + 1.0, atol=1e-14, rtol=0)


def locate_interpolation_oracle(coarse, fine):
    """Interpolation by point location: fine node k gets the nonzero
    barycentric weights of its containing coarse cell."""
    cells, lam = coarse.locate(fine.nodes)
    rows = np.repeat(np.arange(fine.num_nodes), 3)
    cols = coarse.cells[cells].ravel()
    keep = lam.ravel() != 0.0
    return sp.csr_matrix(
        (lam.ravel()[keep], (rows[keep], cols[keep])),
        shape=(fine.num_nodes, coarse.num_nodes),
    )


def sorted_csr(mat):
    mat = mat.tocsr(copy=True)
    mat.sort_indices()
    return mat


@pytest.mark.parametrize(
    "n, fine_n",
    [(2, 128), (4, 128), (8, 128), (16, 128), (32, 128), (64, 128),
     (4, 8), (4, 16), (2, 32)],
)
def test_interpolation_matches_locate_oracle_on_dyadic_lattices(n, fine_n):
    coarse, fine = build_uniform(n), build_uniform(fine_n)
    new = sorted_csr(interpolation_matrix(coarse, fine))
    oracle = sorted_csr(locate_interpolation_oracle(coarse, fine))
    assert new.shape == oracle.shape
    assert np.array_equal(new.indptr, oracle.indptr)
    assert np.array_equal(new.indices, oracle.indices)
    assert np.array_equal(new.data, oracle.data)


@pytest.mark.parametrize("n, fine_n", [(3, 6), (3, 12), (5, 20)])
def test_interpolation_matches_locate_oracle_at_odd_n(n, fine_n):
    # Located weights carry round-off (near 1e-17 where the exact weight
    # is 0), so compare values rather than sparsity patterns.
    coarse, fine = build_uniform(n), build_uniform(fine_n)
    new = interpolation_matrix(coarse, fine)
    oracle = locate_interpolation_oracle(coarse, fine)
    assert abs(new - oracle).max() <= 1e-15


def test_interpolation_rejects_non_nested_lattices():
    with pytest.raises(ValueError):
        interpolation_matrix(build_uniform(4), build_uniform(6))
