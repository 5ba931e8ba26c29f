import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseheat import OutOfDomainError, build_uniform, refine
from sparseheat.fem import interior_mass, interior_stiffness
from sparseheat.measures import same_sign_groups
from sparseheat.mesh import (
    DISSECTION_LEAF,
    PEAK_SEED_BELOW_N,
    dissection_order,
    p1_edges,
    refine_nodes,
    refine_support,
)

from measure_helpers import all_cells, cell_areas, cell_table


def edge_counts(mesh):
    counts = {}
    for cell in all_cells(mesh):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((cell[a], cell[b])))
            counts[key] = counts.get(key, 0) + 1
    return counts


@functools.lru_cache(maxsize=None)
def lattice_edges(n):
    return frozenset(edge_counts(build_uniform(n)))


def clustered_support(mesh, data):
    """Distinct interior nodes of `mesh`, mostly near one node, so that
    adjacent pairs and triangles occur often."""
    interior = mesh.interior_nodes()
    centre = data.draw(st.sampled_from(interior.tolist()))
    distance = np.abs(mesh.nodes[interior] - mesh.nodes[centre]).max(axis=1)
    near = interior[distance * mesh.n <= 2].tolist()
    idx = data.draw(st.lists(st.sampled_from(near), max_size=9))
    idx += data.draw(st.lists(st.sampled_from(interior.tolist()), max_size=4))
    return list(dict.fromkeys(idx))


def coefficients_and_adjoint(mesh, data, size):
    """Nonzero coefficients for `size` nodes and a random nodal adjoint."""
    nonzero = st.floats(-10.0, 10.0).filter(lambda b: abs(b) >= 0.01)
    beta = data.draw(st.lists(nonzero, min_size=size, max_size=size))
    seed = data.draw(st.integers(0, 2**32 - 1))
    return beta, np.random.default_rng(seed).standard_normal(mesh.num_nodes)


def assert_same_mesh(mesh, target):
    assert mesh.n == target.n
    assert mesh.h == target.h
    assert np.array_equal(mesh.nodes, target.nodes)
    assert np.array_equal(all_cells(mesh), all_cells(target))
    assert np.array_equal(mesh.boundary_mask, target.boundary_mask)


def test_build_uniform_counts_n2():
    mesh = build_uniform(2)
    assert mesh.num_nodes == 9
    assert mesh.num_cells == 8
    interior = mesh.interior_nodes()
    assert len(interior) == 1
    assert np.allclose(mesh.nodes[interior[0]], [0.5, 0.5])


def test_build_uniform_counts_n4():
    mesh = build_uniform(4)
    assert mesh.num_nodes == 25
    assert mesh.num_cells == 32
    assert len(mesh.interior_nodes()) == 9


def test_cells_cover_unit_square():
    mesh = build_uniform(2)
    assert cell_areas(mesh).sum() == pytest.approx(1.0, abs=1e-15)
    assert (cell_areas(mesh) > 0).all()


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_cell_nodes_is_the_meshgrid_cell_table(n):
    mesh = build_uniform(n)
    assert np.array_equal(mesh.cell_nodes(np.arange(mesh.num_cells)), cell_table(mesh))
    assert mesh.cell_nodes(2 * n + 1).shape == (3,)
    assert np.array_equal(mesh.cell_nodes(2 * n + 1), cell_table(mesh)[2 * n + 1])


def test_mesh_stores_no_per_cell_array():
    # A mesh holds its node table and boundary mask, both per node: the
    # node triples of a cell come from `cell_nodes`, not from a table.
    mesh = build_uniform(64)
    arrays = [a for a in vars(mesh).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 65**2 * 17


def test_mesh_size():
    assert build_uniform(4).h == pytest.approx(np.sqrt(2) / 4, abs=1e-16)


def test_build_uniform_rejects_small_n():
    with pytest.raises(ValueError):
        build_uniform(1)


def test_boundary_mask():
    mesh = build_uniform(4)
    on_boundary = (
        (mesh.nodes[:, 0] == 0)
        | (mesh.nodes[:, 0] == 1)
        | (mesh.nodes[:, 1] == 0)
        | (mesh.nodes[:, 1] == 1)
    )
    assert (mesh.boundary_mask == on_boundary).all()


def test_conformity_edge_counts():
    for mesh in (build_uniform(3), refine(build_uniform(2))):
        for (a, b), count in edge_counts(mesh).items():
            mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
            on_boundary = (
                min(mid[0], 1 - mid[0], mid[1], 1 - mid[1]) < 1e-12
            )
            assert count == (1 if on_boundary else 2)


def test_refine_matches_finer_uniform():
    for n in (2, 3, 5):
        assert_same_mesh(refine(build_uniform(n)), build_uniform(2 * n))


def test_refine_twice_equals_uniform_4n():
    assert_same_mesh(refine(refine(build_uniform(3))), build_uniform(12))


def test_refine_nests_parent_nodes():
    # Coarse node (r, c) sits at fine index 2r (2n + 1) + 2c.
    for n in (2, 3, 5):
        mesh = build_uniform(n)
        fine = refine(mesh)
        r, c = np.divmod(np.arange(mesh.num_nodes), n + 1)
        assert np.array_equal(fine.nodes[2 * r * (2 * n + 1) + 2 * c], mesh.nodes)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), data=st.data())
def test_refine_nodes_maps_interior_nodes_in_place(n, data):
    mesh = build_uniform(n)
    fine = refine(mesh)
    idx = data.draw(
        st.lists(st.sampled_from(mesh.interior_nodes().tolist()), max_size=12)
    )
    mapped = refine_nodes(mesh, idx)
    assert len(mapped) == len(idx)
    assert np.allclose(fine.nodes[mapped], mesh.nodes[idx], rtol=0.0, atol=1e-15)
    assert not fine.boundary_mask[mapped].any()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(PEAK_SEED_BELOW_N, PEAK_SEED_BELOW_N + 3), data=st.data())
def test_refine_support_seeds_mapped_nodes_and_edge_midpoints(n, data):
    # From PEAK_SEED_BELOW_N on, the seed reads the support only: the
    # coefficients and the adjoint are drawn at random.
    mesh = build_uniform(n)
    fine = refine(mesh)
    idx = clustered_support(mesh, data)
    beta, z = coefficients_and_adjoint(mesh, data, len(idx))
    seeds = refine_support(mesh, idx, beta, z)
    mapped = refine_nodes(mesh, idx)
    assert seeds[: len(mapped)] == mapped
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < fine.num_nodes for s in seeds)
    assert not fine.boundary_mask[seeds].any()
    # Every extra seed is the midpoint of a mesh edge between two listed
    # nodes, and every such edge gives one; edges come from the cells.
    listed = set(idx)
    edges = {e for e in lattice_edges(n) if set(e) <= listed}
    midpoints = {tuple(0.5 * (mesh.nodes[a] + mesh.nodes[b])) for a, b in edges}
    extra = [tuple(fine.nodes[s]) for s in seeds[len(mapped):]]
    assert len(extra) == len(edges)
    assert all(
        any(np.allclose(p, m, rtol=0.0, atol=1e-15) for m in midpoints) for p in extra
    )
    assert {tuple(sorted(map(int, e))) for e in p1_edges(mesh, idx)} == {
        tuple(sorted(map(int, e))) for e in edges
    }


def test_refine_support_adds_the_midpoint_of_a_split_spike():
    n = PEAK_SEED_BELOW_N
    mesh = build_uniform(n)
    fine = refine(mesh)
    w, z = n + 1, np.zeros(mesh.num_nodes)
    # Nodes (1, 1) and (2, 2) share the split diagonal of their square;
    # (1, 3) is no neighbour of either.
    idx = [1 * w + 1, 2 * w + 2, 1 * w + 3]
    assert p1_edges(mesh, idx) == [(w + 1, 2 * w + 2)]
    seeds = refine_support(mesh, idx, [1.0, 1.0, 1.0], z)
    assert seeds == refine_nodes(mesh, idx) + [3 * (2 * n + 1) + 3]
    assert np.allclose(fine.nodes[seeds[-1]], [1.5 / n, 1.5 / n])
    anti = [1 * w + 2, 2 * w + 1]
    assert refine_support(mesh, anti, [1.0, 1.0], z) == refine_nodes(mesh, anti)


def same_sign_clusters(mesh, idx, beta):
    """Components of the listed nodes under "same sign and at most one
    lattice step apart per axis", by union-find: ascending lists of
    positions into `idx`, in the order of their first members."""
    parent = list(range(len(idx)))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    steps = np.rint(mesh.nodes[idx] * mesh.n)
    for a in range(len(idx)):
        for b in range(a):
            if (beta[a] > 0) == (beta[b] > 0) and np.abs(steps[a] - steps[b]).max() <= 1:
                parent[root(a)] = root(b)
    groups = {}
    for a in range(len(idx)):
        groups.setdefault(root(a), []).append(a)
    return list(groups.values())


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 2 * PEAK_SEED_BELOW_N), data=st.data())
def test_same_sign_groups_at_one_and_a_half_steps_are_the_lattice_clusters(n, data):
    # The peak seeds group the support with the lumping's rule: lattice
    # neighbours lie 1/n or sqrt(2)/n apart and the next nodes 2/n.
    mesh = build_uniform(n)
    idx = clustered_support(mesh, data)
    beta, _ = coefficients_and_adjoint(mesh, data, len(idx))
    groups = same_sign_groups(mesh.nodes[idx], beta, 1.5 / n)
    assert groups == same_sign_clusters(mesh, idx, beta)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, PEAK_SEED_BELOW_N - 1), data=st.data())
def test_refine_support_below_the_cutoff_seeds_a_fine_square_per_cluster(n, data):
    mesh = build_uniform(n)
    fine = refine(mesh)
    idx = clustered_support(mesh, data)
    beta, z = coefficients_and_adjoint(mesh, data, len(idx))
    seeds = refine_support(mesh, idx, beta, z)
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < fine.num_nodes for s in seeds)
    assert not fine.boundary_mask[seeds].any()
    assert len(seeds) <= 4 * len(same_sign_clusters(mesh, idx, beta))
    # A cluster's square lies within half a coarse step of its largest
    # node, so each seed is at most two fine steps from a mapped node.
    mapped = fine.nodes[refine_nodes(mesh, idx)]
    for s in seeds:
        assert (np.abs(mapped - fine.nodes[s]).max(axis=1) * fine.n <= 2 + 1e-9).any()


def test_refine_support_below_the_cutoff_seeds_the_square_at_a_quadratic_peak():
    # Central differences fit a quadratic |z| exactly, so the seed is the
    # fine square that holds its peak, fitted around the cluster's largest
    # node (2, 2) and not its neighbour (3, 2). The negative node (3, 3)
    # next to them is a cluster of its own; its offset towards the peak is
    # clipped to half a coarse step, which gives the fine square at (5, 5)
    # and repeats the corner (5, 5).
    mesh = build_uniform(8)
    x, y = mesh.nodes.T
    peak = (0.3, 0.3)  # lattice position (2.4, 2.4)
    dx, dy = x - peak[0], y - peak[1]
    z = -(1.0 - 0.5 * dx * dx - 0.2 * dx * dy - 0.3 * dy * dy)  # negative throughout
    idx = [3 * 9 + 2, 2 * 9 + 2, 3 * 9 + 3]
    seeds = refine_support(mesh, idx, [2.0, 5.0, -1.0], z)
    # The peak sits at fine position (4.8, 4.8), in the square with
    # lower-left corner (4, 4).
    first = [4 * 17 + 4, 4 * 17 + 5, 5 * 17 + 4, 5 * 17 + 5]
    assert seeds == first + [5 * 17 + 6, 6 * 17 + 5, 6 * 17 + 6]


def locate_one(mesh, point):
    cells, lam = mesh.locate([point])
    return int(cells[0]), lam[0]


def brute_force_locate(mesh, point):
    """Lowest-index cell over all cells whose barycentric weights of
    `point` are >= -1e-12, with weights clamped and renormalized."""
    p = np.asarray(point, dtype=float)
    for cell in range(mesh.num_cells):
        a, b, c = mesh.nodes[mesh.cell_nodes(cell)]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        l1 = ((p[0] - a[0]) * (c[1] - a[1]) - (p[1] - a[1]) * (c[0] - a[0])) / det
        l2 = ((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])) / det
        lam = np.array([1.0 - l1 - l2, l1, l2])
        if lam.min() >= -1e-12:
            lam = np.clip(lam, 0.0, 1.0)
            return cell, lam / lam.sum()
    raise AssertionError(f"no cell contains {point}")


def test_locate_vertex():
    mesh = build_uniform(4)
    cell, lam = locate_one(mesh, mesh.nodes[12])
    assert 12 in mesh.cell_nodes(cell)
    lam_sorted = np.sort(lam)
    assert lam_sorted[-1] == pytest.approx(1.0, abs=1e-12)
    assert lam_sorted[:2] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_locate_centroid():
    mesh = build_uniform(2)
    centroid = mesh.nodes[mesh.cell_nodes(3)].mean(axis=0)
    cell, lam = locate_one(mesh, centroid)
    assert cell == 3
    assert lam == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)


def test_locate_reconstruction_identity():
    mesh = refine(build_uniform(3))
    points = np.random.default_rng(5).random((50, 2))
    cells, lam = mesh.locate(points)
    assert cells.shape == (50,) and lam.shape == (50, 3)
    rebuilt = np.einsum("kv,kvd->kd", lam, mesh.nodes[mesh.cell_nodes(cells)])
    assert np.abs(rebuilt - points).max() < 1e-12


def test_locate_center_of_coarse_mesh():
    mesh = build_uniform(2)
    cell, lam = locate_one(mesh, (0.5, 0.5))
    assert np.linalg.norm(lam @ mesh.nodes[mesh.cell_nodes(cell)] - [0.5, 0.5]) < 1e-12


def test_locate_edge_point_takes_lowest_cell():
    mesh = build_uniform(2)
    # The point sits on the diagonal shared by cells 0 and 1.
    cell, _ = locate_one(mesh, (0.25, 0.25))
    assert cell == 0


def test_locate_outside_domain():
    mesh = build_uniform(2)
    with pytest.raises(OutOfDomainError):
        mesh.locate([(0.5, 0.5), (1.2, 0.5)])
    with pytest.raises(OutOfDomainError):
        mesh.locate([(0.5, -0.01)])
    with pytest.raises(OutOfDomainError):
        mesh.locate([(np.nan, 0.5)])


def test_locate_no_points():
    cells, lam = build_uniform(2).locate(np.zeros((0, 2)))
    assert cells.shape == (0,) and lam.shape == (0, 3)


LATTICE_MESHES = {f"uniform{n}": build_uniform(n) for n in (2, 3, 4, 5, 6, 8, 10, 12, 20)}
UNIT = st.floats(0.0, 1.0)


@st.composite
def lattice_points(draw, mesh):
    """Random points plus the points where ties and rounding happen:
    nodes, edge midpoints, diagonals and the corners of the square."""
    kind = draw(st.sampled_from(["random", "node", "midpoint", "diagonal", "corner"]))
    if kind == "random":
        return (draw(UNIT), draw(UNIT))
    if kind == "corner":
        return draw(st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]))
    cell = mesh.cell_nodes(draw(st.integers(0, mesh.num_cells - 1)))
    a, b = draw(st.permutations(range(3)))[:2]
    pa, pb = mesh.nodes[cell[a]], mesh.nodes[cell[b]]
    if kind == "node":
        return tuple(pa)
    if kind == "midpoint":
        return tuple(0.5 * (pa + pb))
    t = draw(UNIT)  # a point on a cell edge, diagonals included
    return tuple(np.clip((1.0 - t) * pa + t * pb, 0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(LATTICE_MESHES)))
def test_locate_matches_brute_force_scan(data, name):
    mesh = LATTICE_MESHES[name]
    points = data.draw(st.lists(lattice_points(mesh), min_size=1, max_size=6))
    cells, lam = mesh.locate(points)
    for k, point in enumerate(points):
        cell, expected = brute_force_locate(mesh, point)
        assert cells[k] == cell
        assert np.array_equal(lam[k], expected)


def dissection_oracle(n, r0, c0, h, w, cuts):
    """Recursive bisection of the interior lattice block with interior
    rows r0..r0 + h - 1 and columns c0..c0 + w - 1: its node list, and
    each cut's two halves appended to `cuts`."""
    if h * w <= DISSECTION_LEAF:
        return [(r0 + i + 1) * (n + 1) + c0 + j + 1 for i in range(h) for j in range(w)]
    if h >= w:
        k = h // 2
        first = dissection_oracle(n, r0, c0, k, w, cuts)
        second = dissection_oracle(n, r0 + k + 1, c0, h - k - 1, w, cuts)
        line = [(r0 + k + 1) * (n + 1) + c0 + j + 1 for j in range(w)]
    else:
        k = w // 2
        first = dissection_oracle(n, r0, c0, h, k, cuts)
        second = dissection_oracle(n, r0, c0 + k + 1, h, w - k - 1, cuts)
        line = [(r0 + i + 1) * (n + 1) + c0 + k + 1 for i in range(h)]
    cuts.append((first, second))
    return first + second + line


@pytest.mark.parametrize("n", [64, 128, 256])
def test_dissection_order_matches_the_oracle_on_benchmark_lattices(n):
    # The lattices that the benchmark factors; hypothesis draws n <= 40.
    assert dissection_order(n).tolist() == dissection_oracle(n, 0, 0, n - 1, n - 1, [])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40))
def test_interior_nodes_are_a_nested_dissection_order(n):
    # A permutation of the interior nodes, equal to the recursive
    # bisection with cut lines last, and no P1 edge (axis or diagonal)
    # joins the two halves of any cut.
    mesh = build_uniform(n)
    interior = mesh.interior_nodes()
    assert sorted(interior.tolist()) == np.flatnonzero(~mesh.boundary_mask).tolist()
    assert (dissection_order(n) == interior).all()
    cuts = []
    assert interior.tolist() == dissection_oracle(n, 0, 0, n - 1, n - 1, cuts)
    assert bool(cuts) == ((n - 1) ** 2 > DISSECTION_LEAF)
    for first, second in cuts:
        first = set(first)
        for a, b in p1_edges(mesh, first.union(second)):
            assert (a in first) == (b in first)


def coordinate_maps(mesh):
    """The four lattice maps from the node coordinates: identity,
    (x, y) -> (y, x), (1 - x, 1 - y) and (1 - y, 1 - x), as node arrays."""
    x, y = mesh.nodes.T
    images = [(x, y), (y, x), (1.0 - x, 1.0 - y), (1.0 - y, 1.0 - x)]
    n = mesh.n
    return np.array([np.rint(v * n) * (n + 1) + np.rint(u * n) for u, v in images], int)


@pytest.mark.parametrize("n", [4, 7, 8, 64])
def test_lattice_maps_preserve_the_triangulation_and_the_interior_blocks(n):
    # The fold of the invariant-sector pairing relies on this: each map
    # takes cells to cells, and the interior mass and stiffness blocks
    # equal their conjugates under it, bit for bit.
    mesh = build_uniform(n)
    maps = np.array([g.ravel() for g in mesh.symmetric_images(np.arange(mesh.num_nodes))])
    assert (maps == coordinate_maps(mesh)).all()
    cells = {frozenset(cell) for cell in all_cells(mesh).tolist()}
    interior = mesh.interior_nodes()
    position = np.full(mesh.num_nodes, -1)
    position[interior] = np.arange(interior.size)
    for g in maps:
        assert {frozenset(g[list(cell)].tolist()) for cell in cells} == cells
        p = position[g[interior]]
        assert (p >= 0).all()
        for block in (interior_mass(mesh), interior_stiffness(mesh)):
            conjugate = block[p][:, p]
            assert (conjugate != block).nnz == 0
            assert conjugate.nnz == block.nnz


@pytest.mark.parametrize("n", [4, 7, 8, 64])
def test_interior_orbits_partition_the_interior(n):
    # One number per interior node, every node's four images in its own
    # orbit, orbits of 1, 2 or 4 nodes: (n/2)^2 of them at even n and
    # (n^2 - 1)/4 at odd n.
    mesh = build_uniform(n)
    orbit = mesh.interior_orbits()
    interior = mesh.interior_nodes()
    assert orbit.shape == interior.shape
    count = n * n // 4 if n % 2 == 0 else (n * n - 1) // 4
    assert set(orbit.tolist()) == set(range(count))
    label = dict(zip(interior.tolist(), orbit.tolist()))
    for g in coordinate_maps(mesh):
        assert [label[i] for i in g[interior].tolist()] == orbit.tolist()
    assert set(np.bincount(orbit).tolist()) <= {1, 2, 4}
