import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseheat import OutOfDomainError, build_uniform, refine
from sparseheat.mesh import p1_edges, refine_nodes, refine_support


def edge_counts(mesh):
    counts = {}
    for cell in mesh.cells:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((cell[a], cell[b])))
            counts[key] = counts.get(key, 0) + 1
    return counts


def assert_same_mesh(mesh, target):
    assert mesh.n == target.n
    assert mesh.h == target.h
    assert np.array_equal(mesh.nodes, target.nodes)
    assert np.array_equal(mesh.cells, target.cells)
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
    assert mesh.cell_areas().sum() == pytest.approx(1.0, abs=1e-15)
    assert (mesh.cell_areas() > 0).all()


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
@given(n=st.integers(2, 24), data=st.data())
def test_refine_support_seeds_mapped_nodes_and_edge_midpoints(n, data):
    mesh = build_uniform(n)
    fine = refine(mesh)
    interior = mesh.interior_nodes().tolist()
    # Clustered draws, so that adjacent pairs and triangles occur often.
    centre = data.draw(st.sampled_from(interior))
    near = [i for i in interior if abs(mesh.nodes[i] - mesh.nodes[centre]).max() * n <= 2]
    idx = data.draw(st.lists(st.sampled_from(near), max_size=9))
    idx += data.draw(st.lists(st.sampled_from(interior), max_size=4))
    idx = list(dict.fromkeys(idx))
    seeds = refine_support(mesh, idx)
    mapped = refine_nodes(mesh, idx)
    assert seeds[: len(mapped)] == mapped
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < fine.num_nodes for s in seeds)
    assert not fine.boundary_mask[seeds].any()
    # Every extra seed is the midpoint of a mesh edge between two listed
    # nodes, and every such edge gives one; edges come from the cells.
    listed = set(idx)
    edges = {e for e in edge_counts(mesh) if set(e) <= listed}
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
    mesh = build_uniform(4)
    fine = refine(mesh)
    # Nodes (1, 1) and (2, 2) share the split diagonal of their square;
    # (1, 3) is no neighbour of either.
    idx = [1 * 5 + 1, 2 * 5 + 2, 1 * 5 + 3]
    assert p1_edges(mesh, idx) == [(6, 12)]
    seeds = refine_support(mesh, idx)
    assert seeds == refine_nodes(mesh, idx) + [3 * 9 + 3]
    assert np.allclose(fine.nodes[seeds[-1]], [0.375, 0.375])
    assert refine_support(mesh, [1 * 5 + 2, 2 * 5 + 1]) == refine_nodes(
        mesh, [1 * 5 + 2, 2 * 5 + 1]
    )


def locate_one(mesh, point):
    cells, lam = mesh.locate([point])
    return int(cells[0]), lam[0]


def brute_force_locate(mesh, point):
    """Lowest-index cell over all cells whose barycentric weights of
    `point` are >= -1e-12, with weights clamped and renormalized."""
    p = np.asarray(point, dtype=float)
    for cell in range(mesh.num_cells):
        a, b, c = mesh.nodes[mesh.cells[cell]]
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
    assert 12 in mesh.cells[cell]
    lam_sorted = np.sort(lam)
    assert lam_sorted[-1] == pytest.approx(1.0, abs=1e-12)
    assert lam_sorted[:2] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_locate_centroid():
    mesh = build_uniform(2)
    centroid = mesh.nodes[mesh.cells[3]].mean(axis=0)
    cell, lam = locate_one(mesh, centroid)
    assert cell == 3
    assert lam == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)


def test_locate_reconstruction_identity():
    mesh = refine(build_uniform(3))
    points = np.random.default_rng(5).random((50, 2))
    cells, lam = mesh.locate(points)
    assert cells.shape == (50,) and lam.shape == (50, 3)
    rebuilt = np.einsum("kv,kvd->kd", lam, mesh.nodes[mesh.cells[cells]])
    assert np.abs(rebuilt - points).max() < 1e-12


def test_locate_center_of_coarse_mesh():
    mesh = build_uniform(2)
    cell, lam = locate_one(mesh, (0.5, 0.5))
    assert np.linalg.norm(lam @ mesh.nodes[mesh.cells[cell]] - [0.5, 0.5]) < 1e-12


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
    cell = mesh.cells[draw(st.integers(0, mesh.num_cells - 1))]
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


def test_interior_nodes_ascending_and_interior():
    mesh = build_uniform(4)
    interior = mesh.interior_nodes()
    assert list(interior) == sorted(interior)
    pts = mesh.nodes[interior]
    assert (pts > 0).all() and (pts < 1).all()

