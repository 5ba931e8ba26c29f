import json

import numpy as np
import pytest

from sparseheat import (
    DiscreteMeasure,
    build_uniform,
    lump_clusters,
    save_measure,
    tv_norm,
)
from sparseheat.errors import OutOfDomainError

from measure_helpers import load_measure, match_supports, project_to_nodes

PAPER_TRUTH = DiscreteMeasure(
    [[0.263091083266217, 0.258378565204941], [0.76061544960808, 0.734190309666141]],
    [-10.0, 25.0],
)


def test_construction_merges_duplicates_and_prunes():
    q = DiscreteMeasure([(0.5, 0.5), (0.5, 0.5), (0.25, 0.25)], [1.0, 2.0, 1e-14])
    assert len(q) == 1
    assert q.coefficients[0] == 3.0


def test_tv_norm_empty():
    assert tv_norm(DiscreteMeasure()) == 0.0


def test_tv_norm_two_spikes():
    assert tv_norm(PAPER_TRUTH) == pytest.approx(35.0, abs=1e-14)


def test_tv_norm_homogeneous():
    q = DiscreteMeasure([(0.1, 0.2), (0.7, 0.8)], [2.0, -3.0])
    scaled = DiscreteMeasure(q.positions, -1.5 * q.coefficients)
    assert tv_norm(scaled) == pytest.approx(1.5 * tv_norm(q), abs=1e-14)


def test_project_keeps_nodal_atoms():
    mesh = build_uniform(4)
    node = mesh.interior_nodes()[4]
    q = DiscreteMeasure([mesh.nodes[node]], [2.5])
    p = project_to_nodes(mesh, q)
    assert len(p) == 1
    assert np.allclose(p.positions[0], mesh.nodes[node])
    assert p.coefficients[0] == pytest.approx(2.5, abs=1e-14)


def test_project_splits_centroid_atom():
    mesh = build_uniform(4)
    # Cell whose three vertices are all interior.
    for cell in range(mesh.num_cells):
        verts = mesh.cell_nodes(cell)
        if not mesh.boundary_mask[verts].any():
            break
    centroid = mesh.nodes[verts].mean(axis=0)
    p = project_to_nodes(mesh, DiscreteMeasure([centroid], [3.0]))
    assert len(p) == 3
    assert np.allclose(sorted(p.coefficients), [1.0, 1.0, 1.0], atol=1e-12)


def test_project_never_increases_tv():
    mesh = build_uniform(8)
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = DiscreteMeasure(rng.random((4, 2)), rng.standard_normal(4))
        assert tv_norm(project_to_nodes(mesh, q)) <= tv_norm(q) + 1e-12


def test_project_preserves_interior_mass():
    mesh = build_uniform(8)
    rng = np.random.default_rng(1)
    pos = 0.3 + 0.4 * rng.random((4, 2))  # far from the boundary
    q = DiscreteMeasure(pos, rng.standard_normal(4))
    p = project_to_nodes(mesh, q)
    assert p.coefficients.sum() == pytest.approx(q.coefficients.sum(), abs=1e-12)


def test_project_rejects_outside_atom():
    mesh = build_uniform(4)
    with pytest.raises(OutOfDomainError):
        project_to_nodes(mesh, DiscreteMeasure([(1.5, 0.5)], [1.0]))


def test_lump_zero_radius_is_identity():
    q = DiscreteMeasure([(0.1, 0.1), (0.9, 0.9)], [1.0, -2.0])
    out = lump_clusters(q, 0.0)
    assert len(out) == 2
    assert tv_norm(out) == tv_norm(q)


def test_lump_equal_masses_at_midpoint():
    q = DiscreteMeasure([(0.4, 0.5), (0.6, 0.5)], [1.0, 1.0])
    out = lump_clusters(q, 0.3)
    assert len(out) == 1
    assert np.allclose(out.positions[0], (0.5, 0.5), atol=1e-14)
    assert out.coefficients[0] == pytest.approx(2.0, abs=1e-14)


def test_lump_magnitude_weighted_center():
    q = DiscreteMeasure([(0.0, 0.0), (0.01, 0.0)], [1.0, 3.0])
    out = lump_clusters(q, 0.02)
    assert len(out) == 1
    assert out.positions[0] == pytest.approx([0.0075, 0.0], abs=1e-15)
    assert out.coefficients[0] == pytest.approx(4.0, abs=1e-15)


def test_lump_never_increases_tv():
    rng = np.random.default_rng(2)
    q = DiscreteMeasure(rng.random((6, 2)), rng.standard_normal(6))
    out = lump_clusters(q, 2.0)  # every pair of same-sign atoms is linked
    assert tv_norm(out) <= tv_norm(q) + 1e-12
    assert len(out) == len(set(np.sign(q.coefficients)))


def test_lump_keeps_a_close_dipole():
    q = DiscreteMeasure([(0.45, 0.5), (0.55, 0.5)], [5.0, -5.0])
    out = lump_clusters(q, 2.0)
    assert len(out) == 2
    assert np.array_equal(out.positions, q.positions)
    assert np.array_equal(out.coefficients, q.coefficients)


def test_lump_single_linkage_chains():
    q = DiscreteMeasure([(0.1, 0.5), (0.2, 0.5), (0.3, 0.5)], [1.0, 1.0, 1.0])
    out = lump_clusters(q, 0.11)
    assert len(out) == 1
    assert out.coefficients[0] == pytest.approx(3.0)


def test_match_identical_measures():
    m = match_supports(PAPER_TRUTH, PAPER_TRUTH, 0.15)
    assert m.position_error == 0.0
    assert m.coefficient_error == 0.0
    assert not m.unmatched_reference and not m.unmatched_test


def test_match_cluster_sums_coefficients():
    ref = DiscreteMeasure([(0.5, 0.5)], [2.0])
    test = DiscreteMeasure([(0.48, 0.5), (0.52, 0.5)], [0.5, 1.5])
    m = match_supports(ref, test, 0.1)
    assert m.coefficient_error == pytest.approx(0.0, abs=1e-14)
    assert m.position_error == pytest.approx(0.02, abs=1e-14)


def test_match_paper_reconstruction_errors():
    # Figure-label arithmetic: recovered (19.31, -9.54) vs truth (25, -10).
    recovered = DiscreteMeasure(
        [[0.699360444627145, 0.689105463441521], [0.295575037477538, 0.308762864982223]],
        [19.31, -9.54],
    )
    m = match_supports(PAPER_TRUTH, recovered, 0.15)
    assert not m.unmatched_reference and not m.unmatched_test
    errors = sorted(
        abs(PAPER_TRUTH.coefficients[i] - recovered.coefficients[cluster].sum())
        for i, cluster in m.pairs
    )
    assert errors[0] == pytest.approx(0.46, abs=1e-12)
    assert errors[1] == pytest.approx(5.69, abs=1e-12)
    assert m.coefficient_error == pytest.approx(5.69, abs=1e-12)


def test_match_unmatched_lists():
    ref = DiscreteMeasure([(0.2, 0.2), (0.8, 0.8)], [1.0, 1.0])
    test = DiscreteMeasure([(0.21, 0.2), (0.5, 0.5)], [1.0, 7.0])
    m = match_supports(ref, test, 0.05)
    assert m.unmatched_reference == [1]
    assert m.unmatched_test == [1]


def test_match_rejects_ambiguous_reference():
    ref = DiscreteMeasure([(0.5, 0.5), (0.52, 0.5)], [1.0, 1.0])
    with pytest.raises(ValueError):
        match_supports(ref, ref, 0.05)


def test_match_permutation_invariant():
    rng = np.random.default_rng(3)
    test_pos = np.array([(0.21, 0.2), (0.19, 0.2), (0.81, 0.8)])
    test_coef = np.array([0.5, 0.6, 1.0])
    ref = DiscreteMeasure([(0.2, 0.2), (0.8, 0.8)], [1.0, 1.0])
    base = match_supports(ref, DiscreteMeasure(test_pos, test_coef), 0.05)
    perm = rng.permutation(3)
    shuffled = match_supports(ref, DiscreteMeasure(test_pos[perm], test_coef[perm]), 0.05)
    assert base.position_error == pytest.approx(shuffled.position_error, abs=1e-15)
    assert base.coefficient_error == pytest.approx(shuffled.coefficient_error, abs=1e-15)


def test_measure_json_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    q = DiscreteMeasure(rng.random((3, 2)), rng.standard_normal(3))
    path = tmp_path / "measure.json"
    save_measure(q, path)
    back = load_measure(path)
    assert np.array_equal(back.positions, q.positions)
    assert np.array_equal(back.coefficients, q.coefficients)
    parsed = json.loads(path.read_text())
    assert all(set(entry) == {"x", "beta"} for entry in parsed)


def test_empty_measure_json(tmp_path):
    path = tmp_path / "empty.json"
    save_measure(DiscreteMeasure(), path)
    assert load_measure(path).positions.shape == (0, 2)
