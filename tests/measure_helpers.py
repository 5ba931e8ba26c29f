"""Measure utilities that only the tests use.

`project_to_nodes` is the nodal-splitting oracle of the propagation
tests and of criterion 4; `match_supports` scores a recovered measure
against the truth for the recovery tests and criterion 10;
`load_measure` reads back the measure.json that
`sparseheat.measures.save_measure` writes; `record_runs` records the
PDAP solves of a driver, level by level; `objective` and
`adjoint_state` recompute the reduced objective and the adjoint trace of
a measure from scratch, as oracles for the solver; `propagate_by_stepping`
is the explicit M-step loop, the oracle of the Chebyshev propagation;
`per_cell_mass` and `per_cell_stiffness` assemble cell by cell, the
oracles of the lattice stencil of `sparseheat.fem`, and `per_cell_l2_load`
is the cell-by-cell oracle of `sparseheat.fem.l2_load`;
`slab_lu` factors the slab matrix of given blocks as `(k A - sigma M).tocsc()`,
the oracle of `HeatModel._slab_lu`; `AscendingHeatModel` is the model on
the ascending interior numbering, the oracle of the nested-dissection
order; `cell_table` is the cell
table of a lattice built by meshgrid, the oracle of
`sparseheat.mesh.TriMesh.cell_nodes`, and `cell_areas` gives the signed
area of every cell for the per-cell oracles.
"""

import functools
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sparseheat import pdap
from sparseheat.fem import delta_load
from sparseheat.measures import PRUNE_TOL, DiscreteMeasure, tv_norm
from sparseheat.timestepping import _POLES, SPLU_SLAB, HeatModel, adjoint_dirac
from sparseheat.timestepping import forward_dirac


def project_to_nodes(mesh, q):
    """Split every atom onto the interior mesh nodes by hat-function weights.

    The coefficient at node i becomes sum_j beta_j phi_i(x_j); mass
    falling on boundary nodes is dropped. Leaves nodal atoms unchanged
    and never increases the total variation.
    """
    weights = delta_load(mesh, q)
    interior = mesh.interior_nodes()
    mask = np.abs(weights[interior]) > PRUNE_TOL
    idx = interior[mask]
    return DiscreteMeasure(mesh.nodes[idx], weights[idx])


def objective(model, u_d, q, alpha):
    """0.5 ||S q - u_d||^2 + alpha TV(q), recomputed from scratch."""
    resid = forward_dirac(model, q) - u_d
    sq = float(resid @ (model.mass @ resid))
    return 0.5 * max(sq, 0.0) + alpha * tv_norm(q)


def adjoint_state(model, u_d, q):
    """Initial adjoint trace S*(S q - u_d) as nodal values."""
    return adjoint_dirac(model, forward_dirac(model, q) - u_d)


def propagate_by_stepping(model, load):
    """M explicit slab steps u_m = S u_{m-1} from the first step of a nodal load.

    Nodal in and out, as `HeatModel.propagate_load`.
    """
    u = model._step(load[model.interior])
    for _ in range(model.grid.M - 1):
        u = model._step(model.mass_int @ u)
    return model.embed(u)


def cell_table(mesh):
    """Node triples of every cell of `mesh`, built from a lattice meshgrid:
    [ll, lr, ur] below and [ll, ur, ul] above each square's diagonal."""
    n = mesh.n
    r, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ll = (r * (n + 1) + c).ravel()
    lr = ll + 1
    ul = ll + n + 1
    ur = ul + 1
    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    cells[0::2] = np.column_stack([ll, lr, ur])
    cells[1::2] = np.column_stack([ll, ur, ul])
    return cells


def all_cells(mesh):
    """`mesh.cell_nodes` of every cell, in cell order."""
    return mesh.cell_nodes(np.arange(mesh.num_cells))


def cell_areas(mesh):
    tri = mesh.nodes[all_cells(mesh)]
    d1 = tri[:, 1] - tri[:, 0]
    d2 = tri[:, 2] - tri[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _per_cell(mesh, local):
    """CSR matrix summing the 3x3 cell matrices local[cell] by `tocsr`."""
    cells = all_cells(mesh)
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(cells[:, a])
            cols.append(cells[:, b])
            vals.append(local[:, a, b])
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.num_nodes, mesh.num_nodes),
    )
    return mat.tocsr()


def per_cell_mass(mesh):
    """P1 mass matrix assembled per cell: area/12 * [2,1,1] pattern."""
    w = cell_areas(mesh) / 12.0
    return _per_cell(mesh, w[:, None, None] * (1.0 + np.eye(3)))


def per_cell_l2_load(mesh, f):
    """L2 load of f by the edge-midpoint rule, cell by cell: each vertex
    gets area/3 times the mean of f at the midpoints of its two edges."""
    cells = all_cells(mesh)
    tri, area = mesh.nodes[cells], cell_areas(mesh)
    mids = [
        0.5 * (tri[:, 0] + tri[:, 1]),
        0.5 * (tri[:, 1] + tri[:, 2]),
        0.5 * (tri[:, 2] + tri[:, 0]),
    ]
    fvals = [np.asarray(f(m[:, 0], m[:, 1]), dtype=float) for m in mids]
    F = np.zeros(mesh.num_nodes)
    # Each vertex sees the two midpoints of its adjacent edges with hat value 1/2.
    adjacent = {0: (0, 2), 1: (0, 1), 2: (1, 2)}
    for vert, (ea, eb) in adjacent.items():
        np.add.at(F, cells[:, vert], area / 3.0 * 0.5 * (fvals[ea] + fvals[eb]))
    return F


def per_cell_stiffness(mesh):
    """P1 stiffness matrix assembled per cell: (e_a . e_b) / (4 |T|)."""
    tri, area = mesh.nodes[all_cells(mesh)], cell_areas(mesh)
    # Edge opposite each vertex.
    e = np.stack(
        [tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2], tri[:, 1] - tri[:, 0]],
        axis=1,
    )
    return _per_cell(mesh, np.einsum("iad,ibd->iab", e, e) / (4.0 * area)[:, None, None])


def slab_lu(stiffness, mass, k, order):
    """SuperLU factors of the slab matrix k A - sigma M of the dG order,
    summed as sparse matrices and converted to CSC."""
    sigma = _POLES[order][0]
    return spla.splu((k * stiffness - sigma * mass).tocsc(), **SPLU_SLAB)


class AscendingHeatModel(HeatModel):
    """HeatModel with the interior nodes numbered in ascending order.

    The interior blocks are sliced from the per-cell assemblies, so
    neither the nested-dissection order nor the stencil enters; the slab
    matrix is summed from those blocks and factored in that order, as
    banded.
    """

    def __init__(self, mesh, grid, order):
        super().__init__(mesh, grid, order)
        interior = np.flatnonzero(~mesh.boundary_mask)
        self.interior = interior
        self.mass_int = per_cell_mass(mesh)[interior][:, interior].tocsr()
        self.stiff_int = per_cell_stiffness(mesh)[interior][:, interior].tocsr()

    @functools.cached_property
    def _slab_lu(self):
        return slab_lu(self.stiff_int, self.mass_int, self.grid.k, self.order)


def load_measure(path):
    with open(path) as f:
        data = json.load(f)
    positions = [entry["x"] for entry in data]
    coefficients = [entry["beta"] for entry in data]
    return DiscreteMeasure(positions, coefficients)


@dataclass
class SupportMatch:
    """Cluster assignment of test atoms to reference atoms.

    position_error is the largest distance between a reference atom and a
    member of its matched cluster; coefficient_error the largest mismatch
    between a reference coefficient and the summed cluster coefficients.
    Both are 0 when nothing matched (the unmatched lists then tell the story).
    """

    pairs: list = field(default_factory=list)
    position_error: float = 0.0
    coefficient_error: float = 0.0
    unmatched_reference: list = field(default_factory=list)
    unmatched_test: list = field(default_factory=list)


def match_supports(q_ref, q_test, radius):
    """Assign each test atom to the reference atom within `radius`, if any.

    Requires the reference atoms to be pairwise separated by more than
    2*radius so the assignment is unambiguous.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    nref = len(q_ref)
    for i in range(nref):
        for j in range(i + 1, nref):
            d = np.linalg.norm(q_ref.positions[i] - q_ref.positions[j])
            if d <= 2.0 * radius:
                raise ValueError(
                    f"reference atoms {i} and {j} are only {d:.3g} apart; "
                    f"need separation > {2 * radius:.3g}"
                )
    clusters = [[] for _ in range(nref)]
    unmatched_test = []
    for t, pos in enumerate(q_test.positions):
        hit = None
        for i in range(nref):
            if np.linalg.norm(pos - q_ref.positions[i]) <= radius:
                hit = i
                break
        if hit is None:
            unmatched_test.append(t)
        else:
            clusters[hit].append(t)

    match = SupportMatch(unmatched_test=unmatched_test)
    for i in range(nref):
        if not clusters[i]:
            match.unmatched_reference.append(i)
            continue
        match.pairs.append((i, clusters[i]))
        dists = [
            float(np.linalg.norm(q_test.positions[t] - q_ref.positions[i]))
            for t in clusters[i]
        ]
        match.position_error = max(match.position_error, max(dists))
        coef_sum = float(q_test.coefficients[clusters[i]].sum())
        match.coefficient_error = max(
            match.coefficient_error, abs(q_ref.coefficients[i] - coef_sum)
        )
    return match


def record_runs(monkeypatch, first=None):
    """Wrap `pdap.run`, recording (mesh n, seed nodes, result) per call.

    `first(model, u_d, config)`, when given, replaces the first call; a
    call that raises is not recorded.
    """
    calls, real_run = [], pdap.run
    pending = [first]

    def run(model, u_d, config, seed_nodes=()):
        replacement, pending[0] = pending[0], None
        if replacement is not None:
            result = replacement(model, u_d, config)
        else:
            result = real_run(model, u_d, config, seed_nodes)
        calls.append((model.mesh.n, list(seed_nodes), result))
        return result

    monkeypatch.setattr(pdap, "run", run)
    return calls
