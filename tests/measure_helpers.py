"""Measure utilities that only the tests use.

`project_to_nodes` is the nodal-splitting oracle of the propagation
tests and of criterion 4; `match_supports` scores a recovered measure
against the truth for the recovery tests and criterion 10;
`load_measure` reads back the measure.json that
`sparseheat.measures.save_measure` writes; `record_runs` records the
PDAP solves of a driver, level by level.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from sparseheat import pdap
from sparseheat.fem import delta_load
from sparseheat.measures import PRUNE_TOL, DiscreteMeasure


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
