"""Measure utilities that only the tests use.

`project_to_nodes` is the nodal-splitting oracle of the propagation
tests and of criterion 4; `load_measure` reads back the measure.json
that `sparseheat.measures.save_measure` writes.
"""

import json

import numpy as np

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
