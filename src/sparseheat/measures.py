"""Atomic (finitely supported) signed measures on the unit square.

A measure is a list of (position, coefficient) atoms. The module covers
total-variation arithmetic, merging of clustered atoms and the
measure.json writer.
"""

from __future__ import annotations

import warnings

import numpy as np

PRUNE_TOL = 1e-12


class DiscreteMeasure:
    """Finite list of weighted Dirac atoms.

    Duplicate positions are merged by summing coefficients and atoms with
    |coefficient| <= 1e-12 are pruned on construction, so positions are
    pairwise distinct and coefficients nonzero.
    """

    __slots__ = ("positions", "coefficients")

    def __init__(self, positions=(), coefficients=()):
        pos = np.asarray(positions, dtype=float).reshape(-1, 2)
        coef = np.asarray(coefficients, dtype=float).reshape(-1)
        if pos.shape[0] != coef.shape[0]:
            raise ValueError("positions and coefficients differ in length")
        merged = {}
        order = []
        for p, b in zip(pos, coef):
            key = (p[0], p[1])
            if key in merged:
                merged[key] += b
            else:
                merged[key] = b
                order.append(key)
        keep = [(k, merged[k]) for k in order if abs(merged[k]) > PRUNE_TOL]
        if keep:
            self.positions = np.array([k for k, _ in keep], dtype=float)
            self.coefficients = np.array([b for _, b in keep], dtype=float)
        else:
            self.positions = np.zeros((0, 2))
            self.coefficients = np.zeros(0)

    def __len__(self):
        return self.positions.shape[0]

    def __iter__(self):
        return zip(self.positions, self.coefficients)

    def __repr__(self):
        atoms = ", ".join(
            f"{b:+.4g} d({x:.4g},{y:.4g})" for (x, y), b in self
        )
        return f"DiscreteMeasure([{atoms}])"


def tv_norm(q):
    """Total variation of an atomic measure: sum of |coefficients|."""
    return float(np.abs(q.coefficients).sum())


def lump_clusters(q, radius):
    """Merge groups of atoms within single-linkage distance `radius`.

    Each group becomes one atom with the summed coefficient placed at the
    magnitude-weighted center of gravity; groups whose net coefficient is
    below 1e-12 are dropped. Mixed-sign groups are merged too but flagged
    with a warning, since their center of gravity is less meaningful.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    n = len(q)
    if n == 0:
        return DiscreteMeasure()
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(q.positions[i] - q.positions[j]) <= radius:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    positions, coefficients = [], []
    for members in sorted(groups.values(), key=min):
        betas = q.coefficients[members]
        if betas.min() < 0.0 < betas.max():
            warnings.warn(
                f"lumping a mixed-sign cluster of {len(members)} atoms",
                stacklevel=2,
            )
        weights = np.abs(betas)
        center = (weights[:, None] * q.positions[members]).sum(axis=0) / weights.sum()
        positions.append(center)
        coefficients.append(betas.sum())
    return DiscreteMeasure(positions, coefficients)


def save_measure(q, path):
    """Write a measure as a JSON array of {"x": [x1, x2], "beta": value}."""
    entries = []
    for (x, y), b in q:
        entries.append(f'{{"x": [{x:.17g}, {y:.17g}], "beta": {b:.17g}}}')
    text = "[\n  " + ",\n  ".join(entries) + "\n]\n" if entries else "[]\n"
    with open(path, "w") as f:
        f.write(text)
