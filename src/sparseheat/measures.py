"""Atomic (finitely supported) signed measures on the unit square.

A measure is a list of (position, coefficient) atoms. The module covers
total-variation arithmetic, grouping and merging of clustered atoms,
and the measure.json writer.
"""

from __future__ import annotations

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
        merged = {}  # in the order of first occurrence
        for p, b in zip(pos, coef):
            key = (p[0], p[1])
            merged[key] = merged.get(key, 0.0) + b
        keep = [(k, b) for k, b in merged.items() if abs(b) > PRUNE_TOL]
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


def same_sign_groups(positions, coefficients, radius):
    """Groups of same-sign atoms within single-linkage distance `radius`.

    Two atoms are linked when their coefficients have one sign and their
    positions lie at most `radius` apart; the groups are the connected
    components of that relation. Each is an ascending list of indices,
    and the groups come in the order of their first members.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    n = len(coefficients)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    signs = np.sign(coefficients)
    for i in range(n):
        for j in range(i + 1, n):
            near = np.linalg.norm(positions[i] - positions[j]) <= radius
            if near and signs[i] == signs[j]:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def lump_clusters(q, radius):
    """Merge the `same_sign_groups` of the atoms of `q` at `radius`.

    Only atoms of equal sign are linked, so a dipole keeps both atoms
    however close they are. Each group becomes one atom with the summed
    coefficient placed at the magnitude-weighted center of gravity.
    """
    positions, coefficients = [], []
    for members in same_sign_groups(q.positions, q.coefficients, radius):
        betas = q.coefficients[members]
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
