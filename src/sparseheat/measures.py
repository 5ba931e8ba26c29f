"""Atomic (finitely supported) signed measures on the unit square.

A measure is a list of (position, coefficient) atoms. The module covers
total-variation arithmetic, merging of clustered atoms, support-matching
error metrics between a reference and a reconstructed measure, and the
measure.json writer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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


def save_measure(q, path):
    """Write a measure as a JSON array of {"x": [x1, x2], "beta": value}."""
    entries = []
    for (x, y), b in q:
        entries.append(f'{{"x": [{x:.17g}, {y:.17g}], "beta": {b:.17g}}}')
    text = "[\n  " + ",\n  ".join(entries) + "\n]\n" if entries else "[]\n"
    with open(path, "w") as f:
        f.write(text)
