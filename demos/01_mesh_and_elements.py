"""Meshes and P1 element matrices.

Builds the structured triangulation of the unit square, refines it, and
inspects the assembled mass and stiffness matrices: their row stencils on
a uniform lattice have closed forms, which is what makes this mesh family
convenient for verification.
"""

import numpy as np

from sparseheat import (
    assemble_mass,
    assemble_stiffness,
    build_uniform,
    l2_norm,
    l2_project,
    refine,
)

n = 8
mesh = build_uniform(n)
print(f"uniform {n}x{n} lattice: {mesh.num_nodes} nodes, {mesh.num_cells} cells, "
      f"h = {mesh.h:.4f}, {len(mesh.interior_nodes())} interior nodes")

fine = refine(mesh)
print(f"one refinement: {fine.num_nodes} nodes, h = {fine.h:.4f} (halved exactly)")

M = assemble_mass(mesh)
A = assemble_stiffness(mesh)
print(f"sum of all mass entries = {M.sum():.15f} (the domain area)")

# Central interior node: mass row s^2/2 with six s^2/12 neighbors,
# stiffness row 4 with -1 on the four axis neighbors.
i = (n // 2) * (n + 1) + n // 2
s = 1.0 / n
row_m = M[i].toarray().ravel()
row_a = A[i].toarray().ravel()
print(f"mass diagonal {row_m[i]:.6e} vs s^2/2 = {s*s/2:.6e}")
print(f"stiffness row at the center: diag {row_a[i]:.1f}, "
      f"axis neighbors {row_a[i-1]:.1f}, diagonal neighbors {row_a[i - (n+2)]:.1f}")

# L2 projection reproduces polynomials up to the element degree.
p = l2_project(mesh, lambda x, y: 2.0 * x - y + 0.25)
exact = 2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1] + 0.25
print(f"projection of a linear: max nodal defect {np.abs(p - exact).max():.2e}")

mode = l2_project(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
print(f"projected eigenmode norm {l2_norm(M, mode):.6f} (continuum value 0.5)")

# Point location drives all measure/point evaluations. It is closed form
# on the lattice and takes many points at once.
cells, lam = mesh.locate([(0.33, 0.71), (0.5, 0.5)])
for point, cell, weights in zip([(0.33, 0.71), (0.5, 0.5)], cells, lam):
    print(f"{point} lies in cell {cell} with weights {np.round(weights, 4)}")
