"""Forward propagation and its adjoint.

Propagates point sources to the final time with both time discretizations,
shows the per-mode step factors against the scalar oracle, and verifies
the duality relation that the inversion relies on:

    < q, adjoint(g) >  ==  ( forward(q), g )_{L2}
"""

import numpy as np
import scipy.linalg as sla

from sparseheat import DiscreteMeasure, build_uniform, eval_field, l2_inner, l2_norm
from sparseheat.fem import interior_stiffness
from sparseheat.timestepping import (
    HeatModel,
    TimeGrid,
    adjoint_dirac,
    forward_dirac,
    forward_field,
    pade_step_oracle,
)

mesh = build_uniform(16)
q = DiscreteMeasure([(0.3, 0.4), (0.7, 0.6)], [1.0, -2.0])

for order in (0, 1):
    model = HeatModel(mesh, TimeGrid(0.1, 32), order)
    u = forward_dirac(model, q)
    print(f"order {order}: |u(T)|_L2 = {l2_norm(model.mass, u):.6f}, "
          f"value range [{u.min():.4f}, {u.max():.4f}]")

# The per-step amplification of a Laplacian eigenmode is a rational
# function of k*lambda; the oracle solves the scalar slab system.
print("\nscalar step factors at k*lambda = 0.5:")
print(f"  order 0: {pade_step_oracle(0.5, 1.0, 0):.6f} (1/(1+s) = {1/1.5:.6f})")
print(f"  order 1: {pade_step_oracle(0.5, 1.0, 1):.6f} (exp(-s) = {np.exp(-0.5):.6f})")

# Propagating an exact discrete eigenmode multiplies it by that factor.
model = HeatModel(build_uniform(4), TimeGrid(0.002, 2), 1)
interior = model.interior
lam, W = sla.eigh(interior_stiffness(model.mesh).toarray(), model.mass_int.toarray())
w = W[:, 0]
out = forward_field(model, model.embed(w))[interior]
factor = pade_step_oracle(lam[0], 0.001, 1) ** 2
print(f"\nlowest discrete mode, two steps: max defect vs oracle "
      f"{np.abs(out - w * factor).max():.2e}")

# Adjoint identity: both sides computed through independent paths.
model = HeatModel(mesh, TimeGrid(0.1, 16), 1)
rng = np.random.default_rng(1)
g = rng.standard_normal(mesh.num_nodes)
z = adjoint_dirac(model, g)
lhs = float(q.coefficients @ eval_field(mesh, z, q.positions))
rhs = l2_inner(model.mass, forward_dirac(model, q), g)
print(f"duality defect |<q, S*g> - (Sq, g)| = {abs(lhs - rhs):.2e}")
