"""Point-source recovery from a terminal snapshot.

Synthesizes an observation from two spikes (one negative, one positive),
adds 5% relative noise, and runs the active-point solver. The printout
tracks the gap certificate per iteration and how many nodes each
iteration inserted (the argmax of the adjoint plus further local maxima
above alpha, propagated together), then merges the recovered
adjacent-node cluster and gives each merged atom's distance to the
nearest true atom.
"""

import warnings

import numpy as np

from sparseheat import DiscreteMeasure, build_uniform, lump_clusters
from sparseheat.experiments import make_observation
from sparseheat.pdap import PdapConfig, run
from sparseheat.timestepping import HeatModel, TimeGrid

truth = DiscreteMeasure(
    [[0.263091083266217, 0.258378565204941], [0.76061544960808, 0.734190309666141]],
    [-10.0, 25.0],
)
mesh = build_uniform(64)
model = HeatModel(mesh, TimeGrid(0.1, 256), 0)
u_d = make_observation(model, truth, noise_level=0.05, seed=20)

result = run(model, u_d, PdapConfig(alpha=1e-3, tol=1e-7, max_outer_iterations=100))
print("  n   gap            objective      support  inserted")
for rec in result.log:
    print(
        f"  {rec.n:2d}  {rec.phi:13.6e}  {rec.objective:13.6e}  "
        f"{rec.support_size:7d}  {rec.inserted}"
    )
print(f"converged: {result.converged}")

print("\nraw support (adjacent nodes may share one spike):")
for pos, beta in result.measure:
    print(f"  {beta:+8.3f} at ({pos[0]:.4f}, {pos[1]:.4f})")

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    lumped = lump_clusters(result.measure, 2.0 * mesh.h)
print("\nafter cluster merging, against the nearest true atom:")
for pos, beta in lumped:
    dist = np.linalg.norm(truth.positions - pos, axis=1)
    k = int(np.argmin(dist))
    print(f"  {beta:+8.3f} at ({pos[0]:.4f}, {pos[1]:.4f}): distance {dist[k]:.4f} "
          f"to the atom {truth.coefficients[k]:+.1f}")
print("(noise and regularization bias the atoms toward the domain interior,")
print(" where less heat is absorbed by the boundary)")

zmax = np.abs(result.adjoint).max()
print(f"\noptimality: max |adjoint| = {zmax:.6e} vs alpha = 1e-3")
