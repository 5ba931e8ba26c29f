"""Convergence of the optimal state under time and mesh refinement.

Temporal refinement shows the two advertised orders: first order for the
piecewise-constant scheme and third order for the piecewise-linear one.
The spatial study illustrates why its observed order is delicate: spikes
living between nodes are represented by clusters of adjacent nodes, which
can reproduce the terminal state to second order.
"""

from sparseheat import DiscreteMeasure
from sparseheat.experiments import ExperimentConfig, study_space, study_time
from sparseheat.pdap import PdapConfig

truth = DiscreteMeasure(
    [[0.263091083266217, 0.258378565204941], [0.76061544960808, 0.734190309666141]],
    [-10.0, 25.0],
)


def show(table, label):
    print(label)
    print("  param        error        eoc")
    for row in table.rows:
        eoc = "   -" if row.eoc is None else f"{row.eoc:5.2f}"
        print(f"  {row.param:10.5f}  {row.error:.4e}  {eoc}")
    print(f"  fitted slope (reference-adjacent point excluded): {table.slope:.3f}\n")


for order in (0, 1):
    cfg = ExperimentConfig(
        T=0.1,
        truth=truth,
        mesh_n=16,
        time_steps=[16, 32, 64, 128, 256],
        dg_order=order,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8, max_outer_iterations=300),
    )
    table, _ = study_time(cfg)
    show(table, f"time refinement, order {order} (expected slope {2*order + 1}):")

cfg = ExperimentConfig(
    T=0.1,
    truth=truth,
    mesh_n=[8, 16, 32, 64],
    time_steps=32,
    dg_order=0,
    pdap=PdapConfig(alpha=1e-3, tol=1e-8, max_outer_iterations=300),
)
table, _ = study_space(cfg)
show(table, "mesh refinement, order 0 (first-order bound, cluster effects above it):")
