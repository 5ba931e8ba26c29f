"""Pointwise accuracy of the plain forward solver.

Starts from the lowest eigenmode of the square, evaluates the terminal
state at the center, and refines one discretization axis at a time while
the reference shares the other axis; the axis given as a list is the one
refined. The time sweep isolates the temporal error (orders 1 and 3);
the mesh sweep isolates the spatial error (order 2 at an interior
point).
"""

from sparseheat.experiments import ExperimentConfig, SmoothingSpec, study_smoothing


def show(table, label):
    print(label)
    print("  param        error        eoc")
    for row in table.rows:
        eoc = "   -" if row.eoc is None else f"{row.eoc:5.2f}"
        print(f"  {row.param:10.6f}  {row.error:.4e}  {eoc}")
    print(f"  fitted slope: {table.slope:.3f}\n")


for order in (0, 1):
    cfg = ExperimentConfig(
        T=0.1,
        mesh_n=32,
        time_steps=[4, 8, 16, 32, 256],
        dg_order=order,
        smoothing=SmoothingSpec(x0=(0.5, 0.5)),
    )
    show(study_smoothing(cfg), f"time-step sweep, order {order} (expected slope {2*order + 1}):")

cfg = ExperimentConfig(
    T=0.1,
    mesh_n=[16, 32, 64, 128],
    time_steps=64,
    dg_order=0,
    smoothing=SmoothingSpec(x0=(0.5, 0.5)),
)
show(study_smoothing(cfg), "mesh sweep at a fixed time grid (expected slope 2):")
