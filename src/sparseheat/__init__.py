"""Sparse initial-data recovery for the heat equation.

A P1 finite-element / discontinuous-Galerkin discretization of the
homogeneous heat equation on the unit square, an active-point solver for
the total-variation-regularized inverse problem of recovering atomic
initial data from a final-time snapshot, and experiment drivers that
measure the convergence orders of the scheme.
"""

from .errors import ConfigError, NumericalError, OutOfDomainError
from .fem import (
    assemble_mass,
    assemble_stiffness,
    delta_load,
    eval_field,
    field_to_csv,
    interpolation_matrix,
    l2_inner,
    l2_load,
    l2_norm,
    l2_project,
    spd_solve,
)
from .measures import (
    DiscreteMeasure,
    lump_clusters,
    save_measure,
    tv_norm,
)
from .mesh import TriMesh, build_uniform, refine
from .pdap import (
    IterationLog,
    PdapConfig,
    PdapResult,
    run,
    select_candidates,
    solve_subproblem,
)
from .timestepping import (
    HeatModel,
    TimeGrid,
    adjoint_dirac,
    forward_dirac,
    forward_field,
    pade_step_oracle,
)
from .experiments import (
    EocTable,
    ExperimentConfig,
    SmoothingSpec,
    compute_eoc,
    config_from_dict,
    first_eigenmode,
    load_config,
    make_observation,
    reconstruct,
    study_smoothing,
    study_space,
    study_time,
)

__version__ = "0.1.0"
