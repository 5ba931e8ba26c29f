"""End-to-end experiment drivers.

Covers observation synthesis, point-source reconstruction with cluster
lumping, spatial/temporal refinement studies of the optimal state, a
pointwise rate study for the plain forward solver, and order-of-
convergence bookkeeping. Every driver is deterministic for a fixed
configuration and seed; noise uses numpy's PCG64 generator so seeds are
portable across machines.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import pdap
from .errors import ConfigError, SolverFailure
from .fem import (
    eval_field,
    field_to_csv,
    interpolation_matrix,
    l2_load,
    l2_norm,
    l2_project,  # unused here; perfbench/tracing.py wraps this name
    spd_solve,
)
from .measures import DiscreteMeasure, lump_clusters, save_measure
from .mesh import build_uniform, refine, refine_support
from .pdap import PdapConfig
from .timestepping import HeatModel, TimeGrid, forward_dirac

LUMP_RADIUS_FACTOR = 2.0  # lumping radius in units of the mesh size
# Smallest even n that `reconstruct` seeds from an n/2 solve. On the
# paper_10_1 sources with 256 steps and six noise draws, the n/2 level
# cost more than it saved at n = 8 and 16 in every run, was faster in 2
# of 6 at n = 32 and in 6 of 6 at n = 64.
TWO_LEVEL_MIN_N = 64

_log = logging.getLogger("sparseheat")


@dataclass
class SmoothingSpec:
    x0: tuple = (0.5, 0.5)
    sweep: str = "time"

    def __post_init__(self):
        if self.sweep not in ("time", "space"):
            raise ValueError("sweep must be 'time' or 'space'")


@dataclass
class ExperimentConfig:
    """Parameters of one experiment on the unit square.

    mesh_n and time_steps are single values or ascending lists; studies
    interpret the finest entry of the swept parameter as the reference.
    pdap carries the regularization weight alpha (default 1e-3).
    """

    T: float = 0.1
    truth: DiscreteMeasure = field(default_factory=DiscreteMeasure)
    mesh_n: object = 32
    time_steps: object = 64
    dg_order: int = 0
    noise_level: float = 0.0
    seed: int = 0
    pdap: PdapConfig = field(default_factory=lambda: PdapConfig(alpha=1e-3))
    output_dir: str = None
    smoothing: SmoothingSpec = None

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.noise_level < 0:
            raise ValueError("noise level must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("mesh_n", "time_steps"):
            v = getattr(self, name)
            if isinstance(v, (list, tuple)):
                if len(v) >= 2 and any(b <= a for a, b in zip(v, v[1:])):
                    raise ValueError(f"{name} list must be ascending")


@dataclass
class EocRow:
    param: float
    error: float
    eoc: float = None  # None on the first row and for skipped pairs


@dataclass
class EocTable:
    """Refinement table: (parameter, error, order) rows plus a fitted slope."""

    rows: list
    slope: float
    skipped: list = field(default_factory=list)

    @property
    def errors(self):
        return [r.error for r in self.rows]

    @property
    def eocs(self):
        return [r.eoc for r in self.rows[1:]]

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("param,error,eoc\n")
            for r in self.rows:
                eoc = "" if r.eoc is None else f"{r.eoc:.17g}"
                f.write(f"{r.param:.17g},{r.error:.17g},{eoc}\n")


def _fit_slope(params, errors):
    """Least-squares slope of ln(error) against ln(param)."""
    p = np.asarray(params, dtype=float)
    e = np.asarray(errors, dtype=float)
    good = e > 0
    if good.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(p[good]), np.log(e[good]), 1)[0])


def compute_eoc(params, errors):
    """Order table for a refinement sequence.

    params must be positive and strictly decreasing; pairs with a
    nonpositive error are skipped (no EOC) and reported in `skipped`.
    """
    params = [float(p) for p in params]
    errors = [float(e) for e in errors]
    if len(params) != len(errors) or len(params) < 2:
        raise ValueError("need equally long lists with at least two entries")
    if any(p <= 0 for p in params) or any(b >= a for a, b in zip(params, params[1:])):
        raise ValueError("params must be positive and strictly decreasing")
    rows = [EocRow(params[0], errors[0])]
    skipped = []
    for i in range(1, len(params)):
        e_prev, e_cur = errors[i - 1], errors[i]
        if e_prev <= 0 or e_cur <= 0:
            rows.append(EocRow(params[i], e_cur))
            skipped.append(i)
            continue
        rows.append(
            EocRow(
                params[i],
                e_cur,
                np.log(e_prev / e_cur) / np.log(params[i - 1] / params[i]),
            )
        )
    return EocTable(rows=rows, slope=_fit_slope(params, errors), skipped=skipped)


def _study_table(cfg, params, errors):
    """EOC table for errors measured against the finest-level reference.

    The error next to the reference is biased small, so the headline
    slope is fitted without the last point whenever three or more error
    rows are available; the full table keeps every row. A healthy study
    decays monotonically up to at most one inversion; anything worse is
    logged as one warning line. The table goes to errors.csv in
    cfg.output_dir when that is set.
    """
    table = compute_eoc(params, errors)
    if len(params) >= 3:
        table.slope = _fit_slope(params[:-1], errors[:-1])
    inversions = sum(b > a for a, b in zip(errors, errors[1:]))
    if inversions > 1:
        _log.warning(
            "error sequence has %d inversions; study may be unhealthy", inversions
        )
    if cfg.output_dir:
        _ensure_dir(cfg.output_dir)
        table.write_csv(os.path.join(cfg.output_dir, "errors.csv"))
    return table


def make_observation(model, q_truth, noise_level, seed):
    """Synthesize the observed terminal state S(q_truth) plus scaled noise.

    The noise is an independent standard normal value per node drawn from
    numpy's PCG64 generator with the given seed, rescaled so its L2 norm
    equals noise_level times the norm of the clean state. Zero noise
    returns the clean state bit for bit.
    """
    u = forward_dirac(model, q_truth)
    if noise_level == 0.0:
        return u
    rng = np.random.default_rng(seed)
    delta = rng.standard_normal(model.mesh.num_nodes)
    scale = noise_level * l2_norm(model.mass, u) / l2_norm(model.mass, delta)
    return u + scale * delta


@dataclass
class ReconstructionReport:
    measure: DiscreteMeasure
    lumped: DiscreteMeasure
    adjoint_max: float
    objective: float
    gap: float
    converged: bool
    log: pdap.IterationLog


def _single(value, name):
    if isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a single value for this driver")
    return int(value)


def _levels(value):
    """The levels of a swept parameter: its list, or its single value."""
    levels = list(value) if isinstance(value, (list, tuple)) else [value]
    if len(levels) < 3:
        raise ConfigError("refinement studies need at least three levels")
    return levels


def _ensure_dir(path):
    if path:
        os.makedirs(path, exist_ok=True)


def reconstruct(cfg):
    """Recover the initial measure from the configured observation.

    Makes the observation on the n lattice. For an even n of at least
    TWO_LEVEL_MIN_N it solves the n/2 lattice on the same time grid first
    (`_coarse_seed`) and seeds the n level's PDAP with that support
    carried by `refine_support`; other n are solved cold. Lumps
    clustered atoms within twice the mesh size. The report and the
    artifacts (measure.json, measure_lumped.json, log.csv, field.csv,
    written to cfg.output_dir when set) describe the n level only; row 0
    of a seeded level's log.csv is the empty measure and row 1 counts the
    seed columns. Solver non-convergence is reported in the result, not
    raised.
    """
    n = _single(cfg.mesh_n, "mesh_n")
    M = _single(cfg.time_steps, "time_steps")
    mesh = build_uniform(n)
    model = HeatModel(mesh, TimeGrid(cfg.T, M), cfg.dg_order)
    u_d = make_observation(model, cfg.truth, cfg.noise_level, cfg.seed)
    two_level = n % 2 == 0 and n >= TWO_LEVEL_MIN_N
    seed_nodes = _coarse_seed(model, u_d, cfg) if two_level else []
    result = _solve_level(f"n={n}", model, u_d, cfg, seed_nodes)
    lumped = lump_clusters(result.measure, LUMP_RADIUS_FACTOR * mesh.h)
    report = ReconstructionReport(
        measure=result.measure,
        lumped=lumped,
        adjoint_max=float(np.abs(result.adjoint).max()),
        objective=result.objective,
        gap=result.gap,
        converged=result.converged,
        log=result.log,
    )
    if cfg.output_dir:
        _ensure_dir(cfg.output_dir)
        save_measure(result.measure, os.path.join(cfg.output_dir, "measure.json"))
        save_measure(lumped, os.path.join(cfg.output_dir, "measure_lumped.json"))
        result.log.write_csv(os.path.join(cfg.output_dir, "log.csv"))
        field_to_csv(mesh, result.state, os.path.join(cfg.output_dir, "field.csv"))
    return report


def _coarse_seed(model, u_d, cfg):
    """Seed for `model`'s PDAP from a solve on the lattice of half its n.

    The data is carried down as in `study_space` (`_coarse_data`) and the
    coarse level solved from no seeds on the same time grid; its support,
    converged or not, is carried up by `refine_support`. A coarse
    SolverFailure gives no seed, so the fine level is solved cold. The
    coarse model and its slab LU are freed when this call returns.
    """
    coarse_mesh = build_uniform(model.mesh.n // 2)
    coarse = HeatModel(coarse_mesh, model.grid, model.order)
    interp = interpolation_matrix(coarse_mesh, model.mesh)
    u_d_coarse = _coarse_data(coarse, interp, model.mass @ u_d)
    try:
        result = _solve_level(f"n={coarse_mesh.n}", coarse, u_d_coarse, cfg, [])
    except SolverFailure:
        return []
    return refine_support(coarse_mesh, result.active_nodes)


def _coarse_data(coarse_model, interp, fine_mass_load):
    """The L2 data of a nested finer lattice, represented on a coarse one.

    `fine_mass_load` is M u_d on the fine lattice and `interp` the
    interpolation from the coarse lattice onto it; the mass-orthogonal
    projection leaves the optimality system unchanged on nested meshes.
    """
    return spd_solve(coarse_model.mass, interp.T @ fine_mass_load)


def _nested_meshes(ns):
    """Meshes for the ascending resolutions ns, nested by refinement."""
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ConfigError("mesh resolutions must double between levels")
    meshes = [build_uniform(ns[0])]
    for _ in ns[1:]:
        meshes.append(refine(meshes[-1]))
    return meshes


def _solve_level(label, model, u_d, cfg, seed_nodes):
    """`pdap.run` on one study level, logged as one INFO line.

    The line gives the level (`label`, such as "n=32"), the number of
    seed nodes, the outer iterations (one adjoint solve each), the
    columns propagated and the milliseconds of the solve.
    """
    started = time.perf_counter()
    result = pdap.run(model, u_d, cfg.pdap, seed_nodes)
    _log.info(
        "level %s seeds=%d outer=%d columns=%d ms=%.1f",
        label, len(seed_nodes), len(result.log),
        sum(r.inserted for r in result.log),
        1e3 * (time.perf_counter() - started),
    )
    return result


def _coarse_to_fine(levels, solve_level, carry):
    """Solve refinement levels in ascending order, each seeded by the last.

    `solve_level(level, seed_nodes)` returns the level's (state,
    active_nodes, converged); it runs as a call of its own, so the level's
    model and slab LU are freed before the next level is built.
    `carry(level, nodes)` maps a support of `level` to the next level's
    node numbering. The discrete optimal controls converge to the same
    finite sum of Dirac measures, so each support is a near-optimal
    active set for the next level. Returns the states, whether every
    level converged, and the seed for the level after the last.
    """
    states, converged, seed_nodes = [], True, []
    for level in levels:
        state, active, ok = solve_level(level, seed_nodes)
        states.append(state)
        converged = converged and ok
        seed_nodes = carry(level, active)
    return states, converged, seed_nodes


def study_space(cfg):
    """Spatial refinement study of the optimal terminal state.

    Solves the control problem on each mesh level against data fixed on
    the finest level (carried to coarse levels by the mass-orthogonal
    projection, which leaves the optimality system unchanged on nested
    meshes) and compares optimal states on the reference mesh via exact
    nodal interpolation. The levels are solved coarse to fine, the
    reference last, each PDAP seeded with the previous level's support
    carried by `refine_support`: its nodes mapped onto the finer lattice
    plus the fine midpoint of every edge between two of them, since a
    spike split over two adjacent nodes is resolved between them on the
    finer lattice. Returns the EOC table over the coarse levels.
    """
    meshes = _nested_meshes(_levels(cfg.mesh_n))
    M = _single(cfg.time_steps, "time_steps")
    grid = TimeGrid(cfg.T, M)

    ref_mesh = meshes[-1]
    ref_model = HeatModel(ref_mesh, grid, cfg.dg_order)
    u_d_ref = make_observation(ref_model, cfg.truth, cfg.noise_level, cfg.seed)
    ud_ref_m = ref_model.mass @ u_d_ref

    def solve_level(mesh, seed_nodes):
        model = HeatModel(mesh, grid, cfg.dg_order)
        interp = interpolation_matrix(mesh, ref_mesh)
        u_d = _coarse_data(model, interp, ud_ref_m)
        result = _solve_level(f"n={mesh.n}", model, u_d, cfg, seed_nodes)
        return interp @ result.state, result.active_nodes, result.converged

    states, converged, seed_nodes = _coarse_to_fine(
        meshes[:-1], solve_level, refine_support
    )
    ref_result = _solve_level(f"n={ref_mesh.n}", ref_model, u_d_ref, cfg, seed_nodes)
    errors = [l2_norm(ref_model.mass, u - ref_result.state) for u in states]
    params = [m.h for m in meshes[:-1]]
    return _study_table(cfg, params, errors), converged and ref_result.converged


def study_time(cfg):
    """Temporal refinement study of the optimal terminal state.

    The data is the clean discrete terminal state of the truth measure on
    the finest time grid (plus configured noise, default none); each
    coarser grid solves the control problem on the same mesh, so states
    compare directly. The grids are solved coarse to fine, the reference
    last, each PDAP seeded with the previous grid's support. Returns the
    EOC table over the coarse grids.
    """
    Ms = _levels(cfg.time_steps)
    n = _single(cfg.mesh_n, "mesh_n")
    mesh = build_uniform(n)

    ref_model = HeatModel(mesh, TimeGrid(cfg.T, Ms[-1]), cfg.dg_order)
    u_d = make_observation(ref_model, cfg.truth, cfg.noise_level, cfg.seed)

    def solve_level(M, seed_nodes):
        model = HeatModel(mesh, TimeGrid(cfg.T, M), cfg.dg_order)
        result = _solve_level(f"M={M}", model, u_d, cfg, seed_nodes)
        return result.state, result.active_nodes, result.converged

    states, converged, seed_nodes = _coarse_to_fine(
        Ms[:-1], solve_level, lambda M, nodes: nodes
    )
    ref_result = _solve_level(f"M={Ms[-1]}", ref_model, u_d, cfg, seed_nodes)
    errors = [l2_norm(ref_model.mass, u - ref_result.state) for u in states]
    params = [cfg.T / M for M in Ms[:-1]]
    return _study_table(cfg, params, errors), converged and ref_result.converged


def first_eigenmode(x, y):
    """Lowest Dirichlet Laplacian eigenfunction of the unit square."""
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _point_value(label, model, load, x0):
    """Value at x0 of the end-time state from an initial L2 load vector.

    The load F_j = (v0, phi_j) on all nodes is propagated from its
    interior rows, as `forward_dirac` does for atoms; the level (`label`,
    such as "n=32") and its milliseconds are logged as one INFO line.
    """
    started = time.perf_counter()
    u = model.embed(model.propagate_load(load[model.interior]))
    value = eval_field(model.mesh, u, [x0])[0]
    _log.info("level %s ms=%.1f", label, 1e3 * (time.perf_counter() - started))
    return value


def study_smoothing(cfg, v0=first_eigenmode):
    """Pointwise rate study for the plain forward solver at an interior point.

    Sweeps either the time grid (fixed mesh) or the mesh (fixed time
    grid), measuring |v_ref(T, x0) - v_level(T, x0)| against the finest
    level of the swept parameter. Since the reference shares the fixed
    discretization axis, the sweep isolates one error component: the
    expected slopes are 2r+1 in time and 2 (up to a log factor) in space.
    The initial datum enters as its L2 load `l2_load(mesh, v0)`, which is
    the mass matrix applied to the L2 projection of v0, so no mass system
    is solved. x0 must stay well inside the domain: dist(x0, boundary) > 4h.
    """
    if cfg.smoothing is None:
        raise ConfigError("smoothing study needs a smoothing block")
    x0 = tuple(cfg.smoothing.x0)
    dist = min(x0[0], 1.0 - x0[0], x0[1], 1.0 - x0[1])

    if cfg.smoothing.sweep == "time":
        n = _single(cfg.mesh_n, "mesh_n")
        mesh = build_uniform(n)
        if dist <= 4.0 * mesh.h:
            raise ConfigError("x0 is too close to the boundary for this mesh")
        load = l2_load(mesh, v0)
        Ms = _levels(cfg.time_steps)

        def value(M):
            model = HeatModel(mesh, TimeGrid(cfg.T, M), cfg.dg_order)
            return _point_value(f"M={M}", model, load, x0)

        values = [value(M) for M in Ms]
        errors = [abs(v - values[-1]) for v in values[:-1]]
        params = [cfg.T / M for M in Ms[:-1]]
    else:
        meshes = _nested_meshes(_levels(cfg.mesh_n))
        if dist <= 4.0 * meshes[0].h:
            raise ConfigError("x0 is too close to the boundary for this mesh")
        M = _single(cfg.time_steps, "time_steps")
        grid = TimeGrid(cfg.T, M)

        def value(mesh):
            model = HeatModel(mesh, grid, cfg.dg_order)
            return _point_value(f"n={mesh.n}", model, l2_load(mesh, v0), x0)

        values = [value(mesh) for mesh in meshes]
        errors = [abs(v - values[-1]) for v in values[:-1]]
        params = [m.h for m in meshes[:-1]]

    return _study_table(cfg, params, errors)


# -- configuration files -----------------------------------------------

_TOP_KEYS = {
    "T",
    "truth",
    "mesh_n",
    "time_steps",
    "dg_order",
    "alpha",
    "noise_level",
    "seed",
    "pdap",
    "output_dir",
    "smoothing",
}
_PDAP_KEYS = {"tol", "max_outer_iterations"}
_SMOOTHING_KEYS = {"x0", "sweep"}


def _number(name, value):
    """A finite float, or ConfigError."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {out}")
    return out


def _integer(name, value):
    """An integer (integral floats such as 8.0 included), or ConfigError."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _point(name, value):
    """A list of exactly two finite numbers, or ConfigError."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be a list of two numbers, got {value!r}")
    return [_number(name, v) for v in value]


def _construct(cls, **kwargs):
    """cls(**kwargs), with its validation errors raised as ConfigError."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(data):
    """Build an ExperimentConfig from a JSON-style dict; unknown keys fail."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key in ("T", "alpha", "noise_level"):
        if key in data:
            kwargs[key] = _number(key, data[key])
    for key in ("mesh_n", "time_steps", "dg_order", "seed"):
        if key in data:
            v = data[key]
            listed = key in ("mesh_n", "time_steps") and isinstance(v, list)
            kwargs[key] = [_integer(key, x) for x in v] if listed else _integer(key, v)
    if "output_dir" in data and data["output_dir"] is not None:
        kwargs["output_dir"] = str(data["output_dir"])
    if "truth" in data:
        atoms = data["truth"]
        if not isinstance(atoms, list):
            raise ConfigError("truth must be a list of atoms")
        positions, betas = [], []
        for i, atom in enumerate(atoms):
            if not isinstance(atom, dict):
                raise ConfigError(f"truth[{i}] must be an object with keys x and beta")
            extra = set(atom) - {"x", "beta"}
            if extra:
                raise ConfigError(f"unknown atom keys: {sorted(extra)}")
            positions.append(_point(f"truth[{i}].x", atom.get("x")))
            betas.append(_number(f"truth[{i}].beta", atom.get("beta")))
        kwargs["truth"] = DiscreteMeasure(positions, betas)
    if "smoothing" in data and data["smoothing"] is not None:
        block = data["smoothing"]
        if not isinstance(block, dict):
            raise ConfigError("smoothing must be an object")
        unknown = set(block) - _SMOOTHING_KEYS
        if unknown:
            raise ConfigError(f"unknown smoothing keys: {sorted(unknown)}")
        kwargs["smoothing"] = _construct(
            SmoothingSpec,
            x0=tuple(_point("smoothing.x0", block.get("x0", [0.5, 0.5]))),
            sweep=str(block.get("sweep", "time")),
        )
    pdap_block = data.get("pdap", {})
    if not isinstance(pdap_block, dict):
        raise ConfigError("pdap must be an object")
    unknown = set(pdap_block) - _PDAP_KEYS
    if unknown:
        raise ConfigError(f"unknown pdap keys: {sorted(unknown)}")
    pdap_block = {
        key: (_number if key == "tol" else _integer)(f"pdap.{key}", v)
        for key, v in pdap_block.items()
    }
    kwargs["pdap"] = _construct(PdapConfig, alpha=kwargs.pop("alpha", 1e-3), **pdap_block)
    return _construct(ExperimentConfig, **kwargs)


def load_config(path):
    """Load and validate a JSON experiment configuration."""
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def override_config(cfg, output_dir=None, seed=None, tol=None):
    """Apply command-line overrides, returning a new config."""
    updates = {}
    if output_dir is not None:
        updates["output_dir"] = output_dir
    if seed is not None:
        updates["seed"] = int(seed)
    if tol is not None:
        updates["pdap"] = replace(cfg.pdap, tol=float(tol))
    return replace(cfg, **updates) if updates else cfg
