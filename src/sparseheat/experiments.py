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
from dataclasses import dataclass, field

import numpy as np

from . import pdap
from .errors import ConfigError
from .fem import (
    delta_load,
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
from .timestepping import HeatModel, InvariantSector, TimeGrid, forward_dirac

LUMP_RADIUS_FACTOR = 2.0  # lumping radius in units of the mesh size
# Smallest even n that `reconstruct` seeds from an n/2 solve. On the
# paper_10_1 sources with 256 steps and six noise draws, the n/2 level
# cost more than it saved at n = 8 and 16 in every run, was faster in 2
# of 6 at n = 32 and in 6 of 6 at n = 64.
TWO_LEVEL_MIN_N = 64
# A level whose coarser level ends on more nodes than this is solved cold.
# study-space on the paper_fig4 atoms at mesh_n [8, 16, 32], one time step
# and noise 1.0 ends the n = 8 level on all 49 interior nodes. Seeded from
# them by midpoints (169 seeds) the n = 16 level spent its subproblem budget
# in its seed solve; by peaks (20 seeds) it takes 53 outer iterations and
# ends on 221 nodes, and the n = 32 level seeded from those took over 200 s. With both levels
# solved cold the study takes 17 s, its n = 16 level 238 ms.
MAX_SEED_SUPPORT = 40
# Largest number of time steps a config may ask for. The Chebyshev weights
# of a propagation take M - 1 polynomial products, 0.22 s at 2^16 on a
# 2-core Xeon and 2.5 times as long per doubling of M, and a propagation
# makes about sqrt(37 M) slab solves, 1557 at 2^16 against 97 at 256.
MAX_TIME_STEPS = 2**16
# Largest lattice a config may ask for, every list entry included. The slab
# LU of a lattice holds 188,416 / 989,240 / 4,931,760 nonzeros at n = 64 /
# 128 / 256 (nested dissection, the same for both dG orders) and 23,699,880
# at 512 in dG(1), about 5 times as many per doubling, and a dG(1) nonzero
# takes 20 B (complex value plus index): 0.47 GB at 512, about 2.2 GB at 1024.
# The n = 512 dG(1) factorization took 2.5 s and peaked at 1.1 GB RSS on a
# 2-core Xeon.
MAX_MESH_N = 512

_log = logging.getLogger("sparseheat")


@dataclass
class SmoothingSpec:
    """Evaluation point x0 of `study_smoothing`, which sweeps whichever of
    mesh_n and time_steps is a list."""

    x0: tuple = (0.5, 0.5)


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
        os.makedirs(cfg.output_dir, exist_ok=True)
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


def _single(value, name):
    if isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a single value for this driver")
    return int(value)


def _sweep(cfg, swept):
    """The levels of a refinement study along `swept`, coarse to fine.

    `swept` is "mesh_n" or "time_steps"; its list (at least three
    entries) gives the levels, and the other setting must be a single
    value. The list is checked first, then the single setting. Returns
    the levels as (label, mesh, M), labelled "n=…" or "M=…", and the
    swept step of each level: h for a mesh sweep, whose lattices double
    and are nested by `refine`, and T/M for a time sweep, whose levels
    share one mesh.
    """
    value = getattr(cfg, swept)
    values = list(value) if isinstance(value, (list, tuple)) else [value]
    if len(values) < 3:
        raise ConfigError("refinement studies need at least three levels")
    if swept == "time_steps":
        mesh = build_uniform(_single(cfg.mesh_n, "mesh_n"))
        return [(f"M={M}", mesh, M) for M in values], [cfg.T / M for M in values]
    if any(b != 2 * a for a, b in zip(values, values[1:])):
        raise ConfigError("mesh resolutions must double between levels")
    M = _single(cfg.time_steps, "time_steps")
    meshes = [build_uniform(values[0])]
    for _ in values[1:]:
        meshes.append(refine(meshes[-1]))
    return [(f"n={mesh.n}", mesh, M) for mesh in meshes], [mesh.h for mesh in meshes]


def reconstruct(cfg):
    """Recover the initial measure from the configured observation.

    Makes the observation on the n lattice. For an even n of at least
    TWO_LEVEL_MIN_N it first solves the n/2 lattice on the same time grid,
    as a level of `study_space` (`_level`), and seeds the n level's
    PDAP with the seed of that solve, converged or not. For n below
    2 * PEAK_SEED_BELOW_N = 128 `refine_support` seeds the fine square
    at the fitted peak of the coarse adjoint around each same-sign
    cluster of the coarse support. Other n are solved cold. Lumps
    clustered atoms within twice the mesh size. Returns the n level's
    `PdapResult` and the lumped measure. They and the artifacts
    (measure.json, measure_lumped.json, log.csv, field.csv, written to
    cfg.output_dir when set) describe the n level only; row 0 of a
    seeded level's log.csv is the empty measure and row 1 counts the
    seed columns. Solver non-convergence is reported in the result, not
    raised.
    """
    n = _single(cfg.mesh_n, "mesh_n")
    M = _single(cfg.time_steps, "time_steps")
    mesh = build_uniform(n)
    model = HeatModel(mesh, TimeGrid(cfg.T, M), cfg.dg_order)
    u_d = make_observation(model, cfg.truth, cfg.noise_level, cfg.seed)
    seed_nodes = []
    if n % 2 == 0 and n >= TWO_LEVEL_MIN_N:
        _, _, seed_nodes = _level(
            f"n={n // 2}", build_uniform(n // 2), M, model, u_d, cfg, []
        )
    result = _solve_level(f"n={n}", model, u_d, cfg, seed_nodes)
    lumped = lump_clusters(result.measure, LUMP_RADIUS_FACTOR * mesh.h)
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        save_measure(result.measure, os.path.join(cfg.output_dir, "measure.json"))
        save_measure(lumped, os.path.join(cfg.output_dir, "measure_lumped.json"))
        result.log.write_csv(os.path.join(cfg.output_dir, "log.csv"))
        field_to_csv(mesh, result.state, os.path.join(cfg.output_dir, "field.csv"))
    return result, lumped


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


def _level(label, mesh, M, ref_model, u_d, cfg, seed_nodes):
    """One level of a refinement study against the data u_d on ref_model.

    Builds the level's model on `mesh` with M steps and solves it from
    `seed_nodes`. On the reference lattice it solves u_d as it is, with a
    model that shares the reference model's mass blocks; on a
    coarser lattice nested in the reference one it carries the data down
    by the mass-orthogonal projection, which leaves the optimality system
    unchanged on nested meshes, and interpolates the optimal state back.
    Returns the optimal state on the reference lattice, whether the solve
    converged, and the seed of the next level: on the reference lattice
    the support as it is, as the next level shares the mesh; on a nested
    lattice `refine_support` of the support, its coefficients and its
    adjoint onto `refine(mesh)`; and no seed for a support of more than
    MAX_SEED_SUPPORT nodes. The level's model, slab LU and PDAP result
    are freed when this call returns.
    """
    # The reference mass is assembled on its first read; reading it before
    # the level's model is built leaves less heap resident.
    nested = mesh.n != ref_model.mesh.n
    data = ref_model.mass @ u_d if nested else u_d
    model = HeatModel(
        mesh, TimeGrid(cfg.T, M), cfg.dg_order, share=None if nested else ref_model
    )
    # Neither the interpolation matrix nor the data on the reference
    # lattice is held across the solve, so the matrix is built twice:
    # held, they raised the peak RSS of study-space by about 0.5 MB.
    if nested:
        data = spd_solve(
            model.mass, interpolation_matrix(mesh, ref_model.mesh).T @ data
        )
    result = _solve_level(label, model, data, cfg, seed_nodes)
    state = result.state
    if nested:
        state = interpolation_matrix(mesh, ref_model.mesh) @ state
    active = result.active_nodes
    if len(active) > MAX_SEED_SUPPORT:
        seeds = []
    elif nested:
        seeds = refine_support(mesh, active, result.coefficients, result.adjoint)
    else:
        seeds = active
    return state, result.converged, seeds


def _study(cfg, swept):
    """Refinement study of the optimal terminal state along `swept`.

    Makes the observation on the finest level, the reference, then
    solves the coarser levels (`_level`) coarse to fine and the reference
    last, each PDAP seeded with the seed that `_level` makes of the
    previous level's solve: its support as it is when the mesh stays,
    and `refine_support` of it onto a finer lattice, unless it has more
    than MAX_SEED_SUPPORT nodes. Returns the EOC table of the coarse
    levels' L2 distances from the reference state, and whether every
    solve converged.
    """
    levels, params = _sweep(cfg, swept)
    ref_label, ref_mesh, ref_M = levels[-1]
    ref_model = HeatModel(ref_mesh, TimeGrid(cfg.T, ref_M), cfg.dg_order)
    u_d = make_observation(ref_model, cfg.truth, cfg.noise_level, cfg.seed)

    states, converged, seed_nodes = [], True, []
    for label, mesh, M in levels[:-1]:
        state, ok, seed_nodes = _level(label, mesh, M, ref_model, u_d, cfg, seed_nodes)
        states.append(state)
        converged = converged and ok
    ref_result = _solve_level(ref_label, ref_model, u_d, cfg, seed_nodes)
    errors = [l2_norm(ref_model.mass, u - ref_result.state) for u in states]
    return _study_table(cfg, params[:-1], errors), converged and ref_result.converged


def study_space(cfg):
    """Spatial refinement study of the optimal terminal state.

    Solves the control problem on each mesh level against data fixed on
    the finest level (carried to coarse levels by the mass-orthogonal
    projection, which leaves the optimality system unchanged on nested
    meshes) and compares optimal states on the reference mesh via exact
    nodal interpolation. The levels are solved coarse to fine, the
    reference last, each PDAP seeded from the previous level's solve by
    `refine_support`. From a lattice below PEAK_SEED_BELOW_N = 64 the
    seed is the fine square at the peak of the coarse adjoint fitted
    around each same-sign cluster of the support, where the spike that
    the cluster splits lands on the finer lattice; from n = 64 on it is
    the support's nodes mapped onto the finer lattice plus the fine
    midpoint of every edge between two of them. A support of more than
    MAX_SEED_SUPPORT nodes gives no seed. Returns the EOC table over the
    coarse levels.
    """
    return _study(cfg, "mesh_n")


def study_time(cfg):
    """Temporal refinement study of the optimal terminal state.

    The data is the clean discrete terminal state of the truth measure on
    the finest time grid (plus configured noise, default none); each
    coarser grid solves the control problem on the same mesh, so states
    compare directly. The grids are solved coarse to fine, the reference
    last, each PDAP seeded with the previous grid's support. Returns the
    EOC table over the coarse grids.
    """
    return _study(cfg, "time_steps")


def first_eigenmode(x, y):
    """Lowest Dirichlet Laplacian eigenfunction of the unit square."""
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def study_smoothing(cfg):
    """Pointwise rate study for the plain forward solver at an interior point.

    Sweeps the time grid (fixed mesh) if time_steps is a list, else the
    mesh (fixed time grid), over the levels of `_sweep`, measuring
    |v_ref(T, x0) - v_level(T, x0)| against the finest level. Since the
    reference shares the fixed discretization axis, the sweep isolates
    one error component: the expected slopes are 2r+1 in time and 2 (up
    to a log factor) in space. The initial datum is `first_eigenmode`,
    which the lattice maps leave unchanged, so each level builds only
    the `InvariantSector` of its mesh and grid, factored first, and then
    pairs the datum's L2 load `l2_load(mesh, first_eigenmode)`, the mass
    matrix applied to its L2 projection, with the Dirac load of x0, the
    barycentric weights that `eval_field` interpolates with. So no mass
    system is solved, no end state is formed, and no full block is
    written. Each level (such as "n=32") and its milliseconds are logged
    as one INFO line. x0 must stay well inside the domain:
    dist(x0, boundary) > 4h on the coarsest level.
    """
    if cfg.smoothing is None:
        raise ConfigError("smoothing study needs a smoothing block")
    x0 = tuple(cfg.smoothing.x0)
    swept = "time_steps" if isinstance(cfg.time_steps, (list, tuple)) else "mesh_n"
    levels, params = _sweep(cfg, swept)
    if min(x0[0], 1.0 - x0[0], x0[1], 1.0 - x0[1]) <= 4.0 * levels[0][1].h:
        raise ConfigError("x0 is too close to the boundary for this mesh")

    values = []
    for label, mesh, M in levels:
        started = time.perf_counter()
        sector = InvariantSector(mesh, TimeGrid(cfg.T, M), cfg.dg_order)
        point = delta_load(mesh, DiscreteMeasure([x0], [1.0]))
        values.append(sector.pair_end_state(point, l2_load(mesh, first_eigenmode)))
        del sector  # free the level's slab LU before the next level factors
        _log.info("level %s ms=%.1f", label, 1e3 * (time.perf_counter() - started))
    errors = [abs(v - values[-1]) for v in values[:-1]]
    return _study_table(cfg, params[:-1], errors)


# -- configuration files -----------------------------------------------


def _number(name, value):
    """A finite float from a JSON number, not a boolean or a string, or ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = np.inf if value > 0 else -np.inf
    if not np.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {out}")
    return out


def _integer(name, value):
    """An integer (integral floats such as 8.0 included), or ConfigError."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    _number(name, value)  # rejects an integer beyond the float range
    return int(value)


def _levels(bound):
    """The reader of an integer, or a list of integers, each at most `bound`.

    Every entry is read as an integer before any is compared with the
    bound; a bad entry raises ConfigError.
    """

    def read(name, value):
        entries = value if isinstance(value, list) else [value]
        levels = [_integer(name, v) for v in entries]
        for v in levels:
            if v > bound:
                raise ConfigError(f"{name} must be at most {bound}, got {v}")
        return levels if isinstance(value, list) else levels[0]

    return read


def _point(name, value):
    """A tuple of exactly two finite numbers from a JSON list, or ConfigError."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be a list of two numbers, got {value!r}")
    return tuple(_number(name, v) for v in value)


def _path(name, value):
    """A string, or None for the default, or ConfigError."""
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string or null, got {value!r}")
    return value


def _truth(name, atoms):
    """A DiscreteMeasure from a list of {"x": [x1, x2], "beta": b} atoms."""
    if not isinstance(atoms, list):
        raise ConfigError(f"{name} must be a list of atoms")
    positions, betas = [], []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise ConfigError(f"{name}[{i}] must be an object with keys x and beta")
        extra = set(atom) - {"x", "beta"}
        if extra:
            raise ConfigError(f"unknown atom keys: {sorted(extra)}")
        positions.append(_point(f"{name}[{i}].x", atom.get("x")))
        betas.append(_number(f"{name}[{i}].beta", atom.get("beta")))
    return DiscreteMeasure(positions, betas)


# The config file's schema. Each key maps to its reader, called as
# reader(name, value), and a block to the table of its own keys; `_object`
# reads the root and every block, and the CLI lists its keys.
SCHEMA = {
    "T": _number,
    "truth": _truth,
    "mesh_n": _levels(MAX_MESH_N),
    "time_steps": _levels(MAX_TIME_STEPS),
    "dg_order": _integer,
    "alpha": _number,
    "noise_level": _number,
    "seed": _integer,
    "pdap": {"tol": _number, "max_outer_iterations": _integer},
    "output_dir": _path,
    "smoothing": {"x0": _point},
}


def _object(value, table, block=None):
    """The keys of a JSON object read against `table`, or ConfigError.

    `block` names a nested block in messages and in its keys' names
    ("pdap.tol"); None is the config root. A null `smoothing` block means
    absent, as `_path` reads a null `output_dir`; a null `pdap` is an error.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{block or 'config root'} must be an object")
    unknown = set(value) - table.keys()
    if unknown:
        raise ConfigError(f"unknown {block or 'config'} keys: {sorted(unknown)}")
    out = {}
    for key, v in value.items():
        if v is None and key == "smoothing":
            continue
        name, spec = f"{block}.{key}" if block else key, table[key]
        out[key] = _object(v, spec, name) if isinstance(spec, dict) else spec(name, v)
    return out


def _construct(cls, **kwargs):
    """cls(**kwargs), with its validation errors raised as ConfigError."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(data):
    """Build an ExperimentConfig from a JSON-style dict read against SCHEMA.

    Unknown keys and values of the wrong JSON type raise ConfigError.
    """
    kwargs = _object(data, SCHEMA)
    if "smoothing" in kwargs:
        kwargs["smoothing"] = _construct(SmoothingSpec, **kwargs["smoothing"])
    pdap_block = kwargs.pop("pdap", {})
    kwargs["pdap"] = _construct(PdapConfig, alpha=kwargs.pop("alpha", 1e-3), **pdap_block)
    return _construct(ExperimentConfig, **kwargs)


def load_config(path):
    """Load and validate a JSON experiment configuration."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)
