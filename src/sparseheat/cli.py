"""Command-line entry point.

Subcommands bind JSON configurations to the experiment drivers and print
a one-line summary. Exit codes: 0 success, 1 usage/config error, 2
solver non-convergence, 3 numerical failure or out of memory; every
non-zero exit writes one line to standard error.
Configuration paths resolve first against the filesystem, then against
the bundled configs shipped with the package (paper_10_1.json and
friends). With -v (config-driven subcommands only), the solver logs one
progress line per PDAP iteration to standard error, and the studies and
reconstruct one line per level; standard output and the artifacts are
the same with and without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from importlib import resources

import numpy as np

from .errors import ConfigError, NumericalError
from .experiments import load_config
from . import experiments
from .measures import DiscreteMeasure
from .mesh import build_uniform
from .timestepping import HeatModel, InvariantSector, TimeGrid, adjoint_dirac, forward_dirac
from .timestepping import pade_step_oracle
from . import fem


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _keys(table):
    """The keys of a config schema table, each block's as "name{a, b}"."""
    return ", ".join(
        f"{key}{{{_keys(spec)}}}" if isinstance(spec, dict) else key
        for key, spec in table.items()
    )


def _build_parser():
    parser = _Parser(
        prog="sparseheat",
        description=(
            "Recover point-source initial data of the heat equation from a "
            "final-time observation, and reproduce the convergence studies."
        ),
        epilog=f"Config keys: {_keys(experiments.SCHEMA)}. See docs/config.md.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, needs_config=True):
        p = sub.add_parser(name, help=helptext)
        if needs_config:
            p.add_argument("--config", required=True, help="config path or bundled name")
            p.add_argument("--out", default=None, help="output directory override")
            p.add_argument("--seed", type=int, default=None, help="RNG seed override")
            p.add_argument("--tol", type=float, default=None, help="PDAP gap tolerance override")
            p.add_argument("-v", "--verbose", action="store_true")
        return p

    add("reconstruct", "recover a sparse initial measure from the configured observation")
    add("study-space", "EOC study of the optimal state under mesh refinement")
    add("study-time", "EOC study of the optimal state under time-grid refinement")
    add("study-smoothing", "pointwise EOC study of the plain forward solver")
    add(
        "selftest",
        "run the built-in step-oracle, adjoint-identity and symmetric-pairing checks",
        needs_config=False,
    )
    return parser


def _resolve_config(name):
    if os.path.exists(name):
        return name
    bundled = resources.files("sparseheat").joinpath("configs", name)
    if bundled.is_file():
        return str(bundled)
    raise ConfigError(f"config not found: {name}")


def _load(args):
    """The config file with the --out, --seed and --tol overrides applied.

    --out replaces output_dir when it is given, even as ""; a config with
    no output_dir after that writes to out/<config file stem>.
    """
    cfg = load_config(_resolve_config(args.config))
    output_dir = cfg.output_dir if args.out is None else args.out
    if output_dir is None:
        stem = os.path.splitext(os.path.basename(args.config))[0]
        output_dir = os.path.join("out", stem)
    return dataclasses.replace(
        cfg,
        output_dir=output_dir,
        seed=cfg.seed if args.seed is None else args.seed,
        pdap=cfg.pdap if args.tol is None else dataclasses.replace(cfg.pdap, tol=args.tol),
    )


def _selftest():
    """Quick consistency checks on small discretizations. Returns failures."""
    failures = []

    def check(name, ok):
        line = f"selftest {name}: {'PASS' if ok else 'FAIL'}"
        print(line)
        if not ok:
            failures.append(name)

    # Step oracle against the exponential and the dG(0) closed form.
    check("dg0 step value", abs(pade_step_oracle(1.0, 0.5, 0) - 2.0 / 3.0) < 1e-15)
    ok = True
    for s in (1e-2, 1e-3):
        ok &= abs(pade_step_oracle(s, 1.0, 1) - np.exp(-s)) <= s**4
    check("dg1 step matches exp to third order", ok)

    # Adjoint identity on a small grid sweep.
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (4, 8):
        mesh = build_uniform(n)
        for M in (1, 4):
            for r in (0, 1):
                model = HeatModel(mesh, TimeGrid(0.1, M), r)
                for _ in range(3):
                    pos = 0.1 + 0.8 * rng.random((3, 2))
                    q = DiscreteMeasure(pos, rng.standard_normal(3))
                    g = rng.standard_normal(mesh.num_nodes)
                    sq = forward_dirac(model, q)
                    z = adjoint_dirac(model, g)
                    lhs = float(q.coefficients @ fem.eval_field(mesh, z, q.positions))
                    rhs = fem.l2_inner(model.mass, sq, g)
                    tv = float(np.abs(q.coefficients).sum())
                    gn = fem.l2_norm(model.mass, g)
                    worst = max(worst, abs(lhs - rhs) / (tv * gn))
    check(f"adjoint identity (worst defect {worst:.2e})", worst <= 1e-10)

    # The eigenmode load is invariant under the lattice maps, so its
    # pairing runs in the folded sector; the full pairing is the dot
    # product with the propagated state.
    worst = 0.0
    for n in (4, 8):
        mesh = build_uniform(n)
        load = fem.l2_load(mesh, experiments.first_eigenmode)
        point = fem.delta_load(mesh, DiscreteMeasure([(0.3, 0.62)], [1.0]))
        for M in (1, 4):
            for r in (0, 1):
                grid = TimeGrid(0.1, M)
                full = float(point @ HeatModel(mesh, grid, r).propagate_load(load))
                value = InvariantSector(mesh, grid, r).pair_end_state(point, load)
                worst = max(worst, abs(value - full) / full)
    check(f"invariant-sector pairing (worst defect {worst:.2e})", worst <= 1e-12)
    return failures


def _exit_code(converged):
    """0 for a converged run, else 2 after one `not converged: …` line."""
    if converged:
        return 0
    print(
        "not converged: a PDAP solve stopped with its gap above tol * M0, "
        "at max_outer_iterations or with its argmax node already active",
        file=sys.stderr,
    )
    return 2


# Overflow, invalid operations and division by zero raise FloatingPointError
# (exit 3, one line) instead of printing numpy warnings; underflow stays
# silent, as long horizons underflow legitimately.
@np.errstate(over="raise", invalid="raise", divide="raise")
def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    logger = logging.getLogger("sparseheat")
    level, handler = logger.level, None
    if getattr(args, "verbose", False):
        handler = logging.StreamHandler(sys.stderr)
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        if args.command == "selftest":
            return 3 if _selftest() else 0
        cfg = _load(args)
        if args.command == "reconstruct":
            result, lumped = experiments.reconstruct(cfg)
            print(
                f"reconstruct: support={len(result.measure)} "
                f"lumped={len(lumped)} objective={result.objective:.6g} "
                f"phi={result.gap:.3g} adjoint_max={np.abs(result.adjoint).max():.6g} "
                f"out={cfg.output_dir}"
            )
            return _exit_code(result.converged)
        # A study; study-smoothing solves no PDAP, so it always converges.
        result = getattr(experiments, args.command.replace("-", "_"))(cfg)
        table, converged = (result, True) if args.command == "study-smoothing" else result
        print(
            f"{args.command}: slope={table.slope:.4g} levels={len(table.rows)} "
            f"out={cfg.output_dir}"
        )
        return _exit_code(converged)
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # ConfigError, OutOfDomainError and the driver's argument checks.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(level)


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
