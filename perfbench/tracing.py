"""Span tracing of sparseheat from outside the program.

`install` replaces public functions at the names through which the
program calls them (for example `sparseheat.pdap.adjoint_dirac`, which
pdap imported by name) with wrappers that record one span per call:
name, start, end, parent and a few attributes. Spans stay in memory in a
`Recorder` and are written out by the caller when the run ends.
`layer_metrics` turns a span list into the per-layer numbers.

Only the standard library is imported here, so the arithmetic can be
tested without the program.
"""

from __future__ import annotations

import functools
import os
import time

# Span record layout: [name, start, end, parent index or -1, attrs or None].
NAME, START, END, PARENT, ATTRS = range(5)


class Recorder:
    """In-memory span list with a parent stack (single-threaded runs)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """Wrap `fn` so each call records a span; `attrs(args, kwargs, result)`
        may return a dict stored with the span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if attrs is not None:
                record[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced


class _SpluModule:
    """Stand-in for `scipy.sparse.linalg` as `sparseheat.timestepping` sees
    it: `splu` is traced, every other attribute is the real one."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _path_bytes(args, kwargs, result):
    path = kwargs.get("path", args[-1])
    return {"bytes": os.path.getsize(path)}


def _lu_nnz(args, kwargs, lu):
    return {"nnz": int(lu.L.nnz + lu.U.nnz)}


def _steps(args, kwargs, result):
    return {"steps": int(args[0].grid.M)}


def _subproblem_iters(args, kwargs, result):
    return {"iters": int(result[1])}


def _pdap_result(args, kwargs, result):
    return {"outer": len(result.log), "support": len(result.active_nodes)}


def install(recorder):
    """Trace the program's layer boundaries; call after importing sparseheat."""
    from sparseheat import cli, experiments, fem, mesh, pdap, timestepping

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), attrs))

    patch(experiments, "build_uniform", "mesh.build_uniform")
    patch(experiments, "refine", "mesh.refine")
    patch(mesh.TriMesh, "locate", "mesh.locate")
    patch(timestepping, "assemble_mass", "fem.assemble_mass")
    patch(timestepping, "assemble_stiffness", "fem.assemble_stiffness")
    patch(fem, "assemble_mass", "fem.assemble_mass")  # as l2_project calls it
    patch(experiments, "interpolation_matrix", "fem.interpolation_matrix")
    patch(experiments, "l2_project", "fem.l2_project")
    real_spla = timestepping.spla
    timestepping.spla = _SpluModule(
        real_spla, recorder.wrap("timestepping.splu", real_spla.splu, _lu_nnz)
    )
    patch(timestepping.HeatModel, "propagate_load", "timestepping.propagate_load", _steps)
    patch(
        timestepping.HeatModel,
        "propagate_adjoint",
        "timestepping.propagate_adjoint",
        _steps,
    )
    patch(experiments, "forward_dirac", "timestepping.forward_dirac")
    patch(pdap, "adjoint_dirac", "timestepping.adjoint_dirac")
    patch(pdap, "run", "pdap.run", _pdap_result)
    patch(pdap, "solve_subproblem", "pdap.solve_subproblem", _subproblem_iters)
    patch(experiments, "make_observation", "experiments.make_observation")
    patch(experiments, "save_measure", "experiments.save_measure", _path_bytes)
    patch(experiments, "field_to_csv", "experiments.field_to_csv", _path_bytes)
    patch(experiments.EocTable, "write_csv", "experiments.write_csv", _path_bytes)
    patch(pdap.IterationLog, "write_csv", "experiments.write_csv", _path_bytes)
    patch(cli, "load_config", "cli.load_config")


def span_cost(calls=20_000):
    """Seconds a traced call adds over a plain one (wrapping a no-op)."""
    clock = time.perf_counter

    def noop():
        return None

    traced = Recorder().wrap("noop", noop)
    t = clock()
    for _ in range(calls):
        noop()
    plain = clock() - t
    t = clock()
    for _ in range(calls):
        traced()
    return max(clock() - t - plain, 0.0) / calls


def self_times(spans):
    """Per-span duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


# Counters that must repeat exactly between traced runs of the same code
# on the same inputs.
EXACT_COUNTERS = (
    "mesh.locate_calls",
    "timestepping.factor_calls",
    "timestepping.lu_nnz",
    "timestepping.forward_calls",
    "timestepping.adjoint_calls",
    "pdap.outer_iterations",
    "pdap.subproblem_calls",
    "pdap.subproblem_iters",
    "experiments.io_bytes",
    "experiments.forward_dirac_extra",
)


def layer_metrics(spans):
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    `pdap.activation_yield` is None when no PDAP solve ran.
    """
    own = self_times(spans)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(*names):
        return sum(spans[i][END] - spans[i][START] for i in idx(*names))

    def own_total(*names):
        return sum(own[i] for i in idx(*names))

    def attr_sum(key, *names):
        return sum(spans[i][ATTRS][key] for i in idx(*names))

    propagations = ("timestepping.propagate_load", "timestepping.propagate_adjoint")
    steps = attr_sum("steps", *propagations)
    runs = idx("pdap.run")
    run_set = set(runs)
    # PDAP propagates one new column per activation, directly under `run`.
    activations = sum(
        1 for i in idx("timestepping.propagate_load") if spans[i][PARENT] in run_set
    )
    first_run_end = min((spans[i][END] for i in runs), default=float("inf"))
    io = ("experiments.save_measure", "experiments.field_to_csv", "experiments.write_csv")
    return {
        "mesh.build_s": (total("mesh.build_uniform", "mesh.refine"), "s"),
        "mesh.locate_calls": (len(idx("mesh.locate")), "count"),
        "mesh.locate_s": (total("mesh.locate"), "s"),
        "fem.assemble_s": (total("fem.assemble_mass", "fem.assemble_stiffness"), "s"),
        "fem.interp_s": (own_total("fem.interpolation_matrix"), "s"),
        "fem.project_s": (total("fem.l2_project"), "s"),
        "timestepping.factor_calls": (len(idx("timestepping.splu")), "count"),
        "timestepping.factor_s": (total("timestepping.splu"), "s"),
        "timestepping.lu_nnz": (attr_sum("nnz", "timestepping.splu"), "count"),
        "timestepping.forward_calls": (len(idx(propagations[0])), "count"),
        "timestepping.forward_s": (total(propagations[0]), "s"),
        "timestepping.adjoint_calls": (len(idx(propagations[1])), "count"),
        "timestepping.adjoint_s": (total(propagations[1]), "s"),
        "timestepping.step_ms": (
            1000.0 * own_total(*propagations) / steps if steps else 0.0,
            "ms",
        ),
        "pdap.run_s": (total("pdap.run"), "s"),
        "pdap.self_s": (own_total("pdap.run"), "s"),
        "pdap.outer_iterations": (attr_sum("outer", "pdap.run"), "count"),
        "pdap.subproblem_calls": (len(idx("pdap.solve_subproblem")), "count"),
        "pdap.subproblem_s": (total("pdap.solve_subproblem"), "s"),
        "pdap.subproblem_iters": (attr_sum("iters", "pdap.solve_subproblem"), "count"),
        "pdap.activation_yield": (
            attr_sum("support", "pdap.run") / activations if activations else None,
            "ratio",
        ),
        "experiments.observation_s": (total("experiments.make_observation"), "s"),
        "experiments.io_s": (total(*io), "s"),
        "experiments.io_bytes": (attr_sum("bytes", *io), "B"),
        "experiments.forward_dirac_extra": (
            sum(
                1
                for i in idx("timestepping.forward_dirac")
                if spans[i][START] >= first_run_end
            ),
            "count",
        ),
        "cli.config_s": (total("cli.load_config"), "s"),
    }
