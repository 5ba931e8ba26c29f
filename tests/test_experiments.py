import logging
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseheat import (
    DiscreteMeasure,
    build_uniform,
    compute_eoc,
    config_from_dict,
    l2_norm,
    make_observation,
    reconstruct,
    study_smoothing,
    study_space,
    study_time,
)
from sparseheat import experiments, fem, pdap, timestepping
from sparseheat.errors import ConfigError
from sparseheat.experiments import ExperimentConfig, SmoothingSpec
from sparseheat.mesh import refine_nodes, refine_support
from sparseheat.pdap import PdapConfig
from sparseheat.timestepping import HeatModel, InvariantSector, TimeGrid

from measure_helpers import record_runs


def small_model(n=8, M=4, r=0):
    return HeatModel(build_uniform(n), TimeGrid(0.1, M), r)


CENTER_ATOM = DiscreteMeasure([(0.5, 0.5)], [5.0])
# The sources of the bundled paper_fig4.json and paper_10_1.json.
PAPER_FIG4_ATOMS = DiscreteMeasure(
    [(0.263091083266217, 0.258378565204941), (0.76061544960808, 0.734190309666141)],
    [-10.0, 25.0],
)


def test_observation_zero_noise_is_clean_state():
    model = small_model()
    a = make_observation(model, CENTER_ATOM, 0.0, 123)
    b = make_observation(model, CENTER_ATOM, 0.0, 456)
    assert np.array_equal(a, b)


def test_observation_noise_scaling_exact():
    model = small_model()
    clean = make_observation(model, CENTER_ATOM, 0.0, 0)
    noisy = make_observation(model, CENTER_ATOM, 0.1, 7)
    delta = noisy - clean
    ratio = l2_norm(model.mass, delta) / l2_norm(model.mass, clean)
    assert ratio == pytest.approx(0.1, abs=1e-12)


def test_observation_seed_determinism():
    model = small_model()
    a = make_observation(model, CENTER_ATOM, 0.05, 99)
    b = make_observation(model, CENTER_ATOM, 0.05, 99)
    c = make_observation(model, CENTER_ATOM, 0.05, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_compute_eoc_basic():
    table = compute_eoc([2.0, 1.0], [4.0, 1.0])
    assert table.rows[1].eoc == pytest.approx(2.0, abs=1e-14)
    table = compute_eoc([2.0, 1.0], [8.0, 1.0])
    assert table.rows[1].eoc == pytest.approx(3.0, abs=1e-14)


def test_compute_eoc_validation():
    with pytest.raises(ValueError):
        compute_eoc([1.0], [1.0])
    with pytest.raises(ValueError):
        compute_eoc([1.0, 2.0], [1.0, 0.5])  # ascending params
    with pytest.raises(ValueError):
        compute_eoc([1.0, 0.5], [1.0])


def test_compute_eoc_skips_zero_errors():
    table = compute_eoc([4.0, 2.0, 1.0], [1.0, 0.0, 0.25])
    assert table.skipped == [1, 2]
    assert table.rows[1].eoc is None


def test_compute_eoc_reproduces_cubic_study_orders():
    # Temporal errors of the third-order scheme at M = 16..128 against a
    # 256-step reference (frozen from an actual study run).
    k = [0.1 / M for M in (16, 32, 64, 128)]
    errors = [
        0.000147842508654195,
        1.92434726969871e-05,
        2.42731068578816e-06,
        2.72808039410665e-07,
    ]
    table = compute_eoc(k, errors)
    assert table.rows[1].eoc == pytest.approx(2.94, abs=0.01)
    assert table.rows[2].eoc == pytest.approx(2.99, abs=0.01)
    assert table.rows[3].eoc == pytest.approx(3.15, abs=0.01)


def test_eoc_table_csv(tmp_path):
    table = compute_eoc([2.0, 1.0, 0.5], [4.0, 1.0, 0.3])
    path = tmp_path / "errors.csv"
    table.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "param,error,eoc"
    assert lines[1].endswith(",")  # first row has no EOC
    assert len(lines) == 4


def test_reconstruct_on_grid_atom(tmp_path):
    mesh = build_uniform(16)
    node = mesh.interior_nodes()[112]  # center node of the 15x15 interior
    truth = DiscreteMeasure([mesh.nodes[node]], [5.0])
    cfg = ExperimentConfig(
        T=0.1,
        truth=truth,
        mesh_n=16,
        time_steps=16,
        dg_order=0,
        noise_level=0.0,
        seed=0,
        pdap=PdapConfig(alpha=1e-3, tol=1e-9),
        output_dir=str(tmp_path / "out"),
    )
    report, lumped = reconstruct(cfg)
    assert report.converged
    assert len(lumped) >= 1
    dominant = int(np.argmax(np.abs(lumped.coefficients)))
    assert np.linalg.norm(lumped.positions[dominant] - mesh.nodes[node]) <= 2 * mesh.h
    assert np.abs(report.adjoint).max() <= cfg.pdap.alpha + 1e-8
    for name in ("measure.json", "measure_lumped.json", "log.csv", "field.csv"):
        assert (tmp_path / "out" / name).exists()


def test_reconstruct_empty_data_gives_empty_measure():
    cfg = ExperimentConfig(
        T=0.1,
        truth=DiscreteMeasure(),
        mesh_n=8,
        time_steps=4,
        dg_order=0,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8),
    )
    report, lumped = reconstruct(cfg)
    assert report.converged
    assert len(report.measure) == 0
    assert len(lumped) == 0


TWO_ATOMS = DiscreteMeasure([(0.3, 0.4), (0.7, 0.6)], [5.0, -3.0])


def noisy_config(seed, output_dir=None):
    return ExperimentConfig(
        T=0.1,
        truth=TWO_ATOMS,
        mesh_n=16,
        time_steps=32,
        dg_order=0,
        noise_level=0.05,
        seed=seed,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8),
        output_dir=output_dir,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 20])
def test_reconstruct_two_level_matches_cold_solve(monkeypatch, seed):
    # The n level seeded from the n/2 support ends on the optimum that a
    # cold PDAP finds: the same support, the objective to round-off and a
    # certified gap. The two-level path is taken at n = 16 here, below
    # the n where it pays, to keep the test small.
    monkeypatch.setattr(experiments, "TWO_LEVEL_MIN_N", 16)
    real_run = pdap.run
    calls = record_runs(monkeypatch)
    cfg = noisy_config(seed)
    report, lumped = reconstruct(cfg)
    (coarse_n, coarse_seeds, _), (fine_n, fine_seeds, fine) = calls
    assert (coarse_n, coarse_seeds, fine_n) == (8, [], 16) and fine_seeds

    model = HeatModel(build_uniform(16), TimeGrid(0.1, 32), 0)
    u_d = make_observation(model, TWO_ATOMS, 0.05, seed)
    cold = real_run(model, u_d, cfg.pdap)
    assert cold.converged and report.converged
    assert sorted(fine.active_nodes) == sorted(cold.active_nodes)
    assert report.objective == pytest.approx(cold.objective, rel=1e-10, abs=0)
    assert report.gap < cfg.pdap.tol * cold.m0


def test_reconstruct_log_starts_at_the_empty_measure(tmp_path, monkeypatch):
    # log.csv holds the n level only. Row 0 is the empty measure the seed
    # solve starts from, row 1 counts the seed batches, and the `inserted`
    # column sums to every column the n level propagated.
    monkeypatch.setattr(experiments, "TWO_LEVEL_MIN_N", 16)
    widths = []

    def propagate_load(self, b):
        widths.append((self.mesh.n, np.shape(b)[1] if np.ndim(b) == 2 else 1))
        return real_load(self, b)

    real_load = HeatModel.propagate_load
    monkeypatch.setattr(HeatModel, "propagate_load", propagate_load)
    calls = record_runs(monkeypatch)
    cfg = noisy_config(7000, str(tmp_path))
    reconstruct(cfg)
    _, (_, seeds, fine) = calls
    start, *rows = [
        line.split(",") for line in (tmp_path / "log.csv").read_text().splitlines()[1:]
    ]
    assert start[0] == "0" and start[1] == "nan" and start[3:] == ["0", "-1", "0", "0"]
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    inserted = [int(row[-1]) for row in rows]
    assert inserted == [r.inserted for r in fine.log]
    fine_batches = [w for n, w in widths if n == 16][1:]  # after the observation
    # The seed goes out first, in batches of at most MAX_INSERTIONS columns.
    k = pdap.MAX_INSERTIONS
    seed_batches = [min(k, len(seeds) - i) for i in range(0, len(seeds), k)]
    assert len(seeds) > k and fine_batches[: len(seed_batches)] == seed_batches
    assert inserted[0] >= len(seeds)
    assert sum(inserted) == sum(fine_batches)
    # Every row's objective is that of its own iterate: row 0 the empty
    # measure's, alpha * M0, and the last row the returned one. So the
    # log alone certifies the solve: the final gap is below tol * M0.
    assert float(start[2]) == pytest.approx(fine.m0 * cfg.pdap.alpha, rel=1e-15)
    assert [float(row[2]) for row in rows] == [r.objective for r in fine.log]
    assert float(rows[-1][2]) == fine.objective < float(start[2])
    assert float(rows[-1][1]) < cfg.pdap.tol * float(start[2]) / cfg.pdap.alpha


def test_reconstruct_coarse_level_gets_the_study_space_data(monkeypatch):
    # reconstruct's n/2 level is a level of study_space: for one
    # observation both carry the data down to n/2 bit for bit alike.
    monkeypatch.setattr(experiments, "TWO_LEVEL_MIN_N", 16)
    data, real_run = [], pdap.run

    def run(model, u_d, config, seed_nodes=()):
        data.append((model.mesh.n, u_d.copy()))
        return real_run(model, u_d, config, seed_nodes)

    monkeypatch.setattr(pdap, "run", run)
    cfg = noisy_config(20)
    reconstruct(cfg)
    study_space(replace(cfg, mesh_n=[4, 8, 16]))
    assert [n for n, _ in data] == [8, 16, 4, 8, 16]
    assert np.array_equal(data[0][1], data[3][1])


def test_study_time_smoke(tmp_path):
    cfg = ExperimentConfig(
        T=0.1,
        truth=CENTER_ATOM,
        mesh_n=8,
        time_steps=[4, 8, 16, 32],
        dg_order=0,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8),
        output_dir=str(tmp_path / "st"),
    )
    table, converged = study_time(cfg)
    assert converged
    errors = table.errors
    assert all(e > 0 for e in errors)
    assert errors[0] > errors[-1]
    assert np.isfinite(table.slope)
    first = (tmp_path / "st" / "errors.csv").read_bytes()
    study_time(cfg)
    assert (tmp_path / "st" / "errors.csv").read_bytes() == first


@pytest.mark.parametrize("noise_level", [0.0, 0.02])
def test_study_time_builds_the_mass_blocks_once(tmp_path, monkeypatch, noise_level):
    # The levels of a time sweep share the reference model's interior and
    # full mass: one `interior_mass` and one `assemble_mass` call on the
    # one mesh, and the same artifacts, byte for byte, as levels that
    # build their own blocks. With noise the observation reads the full
    # mass first, without it the first level's PDAP does.
    class Unshared(HeatModel):
        def __init__(self, mesh, grid, order, share=None):
            super().__init__(mesh, grid, order)

    cfg = ExperimentConfig(
        T=0.1,
        truth=CENTER_ATOM,
        mesh_n=8,
        time_steps=[4, 8, 16],
        dg_order=1,
        noise_level=noise_level,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8),
    )
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "HeatModel", Unshared)
        study_time(replace(cfg, output_dir=str(tmp_path / "unshared")))

    calls = []

    def counted(name, fn):
        def wrapper(mesh):
            calls.append((name, mesh))
            return fn(mesh)

        return wrapper

    for name in ("interior_mass", "assemble_mass"):
        monkeypatch.setattr(timestepping, name, counted(name, getattr(timestepping, name)))
    study_time(replace(cfg, output_dir=str(tmp_path / "shared")))
    assert sorted(name for name, _ in calls) == ["assemble_mass", "interior_mass"]
    assert calls[0][1] is calls[1][1]
    files = sorted(p.name for p in (tmp_path / "unshared").iterdir())
    assert files and files == sorted(p.name for p in (tmp_path / "shared").iterdir())
    for name in files:
        assert (tmp_path / "shared" / name).read_bytes() == (
            tmp_path / "unshared" / name
        ).read_bytes()


def test_study_space_smoke():
    cfg = ExperimentConfig(
        T=0.1,
        truth=CENTER_ATOM,
        mesh_n=[4, 8, 16],
        time_steps=8,
        dg_order=0,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8),
    )
    table, converged = study_space(cfg)
    assert converged
    assert len(table.rows) == 2
    assert table.errors[0] > table.errors[-1] > 0


@pytest.mark.parametrize("driver", ["reconstruct", "study_time", "study_space"])
def test_no_propagation_outside_pdap_solves(tmp_path, monkeypatch, driver):
    # Every optimal state comes from the columns PDAP already propagated:
    # after the observation, each propagation happens inside a pdap.run,
    # each outer iteration costs exactly one adjoint propagation, and the
    # log's `inserted` column counts every column propagated, seeds too.
    events, logs = [], []

    def counted(kind, fn):
        def wrapper(self, b):
            events.append((kind, np.shape(b)[1] if np.ndim(b) == 2 else 1))
            return fn(self, b)

        return wrapper

    real_run = pdap.run

    def run(*args, **kwargs):
        events.append(("run", 0))
        result = real_run(*args, **kwargs)
        events.append(("returned", 0))
        logs.append(result.log)
        return result

    for kind in ("load", "adjoint"):
        name = f"propagate_{kind}"
        monkeypatch.setattr(HeatModel, name, counted(kind, getattr(HeatModel, name)))
    monkeypatch.setattr(pdap, "run", run)
    cfg = ExperimentConfig(
        T=0.1,
        truth=CENTER_ATOM,
        mesh_n=[4, 8, 16] if driver == "study_space" else 8,
        time_steps=[4, 8, 16] if driver == "study_time" else 8,
        dg_order=0,
        noise_level=0.02 if driver == "reconstruct" else 0.0,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8),
        output_dir=str(tmp_path / "out"),
    )
    drivers = dict(reconstruct=reconstruct, study_time=study_time, study_space=study_space)
    drivers[driver](cfg)

    depth, outside, inside_columns = 0, [], 0
    for i, (kind, width) in enumerate(events):
        if kind in ("run", "returned"):
            depth += 1 if kind == "run" else -1
        elif depth == 0 and ("run", 0) in events[:i]:
            outside.append(kind)
        elif depth > 0 and kind == "load":
            inside_columns += width
    assert outside == []
    assert events[-1] == ("returned", 0)
    kinds = [kind for kind, _ in events]
    assert kinds.count("adjoint") == sum(len(log) for log in logs)
    assert inside_columns == sum(r.inserted for log in logs for r in log)


def test_study_time_seeded_levels_cost_one_adjoint_each(monkeypatch):
    # An on-grid atom has the same one-node optimal support on every time
    # grid, so each level seeded with the previous support is certified
    # optimal by its first adjoint evaluation.
    adjoints, seeds = [], []

    def propagate_adjoint(self, w):
        adjoints[-1] += 1
        return real_adjoint(self, w)

    def run(model, u_d, config, seed_nodes=()):
        adjoints.append(0)
        seeds.append(list(seed_nodes))
        return real_run(model, u_d, config, seed_nodes)

    real_adjoint, real_run = HeatModel.propagate_adjoint, pdap.run
    monkeypatch.setattr(HeatModel, "propagate_adjoint", propagate_adjoint)
    monkeypatch.setattr(pdap, "run", run)
    node = 4 * 9 + 4  # (0.5, 0.5) on the 8-lattice
    cfg = ExperimentConfig(
        T=0.1,
        truth=CENTER_ATOM,
        mesh_n=8,
        time_steps=[4, 8, 16],
        dg_order=1,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8),
    )
    table, converged = study_time(cfg)
    assert converged
    assert all(e > 0 for e in table.errors)
    assert seeds == [[], [node], [node]]
    assert adjoints[0] >= 2
    assert adjoints[1:] == [1, 1]


def test_study_space_peak_seed_costs_one_adjoint(monkeypatch):
    # Off the lattice the optimum splits each spike over adjacent nodes.
    # The finer optimum holds nodes of the fine square at the fitted peak
    # of the coarse adjoint that no mapped node reaches, so every seeded
    # level is certified optimal by its first adjoint evaluation. With
    # mapped nodes plus edge midpoints as seeds the levels took 3, 2 and
    # 3 adjoints.
    adjoints, seeds, results = [], [], []

    def propagate_adjoint(self, w):
        adjoints[-1] += 1
        return real_adjoint(self, w)

    def run(model, u_d, config, seed_nodes=()):
        adjoints.append(0)
        seeds.append(list(seed_nodes))
        result = real_run(model, u_d, config, seed_nodes)
        results.append(result)
        return result

    real_adjoint, real_run = HeatModel.propagate_adjoint, pdap.run
    monkeypatch.setattr(HeatModel, "propagate_adjoint", propagate_adjoint)
    monkeypatch.setattr(pdap, "run", run)
    cfg = ExperimentConfig(
        T=0.1,
        truth=PAPER_FIG4_ATOMS,
        mesh_n=[4, 8, 16],
        time_steps=16,
        dg_order=0,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8),
    )
    table, converged = study_space(cfg)
    assert converged
    assert all(e > 0 for e in table.errors)
    assert adjoints == [3, 1, 1]
    for level, coarse in enumerate([build_uniform(4), build_uniform(8)], start=1):
        previous, result = results[level - 1], results[level]
        assert seeds[level] == refine_support(
            coarse, previous.active_nodes, previous.coefficients, previous.adjoint
        )
        assert set(result.active_nodes) <= set(seeds[level])
        mapped = refine_nodes(coarse, previous.active_nodes)
        assert not set(result.active_nodes) <= set(mapped)


def test_study_space_solves_a_level_cold_after_a_large_support(monkeypatch):
    # Noise as large as the data ends the 8-lattice on all 49 interior
    # nodes. Seeded from them, the 16-lattice spent its subproblem budget
    # in its seed solve (169 midpoint seeds) or took 53 outer iterations
    # (20 peak seeds); above MAX_SEED_SUPPORT nodes it is solved cold. The study
    # stops at the 32-lattice, which takes most of a full run (about 17 s).
    class Stop(Exception):
        pass

    def run(model, u_d, config, seed_nodes=()):
        if model.mesh.n == 32:
            raise Stop
        return recorded_run(model, u_d, config, seed_nodes)

    calls = record_runs(monkeypatch)
    recorded_run = pdap.run
    monkeypatch.setattr(pdap, "run", run)
    cfg = ExperimentConfig(
        T=0.1,
        truth=PAPER_FIG4_ATOMS,
        mesh_n=[8, 16, 32],
        time_steps=1,
        dg_order=0,
        noise_level=1.0,
        pdap=PdapConfig(alpha=1e-3, tol=1e-7, max_outer_iterations=300),
    )
    with pytest.raises(Stop):
        study_space(cfg)
    (_, _, coarse), (n, seeds, fine) = calls
    assert len(coarse.active_nodes) == 49 > experiments.MAX_SEED_SUPPORT
    assert (n, seeds) == (16, [])
    assert fine.converged


def test_study_space_requires_doubling():
    cfg = ExperimentConfig(T=0.1, truth=CENTER_ATOM, mesh_n=[4, 8, 12], time_steps=8)
    with pytest.raises(ConfigError):
        study_space(cfg)


def test_study_requires_three_levels():
    cfg = ExperimentConfig(T=0.1, truth=CENTER_ATOM, mesh_n=8, time_steps=[4, 8])
    with pytest.raises(ConfigError):
        study_time(cfg)


def test_smoothing_time_sweep_small():
    cfg = ExperimentConfig(
        T=0.1,
        mesh_n=16,
        time_steps=[2, 4, 8, 64],
        dg_order=0,
        smoothing=SmoothingSpec(x0=(0.5, 0.5)),
    )
    table = study_smoothing(cfg)
    assert all(e > 0 for e in table.errors)
    assert 0.5 <= table.slope <= 1.5


@pytest.mark.parametrize(
    "sweep, mesh_n, time_steps",
    [("space", [16, 32, 64], 4), ("time", 16, [2, 4, 8])],
)
def test_smoothing_factors_once_per_level_and_solves_no_mass(
    monkeypatch, sweep, mesh_n, time_steps
):
    # Every splu call goes through scipy's module (fem and timestepping
    # both call spla.splu), and a checked mass solve fails the test. x0
    # must lie more than 4h inside, so the coarsest space level is n = 16.
    # The eigenmode load is invariant under the lattice maps, so each
    # level factors the folded slab matrix, one unknown per orbit.
    shapes = []
    splu = spla.splu

    def recording_splu(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return splu(mat, *args, **kwargs)

    def no_solve(*args, **kwargs):
        raise AssertionError("spd_solve called")

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(fem, "spd_solve", no_solve)
    monkeypatch.setattr(experiments, "spd_solve", no_solve)
    cfg = ExperimentConfig(
        T=0.1,
        mesh_n=mesh_n,
        time_steps=time_steps,
        smoothing=SmoothingSpec(x0=(0.5, 0.5)),
    )
    table = study_smoothing(cfg)
    levels = mesh_n if sweep == "space" else [mesh_n] * len(time_steps)
    orbits = [n * n // 4 for n in levels]  # (n/2)^2 or (n^2 - 1)/4
    assert shapes == [(size, size) for size in orbits]
    assert all(e > 0 for e in table.errors)


@pytest.mark.parametrize("mesh_n, time_steps", [([16, 32, 64], 4), (16, [2, 4, 8])])
def test_smoothing_pairs_each_level_without_propagating(monkeypatch, mesh_n, time_steps):
    # Each level's point value is one pairing; no end state is formed.
    calls = []

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(self, *args):
            calls.append(name)
            return real(self, *args)

        return wrapper

    for name in ("propagate_load", "propagate_adjoint"):
        monkeypatch.setattr(HeatModel, name, counted(HeatModel, name))
    monkeypatch.setattr(
        InvariantSector, "pair_end_state", counted(InvariantSector, "pair_end_state")
    )
    cfg = ExperimentConfig(
        T=0.1, mesh_n=mesh_n, time_steps=time_steps, smoothing=SmoothingSpec(x0=(0.5, 0.5))
    )
    study_smoothing(cfg)
    assert calls == ["pair_end_state"] * 3


@pytest.mark.parametrize("r", [0, 1])
def test_smoothing_level_memory_is_the_folded_blocks(monkeypatch, r):
    # The traced peak of one smoothing level at n = 128, from the start of
    # the study to its first slab `splu` call, over the bytes of the
    # folded blocks there: the sector's mass and the slab matrix handed
    # to splu. The mesh is built inside the study, so it counts. A level
    # that builds only the sector reads 4.10 for dG(0) and 4.12 for dG(1);
    # one that first built a HeatModel, writing the full interior mass
    # block, and formed its loads read 6.48 and 5.92. The traced peak
    # repeats to within about 100 B here; SuperLU's own heap is not
    # traced.
    mesh, grid = build_uniform(128), TimeGrid(0.1, 2)
    mass = InvariantSector(mesh, grid, r).mass_int
    seen = {}

    class Factored(Exception):
        pass

    def nbytes(mat):
        return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes

    def splu(mat, **options):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        seen["slab"] = nbytes(mat)
        raise Factored

    monkeypatch.setattr(timestepping, "spla", SimpleNamespace(splu=splu))
    cfg = ExperimentConfig(
        T=0.1,
        mesh_n=128,
        time_steps=[2, 4, 8],
        dg_order=r,
        smoothing=SmoothingSpec(x0=(0.5, 0.5)),
    )
    tracemalloc.start()
    try:
        with pytest.raises(Factored):
            study_smoothing(cfg)
    finally:
        tracemalloc.stop()
    ratio = seen["peak"] / (nbytes(mass) + seen["slab"])
    assert ratio <= 5.0, ratio


def test_study_table_logs_inversions_as_one_warning_line(caplog):
    cfg = ExperimentConfig()
    with caplog.at_level(logging.WARNING, logger="sparseheat"):
        experiments._study_table(cfg, [4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 1.0, 2.0])
    assert [(r.name, r.levelno) for r in caplog.records] == [
        ("sparseheat", logging.WARNING)
    ]
    assert caplog.records[0].getMessage() == (
        "error sequence has 2 inversions; study may be unhealthy"
    )


def test_smoothing_rejects_boundary_point():
    cfg = ExperimentConfig(
        T=0.1,
        mesh_n=8,
        time_steps=[2, 4, 8],
        smoothing=SmoothingSpec(x0=(0.05, 0.5)),
    )
    with pytest.raises(ConfigError):
        study_smoothing(cfg)


def test_smoothing_zero_initial_state(monkeypatch):
    monkeypatch.setattr(experiments, "first_eigenmode", lambda x, y: np.zeros_like(x))
    cfg = ExperimentConfig(
        T=0.1,
        mesh_n=16,
        time_steps=[2, 4, 8],
        smoothing=SmoothingSpec(x0=(0.5, 0.5)),
    )
    table = study_smoothing(cfg)
    assert all(e == 0.0 for e in table.errors)


def test_config_from_dict_roundtrip():
    cfg = config_from_dict(
        {
            "T": 0.2,
            "truth": [{"x": [0.5, 0.5], "beta": 2.0}],
            "mesh_n": [8, 16, 32],
            "time_steps": 16,
            "dg_order": 1,
            "alpha": 0.01,
            "noise_level": 0.02,
            "seed": 11,
            "pdap": {"tol": 1e-6, "max_outer_iterations": 50},
            "output_dir": "somewhere",
        }
    )
    assert cfg.T == 0.2
    assert cfg.mesh_n == [8, 16, 32]
    assert cfg.pdap.alpha == 0.01
    assert cfg.pdap.tol == 1e-6
    assert cfg.pdap.max_outer_iterations == 50
    assert len(cfg.truth) == 1


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"T": 0.1, "mesh": 8})
    with pytest.raises(ConfigError):
        config_from_dict({"T": 0.1, "pdap": {"tolerance": 1e-6}})
    with pytest.raises(ConfigError):
        config_from_dict({"T": 0.1, "smoothing": {"point": [0.5, 0.5]}})
    with pytest.raises(ConfigError):
        config_from_dict({"T": 0.1, "truth": [{"x": [0.5, 0.5], "mass": 1.0}]})


def test_config_validates_values():
    with pytest.raises(ConfigError):
        config_from_dict({"T": -1.0})
    with pytest.raises(ConfigError):
        config_from_dict({"mesh_n": [16, 8]})


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def json_object(keys):
    """Objects over known keys with arbitrary JSON values."""
    return st.dictionaries(st.sampled_from(sorted(keys)), JSON, max_size=len(keys))


PDAP_KEYS = {
    "tol",
    "tol_mode",
    "max_outer_iterations",
    "subproblem_tol",
    "subproblem_max_iterations",
    "prune_threshold",
}
CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "T": JSON,
        "truth": JSON | st.lists(json_object({"x", "beta"}), max_size=3),
        "mesh_n": JSON,
        "time_steps": JSON,
        "dg_order": JSON,
        "alpha": JSON,
        "noise_level": JSON,
        "seed": JSON,
        "pdap": JSON | json_object(PDAP_KEYS),
        "output_dir": JSON,
        "smoothing": JSON | json_object({"x0"}),
    },
)


@settings(max_examples=400, deadline=None)
@given(data=CONFIGS)
def test_config_from_dict_raises_only_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_alpha_and_pdap_alpha_must_agree():
    # The file's top-level alpha is the one the drivers solve with.
    assert config_from_dict({"alpha": 0.5}).pdap.alpha == 0.5
