"""Acceptance suite: one test per advertised guarantee of the package.

Each test prints a single `[criterion N] ... PASS/FAIL` line (run pytest
with -s to see them as they complete). Two checks encode recovery and
rate windows taken from the literature that this implementation provably
does not satisfy at the stated parameters; they are kept faithful and
fail honestly rather than being loosened. See the test docstrings and
failure messages for the measured values.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from sparseheat import (
    DiscreteMeasure,
    assemble_mass,
    assemble_stiffness,
    build_uniform,
    eval_field,
    l2_inner,
    l2_norm,
    lump_clusters,
    tv_norm,
)
from sparseheat import pdap
from sparseheat.cli import main
from sparseheat.experiments import (
    ExperimentConfig,
    SmoothingSpec,
    make_observation,
    reconstruct,
    study_smoothing,
    study_space,
    study_time,
)
from sparseheat.pdap import PdapConfig
from sparseheat.timestepping import (
    HeatModel,
    TimeGrid,
    adjoint_dirac,
    forward_dirac,
    pade_step_oracle,
)

from measure_helpers import match_supports, objective, project_to_nodes

TRUTH = DiscreteMeasure(
    [[0.263091083266217, 0.258378565204941], [0.76061544960808, 0.734190309666141]],
    [-10.0, 25.0],
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    return ok


def test_criterion_1_adjoint_identity():
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (4, 8):
        mesh = build_uniform(n)
        for M in (1, 4, 16):
            for r in (0, 1):
                model = HeatModel(mesh, TimeGrid(0.1, M), r)
                for _ in range(10):
                    pos = 0.1 + 0.8 * rng.random((3, 2))
                    q = DiscreteMeasure(pos, rng.standard_normal(3))
                    g = rng.standard_normal(mesh.num_nodes)
                    z = adjoint_dirac(model, g)
                    lhs = float(q.coefficients @ eval_field(mesh, z, q.positions))
                    rhs = l2_inner(model.mass, forward_dirac(model, q), g)
                    defect = abs(lhs - rhs) / (tv_norm(q) * l2_norm(model.mass, g))
                    worst = max(worst, defect)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report(1, "adjoint identity", ok, f"worst defect {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_step_oracle_equivalence():
    # T chosen so every per-step amplification factor stays O(1); near the
    # zero of the dG(1) numerator a per-mode relative comparison would
    # only measure cross-mode round-off.
    start = time.time()
    T = 0.0025
    mesh = build_uniform(4)
    A = assemble_stiffness(mesh)
    Mm = assemble_mass(mesh)
    interior = mesh.interior_nodes()
    lam, W = sla.eigh(
        A[interior][:, interior].toarray(), Mm[interior][:, interior].toarray()
    )
    worst = 0.0
    from sparseheat.timestepping import forward_field

    for r in (0, 1):
        for M in (1, 2, 4):
            model = HeatModel(mesh, TimeGrid(T, M), r)
            k = T / M
            for j in range(lam.size):
                w = W[:, j]
                out = forward_field(model, model.embed(w))[interior]
                factor = pade_step_oracle(lam[j], k, r) ** M
                defect = np.linalg.norm(out - w * factor) / (
                    abs(factor) * np.linalg.norm(w)
                )
                worst = max(worst, defect)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report(2, "step-oracle eigenmode equivalence", ok,
                  f"worst defect {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_matrix_stencils():
    worst = 0.0
    for n in (4, 8, 16):
        mesh = build_uniform(n)
        s = 1.0 / n
        M = assemble_mass(mesh)
        A = assemble_stiffness(mesh)
        i = (n // 2) * (n + 1) + n // 2  # central interior node
        row_m = M[i].toarray().ravel()
        row_a = A[i].toarray().ravel()
        worst = max(worst, abs(row_m[i] - s * s / 2))
        neighbors = np.sort(row_m[np.nonzero(row_m)[0]])[:-1]
        worst = max(worst, np.abs(neighbors - s * s / 12).max())
        worst = max(worst, abs(row_a[i] - 4.0))
        axis = [i - 1, i + 1, i - (n + 1), i + (n + 1)]
        diag = [i - (n + 2), i + (n + 2)]
        worst = max(worst, max(abs(row_a[j] + 1.0) for j in axis))
        worst = max(worst, max(abs(row_a[j]) for j in diag))
    ok = worst <= 1e-14
    assert report(3, "mass/stiffness stencils", ok, f"worst defect {worst:.2e}")


def test_criterion_4_nodal_projection_laws():
    rng = np.random.default_rng(12)
    mesh = build_uniform(8)
    worst_state = 0.0
    tv_ok = True
    for r in (0, 1):
        model = HeatModel(mesh, TimeGrid(0.1, 4), r)
        for _ in range(10):
            pos = 0.1 + 0.8 * rng.random((3, 2))
            q = DiscreteMeasure(pos, rng.standard_normal(3))
            projected = project_to_nodes(mesh, q)
            tv_ok &= tv_norm(projected) <= tv_norm(q) + 1e-12
            direct = forward_dirac(model, q)
            via_nodes = forward_dirac(model, projected)
            scale = max(np.linalg.norm(direct), 1.0)
            worst_state = max(worst_state, np.linalg.norm(direct - via_nodes) / scale)
    ok = tv_ok and worst_state <= 1e-12
    assert report(4, "nodal projection laws", ok, f"worst state defect {worst_state:.2e}")


def test_criterion_5_pdap_optimality_and_gap():
    start = time.time()
    alpha = 1e-3
    mesh = build_uniform(32)
    model = HeatModel(mesh, TimeGrid(0.1, 64), 0)
    u_d = make_observation(model, TRUTH, 0.0, 0)
    cfg = PdapConfig(alpha=alpha, tol=1e-8, max_outer_iterations=300)
    res = pdap.run(model, u_d, cfg)
    records = res.log.records
    monotone = all(
        b.objective <= a.objective + 1e-12 for a, b in zip(records, records[1:])
    )
    gaps_ok = all(r.phi >= -1e-12 for r in records[1:])
    zmax = float(np.abs(res.adjoint).max())
    bound_ok = zmax <= alpha + 1e-8
    sign_ok = all(
        abs(res.adjoint[node] + alpha * np.sign(b)) <= 1e-8
        for node, b in zip(res.active_nodes, res.coefficients)
    )
    elapsed = time.time() - start
    ok = res.converged and monotone and gaps_ok and bound_ok and sign_ok and elapsed < 120
    assert report(
        5,
        "active-point optimality and gap",
        ok,
        f"max|z|-alpha {zmax - alpha:+.2e}, {len(records)} iterations, {elapsed:.1f}s",
    )


def test_criterion_6_brute_force_equivalence():
    mesh = build_uniform(4)
    model = HeatModel(mesh, TimeGrid(0.1, 4), 0)
    rng = np.random.default_rng(42)
    u_d = rng.standard_normal(mesh.num_nodes)
    interior = mesh.interior_nodes()
    cols = [
        forward_dirac(model, DiscreteMeasure([mesh.nodes[i]], [1.0])) for i in interior
    ]
    G = np.array([[l2_inner(model.mass, a, b) for b in cols] for a in cols])
    c = np.array([l2_inner(model.mass, col, u_d) for col in cols])
    alpha = 0.5 * np.abs(c).max()
    ud2 = l2_norm(model.mass, u_d) ** 2

    # Independent oracle: plain accelerated proximal gradient over the
    # complete 9-column dictionary, run to a 1e-12 first-order residual.
    L = sla.eigvalsh(G)[-1]
    x = np.zeros(9)
    y = x.copy()
    t = 1.0
    for _ in range(200000):
        g = G @ y - c
        xn = np.sign(y - g / L) * np.maximum(np.abs(y - g / L) - alpha / L, 0.0)
        if (y - xn) @ (xn - x) > 0.0:
            y = x.copy()
            t = 1.0
            g = G @ y - c
            xn = np.sign(y - g / L) * np.maximum(np.abs(y - g / L) - alpha / L, 0.0)
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = xn + (t - 1.0) / tn * (xn - x)
        x, t = xn, tn
        r = G @ x - c
        res = np.where(
            x != 0.0, np.abs(r + alpha * np.sign(x)), np.maximum(np.abs(r) - alpha, 0.0)
        ).max()
        if res <= 1e-12:
            break
    j_oracle = 0.5 * x @ G @ x - c @ x + 0.5 * ud2 + alpha * np.abs(x).sum()

    result = pdap.run(model, u_d, PdapConfig(alpha=alpha, tol=1e-12))
    diff = abs(result.objective - j_oracle)
    ok = result.converged and diff <= 1e-8
    assert report(6, "brute-force subproblem equivalence", ok, f"objective gap {diff:.2e}")


def test_criterion_7_temporal_rates():
    start = time.time()
    base = dict(
        T=0.1,
        truth=TRUTH,
        mesh_n=32,
        time_steps=[16, 32, 64, 128, 256],
        noise_level=0.0,
        seed=0,
    )
    cfg0 = ExperimentConfig(
        dg_order=0, pdap=PdapConfig(alpha=1e-3, tol=1e-8, max_outer_iterations=300), **base
    )
    table0, conv0 = study_time(cfg0)
    cfg1 = ExperimentConfig(
        dg_order=1, pdap=PdapConfig(alpha=1e-3, tol=1e-8, max_outer_iterations=300), **base
    )
    table1, conv1 = study_time(cfg1)
    mean_first_two = 0.5 * (table1.eocs[0] + table1.eocs[1])
    elapsed = time.time() - start
    ok = (
        conv0
        and conv1
        and 0.7 <= table0.slope <= 1.6
        and 2.6 <= mean_first_two <= 3.4
        and elapsed < 600
    )
    assert report(
        7,
        "temporal convergence rates",
        ok,
        f"first-order slope {table0.slope:.2f}, third-order EOCs "
        f"{table1.eocs[0]:.2f}/{table1.eocs[1]:.2f}, {elapsed:.0f}s",
    )


def test_criterion_8_spatial_rate():
    """Fitted spatial slope expected in [0.6, 1.4].

    The recovered measures represent off-grid spikes through clusters of
    adjacent nodes, which reproduces the terminal state to second order,
    so the measured slope at these levels sits near 2 and this window is
    not attainable (verified independent of gap tolerance down to 1e-12,
    of noise level, of the time-step count and of the dG order).
    """
    start = time.time()
    cfg = ExperimentConfig(
        T=0.1,
        truth=TRUTH,
        mesh_n=[8, 16, 32, 64, 128],
        time_steps=64,
        dg_order=0,
        noise_level=0.0,
        seed=0,
        pdap=PdapConfig(alpha=1e-3, tol=1e-8, max_outer_iterations=300),
    )
    table, converged = study_space(cfg)
    elapsed = time.time() - start
    detail = (
        f"slope {table.slope:.2f}, errors "
        + "/".join(f"{e:.2e}" for e in table.errors)
        + f", {elapsed:.0f}s"
    )
    ok = converged and 0.6 <= table.slope <= 1.4 and elapsed < 900
    assert report(8, "spatial convergence rate window", ok, detail)


def test_criterion_8_slope_is_second_order_at_any_tolerance():
    """Certificate behind criterion 8's failure, on smaller levels.

    The spatial slope does not move between gap tolerances 1e-8 and
    1e-12, so it is not an artefact of inexact solves, and it sits well
    above the window's upper end of 1.4. Measured on mesh_n = 4..64 with
    64 time steps: slope 2.0529 at both tolerances (errors 0.340, 0.0604,
    0.0197, 0.00411), about 0.5 s per study.
    """
    slopes = []
    for tol in (1e-8, 1e-12):
        cfg = ExperimentConfig(
            T=0.1,
            truth=TRUTH,
            mesh_n=[4, 8, 16, 32, 64],
            time_steps=64,
            dg_order=0,
            noise_level=0.0,
            seed=0,
            pdap=PdapConfig(alpha=1e-3, tol=tol, max_outer_iterations=300),
        )
        table, converged = study_space(cfg)
        assert converged
        slopes.append(table.slope)
    ok = abs(slopes[0] - slopes[1]) <= 1e-6 and min(slopes) > 1.4
    assert report(
        8,
        "spatial slope is second order at any tolerance",
        ok,
        f"slopes {slopes[0]:.4f} (tol 1e-8) and {slopes[1]:.4f} (tol 1e-12)",
    )


def test_criterion_9_pointwise_smoothing_rates():
    start = time.time()
    spec = SmoothingSpec(x0=(0.5, 0.5))
    cfg_t0 = ExperimentConfig(
        T=0.1, mesh_n=32, time_steps=[4, 8, 16, 32, 256], dg_order=0, smoothing=spec
    )
    slope_t0 = study_smoothing(cfg_t0).slope
    cfg_t1 = ExperimentConfig(
        T=0.1, mesh_n=32, time_steps=[4, 8, 16, 32, 256], dg_order=1, smoothing=spec
    )
    slope_t1 = study_smoothing(cfg_t1).slope
    cfg_s = ExperimentConfig(
        T=0.1,
        mesh_n=[16, 32, 64, 128, 256],
        time_steps=64,
        dg_order=0,
        smoothing=SmoothingSpec(x0=(0.5, 0.5)),
    )
    slope_s = study_smoothing(cfg_s).slope
    elapsed = time.time() - start
    ok = (
        0.8 <= slope_t0 <= 1.2
        and 2.6 <= slope_t1 <= 3.4
        and 1.7 <= slope_s <= 2.3
        and elapsed < 600
    )
    assert report(
        9,
        "pointwise smoothing rates",
        ok,
        f"time slopes {slope_t0:.2f}/{slope_t1:.2f}, space slope {slope_s:.2f}, {elapsed:.0f}s",
    )


def test_criterion_10_on_grid_reconstruction():
    """Zero-noise on-grid recovery windows (2h positions, 10% coefficients).

    The minimizer places atoms biased toward the domain interior: less
    boundary absorption lets a smaller coefficient reproduce the same
    terminal blob, and the heat propagator is so smoothing that the
    repositioned pair matches the data almost exactly. The objective at
    the recovered support is strictly below the objective of the best
    coefficients on the true support (gap certificate ~1e-12), so the
    stated windows are not attainable at alpha = 1e-4.
    """
    start = time.time()
    n = 64
    snap = lambda x: round(x * n) / n
    truth = DiscreteMeasure(
        [
            [snap(0.263091083266217), snap(0.258378565204941)],
            [snap(0.76061544960808), snap(0.734190309666141)],
        ],
        [-10.0, 25.0],
    )
    cfg = ExperimentConfig(
        T=0.1,
        truth=truth,
        mesh_n=n,
        time_steps=256,
        dg_order=0,
        noise_level=0.0,
        seed=0,
        pdap=PdapConfig(alpha=1e-4, tol=1e-8, max_outer_iterations=300),
    )
    report_out = reconstruct(cfg)
    lumped = report_out.lumped
    h = np.sqrt(2.0) / n
    elapsed = time.time() - start
    two_atoms = len(lumped) == 2
    signs_ok = two_atoms and sorted(np.sign(lumped.coefficients)) == [-1.0, 1.0]
    match = match_supports(truth, lumped, 0.15)
    pos_ok = not match.unmatched_reference and match.position_error <= 2.0 * h
    coef_ok = True
    for i, cluster in match.pairs:
        rel = abs(truth.coefficients[i] - lumped.coefficients[cluster].sum()) / abs(
            truth.coefficients[i]
        )
        coef_ok &= rel <= 0.10
    ok = (
        report_out.converged
        and two_atoms
        and signs_ok
        and pos_ok
        and coef_ok
        and elapsed < 300
    )
    assert report(
        10,
        "on-grid reconstruction windows",
        ok,
        f"atoms {len(lumped)}, position error {match.position_error:.3f} vs 2h={2*h:.3f}, "
        f"coefficients {np.round(lumped.coefficients, 2)}, {elapsed:.0f}s",
    )


def test_criterion_10_true_support_is_not_optimal():
    """Certificate behind criterion 10's failure, on its exact config.

    The best coefficients on the two snapped true nodes leave an
    objective strictly above the one `reconstruct` certifies with a gap
    of at most 1e-10 * M0, so the minimizer is not supported on the true
    nodes and criterion 10's windows cannot be met at alpha = 1e-4.
    """
    n, alpha = 64, 1e-4
    snap = lambda x: round(x * n) / n
    truth = DiscreteMeasure(
        [
            [snap(0.263091083266217), snap(0.258378565204941)],
            [snap(0.76061544960808), snap(0.734190309666141)],
        ],
        [-10.0, 25.0],
    )
    cfg = ExperimentConfig(
        T=0.1,
        truth=truth,
        mesh_n=n,
        time_steps=256,
        dg_order=0,
        noise_level=0.0,
        seed=0,
        pdap=PdapConfig(alpha=alpha, tol=1e-8, max_outer_iterations=300),
    )
    report_out = reconstruct(cfg)

    model = HeatModel(build_uniform(n), TimeGrid(cfg.T, 256), 0)
    u_d = make_observation(model, truth, 0.0, 0)
    cols = [
        forward_dirac(model, DiscreteMeasure([x], [1.0])) for x in truth.positions
    ]
    G = np.array([[l2_inner(model.mass, a, b) for b in cols] for a in cols])
    c = np.array([l2_inner(model.mass, col, u_d) for col in cols])
    beta, _ = pdap.solve_subproblem(G, c, alpha, np.zeros(2), 1e-12, 100)
    on_truth = objective(model, u_d, DiscreteMeasure(truth.positions, beta), alpha)
    m0 = 0.5 * l2_norm(model.mass, u_d) ** 2 / alpha
    ok = (
        report_out.converged
        and report_out.objective < on_truth
        and report_out.gap <= 1e-10 * m0
    )
    assert report(
        10,
        "true support is not optimal",
        ok,
        f"objective {report_out.objective:.7g} < {on_truth:.7g} on the true nodes, "
        f"gap/M0 {report_out.gap / m0:.1e}",
    )


def test_criterion_11_artifact_determinism(tmp_path):
    start = time.time()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["reconstruct", "--config", "paper_10_1.json", "--out", str(out1)]) == 0
    assert main(["reconstruct", "--config", "paper_10_1.json", "--out", str(out2)]) == 0
    files1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
    files2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
    elapsed = time.time() - start
    ok = files1 == files2 and set(files1) == {
        "measure.json",
        "measure_lumped.json",
        "log.csv",
        "field.csv",
    }
    assert report(11, "bundled-config determinism", ok, f"{len(files1)} artifacts, {elapsed:.0f}s")
