"""Tests of the benchmark's own logic: output checks and span arithmetic.

    python3 -m pytest perfbench
"""

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")) as f:
    REFERENCES = json.load(f)

CONFIG = {
    "alpha": 0.001,
    "pdap": {"tol": 1e-7},
    "truth": [
        {"x": [0.26, 0.26], "beta": -10.0},
        {"x": [0.76, 0.73], "beta": 25.0},
    ],
}
RECONSTRUCT_STDOUT = (
    "reconstruct: support=3 lumped=2 objective=0.0362355 phi=3.2e-14 "
    "adjoint_max=0.001 out=x\n"
)


def write_errors_csv(outdir, rows):
    with open(outdir / "errors.csv", "w") as f:
        f.write("param,error,eoc\n")
        for p, e, eoc in rows:
            f.write(f"{p:.17g},{e:.17g},{'' if eoc is None else f'{eoc:.17g}'}\n")


def study_stdout(reference):
    return f"study-space: slope={reference['slope']:.4g} levels={len(reference['rows'])} out=x\n"


@pytest.fixture
def study(tmp_path):
    reference = REFERENCES["study-space"]
    write_errors_csv(tmp_path, reference["rows"])
    return tmp_path, reference


def test_study_check_accepts_reference_output(study):
    outdir, reference = study
    assert checks.check_study(0, study_stdout(reference), str(outdir), reference) == []


def test_study_check_rejects_perturbed_errors_csv(study):
    outdir, reference = study
    rows = [list(r) for r in reference["rows"]]
    rows[2][1] *= 1.0 + 1e-4
    write_errors_csv(outdir, rows)
    problems = checks.check_study(0, study_stdout(reference), str(outdir), reference)
    assert problems and "row 2 error" in problems[0]


def test_study_check_rejects_missing_row(study):
    outdir, reference = study
    write_errors_csv(outdir, reference["rows"][:-1])
    assert checks.check_study(0, study_stdout(reference), str(outdir), reference)


def test_study_check_rejects_wrong_slope(study):
    outdir, reference = study
    stdout = study_stdout(reference).replace("slope=2.072", "slope=2.075")
    assert checks.check_study(0, stdout, str(outdir), reference)


def test_study_check_rejects_missing_artifact_and_nonzero_exit(study):
    outdir, reference = study
    stdout = study_stdout(reference)
    assert checks.check_study(2, stdout, str(outdir), reference) == ["exit code 2"]
    os.remove(outdir / "errors.csv")
    assert checks.check_study(0, stdout, str(outdir), reference) == [
        "missing artifact errors.csv"
    ]


def write_reconstruct(outdir, lumped, last_phi=1e-14):
    with open(outdir / "log.csv", "w") as f:
        f.write("n,phi,objective,support_size,new_node,subproblem_iters\n")
        f.write("0,2.5,0.5,0,100,3\n")
        f.write(f"1,{last_phi},0.03,2,-1,0\n")
    with open(outdir / "measure_lumped.json", "w") as f:
        json.dump([{"x": x, "beta": b} for x, b in lumped], f)
    for name in ("measure.json", "field.csv"):
        (outdir / name).write_text("[]\n")


GOOD_LUMPED = [([0.27, 0.25], -9.0), ([0.75, 0.74], 24.0)]


def test_reconstruct_check_accepts_matched_atoms(tmp_path):
    write_reconstruct(tmp_path, GOOD_LUMPED)
    assert checks.check_reconstruct(0, RECONSTRUCT_STDOUT, str(tmp_path), CONFIG) == []


def test_reconstruct_check_rejects_wrong_sign_and_far_atoms(tmp_path):
    write_reconstruct(tmp_path, [([0.27, 0.25], 9.0), ([0.5, 0.5], 24.0)])
    problems = checks.check_reconstruct(0, RECONSTRUCT_STDOUT, str(tmp_path), CONFIG)
    assert len(problems) == 2


def test_reconstruct_check_rejects_unconverged_gap(tmp_path):
    # threshold = tol * objective_0 / alpha = 1e-7 * 0.5 / 1e-3 = 5e-5
    write_reconstruct(tmp_path, GOOD_LUMPED, last_phi=6e-5)
    problems = checks.check_reconstruct(0, RECONSTRUCT_STDOUT, str(tmp_path), CONFIG)
    assert problems and "gap certificate" in problems[0]


def test_reconstruct_check_rejects_missing_artifact_and_nonzero_exit(tmp_path):
    write_reconstruct(tmp_path, GOOD_LUMPED)
    assert checks.check_reconstruct(3, RECONSTRUCT_STDOUT, str(tmp_path), CONFIG) == [
        "exit code 3"
    ]
    os.remove(tmp_path / "field.csv")
    assert checks.check_reconstruct(0, RECONSTRUCT_STDOUT, str(tmp_path), CONFIG) == [
        "missing artifact field.csv"
    ]
    assert checks.check_reconstruct(0, "", str(tmp_path), CONFIG)[0].startswith("summary")


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_times_on_nested_trace():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 3.5, 6.0, 0),  # overlaps "a": covered once
        span("c", 9.0, 12.0, 0),  # runs past the parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_metrics_on_hand_built_trace():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("experiments.make_observation", 0.0, 1.0, 0),
        span("timestepping.forward_dirac", 0.1, 0.9, 1),
        span("timestepping.propagate_load", 0.2, 0.8, 2, {"steps": 4}),
        span("timestepping.splu", 0.2, 0.4, 3, {"nnz": 7}),
        span("pdap.run", 1.0, 8.0, 0, {"outer": 3, "support": 1}),
        span("timestepping.propagate_load", 2.0, 3.0, 5, {"steps": 4}),
        span("timestepping.propagate_load", 4.0, 5.0, 5, {"steps": 4}),
        span("pdap.solve_subproblem", 5.0, 5.5, 5, {"iters": 6}),
        span("timestepping.forward_dirac", 8.0, 9.0, 0),
        span("experiments.write_csv", 9.0, 9.5, 0, {"bytes": 120}),
    ]
    m = {name: value for name, (value, _) in tracing.layer_metrics(spans).items()}
    assert m["timestepping.factor_calls"] == 1
    assert m["timestepping.lu_nnz"] == 7
    assert m["timestepping.forward_calls"] == 3
    # Propagation self time 0.4 + 1 + 1 s over 12 steps.
    assert m["timestepping.step_ms"] == pytest.approx(1000.0 * 2.4 / 12)
    assert m["pdap.run_s"] == pytest.approx(7.0)
    assert m["pdap.self_s"] == pytest.approx(4.5)
    assert m["pdap.outer_iterations"] == 3
    assert m["pdap.subproblem_iters"] == 6
    assert m["pdap.activation_yield"] == pytest.approx(0.5)
    assert m["experiments.forward_dirac_extra"] == 1
    assert m["experiments.io_bytes"] == 120
    assert m["mesh.locate_calls"] == 0


def test_recorder_records_parents_and_attributes():
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda x: (x, x + 1), lambda a, k, r: {"iters": r[1]})
    outer = recorder.wrap("outer", lambda x: inner(x)[0] + inner(x)[0])
    assert outer(2) == 4
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.ATTRS]) for s in recorder.spans]
    assert names == [("outer", -1, None), ("inner", 0, {"iters": 3}), ("inner", 0, {"iters": 3})]


def test_probe_ticks_are_subtracted_from_the_call(monkeypatch):
    import probe

    monkeypatch.setattr(probe, "INTERVAL_S", 0.05)
    p = probe.Probe()
    # sleep keeps its deadline across signals, so the call spans 0.4 s of
    # wall time (plus at most the tick that runs past the deadline) and the
    # ticks inside it must account for the part not reported as elapsed.
    result, elapsed = p.time_call(time.sleep, 0.4)
    ticks = p.samples[:-1]  # the last sample is taken after the call
    assert result is None
    assert len(ticks) >= 5
    assert 0.39 <= elapsed + sum(ticks) <= 0.41 + max(ticks)
    assert probe.scale([probe.REFERENCE_S / 2] * 3) == pytest.approx(2.0)


def test_reported_metrics_match_benchmark_json():
    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {name: unit for name, (_, unit) in tracing.layer_metrics([]).items()}
    units["trace.overhead_s"] = "s"
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, units[name]) for name in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
