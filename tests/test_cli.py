import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseheat import build_uniform, cli, experiments, pdap, timestepping
from sparseheat.cli import main, _resolve_config
from sparseheat.errors import ConfigError, SolverFailure
from sparseheat.mesh import refine_support

from measure_helpers import record_runs

ROOT = Path(__file__).resolve().parents[1]


TINY_RECONSTRUCT = {
    "T": 0.1,
    "truth": [{"x": [0.5, 0.5], "beta": 5.0}],
    "mesh_n": 8,
    "time_steps": 8,
    "dg_order": 0,
    "alpha": 0.001,
    "noise_level": 0.0,
    "seed": 3,
    "pdap": {"tol": 1e-8},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def artifact_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("reconstruct", "study-space", "study-time", "study-smoothing", "selftest"):
        assert command in out


def test_missing_config_is_usage_error(capsys):
    assert main(["reconstruct", "--config", "no_such_file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_config_key_is_usage_error(tmp_path, capsys):
    cfg = dict(TINY_RECONSTRUCT)
    cfg["surprise"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path]) == 1


@pytest.mark.parametrize(
    "override",
    [
        {"dg_order": 2},
        {"mesh_n": 1},
        {"truth": [{"x": [0.5, 1.5], "beta": 1.0}]},
        {"truth": [{"x": [0.5], "beta": 1.0}]},
        {"truth": [{"x": 0.5, "beta": 1.0}]},
        {"truth": [[0.5, 0.5]]},
        {"truth": [{"x": [0.5, 0.5], "beta": "big"}]},
        {"T": float("nan")},
        {"T": 10**400},
        {"mesh_n": 10**400},
        {"mesh_n": 100000},
        {"time_steps": 10**400},
        {"time_steps": 10**15},
        {"T": 5e-324},
        {"alpha": float("nan")},
        {"noise_level": float("inf")},
        {"pdap": {"tol": float("nan")}},
        {"pdap": {"prune_threshold": float("nan")}},
        {"smoothing": []},
        {"mesh_n": [[8]]},
        {"mesh_n": 8.7},
        {"time_steps": "8"},
        {"pdap": {"max_outer_iterations": 2.5}},
        {"seed": -1},
        {"pdap": {"tol_mode": "absolute"}},
        {"pdap": {"subproblem_tol": 1e-12}},
        {"pdap": {"subproblem_max_iterations": 50}},
    ],
    ids=[
        "dg_order",
        "mesh_n",
        "atom_outside",
        "atom_one_coordinate",
        "atom_scalar_x",
        "atom_not_object",
        "atom_beta_not_number",
        "T_nan",
        "T_beyond_float_range",
        "mesh_n_beyond_float_range",
        "mesh_n_above_bound",
        "time_steps_beyond_float_range",
        "time_steps_above_bound",
        "time_step_underflows",
        "alpha_nan",
        "noise_level_inf",
        "pdap_tol_nan",
        "pdap_prune_threshold_nan",
        "smoothing_not_object",
        "mesh_n_nested_list",
        "mesh_n_fraction",
        "time_steps_string",
        "pdap_max_outer_iterations_fraction",
        "seed_negative",
        "pdap_tol_mode",
        "pdap_subproblem_tol",
        "pdap_subproblem_max_iterations",
    ],
)
def test_invalid_input_is_one_line_error(tmp_path, capsys, override):
    path = write_config(tmp_path, {**TINY_RECONSTRUCT, **override})
    assert main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", [True, False, "0.1"], ids=["true", "false", "string"])
@pytest.mark.parametrize(
    "name, override",
    [
        ("T", lambda v: {"T": v}),
        ("pdap.tol", lambda v: {"pdap": {"tol": v}}),
        ("truth[0].x", lambda v: {"truth": [{"x": [0.5, v], "beta": 1.0}]}),
        ("truth[0].beta", lambda v: {"truth": [{"x": [0.5, 0.5], "beta": v}]}),
        ("smoothing.x0", lambda v: {"smoothing": {"x0": [v, 0.5]}}),
    ],
    ids=["top_level", "pdap", "atom_x", "atom_beta", "x0"],
)
def test_numbers_must_be_json_numbers(tmp_path, capsys, name, override, value):
    # float() would read True as 1.0 and "0.1" as 0.1.
    path = write_config(tmp_path, {**TINY_RECONSTRUCT, **override(value)})
    assert main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {name} must be a number, got {value!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [["a"], True, 3], ids=["list", "true", "number"])
def test_output_dir_must_be_a_string_or_null(tmp_path, capsys, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {**TINY_RECONSTRUCT, "output_dir": value})
    assert main(["reconstruct", "--config", path]) == 1
    assert capsys.readouterr().err == (
        f"error: output_dir must be a string or null, got {value!r}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_schema_docs_and_help_list_the_same_keys(capsys):
    assert main(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    listed = out.split("Config keys: ", 1)[1].split(". See docs/config.md.", 1)[0]
    helped = {
        block: {key.strip() for key in keys.split(",")}
        for block, keys in re.findall(r"(\w+)\{([^}]*)\}", listed)
    }
    helped["root"] = {key.strip() for key in re.sub(r"\{[^}]*\}", "", listed).split(",")}
    doc = (ROOT / "docs" / "config.md").read_text()
    for block, heading, table in [
        ("root", "## Top-level keys", experiments.SCHEMA),
        ("pdap", "## `pdap` block", experiments.SCHEMA["pdap"]),
        ("smoothing", "## `smoothing` block", experiments.SCHEMA["smoothing"]),
    ]:
        section = doc.split(heading, 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE))
        assert documented == helped[block] == set(table), block


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_flag_is_one_line_error(tmp_path, capsys, tol):
    path = write_config(tmp_path, TINY_RECONSTRUCT)
    argv = ["reconstruct", "--config", path, "--out", str(tmp_path / "o"), "--tol", tol]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "pdap_block, flags, tol",
    [({"tol": 1e-3}, [], "0.001"), ({"tol": 1e-8}, ["--tol", "0.01"], "0.01")],
    ids=["config", "flag"],
)
def test_tol_not_below_alpha_is_one_line_error(tmp_path, capsys, pdap_block, flags, tol):
    # The gap bounds j(q) - j*, so a stop at tol * M0 = (tol / alpha) j(0)
    # with tol >= alpha certifies nothing better than j(q) <= j(0).
    path = write_config(tmp_path, {**TINY_RECONSTRUCT, "pdap": pdap_block})
    argv = ["reconstruct", "--config", path, "--out", str(tmp_path / "o"), *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: tol must be below alpha = 0.001, got {tol}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "pdap_block",
    [{"tol": 1e-24}, {"max_outer_iterations": 0}],
    ids=["argmax_active", "iteration_cap"],
)
def test_unconverged_solve_is_one_line_exit_2(tmp_path, capsys, pdap_block):
    # At tol 1e-24, far below the gap's round-off of about 1e-16 M0, this
    # two-atom solve reaches round-off and then meets its argmax node
    # already active, long before the default cap of 200.
    payload = {
        **TINY_RECONSTRUCT,
        "truth": [{"x": [0.3, 0.3], "beta": -10.0}, {"x": [0.7, 0.65], "beta": 25.0}],
        "mesh_n": 16,
        "time_steps": 32,
        "noise_level": 0.05,
        "pdap": pdap_block,
    }
    path = write_config(tmp_path, payload)
    assert main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "not converged: a PDAP solve stopped with its gap above tol * M0, "
        "at max_outer_iterations or with its argmax node already active\n"
    )


def test_out_of_memory_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    def no_memory(n):
        raise MemoryError(f"Unable to allocate mesh arrays for n = {n}")

    monkeypatch.setattr(experiments, "build_uniform", no_memory)
    path = write_config(tmp_path, TINY_RECONSTRUCT)
    assert main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, mesh_n, time_steps",
    [("study-space", [4, 8, 16], 8), ("study-time", 8, [4, 8, 16]), ("reconstruct", 8, 8)],
)
def test_stalled_subproblem_is_one_line_exit_3(
    tmp_path, capsys, monkeypatch, command, mesh_n, time_steps
):
    # A spent subproblem budget raises SolverFailure, a NumericalError, so
    # it exits 3 as a numerical failure, not 2 as non-convergence.
    monkeypatch.setattr(pdap, "SUBPROBLEM_MAX_ITERATIONS", 0)
    payload = {**TINY_RECONSTRUCT, "mesh_n": mesh_n, "time_steps": time_steps}
    path = write_config(tmp_path, payload)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: subproblem stalled after 0 iterations")
    assert err.count("\n") == 1


SINGLE = "must be a single value for this driver"


@pytest.mark.parametrize(
    "command, mesh_n, time_steps, message",
    [
        ("study-space", [4, 8, 16], [4, 8, 16], f"time_steps {SINGLE}"),
        ("study-time", [4, 8, 16], [4, 8, 16], f"mesh_n {SINGLE}"),
        ("study-smoothing", [16, 32, 64], [2, 4, 8], f"mesh_n {SINGLE}"),
        ("study-smoothing", 16, 4, "refinement studies need at least three levels"),
    ],
    ids=["space", "time", "smoothing-both-lists", "smoothing-no-list"],
)
def test_study_sweep_errors_build_no_model(
    tmp_path, capsys, monkeypatch, command, mesh_n, time_steps, message
):
    # The level list is checked in full before the first model is built.
    def refuse(*args, **kwargs):
        raise AssertionError("HeatModel built before the sweep was checked")

    monkeypatch.setattr(experiments, "HeatModel", refuse)
    payload = {
        **TINY_RECONSTRUCT,
        "mesh_n": mesh_n,
        "time_steps": time_steps,
        "smoothing": {"x0": [0.5, 0.5]},
    }
    path = write_config(tmp_path, payload)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["selftest", "-v"], [], ["reconstruct"]],
    ids=["unknown_flag", "missing_subcommand", "missing_config"],
)
def test_usage_error_is_one_line(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_reconstruct_writes_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, TINY_RECONSTRUCT)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", path, "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "reconstruct:" in summary
    for name in ("measure.json", "measure_lumped.json", "log.csv", "field.csv"):
        assert (out / name).exists()


def test_reconstruct_accepts_close_truth_atoms(tmp_path, capsys):
    # The truth only synthesizes the data; atoms 0.2 apart are valid even
    # though demo-style support matching at radius 0.15 would reject them.
    cfg = {**TINY_RECONSTRUCT, "truth": [
        {"x": [0.4, 0.5], "beta": 5.0}, {"x": [0.6, 0.5], "beta": 5.0}
    ]}
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_reconstruct_deterministic_artifacts(tmp_path):
    path = write_config(tmp_path, TINY_RECONSTRUCT)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["reconstruct", "--config", path, "--out", str(out1)]) == 0
    assert main(["reconstruct", "--config", path, "--out", str(out2)]) == 0
    assert artifact_bytes(out1) == artifact_bytes(out2)


NOISY_RECONSTRUCT = {
    **TINY_RECONSTRUCT,
    "truth": [{"x": [0.3, 0.4], "beta": 5.0}, {"x": [0.7, 0.6], "beta": -3.0}],
    "mesh_n": 16,
    "noise_level": 0.05,
}


def test_verbose_logs_one_line_per_iteration(tmp_path, capsys, monkeypatch):
    # reconstruct solves the n/2 lattice first (taken at n = 16 here, to
    # keep the test small): its pdap lines and its `level n=8` line come
    # before those of the n level. log.csv row 0 is the empty measure the
    # seeded n level starts from, and the n level's pdap lines match the
    # rows after it, row for row.
    monkeypatch.setattr(experiments, "TWO_LEVEL_MIN_N", 16)
    path = write_config(tmp_path, NOISY_RECONSTRUCT)
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["reconstruct", "--config", path, "--out", str(quiet)]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(["reconstruct", "--config", path, "--out", str(loud), "-v"]) == 0
    verbose = capsys.readouterr()
    start, *rows = (loud / "log.csv").read_text().splitlines()[1:]
    assert start.split(",")[:2] == ["0", "nan"]
    levels, iterations = [], []
    for line in verbose.err.splitlines():
        kind, *items = line.split()
        fields = dict(item.split("=") for item in items)
        if kind == "pdap":
            assert fields.keys() == {"n", "phi", "support", "inserted", "ms"}
            iterations.append(fields)
            continue
        assert kind == "level"
        assert fields.keys() == {"n", "seeds", "outer", "columns", "ms"}
        assert int(fields["outer"]) == len(iterations)
        levels.append((int(fields["n"]), int(fields["seeds"]), iterations))
        iterations = []
    assert iterations == []
    assert [(n, seeds > 0) for n, seeds, _ in levels] == [(8, False), (16, True)]
    coarse, fine = levels[0][2], levels[1][2]
    assert len(coarse) >= 2 and len(fine) == len(rows) >= 2
    for fields, row in zip(fine, rows):
        n, _, _, support, _, _, inserted = row.split(",")
        assert (fields["n"], fields["support"], fields["inserted"]) == (
            n, support, inserted
        )
    assert verbose.out.replace(str(loud), str(quiet)) == plain.out
    assert artifact_bytes(loud) == artifact_bytes(quiet)


def cold_run(tmp_path, capsys, monkeypatch, payload):
    """Exit code and stdout of reconstruct with the coarse level skipped.

    The cutoff is raised above n for the cold run only, then left at
    n = 16, for the tests that compare the two-level path with the cold
    run on NOISY_RECONSTRUCT.
    """
    monkeypatch.setattr(experiments, "TWO_LEVEL_MIN_N", 16)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "TWO_LEVEL_MIN_N", payload["mesh_n"] + 1)
        path = write_config(tmp_path, payload, "cold.json")
        code = main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("n", [2, 3, 5, 32, 63])
def test_reconstruct_below_the_two_level_cutoff_runs_cold(
    tmp_path, capsys, monkeypatch, n
):
    calls = record_runs(monkeypatch)
    path = write_config(tmp_path, {**TINY_RECONSTRUCT, "mesh_n": n})
    assert main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert [(level, seeds) for level, seeds, _ in calls] == [(n, [])]
    assert "support=" in capsys.readouterr().out


def test_reconstruct_at_the_two_level_cutoff_seeds_from_half_n(tmp_path, monkeypatch):
    n = experiments.TWO_LEVEL_MIN_N
    calls = record_runs(monkeypatch)
    path = write_config(tmp_path, {**NOISY_RECONSTRUCT, "mesh_n": n})
    assert main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")]) == 0
    (coarse_n, coarse_seeds, coarse), (fine_n, fine_seeds, _) = calls
    assert (coarse_n, coarse_seeds, fine_n) == (n // 2, [], n)
    assert fine_seeds == refine_support(
        build_uniform(n // 2), coarse.active_nodes, coarse.coefficients, coarse.adjoint
    )


def without_gap(stdout):
    return " ".join(item for item in stdout.split() if not item.startswith("phi="))


def test_reconstruct_unconverged_coarse_level_still_seeds(tmp_path, capsys, monkeypatch):
    # The seeded n level ends on the cold run's support and objective; only
    # its certified gap, far below tol * M0, is another round-off value.
    code, stdout = cold_run(tmp_path, capsys, monkeypatch, NOISY_RECONSTRUCT)

    def coarse(model, u_d, config):
        return real_run(model, u_d, replace(config, max_outer_iterations=1))

    real_run = pdap.run
    calls = record_runs(monkeypatch, coarse)
    path = write_config(tmp_path, NOISY_RECONSTRUCT)
    assert main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")]) == code
    (_, _, partial), (n, seeds, fine) = calls
    assert not partial.converged and partial.active_nodes
    assert (n, seeds) == (
        16,
        refine_support(
            build_uniform(8), partial.active_nodes, partial.coefficients, partial.adjoint
        ),
    )
    assert fine.converged and fine.gap < NOISY_RECONSTRUCT["pdap"]["tol"] * fine.m0
    assert without_gap(capsys.readouterr().out) == without_gap(stdout)


def test_reconstruct_coarse_solver_failure_falls_back_to_cold(
    tmp_path, capsys, monkeypatch
):
    expected = cold_run(tmp_path, capsys, monkeypatch, NOISY_RECONSTRUCT)

    def coarse(model, u_d, config):
        raise SolverFailure("subproblem stalled")

    calls = record_runs(monkeypatch, coarse)
    path = write_config(tmp_path, NOISY_RECONSTRUCT)
    code = main(["reconstruct", "--config", path, "--out", str(tmp_path / "o")])
    assert [(n, seeds) for n, seeds, _ in calls] == [(16, [])]
    assert (code, capsys.readouterr().out) == expected


@pytest.mark.parametrize(
    "command, mesh_n, time_steps, key, labels",
    [
        ("study-space", [4, 8, 16], 8, "n", [4, 8, 16]),
        ("study-time", 8, [4, 8, 16], "M", [4, 8, 16]),
    ],
    ids=["space", "time"],
)
def test_study_space_verbose_logs_one_line_per_level(
    tmp_path, capsys, command, mesh_n, time_steps, key, labels
):
    # Both studies run one seeded level loop: the first level starts
    # cold, every later one from the previous level's support.
    payload = {**TINY_RECONSTRUCT, "truth": [{"x": [0.37, 0.41], "beta": 5.0}]}
    payload.update(mesh_n=mesh_n, time_steps=time_steps)
    path = write_config(tmp_path, payload, "study.json")
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main([command, "--config", path, "--out", str(quiet)]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main([command, "--config", path, "--out", str(loud), "-v"]) == 0
    verbose = capsys.readouterr()
    # Each level's pdap iteration lines come first, then its summary line.
    levels, iterations = [], []
    for line in verbose.err.splitlines():
        kind, *items = line.split()
        fields = dict(item.split("=") for item in items)
        if kind == "pdap":
            iterations.append(fields)
            continue
        assert kind == "level"
        assert fields.keys() == {key, "seeds", "outer", "columns", "ms"}
        assert int(fields["outer"]) == len(iterations)
        assert int(fields["columns"]) == sum(int(f["inserted"]) for f in iterations)
        levels.append((int(fields[key]), int(fields["seeds"])))
        iterations = []
    assert iterations == []
    assert [label for label, _ in levels] == labels
    assert levels[0][1] == 0 and all(seeds > 0 for _, seeds in levels[1:])
    assert verbose.out.replace(str(loud), str(quiet)) == plain.out
    assert [p.name for p in loud.iterdir()] == ["errors.csv"]
    assert artifact_bytes(loud) == artifact_bytes(quiet)


def test_load_applies_overrides_and_the_default_output_dir(tmp_path, monkeypatch):
    # --out, --seed and --tol replace the file's values, even as "" or 0;
    # out/<config stem> applies only when neither sets a directory; the
    # config that load_config returned is left untouched.
    loaded = []

    def load_config(path):
        loaded.append(experiments.load_config(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_config", load_config)

    def load(payload, *flags):
        path = write_config(tmp_path, {**TINY_RECONSTRUCT, **payload}, "run.json")
        args = cli._build_parser().parse_args(["reconstruct", "--config", path, *flags])
        return cli._load(args)

    cfg = load({"output_dir": "d"}, "--out", "o", "--seed", "9", "--tol", "1e-5")
    assert (cfg.output_dir, cfg.seed, cfg.pdap.tol, cfg.pdap.alpha) == ("o", 9, 1e-5, 1e-3)
    file_cfg = loaded[-1]
    assert (file_cfg.output_dir, file_cfg.seed, file_cfg.pdap.tol) == ("d", 3, 1e-8)
    cfg = load({"output_dir": "d"})
    assert (cfg.output_dir, cfg.seed, cfg.pdap.tol) == ("d", 3, 1e-8)
    assert load({}).output_dir == str(Path("out") / "run")
    assert load({"output_dir": None}).output_dir == str(Path("out") / "run")
    assert load({"output_dir": "d"}, "--out", "").output_dir == ""
    assert load({}, "--out", "").output_dir == ""
    assert load({}, "--seed", "0").seed == 0


def test_seed_override_changes_noise(tmp_path):
    cfg = dict(TINY_RECONSTRUCT)
    cfg["noise_level"] = 0.05
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["reconstruct", "--config", path, "--out", str(out1)]) == 0
    assert main(["reconstruct", "--config", path, "--out", str(out2), "--seed", "77"]) == 0
    assert (
        (out1 / "field.csv").read_bytes() != (out2 / "field.csv").read_bytes()
    )


def test_study_smoothing_cli(tmp_path, capsys):
    payload = {
        "T": 0.1,
        "mesh_n": 16,
        "time_steps": [2, 4, 8, 64],
        "dg_order": 0,
        "smoothing": {"x0": [0.5, 0.5]},
    }
    path = write_config(tmp_path, payload, "smooth.json")
    out = tmp_path / "sm"
    assert main(["study-smoothing", "--config", path, "--out", str(out)]) == 0
    assert (out / "errors.csv").exists()
    assert "slope=" in capsys.readouterr().out


@pytest.mark.parametrize("mesh_n, time_steps", [([16, 32, 64], 4), (16, [2, 4, 8])])
def test_study_smoothing_never_assembles_the_full_mass(
    tmp_path, monkeypatch, mesh_n, time_steps
):
    # Its models propagate from the interior blocks and never read
    # HeatModel.mass, so the full mass is never built.
    payload = {
        "T": 0.1,
        "mesh_n": mesh_n,
        "time_steps": time_steps,
        "smoothing": {"x0": [0.5, 0.5]},
    }
    path = write_config(tmp_path, payload, "smooth.json")
    plain, lazy = tmp_path / "plain", tmp_path / "lazy"
    assert main(["study-smoothing", "--config", path, "--out", str(plain)]) == 0

    def refuse(mesh):
        raise AssertionError("full mass assembled")

    monkeypatch.setattr(timestepping, "assemble_mass", refuse)
    assert main(["study-smoothing", "--config", path, "--out", str(lazy)]) == 0
    assert (lazy / "errors.csv").read_bytes() == (plain / "errors.csv").read_bytes()


@pytest.mark.parametrize(
    "sweep, mesh_n, time_steps, labels",
    [
        ("space", [16, 32, 64], 4, ["n=16", "n=32", "n=64"]),
        ("time", 16, [2, 4, 8], ["M=2", "M=4", "M=8"]),
    ],
)
def test_study_smoothing_verbose_logs_one_line_per_level(
    tmp_path, capsys, sweep, mesh_n, time_steps, labels
):
    payload = {
        "T": 0.1,
        "mesh_n": mesh_n,
        "time_steps": time_steps,
        "smoothing": {"x0": [0.5, 0.5]},
    }
    # The swept parameter is the list one; naming it is an unknown key.
    named = {**payload, "smoothing": {"x0": [0.5, 0.5], "sweep": sweep}}
    named_path = write_config(tmp_path, named, "named.json")
    assert main(["study-smoothing", "--config", named_path]) == 1
    assert capsys.readouterr().err == "error: unknown smoothing keys: ['sweep']\n"
    path = write_config(tmp_path, payload, "smooth.json")
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["study-smoothing", "--config", path, "--out", str(quiet)]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(["study-smoothing", "--config", path, "--out", str(loud), "-v"]) == 0
    verbose = capsys.readouterr()
    lines = [line.split() for line in verbose.err.splitlines()]
    assert [(kind, label) for kind, label, _ in lines] == [("level", l) for l in labels]
    assert all(ms.startswith("ms=") and float(ms[3:]) >= 0.0 for *_, ms in lines)
    assert verbose.out.replace(str(loud), str(quiet)) == plain.out
    assert artifact_bytes(loud) == artifact_bytes(quiet)


def test_study_time_cli(tmp_path, capsys):
    payload = {
        "T": 0.1,
        "truth": [{"x": [0.5, 0.5], "beta": 5.0}],
        "mesh_n": 8,
        "time_steps": [4, 8, 16],
        "dg_order": 0,
        "alpha": 0.001,
        "pdap": {"tol": 1e-8},
    }
    path = write_config(tmp_path, payload, "time.json")
    out = tmp_path / "ti"
    assert main(["study-time", "--config", path, "--out", str(out)]) == 0
    assert (out / "errors.csv").exists()


def test_bundled_configs_resolve_and_parse():
    from sparseheat.experiments import load_config

    for name in (
        "paper_10_1.json",
        "paper_fig4.json",
        "paper_fig5_dg0.json",
        "paper_fig5_dg1.json",
        "smoothing_time_dg0.json",
        "smoothing_time_dg1.json",
        "smoothing_space.json",
    ):
        cfg = load_config(_resolve_config(name))
        assert cfg.T == 0.1


def test_resolve_config_missing():
    with pytest.raises(ConfigError):
        _resolve_config("definitely_not_here.json")


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "adjoint identity" in out
    assert "FAIL" not in out
    # selftest logs nothing, so it takes no -v.
    assert main(["selftest", "-v"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "error: unrecognized arguments: -v"
    assert err.count("error") == 1


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "sparseheat", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "reconstruct" in proc.stdout


@pytest.mark.parametrize(
    "override, code, prefix",
    [
        ({"noise_level": 1e300}, 3, "numerical failure: overflow"),
        ({"truth": [{"x": [0.5, 0.5], "beta": 1e300}]}, 3, "numerical failure: overflow"),
        ({"T": 100.0}, 0, None),  # underflows, legitimately
    ],
    ids=["noise_level", "truth_beta", "long_horizon"],
)
def test_floating_point_failure_is_one_stderr_line(tmp_path, override, code, prefix):
    # In a subprocess: in process, pytest records numpy's RuntimeWarnings,
    # so a warning that leaks to stderr would not show.
    path = write_config(tmp_path, {**TINY_RECONSTRUCT, **override})
    proc = subprocess.run(
        [sys.executable, "-m", "sparseheat", "reconstruct", "--config", path,
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    if prefix is None:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr


# A small grammar of command lines and configs: valid configs with every
# size at most 4, so that each drawn run takes milliseconds, and at most
# two keys replaced by a malformed or extreme value.
_VALID = st.fixed_dictionaries(
    {
        "T": st.sampled_from([0.05, 0.1]),
        "truth": st.lists(
            st.fixed_dictionaries(
                {
                    "x": st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2),
                    "beta": st.floats(-10.0, 10.0),
                }
            ),
            max_size=2,
        ),
        "mesh_n": st.sampled_from([2, 3, 4, [1, 2, 4], [2, 4]]),
        "time_steps": st.sampled_from([1, 2, 4, [1, 2, 4], [2, 4, 4]]),
        "dg_order": st.sampled_from([0, 1]),
        "alpha": st.sampled_from([1e-3, 1e-2, 1.0]),
        "noise_level": st.sampled_from([0.0, 0.05]),
        "seed": st.integers(0, 3),
        "pdap": st.fixed_dictionaries(
            {"tol": st.sampled_from([1e-8, 1e-3]), "max_outer_iterations": st.integers(0, 3)}
        ),
        "smoothing": st.sampled_from(
            [None, {"x0": [0.5, 0.5]}, {}]
        ),
    }
)
_MALFORMED = st.sampled_from(
    [
        ("T", 0.0), ("T", float("nan")), ("T", 1e300), ("T", "0.1"),
        ("truth", [{"x": [0.5], "beta": 1.0}]), ("truth", ["atom"]),
        ("truth", [{"x": [0.5, 1.5], "beta": 1.0}]), ("truth", {}),
        ("truth", [{"x": [0.5, 0.5], "beta": 1e300}]),
        ("mesh_n", 1), ("mesh_n", 2.5), ("mesh_n", [4, 2]), ("mesh_n", [[2]]),
        ("mesh_n", True), ("mesh_n", None),
        ("time_steps", 0), ("time_steps", -1), ("time_steps", "4"), ("time_steps", []),
        ("dg_order", 2), ("alpha", 0.0), ("alpha", float("inf")),
        ("noise_level", -1.0), ("noise_level", 1e300), ("seed", -1),
        ("pdap", {"tol": 0.0}), ("pdap", {"max_outer_iterations": -1}),
        ("pdap", {"mode": "fast"}), ("pdap", []),
        ("smoothing", {"x0": [0.5]}), ("smoothing", {"sweep": "both"}),
        ("smoothing", {"x0": [0.0, 0.0]}), ("surprise", 1),
    ]
)
_CONFIGS = st.one_of(
    st.builds(
        lambda base, bad: {**base, **dict(bad)}, _VALID, st.lists(_MALFORMED, max_size=2)
    ),
    st.sampled_from([[], "config", 3]),
)
_FLAGS = st.lists(
    st.sampled_from(
        [
            ("--seed", "7"), ("--seed", "-3"), ("--seed", "x"),
            ("--tol", "1e-6"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "x"),
            ("-v",), ("--verbose",), ("--bogus",), ("--config", "no_such_config.json"),
        ]
    ),
    max_size=2,
)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(
        ["reconstruct", "study-space", "study-time", "study-smoothing", "selftest", "solve"]
    ),
    config=_CONFIGS,
    flags=_FLAGS,
)
def test_main_never_raises_and_fails_in_one_line(command, config, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [command] if command == "selftest" else [
            command, "--config", str(path), "--out", str(Path(tmp) / "out")
        ]
        argv += [token for flag in flags for token in flag]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code != 0:
        # With -v the progress lines come first; the reason is one line.
        lines = [
            line for line in err.getvalue().splitlines()
            if not line.startswith(("pdap ", "level "))
        ]
        assert len(lines) == 1, err.getvalue()
        assert err.getvalue().endswith(lines[0] + "\n")


# Sizes at most 8 that each command accepts: a single `mesh_n` and
# `time_steps`, or a list of levels for the parameter that it sweeps.
_SIZES = {
    "reconstruct": (st.integers(2, 8), st.integers(1, 8)),
    "study-space": (st.just([2, 4, 8]), st.integers(1, 8)),
    "study-time": (st.integers(2, 8), st.sampled_from([[1, 2, 4], [2, 4, 8]])),
    "study-smoothing": (st.just([2, 4, 8]), st.integers(1, 8)),
}
# Where each float sits in the config, as a path of keys and indices.
_FLOATS = [
    ("T",), ("alpha",), ("noise_level",), ("pdap", "tol"), ("truth", 0, "x", 0),
    ("truth", 1, "x", 1), ("truth", 0, "beta"), ("smoothing", "x0", 0),
]


@st.composite
def _tiny_runs(draw):
    """A command and a tiny config for it, `mesh_n` and `time_steps` at
    most 8, with up to three floats drawn from the whole double range:
    NaN, the infinities, subnormals and both signs of zero included."""
    command = draw(st.sampled_from(sorted(_SIZES)))
    mesh_n, time_steps = (draw(size) for size in _SIZES[command])
    config = {
        "T": 0.1,
        "truth": [{"x": [0.3, 0.5], "beta": 5.0}, {"x": [0.7, 0.6], "beta": -2.0}],
        "mesh_n": mesh_n,
        "time_steps": time_steps,
        "dg_order": draw(st.sampled_from([0, 1])),
        "alpha": 1e-3,
        "noise_level": draw(st.sampled_from([0.0, 0.05])),
        "seed": draw(st.integers(0, 3)),
        "pdap": {"tol": 1e-8},
        "smoothing": {"x0": [0.5, 0.5]},
    }
    for *keys, last in draw(st.lists(st.sampled_from(_FLOATS), max_size=3, unique=True)):
        target = config
        for key in keys:
            target = target[key]
        target[last] = draw(st.floats())
    return command, config


@settings(max_examples=200, deadline=None)
@given(run=_tiny_runs())
def test_main_on_extreme_floats_exits_documented_in_one_line(run):
    # Warnings count as stderr lines: in-process, pytest would record
    # them instead of letting them reach stderr.
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert len(lines) <= 1, lines
