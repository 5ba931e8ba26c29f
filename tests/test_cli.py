import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseheat import build_uniform, experiments, pdap
from sparseheat.cli import main, _resolve_config
from sparseheat.errors import ConfigError, SolverFailure
from sparseheat.mesh import refine_support

from measure_helpers import record_runs


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


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_flag_is_one_line_error(tmp_path, capsys, tol):
    path = write_config(tmp_path, TINY_RECONSTRUCT)
    argv = ["reconstruct", "--config", path, "--out", str(tmp_path / "o"), "--tol", tol]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


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

    Leaves the two-level path enabled from n = 16 on, for the tests that
    compare it with the cold run on NOISY_RECONSTRUCT.
    """
    monkeypatch.setattr(experiments, "TWO_LEVEL_MIN_N", 16)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_coarse_seed", lambda model, u_d, cfg: [])
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
    assert fine_seeds == refine_support(build_uniform(n // 2), coarse.active_nodes)


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
    assert (n, seeds) == (16, refine_support(build_uniform(8), partial.active_nodes))
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


def test_study_space_verbose_logs_one_line_per_level(tmp_path, capsys):
    payload = {**TINY_RECONSTRUCT, "truth": [{"x": [0.37, 0.41], "beta": 5.0}]}
    payload["mesh_n"] = [4, 8, 16]
    path = write_config(tmp_path, payload, "space.json")
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["study-space", "--config", path, "--out", str(quiet)]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(["study-space", "--config", path, "--out", str(loud), "-v"]) == 0
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
        assert fields.keys() == {"n", "seeds", "outer", "columns", "ms"}
        assert int(fields["outer"]) == len(iterations)
        assert int(fields["columns"]) == sum(int(f["inserted"]) for f in iterations)
        levels.append((int(fields["n"]), int(fields["seeds"])))
        iterations = []
    assert iterations == []
    assert [n for n, _ in levels] == [4, 8, 16]
    assert levels[0][1] == 0 and all(seeds > 0 for _, seeds in levels[1:])
    assert verbose.out.replace(str(loud), str(quiet)) == plain.out
    assert [p.name for p in loud.iterdir()] == ["errors.csv"]
    assert artifact_bytes(loud) == artifact_bytes(quiet)


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
        "smoothing": {"x0": [0.5, 0.5], "sweep": "time"},
    }
    path = write_config(tmp_path, payload, "smooth.json")
    out = tmp_path / "sm"
    assert main(["study-smoothing", "--config", path, "--out", str(out)]) == 0
    assert (out / "errors.csv").exists()
    assert "slope=" in capsys.readouterr().out


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
        "smoothing": {"x0": [0.5, 0.5], "sweep": sweep},
    }
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
            [None, {"x0": [0.5, 0.5], "sweep": "time"}, {"sweep": "space"}]
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
