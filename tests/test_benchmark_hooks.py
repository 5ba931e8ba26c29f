"""The benchmark's tracer still finds every name it wraps and counts
propagations, iterations and written bytes the way the program makes
them; the documented config keys match the ones the loader accepts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from sparseheat import cli, experiments

ROOT = Path(__file__).resolve().parents[1]

ADJOINT_SPANS = """
import json
import numpy as np
import tracing
from sparseheat import build_uniform
from sparseheat.timestepping import HeatModel, TimeGrid, adjoint_dirac

recorder = tracing.Recorder()
tracing.install(recorder)
model = HeatModel(build_uniform(4), TimeGrid(0.1, 4), 1)
adjoint_dirac(model, np.ones(model.mesh.num_nodes))
metrics = tracing.layer_metrics(recorder.spans)
print(json.dumps({
    "names": [span[tracing.NAME] for span in recorder.spans],
    "forward_calls": metrics["timestepping.forward_calls"][0],
    "adjoint_calls": metrics["timestepping.adjoint_calls"][0],
}))
"""

# A small reconstruct through the CLI under the tracer; argv[1] is the
# config file and argv[2] the output directory. A wrapper around the
# traced `pdap.run` records each level's seed count and log column
# `inserted`, coarse level first.
RECONSTRUCT_COUNTERS = """
import json
import sys
import tracing
from sparseheat import cli, pdap

recorder = tracing.Recorder()
tracing.install(recorder)
runs, traced_run = [], pdap.run

def run(model, u_d, config, seed_nodes=()):
    result = traced_run(model, u_d, config, seed_nodes)
    runs.append({"seeds": len(seed_nodes), "inserted": [r.inserted for r in result.log]})
    return result

pdap.run = run
code = cli.main(["reconstruct", "--config", sys.argv[1], "--out", sys.argv[2]])
metrics = tracing.layer_metrics(recorder.spans)
counters = {name: metrics[name][0] for name in tracing.EXACT_COUNTERS}
print(json.dumps({"code": code, "runs": runs, **counters}))
"""

TINY_RECONSTRUCT = {
    "T": 0.1,
    "truth": [{"x": [0.3, 0.4], "beta": 5.0}, {"x": [0.7, 0.6], "beta": -3.0}],
    "mesh_n": experiments.TWO_LEVEL_MIN_N,
    "time_steps": 8,
    "alpha": 0.001,
    "noise_level": 0.05,
    "seed": 3,
}


def run_traced(code, *args):
    entries = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(e for e in entries if e)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tracing_install_finds_every_hook():
    result = run_traced("import tracing; tracing.install(tracing.Recorder())")
    assert result.returncode == 0, result.stderr[-2000:]


def test_traced_adjoint_records_no_forward_span():
    # The tracer patches propagate_load and propagate_adjoint separately;
    # an adjoint that went through propagate_load would count as a
    # forward propagation too.
    result = run_traced(ADJOINT_SPANS)
    assert result.returncode == 0, result.stderr[-2000:]
    out = json.loads(result.stdout)
    assert out["names"].count("timestepping.propagate_adjoint") == 1
    assert "timestepping.propagate_load" not in out["names"]
    assert (out["forward_calls"], out["adjoint_calls"]) == (0, 1)


def test_traced_reconstruct_counters_match_artifacts(tmp_path):
    # The counters the benchmark gates, read against what the run wrote:
    # every artifact is counted once by the traced writers. reconstruct
    # solves the n/2 lattice first and seeds the n level, and the
    # counters sum both levels while log.csv holds the n level only: row
    # 0 is the empty measure the seed solve starts from, and each later
    # row is one outer iteration. Per level, each outer iteration has one
    # adjoint propagation, and forward propagations are one seed batch
    # (if any) plus one batch per iteration that inserted beyond the
    # seeds; the observation adds one forward propagation, and each level
    # factors one slab matrix.
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_RECONSTRUCT))
    out = tmp_path / "out"
    result = run_traced(RECONSTRUCT_COUNTERS, str(config), str(out))
    assert result.returncode == 0, result.stderr[-2000:]
    counters = json.loads(result.stdout.splitlines()[-1])
    assert counters["code"] == 0
    artifacts = ["field.csv", "log.csv", "measure.json", "measure_lumped.json"]
    assert sorted(p.name for p in out.iterdir()) == artifacts
    assert counters["experiments.io_bytes"] == sum(
        (out / name).stat().st_size for name in artifacts
    )
    start, *rows = [
        line.split(",") for line in (out / "log.csv").read_text().splitlines()[1:]
    ]
    assert start[0] == "0" and start[-1] == "0"
    coarse, fine = counters["runs"]
    assert coarse["seeds"] == 0 and fine["seeds"] > 0
    assert fine["inserted"] == [int(row[-1]) for row in rows]

    def batches(level):
        beyond_seeds = [level["inserted"][0] - level["seeds"], *level["inserted"][1:]]
        return (level["seeds"] > 0) + sum(k > 0 for k in beyond_seeds)

    assert len(coarse["inserted"]) >= 3 and batches(coarse) >= 2
    outer = len(coarse["inserted"]) + len(rows)
    assert counters["pdap.outer_iterations"] == outer
    assert counters["timestepping.adjoint_calls"] == outer
    assert counters["timestepping.forward_calls"] == 1 + batches(coarse) + batches(fine)
    assert counters["timestepping.factor_calls"] == 2


def test_documented_pdap_keys_match_loader():
    epilog = re.search(r"pdap\{([^}]*)\}", cli._build_parser().epilog).group(1)
    assert {key.strip() for key in epilog.split(",")} == experiments._PDAP_KEYS
    doc = (ROOT / "docs" / "config.md").read_text()
    section = doc.split("## `pdap` block", 1)[1].split("\n## ", 1)[0]
    table = set(re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE))
    assert table == experiments._PDAP_KEYS
