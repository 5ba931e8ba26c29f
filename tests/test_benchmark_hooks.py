"""The benchmark's tracer still finds every name it wraps and counts
propagations the way the program makes them; the documented config keys
match the ones the loader accepts."""

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
from sparseheat import NodalField, build_uniform
from sparseheat.timestepping import HeatModel, TimeGrid, adjoint_dirac

recorder = tracing.Recorder()
tracing.install(recorder)
model = HeatModel(build_uniform(4), TimeGrid(0.1, 4), 1)
adjoint_dirac(model, NodalField(model.mesh, np.ones(model.mesh.num_nodes)))
metrics = tracing.layer_metrics(recorder.spans)
print(json.dumps({
    "names": [span[tracing.NAME] for span in recorder.spans],
    "forward_calls": metrics["timestepping.forward_calls"][0],
    "adjoint_calls": metrics["timestepping.adjoint_calls"][0],
}))
"""


def run_traced(code):
    entries = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(e for e in entries if e)
    return subprocess.run(
        [sys.executable, "-c", code],
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


def test_documented_pdap_keys_match_loader():
    epilog = re.search(r"pdap\{([^}]*)\}", cli._build_parser().epilog).group(1)
    assert {key.strip() for key in epilog.split(",")} == experiments._PDAP_KEYS
    doc = (ROOT / "docs" / "config.md").read_text()
    section = doc.split("## `pdap` block", 1)[1].split("\n## ", 1)[0]
    table = set(re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE))
    assert table == experiments._PDAP_KEYS
