"""The benchmark's tracer still finds every name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracing_install_finds_every_hook():
    entries = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(e for e in entries if e)
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Recorder())"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
