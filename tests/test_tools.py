import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_runs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_runs_finds_no_difference_between_a_tree_and_itself():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "paper_fig5_dg1.json"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "")


def test_compare_runs_reports_a_file_that_differs_in_one_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "same.csv").write_bytes(b"param,error\n1,2\n")
    (a / "errors.csv").write_bytes(b"param,error\n1,2\n")
    (b / "errors.csv").write_bytes(b"param,error\n1,3\n")
    assert load_tool().compare_dirs(str(a), str(b)) == ["differs: errors.csv"]
