"""Compare the bundled configs' runs of two source trees.

Usage: python tools/compare_runs.py PARENT CHANGE [CONFIG ...]

PARENT and CHANGE are checkouts of this repository. Each CONFIG (default:
every bundled config) runs as `python -m sparseheat <command> --config
CONFIG --out <temporary directory> --seed 7 -v` once per tree, with that
tree's `src` on PYTHONPATH, no bytecode written and a temporary working
directory, so neither tree is written to. The artifacts are compared
byte for byte, standard output with the output directory replaced by
`<out>`, standard error with every `ms=<number>` masked, and the exit
codes as they are. Prints one line per difference; exits 1 on any
difference, else 0.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile

# The subcommand of each bundled config.
COMMANDS = {
    "paper_10_1.json": "reconstruct",
    "paper_fig4.json": "study-space",
    "paper_fig5_dg0.json": "study-time",
    "paper_fig5_dg1.json": "study-time",
    "smoothing_space.json": "study-smoothing",
    "smoothing_time_dg0.json": "study-smoothing",
    "smoothing_time_dg1.json": "study-smoothing",
}
_MS = re.compile(r"ms=[0-9.eE+-]+")


def run(tree, config, workdir):
    """Run `config` on `tree`'s source in `workdir`.

    Returns the exit code, standard output with the output directory
    replaced by `<out>`, standard error with `ms=` values masked, and the
    output directory.
    """
    out = os.path.join(workdir, "out")
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    argv = [COMMANDS[config], "--config", config, "--out", out, "--seed", "7", "-v"]
    proc = subprocess.run(
        [sys.executable, "-m", "sparseheat", *argv],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout.replace(out, "<out>"), _MS.sub("ms=<ms>", proc.stderr), out


def compare_dirs(a, b):
    """One line per file that is in only one of two directories or differs."""
    names_a = set(os.listdir(a)) if os.path.isdir(a) else set()
    names_b = set(os.listdir(b)) if os.path.isdir(b) else set()
    lines = [f"only in parent: {name}" for name in sorted(names_a - names_b)]
    lines += [f"only in change: {name}" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                lines.append(f"differs: {name}")
    return lines


def compare(parent, change, config):
    """One line per difference between the two trees' runs of `config`."""
    with tempfile.TemporaryDirectory() as wa, tempfile.TemporaryDirectory() as wb:
        code_a, out_a, err_a, dir_a = run(parent, config, wa)
        code_b, out_b, err_b, dir_b = run(change, config, wb)
        lines = [f"exit code {code_a} != {code_b}"] if code_a != code_b else []
        lines += ["stdout differs"] if out_a != out_b else []
        lines += ["stderr differs"] if err_a != err_b else []
        lines += compare_dirs(dir_a, dir_b)
    return [f"{config}: {line}" for line in lines]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change, *configs = argv
    unknown = sorted(set(configs) - COMMANDS.keys())
    if unknown:
        print(f"not a bundled config: {', '.join(unknown)}", file=sys.stderr)
        return 2
    differences = []
    for config in configs or COMMANDS:
        differences += compare(parent, change, config)
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
