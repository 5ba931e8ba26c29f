"""Output checks for one benchmark run of the sparseheat CLI.

Each check takes the exit code, the captured standard output and the
output directory of one `sparseheat` call and returns a list of problems;
an empty list means the run passed. Study outputs are compared against
reference values recorded from a trusted commit (`references.json`,
written by `record_references.py`), never against the acceptance-test
rate windows.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

# Relative tolerance for errors.csv entries against the recorded references.
# Refactorings may move rounding, never the digits a study reports.
RTOL = 1e-6
# The CLI prints the slope to 4 significant digits, so the printed value
# may differ from the reference by up to half a unit in its last digit.
SLOPE_RTOL = 5e-4 + RTOL
# Radius within which a lumped atom counts as matching a true source; the
# program uses the same value when it reports matches.
MATCH_RADIUS = 0.15

RECONSTRUCT_ARTIFACTS = ("measure.json", "measure_lumped.json", "log.csv", "field.csv")
_RECONSTRUCT_LINE = re.compile(
    r"^reconstruct: support=(\d+) lumped=(\d+) objective=(\S+) phi=(\S+) "
    r"adjoint_max=(\S+) out=.*$"
)
_STUDY_LINE = re.compile(r"^(study-\w+): slope=(\S+) levels=(\d+) out=.*$")


def _summary(stdout, pattern):
    for line in reversed(stdout.splitlines()):
        match = pattern.match(line.strip())
        if match:
            return match
    return None


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


def check_reconstruct(returncode, stdout, outdir, config):
    """Exit 0, a parsable summary, all artifacts, a converged gap
    certificate in log.csv and one lumped atom per true source, each
    within MATCH_RADIUS and of the same sign."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    summary = _summary(stdout, _RECONSTRUCT_LINE)
    if summary is None:
        problems.append("summary line missing or unparsable")
    for name in RECONSTRUCT_ARTIFACTS:
        path = os.path.join(outdir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"missing artifact {name}")
    if problems:
        return problems

    with open(os.path.join(outdir, "log.csv")) as f:
        rows = list(csv.DictReader(f))
    if not rows:
        return ["log.csv has no iterations"]
    # Row 0 holds j(q0); the relative stopping test is phi < tol * j(q0)/alpha.
    alpha = float(config["alpha"])
    threshold = float(config["pdap"]["tol"]) * float(rows[0]["objective"]) / alpha
    last = rows[-1]
    if int(last["new_node"]) != -1 or not float(last["phi"]) < threshold:
        problems.append(f"gap certificate not converged: phi={last['phi']}")

    with open(os.path.join(outdir, "measure_lumped.json")) as f:
        lumped = json.load(f)
    truth = config["truth"]
    if int(summary.group(2)) != len(lumped):
        problems.append("summary lumped count disagrees with measure_lumped.json")
    if len(lumped) != len(truth):
        problems.append(f"{len(lumped)} lumped atoms for {len(truth)} sources")
    for atom in truth:
        near = [
            a
            for a in lumped
            if math.dist(a["x"], atom["x"]) <= MATCH_RADIUS
            and (a["beta"] > 0) == (atom["beta"] > 0)
        ]
        if len(near) != 1:
            problems.append(f"source at {atom['x']} matched by {len(near)} atoms")
    return problems


def read_errors_csv(path):
    """Rows of errors.csv as (param, error, eoc or None) float tuples."""
    with open(path) as f:
        return [
            (
                float(r["param"]),
                float(r["error"]),
                float(r["eoc"]) if r["eoc"] else None,
            )
            for r in csv.DictReader(f)
        ]


def check_study(returncode, stdout, outdir, reference):
    """Exit 0, a parsable summary, and errors.csv rows and the printed
    slope equal to the recorded reference within RTOL and SLOPE_RTOL."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    summary = _summary(stdout, _STUDY_LINE)
    if summary is None:
        return ["summary line missing or unparsable"]
    path = os.path.join(outdir, "errors.csv")
    if not os.path.isfile(path):
        return ["missing artifact errors.csv"]
    problems = []
    rows = read_errors_csv(path)
    expected = reference["rows"]
    if len(rows) != len(expected) or int(summary.group(3)) != len(expected):
        return [f"{len(rows)} error rows, expected {len(expected)}"]
    for i, (got, want) in enumerate(zip(rows, expected)):
        for label, g, w in zip(("param", "error", "eoc"), got, want):
            if (g is None) != (w is None) or (w is not None and not _close(g, w, RTOL)):
                problems.append(f"row {i} {label}: {g} != reference {w}")
    slope = float(summary.group(2))
    if not _close(slope, reference["slope"], SLOPE_RTOL):
        problems.append(f"slope {slope} != reference {reference['slope']}")
    return problems
