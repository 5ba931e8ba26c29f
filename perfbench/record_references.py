"""Record the study reference values that checks.py compares against.

    PYTHONPATH=src python3 perfbench/record_references.py

Run from the root of a checkout whose results are trusted; it rewrites
perfbench/references.json with the errors.csv rows (param, error, eoc)
and the full-precision slope of every study workload. The studies use
noise-free data, so the CLI seed does not change them.
"""

import json
import os
import sys
from importlib import resources

import sparseheat

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import HERE, WORKLOADS  # noqa: E402

DRIVERS = {
    "study-time": sparseheat.study_time,
    "study-space": sparseheat.study_space,
    "study-smoothing": sparseheat.study_smoothing,
}


def main():
    references = {}
    for name, (command, config) in WORKLOADS.items():
        if command not in DRIVERS:
            continue
        cfg = sparseheat.load_config(str(resources.files("sparseheat").joinpath("configs", config)))
        result = DRIVERS[command](cfg)
        table = result[0] if isinstance(result, tuple) else result
        references[name] = {
            "config": config,
            "rows": [[r.param, r.error, r.eoc] for r in table.rows],
            "slope": table.slope,
        }
        print(f"{name}: slope={table.slope!r} rows={len(table.rows)}")
    with open(os.path.join(HERE, "references.json"), "w") as f:
        json.dump(references, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
