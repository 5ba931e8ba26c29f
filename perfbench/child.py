"""One sparseheat CLI call in a fresh interpreter, timed from inside.

    python3 perfbench/child.py RESULT MODE CONFIG [CLI ARGS...]

MODE is `setup` (import and config load only), `plain` or `trace`.
setup_s is the time to import sparseheat and to resolve and load the
bundled CONFIG; wall_s is the time of `sparseheat.cli.main(CLI ARGS)`,
artifact writing included, minus the host-speed probe samples taken
during the call (probe.py); probe_s holds all samples. In `trace` mode
the program's layer boundaries are wrapped first (see tracing.py) and
the spans are written with the result. The result is one JSON object
written to RESULT; an exception from the program propagates, so no
result is written.
"""

import json
import resource
import sys
import time
from importlib import resources

from probe import SETUP_SAMPLES, Probe


def main():
    result_path, mode, config = sys.argv[1:4]
    argv = sys.argv[4:]

    t0 = time.perf_counter()
    import sparseheat
    from sparseheat import cli

    sparseheat.load_config(str(resources.files("sparseheat").joinpath("configs", config)))
    record = {"setup_s": time.perf_counter() - t0, "module": sparseheat.__file__}
    probe = Probe()
    for _ in range(SETUP_SAMPLES):
        probe.sample()

    if mode != "setup":
        run = cli.main
        if mode == "trace":
            import tracing

            recorder = tracing.Recorder()
            tracing.install(recorder)
            run = recorder.wrap("cli.main", cli.main)
        record["returncode"], record["wall_s"] = probe.time_call(run, argv)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if mode == "trace":
            record["spans"] = recorder.spans
            record["span_cost_s"] = tracing.span_cost()
    record["probe_s"] = probe.samples
    with open(result_path, "w") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main()
