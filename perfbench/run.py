"""Benchmark of the sparseheat CLI on four bundled configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sparseheat checkout; the program is imported from
its `src/` directory. The load is a closed loop with one client: one CLI
call at a time, each in a fresh interpreter (users pay import and config
set-up on every call, so nothing is warmed up), `--threads` left at 1.
Calls repeat while another one fits into S seconds, and at least
MIN_CALLS run.

--trace 0 reports the end-to-end metrics: wall_s (the `cli.main` call,
artifact writing included), setup_s (import plus config load, at least
MIN_SETUP_SAMPLES fresh interpreters) and peak_rss_mb (the child's
ru_maxrss), each as the median over the run's calls. wall_s and setup_s
are scaled to the reference host speed by the probe timed next to each
call (probe.py); the raw medians are printed too.

--trace 1 alternates plain and traced calls on one seed, at least two of
each, and reports the per-layer metrics of the traced calls (median over
calls), the exact work counters, which must repeat between the traced
calls, and the tracing overhead: median traced wall_s minus median plain
wall_s, next to an estimate from the number of spans.

Every call's outputs are checked (checks.py). A call fails on a non-zero
exit, a raised exception or a failed check; failures count in `failed`
and are never dropped. The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402

# name: (CLI subcommand, bundled config). Why each is here is in README.md.
WORKLOADS = {
    "reconstruct": ("reconstruct", "paper_10_1.json"),
    "study-time-dg1": ("study-time", "paper_fig5_dg1.json"),
    "study-space": ("study-space", "paper_fig4.json"),
    "smoothing-space": ("study-smoothing", "smoothing_space.json"),
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# The subset of tracing.layer_metrics reported in the JSON line: counters,
# plus times that are non-zero on every workload. The rest are printed.
PER_LAYER = (
    "mesh.build_s",
    "mesh.locate_calls",
    "mesh.locate_s",
    "fem.assemble_s",
    "timestepping.factor_calls",
    "timestepping.factor_s",
    "timestepping.lu_nnz",
    "timestepping.forward_calls",
    "timestepping.forward_s",
    "timestepping.adjoint_calls",
    "timestepping.step_ms",
    "pdap.outer_iterations",
    "pdap.subproblem_calls",
    "pdap.subproblem_iters",
    "experiments.io_s",
    "experiments.io_bytes",
    "experiments.forward_dirac_extra",
    "cli.config_s",
    "trace.overhead_s",
)
MIN_CALLS = 2
MIN_SETUP_SAMPLES = 5
# A run must end within 180 s; calls still running at this limit are killed.
RUN_LIMIT_S = 170
# Seeds of successive plain calls: the noise draw of `reconstruct` changes
# the work done, so one run covers several draws.
SEED_STRIDE = 1000


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def quartiles(values):
    """(q1, median, q3); statistics.quantiles needs two values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _lscpu():
    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=False
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment():
    """Lines describing the machine and software a result was measured on."""
    import platform

    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cpu = _lscpu()
    caches = " ".join(
        f"{k}={cpu[k]}" for k in ("L1d cache", "L1i cache", "L2 cache", "L3 cache") if k in cpu
    )

    def blas(module):
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    threads = " ".join(
        f"{k}={os.environ.get(k, 'unset')}"
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    return [
        f"machine: nproc={len(os.sched_getaffinity(0))} cpu={model!r} {caches}",
        f"software: python {platform.python_version()} numpy {numpy.__version__} "
        f"(blas {blas(numpy)}) scipy {scipy.__version__} (blas {blas(scipy)})",
        f"blas threads: {threads}",
        f"commit: {_commit()}",
    ]


class Runner:
    """Runs CLI calls of one workload in child interpreters and checks them."""

    def __init__(self, workload, workdir, deadline):
        self.command, self.config = WORKLOADS[workload]
        self.deadline = deadline
        self.workload = workload
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        with open(os.path.join(src, "sparseheat", "configs", self.config)) as f:
            self.config_data = json.load(f)
        if workload != "reconstruct":
            with open(os.path.join(HERE, "references.json")) as f:
                self.reference = json.load(f)[workload]
        # Calls run one at a time, so one result file and one output
        # directory serve them all.
        self.outdir = os.path.join(workdir, "out")

    def _child(self, mode, argv):
        result_path = os.path.join(self.workdir, "result.json")
        if os.path.exists(result_path):  # left by a call killed while writing
            os.remove(result_path)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), result_path, mode, self.config, *argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(self.deadline - time.perf_counter(), 0.1), check=False,
        )
        record = None
        if os.path.isfile(result_path):
            with open(result_path) as f:
                record = json.load(f)
            os.remove(result_path)
            expected = os.path.join(ROOT, "src", "sparseheat")
            if os.path.dirname(os.path.abspath(record["module"])) != expected:
                raise BenchError(f"sparseheat imported from {record['module']}, not {expected}")
        return proc, record

    def setup_sample(self):
        try:
            proc, record = self._child("setup", [])
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up ran past the {RUN_LIMIT_S} s run limit") from None
        if proc.returncode != 0 or record is None:
            raise BenchError(f"cannot import sparseheat:\n{proc.stderr.strip()}")
        return record

    def call(self, seed, mode):
        """One CLI call; returns (record or None, list of problems)."""
        argv = [self.command, "--config", self.config, "--out", self.outdir, "--seed", str(seed)]
        try:
            proc, record = self._child(mode, argv)
        except subprocess.TimeoutExpired:
            shutil.rmtree(self.outdir, ignore_errors=True)
            return None, [f"killed at the {RUN_LIMIT_S} s run limit"]
        if record is None:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
            problems = [f"exit code {proc.returncode}: {tail[0]}"]
        elif self.workload == "reconstruct":
            problems = checks.check_reconstruct(
                record["returncode"], proc.stdout, self.outdir, self.config_data
            )
        else:
            problems = checks.check_study(
                record["returncode"], proc.stdout, self.outdir, self.reference
            )
        shutil.rmtree(self.outdir, ignore_errors=True)
        return record, problems


class Clock:
    """Time box of one run: another call starts only if a call of the
    median duration so far still ends within the run's seconds."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.durations = []

    def __enter__(self):
        self._t = time.perf_counter()

    def __exit__(self, *exc):
        self.durations.append(time.perf_counter() - self._t)

    def another_fits(self):
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.durations or [0.0]) <= self.seconds


def summarize(name, unit, values):
    q1, med, q3 = quartiles(values)
    return f"{name:<34} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def scaled(record, key):
    """record[key] in seconds at the reference host speed (see probe.py)."""
    return record[key] * probe.scale(record["probe_s"], setup=key == "setup_s")


def run_plain(runner, seed, seconds):
    """Timed calls with tracing off; returns (attempted, failed, metrics)."""
    samples = {name: [] for name, _ in END_TO_END}
    raw = {"wall_s": [], "setup_s": []}
    attempted = failed = 0
    clock = Clock(seconds)
    while attempted < MIN_CALLS or clock.another_fits():
        call_seed = seed * SEED_STRIDE + attempted
        with clock:
            record, problems = runner.call(call_seed, "plain")
        attempted += 1
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        if problems:
            failed += 1
        if record is None:
            print(f"call {attempted} seed={call_seed} {status}")
            continue
        # A completed call is timed even when its outputs fail the checks;
        # the failure still counts in `failed` and clears `correct`.
        for name in raw:
            samples[name].append(scaled(record, name))
            raw[name].append(record[name])
        samples["peak_rss_mb"].append(record["peak_rss_mb"])
        print(
            f"call {attempted} seed={call_seed} wall_s={scaled(record, 'wall_s'):.4f} "
            f"(raw {record['wall_s']:.4f}) setup_s={scaled(record, 'setup_s'):.4f} "
            f"(raw {record['setup_s']:.4f}) peak_rss_mb={record['peak_rss_mb']:.1f} {status}"
        )
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        record = runner.setup_sample()
        samples["setup_s"].append(scaled(record, "setup_s"))
        raw["setup_s"].append(record["setup_s"])
    if not samples["wall_s"]:
        raise BenchError("no call completed; nothing to report")
    print()
    for name, unit in END_TO_END:
        print(summarize(name, unit, samples[name]))
    for name, values in raw.items():
        print(summarize(f"{name} (raw, unscaled)", "s", values))
    print(f"{'fail_frac':<34} {failed}/{attempted} = {failed / attempted:.3g}")
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END
    }
    return attempted, failed, metrics


def run_traced(runner, seed, seconds):
    """Alternating plain and traced calls on one seed; returns
    (attempted, failed, metrics) with the per-layer metrics."""
    call_seed = seed * SEED_STRIDE
    plain_walls, traced_walls, layers, wrapper_s = [], [], [], []
    attempted = failed = 0
    modes = ["plain", "trace", "trace", "plain"]
    clock = Clock(seconds)
    while modes or clock.another_fits():
        mode = modes.pop(0) if modes else ("trace" if attempted % 2 == 0 else "plain")
        with clock:
            record, problems = runner.call(call_seed, mode)
        attempted += 1
        if not problems and mode == "trace":
            layer = tracing.layer_metrics(record["spans"])
            if layers:
                drift = [
                    k for k in tracing.EXACT_COUNTERS if layer[k][0] != layers[0][k][0]
                ]
                if drift:
                    problems = [f"counters did not repeat: {', '.join(drift)}"]
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        wall = scaled(record, "wall_s") if record else float("nan")
        print(f"call {attempted} {mode} seed={call_seed} scaled wall_s={wall:.4f} {status}")
        if problems:
            failed += 1
        elif mode == "trace":
            traced_walls.append(wall)
            layers.append(layer)
            wrapper_s.append(record["span_cost_s"] * len(record["spans"]))
        else:
            plain_walls.append(wall)
    if not layers or not plain_walls:
        raise BenchError("no successful traced and plain call pair; nothing to report")

    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    print()
    print(f"work counters (workload={runner.workload}, seed={call_seed}, "
          f"identical over {len(layers)} traced calls):")
    values = {"trace.overhead_s": (overhead, "s")}
    for name, (value, unit) in layers[0].items():
        if unit in ("count", "B"):
            print(f"  {name:<34} {value}")
            values[name] = (value, unit)
    print("per-layer times (median over traced calls):")
    for name, (value, unit) in layers[0].items():
        if name in values:
            continue
        if value is None:
            print(f"  {name:<34} n/a (no PDAP solve)")
            continue
        samples = [layer[name][0] for layer in layers]
        print("  " + summarize(name, unit, samples))
        values[name] = (statistics.median(samples), unit)
    print(f"tracing overhead (scaled): traced wall_s {statistics.median(traced_walls):.4f} s "
          f"- plain wall_s {statistics.median(plain_walls):.4f} s = {overhead:.4f} s "
          f"(n={len(traced_walls)} traced, {len(plain_walls)} plain); "
          f"wrapper cost estimate (spans x cost of one wrapped call, raw) "
          f"{statistics.median(wrapper_s):.4f} s")
    metrics = {
        name: {"value": values[name][0], "unit": values[name][1]} for name in PER_LAYER
    }
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "sparseheat", "cli.py")):
        print(f"error: no sparseheat source under {ROOT}/src", file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in environment():
        print(line)

    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, workdir, deadline)
        run = run_traced if args.trace else run_plain
        attempted, failed, metrics = run(runner, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
