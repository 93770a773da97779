"""hybridforge benchmark: one workload per process, closed loop, one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer wrapped from outside (see tracer.py) and prints the
per-layer metrics plus the tracing overhead. Human-readable lines (every
metric with its unit and sample count, and the machine's provenance) come
first; the last line of stdout is one JSON object. Full results, and the
spans of a traced run, are written under ``.perfbench_work/`` in the checkout.

Metric names and units come from ``BENCHMARK.json`` at the checkout's root;
a run fails if it measures another set of names.

Exit status: 0 on success, 1 if a correctness check failed or anything
raised after the package was imported (the JSON line then says
``"correct": false``), 2 if the package cannot be imported from ``src/`` of
the checkout (no JSON line).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

# One BLAS thread, as the ROADMAP pins it; set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Run in a fresh interpreter to time the imports a workload makes.
IMPORT_CODE = ("from time import perf_counter as clock; t0 = clock(); "
               "from hybridforge import attention, cli, compose, harness, numkernel, smart; "
               "print(clock() - t0)")


def seed_type(text: str) -> int:
    """Seeds reach numpy generators and every stage's --seed, which take u64."""
    seed = int(text)
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("pipeline", "decode_long", "serve_short"))
    p.add_argument("--seed", type=seed_type, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import hybridforge from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "hybridforge")):
        raise ImportError(f"no hybridforge package under {SRC}")
    sys.path.insert(0, SRC)
    import hybridforge
    if not os.path.abspath(hybridforge.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hybridforge resolved to {hybridforge.__file__}, not {SRC}")


def metric_units() -> dict:
    """Unit of every metric, keyed by trace level, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {level: {m["name"]: m["unit"] for m in spec[key]}
            for level, key in ((0, "end_to_end"), (1, "per_layer"))}


def named(values: dict, units: dict) -> dict:
    """Attach units to ``{name: (value, n)}``; the names must be exactly ``units``."""
    if set(values) != set(units):
        raise AssertionError(f"measured {sorted(set(values) ^ set(units))} "
                             "unlike BENCHMARK.json")
    return {name: {"value": float(values[name][0]), "unit": unit, "n": values[name][1]}
            for name, unit in units.items()}


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, bytecode already cached."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def provenance() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct: bool, work, metrics: dict, report: dict, prov: dict, path: str) -> None:
    for name, m in {**metrics, **report}.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:<10s} n={m['n']}")
    print(f"  provenance: {json.dumps(prov)}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"correct": correct, "attempted": work.attempted, "failed": work.failed,
                   "metrics": metrics, "report": report, "provenance": prov}, fh, indent=2)
    print(json.dumps({
        "correct": correct,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import hybridforge from this checkout: {exc}", file=sys.stderr)
        return 2
    import tracer as tr
    import workloads as wl

    units = metric_units()[args.trace]
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    clock = tr.StepClock()
    clock.install()
    work = wl.WORKLOADS[args.workload](args.seed, WORK, clock)
    prov = provenance()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    try:
        if args.trace:
            values, report = traced(work, args.seconds, tr, stem)
        else:
            values, report = untraced(work, args.seconds)
        metrics = named(values, units)
    except Exception:  # a failed check, or an operation that raised
        traceback.print_exc()
        emit(False, work, {}, {}, prov, stem + ".json")
        return 1
    emit(True, work, metrics, report, prov, stem + ".json")
    return 0


def untraced(work, seconds: float):
    """End-to-end metrics as ``{name: (value, n)}``, plus the report-only ones.

    One set-up is a fresh interpreter's import of the package plus one
    ``work.setup()``. The first comes before the timed units; the rest are
    spread between them in proportion to the time measured, so that they meet
    the same states of the machine as the units do. Set-ups are not timed as
    units, and units are timed until their sum reaches ``seconds``.
    """
    setups = []

    def set_up():
        t_import = import_seconds()
        t0 = perf_counter()
        work.setup()
        setups.append(t_import + perf_counter() - t0)

    set_up()
    work.check()
    measured = last = 0.0
    while measured + last <= seconds:
        t0 = perf_counter()
        work.unit()
        last = perf_counter() - t0
        measured += last
        while len(setups) < 1 + (work.setup_reps - 1) * min(measured / seconds, 1.0):
            set_up()
    while len(setups) < work.setup_reps:
        set_up()
    values, report = work.metrics()
    values["setup_s"] = (statistics.median(setups), len(setups))
    values["peak_rss_mb"] = (peak_rss_mb(), 1)
    return values, report


def traced(work, seconds: float, tr, stem: str):
    """Per-layer metrics as ``{name: (value, n)}``.

    Units alternate: one untraced, then the same unit traced. The pairs give
    ``trace.overhead_pct``. The layer figures that the benchmark's own loop
    times (stage walls, optimizer steps) come from the untraced units, which
    the tracer's overhead does not inflate.
    """
    tracer = tr.Tracer()
    if work.trace_setup:
        tracer.install()
        tracer.rid = "setup"
    work.setup()
    tracer.uninstall()
    work.check()

    plain, traced_walls = [], []
    deadline = perf_counter() + seconds
    last_pair = 0.0
    while perf_counter() + last_pair <= deadline:
        t0 = perf_counter()
        work.unit(None)
        plain.append(perf_counter() - t0)
        kept = work.samples
        work.reset_samples()
        tracer.install()
        t1 = perf_counter()
        try:
            work.unit(tracer, repeat=True)
        finally:
            tracer.uninstall()
        traced_walls.append(perf_counter() - t1)
        work.samples = kept
        last_pair = perf_counter() - t0
    tracer.write(stem + ".spans.jsonl")

    values = {name: (v, 1) for name, v in {**tracer.metrics(), **work.layer_metrics()}.items()}
    values["trace.overhead_pct"] = (100.0 * (sum(traced_walls) / sum(plain) - 1.0), len(plain))
    return values, {}


if __name__ == "__main__":
    sys.exit(main())
