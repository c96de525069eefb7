#!/usr/bin/env python3
"""Layer-by-layer benchmark of the corrlog CLI.

One workload per process:

    python3 benchmarks/run.py --workload cv_scene --seed 1 --seconds 40 --trace 0

generates the workload's inputs from the seed under ``.bench_work/``, sets up
three times (generation, file writes and a small warm-up call; the median is
``setup_s``), then runs cycles of in-process ``corrlog.cli.main`` calls until
``--seconds`` have passed, checking every output after each cycle.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
* ``--trace 1`` alternates untraced and traced cycles and reports the
  per-layer metrics: self time per layer from the traced cycles, the
  workload's CLI timings from the untraced ones, and the tracing overhead
  (median traced cycle minus median untraced cycle).

``--workload all`` runs every workload untraced and then traced, each in its
own process, prints every metric by name with its unit, compares the output
fingerprints of the two runs, and with ``--out`` writes the lot as JSON.

Claims are developed on seed 1 and confirmed on the held-out seed 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
MIN_CYCLES = 2
WORKLOAD_NAMES = ("train_wide", "cv_scene", "score_sparse")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# CLI timings a workload reports when its cycle makes that call, with units
CLI_TIMINGS = {"train_s": "s", "cv_s": "s", "predict_rows_per_s": "rows/s"}
QUALITY = {
    "train_objective": ("optimizer", "nats"),
    "train_residual": ("optimizer", "1"),
    "map_agreement": ("inference", "ratio"),
    "map_score_gap": ("inference", "nats"),
    "exact_map_hamming_loss": ("inference", "ratio"),
    "hamming_loss": ("evaluation", "ratio"),
    "zero_one_loss": ("evaluation", "ratio"),
}


def machine_note() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import corrlog.cli
    import_s = perf_counter() - start
    if Path(corrlog.__file__).resolve().parent != ROOT / "src" / "corrlog":
        print(f"error: imported corrlog from {corrlog.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from spans import CycleSpans, Tracer, median_metrics
    from workloads import WORKLOADS, Ops

    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](work)
    ops = Ops()
    note = machine_note()
    print("machine " + json.dumps(note, sort_keys=True))

    setups = []
    for _ in range(SETUP_REPS):
        before = ops.reference.measure()
        t = perf_counter()
        workload.generate(seed)
        workload.warm_up(ops)
        setups.append(ops.reference.steady(perf_counter() - t, before))
    print(f"workload {name} seed={seed} {workload.shape}")

    tracer = Tracer() if trace else None
    untraced, traced, traced_spans, exact = [], [], [], []
    reference = None
    deadline = perf_counter() + seconds
    while True:
        cycle_start = perf_counter()
        tracing = trace and len(traced) < len(untraced)
        if tracing:
            first = len(tracer.spans)
            tracer.install()
        try:
            result = workload.cycle(ops)
        finally:
            if tracing:
                tracer.uninstall()
        if result is not None:
            times, prints, quality = result
            (traced if tracing else untraced).append(times)
            if tracing:
                traced_spans.append(CycleSpans(tracer.spans, first))
                exact.append(workload.exact_us_per_row())
            if reference is None:
                reference = (prints, quality)
            else:
                ops.check("outputs repeat", _same_outputs, reference, (prints, quality))
        now = perf_counter()
        enough = len(untraced) >= MIN_CYCLES and (not trace or len(traced) >= MIN_CYCLES)
        if enough and now + (now - cycle_start) > deadline:
            break
        if result is None and now > deadline:
            break  # a failing cycle is not retried past the budget
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    prints, quality = reference or ({}, {})
    cli_times = {k: statistics.median(c[k] for c in untraced)
                 for k in CLI_TIMINGS if untraced and k in untraced[0]}
    summary = {
        "workload": name, "seed": seed, "shape": workload.shape, "machine": note,
        "cycles": {"untraced": [c["job_s"] for c in untraced],
                   "traced": [c["job_s"] for c in traced]},
        "job_wall_s": statistics.median(c["job_wall_s"] for c in untraced) if untraced else 0.0,
        "reference_s": statistics.median(ops.reference.times),
        "setup_s": import_s + statistics.median(setups), "import_s": import_s,
        "setups": setups, "cli": cli_times,
        "quality": quality, "fingerprints": prints,
        "attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors[:20],
    }
    for message in ops.errors[:20]:
        print(f"failure {message}", file=sys.stderr)

    if trace:
        metrics, absent = {}, []
        if traced_spans:
            metrics, absent = median_metrics(traced_spans, tracer.missing)
            metrics["inference.exact_us_per_row"] = {"value": statistics.median(exact),
                                                     "unit": "us"}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(c["job_s"] for c in traced)
                - statistics.median(c["job_s"] for c in untraced), "unit": "s"}
            for key, unit in CLI_TIMINGS.items():
                metrics[f"cli.{key}"] = {"value": cli_times.get(key, 0.0), "unit": unit}
            for key, (layer, unit) in QUALITY.items():
                metrics[f"{layer}.{key}"] = {"value": quality.get(key, 0.0), "unit": unit}
        if absent:
            print("absent " + " ".join(absent) + " (missing: " + " ".join(tracer.missing) + ")")
        tracer.write(work / "spans.jsonl")
    else:
        metrics = {}
        if untraced:
            metrics = {
                "setup_s": {"value": summary["setup_s"], "unit": "s"},
                "job_s": {"value": statistics.median(c["job_s"] for c in untraced), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
    summary["metrics"] = metrics
    for key, entry in metrics.items():
        print(f"metric {key} {entry['value']:.6g} {entry['unit']}")
    if not trace:
        for key, value in cli_times.items():
            print(f"metric {key} {value:.6g} {CLI_TIMINGS[key]} (median of {len(untraced)})")
        for key, value in quality.items():
            unit = QUALITY.get(key, (None, "count"))[1]
            print(f"metric {key} {value:.10g} {unit}")
        print(f"metric failed_frac {ops.failed / max(ops.attempted, 1):.6g} ratio "
              f"({ops.failed} of {ops.attempted} operations)")
    for key, digest in prints.items():
        print(f"fingerprint {key} sha256:{digest}")
    with open(work / f"report-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)

    correct = ops.failed == 0 and bool(untraced) and (bool(traced) or not trace)
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


def _same_outputs(reference, current) -> None:
    if reference != current:
        raise ValueError(f"outputs differ between cycles on the same inputs: "
                         f"{reference} vs {current}")


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited {proc.returncode}")
                status = 1
                continue
            with open(WORK / name / f"report-trace{trace}.json", encoding="utf-8") as fh:
                results.setdefault(name, {})[f"trace{trace}"] = json.load(fh)
    for name, runs in results.items():
        plain, traced = runs.get("trace0"), runs.get("trace1")
        print(f"== {name}: {(plain or traced)['shape']}")
        if plain:
            for key, entry in plain["metrics"].items():
                print(f"  {key:<34} {entry['value']:>14.6g} {entry['unit']}")
            for key, value in plain["cli"].items():
                print(f"  {key:<34} {value:>14.6g} {CLI_TIMINGS[key]}")
            for key, value in plain["quality"].items():
                print(f"  {key:<34} {value:>14.6g} {QUALITY.get(key, (None, 'count'))[1]}")
            frac = plain["failed"] / max(plain["attempted"], 1)
            print(f"  {'failed_frac':<34} {frac:>14.6g} ratio "
                  f"({plain['failed']} of {plain['attempted']})")
        if traced:
            ranked = sorted(((traced["metrics"].get(f"{layer}.self_s", {}).get("value", 0.0), layer)
                             for layer in LAYERS), reverse=True)
            print("  layers by self time: " + ", ".join(f"{layer} {value:.3g} s"
                                                       for value, layer in ranked))
            overhead = traced["metrics"].get("trace.overhead_s", {}).get("value", 0.0)
            print(f"  {'trace.overhead_s':<34} {overhead:>14.6g} s")
        if plain and traced:
            same = plain["fingerprints"] == traced["fingerprints"]
            print(f"  fingerprints repeat across the two runs: {same}")
            status = status or (0 if same else 1)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="with --workload all: write results here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corrlog" / "__init__.py").is_file():
        print(f"error: no corrlog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
