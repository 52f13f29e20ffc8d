"""Benchmark of the gftnn pipeline: ingest, train, eval and predict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in BENCHMARK.json and defined in pipeline.py.
One run drives ``gftnn.cli.main`` in this process, one stage after the
other: first one untimed quality pass, then the timed passes, which
repeat the whole pipeline on the same seeded inputs until ``--seconds``
have passed (at least three times). Every stage exit status and a set
of output checks count as operations. Times are in reference seconds:
wall time corrected for the host's speed, see calibration.py.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics (work over time summed across the timed passes, test
ADE and FDE from the quality pass). With ``--trace 1`` each untraced pass
is followed by a traced one, and the last line carries the per-layer
metrics of the traced passes plus the layer microbenchmarks.
Earlier lines record the environment, every metric with its unit and,
when traced, the span table.

The program under test is imported from ``src/`` next to this directory;
without it the run fails before producing a result.
"""
import os

# Pin BLAS to one thread before numpy is imported, here and in the
# interpreters started to time the import.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
from spans import Layer, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
# Fewest untraced passes per run; a traced run pairs each untraced pass
# with a traced one.
MIN_PASSES = {0: 3, 1: 1}
SETUP_REPEATS = 7
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import gftnn.cli; "
              "print(time.perf_counter() - t)")
STAGES = ("ingest", "train", "eval", "eval_test", "predict")


def measure_setup() -> float:
    """Median time to import gftnn.cli in a fresh interpreter, in reference
    seconds. The first import is discarded: it may compile the sources."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc, _, scale = calibration.timed(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC], capture_output=True,
            text=True, timeout=60, check=True))
        times.append(float(proc.stdout) * scale)
    return statistics.median(times[1:])


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "gftnn")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(workload, inputs, quality_inputs) -> dict:
    import numpy
    import scipy
    sizes = workload.sizes()
    if inputs:
        sizes["csv_rows"] = inputs["rows"]
        sizes["csv_tracks"] = inputs["tracks"]
        sizes["quality_csv_rows"] = quality_inputs["rows"]
        sizes["quality_csv_tracks"] = quality_inputs["tracks"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "blas_threads": BLAS_THREADS,
        "workload": workload.name,
        "sizes": sizes,
    }


def end_to_end(workload, passes, setup_s, quality) -> dict:
    """Rates are work over reference seconds summed across the passes;
    times are the mean over the passes."""
    total = {stage: sum(p["times"][stage] for p in passes) for stage in STAGES}
    n = sum(p["n_scenarios"] for p in passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "pipeline_s": sum(total.values()) / len(passes),
        "ingest_scen_per_s": n / total["ingest"],
        "train_samples_per_s": (sum(p["n_train"] for p in passes)
                                * workload.epochs / total["train"]),
        "eval_scen_per_s": n / total["eval"],
        "predict_s": total["predict"] / len(passes),
        "peak_rss_mb": rss_kb / 1024.0,
        "test_ade_m": quality["test_ade_m"],
        "test_fde_m": quality["test_fde_m"],
    }


def per_layer(tracer, result, skipped) -> dict:
    layers = tracer.layers()

    def get(name):
        return layers.get(name, Layer())

    m = {f"cli.{stage}.self_s": get(f"cli.{stage}").self_s for stage in STAGES}
    # synth and prep build their tracks in different functions; one metric
    # covers both so it is measured on every workload.
    m["scenario.ingest.self_s"] = (get("scenario.synthesize").self_s
                                   + get("scenario.ingest_tracks").self_s)
    for name in ("scenario.extract_scenarios", "model.scenario_spectrum",
                 "spectral.symmetric_eigh", "training.adam_step",
                 "model.predict"):
        m[f"{name}.self_s"] = get(name).self_s
        m[f"{name}.calls"] = get(name).calls
    m["model.predict.p50_us"] = get("model.predict").p50_us
    for name in ("scenario.save_archive", "scenario.load_archive",
                 "model.save_checkpoint", "model.load_checkpoint",
                 "model.build_basis", "model.encode", "model.decode",
                 "spectral.gft_extended", "training.train", "metrics.evaluate"):
        m[f"{name}.self_s"] = get(name).self_s
    m["graph.self_s"] = sum(layer.self_s for name, layer in layers.items()
                            if name.startswith("graph."))
    m["scenario.windows_extracted"] = tracer.windows_extracted
    m["scenario.windows_skipped"] = skipped
    m["scenario.balance_kept_share"] = result["n_scenarios"] / tracer.windows_extracted
    m["scenario.archive_bytes"] = result["archive_bytes"]
    m["model.checkpoint_bytes"] = result["checkpoint_bytes"]
    return m


def span_table(tracer) -> list:
    """Calls, total and self time of every span name within each stage."""
    return [{"stage": stage, "span": name, "calls": layer.calls,
             "total_s": round(layer.total_s, 6), "self_s": round(layer.self_s, 6)}
            for (stage, name), layer in sorted(tracer.layers(by_root=True).items())]


def declared_metrics(section) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run(args, workload, work_dir):
    import pipeline

    setup_s = None if args.trace else measure_setup()
    checks = pipeline.Checks()
    quality_workload = workload.quality()
    quality_inputs = pipeline.make_inputs(quality_workload, args.seed,
                                          work_dir, checks, "quality")
    inputs = pipeline.make_inputs(workload, args.seed, work_dir, checks,
                                  "timed")
    print(json.dumps({"environment": environment(workload, inputs,
                                                 quality_inputs)}))

    # The quality pass gives the test ADE and FDE and runs the self-test;
    # it also warms up every lazily loaded module. Its times are not used.
    out_dir = os.path.join(work_dir, "quality")
    quality = pipeline.run_pipeline(quality_workload, quality_inputs,
                                    args.seed, out_dir, checks, self_test=True)
    shutil.rmtree(out_dir, ignore_errors=True)

    untraced, traced, layer_runs, tables = [], [], [], []
    # Start another pass only if one as long as the last still ends in time.
    deadline = perf_counter() + args.seconds
    last_s = 0.0
    while quality is not None and (len(untraced) < MIN_PASSES[args.trace]
                                   or perf_counter() + last_s <= deadline):
        pass_start = perf_counter()
        out_dir = os.path.join(work_dir, f"pass{len(untraced)}")
        result = pipeline.run_pipeline(workload, inputs, args.seed, out_dir,
                                       checks)
        shutil.rmtree(out_dir, ignore_errors=True)
        if result is None:
            break
        untraced.append(result)
        if args.trace:
            tracer = Tracer()
            with pipeline.capture_skipped_windows() as skipped, tracer.patched():
                result = pipeline.run_pipeline(workload, inputs, args.seed,
                                               out_dir, checks, tracer=tracer)
            shutil.rmtree(out_dir, ignore_errors=True)
            if result is None:
                break
            traced.append(result)
            layer_runs.append(per_layer(tracer, result, skipped.total))
            tables.append(span_table(tracer))
        last_s = perf_counter() - pass_start

    # Every timed pass runs the same inputs, so its test ADE must repeat
    # bit for bit.
    first = untraced[0]["test_ade_m"] if untraced else None
    for result in untraced[1:] + traced:
        checks.record(result["test_ade_m"] == first,
                      f"test ADE {result['test_ade_m']!r} differs from {first!r}")

    metrics = {}
    complete = bool(untraced) and (len(traced) == len(untraced) or not args.trace)
    if complete and not args.trace:
        metrics = end_to_end(workload, untraced, setup_s, quality)
    elif complete:
        import micro
        for name in layer_runs[0]:
            metrics[name] = statistics.median(run[name] for run in layer_runs)
        metrics["trace_overhead_share"] = (
            statistics.median(sum(p["times"].values()) for p in traced)
            / statistics.median(sum(p["times"].values()) for p in untraced) - 1.0)
        metrics.update(micro.run_all(work_dir, checks))
        print(json.dumps({"spans": tables[len(tables) // 2]}))

    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"stage_seconds": {
        kind: [{"reference": p["times"], "wall": p["wall"]} for p in passes]
        for kind, passes in (("untraced", untraced), ("traced", traced))}}))
    for name in units:
        if name in metrics:
            print(f"{name:36s} {metrics[name]:>16.6f} {units[name]}")
    print(f"{'failed_ops_share':36s} {checks.failed / checks.attempted:>16.6f} "
          f"share ({checks.failed} of {checks.attempted} operations)")
    return {
        "correct": checks.failed == 0 and complete,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gftnn", "cli.py")):
        print(f"perfbench: no gftnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pipeline
    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}, expected one "
              f"of {sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = run(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
