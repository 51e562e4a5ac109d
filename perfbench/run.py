"""relkit benchmark: seeded workloads over the whole relkit chain.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports relkit from ./src. With
--workload all (the default) each workload runs in a process of its own,
one after another. Each run prints every metric with its unit and
direction, the environment and the output digests, then, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 untraced and
traced units alternate and the metrics are the per-layer ones, plus the
tracing overhead. The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread and the library's own default worker count, set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RELKIT_THREADS", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5          # raw CPU seconds
MIN_UNITS = 2

# name -> (unit, better); the order is the print order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_epoch_ms.p50": ("ms", "lower"),
    "train_epoch_ms.p90": ("ms", "lower"),
    "predcls_scenes_per_s": ("1/s", "higher"),
    "sgcls_scenes_per_s": ("1/s", "higher"),
    "zeroshot_edges_per_s": ("1/s", "higher"),
    "predict_scene_ms.p50": ("ms", "lower"),
    "predict_scene_ms.p99": ("ms", "lower"),
    "parse_lines_per_s": ("1/s", "higher"),
    "orm_build_triplets_per_s": ("1/s", "higher"),
    "orm_queries_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
    "final_loss": ("loss", "lower"),
    "zeroshot_top1": ("frac", "higher"),
    "predcls_top1": ("frac", "higher"),
}


def _import_relkit():
    """Import relkit from this checkout's src/, and nowhere else."""
    if not (SRC / "relkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no relkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relkit
    if Path(relkit.__file__).resolve().parent != SRC / "relkit":
        sys.exit(f"perfbench: relkit imported from {relkit.__file__}, not {SRC}")


def per_layer_names():
    from tracing import RATIOS, TRACED, metric_name
    names = {}
    for module, attr in TRACED:
        base = metric_name(module, attr)
        names[f"{base}.calls"] = ("count", "lower")
        names[f"{base}.s"] = ("s", "lower")
        names[f"{base}.self_s"] = ("s", "lower")
    for name in RATIOS:
        names[name] = (("triplets/line", "higher")
                       if name == "corpus.triplets_per_line" else ("frac", "lower"))
    names["trace.overhead_s"] = ("s", "lower")
    names["trace.overhead_frac"] = ("frac", "lower")
    return names


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((SRC / "relkit").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "relkit_threads": os.environ.get("RELKIT_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_relkit_lines": src_lines,
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import tracing
    import workloads as wl

    profile = wl.PROFILES[name]
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    tracer = tracing.Tracer()
    problems = []
    fails = wl.Failures()
    try:
        # prep is untimed; in a traced run it reports synth.generate alone
        if traced:
            tracer.install()
        try:
            files = wl.prep(profile, seed, work / "inputs")
        finally:
            tracer.uninstall()
        prep_summary = tracer.summary()
        tracer.reset()
        cycle_dir = work / "cycle"
        cycle_dir.mkdir(parents=True)

        clock = wl.SpeedClock()
        deadline = perf_counter() + seconds
        setup_s, results, unit_raw = [], [], []
        unit_s = {False: [], True: []}
        t0 = process_time()
        while not traced and (len(setup_s) < SETUP_REPEATS
                              or process_time() - t0 < SETUP_MIN_S):
            inputs, dt = clock.time(wl.setup, files)
            setup_s.append(dt)
        units = 0
        while units < MIN_UNITS or (
                perf_counter() + statistics.mean(unit_raw) <= deadline):
            # traced runs alternate an untraced and a traced unit, each a
            # fresh set-up plus one cycle; the difference is the overhead
            trace_this = traced and units % 2 == 1
            t0, timed0 = perf_counter(), clock.total
            if trace_this:
                tracer.install()
            try:
                if traced:
                    inputs = clock.time(wl.setup, files)[0]
                res = wl.run_cycle(profile, files, inputs, cycle_dir, clock, fails)
            finally:
                tracer.uninstall()
            unit_s[trace_this].append(clock.total - timed0)
            unit_raw.append(perf_counter() - t0)
            results.append(res)
            problems += wl.check_cycle(profile, files, inputs, res)
            units += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    first = results[0]
    if any(r.checkpoint_digest != first.checkpoint_digest for r in results):
        problems.append("repeats gave different checkpoint digests")
    if any(r.output_digest != first.output_digest for r in results):
        problems.append("repeats gave different metric-output digests")
    if fails.failed:
        problems.append(f"{fails.failed} operations raised; first: {fails.first_error}")

    metrics_units = {}
    if not traced:
        med = lambda key: statistics.median(r.rates[key] for r in results)
        # Every cycle trains the same epochs and predicts the same scenes, so
        # each epoch and each (protocol, split, scene) call is timed by the
        # median of its repeats; the percentiles run over those.
        runs = [run for r in results for run in r.epoch_ms]
        epoch_ms = [statistics.median(run[k] for run in runs)
                    for k in range(len(runs[0]))]
        calls = {}
        for r in results:
            for key, times in r.predict_ms.items():
                calls.setdefault(key, []).extend(times)
        predict_ms = [statistics.median(times) for times in calls.values()]
        values = {
            "setup_s": statistics.median(setup_s),
            "train_epoch_ms.p50": percentile(epoch_ms, 50),
            "train_epoch_ms.p90": percentile(epoch_ms, 90),
            "predict_scene_ms.p50": percentile(predict_ms, 50),
            "predict_scene_ms.p99": percentile(predict_ms, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (fails.attempted - fails.failed) / max(fails.attempted, 1),
        }
        for key in ("predcls_scenes_per_s", "sgcls_scenes_per_s",
                    "zeroshot_edges_per_s", "parse_lines_per_s",
                    "orm_build_triplets_per_s", "orm_queries_per_s"):
            values[key] = med(key)
        values.update(first.quality)
        table = END_TO_END
        samples = {"units": len(results), "setups": len(setup_s),
                   "probes": len(clock.probes),
                   "probe_ms.p50": percentile(clock.probes, 50) * 1e3,
                   "epochs": len(epoch_ms), "training_runs": len(runs),
                   "predict_scene_inputs": len(predict_ms),
                   "predict_scene_calls": sum(len(t) for t in calls.values())}
    else:
        values = _per_layer_values(tracer, prep_summary, unit_s, problems)
        table = per_layer_names()
        samples = {"untraced_units": len(unit_s[False]),
                   "probes": len(clock.probes),
                   "probe_ms.p50": percentile(clock.probes, 50) * 1e3,
                   "traced_units": len(unit_s[True])}
    for key, (unit, better) in table.items():
        metrics_units[key] = {"value": values[key], "unit": unit}
        print(f"{name}\t{key}\t{values[key]:.6g}\t{unit}\t{better} is better")
    if not traced:
        failed_frac = fails.failed / max(fails.attempted, 1)
        print(f"{name}\tfailed_frac\t{failed_frac:.6g}\tfrac\tlower is better")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# samples " + json.dumps(samples, sort_keys=True))
    print("# digests " + json.dumps({"checkpoint": first.checkpoint_digest,
                                     "outputs": first.output_digest}))
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": fails.attempted,
                      "failed": fails.failed, "metrics": metrics_units}))
    return 1 if problems else 0


def _per_layer_values(tracer, prep_summary, unit_s, problems) -> dict:
    """Per traced unit: calls, seconds and self seconds of each function."""
    import tracing
    violations = tracer.nesting_violations()
    if violations:
        problems.append(f"trace self-test: {violations} spans leave their parent")
    n = len(unit_s[True])
    summary = tracer.summary()
    values = {}
    for key in per_layer_names():
        if key.startswith("synth.generate."):
            values[key] = prep_summary[key]
        elif key.endswith((".calls", ".s", ".self_s")):
            values[key] = summary[key] / n
    values.update(tracing.ratios(summary))
    untraced = statistics.median(unit_s[False])
    overhead = statistics.median(unit_s[True]) - untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / untraced
    return values


def run_all(args, workloads) -> int:
    """Each workload in a process of its own, so peak RSS is per workload."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0,
                           "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or proc.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    _import_relkit()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import PROFILES
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *PROFILES])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(PROFILES))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
