"""Benchmark of the copolymer toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. With ``--trace 0`` the run repeats the
workload's operation for S seconds and reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it repeats traced cycles for S seconds
and reports the per-layer metrics. The last line of standard output is the
result object; a table of the same metrics goes to standard error. What the
workloads and metrics mean is in ``bench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import (BYTES_PER_CELL, CALL_SITES, PoolCounter, Tracer,
                    estimator_entry_points)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_CODE = ("import time\n"
              "started = time.perf_counter()\n"
              "import copolymer.cli\n"
              "print(time.perf_counter() - started)\n"
              "print(copolymer.cli.__file__)\n")


def import_package():
    """Put this checkout's ``src`` first on the path and import from it."""
    if not (SRC / "copolymer" / "__init__.py").is_file():
        sys.exit(f"bench: no package sources at {SRC / 'copolymer'}")
    sys.path.insert(0, str(SRC))
    import copolymer
    if Path(copolymer.__file__).resolve().parent != SRC / "copolymer":
        sys.exit(f"bench: copolymer imported from {copolymer.__file__}, "
                 f"not from {SRC}")


def metric_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_seconds():
    """Median import time of ``copolymer.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, path = proc.stdout.splitlines()[:2]
        if Path(path).resolve().parent != SRC / "copolymer":
            raise RuntimeError(f"setup imported {path}, not the checkout")
        times.append(float(seconds))
    return statistics.median(times)


def peak_rss_mb():
    """Peak RSS of this process plus the largest of its finished children
    (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def simd_found():
    """numpy's dispatched SIMD features this CPU has, as ``np.show_runtime``
    lists them under "found"."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:
        from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                                  __cpu_features__)
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over CPUs, from
    /proc/stat; None where that is not available."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_block(load_before, steal_before):
    import multiprocessing

    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_simd_found": simd_found(),
        "start_method": multiprocessing.get_start_method(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "steal_s": (None if steal_before is None
                    else steal_seconds() - steal_before),
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def timed_run(workload, seed, seconds, out, reference):
    outcomes = []
    started = perf_counter()
    while not outcomes or perf_counter() - started < seconds:
        i = len(outcomes)
        outcome = workload.run(seed, i, workload.threads, out)
        if outcome.ok and reference and i < len(reference):
            outcome.problems += workload.compare(outcome.outputs,
                                                 reference[i]["outputs"])
        outcomes.append(outcome)
    rss = peak_rss_mb()  # before set-up timing adds children of its own
    metrics = {
        # medians over operations; a failed operation completes 0 replicas
        "replicas_per_s": statistics.median(o.completed / o.seconds
                                            for o in outcomes),
        "sample_latency_s": statistics.median(o.seconds for o in outcomes),
        "setup_s": setup_seconds(),
        "peak_rss_mb": rss,
    }
    return outcomes, metrics, {"latencies_s": [o.seconds for o in outcomes]}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def traced_cycle(workload, seed, i, out, reference):
    """One cycle on operation i: the workload's own thread count with only
    the pool counter and estimator entry spans (skipped when that is 1),
    then threads 1 untraced, then threads 1 traced."""
    from workloads import check_traced_paths, paths_digest

    entries = estimator_entry_points()
    parallel = workload.threads > 1
    pools, entry = PoolCounter(), Tracer(entries)
    outcomes = []
    if parallel:
        with pools, entry:
            wide = workload.run(seed, i, workload.threads, out)
        outcomes.append(wide)
    plain = workload.run(seed, i, 1, out)
    with Tracer(CALL_SITES + tuple(entries)) as tracer:
        traced = workload.run(seed, i, 1, out)
    outcomes += [plain, traced]

    if all(o.ok for o in outcomes):
        if any(o.outputs != traced.outputs for o in outcomes):
            traced.problems.append("outputs depend on --threads or tracing")
        if workload.paths_per_op:
            traced.problems += check_traced_paths(traced.outputs,
                                                  tracer.paths)
        if reference and i < len(reference):
            traced.problems += workload.compare(traced.outputs,
                                                reference[i]["outputs"])
            want = reference[i].get("returns_sha256")
            if want and paths_digest(tracer.paths) != want:
                traced.problems.append("sampled return sites differ from "
                                       "reference")

    calls, inclusive, own = tracer.totals()
    cells = tracer.counts["partition.dp_cells"]
    dp_time = sum(own[f"partition.{k}"] for k in ("curve", "tables",
                                                    "segment"))
    metrics = {
        "kernel.build_s": own["kernel.build"],
        "disorder.draw_s": own["disorder.draw"],
        "disorder.draws": calls["disorder.draw"],
    }
    for part in ("curve", "tables", "segment"):
        metrics[f"partition.{part}_s"] = own[f"partition.{part}"]
        metrics[f"partition.{part}_calls"] = calls[f"partition.{part}"]
    metrics.update({
        "partition.dp_cells": cells,
        "partition.cells_per_s": cells / dp_time if dp_time else 0.0,
        "partition.bytes_computed": cells * BYTES_PER_CELL,
        "observables.sample_path_s": own["observables.sample_path"],
        "observables.paths": calls["observables.sample_path"],
        "observables.returns_drawn":
            tracer.counts["observables.returns_drawn"],
        "observables.profile_s": own["observables.profile"],
        "observables.gradients_s": own["observables.gradients"],
        "observables.exclaw_s": own["observables.exclaw"],
        "observables.joint_s": own["observables.joint"],
        "estimators.self_s": own["estimators.call"],
        "estimators.pools": pools.pools,
        "estimators.pool_start_s": pools.overhead_s,
        "estimators.tasks": pools.tasks,
        "estimators.parallel_eff": 0.0,
        "cli.self_s": own["cli.run"],
        "cli.files": traced.files,
        "cli.csv_bytes": traced.csv_bytes,
        "trace.overhead": traced.seconds / plain.seconds - 1.0,
        "paths_per_s": 0.0,
        "baseline.t1_replicas_per_s": plain.completed / plain.seconds,
        "baseline.t2_replicas_per_s": 0.0,
    })
    if parallel:
        _, wide_inclusive, _ = entry.totals()
        if wide_inclusive["estimators.call"]:
            metrics["estimators.parallel_eff"] = (
                inclusive["estimators.call"]
                / (workload.threads * wide_inclusive["estimators.call"]))
        metrics["paths_per_s"] = (workload.paths_per_op * wide.ok
                                  / wide.seconds)
        metrics["baseline.t2_replicas_per_s"] = wide.completed / wide.seconds
    return outcomes, metrics, tracer.records()


def traced_run(workload, seed, seconds, out, reference):
    outcomes, cycles, spans = [], [], None
    started = perf_counter()
    while not cycles or perf_counter() - started < seconds:
        done, metrics, records = traced_cycle(workload, seed, len(cycles),
                                              out, reference)
        outcomes += done
        cycles.append(metrics)
        spans = spans if spans is not None else records
    # median_low keeps counts whole: it picks one cycle's value
    metrics = {name: statistics.median_low(c[name] for c in cycles)
               for name in cycles[0]}
    return outcomes, metrics, {"cycles": cycles, "spans": spans}


# ---------------------------------------------------------------------------

def oracle_check(workload, seed):
    """Per-run spot check against the enumeration oracle, plus the partition
    of unity of excursion_cover on the library workload."""
    from workloads import TOLERANCE, oracle_spot_check

    started = perf_counter()
    errors = oracle_spot_check(seed)
    if hasattr(workload, "cover_error"):
        errors.append(workload.cover_error(seed))
    failed = sum(1 for e in errors if not e <= TOLERANCE)
    return len(errors), failed, {"oracle.check_s": perf_counter() - started,
                                 "oracle.checks": len(errors),
                                 "oracle.max_abs_err": max(errors)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_before, steal_before = os.getloadavg(), steal_seconds()
    import_package()
    end_to_end_units, per_layer_units = metric_units()
    from workloads import WORKLOAD_NAMES, get_workload, load_reference

    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(WORKLOAD_NAMES)}")
    workload = get_workload(args.workload)
    reference = load_reference(args.workload, args.seed)
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="runs-", dir=OUT_ROOT) as out:
        run = traced_run if args.trace else timed_run
        outcomes, metrics, detail = run(workload, args.seed, args.seconds,
                                        out, reference)
    checks, failed_checks, oracle_metrics = oracle_check(workload, args.seed)
    failed_ops = [o for o in outcomes if not o.ok]
    attempted = len(outcomes) + checks
    failed = len(failed_ops) + failed_checks
    units = per_layer_units if args.trace else end_to_end_units
    if args.trace:
        metrics.update(oracle_metrics)
        metrics["error_rate"] = failed / attempted
    if set(metrics) != set(units):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not "
                 "match BENCHMARK.json")

    host = host_block(load_before, steal_before)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host, "metrics": metrics,
              "problems": [p for o in failed_ops for p in o.problems],
              **detail}
    with open(OUT_ROOT / f"{args.workload}-seed{args.seed}-trace"
              f"{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in record["problems"]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    for name in units:
        print(f"{name:32s} {metrics[name]:>14.6g} {units[name]}",
              file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
