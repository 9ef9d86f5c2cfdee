"""Interleaved A/B comparison of two checkouts of this repository.

    python3 tools/ab.py layer --parent DIR --change DIR --layer LAYER
        [--n N] [--rows R] [--lam L] [--lam-tilde LT] [--h-tilde HT]
        [--backward] [--pairs 10] [--reps 5]
    python3 tools/ab.py e2e --parent DIR --change DIR --workload NAME
        [--seed 1] [--seconds 20] [--pairs 10]

Layer mode imports both trees' ``src/copolymer`` into one process, under
the names ``ab_parent`` and ``ab_change``, and alternates calls of one
layer on the same inputs, with OpenBLAS held to one thread:

    pass     one forward pass of R samples of N sites (``--backward``: with
             each sample's reversed row, as ``forward_tables`` runs it)
    tables   ``forward_tables`` of one sample
    scan     the profile's p_neg, then ``excursion_cover``, on one sample's
             tables, uncached (``_excursion_probability_scan``)
    laws     the excursion laws at N/4, N/2 and 3N/4 on one sample's tables
    ursell   ``ursell_from_tables`` at N/2 + {0, 8, 16, 24}
    path     ``sample_path`` on one sample's tables
    suite    ``oracle.inequality_suite(ModelParams(1.3, 0, 0.3, -0.4),
             build_srw_kernel(N + 1), N)``
    op       one ``exact_single`` operation: draw, tables, profile,
             gradients, three laws, Ursell

The samples are Gaussian (seed 1), the point (lam, 0.1, lam_tilde,
h_tilde). Before timing, the tool says whether both trees give equal
outputs, or else the largest relative difference of the entries above
1e-300, the same relative to max(1, |x|) (the scale of a log table's
rounding), and the count of entries that are 0 on one side only. Each side of
a pair is the best of ``--reps`` calls.

End-to-end mode alternates ``python3 bench/run.py`` runs of the two trees
(each run in its own tree) and reads their result lines.

Both modes swap which tree runs first from one pair to the next, and print
per metric the median and quartiles of each side, the pairs the change
wins, and a label. A difference is "resolved" only when one side wins at
least 9 in 10 of the pairs and the medians differ by more than the
parent's interquartile range; every other difference is "unresolved".
"""

import argparse
import importlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def load_tree(root, name):
    """The ``src/copolymer`` package of checkout ``root``, as module
    ``name`` with its submodules loaded."""
    pkg = Path(root).resolve() / "src" / "copolymer"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("partition", "observables", "oracle"):
        setattr(module, sub, importlib.import_module(f"{name}.{sub}"))
    return module


def layer_call(cp, args):
    """The layer's inputs, built by package ``cp``, and a call that runs
    it once and returns its outputs."""
    n, lam = args.n, args.lam
    law = cp.DisorderLaw.GAUSSIAN
    p = cp.ModelParams(lam, 0.1, args.lam_tilde, args.h_tilde)
    if args.layer == "suite":
        q = cp.ModelParams(1.3, 0.0, 0.3, -0.4)
        kern = cp.build_srw_kernel(n + 1)
        return lambda: cp.oracle.inequality_suite(q, kern, n)
    kern = cp.build_srw_kernel(n)
    samples = [cp.sample_disorder(law, law, n, p.h, 1, i)
               for i in range(args.rows)]
    d = samples[0]
    if args.layer == "pass":
        import numpy as np
        part = cp.partition
        w = np.stack([s.w_prefix for s in samples])
        lz = np.stack([part._log_rewards(s, p) for s in samples])
        if args.backward:
            return lambda: part._log_z_rows(w, lz, kern.log_k, lam, True)
        return lambda: part._forward_batch(w, lz, kern.log_k, lam)
    if args.layer == "tables":
        return lambda: cp.forward_tables(d, p, kern)
    if args.layer == "op":
        def op():
            e = cp.sample_disorder(law, law, n, p.h, 1, 0)
            t = cp.forward_tables(e, p, kern)
            return (t, cp.contact_profile(t, e, p, kern),
                    cp.log_z_gradients(t, e, p, kern),
                    [cp.excursion_law(k, t, e, p, kern)
                     for k in (n // 4, n // 2, 3 * n // 4)],
                    cp.ursell_from_tables([n // 2 + o for o in (0, 8, 16, 24)],
                                          t, e, p, kern))
        return op
    t = cp.forward_tables(d, p, kern)
    if args.layer == "scan":
        scan = cp.observables._excursion_probability_scan
        return lambda: (scan(t, d, p, kern, True), scan(t, d, p, kern, False))
    if args.layer == "laws":
        return lambda: [cp.excursion_law(k, t, d, p, kern)
                        for k in (n // 4, n // 2, 3 * n // 4)]
    if args.layer == "ursell":
        sites = [n // 2 + o for o in (0, 8, 16, 24)]
        return lambda: cp.ursell_from_tables(sites, t, d, p, kern)
    if args.layer == "path":
        return lambda: cp.sample_path(t, d, p, kern, cp.PathRng(1))
    raise SystemExit(f"ab: unknown layer {args.layer}")


def flatten(x):
    """Every number in an output, in a fixed order, as a list of floats."""
    import numpy as np
    if isinstance(x, np.ndarray):
        return x.astype(float).ravel().tolist()
    if isinstance(x, (int, float)):
        return [float(x)]
    if isinstance(x, dict):
        return [v for key in sorted(x) for v in flatten(x[key])]
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in flatten(item)]
    if hasattr(x, "__dataclass_fields__"):
        return [v for name in x.__dataclass_fields__
                for v in flatten(getattr(x, name, None))]
    return []  # kernels, sources and other non-numeric fields


def compare_outputs(a, b):
    a, b = flatten(a), flatten(b)
    if len(a) != len(b):
        return f"outputs differ in size: {len(a)} against {len(b)}"
    if all(x == y or (x != x and y != y) for x, y in zip(a, b)):
        return f"outputs equal ({len(a)} numbers)"
    worst, unit, one_sided = 0.0, 0.0, 0
    for x, y in zip(a, b):
        big = max(abs(x), abs(y))
        if x == y or not big > 1e-300:
            continue
        if min(abs(x), abs(y)) == 0.0:
            one_sided += 1
        else:
            worst = max(worst, abs(x - y) / big)
            unit = max(unit, abs(x - y) / max(1.0, big))
    # a log table's rounding scales with max(1, |log Z|), the second figure
    return (f"outputs differ: largest relative difference {worst:.3g} "
            f"above 1e-300 ({unit:.3g} relative to max(1, |x|)), "
            f"{one_sided} entries 0 on one side only")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(parent, change, higher_is_better):
    """(wins of the change, label) over paired values."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    lo, hi = quartiles(parent)
    gap = statistics.median(change) - statistics.median(parent)
    need = math.ceil(0.9 * len(parent))
    if abs(gap) > hi - lo and sign * gap > 0 and wins >= need:
        return wins, "resolved: change better"
    if abs(gap) > hi - lo and sign * gap < 0 and losses >= need:
        return wins, "resolved: change worse"
    return wins, "unresolved"


def report(name, unit, parent, change, higher_is_better):
    wins, label = verdict(parent, change, higher_is_better)
    mp, mc = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    ratio = mc / mp if mp else float("nan")
    print(f"{name} [{unit}]: parent {mp:.6g} ({p1:.6g}-{p3:.6g}), change "
          f"{mc:.6g} ({c1:.6g}-{c3:.6g}), change/parent {ratio:.3f}, change "
          f"wins {wins} of {len(parent)}: {label}")


def run_layer(args):
    sides = {"parent": load_tree(args.parent, "ab_parent"),
             "change": load_tree(args.change, "ab_change")}
    calls = {side: layer_call(cp, args) for side, cp in sides.items()}
    outputs = {side: call() for side, call in calls.items()}
    print(f"layer {args.layer}: "
          + compare_outputs(outputs["parent"], outputs["change"]))
    times = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            best = math.inf
            for _ in range(args.reps):
                started = perf_counter()
                calls[side]()
                best = min(best, perf_counter() - started)
            times[side].append(best * 1e3)
    report("call time", "ms", times["parent"], times["change"], False)


def run_e2e(args):
    with open(Path(args.change) / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    values = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = getattr(args, side)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds)],
                cwd=root, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"ab: {side} run {i} failed: {done.stderr}")
            values[side].append({m: v["value"]
                                 for m, v in result["metrics"].items()})
        print(f"pair {i + 1}: " + ", ".join(
            f"{side} {values[side][-1][metrics[0]['name']]:.6g}"
            for side in order), flush=True)
    for m in metrics:
        report(m["name"], m["unit"],
               [v[m["name"]] for v in values["parent"]],
               [v[m["name"]] for v in values["change"]],
               m["better"] == "higher")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("layer", "e2e"))
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--layer", default="pass")
    parser.add_argument("--n", type=int, default=2048)
    parser.add_argument("--rows", type=int, default=1)
    parser.add_argument("--lam", type=float, default=0.5)
    parser.add_argument("--lam-tilde", type=float, default=1.0)
    parser.add_argument("--h-tilde", type=float, default=0.5)
    parser.add_argument("--backward", action="store_true")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--workload", default="exact_single")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.reps < 1:
        parser.error("--pairs and --reps must be at least 1")
    if args.mode == "layer":
        # before numpy loads: one BLAS thread, as in a worker process
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        run_layer(args)
    else:
        run_e2e(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
