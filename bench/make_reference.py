"""Regenerate the stored reference outputs of the default seed.

    python3 bench/make_reference.py [WORKLOAD ...]

Writes ``bench/reference/<workload>.json`` with the checked outputs of the
first operations of a run with ``--seed 1`` (enough to cover a run on a
faster host). maxexc_paths runs at threads 1 under the tracer so the digest
of every sampled return site is stored too. Only regenerate when a change
is meant to alter the outputs, and say so in CHANGES.md.
"""

import json
import sys
import tempfile

from run import OUT_ROOT, import_package

OPS = {"clt_large": 40, "scan_small": 40, "maxexc_paths": 8,
       "exact_single": 64}


def main(names):
    import_package()
    from tracer import CALL_SITES, Tracer
    from workloads import (DEFAULT_SEED, WORKLOAD_NAMES, get_workload,
                           paths_digest, reference_path)

    OUT_ROOT.mkdir(exist_ok=True)
    for name in names or WORKLOAD_NAMES:
        workload = get_workload(name)
        ops = []
        with tempfile.TemporaryDirectory(dir=OUT_ROOT) as out:
            for i in range(OPS[name]):
                entry = {}
                if workload.paths_per_op:
                    with Tracer(CALL_SITES) as tracer:
                        outcome = workload.run(DEFAULT_SEED, i, 1, out)
                    entry["returns_sha256"] = paths_digest(tracer.paths)
                else:
                    outcome = workload.run(DEFAULT_SEED, i, workload.threads,
                                           out)
                if not outcome.ok:
                    sys.exit(f"{name} op {i}: {outcome.problems}")
                entry["outputs"] = outcome.outputs
                ops.append(entry)
        with open(reference_path(name), "w") as fh:
            json.dump({"seed": DEFAULT_SEED, "ops": ops}, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(ops)} operations", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
