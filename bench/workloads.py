"""The four benchmark workloads, their operations and their output checks.

Every workload uses Gaussian/Gaussian disorder. Operation ``i`` of a run
with benchmark seed ``s`` draws its disorder from ``s`` and ``i`` alone, so
the same seed gives the same inputs. A CLI operation is one in-process
``copolymer.cli.main(argv)`` call with ``--seed 1000*s + i``; an
``exact_single`` operation is disorder sample (master seed ``s``, replica
``i``) pushed through six library calls.

Which layers each workload stresses, and why it was chosen, is in
``README.md`` next to this file.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass
from itertools import product
from time import perf_counter

import numpy as np

import copolymer
from copolymer import DisorderLaw, ModelParams, build_srw_kernel
from copolymer.oracle import brute_force_partition

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 1
TOLERANCE = 1e-9
GAUSSIAN = DisorderLaw.GAUSSIAN
# Columns holding integers (sizes, indices, sampled lengths, verdicts) are
# compared exactly; every other CSV column within TOLERANCE.
INT_COLUMNS = {"N", "replica", "path_index", "delta_n", "localized"}

REFERENCE_POINT = ("--lam", "0", "--h", "0", "--lam-tilde", "1",
                   "--h-tilde", "0.5")
LOCALIZED_POINT = ("--lam", "0.5", "--h", "0.1", "--lam-tilde", "1",
                   "--h-tilde", "0.5")
GAUSSIAN_LAWS = ("--law-omega", "gaussian", "--law-tilde", "gaussian")

CLT_LADDER = (2048, 4096)
SCAN_VALUES1 = (0.0, 0.5, 1.0)
SCAN_VALUES2 = (-0.5, 0.0, 0.5)
MAXEXC_N = 4096
MAXEXC_PATHS = 16
MAXEXC_REPLICAS = 2


def op_seed(seed, op):
    return 1000 * seed + op


# ---------------------------------------------------------------------------
# CSV checks

def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _cell_problem(column, got, want):
    if column in INT_COLUMNS:
        return None if got == want else f"{column}: {got} != {want}"
    a, b = float(got), float(want)
    if math.isnan(a) and math.isnan(b):
        return None
    if abs(a - b) <= TOLERANCE or abs(a - b) <= TOLERANCE * abs(b):
        return None
    return f"{column}: {got} != {want}"


def compare_csv(name, text, reference):
    """Problems found comparing one CSV with its stored reference."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{name}: shape differs from reference"]
    problems = []
    for row, ref_row in zip(rows, ref_rows):
        for column, got, want in zip(header, row, ref_row):
            problem = _cell_problem(column, got, want)
            if problem:
                problems.append(f"{name}: {problem}")
    return problems


def _numeric(rows):
    return [[float(v) for v in row] for row in rows]


def _finite(values):
    return all(math.isfinite(v) for v in values)


def _check_clt(csvs):
    header, rows = parse_csv(csvs["clt.csv"])
    rows = _numeric(rows)
    if [int(r[0]) for r in rows] != list(CLT_LADDER):
        return ["clt.csv: ladder rows differ from --n-ladder"]
    problems = []
    for n, var_over_n, skew, kurt, ks in rows:
        if not (var_over_n > 0 and _finite([skew, kurt]) and 0 < ks <= 1):
            problems.append(f"clt.csv: bad moments at N={int(n)}")
    return problems


def _check_scan(csvs):
    header, rows = parse_csv(csvs["phase.csv"])
    rows = _numeric(rows)
    if [tuple(r[:2]) for r in rows] != list(product(SCAN_VALUES1,
                                                    SCAN_VALUES2)):
        return ["phase.csv: grid points differ from --values1/--values2"]
    problems = []
    for a1, a2, f_hat, stderr, localized in rows:
        expect = f_hat > max(3.0 * stderr, 1e-3)
        if not (math.isfinite(f_hat) and stderr >= 0
                and localized == float(expect)):
            problems.append(f"phase.csv: bad verdict at ({a1}, {a2})")
    return problems


def _check_maxexc(csvs):
    _, rows = parse_csv(csvs["maxexc.csv"])
    rows = [[int(v) for v in row] for row in rows]
    order = [(MAXEXC_N, r, i) for r in range(MAXEXC_REPLICAS)
             for i in range(MAXEXC_PATHS)]
    problems = []
    if [tuple(row[:3]) for row in rows] != order:
        problems.append("maxexc.csv: rows out of replica/path order")
    if not all(1 <= row[3] <= MAXEXC_N for row in rows):
        problems.append("maxexc.csv: delta_n outside 1..N")
    _, summary = parse_csv(csvs["maxexc_summary.csv"])
    n, mu_hat, f_hat, f_stderr, localized, *_ = _numeric(summary)[0]
    if not (int(n) == MAXEXC_N and localized == 1 and f_hat > 0
            and math.isfinite(mu_hat)):
        problems.append("maxexc_summary.csv: not localized or non-finite")
    return problems


def check_traced_paths(csvs, paths):
    """Each delta_n written by maxexc must be the largest gap of the path the
    sampler returned for that (replica, path) in the traced run."""
    _, rows = parse_csv(csvs["maxexc.csv"])
    if len(rows) != len(paths):
        return ["traced paths: count differs from maxexc.csv rows"]
    for row, returns in zip(rows, paths):
        gaps = np.diff((0,) + tuple(returns))
        if returns[-1] != MAXEXC_N or int(gaps.max()) != int(row[3]):
            return ["traced paths: delta_n disagrees with sampled returns"]
    return []


def paths_digest(paths):
    return hashlib.sha256(json.dumps([list(r) for r in paths]).encode()
                          ).hexdigest()


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Outcome:
    """One operation: wall seconds, the replicas it was asked for, problems
    found, the outputs that are checked, and the files it wrote."""

    seconds: float
    replicas: int
    problems: list
    outputs: dict
    files: int = 0
    csv_bytes: int = 0

    @property
    def ok(self):
        return not self.problems

    @property
    def completed(self):
        return self.replicas if self.ok else 0


def run_cli(argv):
    """(exit code, seconds, printed run directory) of one in-process call."""
    from copolymer import cli

    printed = io.StringIO()
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
    except Exception:  # an uncaught error is a failed operation, not a crash
        traceback.print_exc()
        code = -1
    return code, perf_counter() - started, printed.getvalue().strip()


@dataclass(frozen=True)
class CliWorkload:
    name: str
    argv: tuple
    threads: int
    replicas: int
    replicas_per_op: int
    check: object
    paths_per_op: int = 0

    def run(self, seed, op, threads, out):
        argv = [*self.argv, "--replicas", str(self.replicas),
                "--threads", str(threads), "--seed", str(op_seed(seed, op)),
                "--out", out]
        code, seconds, outdir = run_cli(argv)
        if code != 0:
            return Outcome(seconds, self.replicas_per_op,
                           [f"exit code {code}"], {})
        names = sorted(os.listdir(outdir))
        csvs = {}
        for name in names:
            if name.endswith(".csv"):
                with open(os.path.join(outdir, name)) as fh:
                    csvs[name] = fh.read()
        try:
            problems = self.check(csvs)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"malformed output: {exc!r}"]
        return Outcome(seconds, self.replicas_per_op, problems, csvs,
                       files=len(names),
                       csv_bytes=sum(len(t.encode()) for t in csvs.values()))

    @staticmethod
    def compare(outputs, reference):
        problems = []
        for name, text in reference.items():
            if name not in outputs:
                problems.append(f"{name}: missing")
            else:
                problems += compare_csv(name, outputs[name], text)
        return problems


EXACT_N = 2048
EXACT_PARAMS = ModelParams(0.5, 0.1, 1.0, 0.5)
EXACT_SITES = (EXACT_N // 4, EXACT_N // 2, 3 * EXACT_N // 4)
URSELL_SITES = tuple(EXACT_N // 2 + o for o in (0, 8, 16, 24))
PROFILE_SITES = (1, EXACT_N // 8, EXACT_N // 4, EXACT_N // 2,
                 3 * EXACT_N // 4, EXACT_N - 1, EXACT_N)
PMF_LENGTHS = (1, 2, 4, 8, 16, 32)


class ExactWorkload:
    """Library workload: one disorder sample through the exact observables.

    Calls go through the ``copolymer`` namespace at call time, so a traced
    run sees them; the kernel is built once per run, outside the operation.
    """

    name = "exact_single"
    threads = 1
    replicas_per_op = 1
    paths_per_op = 0

    def __init__(self):
        self.kern = build_srw_kernel(EXACT_N)

    def run(self, seed, op, threads=1, out=None):
        p, kern = EXACT_PARAMS, self.kern
        started = perf_counter()
        d = copolymer.sample_disorder(GAUSSIAN, GAUSSIAN, EXACT_N, p.h, seed,
                                      op)
        tables = copolymer.forward_tables(d, p, kern)
        prof = copolymer.contact_profile(tables, d, p, kern)
        grads = copolymer.log_z_gradients(tables, d, p, kern)
        laws = [copolymer.excursion_law(k, tables, d, p, kern)
                for k in EXACT_SITES]
        u4 = copolymer.ursell_from_tables(URSELL_SITES, tables, d, p, kern)
        seconds = perf_counter() - started
        summary = {
            "log_z": tables.log_z,
            "p_contact": [float(prof.p_contact[k]) for k in PROFILE_SITES],
            "p_neg": [float(prof.p_neg[k]) for k in PROFILE_SITES],
            "gradients": [grads[k] for k in ("lam", "h", "lam_tilde",
                                             "h_tilde")],
            "excursion_mean": [float(np.dot(np.arange(law.pmf.size), law.pmf))
                               for law in laws],
            "excursion_pmf": [float(law.pmf[s]) for law in laws
                              for s in PMF_LENGTHS],
            "ursell4": u4,
        }
        problems = self._check(prof, laws, summary)
        return Outcome(seconds, 1, problems, summary)

    @staticmethod
    def _check(prof, laws, summary):
        problems = []
        values = [v for item in summary.values()
                  for v in (item if isinstance(item, list) else [item])]
        if not _finite(values):
            problems.append("non-finite observable")
        for name, arr in (("p_contact", prof.p_contact),
                          ("p_neg", prof.p_neg)):
            if not (np.all(arr >= -TOLERANCE)
                    and np.all(arr <= 1 + TOLERANCE)):
                problems.append(f"{name} outside [0, 1]")
        if abs(prof.p_contact[EXACT_N] - 1.0) > TOLERANCE:
            problems.append("pinned endpoint contact != 1")
        for law in laws:
            if np.any(law.pmf < 0) or abs(law.pmf.sum() - 1.0) > TOLERANCE:
                problems.append(f"excursion law at {law.k} not a pmf")
        return problems

    @staticmethod
    def compare(outputs, reference):
        problems = []
        for key, want in reference.items():
            got = outputs[key]
            pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
            for a, b in pairs:
                if not (abs(a - b) <= TOLERANCE
                        or abs(a - b) <= TOLERANCE * abs(b)):
                    problems.append(f"{key}: {a!r} != {b!r}")
        return problems

    def cover_error(self, seed):
        """max |excursion_cover - 1| over sites 1..N of sample 0."""
        p, kern = EXACT_PARAMS, self.kern
        d = copolymer.sample_disorder(GAUSSIAN, GAUSSIAN, EXACT_N, p.h, seed,
                                      0)
        tables = copolymer.forward_tables(d, p, kern)
        cover = copolymer.excursion_cover(tables, d, p, kern)
        return float(np.max(np.abs(cover[1:] - 1.0)))


def _cli_workloads():
    return (
        CliWorkload(
            "clt_large",
            ("clt", "--n-ladder", ",".join(map(str, CLT_LADDER)),
             *REFERENCE_POINT, *GAUSSIAN_LAWS),
            threads=1, replicas=8, replicas_per_op=8, check=_check_clt),
        CliWorkload(
            "scan_small",
            ("phase-scan", "--axis1", "lam", "--axis2", "h_tilde",
             "--values1", ",".join(map(str, SCAN_VALUES1)),
             # "--values2 -0.5,..." would be read as a flag by argparse
             "--values2=" + ",".join(map(str, SCAN_VALUES2)),
             "--n", "512", *REFERENCE_POINT, *GAUSSIAN_LAWS),
            threads=2, replicas=16, replicas_per_op=16 * 9,
            check=_check_scan),
        CliWorkload(
            "maxexc_paths",
            ("maxexc", "--n", str(MAXEXC_N), "--paths", str(MAXEXC_PATHS),
             *LOCALIZED_POINT, *GAUSSIAN_LAWS),
            threads=2, replicas=MAXEXC_REPLICAS,
            replicas_per_op=MAXEXC_REPLICAS, check=_check_maxexc,
            paths_per_op=MAXEXC_REPLICAS * MAXEXC_PATHS),
    )


WORKLOAD_NAMES = ("clt_large", "scan_small", "maxexc_paths", "exact_single")


def get_workload(name):
    if name == "exact_single":
        return ExactWorkload()
    return next(w for w in _cli_workloads() if w.name == name)


# ---------------------------------------------------------------------------
# oracle spot check and stored references

def oracle_spot_check(seed, instances=6):
    """|log_partition_curve - brute_force_partition| on small random
    instances, alternating lam = 0 and lam > 0. Returns the errors."""
    rng = np.random.default_rng([seed, 12])
    kern = build_srw_kernel(12)
    errors = []
    for i in range(instances):
        n = int(rng.integers(4, 13))
        lam = 0.0 if i % 2 == 0 else float(rng.uniform(0.1, 2.0))
        p = ModelParams(lam, float(rng.uniform(0.0, 1.0)),
                        float(rng.uniform(0.0, 2.0)),
                        float(rng.uniform(-1.0, 1.0)))
        d = copolymer.sample_disorder(GAUSSIAN, GAUSSIAN, n, p.h, seed, i)
        dp = copolymer.log_partition_curve(d, p, kern)[n]
        errors.append(abs(dp - brute_force_partition(d, p, kern)))
    return errors


def reference_path(name):
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name, seed):
    """Stored outputs of the first operations for the default seed, else
    None (a held-out seed is checked by invariants and thread equality)."""
    if seed != DEFAULT_SEED:
        return None
    with open(reference_path(name)) as fh:
        return json.load(fh)["ops"]
