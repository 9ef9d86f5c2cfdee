"""Monte Carlo estimation over disorder replicas.

Each estimator draws independent replicas through the counter-based
disorder streams, computes exact per-sample quantities with the DP engine,
and aggregates in fixed replica order, so results are bit-identical for a
given (seed, replica count) regardless of the number of processes.
"""

import math
import multiprocessing
import pickle
# unused here since the fan-out forks its own workers; kept importable for
# bench/tracer.py, whose PoolCounter reads and replaces it
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .disorder import (DisorderLaw, PathRng, disorder_from_arrays,
                       freeze_zero_disorder, sample_disorder)
from .errors import ConfigError, GuardError, NumericsError
from .logspace import logsumexp, softplus
from .observables import excursion_law, max_excursion, sample_path
from .partition import _segments, _table_rows, log_partition_curves

VERDICT_BOUNDED = "BoundedGap"
VERDICT_LOG_GROWTH = "LogGrowth"
VERDICT_INCONCLUSIVE = "Inconclusive"

_LOCALIZED_FLOOR = 1e-3

# float64 cells per array of one batched table pass. The blocked DP's
# cross-block products gain with R (at N = 4096 a batch of 63 curves took
# 5.4 ms per curve, one of 8 took 13.4 ms, on a 2-core x86-64 host), and
# at 2^18 cells (2 MiB) an array stays small beside a worker's memory
_BATCH_CELLS = 1 << 18


def _draw_disorder(laws, n, h, seed, replica):
    """laws = None runs the homogeneous (zero-disorder) model."""
    if laws is None:
        return freeze_zero_disorder(n, h)
    return sample_disorder(laws[0], laws[1], n, h, seed, replica)


# ---------------------------------------------------------------------------
# replica fan-out

def _chunk_indices(replicas, threads, cap=None):
    """As few equal replica chunks as the thread count and the chunk-size cap
    allow (no cap: one chunk per worker)."""
    n_chunks = max(threads, 1 if cap is None else -(-replicas // cap))
    n_chunks = min(replicas, n_chunks)
    bounds = np.linspace(0, replicas, n_chunks + 1).astype(int)
    return [list(range(a, b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _fan_out(commons, replicas, threads):
    """Run every common over replicas 0..replicas-1; per common, return
    its results flattened into replica order.

    At threads > 1 and two or more tasks, P = min(threads, tasks) processes
    share the tasks by a fixed stride: the parent runs tasks 0, P, 2P, ...,
    ceil(tasks / P) of them, and each call forks P - 1 workers, worker w
    running tasks w, w + P, ... and sending its results back through a
    one-way pipe of its own when its share is done. Tasks come grouped, a
    ladder's in increasing n, so the stride gives every process a share of
    every group, not the cheapest groups' tasks. Results merge in task
    order, so no byte depends on which process ran a task. A share stops at
    its first failing task, and the call raises the failure of the
    lowest-index task, which is what threads 1 would raise; a worker that
    dies without reporting fails at its first task. Every worker is joined
    before the call returns or raises.

    Commons that share (n, lam, kern, laws, seed, backward) form a group,
    whose points may differ in h, lam_tilde and h_tilde. A task,
    ``_chunk_task((group, chunk))``, runs one replica chunk of one group in
    one batched pass of points x replicas rows, at most ``_BATCH_CELLS``
    cells per array, a replica counting two rows in a backward group; a
    group with more points than that row cap is split into near-equal
    parts."""
    if replicas < 1:
        raise GuardError(f"need at least one replica, got {replicas}")
    groups = {}
    for i, c in enumerate(commons):
        key = (int(c["n"]), c["p"].lam, id(c["kern"]), c["laws"], c["seed"],
               c["backward"])
        groups.setdefault(key, []).append(i)
    tasks = []
    for (n, *_, backward), members in groups.items():
        cap = max(1, _BATCH_CELLS // ((n + 1) * (1 + backward)))
        # near-equal parts of at most cap points each
        for part in _chunk_indices(len(members), 1, cap):
            points = [members[i] for i in part]
            tasks += [(points, c) for c in
                      _chunk_indices(replicas, threads, cap // len(points))]
    work = [([commons[i] for i in points], c) for points, c in tasks]
    procs = 1 if threads <= 1 else min(threads, len(work))
    parts = [None] * len(work)
    workers, heard = [], 0
    try:
        for first in range(1, procs):
            recv, send = multiprocessing.Pipe(duplex=False)
            workers.append((_start_worker(work, first, procs, send), recv))
            send.close()
        failure = _run_share(work, 0, procs, parts)
        for first, (proc, recv) in enumerate(workers, 1):
            if failure is not None and failure[0] < first:
                break
            try:
                reply = recv.recv()
            except EOFError:
                proc.join()
                reply = first, RuntimeError(
                    f"fan-out worker {proc.pid} exited with code "
                    f"{proc.exitcode} without reporting")
            heard += 1
            if isinstance(reply, list):
                parts[first::procs] = reply
            elif failure is None or reply[0] < failure[0]:
                failure = reply
    finally:
        # a worker not heard from is not needed (or the parent failed)
        for proc, _ in workers[heard:]:
            proc.terminate()
        for proc, recv in workers:
            proc.join()
            recv.close()
    if failure is not None:
        raise failure[1]
    out = [[] for _ in commons]
    for (points, _), part in zip(tasks, parts):
        for i, rows in zip(points, part):
            out[i] += rows
    return out


def _run_share(work, first, step, parts):
    """Run tasks work[first::step] in order into parts[first::step]; stop at
    the first failing task and return (its index, its exception), or None
    once every task is done."""
    for i in range(first, len(work), step):
        try:
            parts[i] = _chunk_task(work[i])
        except Exception as exc:
            return i, exc
    return None


def _start_worker(work, first, step, conn):
    """Start (fork, on Linux) a process that runs work[first::step] and
    sends through conn its results in task order or its first failure."""
    proc = multiprocessing.Process(target=_worker,
                                   args=(work, first, step, conn))
    proc.start()
    return proc


def _worker(work, first, step, conn):
    parts = [None] * len(work)
    failure = _run_share(work, first, step, parts)
    if failure is not None:
        try:
            # an exception that does not survive pickling arrives as its repr
            pickle.loads(pickle.dumps(failure[1]))
        except Exception:
            failure = failure[0], RuntimeError(repr(failure[1]))
    conn.send(parts[first::step] if failure is None else failure)
    conn.close()


def _mean_stderr(x):
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return float(np.mean(x)), 0.0
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


def _column_mean_stderr(x):
    """``_mean_stderr`` of every column of x, as two arrays."""
    return np.array([_mean_stderr(col) for col in x.T]).T


def _columns(rows):
    """Per-replica result tuples as one array per field, replicas first."""
    return [np.array(col) for col in zip(*rows)]


def _log_coin(p, w):
    """log(1 + e^{-2 lam W}): the log numerator of the mu estimator."""
    return softplus(-2.0 * p.lam * w)


def _mu_hat(log_terms, n):
    """-(1/N) log of the replica mean of exp(log_terms)."""
    return -(logsumexp(log_terms) - math.log(len(log_terms))) / n


def _weighted_line_fit(x, y, w):
    """Weighted least squares line y = a + b x; returns (a, b, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    total = w.sum()
    if x.size < 2 or total <= 0:
        raise GuardError("need at least two points for a fit")
    xb = float(np.sum(w * x) / total)
    yb = float(np.sum(w * y) / total)
    sxx = float(np.sum(w * (x - xb) ** 2))
    if sxx == 0.0:
        raise GuardError("degenerate fit abscissa")
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    intercept = yb - slope * xb
    resid = y - intercept - slope * x
    ss_res = float(np.sum(w * resid ** 2))
    ss_tot = float(np.sum(w * (y - yb) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return intercept, slope, r2


def _exponential_fit(rows, x, floor, keep=True):
    """Column mean and stderr of the replica rows, and the weighted line fit
    (intercept, slope, r^2) of log(mean) against x over the ``keep`` columns
    whose mean exceeds ``floor`` >= 0, weighted by 1/max(rel. stderr, 1e-3)^2;
    the fit is None below two such columns."""
    rows = np.stack(rows)
    mean = rows.mean(axis=0)
    se = (rows.std(axis=0, ddof=1) / math.sqrt(len(rows)) if len(rows) > 1
          else np.zeros_like(mean))
    keep = keep & (mean > floor)
    if keep.sum() < 2:
        return mean, se, None
    wts = 1.0 / np.maximum(se[keep] / mean[keep], 1e-3) ** 2
    return mean, se, _weighted_line_fit(x[keep], np.log(mean[keep]), wts)


def _validate_ladder(n_ladder):
    ladder = [int(v) for v in n_ladder]
    if not ladder or any(v < 1 for v in ladder):
        raise ConfigError("n_ladder must contain positive lengths")
    if sorted(ladder) != ladder or len(set(ladder)) != len(ladder):
        raise ConfigError("n_ladder must be strictly increasing")
    return ladder


# ---------------------------------------------------------------------------
# the chunk worker (top level, like its hooks, so they pickle)

def _chunk_task(task):
    """Run one replica chunk of a group of commons (``_fan_out``), which
    share n, kern, laws, seed, backward and p.lam: draw each replica of the
    chunk once per h, build every point's tables in one batched pass (with
    their backward tables, if "backward"), rows point-major, and return,
    per common, ``common["hook"](common, chunk, samples, tables)`` on its
    own samples and tables. A common also holds p and the hook's own keys."""
    commons, chunk = task
    first = commons[0]
    draws = {h: [_draw_disorder(first["laws"], first["n"], h, first["seed"], r)
                 for r in chunk] for h in {c["p"].h for c in commons}}
    tables = _table_rows([d for c in commons for d in draws[c["p"].h]],
                         [c["p"] for c in commons for _ in chunk],
                         first["kern"], first["backward"])
    k = len(chunk)
    # hand each hook the only reference to its tables, so it can drop them
    parts = [tables[i:i + k] for i in range(0, len(tables), k)][::-1]
    del tables
    return [c["hook"](c, chunk, draws[c["p"].h], parts.pop())
            for c in commons]


def _per_replica(common, chunk, samples, tables):
    """``common["per_sample"](common, r, d, tables)`` per replica, dropping
    each replica's tables, and their sampler window, once its row is done."""
    tables.reverse()
    return [common["per_sample"](common, r, d, tables.pop())
            for r, d in zip(chunk, samples)]


def _curve_sample(c, r, d, tables):
    return tables.log_zf[c["sites"]], d.w_prefix[c["sites"]]


def _gather_curves(points, kern, laws, n_ladder, replicas, seed, threads):
    """log Z and W at the ladder sites for every model point in ``points``,
    all points in one fan-out (those that share lam in shared passes);
    returns (sites, [(z, w) per point]) with
    (replicas, sites) arrays z and w."""
    sites = np.asarray(_validate_ladder(n_ladder))
    commons = [dict(hook=_per_replica, per_sample=_curve_sample,
                    backward=False, p=p, kern=kern, laws=laws, seed=seed,
                    n=sites[-1], sites=sites) for p in points]
    return sites, [tuple(_columns(rows))
                   for rows in _fan_out(commons, replicas, threads)]


# ---------------------------------------------------------------------------
# free energy

@dataclass(frozen=True)
class FreeEnergyEstimate:
    n: int
    replicas: int
    f_hat: float
    stderr: float
    f_extrapolated: float  # 2 f_2N - f_N from the previous rung; NaN if none


def estimate_free_energy(p, kern, laws, n_ladder, replicas, seed,
                         threads=1):
    """Mean and stderr of (1/N) log Z per ladder rung, plus Richardson
    extrapolation across doubling rungs."""
    if replicas < 2:
        raise GuardError("free-energy estimation needs replicas >= 2")
    sites, [(z, _)] = _gather_curves([p], kern, laws, n_ladder, replicas,
                                     seed, threads)
    out = []
    prev = None
    for j, n in enumerate(sites):
        f_hat, se = _mean_stderr(z[:, j] / n)
        extrap = math.nan
        if prev is not None and n == 2 * prev[0]:
            extrap = 2.0 * f_hat - prev[1]
        out.append(FreeEnergyEstimate(n=int(n), replicas=replicas,
                                      f_hat=f_hat, stderr=se,
                                      f_extrapolated=extrap))
        prev = (n, f_hat)
    return out


# ---------------------------------------------------------------------------
# inverse-partition decay rate mu

@dataclass(frozen=True)
class MuEstimate:
    n: int
    mu_hat: float
    mu_stderr: float
    mu_hat_symmetric: float
    f_hat: float
    f_stderr: float


def estimate_mu(p, kern, laws, n_ladder, replicas, seed, threads=1):
    """mu_hat = -(1/N) log mean_r (1 + e^{-2 lam W_N}) / Z_N per rung.

    The ratio estimator is heavy-tailed; a few hundred replicas are needed
    before the stderr (delta method on the replica mean) is meaningful.
    ``mu_hat_symmetric`` is the numerator-1 variant, equivalent in the
    limit whenever the omega law is symmetric (all built-in laws are).
    """
    if replicas < 2:
        raise GuardError("mu estimation needs replicas >= 2")
    sites, [(z, w)] = _gather_curves([p], kern, laws, n_ladder, replicas,
                                     seed, threads)
    out = []
    for j, n in enumerate(sites):
        terms = _log_coin(p, w[:, j]) - z[:, j]
        mu_hat = _mu_hat(terms, n)
        mu_sym = _mu_hat(-z[:, j], n)
        shift = float(np.max(terms))
        x = np.exp(terms - shift)
        mu_se = float(np.std(x, ddof=1) / (np.mean(x) * math.sqrt(replicas) * n))
        f_hat, f_se = _mean_stderr(z[:, j] / n)
        out.append(MuEstimate(n=int(n), mu_hat=float(mu_hat), mu_stderr=mu_se,
                              mu_hat_symmetric=float(mu_sym),
                              f_hat=f_hat, f_stderr=f_se))
    return out


# ---------------------------------------------------------------------------
# correlation decay

@dataclass(frozen=True)
class DecayFit:
    distances: np.ndarray
    mean_abs_cov: np.ndarray
    stderr: np.ndarray
    c2_hat: float
    c1_hat: float
    r_squared: float
    anchor: int


def _decay_chunk(c, chunk, samples, tables):
    """Each replica's |covariances| at the chunk's one anchor, with the
    segments of all its replicas from one batched pass."""
    n, anchor, dists = c["n"], c["anchor"], c["distances"]
    sites = anchor + dists
    segs = _segments([(d.w_prefix, t.log_zeta_sites, anchor, int(sites[-1]))
                      for d, t in zip(samples, tables)],
                     c["kern"].log_k, c["p"].lam)
    rows = []
    for t, seg in zip(tables, segs):
        zf, zb = t.log_zf, t.log_zb
        log_z = zf[n]
        pj = math.exp(zf[anchor] + zb[anchor] - log_z)
        joint = np.exp(zf[anchor] + seg[dists] + zb[sites] - log_z)
        single = np.exp(zf[sites] + zb[sites] - log_z)
        rows.append(np.abs(joint - pj * single))
    return rows


def fit_correlation_decay(p, kern, laws, n, replicas, distances, seed,
                          threads=1):
    """Disorder-averaged |cov(delta_j, delta_{j+d})| with an exponential
    fit in d; the anchor sits at j = N/4 so one segment pass covers every
    distance. Distances below 4 are excluded from the fit (contact-term
    contamination), as are rows whose mean sits at the floor of exact
    arithmetic (1e-14)."""
    dists = np.asarray(sorted(int(v) for v in distances))
    if dists.size == 0 or dists[0] <= 0 or dists[-1] >= 3 * n / 4:
        raise GuardError("distances must lie strictly inside (0, 3N/4)")
    anchor = n // 4
    if anchor < 1 or anchor + dists[-1] > n:
        raise GuardError("system too short for the requested distances")
    common = dict(hook=_decay_chunk, backward=True, p=p, kern=kern, laws=laws,
                  seed=seed, n=n, anchor=anchor, distances=dists)
    rows = _fan_out([common], replicas, threads)[0]
    mean, se, fit = _exponential_fit(rows, dists, 1e-14, keep=dists >= 4)
    if fit is None:
        raise GuardError("not enough usable distances for the decay fit")
    intercept, slope, r2 = fit
    return DecayFit(distances=dists, mean_abs_cov=mean, stderr=se,
                    c2_hat=-slope, c1_hat=math.exp(intercept),
                    r_squared=r2, anchor=anchor)


# ---------------------------------------------------------------------------
# influence of the boundary

@dataclass(frozen=True)
class BoundaryDecay:
    k_values: np.ndarray
    distances: np.ndarray
    mean_abs_diff: np.ndarray
    stderr: np.ndarray
    rate: float
    r_squared: float


def _boundary_chunk(c, chunk, samples, tables):
    """Each replica's differences per k, with the prefix systems of all
    the chunk's replicas and k from one ``_segments`` call."""
    n, k_list = c["n"], c["k_list"]
    # the prefix system's log Z_{k-m} after m = k // 2: a segment bounded at
    # k, for each k < n (k = n is the same system, identically zero)
    segs = iter(_segments([(d.w_prefix, t.log_zeta_sites, k // 2, k)
                           for d, t in zip(samples, tables)
                           for k in k_list if k < n],
                          c["kern"].log_k, c["p"].lam))
    rows = [np.zeros(len(k_list)) for _ in tables]
    for diffs, t in zip(rows, tables):
        zf, zb = t.log_zf, t.log_zb
        for i, k in enumerate(k_list):
            if k < n:
                m = k // 2
                diffs[i] = abs(math.exp(zf[m] + zb[m] - zf[n])
                               - math.exp(zf[m] + next(segs)[k - m] - zf[k]))
    return rows


def boundary_influence(p, kern, laws, n, k_list, replicas, seed, threads=1):
    """E|E_N(delta_{k/2}) - E_k(delta_{k/2})| for nested system sizes k,
    with an exponential fit against the distance k - k//2 (k = N is allowed
    and contributes an exact zero)."""
    k_list = sorted(int(k) for k in k_list)
    if not k_list or k_list[0] < 2 or k_list[-1] > n:
        raise GuardError("each k must satisfy 2 <= k <= N")
    common = dict(hook=_boundary_chunk, backward=True, p=p, kern=kern,
                  laws=laws, seed=seed, n=n, k_list=k_list)
    rows = _fan_out([common], replicas, threads)[0]
    dist = np.array([k - k // 2 for k in k_list], dtype=float)
    mean, se, fit = _exponential_fit(rows, dist, 1e-14)
    rate, r2 = (-fit[1], fit[2]) if fit else (math.nan, math.nan)
    return BoundaryDecay(k_values=np.asarray(k_list), distances=dist,
                         mean_abs_diff=mean, stderr=se, rate=rate,
                         r_squared=r2)


# ---------------------------------------------------------------------------
# maximal excursion

@dataclass(frozen=True)
class MaxExcursionStudy:
    n: int
    replicas: int
    paths_per_replica: int
    mu_hat: float
    f_hat: float
    f_stderr: float
    localized_guard: bool
    deltas: np.ndarray            # (replicas, paths) maximal excursion lengths
    frac_within: dict             # eps -> fraction with Delta/log N in (1±eps)/mu
    tail: dict                    # C -> fraction with Delta > C log N


# the eps of frac_within and the C of tail in every MaxExcursionStudy
_EPS_GRID = (0.3, 0.5)
_C_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _maxexc_sample(c, r, d, tables):
    p, kern, n = c["p"], c["kern"], c["n"]
    deltas = np.array([max_excursion(sample_path(tables, d, p, kern,
                                                 PathRng(c["seed"], r, i)))
                       for i in range(c["paths"])], dtype=int)
    return float(tables.log_zf[n]), _log_coin(p, d.w_prefix[n]), deltas


def max_excursion_study(p, kern, laws, n_ladder, replicas, paths_per_replica,
                        seed, threads=1):
    """Sample maximal excursions and report Delta_N / log N concentration.

    Expects localized parameters; the guard flag records whether
    f_hat > 5 stderr held. At mu_hat <= 0 the concentration fractions are
    reported as NaN (out of the theorem's domain). Every rung runs in one
    fan-out."""
    ladder = _validate_ladder(n_ladder)
    if ladder[0] < 2:
        # the scale log N is 0 at N = 1
        raise ConfigError("maxexc needs N >= 2")
    if paths_per_replica < 1:
        raise GuardError("need at least one path per replica")
    commons = [dict(hook=_per_replica, per_sample=_maxexc_sample,
                    backward=False, p=p, kern=kern, laws=laws, seed=seed, n=n,
                    paths=paths_per_replica) for n in ladder]
    out = []
    for n, rows in zip(ladder, _fan_out(commons, replicas, threads)):
        log_z, log_num, deltas = _columns(rows)
        f_hat, f_se = _mean_stderr(log_z / n)
        mu_hat = _mu_hat(log_num - log_z, n)
        guard = f_hat > 5.0 * f_se
        ratio = deltas / math.log(n)
        frac_within = {}
        tail = {}
        for eps in _EPS_GRID:
            if mu_hat > 0:
                lo, hi = (1.0 - eps) / mu_hat, (1.0 + eps) / mu_hat
                frac_within[eps] = float(np.mean((ratio >= lo) & (ratio <= hi)))
            else:
                frac_within[eps] = math.nan
        for c in _C_GRID:
            tail[c] = float(np.mean(deltas > c * math.log(n)))
        out.append(MaxExcursionStudy(
            n=n, replicas=replicas, paths_per_replica=paths_per_replica,
            mu_hat=float(mu_hat), f_hat=f_hat, f_stderr=f_se,
            localized_guard=bool(guard), deltas=deltas,
            frac_within=frac_within, tail=tail))
    return out


# ---------------------------------------------------------------------------
# per-excursion rate

@dataclass(frozen=True)
class ExcursionRateCheck:
    k: int
    s_values: np.ndarray
    mean_pmf: np.ndarray
    annealed_rate_raw: float
    annealed_rate: float          # kernel prefactor divided out
    replica_rates: np.ndarray     # kernel-corrected, one per replica
    f_hat: float
    f_stderr: float
    mu_hat: float


def _exc_rate_sample(c, r, d, tables):
    p, kern, n = c["p"], c["kern"], c["n"]
    law = excursion_law(c["k"], tables, d, p, kern)
    return (float(tables.log_zf[n]), _log_coin(p, d.w_prefix[n]),
            law.pmf.copy())


def excursion_rate_check(p, kern, laws, n, k, replicas, seed,
                         s_min=4, s_max=None, threads=1):
    """Exponential rate of the excursion-length law at a bulk site.

    Per-replica rates estimate the almost-sure (free-energy) exponent; the
    rate of the disorder-averaged pmf estimates the annealed (mu) exponent.
    Fits are done on log(pmf(s) / (K(s) (s+1))): dividing out the kernel and
    the exact multiplicity of (left, right) splits of a bulk excursion
    removes the polynomial bias of the slope at desk scale. The raw-pmf
    slope is reported alongside.
    """
    if not 1 <= k <= n - 1:
        raise GuardError(f"site must satisfy 1 <= k <= n-1, got {k}")
    if s_max is None:
        s_max = min(n // 2, 64, k, n - k)
    if not 1 <= s_min < s_max <= min(k, n - k, n // 2):
        raise GuardError("s fit range must sit in the bulk around k")
    common = dict(hook=_per_replica, per_sample=_exc_rate_sample,
                  backward=True, p=p, kern=kern, laws=laws, seed=seed, n=n,
                  k=k)
    rows = _fan_out([common], replicas, threads)[0]
    log_z, log_num, pmfs = _columns(rows)
    s = np.arange(s_min, s_max + 1)
    if not np.all(pmfs[:, s] > 0.0):
        raise GuardError(f"excursion pmf underflows to 0 in s = {s_min}.."
                         f"{s_max}: no rate to fit")
    base = kern.log_k[s] + np.log(s + 1.0)
    ones = np.ones_like(s, dtype=float)
    rates = np.empty(replicas)
    for i in range(replicas):
        _, slope, _ = _weighted_line_fit(s, np.log(pmfs[i, s]) - base, ones)
        rates[i] = -slope
    mean_pmf = pmfs.mean(axis=0)
    _, slope_corr, _ = _weighted_line_fit(s, np.log(mean_pmf[s]) - base, ones)
    _, slope_raw, _ = _weighted_line_fit(s, np.log(mean_pmf[s]), ones)
    f_hat, f_se = _mean_stderr(log_z / n)
    mu_hat = _mu_hat(log_num - log_z, n)
    return ExcursionRateCheck(k=k, s_values=s, mean_pmf=mean_pmf,
                              annealed_rate_raw=-slope_raw,
                              annealed_rate=-slope_corr,
                              replica_rates=rates, f_hat=f_hat,
                              f_stderr=f_se, mu_hat=float(mu_hat))


# ---------------------------------------------------------------------------
# CLT for log Z

@dataclass(frozen=True)
class CltReport:
    n_ladder: np.ndarray
    var_over_n: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    ks_statistic: np.ndarray


def _normal_cdf(z):
    return 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in z])


def clt_study(p, kern, laws, n_ladder, replicas, seed, threads=1):
    """Variance scaling and normality diagnostics of log Z_N over disorder.

    Moment diagnostics stabilize around >= 500 replicas. The KS distance is
    taken against the normal law with fitted mean and variance.
    """
    if replicas < 8:
        raise GuardError("clt study needs replicas >= 8")
    sites, [(z, _)] = _gather_curves([p], kern, laws, n_ladder, replicas,
                                     seed, threads)
    var_over_n = np.empty(len(sites))
    skew = np.empty(len(sites))
    kurt = np.empty(len(sites))
    ks = np.empty(len(sites))
    for j, n in enumerate(sites):
        x = z[:, j]
        mean = float(np.mean(x))
        var1 = float(np.var(x, ddof=1))
        var_over_n[j] = var1 / n
        if var1 == 0.0:
            skew[j] = 0.0
            kurt[j] = 0.0
            ks[j] = math.nan
            continue
        c = x - mean
        m2 = float(np.mean(c ** 2))
        skew[j] = float(np.mean(c ** 3)) / m2 ** 1.5
        kurt[j] = float(np.mean(c ** 4)) / m2 ** 2 - 3.0
        std = math.sqrt(var1)
        u = np.sort((x - mean) / std)
        cdf = _normal_cdf(u)
        grid = np.arange(1, replicas + 1) / replicas
        ks[j] = float(np.max(np.maximum(np.abs(cdf - grid),
                                        np.abs(cdf - grid + 1.0 / replicas))))
    return CltReport(n_ladder=sites, var_over_n=var_over_n, skewness=skew,
                     excess_kurtosis=kurt, ks_statistic=ks)


# ---------------------------------------------------------------------------
# finite-size corrections

@dataclass(frozen=True)
class FiniteSizeReport:
    n_ladder: np.ndarray
    f_n: np.ndarray
    f_stderr: np.ndarray
    pair_n: np.ndarray            # pairs (N, 2N) labelled by N
    scaled_gap: np.ndarray        # estimate of N (f_2N - f_N)
    gap_stderr: np.ndarray
    diff_mean: np.ndarray         # per-pair mean of f_2N - f_N (same replicas)
    diff_stderr: np.ndarray
    verdict: str


def _finite_size_chunk(c, chunk, samples, tables):
    """Per replica: log Z at the ladder sites and the superadditivity gaps
    xi_n = log Z_2n - log Z_n - log Z_n(shifted by n) of every rung below
    the top, from one batched pass per rung over the windows (n, 2n]."""
    p, kern, sites = c["p"], c["kern"], c["sites"]
    z = np.array([t.log_zf[sites] for t in tables])
    xis = []
    for i, n in enumerate(sites[:-1]):
        windows = [disorder_from_arrays(d.omega[n + 1:2 * n + 1],
                                        d.omega_tilde[n + 1:2 * n + 1], p.h)
                   for d in samples]
        z_shift = log_partition_curves(windows, p, kern)[:, n]
        xi = z[:, i + 1] - z[:, i] - z_shift
        broken = ~(xi >= -1e-8 * np.maximum(1.0, np.abs(z[:, i + 1])))
        if np.any(broken):
            raise NumericsError(f"superadditivity violated: xi={xi[broken][0]}")
        xis.append(xi)
    return list(zip(z, np.stack(xis, axis=1)))


def _finite_size_verdict(gaps, errs):
    if len(gaps) < 3:
        return VERDICT_INCONCLUSIVE
    g = np.asarray(gaps[-3:], dtype=float)
    e = np.asarray(errs[-3:], dtype=float)
    if np.any(g <= 0):
        return VERDICT_INCONCLUSIVE
    tol01 = max(2.0 * math.hypot(e[0], e[1]), 1e-9 * abs(g[1]))
    tol12 = max(2.0 * math.hypot(e[1], e[2]), 1e-9 * abs(g[2]))
    inc01, inc12 = g[1] - g[0], g[2] - g[1]
    within_factor_two = g.max() <= 2.0 * g.min()
    if within_factor_two and inc01 <= tol01 and inc12 <= tol12:
        return VERDICT_BOUNDED
    if inc01 > tol01 and inc12 > tol12:
        return VERDICT_LOG_GROWTH
    return VERDICT_INCONCLUSIVE


def finite_size_study(p, kern, laws, n_ladder, replicas, seed, threads=1):
    """Scaled free-energy gaps N (f_2N - f_N) along a doubling ladder.

    The gap is estimated per replica through the pinned-midpoint identity
    N (f_2N - f_N) = -1/2 E log P_2N(S_N = 0), which has O(1) variance,
    rather than by differencing two independent f estimates."""
    sites = np.asarray(_validate_ladder(n_ladder))
    if np.any(sites[1:] != 2 * sites[:-1]):
        raise GuardError("finite-size ladder must double at every rung")
    if len(sites) < 5:
        raise GuardError("need a ladder of at least 4 doublings")
    common = dict(hook=_finite_size_chunk, backward=False, p=p, kern=kern,
                  laws=laws, seed=seed, n=sites[-1], sites=sites)
    z, xi = _columns(_fan_out([common], replicas, threads)[0])
    f_n, f_se = _column_mean_stderr(z / sites)
    gaps, gap_se = _column_mean_stderr(0.5 * xi)
    diff, diff_se = _column_mean_stderr(z[:, 1:] / (2 * sites[:-1])
                                        - z[:, :-1] / sites[:-1])
    verdict = _finite_size_verdict(gaps, gap_se)
    return FiniteSizeReport(n_ladder=sites, f_n=f_n, f_stderr=f_se,
                            pair_n=sites[:-1].copy(), scaled_gap=gaps,
                            gap_stderr=gap_se, diff_mean=diff,
                            diff_stderr=diff_se, verdict=verdict)


# ---------------------------------------------------------------------------
# entropy-shift upper bound on mu

@dataclass(frozen=True)
class EntropyBoundReport:
    epsilon_grid: np.ndarray
    bound_values: np.ndarray
    bound_stderr: np.ndarray
    best_bound: float
    best_epsilon: float
    mu_hat: float
    f_hat: float
    f_stderr: float
    gap: float


def entropy_bound(p, kern, laws, replicas, n, epsilon_grid, seed, threads=1):
    """Gaussian-shift upper bound on mu: min_eps eps^2/2 + F(h_tilde - eps).

    The relative entropy per site of shifting a standard Gaussian mean by
    -eps is exactly eps^2/2, so each grid point bounds mu from above; a
    best bound strictly below F witnesses mu < F. The same replicas are
    reused across the grid (the bound curve is smooth in eps)."""
    if laws[1] != DisorderLaw.GAUSSIAN:
        raise ConfigError("entropy bound requires Gaussian omega_tilde")
    if p.lam_tilde <= 0:
        raise ConfigError("entropy bound requires lam_tilde > 0")
    eps_grid = np.asarray(sorted(float(e) for e in epsilon_grid))
    if eps_grid.size == 0:
        raise GuardError("epsilon grid must be non-empty")
    # eps = 0 is always evaluated: it is the base point for f_hat and mu_hat
    eps_full = eps_grid if 0.0 in eps_grid else np.sort(np.append(eps_grid, 0.0))
    points = [p.replace(h_tilde=p.h_tilde - eps) for eps in eps_full]
    _, curves = _gather_curves(points, kern, laws, [n], replicas, seed,
                               threads)
    f = {eps: _mean_stderr(z[:, 0] / n) for eps, (z, _) in zip(eps_full, curves)}
    f_hat, f_se = f[0.0]
    # the charges, and so W_n, are those of every point
    z0, w = curves[int(np.searchsorted(eps_full, 0.0))]
    mu_hat = _mu_hat(_log_coin(p, w[:, 0]) - z0[:, 0], n)
    bounds = np.array([0.5 * eps * eps + f[eps][0] for eps in eps_grid])
    bound_se = np.array([f[eps][1] for eps in eps_grid])
    best = int(np.argmin(bounds))
    return EntropyBoundReport(epsilon_grid=eps_grid, bound_values=bounds,
                              bound_stderr=bound_se,
                              best_bound=float(bounds[best]),
                              best_epsilon=float(eps_grid[best]),
                              mu_hat=float(mu_hat), f_hat=f_hat,
                              f_stderr=f_se,
                              gap=float(bounds[best] - mu_hat))


# ---------------------------------------------------------------------------
# two-replica meet probability

@dataclass(frozen=True)
class MeetDecay:
    window_sizes: np.ndarray
    mean_prob: np.ndarray
    stderr: np.ndarray
    rate: float
    r_squared: float


def _meet_sample(c, r, d, tables):
    p, kern, n, seed = c["p"], c["kern"], c["n"], c["seed"]
    windows, pairs = np.asarray(c["windows"]), c["pairs"]
    a = (n - windows) // 2
    b = a + windows
    freq = np.zeros(windows.size)
    for i in range(pairs):
        r1 = sample_path(tables, d, p, kern, PathRng(seed, r, 2 * i))
        r2 = sample_path(tables, d, p, kern, PathRng(seed, r, 2 * i + 1))
        shared = np.intersect1d(r1.returns, r2.returns, assume_unique=True)
        # no shared return t with a < t < b
        freq += (shared.searchsorted(b) == shared.searchsorted(a, "right"))
    return freq / pairs


def meet_probability(p, kern, laws, n, window_sizes, replicas,
                     paths_per_replica, seed, threads=1):
    """P over two independent paths of never meeting at zero inside a
    centered window, estimated per disorder sample and averaged, with an
    exponential fit in the window size."""
    windows = sorted(int(s) for s in window_sizes)
    if not windows or windows[0] < 1 or windows[-1] > n:
        raise GuardError("window sizes must lie in 1..N")
    if paths_per_replica < 1:
        raise GuardError("need at least one path pair per replica")
    common = dict(hook=_per_replica, per_sample=_meet_sample, backward=False,
                  p=p, kern=kern, laws=laws, seed=seed, n=n, windows=windows,
                  pairs=paths_per_replica)
    rows = _fan_out([common], replicas, threads)[0]
    mean, se, fit = _exponential_fit(rows, np.asarray(windows, dtype=float),
                                     0.0)
    rate, r2 = (-fit[1], fit[2]) if fit else (math.nan, math.nan)
    return MeetDecay(window_sizes=np.asarray(windows), mean_prob=mean,
                     stderr=se, rate=rate, r_squared=r2)


# ---------------------------------------------------------------------------
# phase scan

_AXES = ("lam", "h", "lam_tilde", "h_tilde")


@dataclass(frozen=True)
class PhasePoint:
    axis1_value: float
    axis2_value: float
    f_hat: float
    stderr: float
    localized: bool


def phase_scan(axis1, axis2, values1, values2, base_params, kern, laws, n,
               replicas, seed, threads=1):
    """Classify grid points as localized via F_hat > max(3 stderr, 1e-3).

    The floor guards near-critical ambiguity; the paper gives no finite-N
    criterion."""
    if axis1 not in _AXES or axis2 not in _AXES or axis1 == axis2:
        raise ConfigError(f"axes must be two distinct of {_AXES}")
    values1 = list(values1)
    values2 = list(values2)
    if not values1 or not values2:
        raise GuardError("phase grid must be non-empty")
    grid = [(v1, v2) for v1 in values1 for v2 in values2]
    points = [base_params.replace(**{axis1: v1, axis2: v2}) for v1, v2 in grid]
    _, curves = _gather_curves(points, kern, laws, [n], replicas, seed,
                               threads)
    out = []
    for (v1, v2), (z, _) in zip(grid, curves):
        f_hat, se = _mean_stderr(z[:, 0] / n)
        localized = f_hat > max(3.0 * se, _LOCALIZED_FLOOR)
        out.append(PhasePoint(axis1_value=float(v1), axis2_value=float(v2),
                              f_hat=f_hat, stderr=se,
                              localized=bool(localized)))
    return out
