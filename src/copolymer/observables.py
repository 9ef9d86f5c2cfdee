"""Exact per-sample polymer-measure quantities.

All probabilities here are exact functionals of the partition tables (no
Monte Carlo): contact profiles, negative-sign occupation, joint and
truncated (connected) correlations, the law of the excursion covering a
site, and exact backward sampling of whole paths from the same tables.

Only the return set and the excursion signs are ever materialized; the
interaction depends on nothing else.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .disorder import DisorderSample, PathRng
from .errors import GuardError, NumericsError
from .kernel import ReturnKernel
from .logspace import scalar_sigmoid
from .partition import (ModelParams, PartitionTables, _check_horizon,
                        _log_weight_base, _log_weight_into, segment_tables)


@dataclass(frozen=True)
class ContactProfile:
    """p_contact[k] = P(S_k = 0); p_neg[k] = P(site k sits in a
    negative-sign excursion). Index 0 is the pinned origin."""

    p_contact: np.ndarray
    p_neg: np.ndarray


@dataclass(frozen=True)
class PathSample:
    """One exactly-sampled path: return sites (ascending, ending at n) and
    the sign of the excursion closing at each return."""

    returns: tuple
    signs: tuple


@dataclass(frozen=True)
class ExcursionLaw:
    """pmf[s] = P(the excursion covering site k has length s)."""

    k: int
    pmf: np.ndarray


def _check_tables(tables: PartitionTables, d: DisorderSample,
                  kern: ReturnKernel):
    """The sample must have the tables' length and fit the kernel horizon."""
    if d.n != tables.n:
        raise GuardError(f"sample has n = {d.n}, tables have n = {tables.n}")
    _check_horizon(d, kern)


def _excursion_probability_scan(tables, d, p, kern, weight_neg):
    """Accumulate per-site sums of excursion probabilities, O(N^2).

    For every excursion (u, t] the probability of seeing exactly that
    excursion is Zf[u] * K * coin * zeta_t * Zb[t] / Z_n; the contribution
    (optionally weighted by the excursion's negative-sign fraction) is
    spread over the covered sites u+1..t with a difference array. Each row
    runs in O(N) scratch buffers, and its sign fraction sigmoid(y) reuses
    the exp(-|y|) of its log weight.
    """
    n = tables.n
    zf, zb, lz = tables.log_zf, tables.log_zb, tables.log_zeta_sites
    w = d.w_prefix
    lam = p.lam
    base = _log_weight_base(kern.log_k, lam)
    # exp(-|y|) and y >= 0 feed sigmoid(y) only where it varies (lam > 0);
    # at lam = 0 it is exactly 1/2
    signed = weight_neg and lam != 0.0
    buf, aux = np.empty(n), np.empty(n)
    e_buf = np.empty(n) if signed else None
    pos_buf = np.empty(n, dtype=bool) if signed else None
    diff = np.zeros(n + 2)
    for u in range(n):
        length = n - u
        x = buf[:length]
        a = aux[:length]
        e = e_buf[:length] if signed else None
        pos = pos_buf[:length] if signed else None
        _log_weight_into(x, a, base[1:length + 1], w[u + 1:], w[u], lam,
                         exp_out=e, pos_out=pos)
        np.add(zf[u], x, out=x)
        np.add(x, lz[u + 1:], out=x)
        np.add(x, zb[u + 1:], out=x)
        np.subtract(x, zf[n], out=x)
        np.exp(x, out=x)
        if signed:
            # sigmoid(y): 1/(1 + e) where y >= 0, e/(1 + e) elsewhere
            np.add(1.0, e, out=a)
            np.divide(e, a, out=e)
            np.divide(1.0, a, out=a)
            np.copyto(e, a, where=pos)
            np.multiply(x, e, out=x)
        elif weight_neg:
            np.multiply(x, 0.5, out=x)
        diff[u + 1] += np.add.reduce(x)
        tail = diff[u + 2:]
        np.subtract(tail, x, out=tail)
    return np.cumsum(diff)[:n + 1]


def contact_profile(tables: PartitionTables, d: DisorderSample,
                    p: ModelParams, kern: ReturnKernel) -> ContactProfile:
    """Exact contact and negative-sign profiles for one sample.

    When (d, p, kern) is the triple the tables were built from, the profile
    is built once and cached on them, and its arrays are read-only.
    """
    _check_tables(tables, d, kern)
    cached = tables.built_from(d, p, kern)
    if cached and tables._profile is not None:
        return tables._profile
    n = tables.n
    p_contact = np.exp(tables.log_zf + tables.log_zb - tables.log_zf[n])
    p_neg = _excursion_probability_scan(tables, d, p, kern, weight_neg=True)
    p_contact.flags.writeable = False
    p_neg.flags.writeable = False
    prof = ContactProfile(p_contact=p_contact, p_neg=p_neg)
    if cached:
        tables._profile = prof
    return prof


def excursion_cover(tables: PartitionTables, d: DisorderSample,
                    p: ModelParams, kern: ReturnKernel) -> np.ndarray:
    """Total excursion probability covering each site; identically 1 for
    every site >= 1 (partition of unity over excursions)."""
    _check_tables(tables, d, kern)
    return _excursion_probability_scan(tables, d, p, kern, weight_neg=False)


def joint_contact_probability(sites, tables: PartitionTables,
                              d: DisorderSample, p: ModelParams,
                              kern: ReturnKernel) -> float:
    """P(S_site = 0 simultaneously at every listed site), exactly.

    Each consecutive pair (a, b) reads log Z_{b-a} from the segment at a
    bounded at b, an O((b - a)^2) pass with the full segment's bits.
    """
    _check_tables(tables, d, kern)
    sites = list(sites)
    if not sites or any(not 1 <= s <= tables.n for s in sites):
        raise GuardError("sites must lie in 1..n")
    if any(b <= a for a, b in zip(sites[:-1], sites[1:])):
        raise GuardError("sites must be strictly increasing")
    log_p = (tables.log_zf[sites[0]] + tables.log_zb[sites[-1]]
             - tables.log_zf[tables.n])
    for a, b in zip(sites[:-1], sites[1:]):
        log_p += segment_tables(a, d, p, kern, tables, stop=b)[b]
    return float(np.exp(log_p))


def _set_partitions(items):
    if len(items) == 1:
        yield [items]
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def ursell(sites, joints) -> float:
    """Truncated correlation of the contact indicators at 2..4 sites.

    ``joints`` maps every sorted tuple of a nonempty subset of ``sites`` to
    the joint contact probability. The partition sum
    sum_P (-1)^{|P|-1} (|P|-1)! prod_{B in P} E[prod_B delta] is evaluated
    literally (15 partitions at order 4).
    """
    sites = sorted(sites)
    if not 2 <= len(sites) <= 4:
        raise GuardError("ursell order must be between 2 and 4")
    if len(set(sites)) != len(sites):
        raise GuardError("sites must be distinct")
    fact = (1.0, 1.0, 2.0, 6.0)  # (|P|-1)! for |P| up to 4
    total = 0.0
    for part in _set_partitions(sites):
        prod = 1.0
        for block in part:
            prod *= joints[tuple(sorted(block))]
        total += (-1.0) ** (len(part) - 1) * fact[len(part) - 1] * prod
    return total


def ursell_from_tables(sites, tables, d, p, kern) -> float:
    """Convenience wrapper computing all needed subset joints exactly."""
    sites = sorted(sites)
    joints = {}
    for r in range(1, len(sites) + 1):
        for sub in combinations(sites, r):
            joints[sub] = joint_contact_probability(sub, tables, d, p, kern)
    return ursell(sites, joints)


def excursion_law(k: int, tables: PartitionTables, d: DisorderSample,
                  p: ModelParams, kern: ReturnKernel) -> ExcursionLaw:
    """Exact pmf of the length of the excursion covering site k.

    The covering excursion runs between returns k-l and k+r with l >= 0,
    r >= 1; its probability is the single-excursion bridge through the
    forward and backward tables.
    """
    _check_tables(tables, d, kern)
    n = tables.n
    if not 1 <= k <= n - 1:
        raise GuardError(f"site must satisfy 1 <= k <= n-1, got {k}")
    zf, zb, lz = tables.log_zf, tables.log_zb, tables.log_zeta_sites
    w = d.w_prefix
    base = _log_weight_base(kern.log_k, p.lam)
    pmf = np.zeros(n + 1)
    # row u holds the excursions (u, t], t = k+1..n, of lengths t - u
    x, aux = np.empty(n - k), np.empty(n - k)
    for u in range(k + 1):
        _log_weight_into(x, aux, base[k + 1 - u:n - u + 1], w[k + 1:], w[u],
                         p.lam)
        np.add(zf[u], x, out=x)
        np.add(x, lz[k + 1:], out=x)
        np.add(x, zb[k + 1:], out=x)
        np.subtract(x, zf[n], out=x)
        np.exp(x, out=x)
        lengths = pmf[k + 1 - u:n - u + 1]
        np.add(lengths, x, out=lengths)
    total = pmf.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise NumericsError(f"excursion law at k={k} sums to {total}")
    return ExcursionLaw(k=k, pmf=pmf)


# cdf entries a row keeps for repeat visits: the returns u = t-32..t-1,
# i.e. excursions of length up to 32 closing at t. In the localized phase
# excursion weights decay exponentially, so nearly every draw lands there.
_TAIL_WIDTH = 32


def _sampling_cdf(t, zf, w, base, lam):
    """Unnormalised cdf of the return u = 0..t-1 before a return at t:
    cumulative Zf[u] * K(t-u) * coin(u, t), scaled by its largest term.
    ``base`` is ``partition._log_weight_base`` of the kernel."""
    x = np.empty(t)
    _log_weight_into(x, np.empty(t), base[t:0:-1], w[t], w[:t], lam)
    np.add(zf[:t], x, out=x)
    np.subtract(x, np.maximum.reduce(x), out=x)
    np.exp(x, out=x)
    return np.cumsum(x, out=x)


class _SamplingRows:
    """What a repeat visit to site t needs of its sampling row: the row
    total cdf[-1] (0 until t is first visited), the edge, i.e. the cdf
    value just left of the last _TAIL_WIDTH entries (-inf when the whole
    row fits), and those entries. O(N * _TAIL_WIDTH) floats in all."""

    __slots__ = ("total", "edge", "tail")

    def __init__(self, n):
        self.total = np.zeros(n + 1)
        self.edge = np.empty(n + 1)
        self.tail = np.empty((n + 1, _TAIL_WIDTH))

    def store(self, t, cdf):
        width = min(t, _TAIL_WIDTH)
        self.total[t] = cdf[-1]
        self.edge[t] = cdf[t - width - 1] if t > width else -np.inf
        self.tail[t, :width] = cdf[t - width:]


def _sampling_rows(tables, d, p, kern):
    """The rows cached on ``tables``, or None when (d, p, kern) is not the
    triple the tables were built from: rows of one coupling never serve
    another."""
    if not tables.built_from(d, p, kern):
        return None
    if tables._rows is None:
        tables._rows = _SamplingRows(tables.n)
    return tables._rows


def sample_path(tables: PartitionTables, d: DisorderSample, p: ModelParams,
                kern: ReturnKernel, rng: PathRng) -> PathSample:
    """Draw one path exactly from the polymer measure by backward sampling.

    From the pinned endpoint, the previous return u is drawn with
    probability proportional to Zf[u] * K(t-u) * coin(u, t); each excursion
    sign is then negative with its exact conditional probability.

    The first visit of any path to site t computes its O(t) row and keeps
    the row's total and its last _TAIL_WIDTH cdf entries on ``tables``. A
    later visit whose target lands in that tail searches only the tail,
    which gives the index the full row gives; any other target recomputes
    the row. Paths are the same whatever their order or number.
    """
    _check_tables(tables, d, kern)
    n = tables.n
    zf = tables.log_zf
    w = d.w_prefix
    lam = p.lam
    base = _log_weight_base(kern.log_k, lam)
    rows = _sampling_rows(tables, d, p, kern)
    t = n
    rev_returns = []
    rev_signs = []
    while t > 0:
        cdf = None
        if rows is not None and rows.total[t] > 0:
            total = rows.total[t]
        else:
            cdf = _sampling_cdf(t, zf, w, base, lam)
            total = cdf[-1]
            if rows is not None:
                rows.store(t, cdf)
        target = rng.uniform() * total
        if cdf is None and target > rows.edge[t]:
            width = min(t, _TAIL_WIDTH)
            u = t - width + int(rows.tail[t, :width].searchsorted(target))
        else:
            if cdf is None:
                cdf = _sampling_cdf(t, zf, w, base, lam)
            u = int(cdf.searchsorted(target))
        if u >= t:
            u = t - 1
        frac_neg = scalar_sigmoid(-2.0 * lam * (w[t] - w[u]))
        sign = -1 if rng.uniform() < frac_neg else 1
        rev_returns.append(t)
        rev_signs.append(sign)
        t = u
    return PathSample(returns=tuple(reversed(rev_returns)),
                      signs=tuple(reversed(rev_signs)))


def max_excursion(path: PathSample) -> int:
    """Largest gap between consecutive elements of {0} union returns."""
    prev = 0
    best = 0
    for r in path.returns:
        best = max(best, r - prev)
        prev = r
    return best


def log_z_gradients(tables: PartitionTables, d: DisorderSample,
                    p: ModelParams, kern: ReturnKernel) -> dict:
    """Analytic gradient of log Z in all four couplings.

    d/dh_tilde = lam_tilde * sum E[delta_n]; d/dlam_tilde =
    sum (omega_tilde + h_tilde) E[delta_n]; d/dh = -2 lam sum E[Delta_n];
    d/dlam = -2 sum (omega + h) E[Delta_n].
    """
    prof = contact_profile(tables, d, p, kern)
    pc = prof.p_contact[1:]
    pn = prof.p_neg[1:]
    return {
        "lam": float(-2.0 * np.sum((d.omega[1:] + p.h) * pn)),
        "h": float(-2.0 * p.lam * np.sum(pn)),
        "lam_tilde": float(np.sum((d.omega_tilde[1:] + p.h_tilde) * pc)),
        "h_tilde": float(p.lam_tilde * np.sum(pc)),
    }
