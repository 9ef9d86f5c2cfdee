"""Exact per-sample polymer-measure quantities.

All probabilities here are exact functionals of the partition tables (no
Monte Carlo): contact profiles, negative-sign occupation, joint and
truncated (connected) correlations, the law of the excursion covering a
site, and exact backward sampling of whole paths from the same tables.

Only the return set and the excursion signs are ever materialized; the
interaction depends on nothing else.

The contact and excursion scans (the profile's p_neg, the excursion cover
and the excursion law) sum O(N^2) excursion probabilities P(u, t). They
run in linear domain: P(u, t) = Kh(t - u) (A_u B_t + A'_u B'_t), with
factors read off the tables (``_linear_factors``), and no pair takes an
exp or a log. Each sum is one direct Toeplitz product per scale band of
returns (``_band_end``), each band under one scale: for the profile scan
and the cover, a correlation per band of rows and per band of the
reversed factors (``_row_sums``); for the excursion law, a convolution.
A call whose kernel falls below e^-_EXP_LIMIT, or whose scaled factors
are not finite or would leave e^(+-_EXP_LIMIT), runs one log-domain row
per return instead (``_log_domain_rows``).
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .disorder import DisorderSample, PathRng
from .errors import GuardError, NumericsError
from .kernel import ReturnKernel
from .logspace import sigmoid
from .partition import (_EXP_LIMIT, ModelParams, PartitionTables,
                        _log_weight_base, _log_weight_core, _log_weight_into,
                        _segments)


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


def _check_source(tables: PartitionTables, d: DisorderSample,
                  p: ModelParams, kern: ReturnKernel):
    """GuardError unless the tables were built from (d, p, kern): with any
    other triple their entries describe no polymer measure."""
    if not tables.built_from(d, p, kern):
        raise GuardError("the tables are read only with the (d, p, kern) "
                         "they were built from")


def _log_domain_rows(tables, d, p, kern, signed, k=None):
    """Yield (u, x): x holds the probabilities of the excursions (u, t],
    t = t0..n, one log-domain row per u. With k None these are every
    excursion (u < n, t0 = u + 1); else those with u <= k < t, which
    excursion_law(k) reads (t0 = k + 1).

    P(u, t) is exp of log Zf[u] + log K + log coin + log zeta_t + log Zb[t]
    - log Z_n, with ``signed`` times the negative-sign fraction
    sigmoid(-2 lam dw). This is the one fallback of the linear sums, in
    the ufunc order of the tests' reference loops, so with their bits.
    """
    n = tables.n
    zf, zb, lz = tables.log_zf, tables.log_zb, tables.log_zeta_sites
    w = d.w_prefix
    for u in range(n if k is None else k + 1):
        t0 = u + 1 if k is None else k + 1
        dw = w[t0:] - w[u]
        x = np.exp(zf[u] + _log_weight_core(kern.log_k[t0 - u:n - u + 1], dw,
                                            p.lam)
                   + lz[t0:] + zb[t0:] - zf[n])
        yield u, x * sigmoid(-2.0 * p.lam * dw) if signed else x


def _linear_factors(tables, d, p, kern, weight_neg):
    """Kh and the pairs (log A, log B) with P(u, t) = Kh(t - u) sum A_u B_t.

    A_u = Zf[u] and B_t = zeta_t Zb[t] / Z_n. At lam > 0 the coin average
    splits as 1/2 (1 + e^(2 lam W_u) e^(-2 lam W_t)), so Kh = K/2 and the
    primed pair A'_u = A_u e^(2 lam W_u), B'_t = B_t e^(-2 lam W_t) joins
    the plain one; Kh A' B' is the negative-sign part, which ``weight_neg``
    keeps alone. At lam = 0, Kh = K and the one pair remains (the caller
    halves the negative-sign part). Kh is returned in linear domain, or
    None when a finite log Kh falls below -_EXP_LIMIT (or is NaN): a
    subnormal Kh would round a large sum to an absolute error.
    """
    n = tables.n
    log_kh = _log_weight_base(kern.log_k, p.lam)[:n + 1]
    if not _bounded_below(log_kh[1:]):
        return None, ()
    zf = tables.log_zf
    log_b = tables.log_zeta_sites + tables.log_zb - zf[n]
    if p.lam == 0.0:
        return np.exp(log_kh), ((zf, log_b),)
    y = 2.0 * p.lam * d.w_prefix
    primed = (zf + y, log_b - y)
    return np.exp(log_kh), ((primed,) if weight_neg
                            else ((zf, log_b), primed))


def _bounded_below(x) -> bool:
    """Every exponent >= -_EXP_LIMIT or -inf (an exact 0); NaN fails."""
    return bool(np.logical_and.reduce((x >= -_EXP_LIMIT) | (x == -np.inf)))


def _block_factors(log_s, log_o):
    """e^(log_s - c) and e^(log_o + c) for c = max log_s, the scaled factors
    of one band, whose products keep their true scale. None unless every
    scaled exponent of ``log_s`` (all <= 0) passes ``_bounded_below`` and
    every one of ``log_o`` is <= _EXP_LIMIT, NaN included."""
    c = np.maximum.reduce(log_s)
    if c == -np.inf:  # an all-zero band: any scale is exact
        c = 0.0
    elif not np.isfinite(c):
        return None
    xs = log_s - c
    xo = log_o + c
    if not (_bounded_below(xs) and np.maximum.reduce(xo) <= _EXP_LIMIT):
        return None
    return np.exp(xs, out=xs), np.exp(xo, out=xo)


def _band_end(log_a, lo, hi, span):
    """The end of the scale band that starts at ``lo`` < ``hi``: the
    longest run log_a[lo:end], end <= hi, whose finite values span at most
    ``span``, so that ``_block_factors`` admits its side of them. An
    exact 0 (-inf) never ends a band; +inf and NaN end none either, and
    ``_block_factors`` rejects their band. The law passes _EXP_LIMIT; the
    scans pass half, as a row band meets B_t inside itself, where
    B_t e^c = zeta_t p_contact[t] e^(c - log A_t) reaches zeta_t e^span
    (e^600.03 at N = 8192, lam = 0.5 with a span of 600)."""
    x = log_a[lo:hi]
    top = np.maximum.accumulate(x)
    bottom = np.minimum.accumulate(np.where(x == -np.inf, np.inf, x))
    # an all-zero prefix spans -inf - inf; NaN fails the comparison
    wide = np.flatnonzero(top - bottom > span)
    return hi if wide.size == 0 else lo + int(wide[0])


def _row_sums(kh, log_s, log_o):
    """r_u = S_u sum_{s >= 1} Kh(s) O_{u+s} for u < len(log_s), from the
    logs of S and one more O: one ``np.correlate`` per scale band of S
    (``_band_end``), or None when a band fails ``_block_factors``."""
    m = log_s.size
    r = np.empty(m)
    lo = 0
    while lo < m:
        hi = _band_end(log_s, lo, m, _EXP_LIMIT / 2)
        f = _block_factors(log_s[lo:hi], log_o[lo + 1:])
        if f is None:
            return None
        s, o = f
        r[lo:hi] = s * np.correlate(np.concatenate((o, np.zeros(hi - lo - 1))),
                                    kh[1:m - lo + 1], "valid")
        lo = hi
    return r


def _linear_scan(kh, pairs, n):
    """The difference-array scan p[k] = sum_{u<k} row_u - sum_{t<k} col_t
    with row_u = sum_{t>u} P(u, t) and col_t = sum_{u<t} P(u, t), summed
    over ``pairs``, or None when ``_row_sums`` fails."""
    diff = np.zeros(n + 1)
    for log_a, log_b in pairs:
        # col_t = B_t sum_s Kh(s) A_{t-s} is row n - t of the reversed pair
        rows = _row_sums(kh, log_a[:n], log_b)
        cols = _row_sums(kh, log_b[n:0:-1], log_a[::-1])
        if rows is None or cols is None:
            return None
        diff[1:] += rows
        diff[2:] -= cols[:0:-1]  # col_n lands past p[n]
    return np.cumsum(diff, out=diff)


def _excursion_probability_scan(tables, d, p, kern, weight_neg):
    """Per-site sums of excursion probabilities: p[k] = sum of P(u, t) over
    the excursions (u, t] covering site k (u < k <= t), each weighted by
    its negative-sign fraction with ``weight_neg``.

    Linear domain: P(u, t) = Kh(t - u) (A_u B_t + A'_u B'_t)
    (``_linear_factors``), so the O(N^2) pairs take no transcendental.
    The difference form p[k] = sum_{u<k} row_u - sum_{t<k} col_t needs the
    row sums A_u sum_{t>u} Kh(t - u) B_t and the column sums
    B_t sum_{u<t} Kh(t - u) A_u, the row sums at n - t of the reversed
    pair (B, A): ``_row_sums``, one ``np.correlate`` per band of rows whose
    finite log A span at most _EXP_LIMIT / 2, scaled by c = max log A over
    the band (each A by e^-c, so it is <= 1, and B by e^c).
    ``_block_factors`` admits a band only if its scaled small side stays
    >= e^-_EXP_LIMIT and its other side <= e^_EXP_LIMIT, NaN included, and
    ``_linear_factors`` requires Kh >= e^-_EXP_LIMIT: then every term lost
    to underflow is below e^-745 absolute, as with exp(log P). Else the
    whole call runs the log-domain rows (``_log_domain_rows``); the choice
    reads only this sample's data. The sums are direct, not FFTs, whose
    absolute error of order 2^-52 max would swamp the small entries.

    Rounding bound, both forms. With M = max(1, max |log Zf|,
    max |log Zb|, max |log zeta|, 2 lam max |W|),
        |p[k] - exact| <= (N + 16 M) 2^-52 (1 + 2 sum_{u<k} p_contact[u]).
    Each P(u, t) comes out of exps whose arguments add a few such logs, so
    its relative error stays below 16 M 2^-52; a row or column sum adds
    at most N positive terms; the row sums and the column sums before k
    each weigh at most sum_{u<k} p_contact[u] (a return opens one
    excursion and closes one); the running sum adds at most N 2^-52 |p|.
    Measured at N = 2048 (lam = 0 and 0.5), the two forms differ by at
    most 0.66% of the bound (1.2% at lam_tilde = 3, h_tilde = 2).
    """
    n = tables.n
    kh, pairs = _linear_factors(tables, d, p, kern, weight_neg)
    probs = None if kh is None else _linear_scan(kh, pairs, n)
    if probs is None:
        diff = np.zeros(n + 2)
        for u, x in _log_domain_rows(tables, d, p, kern,
                                     weight_neg and p.lam != 0.0):
            diff[u + 1] += x.sum()
            diff[u + 2:] -= x
        probs = np.cumsum(diff)[:n + 1]
    # at lam = 0 the sign is a fair coin
    return probs * 0.5 if weight_neg and p.lam == 0.0 else probs


def contact_profile(tables: PartitionTables, d: DisorderSample,
                    p: ModelParams, kern: ReturnKernel) -> ContactProfile:
    """Exact contact and negative-sign profiles for one sample.

    The profile is built once and cached on the tables, and its arrays are
    read-only.
    """
    _check_source(tables, d, p, kern)
    if tables._profile is None:
        n = tables.n
        p_contact = np.exp(tables.log_zf + tables.log_zb - tables.log_zf[n])
        p_neg = _excursion_probability_scan(tables, d, p, kern,
                                            weight_neg=True)
        p_contact.flags.writeable = False
        p_neg.flags.writeable = False
        tables._profile = ContactProfile(p_contact=p_contact, p_neg=p_neg)
    return tables._profile


def excursion_cover(tables: PartitionTables, d: DisorderSample,
                    p: ModelParams, kern: ReturnKernel) -> np.ndarray:
    """Total excursion probability covering each site; identically 1 for
    every site >= 1 (partition of unity over excursions)."""
    _check_source(tables, d, p, kern)
    return _excursion_probability_scan(tables, d, p, kern, weight_neg=False)


def _check_sites(sites, tables):
    if not sites or any(not 1 <= s <= tables.n for s in sites):
        raise GuardError("sites must lie in 1..n")
    if any(b <= a for a, b in zip(sites[:-1], sites[1:])):
        raise GuardError("sites must be strictly increasing")


def _joint_from_segments(sites, tables, segs):
    """P(a contact at every one of ``sites``) from the tables and the
    segment rows ``segs[a]`` (``partition._segments``) anchored at each
    site a but the last: segs[a][b - a] = log Z_{b-a} after a."""
    log_p = (tables.log_zf[sites[0]] + tables.log_zb[sites[-1]]
             - tables.log_zf[tables.n])
    for a, b in zip(sites[:-1], sites[1:]):
        log_p += segs[a][b - a]
    return float(np.exp(log_p))


def joint_contact_probability(sites, tables: PartitionTables,
                              d: DisorderSample, p: ModelParams,
                              kern: ReturnKernel) -> float:
    """P(S_site = 0 simultaneously at every listed site), exactly.

    Each consecutive pair (a, b) reads log Z_{b-a} from the segment at a
    bounded at b, with the full segment's bits, one pass per row width.
    """
    _check_source(tables, d, p, kern)
    sites = list(sites)
    _check_sites(sites, tables)
    segs = _segments([(d.w_prefix, tables.log_zeta_sites, a, b)
                      for a, b in zip(sites, sites[1:])], kern.log_k, p.lam)
    return _joint_from_segments(sites, tables, dict(zip(sites, segs)))


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
    """The Ursell function at ``sites`` with every subset joint computed
    exactly: one segment per site but the last, bounded at the last, holds
    the bits of every shorter bound, so each joint equals
    ``joint_contact_probability`` bit for bit; one pass per row width."""
    _check_source(tables, d, p, kern)
    sites = sorted(sites)
    _check_sites(sites, tables)
    segs = dict(zip(sites, _segments(
        [(d.w_prefix, tables.log_zeta_sites, a, sites[-1])
         for a in sites[:-1]], kern.log_k, p.lam)))
    joints = {sub: _joint_from_segments(sub, tables, segs)
              for r in range(1, len(sites) + 1)
              for sub in combinations(sites, r)}
    return ursell(sites, joints)


def _linear_law(k, kh, pairs, n):
    """pmf[s] = Kh(s) sum_{u <= k < t, t - u = s} (A_u B_t + A'_u B'_t):
    per scale band of returns u (``_band_end``), one full ``np.convolve``
    of its reversed scaled A with the scaled B_{k+1..n}, then Kh once; None
    when a band fails ``_block_factors``."""
    acc = np.zeros(n + 1)
    for log_a, log_b in pairs:
        lo = 0
        while lo <= k:
            hi = _band_end(log_a, lo, k + 1, _EXP_LIMIT)
            f = _block_factors(log_a[lo:hi], log_b[k + 1:])
            if f is None:
                return None
            a, b = f
            # entry i of the convolution is the length s = i + k + 2 - hi
            acc[k + 2 - hi:n + 1 - lo] += np.convolve(a[::-1], b)
            lo = hi
    return np.multiply(kh, acc, out=acc)


def excursion_law(k: int, tables: PartitionTables, d: DisorderSample,
                  p: ModelParams, kern: ReturnKernel) -> ExcursionLaw:
    """Exact pmf of the length of the excursion covering site k.

    The covering excursion runs between returns u <= k < t; its
    probability is the single-excursion bridge through the forward and
    backward tables, P(u, t) = Kh(t - u) (A_u B_t + A'_u B'_t), so
    pmf[s] = Kh(s) sum_{t - u = s} (A_u B_t + A'_u B'_t) is a convolution
    of the factors left of k with those right of it (``_linear_law``):
    one per scale band of returns u, the longest runs whose finite log A
    span at most _EXP_LIMIT, each admitted by the rule of a band of
    ``_excursion_probability_scan`` (whose underflow rule and fallback
    apply). Both forms lie within (N + 16 M) 2^-52 relative of the exact
    value at every entry above 1e-300, M as there: each entry sums at most
    N positive terms. Measured at N = 2048 they differ by at most 1.6e-13
    relative, and by 3e-12 at lam_tilde = 3, h_tilde = 2, where a band's
    scaled factors span up to e^-600.
    """
    _check_source(tables, d, p, kern)
    n = tables.n
    if not 1 <= k <= n - 1:
        raise GuardError(f"site must satisfy 1 <= k <= n-1, got {k}")
    kh, pairs = _linear_factors(tables, d, p, kern, False)
    pmf = None if kh is None else _linear_law(k, kh, pairs, n)
    if pmf is None:
        pmf = np.zeros(n + 1)
        for u, x in _log_domain_rows(tables, d, p, kern, False, k):
            pmf[k + 1 - u:n - u + 1] += x
    total = pmf.sum()
    # its log-domain terms round in proportion to |log Z|
    if not abs(total - 1.0) <= 1e-9 * max(1.0, abs(tables.log_z)):
        raise NumericsError(f"excursion law at k={k} sums to {total}")
    return ExcursionLaw(k=k, pmf=pmf)


# Returns u = t-1, ..., t-32 before a return at t. Excursion weights decay
# exponentially in the localized phase, so nearly every draw lands here.
_WINDOW = 32
# sites per window-table chunk, returns per walk chunk
_CHUNK = 128
# steps per block of path draws; a path's unused draws are rewound
_DRAW_STEPS = 1024


def _return_probabilities(t, u, tables, w, base, lam):
    """P(the return before t is u | a return at t), for index arrays t and
    u < t broadcast together: Zf[u] K(t-u) coin(u, t) over the row total
    Z_t / zeta_t, which the forward table holds by the renewal identity."""
    zf = tables.log_zf
    x = np.empty(np.broadcast_shapes(np.shape(t), np.shape(u)))
    _log_weight_into(x, np.empty_like(x), base[t - u], w[t], w[u], lam)
    np.add(x, zf[u], out=x)
    np.subtract(x, zf[t] - tables.log_zeta_sites[t], out=x)
    return np.exp(x, out=x)


def _window_table(tables, w, kern, lam):
    """The sampler's state, built once per tables object from its own
    (d, p, kern) and cached on it: (flat, first, width, base).

    ``flat`` is a read-only (n, width) table, width = min(n, _WINDOW), as
    a flat memoryview, built in chunks of sites: row t-1 holds the
    probabilities that the return before t lies in t-1-j..t-1, j < width.
    ``first`` is its first column (the gap-1 probabilities) as a list of
    floats, and ``base`` is ``_log_weight_base`` of the kernel."""
    if tables._rows is None:
        n = tables.n
        base = _log_weight_base(kern.log_k, lam)
        gaps = np.arange(1, min(n, _WINDOW) + 1)
        rows = np.empty((n, gaps.size))
        for lo in range(1, n + 1, _CHUNK):
            t = np.arange(lo, min(lo + _CHUNK, n + 1))[:, None]
            x = _return_probabilities(t, np.maximum(t - gaps, 0), tables,
                                      w, base, lam)
            x[t - gaps < 0] = 0.0
            np.cumsum(x, axis=1, out=rows[lo - 1:lo - 1 + t.size])
        rows.flags.writeable = False
        tables._rows = (memoryview(rows.reshape(-1)), rows[:, 0].tolist(),
                        gaps.size, base)
    return tables._rows


def _walk_past_window(t, v, mass, tables, w, base, lam):
    """The return before t when the window's mass falls short of v: add
    returns left of the window, a chunk at a time, until the mass reaches
    v; u = 0 if none is left or rounding leaves v uncovered."""
    hi = t - _WINDOW
    while hi > 0:
        lo = max(0, hi - _CHUNK)
        cdf = mass + np.cumsum(_return_probabilities(
            t, np.arange(hi - 1, lo - 1, -1), tables, w, base, lam))
        j = int(cdf.searchsorted(v))
        if j < cdf.size:
            return hi - 1 - j
        mass, hi = cdf[-1], lo
    return 0


def sample_path(tables: PartitionTables, d: DisorderSample, p: ModelParams,
                kern: ReturnKernel, rng: PathRng) -> PathSample:
    """Draw one path exactly from the polymer measure by backward sampling.

    From the pinned endpoint, the previous return u is drawn with
    probability proportional to Zf[u] * K(t-u) * coin(u, t); each excursion
    sign is then negative with its exact conditional probability. Step i
    reads draws 2i-1 (return) and 2i (sign) of ``rng``, and no others: the
    draws come in blocks of up to ``_DRAW_STEPS`` steps, and the unused
    ones of the last block are rewound.

    The tables must be built from (d, p, kern), else GuardError. A return
    draw at t is the first entry of the cached ``_window_table`` row at t
    not below it: one float compare against the row's first entry (gap 1,
    most returns of a localized path), else a bisection of the rest of the
    row, and a walk on left in O(gap) only past the row. The law is exact
    up to the forward table's rounding, bounded at ``partition._BLOCK``.
    """
    _check_source(tables, d, p, kern)
    w, lam = d.w_prefix, p.lam
    flat, first, width, base = _window_table(tables, w, kern, lam)
    t, rev_returns, blocks = tables.n, [], []
    push = rev_returns.append
    while t > 0:
        blocks.append(rng.uniforms(2 * min(_DRAW_STEPS, t)))  # t steps at most
        for v in (1.0 - blocks[-1][::2]).tolist():
            push(t)
            if v <= first[t - 1]:
                t -= 1
            else:
                lo = (t - 1) * width
                j = bisect_left(flat, v, lo + 1, lo + width) - lo
                if j < width:
                    t -= 1 + j
                else:
                    t = _walk_past_window(t, v, flat[lo + width - 1], tables,
                                          w, base, lam)
            if not t:
                break
    draws = np.concatenate(blocks)[1::2]
    rng.rewind(2 * (draws.size - len(rev_returns)))
    ts = np.array(rev_returns + [0])
    frac_neg = sigmoid(-2.0 * lam * (w[ts[:-1]] - w[ts[1:]]))
    rev_signs = np.where(draws[:frac_neg.size] < frac_neg, -1, 1)
    return PathSample(returns=tuple(reversed(rev_returns)),
                      signs=tuple(rev_signs[::-1].tolist()))


def max_excursion(path: PathSample) -> int:
    """Largest gap between consecutive elements of {0} union returns."""
    # np.fromiter skips the slow conversion of a long tuple of ints
    returns = np.fromiter(path.returns, np.int64, len(path.returns))
    return int(np.max(np.diff(returns, prepend=0), initial=0))


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
