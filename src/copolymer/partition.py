"""Exact log-domain partition function of the pinned polymer.

The constrained partition function is computed by the renewal
decomposition: a path is a sequence of excursions between consecutive
returns u < t, each contributing

    K(t - u) * 1/2 * (1 + exp(-2 lam (W_t - W_u))) * zeta(omega_tilde_t),

where W is the prefix sum of (omega + h), the coin average is the exact
expectation over the excursion sign, and zeta(x) = exp(lam_tilde (x + h_tilde))
is the reward collected at the return site. Everything stays in natural-log
domain; the partition function itself would overflow past N ~ 1e3 in the
localized phase.

The forward table carries log Z_t for every prefix t (the return at t
includes its zeta factor, the origin contributes none); the backward table
carries log Z_{n-t} on shifted disorder, excluding the zeta factor of its
left edge. Building a table is O(N^2) time, O(N) space, with no truncation
of the inner sum, so brute-force enumeration matches it to rounding error.
One recursion, ``_forward_batch``, builds every table: it sums earlier
blocks of ``_BLOCK`` sites through BLAS products in linear domain, and the
backward table is the same pass on the reversed sample (``_log_zb_rows``),
within the same bound. ``_table_rows`` builds the forward tables of a
batch of samples, and ``forward_tables`` is it at one row.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .disorder import DisorderSample
from .errors import ConfigError, GuardError, NumericsError
from .kernel import ReturnKernel
from .logspace import LOG2, softplus


@dataclass(frozen=True)
class ModelParams:
    """Coupling vector (lam, h, lam_tilde, h_tilde), all finite; first three
    nonnegative."""

    lam: float
    h: float
    lam_tilde: float
    h_tilde: float

    def __post_init__(self):
        values = (self.lam, self.h, self.lam_tilde, self.h_tilde)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"couplings must be finite, got {values}")
        if self.lam < 0 or self.h < 0 or self.lam_tilde < 0:
            raise ConfigError(
                "lam, h and lam_tilde must be nonnegative, got "
                f"({self.lam}, {self.h}, {self.lam_tilde})")

    def replace(self, **kw) -> "ModelParams":
        base = dict(lam=self.lam, h=self.h, lam_tilde=self.lam_tilde,
                    h_tilde=self.h_tilde)
        base.update(kw)
        return ModelParams(**base)


@dataclass
class PartitionTables:
    """Forward/backward log partition arrays for one disorder sample.

    log_zf[t] = log Z_t (forward, pinned at t), log_zf[0] = 0.
    log_zb[t] = log Z_{n-t} on disorder shifted by t, log_zb[n] = 0: the
    forward DP on the reversed sample, checked against log_zf[n] ==
    log_zb[0]. Both are read-only rows of batched passes (``_table_rows``;
    ``_fill_backward``, else the first read of log_zb). The tables, and the
    sampler window and contact profile cached on them, are valid only with
    the (d, p, kern) they were built from, which ``_source`` holds: every
    reader raises GuardError unless ``built_from`` accepts that triple.
    """

    n: int
    log_zf: np.ndarray
    log_zeta_sites: np.ndarray
    _source: tuple = field(repr=False, compare=False)
    _log_zb: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)
    # the path sampler's (n, 32) window table, built on first use
    _rows: object = field(default=None, init=False, repr=False, compare=False)
    # the read-only contact profile, built on first use
    _profile: object = field(default=None, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        for arr in (self.log_zf, self.log_zeta_sites):
            arr.flags.writeable = False

    def built_from(self, d, p, kern) -> bool:
        """Whether (d, p, kern) is the triple these tables were built from,
        the condition every reader of the tables checks."""
        src_d, src_p, src_kern = self._source
        return d is src_d and kern is src_kern and p == src_p

    @property
    def log_z(self) -> float:
        return float(self.log_zf[self.n])

    @property
    def log_zb(self) -> np.ndarray:
        if self._log_zb is None:
            _fill_backward([self])
        return self._log_zb


def log_zeta(x, p: ModelParams):
    """log of the return reward zeta(x) = exp(lam_tilde (x + h_tilde))."""
    return p.lam_tilde * (np.asarray(x, dtype=float) + p.h_tilde)


def _log_weight_core(log_k_gap, dw, lam):
    # single source of truth for the excursion weight; -2*lam*dw = 0 makes
    # the coin average exactly 1
    if lam == 0.0:
        return log_k_gap
    return log_k_gap - LOG2 + softplus(-2.0 * lam * np.asarray(dw, dtype=float))


def excursion_log_weight(u, t, d: DisorderSample, p: ModelParams,
                         kern: ReturnKernel):
    """log of K(t-u) * coin-average over the sign of excursion (u, t].

    ``u`` and ``t`` may be scalars or equal-shape index arrays with
    0 <= u < t <= n and t - u within the kernel horizon.
    """
    u = np.asarray(u)
    t = np.asarray(t)
    gap = t - u
    if np.any(gap < 1) or np.any(u < 0) or np.any(t > d.n):
        raise GuardError("need 0 <= u < t <= n")
    if np.any(gap > kern.n_max):
        raise GuardError(
            f"excursion length beyond kernel horizon {kern.n_max}")
    out = _log_weight_core(kern.log_k[gap], d.w_prefix[t] - d.w_prefix[u], p.lam)
    if out.ndim == 0:
        return float(out)
    return out


def _log_rewards(d: DisorderSample, p: ModelParams) -> np.ndarray:
    """log zeta at every site, 0 at the origin (which earns no reward)."""
    return np.concatenate(([0.0], log_zeta(d.omega_tilde[1:], p)))


def _log_weight_base(log_k: np.ndarray, lam: float) -> np.ndarray:
    """The gap-only part of the excursion log weight for every gap: log K -
    log 2 (the 1/2 of the coin average) at lam > 0, log K at lam = 0."""
    return log_k if lam == 0.0 else log_k - LOG2


def _log_weight_into(out, aux, base, w_hi, w_lo, lam, exp_out=None,
                     pos_out=None):
    """Excursion log weights into the caller's buffer ``out``.

    ``base`` is ``_log_weight_base`` at the gaps of ``out``; w_hi - w_lo
    (broadcast to out's shape) is each excursion's charge sum dw. Leaves
    base + softplus(y), y = -2 lam dw, in ``out``, or base at lam = 0.
    ``aux`` is scratch of out's shape. At lam > 0, ``exp_out`` and
    ``pos_out`` (when given) receive exp(-|y|) and y >= 0, from which
    ``sigmoid(y)``, the negative-sign probability, follows.

    It applies the ufuncs of ``_log_weight_core`` in the same order, with
    softplus as max(y, 0) + log1p(exp(-|y|)), so every entry has its bits.
    """
    if lam == 0.0:
        np.copyto(out, base)
        return
    np.subtract(w_hi, w_lo, out=out)
    np.multiply(-2.0 * lam, out, out=out)
    if pos_out is not None:
        np.greater_equal(out, 0.0, out=pos_out)
    e = aux if exp_out is None else exp_out
    np.abs(out, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=aux)
    np.maximum(out, 0.0, out=out)
    np.add(out, aux, out=out)
    np.add(base, out, out=out)


def _check_horizon(d: DisorderSample, kern: ReturnKernel):
    if d.n > kern.n_max:
        raise GuardError(
            f"system size {d.n} exceeds kernel horizon {kern.n_max}")


# Sites per block of the forward DP. A site sums the earlier sites of its
# own block in log domain, as one log-sum-exp, and those of earlier blocks
# through ``_CrossBlockSums``: one linear-domain (R x B).(B x B) product per
# source block. Spans below _BLOCK are one block, so they keep the bits of
# the plain log-sum-exp recursion.
#
# Rounding bound. Every sum in either form has positive terms, so each site
# adds to Z_t a relative error of at most about (B + ceil(s/B) + c) units
# of 2^-52: at most B + 1 in-block terms or a B-term dot product,
# ceil(s/B) logaddexp steps over the source blocks, and c (8 covers it)
# for exp, log and the scale arithmetic, whose log-domain inputs carry
# absolute errors of order max(1, |log Z|) 2^-52. As each Z_t carries the
# errors of the Z_u it sums, the errors add along the chain: at
# s = t - j sites from the anchor, log Z_t of either form lies within
# s (B + ceil(s/B) + 8) 2^-52 max(1, max_{u <= t} |log Z_u|) of the exact
# value. At s = 4096 that is 1.5e-10 relative; measured differences
# between the two forms stay near 1e-15.
#
# The backward table, this recursion on the reversed sample, obeys the
# bound at s = n - t sites from the end, read on the reversed curve
# log Z_{n-t} + lz[t] - lz[n], plus s 4 lam max|W| 2^-52: its charge sums
# come from the reversed prefix sums W_n - W_u, which round once more.
# Measured differences from a per-site backward loop stay near 2e-15.
_BLOCK = 128

# Rows per BLAS product of ``_CrossBlockSums``, at least two each. OpenBLAS
# computes a one-row product (gemv) with other bits than a product of
# several rows (gemm), and it spreads a product above 2^18 multiply-adds
# (17 rows of 128 x 128) over its threads, whose spinning then competes
# with the worker processes for the cores: on a 2-core x86-64 host, two
# processes at 63 rows each ran 5x slower than with products of at most
# 16 rows.
_PRODUCT_ROWS = 8


class _CrossBlockSums:
    """Linear-domain sums over the completed blocks of one forward pass.

    The forward sum at target t = j + bB + k over a source block
    a = b - d < b is sum_i Z_{j + aB + i} K(dB + k - i): a product of the
    block's Z row with the Toeplitz matrix T_d[i, k] = K(dB + k - i),
    which depends on d alone. Each completed block is stored linearly,
    divided by a per-(row, block) log scale (the block max), and each T_d
    by its own log scale, so nothing overflows; the products are combined
    over source blocks by a running logaddexp. T_d is a strided view of
    one (n_blocks - 1, 2B - 1) strip of kernel values, copied into one
    B x B buffer per product.

    At lam > 0 the coin average splits the weight in two sums,
    1/2 [sum_u Z_u K + e^{-2 lam W_t} sum_u Z_u e^{2 lam W_u} K]; their
    rows are stacked, so one product serves both. The products run in
    chunks of 2 to ``_PRODUCT_ROWS`` rows (one row is padded to two), so a
    row's bits depend neither on R nor on the rows beside it.
    """

    def __init__(self, r: int, span: int, log_k: np.ndarray, lam: float):
        b = _BLOCK
        n_src = span // b
        self.r = r
        self.lam = lam
        self.n_rows = r if lam == 0.0 else 2 * r
        rows = max(2, self.n_rows)
        n_chunks = -(-rows // _PRODUCT_ROWS)
        bounds = [round(i * rows / n_chunks) for i in range(n_chunks + 1)]
        self.chunks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        # strip row d - 1 holds K at the gaps (d-1)B + 1 .. (d+1)B - 1 of
        # T_d, divided by its max; gaps past the table weigh 0
        size = (n_src + 1) * b
        log_k = np.concatenate((log_k[:size],
                                np.full(max(0, size - len(log_k)), -np.inf)))
        log_strip = sliding_window_view(log_k[1:], 2 * b - 1)[::b]
        self.k_scale = np.max(log_strip, axis=1)
        self.k_scale[self.k_scale == -np.inf] = 0.0
        strip = log_strip - self.k_scale[:, None]
        np.exp(strip, out=strip)
        # windows[d-1, s, m] = strip[d-1, s + m], so T_d = windows[d-1, ::-1]
        self.toeplitz = sliding_window_view(strip, b, axis=1)[:, ::-1]
        self.src = np.zeros((n_src, rows, b))
        self.scale = np.zeros((n_src, rows))
        self.t_buf = np.empty((b, b))
        self.prod = np.empty((rows, b))
        self.acc = np.empty((rows, b))

    def add_source(self, a: int, log_z: np.ndarray, w: np.ndarray):
        """Store completed block a from its (R, B) log Z and prefix sums."""
        n, r = self.n_rows, self.r
        blk = self.src[a, :n]
        scale = self.scale[a, :n]
        blk[:r] = log_z
        if self.lam != 0.0:
            np.multiply(2.0 * self.lam, w, out=blk[r:])
            np.add(blk[r:], log_z, out=blk[r:])
        np.maximum.reduce(blk, axis=1, out=scale)
        np.subtract(blk, scale[:, None], out=blk)
        np.exp(blk, out=blk)

    def log_sums(self, b: int, w: np.ndarray) -> np.ndarray:
        """log of the excursion-weighted sums over blocks 0..b-1 at the
        targets of block b, whose prefix sums are ``w`` (R, h): (R, h)."""
        acc, prod = self.acc, self.prod
        acc.fill(-np.inf)
        # a product of 0 (a kernel with gaps of weight 0) is log 0
        with np.errstate(divide="ignore"):
            for a in range(b):
                d = b - a
                np.copyto(self.t_buf, self.toeplitz[d - 1])
                for rows in self.chunks:
                    np.matmul(self.src[a, rows], self.t_buf, out=prod[rows])
                np.log(prod, out=prod)
                np.add(prod, self.scale[a, :, None], out=prod)
                np.add(prod, self.k_scale[d - 1], out=prod)
                np.logaddexp(acc, prod, out=acc)
        r, h = self.r, w.shape[1]
        if self.lam == 0.0:
            return acc[:r, :h]
        out = acc[r:2 * r, :h]
        np.multiply(-2.0 * self.lam, w, out=prod[:r, :h])
        np.add(out, prod[:r, :h], out=out)
        np.logaddexp(acc[:r, :h], out, out=out)
        np.subtract(out, LOG2, out=out)
        return out


def _forward_batch(j: int, stop: int, w: np.ndarray, lz: np.ndarray,
                   log_k: np.ndarray, lam: float) -> np.ndarray:
    """Exact forward recursion restarted at pinned site j, for R samples
    at once.

    ``w`` and ``lz`` are (R, n+1) stacks of prefix sums and log return
    rewards. Returns seg of the same shape with seg[:, j] = 0 and
    seg[:, t] = log Z_{t-j} on disorder shifted by j for t in (j, stop];
    entries outside are NaN.

    The span is cut into blocks of ``_BLOCK`` sites counted from j. Site t
    costs one R x (t - lo) log-sum-exp over the earlier sites of its block
    (lo its first site), plus one term for the earlier blocks from
    ``_CrossBlockSums``. Each site applies the ufuncs of
    ``_log_weight_core`` and of the max-shifted log-sum-exp in the same
    order, elementwise or along rows of C-contiguous buffers, and each
    product row's bits do not depend on the rows beside it, so neither R
    nor the batch a sample shares changes a row's bits. A span below
    ``_BLOCK`` has no second block and keeps the bits of the plain
    recursion.
    """
    r, width = w.shape
    span = stop - j
    seg = np.full((r, width), np.nan)
    seg[:, j] = 0.0
    # gaps run t-lo, ..., 1 for u = lo, ..., t-1: the tail of a reversed slice
    base_rev = _log_weight_base(log_k, lam)[span:0:-1]
    # at most B - 1 in-block terms plus the cross term, or span terms
    size = r * min(span, _BLOCK)
    flat = np.empty(size)
    flat_aux = np.empty(size) if lam != 0.0 else None
    m = np.empty(r)
    m_col = m[:, None]
    s = np.empty(r)
    # rows of the transposes are the site columns, without a view per site
    seg_cols = seg.T
    lz_cols = lz.T
    cross = _CrossBlockSums(r, span, log_k, lam) if span >= _BLOCK else None
    for b, lo in enumerate(range(j, stop + 1, _BLOCK)):
        hi = min(lo + _BLOCK, stop + 1)
        # the earlier blocks' sums, one extra log-sum-exp term per site
        extra = b > 0
        if extra:
            cross_cols = cross.log_sums(b, w[:, lo:hi]).T
        for t in range(max(lo, j + 1), hi):
            length = t - lo
            x = flat[:r * (length + extra)].reshape(r, length + extra)
            terms = x[:, :length]
            prev = seg[:, lo:t]
            if lam == 0.0:
                np.add(prev, base_rev[span - length:], out=terms)
            else:
                _log_weight_into(terms,
                                 flat_aux[:r * length].reshape(r, length),
                                 base_rev[span - length:], w[:, t, None],
                                 w[:, lo:t], lam)
                np.add(prev, terms, out=terms)
            if extra:
                x[:, length] = cross_cols[t - lo]
            # the reduce methods are what np.max and np.sum call, minus
            # their Python-level argument handling
            np.maximum.reduce(x, axis=1, out=m)
            np.subtract(x, m_col, out=x)
            np.exp(x, out=x)
            np.add.reduce(x, axis=1, out=s)
            np.log(s, out=s)
            np.add(lz_cols[t], m, out=m)
            np.add(m, s, out=seg_cols[t])
        if hi <= stop:
            cross.add_source(b, seg[:, lo:hi], w[:, lo:hi])
    return seg


def _log_zb_rows(w: np.ndarray, lz: np.ndarray, log_z: np.ndarray,
                 log_k: np.ndarray, lam: float) -> np.ndarray:
    """The (R, n+1) backward tables of R samples from their prefix sums
    ``w`` and log rewards ``lz``; NumericsError unless each row's log_zb[0]
    is its log Z, ``log_z[r]``, within 1e-8 max(1, |log Z|).

    This is ``_forward_batch`` on the reversed sample (prefix sums
    W_n - W_{n-s}, rewards lz[n-s]), which collects each excursion's reward
    at its left end t and none at n; - lz[t] + lz[n] moves it to the right.
    """
    n = w.shape[1] - 1
    w_rev = w[:, n:] - w[:, ::-1]
    lz_rev = np.ascontiguousarray(lz[:, ::-1])
    zb = (_forward_batch(0, n, w_rev, lz_rev, log_k, lam)[:, ::-1]
          - lz + lz[:, n:])
    agree = np.abs(log_z - zb[:, 0]) <= 1e-8 * np.maximum(1.0, np.abs(log_z))
    if not np.all(agree):
        r = int(np.argmin(agree))
        raise NumericsError(
            f"forward/backward disagree: {log_z[r]} vs {zb[r, 0]}")
    return zb


def _table_rows(samples, p: ModelParams,
                kern: ReturnKernel) -> list[PartitionTables]:
    """Tables of equal-length samples from one batched forward pass; row r
    is ``forward_tables(samples[r], p, kern)`` bit for bit. The pass
    allocates about four arrays of the rows' size, so batch long samples."""
    samples = list(samples)
    if not samples:
        raise GuardError("need at least one disorder sample")
    n = samples[0].n
    if any(d.n != n for d in samples):
        raise GuardError("samples must share one system size")
    _check_horizon(samples[0], kern)
    w = np.stack([d.w_prefix for d in samples])
    lz = np.stack([_log_rewards(d, p) for d in samples])
    zf = _forward_batch(0, n, w, lz, kern.log_k, p.lam)
    if not np.all(np.isfinite(zf)):
        raise NumericsError("forward table has non-finite entries")
    return [PartitionTables(n=n, log_zf=z, log_zeta_sites=z_sites,
                            _source=(d, p, kern))
            for d, z, z_sites in zip(samples, zf, lz)]


def _fill_backward(tables):
    """The backward tables of ``tables`` (one length, p and kern), built in
    one batched ``_log_zb_rows`` pass."""
    _, p, kern = tables[0]._source
    zb = _log_zb_rows(np.stack([t._source[0].w_prefix for t in tables]),
                      np.stack([t.log_zeta_sites for t in tables]),
                      np.array([t.log_z for t in tables]), kern.log_k, p.lam)
    zb.flags.writeable = False
    for t, row in zip(tables, zb):
        t._log_zb = row


def forward_tables(d: DisorderSample, p: ModelParams,
                   kern: ReturnKernel) -> PartitionTables:
    """Partition tables for one sample; O(N^2), exact. The forward table is
    built here, the backward one on first read of ``log_zb``."""
    return _table_rows([d], p, kern)[0]


def log_partition_curve(d: DisorderSample, p: ModelParams,
                        kern: ReturnKernel) -> np.ndarray:
    """Forward table only: log Z_t for every prefix t of one sample."""
    return log_partition_curves([d], p, kern)[0]


def log_partition_curves(samples, p: ModelParams,
                         kern: ReturnKernel) -> np.ndarray:
    """Forward curves of several equal-length samples in one batched pass
    of ``_table_rows``: row r of the (R, n+1) result is
    ``forward_tables(samples[r], p, kern).log_zf``, bit for bit."""
    return np.stack([t.log_zf for t in _table_rows(samples, p, kern)])


def segment_tables(j: int, d: DisorderSample, p: ModelParams,
                   kern: ReturnKernel, *,
                   stop: int | None = None) -> np.ndarray:
    """log Z_seg(j, t) = log Z_{t-j} on disorder shifted by j, t in (j, stop].

    ``stop`` (default n) bounds the span, at O((stop - j)^2) cost; entries
    past it are NaN, and the entries up to it are those of the full
    segment, bit for bit. With j = 0 and no stop this is identical to the
    forward table.
    """
    if not 0 <= j < d.n:
        raise GuardError(f"anchor j must satisfy 0 <= j < n, got {j}")
    if stop is not None and not j < stop <= d.n:
        raise GuardError(f"stop must lie in (j, n], got {stop}")
    _check_horizon(d, kern)
    return _forward_batch(j, d.n if stop is None else stop, d.w_prefix[None],
                          _log_rewards(d, p)[None], kern.log_k, p.lam)[0]


def single_excursion_log_lower_bound(d: DisorderSample, p: ModelParams,
                                     kern: ReturnKernel) -> float:
    """log weight of the one-excursion configuration: a valid lower bound
    on log Z_n for every sample (the pinned path never visits zero inside)."""
    _check_horizon(d, kern)
    n = d.n
    return float(log_zeta(d.omega_tilde[n], p) + kern.log_k[n] - LOG2
                 + softplus(-2.0 * p.lam * d.w_prefix[n]))
