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
``forward_tables`` builds the forward table at once and the backward table
when it is first read; the forward/backward agreement is checked then.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
    log_zb[t] = log Z_{n-t} on disorder shifted by t, log_zb[n] = 0.
    Identically log_zf[n] == log_zb[0]; checked when the backward table is
    first read. The tables, and the segments, sampling rows and contact
    profile cached on them, are valid only with the (d, p, kern) they were
    built from, which ``_source`` holds; ``built_from`` tells whether a
    triple is that one.
    """

    n: int
    log_zf: np.ndarray
    log_zeta_sites: np.ndarray
    _source: tuple = field(repr=False, compare=False)
    _log_zb: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)
    _segments: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    # the path sampler's per-site rows, allocated on first use
    _rows: object = field(default=None, init=False, repr=False, compare=False)
    # the read-only contact profile, built on first use
    _profile: object = field(default=None, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        for arr in (self.log_zf, self.log_zeta_sites):
            arr.flags.writeable = False

    def built_from(self, d, p, kern) -> bool:
        """Whether (d, p, kern) is the triple these tables were built from:
        the one condition under which a cached segment, sampling row or
        profile may serve a call."""
        src_d, src_p, src_kern = self._source
        return d is src_d and kern is src_kern and p == src_p

    @property
    def log_z(self) -> float:
        return float(self.log_zf[self.n])

    @property
    def log_zb(self) -> np.ndarray:
        if self._log_zb is None:
            d, p, kern = self._source
            zb = _backward(d, p, kern, self.log_zeta_sites)
            zf_n = self.log_zf[self.n]
            if not abs(zf_n - zb[0]) <= 1e-8 * max(1.0, abs(zf_n)):
                raise NumericsError(
                    f"forward/backward disagree: {zf_n} vs {zb[0]}")
            zb.flags.writeable = False
            self._log_zb = zb
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


def _forward_batch(j: int, stop: int, w: np.ndarray, lz: np.ndarray,
                   log_k: np.ndarray, lam: float) -> np.ndarray:
    """Exact forward recursion restarted at pinned site j, for R samples
    at once.

    ``w`` and ``lz`` are (R, n+1) stacks of prefix sums and log return
    rewards. Returns seg of the same shape with seg[:, j] = 0 and
    seg[:, t] = log Z_{t-j} on disorder shifted by j for t in (j, stop];
    entries outside are NaN. Site t costs one R x (t-j) log-sum-exp.

    Row r is bit-identical to the pass run on sample r alone: each site
    applies the ufuncs of ``_log_weight_core`` and of the max-shifted
    log-sum-exp in the same order, elementwise or along rows of
    C-contiguous buffers (carved from flat scratch arrays), so neither R
    nor the batch a sample shares changes its bits.
    """
    r, width = w.shape
    span = stop - j
    seg = np.full((r, width), np.nan)
    seg[:, j] = 0.0
    # gaps run t-j, ..., 1 for u = j, ..., t-1: the tail of a reversed slice
    base_rev = _log_weight_base(log_k, lam)[span:0:-1]
    flat = np.empty(r * span)
    flat_aux = np.empty(r * span) if lam != 0.0 else None
    m = np.empty(r)
    m_col = m[:, None]
    s = np.empty(r)
    # rows of the transposes are the site columns, without a view per site
    seg_cols = seg.T
    lz_cols = lz.T
    for t in range(j + 1, stop + 1):
        length = t - j
        x = flat[:r * length].reshape(r, length)
        prev = seg[:, j:t]
        if lam == 0.0:
            np.add(prev, base_rev[span - length:], out=x)
        else:
            _log_weight_into(x, flat_aux[:r * length].reshape(r, length),
                             base_rev[span - length:], w[:, t, None],
                             w[:, j:t], lam)
            np.add(prev, x, out=x)
        # the reduce methods are what np.max and np.sum call, minus their
        # Python-level argument handling
        np.maximum.reduce(x, axis=1, out=m)
        np.subtract(x, m_col, out=x)
        np.exp(x, out=x)
        np.add.reduce(x, axis=1, out=s)
        np.log(s, out=s)
        np.add(lz_cols[t], m, out=m)
        np.add(m, s, out=seg_cols[t])
    return seg


def _forward(j: int, d: DisorderSample, p: ModelParams, kern: ReturnKernel,
             lz: np.ndarray, stop: int | None = None) -> np.ndarray:
    """Exact forward recursion of one sample: the batched kernel at R = 1."""
    stop = d.n if stop is None else stop
    return _forward_batch(j, stop, d.w_prefix[None], lz[None], kern.log_k,
                          p.lam)[0]


def _backward(d: DisorderSample, p: ModelParams, kern: ReturnKernel,
              lz: np.ndarray) -> np.ndarray:
    """log zb[t] = log Z_{n-t} on disorder shifted by t: a log-sum-exp over
    the first return after t, in two O(N) scratch buffers."""
    n = d.n
    w = d.w_prefix
    base = _log_weight_base(kern.log_k, p.lam)
    zb = np.empty(n + 1)
    zb[n] = 0.0
    buf = np.empty(n)
    aux = np.empty(n)
    for t in range(n - 1, -1, -1):
        length = n - t
        x = buf[:length]
        _log_weight_into(x, aux[:length], base[1:length + 1], w[t + 1:], w[t],
                         p.lam)
        np.add(x, lz[t + 1:], out=x)
        np.add(x, zb[t + 1:], out=x)
        m = np.maximum.reduce(x)
        np.subtract(x, m, out=x)
        np.exp(x, out=x)
        zb[t] = m + np.log(np.add.reduce(x))
    return zb


def forward_tables(d: DisorderSample, p: ModelParams,
                   kern: ReturnKernel) -> PartitionTables:
    """Partition tables for one sample; O(N^2), exact. The forward table is
    built here, the backward one on first read of ``log_zb``."""
    _check_horizon(d, kern)
    lz = _log_rewards(d, p)
    zf = _forward(0, d, p, kern, lz)
    if not np.all(np.isfinite(zf)):
        raise NumericsError("forward table has non-finite entries")
    return PartitionTables(n=d.n, log_zf=zf, log_zeta_sites=lz,
                           _source=(d, p, kern))


def log_partition_curve(d: DisorderSample, p: ModelParams,
                        kern: ReturnKernel) -> np.ndarray:
    """Forward table only: log Z_t for every prefix t of one sample (the
    estimators batch theirs through ``log_partition_curves``)."""
    _check_horizon(d, kern)
    return _forward(0, d, p, kern, _log_rewards(d, p))


def log_partition_curves(samples, p: ModelParams,
                         kern: ReturnKernel) -> np.ndarray:
    """Forward curves of several equal-length samples in one batched pass.

    Row r of the (R, n+1) result is ``log_partition_curve(samples[r], p,
    kern)``, bit for bit. Besides the result it allocates about four
    arrays of the same size (stacked inputs and scratch), so callers with
    many long samples pass them in batches.
    """
    samples = list(samples)
    if not samples:
        raise GuardError("need at least one disorder sample")
    n = samples[0].n
    if any(d.n != n for d in samples):
        raise GuardError("samples must share one system size")
    _check_horizon(samples[0], kern)
    w = np.stack([d.w_prefix for d in samples])
    lz = np.stack([_log_rewards(d, p) for d in samples])
    return _forward_batch(0, n, w, lz, kern.log_k, p.lam)


def segment_tables(j: int, d: DisorderSample, p: ModelParams,
                   kern: ReturnKernel, tables: PartitionTables | None = None,
                   stop: int | None = None) -> np.ndarray:
    """log Z_seg(j, t) = log Z_{t-j} on disorder shifted by j, t in (j, stop].

    ``stop`` (default n) bounds the span; entries past it are NaN, and the
    entries up to it are those of the full segment, bit for bit. With
    j = 0 and no stop this is identical to the forward table. When
    ``tables`` is given and was built from (d, p, kern), a full (unbounded)
    segment is cached on it, since anchors are often revisited.
    """
    if not 0 <= j < d.n:
        raise GuardError(f"anchor j must satisfy 0 <= j < n, got {j}")
    if stop is not None and not j < stop <= d.n:
        raise GuardError(f"stop must lie in (j, n], got {stop}")
    cached = (tables is not None and stop is None
              and tables.built_from(d, p, kern))
    cache = tables._segments if cached else {}
    if j in cache:
        return cache[j]
    _check_horizon(d, kern)
    seg = _forward(j, d, p, kern, _log_rewards(d, p), stop=stop)
    seg.flags.writeable = False
    cache[j] = seg
    return seg


def single_excursion_log_lower_bound(d: DisorderSample, p: ModelParams,
                                     kern: ReturnKernel) -> float:
    """log weight of the one-excursion configuration: a valid lower bound
    on log Z_n for every sample (the pinned path never visits zero inside)."""
    _check_horizon(d, kern)
    n = d.n
    return float(log_zeta(d.omega_tilde[n], p) + kern.log_k[n] - LOG2
                 + softplus(-2.0 * p.lam * d.w_prefix[n]))
