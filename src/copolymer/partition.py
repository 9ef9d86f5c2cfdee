"""Exact log-domain partition function of the pinned polymer.

The constrained partition function is computed by the renewal
decomposition: a path is a sequence of excursions between consecutive
returns u < t, each contributing

    K(t - u) * 1/2 * (1 + exp(-2 lam (W_t - W_u))) * zeta(omega_tilde_t),

where W is the prefix sum of (omega + h), the coin average is the exact
expectation over the excursion sign, and zeta(x) = exp(lam_tilde (x + h_tilde))
is the reward collected at the return site. The tables hold natural logs;
the partition function itself would overflow past N ~ 1e3 in the
localized phase.

The forward table carries log Z_t for every prefix t (the return at t
includes its zeta factor, the origin contributes none); the backward table
carries log Z_{n-t} on shifted disorder, excluding the zeta factor of its
left edge. Building a table is at most O(N^2) time, O(N) space; the inner
sum drops at most 2^-60 of its value, so brute-force enumeration matches
it to rounding error.
One recursion, ``_forward_batch``, builds every table. It cuts the sites
into blocks of ``_BLOCK``, sums earlier blocks through BLAS products in
linear domain, nearest block first, and solves each block as one
lower-triangular system in scaled linear domain: a block of
``_TRSV_WIDTH`` sites or more is one BLAS triangular solve per row (at
lam = 0 on one matrix that the rows share but for its diagonal), a
narrower block one column substitution of all rows. A row
whose scales or sums leave the linear range takes the reference recursion
for that block: a per-site log-sum-exp over every earlier site. A row
stops adding earlier blocks once the rest weighs below 2^-60 of its sums:
in the localized phase that is after a few blocks, so a pass costs far
less than O(N^2) there. The backward table is the same recursion on the
reversed sample, within the same bound, in the forward rows' pass
(``_log_z_rows``).
``_table_rows`` builds the tables of a batch of samples, which may belong
to model points that share lam, and ``forward_tables`` both tables of one.
A pinned segment is the same pass on a slice of its sample: ``_segments``
builds any spans of any samples, one pass per row width.
"""

import ctypes
import functools
import math
import os
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
    log_zb[0]. Both are read-only rows of one batched pass (``_table_rows``);
    reading log_zb of tables built without it raises GuardError. The tables,
    and the sampler window and contact profile cached on them, are valid
    only with the (d, p, kern) they were built from, which ``_source``
    holds: every reader raises GuardError unless ``built_from`` accepts that
    triple.
    """

    n: int
    log_zf: np.ndarray
    log_zeta_sites: np.ndarray
    _source: tuple = field(repr=False, compare=False)
    _log_zb: np.ndarray | None = field(default=None, repr=False, compare=False)
    # the path sampler's (n, 32) window table, built on first use
    _rows: object = field(default=None, init=False, repr=False, compare=False)
    # the read-only contact profile, built on first use
    _profile: object = field(default=None, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        for arr in (self.log_zf, self.log_zeta_sites, self._log_zb):
            if arr is not None:
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
            raise GuardError("these tables were built without log_zb")
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


def _log_weight_into(out, aux, base, w_hi, w_lo, lam):
    """Excursion log weights into the caller's buffer ``out``.

    ``base`` is ``_log_weight_base`` at the gaps of ``out``; w_hi - w_lo
    (broadcast to out's shape) is each excursion's charge sum dw. Leaves
    base + softplus(y), y = -2 lam dw, in ``out``, or base at lam = 0.
    ``aux`` is scratch of out's shape.

    It applies the ufuncs of ``_log_weight_core`` in the same order, with
    softplus as max(y, 0) + log1p(exp(-|y|)), so every entry has its bits.
    """
    if lam == 0.0:
        np.copyto(out, base)
        return
    np.subtract(w_hi, w_lo, out=out)
    np.multiply(-2.0 * lam, out, out=out)
    np.abs(out, out=aux)
    np.negative(aux, out=aux)
    np.exp(aux, out=aux)
    np.log1p(aux, out=aux)
    np.maximum(out, 0.0, out=out)
    np.add(out, aux, out=out)
    np.add(base, out, out=out)


def _check_horizon(d: DisorderSample, kern: ReturnKernel):
    if d.n > kern.n_max:
        raise GuardError(
            f"system size {d.n} exceeds kernel horizon {kern.n_max}")


# Sites per block of the forward DP. The sites of a block sum each other
# through one linear solve per row (``_InBlockSolve``), and the sites of
# earlier blocks through ``_CrossBlockSums``: one linear-domain
# (R x B).(B x B) product per source block, accumulated in linear domain
# nearest first, until a row's remaining blocks weigh below ``_DROP`` =
# 2^-60 of its sums. A row whose scale exponents leave +-600 in a block,
# or whose cross sums or solved values leave e^(+-600), takes the reference
# recursion there instead (``_log_domain_block``): one log-sum-exp per site
# over every earlier site from the anchor. (At lam = 0 a row first tries
# the triangular path, whose only exponents are its log rewards.)
#
# Rounding bound. Every sum in every form has positive terms, so each Z_t
# carries the relative errors of the Z_u it sums plus its own, and the
# errors add along the chain. A site's own error in the log-domain form is
# at most about (B + ceil(s/B) + c) units of 2^-52: B + 1 in-block terms
# or a B-term dot product, ceil(s/B) linear additions over the source
# blocks (the reference recursion: one pairwise sum of s terms), and c (8
# covers it) for exp, log and the scale arithmetic, whose log-domain
# inputs carry absolute errors of order
# max(1, |log Z|) 2^-52: one exp per (row, source block) and one log per
# target, and the dropped far blocks, at most 2^-60 = 2^-8 units.
# The scaled linear solve, by dtrsv or by column substitution, adds to
# each site's r_t one sum of at most B - 1 products M[t, u] y_u, each entry
# of M rounded in at most three operations (the two-term product of scale
# factors and the factor T): about B + 3 units per site. It adds about |x|
# units for each scale factor e^x in row t of M and r, where |x| <= 600. A
# row on the lam = 0 triangular path sums at most B positive terms per
# site, plus one exp per right-hand side and diagonal entry and one log:
# about B + 2 units, with no scale-factor term. So at s = t - j sites from
# the anchor, log Z_t lies within s (B + ceil(s/B) + 8) 2^-52
# max(1, max_{u <= t} |log Z_u|) of the exact value, provided each such
# |x| stays below about B max(1, |log Z_t|). At s = 4096 that is 1.5e-10
# relative. Measured differences from the per-site loop stay below 5e-14
# relative, at most 1.2% of the bound.
#
# The backward table, this recursion on the reversed sample, obeys the
# bound at s = n - t sites from the end, read on the reversed curve
# log Z_{n-t} + lz[t] - lz[n], plus s 4 lam max|W| 2^-52: its charge sums
# come from the reversed prefix sums W_n - W_u, which round once more.
# Measured differences from a per-site backward loop stay below 4e-13,
# at most 0.4% of that bound.
_BLOCK = 128

# Rows per BLAS product of ``_CrossBlockSums``, at least two each. OpenBLAS
# computes a one-row product (gemv) with other bits than a product of
# several rows (gemm), and it spreads a product above 2^18 multiply-adds
# (17 rows of 128 x 128) over its threads, whose spinning then competes
# with the worker processes for the cores: on a 2-core x86-64 host, two
# processes at 63 rows each ran 5x slower than with products of at most
# 16 rows.
_PRODUCT_ROWS = 8

# The mass, relative to each of a row's running sums, below which
# ``_CrossBlockSums`` stops adding that row's farther source blocks.
_DROP = 2.0 ** -60


def _row_chunks(rows: int) -> list[slice]:
    """Near-equal slices of 2 to ``_PRODUCT_ROWS`` rows covering ``rows``
    >= 2 rows."""
    n_chunks = -(-rows // _PRODUCT_ROWS)
    bounds = [round(i * rows / n_chunks) for i in range(n_chunks + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _CrossBlockSums:
    """Linear-domain sums over the completed blocks of one forward pass.

    The forward sum at target t = bB + k over a source block
    a = b - d < b is sum_i Z_{aB + i} K(dB + k - i): a product of the
    block's Z row with the Toeplitz matrix T_d[i, k] = K(dB + k - i),
    which depends on d alone. Each completed block is stored linearly,
    divided by a per-(row, block) log scale (the block max), and each T_d
    by its own log scale, so every entry of both is at most 1. T_d is a
    strided view of one (n_blocks - 1, 2B - 1) strip of kernel values,
    copied into one B x B buffer per product.

    A target block gives each row one reference scale, the largest sum
    x_a = scale_a + k_scale_d over its sources, and adds the products
    e^(x_a - ref) src_a T_d in linear domain, nearest source first, then
    takes one log. Since a product entry is at most B, a row whose
    remaining sources have B sum_a e^(x_a - ref) <= ``_DROP`` times its
    smallest running sum stops there: what it drops is below 2^-60 of
    every sum. A row with a sum below e^-_EXP_LIMIT, or NaN, is marked for
    the reference recursion (``_log_domain_block``).

    At lam > 0 the coin average splits the weight in two sums,
    1/2 [sum_u Z_u K + e^{-2 lam W_t} sum_u Z_u e^{2 lam W_u} K]; their
    rows are stacked, so one product serves both, and each stacked row
    stops on its own. The products run in chunks of 2 to ``_PRODUCT_ROWS``
    rows (one row is padded to two); a stopped row in a chunk that still
    runs adds an exact 0, and a chunk runs until all its rows have
    stopped. So a row's bits depend neither on R nor on the rows beside
    it. ``pairs`` counts the (source, target) block pairs that ran.
    """

    def __init__(self, r: int, span: int, log_k: np.ndarray, lam: float):
        b = _BLOCK
        n_src = span // b
        self.r = r
        self.lam = lam
        self.n_rows = r if lam == 0.0 else 2 * r
        rows = max(2, self.n_rows)
        self.chunks = _row_chunks(rows)
        # strip row d - 1 holds K at the gaps (d-1)B + 1 .. (d+1)B - 1 of
        # T_d, divided by its max; gaps past the table weigh 0
        size = (n_src + 1) * b
        log_k = np.concatenate((log_k[:size],
                                np.full(max(0, size - len(log_k)), -np.inf)))
        log_strip = sliding_window_view(log_k[1:], 2 * b - 1)[::b]
        self.k_scale = np.maximum.reduce(log_strip, axis=1)
        self.k_scale[self.k_scale == -np.inf] = 0.0
        strip = log_strip - self.k_scale[:, None]
        np.exp(strip, out=strip)
        # windows[d-1, s, m] = strip[d-1, s + m], so T_d = windows[d-1, ::-1]
        self.toeplitz = sliding_window_view(strip, b, axis=1)[:, ::-1]
        self.src = np.zeros((n_src, rows, b))
        self.scale = np.zeros((rows, n_src))
        self.t_buf = np.empty((b, b))
        self.prod = np.empty((rows, b))
        self.acc = np.empty((rows, b))
        self.pairs = 0

    def add_source(self, a: int, log_z: np.ndarray, w: np.ndarray):
        """Store completed block a from its (R, B) log Z and prefix sums."""
        n, r = self.n_rows, self.r
        blk = self.src[a, :n]
        scale = self.scale[:n, a]
        blk[:r] = log_z
        if self.lam != 0.0:
            np.multiply(2.0 * self.lam, w, out=blk[r:])
            np.add(blk[r:], log_z, out=blk[r:])
        np.maximum.reduce(blk, axis=1, out=scale)
        np.subtract(blk, scale[:, None], out=blk)
        np.exp(blk, out=blk)

    def log_sums(self, b: int, w: np.ndarray):
        """log of the excursion-weighted sums over blocks 0..b-1 at the
        targets of block b, whose prefix sums are ``w`` (R, h): (R, h); and
        which rows are in range (the others hold values to be replaced)."""
        n, h = self.n_rows, w.shape[1]
        acc, prod = self.acc, self.prod
        # column d - 1: the log scale of source b - d, nearest first
        x = self.scale[:, b - 1::-1] + self.k_scale[:b]
        ref = np.maximum.reduce(x, axis=1)  # np.max minus its wrapper
        fac = np.exp(x - ref[:, None])
        # column d - 1: B times the factors of the sources past distance d,
        # which bounds every entry of their products
        tail = np.add.accumulate(fac[:, :0:-1], axis=1)[:, ::-1]
        np.multiply(tail, _BLOCK, out=tail)
        sums = acc[:n, :h]
        low = np.empty(n)
        stop = np.empty(n, dtype=bool)
        acc.fill(0.0)
        # padding rows never count as live
        live = np.arange(len(acc)) < n
        runs, f = self.chunks, fac
        for d in range(1, b + 1):
            if d > 1:
                np.minimum.reduce(sums, axis=1, out=low)
                np.multiply(low, _DROP, out=low)
                # NaN stops nothing
                np.less_equal(tail[:n, d - 2], low, out=stop)
                stop &= live[:n]
                if stop.any():
                    live[:n] &= ~stop
                    runs = [c for c in self.chunks if live[c].any()]
                    if not runs:
                        break
                    # a stopped row adds 0 times its product: same bits
                    f = fac * live[:, None]
            np.copyto(self.t_buf, self.toeplitz[d - 1])
            for rows in runs:
                np.matmul(self.src[b - d, rows], self.t_buf, out=prod[rows])
                np.multiply(prod[rows], f[rows, d - 1, None], out=prod[rows])
                np.add(acc[rows], prod[rows], out=acc[rows])
            self.pairs += 1
        # a sum is at most B b: only underflow or NaN leaves the range
        ok = _in_linear_range(sums)
        np.log(sums, out=sums)
        np.add(sums, ref[:n, None], out=sums)
        r = self.r
        if self.lam == 0.0:
            return sums, ok
        ok = ok[:r] & ok[r:]
        out = acc[r:2 * r, :h]
        np.multiply(-2.0 * self.lam, w, out=prod[:r, :h])
        np.add(out, prod[:r, :h], out=out)
        np.logaddexp(acc[:r, :h], out, out=out)
        np.subtract(out, LOG2, out=out)
        return out, ok


# The largest |exponent| a scale factor or a solved value may have on the
# linear path.
_EXP_LIMIT = 600.0


def _in_linear_range(x: np.ndarray) -> np.ndarray:
    """Whether each row of 2-d ``x`` lies in e^(+-_EXP_LIMIT); NaN fails."""
    return ((np.minimum.reduce(x, axis=1) >= math.exp(-_EXP_LIMIT))
            & (np.maximum.reduce(x, axis=1) <= math.exp(_EXP_LIMIT)))


# Rows x h^2 per chunk of the scaled stage of ``_InBlockSolve``: 8 rows at
# a full block, whose matrices M then take 1 MiB.
_SOLVE_CELLS = 8 * 128 * 128

# Block width from which ``_InBlockSolve`` solves by one dtrsv call per
# row; below it, the column substitution of a batch of rows is faster.
_TRSV_WIDTH = 17
# the CBLAS enum values of row-major, lower, no transpose, non-unit and unit
_ROW_MAJOR, _LOWER, _NO_TRANS, _NON_UNIT, _UNIT = 101, 122, 111, 131, 132


@functools.cache
def _dtrsv():
    """cblas_dtrsv of the 64-bit-integer OpenBLAS that numpy's wheel ships
    and has loaded, through ctypes, or None where there is none: so neither
    scipy.linalg nor a second BLAS is loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = next(f for f in os.listdir(libs)
                    if f.startswith("libscipy_openblas64_"))
        fn = ctypes.CDLL(os.path.join(libs, name)).scipy_cblas_dtrsv64_
    except (OSError, StopIteration, AttributeError):
        return None
    fn.restype = None
    fn.argtypes = ([ctypes.c_int] * 4
                   + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                      ctypes.c_void_p, ctypes.c_int64])
    return fn


class _InBlockSolve:
    """The in-block part of one forward pass: per (row, block), one
    lower-triangular linear system in linear domain.

    At lam = 0 the coin average is 1, so the system is
    (diag(e^-lz) - T) Z = C for every row, T[t, u] = K(t - u) for t > u:
    only the diagonal differs between rows. A block of at least
    ``_TRSV_WIDTH`` sites is then one BLAS dtrsv per row (``_triangular``)
    on one copy of -T per pass, whose diagonal the row overwrites; a row it
    rejects, every block at lam > 0 and every narrower block take the
    scaled stage below (``_scaled``), which works for any lam.

    Inside a block, Z_t / zeta_t - sum_{lo <= u < t} wgt(u, t) Z_u = C_t,
    with C_t the cross-block sum. The scaling Z_t = e^{s + G_t} y_t, G the
    in-block prefix sum of log zeta (H_t = G_t - log zeta_t) and s the row
    maximum of log C_t - H_t, turns it into y = M y + r with r <= 1 and

        M[t, u] = T[t, u] e^{-H_t} e^{G_u}                          (lam = 0)
        M[t, u] = T[t, u] (e^{-H_t} e^{G_u} + e^{om_t - H_t} e^{G_u - om_u})

    where T[t, u] = K(t - u) (K / 2 at lam > 0) for t > u and 0 otherwise,
    and om_t = -2 lam (W_t - W_lo): the coin average has rank 2. The scaled
    stage builds -M, a BLAS product of the scale vectors (the second pair 0
    at lam = 0) times -T, for a chunk of rows at a time, so no cell takes
    an exp; every entry of M and r is nonnegative. A block of
    ``_TRSV_WIDTH`` sites or more then solves (I - M) y = r by one
    unit-diagonal BLAS dtrsv per row; a narrower block, or any block where
    numpy's OpenBLAS is not found, by a column substitution of the chunk's
    rows at once: y_t = r_t + sum_{u < t} M[t, u] y_u, one row-wise sum per
    column.

    A row's exponents -H, G, om - H and G - om must lie within
    ``_EXP_LIMIT`` and its solved y within e^(+-_EXP_LIMIT), else
    ``solve`` marks the row for the reference recursion. Every product and
    every dtrsv runs on one row's slice, and every row-wise sum reduces one
    row of a C-ordered buffer, so a row's bits depend neither on R nor on
    the rows beside it.
    """

    def __init__(self, r: int, h_max: int, log_k: np.ndarray, lam: float):
        self.lam = lam
        pad = np.zeros(2 * h_max - 1)  # -T[t, u] = pad[h_max - 1 + t - u]
        pad[h_max:] = np.exp(_log_weight_base(log_k, lam)[1:h_max])
        np.negative(pad, out=pad)
        # the triangular path overwrites the diagonal, which M never reads
        self.neg_t = sliding_window_view(pad, h_max)[:, ::-1].copy()
        self.diag = self.neg_t.reshape(-1)[::h_max + 1]
        self.trsv = _dtrsv()
        # whether a lam = 0 block of _TRSV_WIDTH sites or more takes the
        # triangular path
        self.shared = lam == 0.0 and self.trsv is not None
        # the scale vectors of -M = -T (left . right): e^{-H}, e^{om - H} and
        # e^{G}, e^{G - om}. At lam = 0 the second pair stays 0, since a
        # product over two terms runs in BLAS, 4x faster than numpy's own
        # loop over one term or its broadcast outer product.
        self.left = np.zeros((r, h_max, 2))
        self.right = np.zeros((r, 2, h_max))
        self.m = np.empty(min(r, max(1, _SOLVE_CELLS // h_max ** 2))
                          * h_max ** 2)

    def solve(self, lz: np.ndarray, w: np.ndarray, cross: np.ndarray):
        """log Z at the h sites of one block from its (R, h) log rewards,
        prefix sums and cross-block log sums; and which rows took the
        linear path (the others hold values to be replaced)."""
        h, n_max = lz.shape[1], len(self.neg_t)
        if h > n_max:
            raise GuardError(f"a block of {h} sites exceeds the solver's "
                             f"{n_max}")
        if not self.shared or h < _TRSV_WIDTH:
            return self._scaled(lz, w, cross)
        out, ok = self._triangular(lz, cross)
        if not ok.all():
            rows = np.flatnonzero(~ok)
            out[rows], ok[rows] = self._scaled(lz[rows], w[rows], cross[rows])
        return out, ok

    def _triangular(self, lz: np.ndarray, cross: np.ndarray):
        """``solve`` at lam = 0, one BLAS dtrsv per row: (diag(e^-lz) - T) z
        = e^(log C - s), s the row maximum of log C, and log Z = s + log z.
        A row with |lz| past ``_EXP_LIMIT`` or z outside e^(+-_EXP_LIMIT)
        is marked for the scaled stage."""
        h, n_max = lz.shape[1], len(self.neg_t)
        s = np.maximum.reduce(cross, axis=1)
        # a new C-ordered float64 buffer, each row solved in place
        z = np.subtract(cross, s[:, None], dtype=float)
        np.exp(z, out=z)
        # NaN fails the comparison
        ok = np.maximum.reduce(np.abs(lz), axis=1) <= _EXP_LIMIT
        inv = np.negative(lz)
        np.exp(inv, out=inv)
        a, diag, base = self.neg_t.ctypes.data, self.diag[:h], z.ctypes.data
        for i in np.flatnonzero(ok).tolist():
            np.copyto(diag, inv[i])
            self.trsv(_ROW_MAJOR, _LOWER, _NO_TRANS, _NON_UNIT, h, a, n_max,
                      base + 8 * h * i, 1)
        ok &= _in_linear_range(z)
        np.log(z, out=z)
        np.add(z, s[:, None], out=z)
        return z, ok

    def _scaled(self, lz: np.ndarray, w: np.ndarray, cross: np.ndarray):
        """``solve`` on the scaled system, for any lam."""
        r, h = lz.shape
        nf = 1 if self.lam == 0.0 else 2
        g = np.add.accumulate(lz, axis=1)
        hh = np.subtract(g, lz)
        # r, then y: a new C-ordered buffer, each row solved in place
        y = np.subtract(cross, hh)
        s = np.maximum.reduce(y, axis=1)
        np.subtract(y, s[:, None], out=y)
        np.exp(y, out=y)
        left = self.left[:r, :h]
        right = self.right[:r, :, :h]
        np.negative(hh, out=left[:, :, 0])
        np.copyto(right[:, 0], g)
        if nf == 2:
            om = np.subtract(w, w[:, :1])
            np.multiply(-2.0 * self.lam, om, out=om)
            np.subtract(om, hh, out=left[:, :, 1])
            np.subtract(g, om, out=right[:, 1])
        ok = np.ones(r, dtype=bool)
        for live in (left[:, :, :nf], right[:, :nf]):
            # NaN fails the comparison: such a row takes the loop
            ok &= np.maximum.reduce(np.abs(live), axis=(1, 2)) <= _EXP_LIMIT
            np.minimum(live, _EXP_LIMIT, out=live)
            np.maximum(live, -_EXP_LIMIT, out=live)
            np.exp(live, out=live)
        trsv = self.trsv if h >= _TRSV_WIDTH else None
        chunk = max(1, min(r, len(self.m) // (h * h)))
        for lo in range(0, r, chunk):
            rows = slice(lo, min(lo + chunk, r))
            k = rows.stop - lo
            # contiguous, so that row i's matrix starts h^2 entries on
            m = self.m[:k * h * h].reshape(k, h, h)
            np.matmul(left[rows], right[rows], out=m)
            np.multiply(m, self.neg_t[:h, :h], out=m)
            if trsv is None:
                _substitute(m, y[rows])
                continue
            a, base = m.ctypes.data, y.ctypes.data + 8 * h * lo
            for i in np.flatnonzero(ok[rows]).tolist():
                trsv(_ROW_MAJOR, _LOWER, _NO_TRANS, _UNIT, h,
                     a + 8 * h * h * i, h, base + 8 * h * i, 1)
        ok &= _in_linear_range(y)
        np.add(g, s[:, None], out=g)
        np.add(g, np.log(y, out=y), out=g)
        return g, ok


def _substitute(neg_m: np.ndarray, y: np.ndarray):
    """Solve (I - M) y = r in place for every row of the (k, h) ``y``,
    which holds r, given the (k, h, h) -M: column t takes
    r_t - sum_{u < t} -M[t, u] y_u for all rows at once, each sum reducing
    one row of a C-ordered buffer."""
    k, h = y.shape
    flat = np.empty(k * h)
    for t in range(1, h):
        terms = flat[:k * t].reshape(k, t)
        np.multiply(neg_m[:, t, :t], y[:, :t], out=terms)
        np.subtract(y[:, t], np.add.reduce(terms, axis=1), out=y[:, t])


def _log_domain_block(z: np.ndarray, w: np.ndarray, lz: np.ndarray,
                      start: int, base_rev: np.ndarray,
                      lam: float) -> np.ndarray:
    """The reference recursion, the linear path's fallback: fills the
    columns ``start:`` of the (k, m) log Z rows ``z``, whose column 0 is
    the anchor, from their prefix sums ``w`` and log rewards ``lz``.

    Site t sums every earlier site in one k x t log-sum-exp; ``base_rev``
    ends with the log weight bases of gaps ..., 2, 1. Each site applies the
    ufuncs of ``_log_weight_core`` and of the max-shifted log-sum-exp in
    the per-site loop's order, elementwise or along rows of C-contiguous
    buffers: a row that takes this path from its anchor has the loop's
    bits, and no row's bits depend on k.
    """
    k, m = z.shape
    flat = np.empty(k * m)
    flat_aux = np.empty(k * m) if lam != 0.0 else None
    mx = np.empty(k)
    mx_col = mx[:, None]
    s = np.empty(k)
    n_base = len(base_rev)
    if start == 0:
        z[:, 0] = 0.0
    for t in range(max(start, 1), m):
        x = flat[:k * t].reshape(k, t)
        if lam == 0.0:
            np.add(z[:, :t], base_rev[n_base - t:], out=x)
        else:
            _log_weight_into(x, flat_aux[:k * t].reshape(k, t),
                             base_rev[n_base - t:], w[:, t, None], w[:, :t],
                             lam)
            np.add(z[:, :t], x, out=x)
        # the reduce methods are what np.max and np.sum call, minus their
        # Python-level argument handling
        np.maximum.reduce(x, axis=1, out=mx)
        np.subtract(x, mx_col, out=x)
        np.exp(x, out=x)
        np.add.reduce(x, axis=1, out=s)
        np.log(s, out=s)
        np.add(lz[:, t], mx, out=mx)
        np.add(mx, s, out=z[:, t])
    return z[:, start:]


def _forward_batch(w: np.ndarray, lz: np.ndarray, log_k: np.ndarray,
                   lam: float) -> np.ndarray:
    """Exact forward recursion pinned at column 0, for R samples at once.

    ``w`` and ``lz`` are (R, m) stacks of prefix sums and log return
    rewards, which may be slices of longer samples (a segment): only their
    differences and rewards enter, and column 0 earns none. Returns the
    (R, m) log Z_t, t = 0..m-1, with log Z_0 = 0.

    The columns are cut into blocks of ``_BLOCK`` sites. Each block is one
    linear solve per row (``_InBlockSolve``) whose right-hand side holds
    the earlier blocks' sums from ``_CrossBlockSums``; a row that either
    rejects takes the reference recursion (``_log_domain_block``) for that
    block. The first block's anchor enters as a cross term of log 1 with
    no reward. Column t reads no column past the end of its block, so a
    pass on a prefix that ends at a block's end is the longer pass's prefix
    bit for bit; and no step mixes rows, so neither R nor the batch a
    sample shares changes a row's bits.
    """
    r, width = w.shape
    seg = np.empty((r, width))
    # the log weight bases of gaps width - 1, ..., 2, 1
    base_rev = _log_weight_base(log_k, lam)[width - 1:0:-1]
    solver = _InBlockSolve(r, min(_BLOCK, width), log_k, lam)
    cross = (_CrossBlockSums(r, width - 1, log_k, lam) if width > _BLOCK
             else None)
    for b, lo in enumerate(range(0, width, _BLOCK)):
        end = min(lo + _BLOCK, width)
        block_lz = lz[:, lo:end]
        # a rejected row may overflow or take log 0 before it is replaced
        with np.errstate(all="ignore"):
            if b:
                sums, ok = cross.log_sums(b, w[:, lo:end])
            else:
                # Z_0 = 1: log C = 0 at the anchor, which earns no reward
                block_lz = block_lz.copy()
                block_lz[:, 0] = 0.0
                sums = np.full(block_lz.shape, -np.inf)
                sums[:, 0] = 0.0
                ok = np.ones(r, dtype=bool)
            seg[:, lo:end], solved = solver.solve(block_lz, w[:, lo:end],
                                                  sums)
        ok &= solved
        if not ok.all():
            rows = np.flatnonzero(~ok)
            seg[rows, lo:end] = _log_domain_block(
                seg[rows, :end], w[rows, :end], lz[rows, :end], lo, base_rev,
                lam)
        if end < width:
            cross.add_source(b, seg[:, lo:end], w[:, lo:end])
    return seg


def _log_zb_rows(rev: np.ndarray, lz: np.ndarray, log_z) -> np.ndarray:
    """The (R, n+1) backward tables from ``rev``, the pass rows of the
    reversed samples, which collect each excursion's reward at its left end
    t and none at n: - lz[t] + lz[n] moves it to the right. NumericsError
    unless each row's log_zb[0] is its log Z, ``log_z[r]``, within
    1e-8 max(1, |log Z|)."""
    zb = rev[:, ::-1] - lz + lz[:, -1:]
    agree = np.abs(log_z - zb[:, 0]) <= 1e-8 * np.maximum(1.0, np.abs(log_z))
    if not np.all(agree):
        r = int(np.argmin(agree))
        raise NumericsError(
            f"forward/backward disagree: {log_z[r]} vs {zb[r, 0]}")
    return zb


def _log_z_rows(w: np.ndarray, lz: np.ndarray, log_k: np.ndarray, lam: float,
                backward: bool):
    """The (R, n+1) forward tables of R samples from their prefix sums
    ``w`` and log rewards ``lz`` (NumericsError unless all finite), and
    their backward tables if ``backward`` (else R Nones), from one pass:
    each reversed sample's row, prefix sums W_n - W_{n-s} and rewards
    lz[n-s], rides below the forward rows, and no row's bits depend on the
    rows beside it."""
    r, n = len(w), w.shape[1] - 1
    if backward:
        w = np.concatenate((w, w[:, n:] - w[:, ::-1]))
        lz = np.concatenate((lz, lz[:, ::-1]))
    seg = _forward_batch(w, lz, log_k, lam)
    zf = seg[:r]
    if not np.all(np.isfinite(zf)):
        raise NumericsError("forward table has non-finite entries")
    return zf, (_log_zb_rows(seg[r:], lz[:r], zf[:, n]) if backward
                else [None] * r)


def _table_rows(samples, p, kern: ReturnKernel,
                backward: bool = False) -> list[PartitionTables]:
    """Tables of equal-length samples from one batched forward pass, with
    their backward tables if ``backward``; row r is
    ``forward_tables(samples[r], p[r], kern)`` bit for bit. ``p`` is one
    ModelParams for every row or one per row; rows may differ in h,
    lam_tilde and h_tilde, which reach the pass only through each row's
    prefix sums and rewards, but must share lam. The pass allocates about
    four arrays of its rows' size, so batch long samples."""
    samples = list(samples)
    if not samples:
        raise GuardError("need at least one disorder sample")
    params = [p] * len(samples) if isinstance(p, ModelParams) else list(p)
    if len(params) != len(samples):
        raise GuardError("need one ModelParams per sample")
    if len({q.lam for q in params}) > 1:
        raise GuardError("the rows of one pass must share lam")
    n = samples[0].n
    if any(d.n != n for d in samples):
        raise GuardError("samples must share one system size")
    _check_horizon(samples[0], kern)
    w = np.stack([d.w_prefix for d in samples])
    lz = np.stack([_log_rewards(d, q) for d, q in zip(samples, params)])
    zf, zb = _log_z_rows(w, lz, kern.log_k, params[0].lam, backward)
    return [PartitionTables(n=n, log_zf=z, log_zeta_sites=z_sites,
                            _source=(d, q, kern), _log_zb=b)
            for d, q, z, z_sites, b in zip(samples, params, zf, lz, zb)]


def forward_tables(d: DisorderSample, p: ModelParams,
                   kern: ReturnKernel) -> PartitionTables:
    """Partition tables for one sample, forward and backward, from one pass
    of two rows; O(N^2), exact."""
    return _table_rows([d], p, kern, backward=True)[0]


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

    ``stop`` (default n) bounds the span; entries past it are NaN, and the
    entries up to it are those of the full segment, bit for bit. The pass
    still runs to the end of the ``_BLOCK``-site block (counted from j)
    that holds ``stop``, or to n, so it costs O(W^2) for that width W.
    With j = 0 and no stop this is identical to the forward table.
    """
    if not 0 <= j < d.n:
        raise GuardError(f"anchor j must satisfy 0 <= j < n, got {j}")
    if stop is not None and not j < stop <= d.n:
        raise GuardError(f"stop must lie in (j, n], got {stop}")
    _check_horizon(d, kern)
    stop = d.n if stop is None else stop
    row, = _segments([(d.w_prefix, _log_rewards(d, p), j, stop)], kern.log_k,
                     p.lam)
    seg = np.full(d.n + 1, np.nan)
    seg[j:stop + 1] = row[:stop + 1 - j]
    return seg


def _segments(spans, log_k: np.ndarray, lam: float) -> list:
    """One row per span (w, lz, a, b) of a sample's prefix sums ``w`` and
    log rewards ``lz``, 0 <= a < b < len(w), from samples of any length
    and point that share ``lam`` and the kernel: row[t - a] is
    ``segment_tables(a, d, p, kern, stop=b)[t]`` bit for bit, t in [a, b],
    from one ``_forward_batch`` pass per row width over all the spans.

    The row is the pass on w[a:a+W] and lz[a:a+W], with
    W = min(B (1 + (b - a) // B), len(w) - a): the end of the block that
    holds b, or of the sample. No column reads past its own block, so the
    row holds the full segment's values up to a + W - 1.
    """
    groups, rows = {}, {}
    for i, (w, lz, a, b) in enumerate(spans):
        width = min(_BLOCK * (1 + (b - a) // _BLOCK), len(w) - a)
        groups.setdefault(width, []).append((i, w[a:a + width],
                                             lz[a:a + width]))
    for group in groups.values():
        index, w, lz = zip(*group)
        rows.update(zip(index, _forward_batch(np.stack(w), np.stack(lz),
                                              log_k, lam)))
    return [rows[i] for i in range(len(rows))]


def single_excursion_log_lower_bound(d: DisorderSample, p: ModelParams,
                                     kern: ReturnKernel) -> float:
    """log weight of the one-excursion configuration: a valid lower bound
    on log Z_n for every sample (the pinned path never visits zero inside)."""
    _check_horizon(d, kern)
    n = d.n
    return float(log_zeta(d.omega_tilde[n], p) + kern.log_k[n] - LOG2
                 + softplus(-2.0 * p.lam * d.w_prefix[n]))
