import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copolymer.disorder import (DisorderLaw, disorder_from_arrays,
                                freeze_zero_disorder, sample_disorder)
from copolymer.errors import ConfigError, GuardError, NumericsError
from copolymer.kernel import build_powerlaw_kernel, build_srw_kernel
from copolymer.logspace import logsumexp
from copolymer.oracle import brute_force_partition, log_srw_mass
import copolymer.partition as partition
from copolymer.partition import (ModelParams, _forward_batch,
                                 _log_rewards, _log_weight_core,
                                 excursion_log_weight,
                                 forward_tables, log_partition_curve,
                                 log_partition_curves, log_zeta,
                                 segment_tables,
                                 single_excursion_log_lower_bound)

ZERO = ModelParams(0.0, 0.0, 0.0, 0.0)


def test_model_params_validation():
    with pytest.raises(ConfigError):
        ModelParams(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        ModelParams(0.0, -1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        ModelParams(0.0, 0.0, -0.5, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            ModelParams(bad, 0.0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            ModelParams(0.0, 0.0, 0.5, bad)
    # h_tilde may be negative
    ModelParams(0.0, 0.0, 0.5, -3.0)


def test_log_zeta_values():
    assert log_zeta(3.7, ModelParams(1, 1, 0.0, 9.0)) == 0.0
    assert log_zeta(-0.5, ModelParams(0, 0, 1.0, 0.5)) == pytest.approx(0.0)
    assert log_zeta(1.0, ModelParams(0, 0, 2.0, 1.0)) == pytest.approx(4.0)


def test_excursion_weight_special_cases(srw16):
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 10, 0.4, 3, 0)
    # lam = 0: the sign average is exactly 1, weight reduces to K(gap)
    p0 = ModelParams(0.0, 0.4, 0.7, 0.1)
    assert excursion_log_weight(2, 5, d, p0, srw16) == pytest.approx(
        srw16.log_k[3], abs=1e-15)
    # zero increment: same reduction at any lam
    dz = freeze_zero_disorder(10, 0.0)
    p1 = ModelParams(1.3, 0.0, 0.0, 0.0)
    assert excursion_log_weight(1, 4, dz, p1, srw16) == pytest.approx(
        srw16.log_k[3], abs=1e-15)


def test_excursion_weight_direct_value(srw16):
    # single-gap weight with unit charge sum: log K(1) + log((1 + e^-2)/2)
    d = disorder_from_arrays(np.array([1.0]), np.array([0.0]), 0.0)
    p = ModelParams(1.0, 0.0, 0.0, 0.0)
    expected = math.log(0.5) + math.log(0.5 * (1.0 + math.exp(-2.0)))
    got = excursion_log_weight(0, 1, d, p, srw16)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx(-1.2593663, abs=1e-7)


def test_excursion_weight_guards(srw16):
    d = freeze_zero_disorder(10, 0.0)
    with pytest.raises(GuardError):
        excursion_log_weight(5, 5, d, ZERO, srw16)
    with pytest.raises(GuardError):
        excursion_log_weight(3, 11, d, ZERO, srw16)
    small = build_srw_kernel(2)
    with pytest.raises(GuardError):
        excursion_log_weight(0, 5, d, ZERO, small)


def test_free_case_binomial_identity(srw16):
    # zero couplings: Z_N is the SRW renewal mass C(2N,N) 4^-N
    for n in range(1, 13):
        d = freeze_zero_disorder(n, 0.0)
        t = forward_tables(d, ZERO, srw16)
        assert t.log_z == pytest.approx(log_srw_mass(n), abs=1e-12)
    d2 = freeze_zero_disorder(2, 0.0)
    assert math.exp(forward_tables(d2, ZERO, srw16).log_z) == pytest.approx(
        0.375, abs=1e-13)


def test_homogeneous_recursion_identity(srw64):
    # lam_tilde > 0, zero disorder: Z_t = e^{lt*ht} sum_j K(j) Z_{t-j}
    p = ModelParams(0.0, 0.0, 1.3, 0.7)
    n = 40
    d = freeze_zero_disorder(n, 0.0)
    zf = log_partition_curve(d, p, srw64)
    z = np.exp(zf)
    reward = math.exp(p.lam_tilde * p.h_tilde)
    k_lin = np.exp(srw64.log_k)
    for t in range(1, n + 1):
        rec = reward * float(np.dot(k_lin[1:t + 1], z[t - 1::-1]))
        assert math.log(rec) == pytest.approx(zf[t], abs=1e-12)


def test_dp_matches_brute_force(srw16, make_instance):
    for i in range(8):
        n = 3 + (i * 2) % 12
        p, d = make_instance(i, n)
        t = forward_tables(d, p, srw16)
        assert t.log_z == pytest.approx(brute_force_partition(d, p, srw16),
                                        abs=1e-10)


def test_forward_backward_agree(srw512, make_instance):
    for i in range(3):
        p, d = make_instance(i + 50, 300)
        t = forward_tables(d, p, srw512)
        assert abs(t.log_zf[300] - t.log_zb[0]) <= 1e-10 * max(1, abs(t.log_z))


def test_single_excursion_lower_bound(srw16, make_instance):
    for i in range(6):
        p, d = make_instance(i + 20, 11)
        t = forward_tables(d, p, srw16)
        bound = single_excursion_log_lower_bound(d, p, srw16)
        assert t.log_z >= bound - 1e-12


def test_superadditivity_every_split(srw64, make_instance):
    # log Z_N >= log Z_M + log Z_{N-M} on shifted disorder, exactly
    p, d = make_instance(3, 32)
    t = forward_tables(d, p, srw64)
    for m in range(1, 32):
        seg = segment_tables(m, d, p, srw64)
        lhs = t.log_zf[m] + seg[32]
        assert lhs <= t.log_zf[32] + 1e-12 * max(1, abs(t.log_z))


def test_pinned_decomposition_identity(srw64, make_instance):
    # Z_N rebuilt from a pin at k plus all excursions straddling k
    n = 64
    p, d = make_instance(9, n)
    t = forward_tables(d, p, srw64)
    lz = t.log_zeta_sites
    for k in range(1, n):
        terms = [t.log_zf[k] + t.log_zb[k]]
        for j in range(k):
            ell = np.arange(k + 1, n + 1)
            w = excursion_log_weight(np.full(ell.shape, j), ell, d, p, srw64)
            terms.append(logsumexp(t.log_zf[j] + w + lz[ell] + t.log_zb[ell]))
        rebuilt = logsumexp(np.array(terms))
        assert rebuilt == pytest.approx(t.log_z, abs=1e-9)


def test_segment_tables_basics(srw16, make_instance):
    p, d = make_instance(4, 12)
    t = forward_tables(d, p, srw16)
    seg0 = segment_tables(0, d, p, srw16)
    assert np.allclose(seg0, t.log_zf, atol=1e-12)
    # zero couplings: Z_seg(1, 2) = K(1)
    dz = freeze_zero_disorder(2, 0.0)
    seg1 = segment_tables(1, dz, ZERO, srw16)
    assert seg1[2] == pytest.approx(math.log(0.5), abs=1e-14)
    with pytest.raises(GuardError):
        segment_tables(12, d, p, srw16)


def test_shifted_curve_stop(srw64, make_instance):
    p, d = make_instance(6, 40)
    full = segment_tables(10, d, p, srw64)
    part = segment_tables(10, d, p, srw64, stop=20)
    assert np.allclose(part[10:21], full[10:21], atol=0)
    assert np.all(np.isnan(part[21:]))
    with pytest.raises(GuardError):
        segment_tables(10, d, p, srw64, stop=10)


def test_bounded_segment_is_full_segment_prefix(srw64, make_instance):
    p, d = make_instance(8, 48)
    p = p.replace(lam=0.7)
    for a in (0, 5, 23, 40):
        full = segment_tables(a, d, p, srw64)
        for b in range(a + 1, 49):
            bounded = segment_tables(a, d, p, srw64, stop=b)
            assert np.array_equal(bounded[a:b + 1], full[a:b + 1])


def test_horizon_guard():
    d = freeze_zero_disorder(10, 0.0)
    small = build_srw_kernel(5)
    with pytest.raises(GuardError):
        forward_tables(d, ZERO, small)


def test_prefix_of_curve_is_smaller_system(srw64, make_instance):
    # forward values only depend on the prefix of the disorder
    p, d = make_instance(12, 50)
    zf = log_partition_curve(d, p, srw64)
    d_short = disorder_from_arrays(d.omega[1:21], d.omega_tilde[1:21], p.h)
    zf_short = log_partition_curve(d_short, p, srw64)
    assert np.allclose(zf[:21], zf_short, atol=1e-12)


def _loop_forward(j, d, p, kern, stop):
    """The single-sample per-site log-sum-exp recursion, kept as the
    reference the blocked pass must match within ``_rounding_bound``."""
    w, lk = d.w_prefix, kern.log_k
    lz = _log_rewards(d, p)
    seg = np.full(d.n + 1, np.nan)
    seg[j] = 0.0
    for t in range(j + 1, stop + 1):
        x = seg[j:t] + _log_weight_core(lk[t - j:0:-1], w[t] - w[j:t], p.lam)
        m = np.max(x)
        seg[t] = lz[t] + m + np.log(np.sum(np.exp(x - m)))
    return seg


def _loop_backward(d, p, kern, lz):
    """The per-site backward loop that the reversed forward pass replaced,
    kept as the reference: a log-sum-exp over the first return after t."""
    n = d.n
    w = d.w_prefix
    lk = kern.log_k
    lam = p.lam
    zb = np.empty(n + 1)
    zb[n] = 0.0
    for t in range(n - 1, -1, -1):
        x = (_log_weight_core(lk[1:n - t + 1], w[t + 1:] - w[t], lam)
             + lz[t + 1:] + zb[t + 1:])
        m = np.max(x)
        zb[t] = m + np.log(np.sum(np.exp(x - m)))
    return zb


_LAMS = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0))
# lam_tilde = 0 drops the return reward: the delocalized side
_LAM_TILDES = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), _LAMS, _LAM_TILDES,
       st.integers(min_value=0, max_value=2**32))
def test_backward_equals_loop(n, lam, lam_tilde, seed):
    kern = build_srw_kernel(64)
    p = ModelParams(lam, 0.1, lam_tilde, -0.3)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.RADEMACHER, n, p.h,
                        seed, 0)
    lz = _log_rewards(d, p)
    ref = _loop_backward(d, p, kern, lz)
    # the reversed pass sums in another order: not the loop's bits
    err = np.abs(forward_tables(d, p, kern).log_zb - ref)
    assert np.all(err <= _backward_bound(ref, lz, d.w_prefix, lam))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=64), _LAMS,
       st.integers(min_value=0, max_value=2**32))
def test_batched_curves_equal_single_curves(r, n, lam, seed):
    kern = build_srw_kernel(64)
    p = ModelParams(lam, 0.1, 0.8, 0.3)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.RADEMACHER,
                               n, p.h, seed, i) for i in range(r)]
    batch = log_partition_curves(samples, p, kern)
    assert batch.shape == (r, n + 1)
    for row, d in zip(batch, samples):
        single = log_partition_curve(d, p, kern)
        assert np.array_equal(row, single)
        # the in-block solve sums in another order than the site loop
        ref = _loop_forward(0, d, p, kern, n)
        assert np.all(np.abs(single - ref) <= _rounding_bound(ref, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=2, max_value=64), _LAMS, st.data())
def test_batched_anchored_stop_equals_shifted_curve(r, n, lam, data):
    kern = build_srw_kernel(64)
    p = ModelParams(lam, 0.2, 1.1, -0.4)
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    stop = data.draw(st.integers(min_value=j + 1, max_value=n))
    samples = [sample_disorder(DisorderLaw.UNIFORM_SYM, DisorderLaw.GAUSSIAN,
                               n, p.h, 17, i) for i in range(r)]
    batch = partition._segments(_spans(samples, p, j, stop), kern.log_k,
                                p.lam)
    for row, d in zip(batch, samples):
        shifted = segment_tables(j, d, p, kern, stop=stop)
        assert np.array_equal(row[:stop + 1 - j], shifted[j:stop + 1])
        ref = _loop_forward(j, d, p, kern, stop)
        assert np.all(np.isnan(shifted[:j]))
        assert np.all(np.isnan(shifted[stop + 1:]))
        assert np.all(np.abs(shifted[j:stop + 1] - ref[j:stop + 1])
                      <= _rounding_bound(ref[:stop + 1], j))


def test_batched_curves_guards(srw16):
    with pytest.raises(GuardError):
        log_partition_curves([], ZERO, srw16)
    mixed = [freeze_zero_disorder(4, 0.0), freeze_zero_disorder(5, 0.0)]
    with pytest.raises(GuardError):
        log_partition_curves(mixed, ZERO, srw16)
    with pytest.raises(GuardError):
        log_partition_curves([freeze_zero_disorder(20, 0.0)], ZERO, srw16)


def test_forward_backward_check_catches_nan(srw16):
    # a sample built past the validators: NaN must fail the agreement check
    d = freeze_zero_disorder(6, 0.0)
    tilde = d.omega_tilde.copy()
    tilde[3] = np.nan
    with pytest.raises(NumericsError):
        forward_tables(dataclasses.replace(d, omega_tilde=tilde),
                       ModelParams(0.0, 0.0, 1.0, 0.0), srw16)


def test_backward_table_checked_at_build(srw64, make_instance,
                                         monkeypatch):
    p, d = make_instance(5, 40)
    exact = forward_tables(d, p, srw64).log_zb
    original = partition._log_zb_rows

    def shifted(rev, lz, log_z):
        # the backward table checked against a log Z 1e-6 off
        return original(rev, lz, log_z + 1e-6)

    monkeypatch.setattr(partition, "_log_zb_rows", shifted)
    for _ in range(2):
        with pytest.raises(NumericsError):
            forward_tables(d, p, srw64)
    monkeypatch.setattr(partition, "_log_zb_rows", original)
    t = forward_tables(d, p, srw64)
    assert np.array_equal(t.log_zb, exact)
    assert t.log_zb is t.log_zb and not t.log_zb.flags.writeable
    # tables built without the backward table refuse to read one
    forward_only = partition._table_rows([d], p, srw64)[0]
    assert np.array_equal(forward_only.log_zf, t.log_zf)
    with pytest.raises(GuardError, match="without log_zb"):
        forward_only.log_zb


# ---------------------------------------------------------------------------
# the blocked engine: spans of several blocks

def _rounding_bound(ref, j, b=None):
    """The a-priori bound documented at ``partition._BLOCK`` for a curve
    anchored at j, in blocks of b sites: s (b + ceil(s/b) + 8) 2^-52
    max(1, max |log Z|) at s sites from the anchor."""
    b = partition._BLOCK if b is None else b
    s = np.arange(len(ref) - j)
    scale = np.maximum(1.0, np.maximum.accumulate(np.abs(ref[j:])))
    return s * (b + np.ceil(s / b) + 8) * 2.0 ** -52 * scale


def _backward_bound(ref, lz, w, lam):
    """The bound at ``partition._BLOCK`` for a backward table: that of the
    reversed forward curve log Z + lz[t] - lz[n], plus s 4 lam max|W| 2^-52
    for its reversed prefix sums, at s = n - t sites from the end."""
    n = len(ref) - 1
    s = np.arange(n + 1)
    reversed_curve = (ref + lz - lz[n])[::-1]
    return (_rounding_bound(reversed_curve, 0)
            + s * 4.0 * lam * np.max(np.abs(w)) * 2.0 ** -52)[::-1]


def _stack(samples, p):
    return (np.stack([d.w_prefix for d in samples]),
            np.stack([_log_rewards(d, p) for d in samples]))


def _spans(samples, p, a, b):
    """The span (a, b] of every sample, as ``partition._segments`` takes
    it."""
    return [(d.w_prefix, _log_rewards(d, p), a, b) for d in samples]


@pytest.mark.parametrize("lam", [0.0, 0.8])
@pytest.mark.parametrize("law", list(DisorderLaw))
def test_small_blocks_match_brute_force(srw16, monkeypatch, law, lam):
    # blocks of 4 sites: up to four blocks, cross sums at distances 1..2
    monkeypatch.setattr(partition, "_BLOCK", 4)
    for n in range(1, 13):
        p = ModelParams(lam, 0.3, 0.9, -0.2)
        d = sample_disorder(law, DisorderLaw.GAUSSIAN, n, p.h, 77, n)
        got = log_partition_curve(d, p, srw16)[n]
        assert got == pytest.approx(brute_force_partition(d, p, srw16),
                                    abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=64), _LAMS, st.data())
def test_small_blocks_anchored_match_loop(n, lam, data):
    kern = build_srw_kernel(64)
    p = ModelParams(lam, 0.2, 1.1, -0.4)
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    stop = data.draw(st.integers(min_value=j + 1, max_value=n))
    samples = [sample_disorder(DisorderLaw.UNIFORM_SYM, DisorderLaw.GAUSSIAN,
                               n, p.h, 19, i) for i in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "_BLOCK", 4)
        batch = partition._segments(_spans(samples, p, j, stop), kern.log_k,
                                    p.lam)
        shifted = [segment_tables(j, d, p, kern, stop=stop) for d in samples]
    for row, seg, d in zip(batch, shifted, samples):
        ref = _loop_forward(j, d, p, kern, stop)
        assert np.array_equal(row[:stop + 1 - j], seg[j:stop + 1])
        assert np.all(np.isnan(seg[:j])) and np.all(np.isnan(seg[stop + 1:]))
        assert np.all(np.abs(row[:stop + 1 - j] - ref[j:stop + 1])
                      <= _rounding_bound(ref[:stop + 1], j, 4))


@pytest.mark.parametrize("n,j,stop,lam,r", [
    (4096, 0, 4096, 0.0, 2),
    (4096, 0, 4096, 0.5, 1),
    (1000, 37, 900, 0.5, 3),
    (700, 129, 700, 0.0, 3),
    (600, 300, 556, 1.2, 2),
])
def test_blocked_forward_within_rounding_bound(n, j, stop, lam, r):
    kern = build_srw_kernel(n)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 5, i) for i in range(r)]
    batch = partition._segments(_spans(samples, p, j, stop), kern.log_k,
                                p.lam)
    # a bounded span is the prefix of the full one, bit for bit
    full = partition._segments(_spans(samples, p, j, n), kern.log_k, p.lam)
    for row, whole, d in zip(batch, full, samples):
        assert np.array_equal(row[:stop + 1 - j], whole[:stop + 1 - j])
        seg = segment_tables(j, d, p, kern, stop=stop)
        assert np.array_equal(row[:stop + 1 - j], seg[j:stop + 1])
        assert np.all(np.isnan(seg[:j])) and np.all(np.isnan(seg[stop + 1:]))
        ref = _loop_forward(j, d, p, kern, stop)
        err = np.abs(row[:stop + 1 - j] - ref[j:stop + 1])
        assert np.all(err <= _rounding_bound(ref[:stop + 1], j))


def test_kernel_without_far_gaps_weighs_zero():
    # K = 0 past gap 100: strip rows two and more blocks away are all -inf
    # and must add nothing, not NaN
    n = 400
    kern = build_srw_kernel(n)
    log_k = kern.log_k.copy()
    log_k[101:] = -np.inf
    short = dataclasses.replace(kern, log_k=log_k)
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 8, i) for i in range(2)]
    batch = _forward_batch(*_stack(samples, p), log_k, p.lam)
    assert np.all(np.isfinite(batch))
    for row, d in zip(batch, samples):
        ref = _loop_forward(0, d, p, short, n)
        assert np.all(np.abs(row - ref) <= _rounding_bound(ref, 0))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_blocked_rows_do_not_depend_on_batch(lam):
    n = 300   # three blocks
    kern = build_srw_kernel(n)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 21, i) for i in range(64)]
    full = log_partition_curves(samples, p, kern)
    for r in (1, 2, 3, 7, 16, 17, 40, 64):
        # a batch of r samples starting at offset 64 - r
        got = log_partition_curves(samples[64 - r:], p, kern)
        assert np.array_equal(got, full[64 - r:])
    assert np.array_equal(log_partition_curve(samples[5], p, kern), full[5])


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_cross_block_sums_do_not_depend_on_rows(lam):
    # log Z near 0 keeps the last bits of each product in the log sums,
    # where a whole curve would round most of them away; a slope of up to
    # 0.4 per site makes the rows stop at different source blocks
    b, n_src = partition._BLOCK, 4
    rng = np.random.default_rng(3)
    kern = build_srw_kernel((n_src + 1) * b)
    log_z = -5.0 * rng.random((64, (n_src + 1) * b))
    log_z += rng.uniform(0.0, 0.4, (64, 1)) * np.arange((n_src + 1) * b)
    w = np.cumsum(rng.normal(size=log_z.shape), axis=1)

    def sums(rows):
        cross = partition._CrossBlockSums(len(log_z[rows]), n_src * b,
                                          kern.log_k, lam)
        for a in range(n_src):
            block = slice(a * b, (a + 1) * b)
            cross.add_source(a, log_z[rows, block], w[rows, block])
        got, ok = cross.log_sums(n_src, w[rows, n_src * b:])
        assert ok.all()
        return got.copy(), cross.pairs

    full, _ = sums(slice(0, 64))
    assert np.all(np.isfinite(full))
    # one row alone runs the source blocks up to where it stops
    assert {sums(slice(i, i + 1))[1] for i in range(64)} == {1, 2, 3, 4}
    for r in (1, 2, 3, 7, 16, 17, 40, 64):
        assert np.array_equal(sums(slice(64 - r, 64))[0], full[64 - r:])


def _spy_cross_sums(monkeypatch):
    """Record every ``_CrossBlockSums`` a pass makes, to read its work
    count ``pairs`` afterwards."""
    made = []

    class Spy(partition._CrossBlockSums):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(partition, "_CrossBlockSums", Spy)
    return made


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_rows_stop_at_their_own_source_blocks(monkeypatch, lam):
    # rows that earn log zeta = 3 at every site are deep in the localized
    # phase: the second block back already weighs below 2^-60 of their
    # sums. Rows with no charge and no reward are the free walk, whose far
    # blocks keep a power-law share, so they never stop. At lam = 0 the
    # first product chunk (rows 0-4) holds only rows that stop.
    n, b = 512, partition._BLOCK
    kern = build_srw_kernel(n)
    p = ModelParams(lam, 0.0, 1.0, 0.0)
    rng = np.random.default_rng(5)
    free = (5, 7, 9)
    samples = [freeze_zero_disorder(n, 0.0) if i in free
               else disorder_from_arrays(rng.normal(size=n), np.full(n, 3.0),
                                         0.0) for i in range(10)]
    made = _spy_cross_sums(monkeypatch)
    batch = _forward_batch(*_stack(samples, p), kern.log_k, p.lam)
    blocks = n // b
    every = blocks * (blocks + 1) // 2
    assert made[0].pairs == every
    for i, (row, d) in enumerate(zip(batch, samples)):
        alone = _forward_batch(*_stack([d], p), kern.log_k, p.lam)[0]
        assert np.array_equal(row, alone)
        # one source block per target block, or all of them
        assert made[-1].pairs == (every if i in free else blocks)
        ref = _loop_forward(0, d, p, kern, n)
        assert np.all(np.abs(row - ref) <= _rounding_bound(ref, 0))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_underflowing_cross_sums_take_the_log_domain_block(monkeypatch, lam):
    # under K(n) ~ n^-150 a full block's last target gets e^-728 of its
    # source block's weight, so every row takes the reference recursion
    # there. In the 17-site last block only rows 1 and 2 do: their rewards
    # of -1000 over sites 346..383 leave the mass of block 2 at least 55
    # sites back.
    n = 400
    kern = build_powerlaw_kernel(150.0, n)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 9, i) for i in range(4)]
    for i in (1, 2):
        tilde = samples[i].omega_tilde[1:].copy()
        tilde[345:383] = -1000.0
        samples[i] = disorder_from_arrays(samples[i].omega[1:], tilde, p.h)
    calls = _spy_fallback(monkeypatch)
    batch = _forward_batch(*_stack(samples, p), kern.log_k, p.lam)
    assert calls == [4, 4, 2]
    for row, d in zip(batch, samples):
        ref = _loop_forward(0, d, p, kern, n)
        assert np.all(np.abs(row - ref) <= _rounding_bound(ref, 0))
        alone = _forward_batch(*_stack([d], p), kern.log_k, p.lam)[0]
        assert np.array_equal(row, alone)


# ---------------------------------------------------------------------------
# the backward table: the blocked forward DP on the reversed sample

@pytest.mark.parametrize("lam", [0.0, 0.8])
@pytest.mark.parametrize("law", list(DisorderLaw))
def test_small_block_backward_matches_brute_force(srw16, monkeypatch, law,
                                                  lam):
    # blocks of 4 sites, so the reversed pass crosses blocks from N = 5
    monkeypatch.setattr(partition, "_BLOCK", 4)
    for n in range(1, 13):
        p = ModelParams(lam, 0.3, 0.9, -0.2)
        d = sample_disorder(law, DisorderLaw.GAUSSIAN, n, p.h, 78, n)
        zb = forward_tables(d, p, srw16).log_zb
        assert zb[n] == 0.0
        for t in range(n):
            suffix = disorder_from_arrays(d.omega[t + 1:],
                                          d.omega_tilde[t + 1:], p.h)
            assert zb[t] == pytest.approx(
                brute_force_partition(suffix, p, srw16), abs=1e-9)


@pytest.mark.parametrize("n,lam", [(300, 0.0), (300, 0.5), (1024, 0.0),
                                   (1024, 0.5)])
def test_blocked_backward_within_rounding_bound(n, lam):
    kern = build_srw_kernel(n)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h,
                        6, 0)
    lz = _log_rewards(d, p)
    ref = _loop_backward(d, p, kern, lz)
    err = np.abs(forward_tables(d, p, kern).log_zb - ref)
    assert np.all(err <= _backward_bound(ref, lz, d.w_prefix, lam))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_backward_rows_do_not_depend_on_batch(lam):
    n = 300   # three blocks
    kern = build_srw_kernel(n)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 22, i) for i in range(17)]
    single = [forward_tables(d, p, kern) for d in samples]
    for r in (1, 2, 3, 17):
        w, lz = _stack(samples[:r], p)
        rows_f, rows_b = partition._log_z_rows(w, lz, kern.log_k, p.lam, True)
        # the estimators' batched builder: every row is its sample's tables
        built = partition._table_rows(samples[:r], p, kern, True)
        for i, (row_f, row, t, b) in enumerate(zip(rows_f, rows_b, single,
                                                   built)):
            assert np.array_equal(row_f, t.log_zf)
            assert np.array_equal(row, t.log_zb)
            assert np.array_equal(b.log_zf, t.log_zf)
            assert np.array_equal(b.log_zb, t.log_zb)
            assert [b.built_from(d, p, kern) for d in samples] == [
                j == i for j in range(len(samples))]
            assert not b.built_from(samples[i], p.replace(h=0.2), kern)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_mixed_point_rows_match_single_point_rows(lam):
    # rows of points that differ in h, lam_tilde and h_tilde, point-major,
    # as the estimators' chunk worker stacks them
    n = 300   # three blocks
    kern = build_srw_kernel(n)
    base = ModelParams(lam, 0.1, 1.0, 0.5)
    points = [base, base.replace(h=0.4), base.replace(lam_tilde=0.3),
              base.replace(h_tilde=-0.7), base.replace(h=0.0, h_tilde=1.2)]
    samples = [[sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                                q.h, 24, i) for i in range(3)] for q in points]
    rows = partition._table_rows(
        [d for ds in samples for d in ds],
        [q for q in points for _ in range(3)], kern, True)
    for q, ds, got in zip(points, samples, zip(*[iter(rows)] * 3)):
        for d, t in zip(ds, got):
            alone = partition._table_rows([d], q, kern, True)[0]
            assert t.built_from(d, q, kern)
            assert np.array_equal(t.log_zf, alone.log_zf)
            assert np.array_equal(t.log_zeta_sites, alone.log_zeta_sites)
            assert np.array_equal(t.log_zb, alone.log_zb)


def test_pass_mixing_lam_raises(srw64):
    p = ModelParams(0.0, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 32,
                               p.h, 25, i) for i in range(2)]
    with pytest.raises(GuardError, match="share lam"):
        partition._table_rows(samples, [p, p.replace(lam=0.5)], srw64)
    with pytest.raises(GuardError, match="one ModelParams per sample"):
        partition._table_rows(samples, [p], srw64)


def test_backward_rows_each_checked(srw64):
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 40,
                               p.h, 23, i) for i in range(3)]
    log_z = np.array([log_partition_curve(d, p, srw64)[40] for d in samples])
    w, lz = _stack(samples, p)
    # the pass on the reversed samples
    rev = _forward_batch(w[:, 40:] - w[:, ::-1],
                         np.ascontiguousarray(lz[:, ::-1]), srw64.log_k, p.lam)
    partition._log_zb_rows(rev, lz, log_z)
    for r in range(3):
        off = log_z.copy()
        off[r] += 1e-6 * max(1.0, abs(off[r]))
        with pytest.raises(NumericsError, match="disagree"):
            partition._log_zb_rows(rev, lz, off)


@pytest.mark.parametrize("r", [1, 2, 3, 17])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_stacked_backward_rows_equal_separate_passes(lam, r):
    # each sample's reversed row rides below the forward rows of one pass:
    # both tables equal a forward pass and a reversed pass of their own
    n = 300   # three blocks
    kern = build_srw_kernel(n)
    base = ModelParams(lam, 0.1, 1.0, 0.5)
    points = [base, base.replace(h=0.4), base.replace(lam_tilde=0.3),
              base.replace(h_tilde=-0.7)]
    params = [points[i % len(points)] for i in range(r)]
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               q.h, 26, i) for i, q in enumerate(params)]
    w = np.stack([d.w_prefix for d in samples])
    lz = np.stack([_log_rewards(d, q) for d, q in zip(samples, params)])
    zf = _forward_batch(w, lz, kern.log_k, lam)
    rev = _forward_batch(w[:, n:] - w[:, ::-1],
                         np.ascontiguousarray(lz[:, ::-1]), kern.log_k, lam)
    zb = rev[:, ::-1] - lz + lz[:, n:]
    tables = partition._table_rows(samples, params, kern, backward=True)
    for t, row_f, row_b in zip(tables, zf, zb):
        assert np.array_equal(t.log_zf, row_f)
        assert np.array_equal(t.log_zb, row_b)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_segment_spans_equal_segment_tables(monkeypatch, lam):
    # spans of two samples, of lengths 300 and 200, in nine width groups:
    # within one block, over two and three blocks, cut by the sample end,
    # and the last anchor a = n - 1; widths 128 and 201 hold spans of both
    kern = build_srw_kernel(300)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    d, e = (sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                            p.h, 27, i) for i, n in ((0, 300), (1, 200)))
    spans = [(d, 0, 5), (d, 3, 200), (d, 10, 300), (d, 100, 299),
             (d, 299, 300), (d, 5, 133), (d, 40, 167), (d, 171, 300),
             (d, 200, 300), (e, 0, 130), (e, 60, 200), (e, 150, 160),
             (e, 0, 127)]
    widths = [128, 256, 291, 201, 2, 256, 128, 130, 101, 201, 141, 51, 128]
    passes = []
    forward = partition._forward_batch

    def spy(w, *args):
        passes.append((w.shape[1], len(w)))
        return forward(w, *args)

    monkeypatch.setattr(partition, "_forward_batch", spy)
    rows = partition._segments(
        [(s.w_prefix, _log_rewards(s, p), a, b) for s, a, b in spans],
        kern.log_k, p.lam)
    assert sorted(passes) == [(2, 1), (51, 1), (101, 1), (128, 3), (130, 1),
                              (141, 1), (201, 2), (256, 2), (291, 1)]
    monkeypatch.setattr(partition, "_forward_batch", forward)
    assert len(rows) == len(spans)
    for row, (s, a, b), width in zip(rows, spans, widths):
        assert row.shape == (width,)
        bounded = segment_tables(a, s, p, kern, stop=b)
        assert np.array_equal(row[:b + 1 - a], bounded[a:b + 1])
        # past b, the row holds the full segment to its block's end
        assert np.array_equal(row, segment_tables(a, s, p, kern)[a:a + width])


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from copolymer import (DisorderLaw, ModelParams, build_srw_kernel,
                       sample_disorder)
from copolymer.partition import _BLOCK, _CrossBlockSums, log_partition_curves
kern = build_srw_kernel(300)
rng = np.random.default_rng(3)
log_z = -5.0 * rng.random((17, 3 * _BLOCK))
w = np.cumsum(rng.normal(size=log_z.shape), axis=1)
for lam in (0.0, 0.5):
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN,
                               300, p.h, 21, i) for i in range(17)]
    z = log_partition_curves(samples, p, kern)
    print(hashlib.sha256(z.tobytes()).hexdigest())
    cross = _CrossBlockSums(17, 2 * _BLOCK, kern.log_k, lam)
    for a in range(2):
        block = slice(a * _BLOCK, (a + 1) * _BLOCK)
        cross.add_source(a, log_z[:, block], w[:, block])
    sums, ok = cross.log_sums(2, w[:, 2 * _BLOCK:])
    assert ok.all()
    print(hashlib.sha256(sums.tobytes()).hexdigest())
"""


def test_blocked_rows_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(partition.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH",
                                                                ""))
        done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        digests.append(done.stdout)
    assert len(digests[0].split()) == 4 and digests[0] == digests[1]


# ---------------------------------------------------------------------------
# the in-block solve and its log-domain fallback

def _spy_fallback(monkeypatch):
    """Record the row count of every fallback block while it still runs."""
    calls = []
    original = partition._log_domain_block

    def spy(lz, *args):
        calls.append(len(lz))
        return original(lz, *args)

    monkeypatch.setattr(partition, "_log_domain_block", spy)
    return calls


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_linear_and_fallback_rows_in_one_batch(monkeypatch, lam):
    # row 1 earns log zeta = 10.5 at every site: its in-block prefix sum
    # passes the exponent limit in the two full blocks (1344 > 600) but not
    # in the 45-site last one (472), so it takes the fallback twice
    n = 300
    kern = build_srw_kernel(n)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 31, i) for i in range(3)]
    samples[1] = disorder_from_arrays(samples[1].omega[1:], np.full(n, 10.0),
                                      p.h)
    calls = _spy_fallback(monkeypatch)
    batch = _forward_batch(*_stack(samples, p), kern.log_k, p.lam)
    assert calls == [1, 1]
    for i, (row, d) in enumerate(zip(batch, samples)):
        ref = _loop_forward(0, d, p, kern, n)
        assert np.all(np.abs(row - ref) <= _rounding_bound(ref, 0))
        alone = _forward_batch(*_stack([d], p), kern.log_k, p.lam)[0]
        assert np.array_equal(row, alone)
    assert calls == [1, 1, 1, 1]


@pytest.mark.parametrize("fallback,linear", [
    # charge sums of 400 per site put om past the exponent limit at once;
    # a row with no charge keeps om = 0
    (ModelParams(400.0, 400.0, 1.0, 0.5), ModelParams(400.0, 0.0, 1.0, 0.5)),
    # rewards of about 4000 per site pass the limit at the first site
    (ModelParams(0.0, 0.0, 800.0, 5.0), ModelParams(0.0, 0.0, 1.0, 0.5)),
])
def test_all_fallback_rows_equal_loop(monkeypatch, fallback, linear):
    # a row that takes the reference recursion in every block is the
    # per-site loop bit for bit, beside a row on the linear path
    n = 300
    kern = build_srw_kernel(n)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                        fallback.h, 33, 0)
    flat = freeze_zero_disorder(n, linear.h)
    calls = _spy_fallback(monkeypatch)
    both = partition._table_rows([d, flat], [fallback, linear], kern)
    assert calls == [1, 1, 1]
    assert np.array_equal(both[0].log_zf, _loop_forward(0, d, fallback, kern,
                                                        n))
    for t, (e, q) in zip(both, ((d, fallback), (flat, linear))):
        alone = partition._table_rows([e], q, kern)[0]
        assert np.array_equal(t.log_zf, alone.log_zf)


def test_solve_rejects_rows_out_of_range():
    # a cross term e^-740 is subnormal on the linear path: the solved y
    # must leave [e^-600, e^600] and send the row to the loop; a NaN reward
    # fails the exponent check. At lam = 0 the block takes the triangular
    # path and both rows go on through the scaled solve, which rejects
    # them too; at lam = 0.5 only the scaled solve runs.
    h = 20
    kern = build_srw_kernel(h)
    for lam in (0.0, 0.5):
        solver = partition._InBlockSolve(3, h, kern.log_k, lam)
        assert solver.shared == (lam == 0.0)
        lz = np.zeros((3, h))
        lz[2, 7] = np.nan
        cross = np.full((3, h), -3.0)
        cross[1, 0] = -740.0
        with np.errstate(all="ignore"):
            _, ok = solver.solve(lz, np.zeros((3, h)), cross)
        assert ok.tolist() == [True, False, False]


def test_trsv_rows_on_a_partial_last_block(monkeypatch):
    # width 300 at lam = 0.5: blocks of 128, 128 and 44 sites, every one
    # solved by one dtrsv per row; 17 rows take three chunks of the matrix
    # build, and the 44-site block addresses each row's matrix at its own
    # width
    n = 299
    kern = build_srw_kernel(n)
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 34, i) for i in range(17)]
    trsv, orders = partition._dtrsv(), []

    def spy(*args):
        orders.append(args[4])
        return trsv(*args)

    monkeypatch.setattr(partition, "_dtrsv", lambda: spy)
    batch = _forward_batch(*_stack(samples, p), kern.log_k, p.lam)
    assert orders == [128] * 34 + [44] * 17
    for row, d in zip(batch, samples):
        alone = _forward_batch(*_stack([d], p), kern.log_k, p.lam)[0]
        assert np.array_equal(row, alone)
        ref = _loop_forward(0, d, p, kern, n)
        assert np.all(np.abs(row - ref) <= _rounding_bound(ref, 0))


def test_large_rewards_at_lam_zero_stay_linear(monkeypatch):
    # log zeta = 5 + omega_tilde per site: the scaled solve's in-block
    # prefix sums pass the exponent limit in every block, while the
    # triangular path's solved values stay in range, so no row-block
    # takes the reference recursion
    n = 2048
    kern = build_srw_kernel(n)
    p = ModelParams(0.0, 0.0, 1.0, 5.0)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 1, i) for i in range(4)]
    calls = _spy_fallback(monkeypatch)
    batch = _forward_batch(*_stack(samples, p), kern.log_k, p.lam)
    assert calls == []
    ref = _loop_forward(0, samples[0], p, kern, n)
    assert np.all(np.abs(batch[0] - ref) <= _rounding_bound(ref, 0))


def test_lam_zero_without_blas_binding_takes_scaled_solve(monkeypatch):
    # where numpy's OpenBLAS or its dtrsv symbol is absent, the lookup
    # finds nothing and a lam = 0 pass runs the scaled solve
    monkeypatch.setattr(partition.os, "listdir", lambda path: [])
    assert partition._dtrsv.__wrapped__() is None
    monkeypatch.undo()
    n = 300
    kern = build_srw_kernel(n)
    p = ModelParams(0.0, 0.0, 1.0, 0.5)
    samples = [sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                               p.h, 5, i) for i in range(3)]
    monkeypatch.setattr(partition, "_dtrsv", lambda: None)
    batch = _forward_batch(*_stack(samples, p), kern.log_k, p.lam)
    monkeypatch.setattr(partition, "_TRSV_WIDTH", 10 ** 9)
    assert np.array_equal(
        batch, _forward_batch(*_stack(samples, p), kern.log_k, p.lam))
    for row, d in zip(batch, samples):
        ref = _loop_forward(0, d, p, kern, n)
        assert np.all(np.abs(row - ref) <= _rounding_bound(ref, 0))


def test_benchmark_inputs_take_the_linear_path(tmp_path, monkeypatch):
    # operation 0 of each benchmark workload at its seed 1 (CLI seed 1000),
    # at threads 1 so that every pass runs in this process
    from copolymer import cli, observables
    calls = _spy_fallback(monkeypatch)
    loc = ("--lam", "0.5", "--h", "0.1", "--lam-tilde", "1", "--h-tilde",
           "0.5")
    ref = ("--lam", "0", "--h", "0", "--lam-tilde", "1", "--h-tilde", "0.5")
    common = ("--law-omega", "gaussian", "--law-tilde", "gaussian",
              "--threads", "1", "--seed", "1000", "--out", str(tmp_path))
    for argv in (("clt", "--n-ladder", "2048,4096", "--replicas", "8", *ref),
                 ("phase-scan", "--axis1", "lam", "--axis2", "h_tilde",
                  "--values1", "0.0,0.5,1.0", "--values2=-0.5,0.0,0.5",
                  "--n", "512", "--replicas", "16", *ref),
                 ("maxexc", "--n", "4096", "--paths", "16", "--replicas", "2",
                  *loc)):
        assert cli.main([*argv, *common]) == 0
    n = 2048
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    kern = build_srw_kernel(n)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h, 1,
                        0)
    t = forward_tables(d, p, kern)
    observables.contact_profile(t, d, p, kern)
    observables.log_z_gradients(t, d, p, kern)
    for k in (n // 4, n // 2, 3 * n // 4):
        observables.excursion_law(k, t, d, p, kern)
    observables.ursell_from_tables([n // 2 + o for o in (0, 8, 16, 24)], t,
                                   d, p, kern)
    assert calls == []


def test_benchmark_scans_take_the_linear_path(monkeypatch):
    # operation 0 of exact_single at seed 1: the profile scan and the three
    # excursion laws run no log-domain row and no log weight at all
    from copolymer import observables
    calls = []

    def spy(name):
        original = getattr(observables, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(observables, name, counted)

    spy("_log_domain_rows")
    spy("_log_weight_into")
    n = 2048
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    kern = build_srw_kernel(n)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h, 1,
                        0)
    t = forward_tables(d, p, kern)
    observables.contact_profile(t, d, p, kern)
    for k in (n // 4, n // 2, 3 * n // 4):
        observables.excursion_law(k, t, d, p, kern)
    assert calls == []


def test_benchmark_pass_stops_most_cross_block_products(tmp_path,
                                                        monkeypatch):
    # operation 0 of clt_large (CLI seed 1000, N = 4096, R = 8) is one
    # forward pass at a localized point: its rows stop after a few source
    # blocks. At a delocalized point (no reward, no charge) every pair runs,
    # so the stop is not over-eager.
    from copolymer import cli
    made = _spy_cross_sums(monkeypatch)
    blocks = 4096 // partition._BLOCK
    every = blocks * (blocks + 1) // 2
    argv = ("clt", "--n-ladder", "2048,4096", "--replicas", "8",
            "--law-omega", "gaussian", "--law-tilde", "gaussian",
            "--threads", "1", "--seed", "1000", "--out", str(tmp_path),
            "--lam", "0", "--h", "0")
    assert cli.main([*argv, "--lam-tilde", "1", "--h-tilde", "0.5"]) == 0
    assert len(made) == 1 and made[0].pairs <= every // 4
    assert cli.main([*argv, "--lam-tilde", "0", "--h-tilde", "0"]) == 0
    assert len(made) == 2 and made[1].pairs == every
