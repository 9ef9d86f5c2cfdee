import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copolymer.disorder import (DisorderLaw, disorder_from_arrays,
                                freeze_zero_disorder, sample_disorder)
from copolymer.errors import ConfigError, GuardError, NumericsError
from copolymer.kernel import build_srw_kernel
from copolymer.logspace import logsumexp
from copolymer.oracle import brute_force_partition, log_srw_mass
import copolymer.partition as partition
from copolymer.partition import (ModelParams, _backward, _forward_batch,
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
        seg = segment_tables(m, d, p, srw64, t)
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
    seg0 = segment_tables(0, d, p, srw16, t)
    assert np.allclose(seg0, t.log_zf, atol=1e-12)
    # zero couplings: Z_seg(1, 2) = K(1)
    dz = freeze_zero_disorder(2, 0.0)
    seg1 = segment_tables(1, dz, ZERO, srw16)
    assert seg1[2] == pytest.approx(math.log(0.5), abs=1e-14)
    with pytest.raises(GuardError):
        segment_tables(12, d, p, srw16)
    # cached on the tables object
    assert segment_tables(3, d, p, srw16, t) is segment_tables(3, d, p, srw16, t)


def test_shifted_curve_stop(srw64, make_instance):
    p, d = make_instance(6, 40)
    full = segment_tables(10, d, p, srw64)
    part = segment_tables(10, d, p, srw64, stop=20)
    assert np.allclose(part[10:21], full[10:21], atol=0)
    assert np.all(np.isnan(part[21:]))
    with pytest.raises(GuardError):
        segment_tables(10, d, p, srw64, stop=10)
    # a bounded segment is never cached, so it cannot stand in for a full one
    t = forward_tables(d, p, srw64)
    assert np.array_equal(segment_tables(10, d, p, srw64, t, stop=20), part,
                          equal_nan=True)
    assert np.array_equal(segment_tables(10, d, p, srw64, t), full,
                          equal_nan=True)


def test_segment_cache_keyed_by_coupling(srw64):
    # a segment cached for the tables' own coupling never serves another
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 32, p.h,
                        3, 0)
    t = forward_tables(d, p, srw64)
    own = segment_tables(5, d, p, srw64, t)
    assert segment_tables(5, d, p, srw64, t) is own
    other_p = p.replace(lam=1.5)
    other_kern = build_srw_kernel(64)
    for pp, kern in ((other_p, srw64), (p, other_kern)):
        fresh = segment_tables(5, d, pp, kern)
        got = segment_tables(5, d, pp, kern, t)
        assert np.array_equal(got, fresh, equal_nan=True)
        assert np.array_equal(got, _loop_forward(5, d, pp, kern, 32),
                              equal_nan=True)
    assert not np.array_equal(segment_tables(5, d, other_p, srw64, t)[20:],
                              own[20:])
    assert list(t._segments) == [5] and t._segments[5] is own


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
    """The single-sample site loop the batched kernel replaced, kept as the
    bit-level reference."""
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
    """The backward row loop before it ran in scratch buffers, kept as the
    bit-level reference."""
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
    assert np.array_equal(_backward(d, p, kern, lz), ref)
    assert np.array_equal(forward_tables(d, p, kern).log_zb, ref)


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
        assert np.array_equal(single, _loop_forward(0, d, p, kern, n))


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
    w = np.stack([d.w_prefix for d in samples])
    lz = np.stack([_log_rewards(d, p) for d in samples])
    batch = _forward_batch(j, stop, w, lz, kern.log_k, p.lam)
    for row, d in zip(batch, samples):
        shifted = segment_tables(j, d, p, kern, stop=stop)
        assert np.array_equal(row, shifted, equal_nan=True)
        assert np.array_equal(shifted, _loop_forward(j, d, p, kern, stop),
                              equal_nan=True)


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


def test_backward_table_checked_on_first_read(srw64, make_instance,
                                              monkeypatch):
    p, d = make_instance(5, 40)
    exact = forward_tables(d, p, srw64).log_zb
    original = partition._backward

    def shifted(*args):
        return original(*args) + 1e-6

    monkeypatch.setattr(partition, "_backward", shifted)
    t = forward_tables(d, p, srw64)
    for _ in range(2):
        with pytest.raises(NumericsError):
            t.log_zb
    monkeypatch.setattr(partition, "_backward", original)
    assert np.array_equal(t.log_zb, exact)
    assert t.log_zb is t.log_zb and not t.log_zb.flags.writeable
