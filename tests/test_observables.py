import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import copolymer.observables as obs
from copolymer.disorder import (DisorderLaw, PathRng, freeze_zero_disorder,
                                sample_disorder)
from copolymer.errors import GuardError, NumericsError
from copolymer.kernel import build_powerlaw_kernel, build_srw_kernel
from copolymer.logspace import sigmoid
from copolymer.observables import (PathSample, contact_profile,
                                   excursion_cover, excursion_law,
                                   joint_contact_probability, log_z_gradients,
                                   max_excursion, sample_path, ursell,
                                   ursell_from_tables)
from copolymer.oracle import brute_force_marginals
import copolymer.partition as partition
from copolymer.partition import (ModelParams, _log_weight_core,
                                 forward_tables, log_partition_curve,
                                 segment_tables)

ZERO = ModelParams(0.0, 0.0, 0.0, 0.0)


def test_profiles_match_enumeration(srw16, make_instance):
    for i in range(6):
        n = 4 + (3 * i) % 9
        p, d = make_instance(i + 7, n)
        t = forward_tables(d, p, srw16)
        prof = contact_profile(t, d, p, srw16)
        ref = brute_force_marginals(d, p, srw16)
        assert np.allclose(prof.p_contact, ref.p_contact, atol=1e-10)
        assert np.allclose(prof.p_neg, ref.p_neg, atol=1e-10)
        assert prof.p_contact[n] == pytest.approx(1.0, abs=1e-12)
        assert np.all(prof.p_contact[:] > 0)


def test_joint_contacts_match_enumeration(srw16, make_instance):
    p, d = make_instance(11, 10)
    t = forward_tables(d, p, srw16)
    ref = brute_force_marginals(d, p, srw16)
    for a, b in combinations(range(1, 11), 2):
        got = joint_contact_probability([a, b], t, d, p, srw16)
        assert got == pytest.approx(ref.joint[a, b], abs=1e-10)
    # singleton consistency and pinned endpoint
    assert joint_contact_probability([10], t, d, p, srw16) == pytest.approx(1.0)
    prof = contact_profile(t, d, p, srw16)
    for a in range(1, 10):
        assert joint_contact_probability([a], t, d, p, srw16) == pytest.approx(
            prof.p_contact[a], abs=1e-12)


def test_joint_contact_guards(srw16, make_instance):
    p, d = make_instance(2, 8)
    t = forward_tables(d, p, srw16)
    with pytest.raises(GuardError):
        joint_contact_probability([3, 3], t, d, p, srw16)
    with pytest.raises(GuardError):
        joint_contact_probability([0, 2], t, d, p, srw16)
    with pytest.raises(GuardError):
        joint_contact_probability([5, 2], t, d, p, srw16)


def test_negative_sign_profile_is_half_at_zero_lam(srw16):
    p = ModelParams(0.0, 0.0, 0.9, 0.2)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 12, 0, 8, 0)
    t = forward_tables(d, p, srw16)
    prof = contact_profile(t, d, p, srw16)
    assert np.allclose(prof.p_neg[1:], 0.5, atol=1e-12)


def test_excursion_cover_partition_of_unity(srw16, make_instance):
    for i in range(4):
        p, d = make_instance(i + 30, 11)
        t = forward_tables(d, p, srw16)
        cover = excursion_cover(t, d, p, srw16)
        assert np.allclose(cover[1:], 1.0, atol=1e-9)


def test_excursion_law_free_case(srw16):
    # zero couplings, N = 2, k = 1: lengths 1 and 2 with odds K(1)^2 : K(2)
    d = freeze_zero_disorder(2, 0.0)
    t = forward_tables(d, ZERO, srw16)
    law = excursion_law(1, t, d, ZERO, srw16)
    assert law.pmf[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert law.pmf[2] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_excursion_law_matches_enumeration(srw16, make_instance):
    p, d = make_instance(17, 9)
    t = forward_tables(d, p, srw16)
    ref = brute_force_marginals(d, p, srw16)
    for k in range(1, 9):
        law = excursion_law(k, t, d, p, srw16)
        assert np.allclose(law.pmf, ref.exc_pmf[k], atol=1e-10)
        assert law.pmf.sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(GuardError):
        excursion_law(9, t, d, p, srw16)
    with pytest.raises(GuardError):
        excursion_law(0, t, d, p, srw16)


def test_ursell_third_order_identity(srw16, make_instance):
    # E(d1;d2;d3) = E(d1 d2; d3) - E(d1) E(d2;d3) - E(d2) E(d1;d3)
    p, d = make_instance(23, 12)
    t = forward_tables(d, p, srw16)
    sites = (2, 5, 9)
    joints = {}
    for r in range(1, 4):
        for sub in combinations(sites, r):
            joints[sub] = joint_contact_probability(sub, t, d, p, srw16)
    u3 = ursell(sites, joints)
    pair = lambda a, b: joints[(a, b)] - joints[(a,)] * joints[(b,)]
    e12_3 = (joints[(2, 5, 9)] - joints[(2, 5)] * joints[(9,)]
             - joints[(2,)] * pair(5, 9) - joints[(5,)] * pair(2, 9))
    assert u3 == pytest.approx(e12_3, abs=1e-12)


@pytest.mark.parametrize("sites", [(2, 6), (1, 4, 8), (2, 4, 7, 10)])
def test_ursell_moment_reconstruction(srw16, make_instance, sites):
    # moments rebuild from cumulants: E prod = sum over partitions prod kappa
    p, d = make_instance(29, 11)
    t = forward_tables(d, p, srw16)
    joints = {}
    kappa = {}
    for r in range(1, len(sites) + 1):
        for sub in combinations(sites, r):
            joints[sub] = joint_contact_probability(sub, t, d, p, srw16)
            kappa[sub] = (joints[sub] if r == 1
                          else ursell(sub, joints))
    from copolymer.observables import _set_partitions
    total = 0.0
    for part in _set_partitions(list(sites)):
        prod = 1.0
        for block in part:
            prod *= kappa[tuple(sorted(block))]
        total += prod
    assert total == pytest.approx(joints[tuple(sites)], abs=1e-12)


def test_conditional_independence_across_pin(srw16):
    # free measure: conditioned on a pinned middle site, the two sides decouple
    d = freeze_zero_disorder(12, 0.0)
    t = forward_tables(d, ZERO, srw16)
    a, m, b = 3, 6, 10
    jam = joint_contact_probability([a, m], t, d, ZERO, srw16)
    jmb = joint_contact_probability([m, b], t, d, ZERO, srw16)
    jamb = joint_contact_probability([a, m, b], t, d, ZERO, srw16)
    pm = joint_contact_probability([m], t, d, ZERO, srw16)
    assert jamb * pm == pytest.approx(jam * jmb, abs=1e-12)


def test_ursell_guards(srw16, make_instance):
    p, d = make_instance(2, 8)
    t = forward_tables(d, p, srw16)
    with pytest.raises(GuardError):
        ursell_from_tables([3], t, d, p, srw16)
    with pytest.raises(GuardError):
        ursell_from_tables([1, 2, 3, 4, 5], t, d, p, srw16)


def test_gradients_match_finite_differences(srw512, make_instance):
    from copolymer.disorder import disorder_from_arrays
    n = 128
    p, d = make_instance(41, n, coupling_range=(0.1, 2.0))
    t = forward_tables(d, p, srw512)
    grads = log_z_gradients(t, d, p, srw512)
    eps = 1e-4

    def logz(params):
        dd = disorder_from_arrays(d.omega[1:], d.omega_tilde[1:], params.h)
        return log_partition_curve(dd, params, srw512)[n]

    for name in ("lam", "h", "lam_tilde", "h_tilde"):
        hi = p.replace(**{name: getattr(p, name) + eps})
        lo = p.replace(**{name: getattr(p, name) - eps})
        fd = (logz(hi) - logz(lo)) / (2 * eps)
        assert abs(fd - grads[name]) <= 1e-5 * max(1.0, abs(grads[name]))


def test_sample_path_marginals(srw64):
    p = ModelParams(0.5, 0.1, 0.8, 0.3)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 64, p.h, 5, 0)
    t = forward_tables(d, p, srw64)
    prof = contact_profile(t, d, p, srw64)
    reps = 20000
    counts = np.zeros(65)
    neg_counts = 0
    exc_counts = 0
    for i in range(reps):
        path = sample_path(t, d, p, srw64, PathRng(5, 0, i))
        for s in path.returns:
            counts[s] += 1
        neg_counts += sum(1 for s in path.signs if s < 0)
        exc_counts += len(path.signs)
        assert path.returns[-1] == 64
        assert all(b > a for a, b in zip(path.returns, path.returns[1:]))
    emp = counts / reps
    bound = 4.0 * np.sqrt(prof.p_contact[1:] * (1 - prof.p_contact[1:]) / reps)
    assert np.all(np.abs(emp[1:] - prof.p_contact[1:]) <= bound + 1e-9)


def test_sample_path_fair_signs_at_zero_lam(srw16):
    p = ModelParams(0.0, 0.0, 0.6, 0.1)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 12, 0, 9, 0)
    t = forward_tables(d, p, srw16)
    neg = tot = 0
    for i in range(4000):
        path = sample_path(t, d, p, srw16, PathRng(9, 0, i))
        neg += sum(1 for s in path.signs if s < 0)
        tot += len(path.signs)
    assert abs(neg / tot - 0.5) <= 4.0 / (2.0 * math.sqrt(tot))


def test_sample_path_free_two_step(srw16):
    # zero couplings, N = 2: P(1 in tau) = 2/3
    d = freeze_zero_disorder(2, 0.0)
    t = forward_tables(d, ZERO, srw16)
    hits = 0
    reps = 5000
    for i in range(reps):
        path = sample_path(t, d, ZERO, srw16, PathRng(1, 0, i))
        hits += 1 in path.returns
    p_hat = hits / reps
    assert abs(p_hat - 2.0 / 3.0) <= 4.0 * math.sqrt((2 / 3) * (1 / 3) / reps)


def test_max_excursion_values():
    assert max_excursion(PathSample(returns=tuple(range(1, 11)),
                                    signs=(1,) * 10)) == 1
    assert max_excursion(PathSample(returns=(10,), signs=(1,))) == 10
    assert max_excursion(PathSample(returns=(3, 10), signs=(1, -1))) == 7


def _loop_max_excursion(path):
    """The per-return loop ``max_excursion`` replaced, kept as the
    reference."""
    prev = best = 0
    for r in path.returns:
        best = max(best, r - prev)
        prev = r
    return best


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=4096), min_size=1))
def test_max_excursion_matches_loop(sites):
    path = PathSample(returns=tuple(sorted(sites)), signs=(1,) * len(sites))
    got = max_excursion(path)
    assert type(got) is int and got == _loop_max_excursion(path)


def test_max_excursion_of_sampled_paths_matches_loop(srw64):
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 64, p.h,
                        4, 0)
    t = forward_tables(d, p, srw64)
    for i in range(16):
        path = sample_path(t, d, p, srw64, PathRng(4, 0, i))
        assert max_excursion(path) == _loop_max_excursion(path)
    one = PathSample(returns=(64,), signs=(-1,))
    assert max_excursion(one) == _loop_max_excursion(one) == 64


def _tuple_diff_max_excursion(path):
    """``max_excursion`` before it read the returns through np.fromiter,
    kept as the reference."""
    return int(np.max(np.diff(path.returns, prepend=0), initial=0))


def test_max_excursion_matches_tuple_diff():
    rng = np.random.default_rng(22)
    paths = [PathSample(returns=(64,), signs=(1,)),
             PathSample(returns=(40, 41, 45, 64), signs=(1, -1, 1, 1))]
    for n in (2, 100, 4096):
        sites = np.flatnonzero(rng.random(n) < 0.5) + 1
        returns = tuple(sites.tolist()) + (n + 1,)
        paths.append(PathSample(returns=returns, signs=(1,) * len(returns)))
    for path in paths:
        got = max_excursion(path)
        assert type(got) is int
        assert got == _tuple_diff_max_excursion(path)
    assert [max_excursion(p) for p in paths[:2]] == [64, 40]


def _loop_sample_path(tables, d, p, kern, rng):
    """The sampler before its window table: one full O(t) row per return,
    kept as the reference."""
    zf, w, lk = tables.log_zf, d.w_prefix, kern.log_k
    t = tables.n
    rev_returns = []
    rev_signs = []
    while t > 0:
        x = zf[:t] + _log_weight_core(lk[t:0:-1], w[t] - w[:t], p.lam)
        m = np.max(x)
        cdf = np.cumsum(np.exp(x - m))
        target = rng.uniform() * cdf[-1]
        u = int(np.searchsorted(cdf, target))
        if u >= t:
            u = t - 1
        frac_neg = sigmoid(-2.0 * p.lam * (w[t] - w[u]))
        sign = -1 if rng.uniform() < frac_neg else 1
        rev_returns.append(t)
        rev_signs.append(sign)
        t = u
    return PathSample(returns=tuple(reversed(rev_returns)),
                      signs=tuple(reversed(rev_signs)))


# lam_tilde = 0 drops the return reward: long excursions are common there,
# so draws walk past the window
@pytest.mark.parametrize("p, localized", [
    (ModelParams(0.0, 0.0, 1.0, 0.5), True),
    (ModelParams(0.5, 0.1, 1.0, 0.5), True),
    (ModelParams(0.0, 0.0, 0.0, -0.5), False),
    (ModelParams(0.5, 0.1, 0.0, -0.5), False),
])
def test_sample_path_matches_loop_sampler(srw512, p, localized):
    n = 8 * obs._WINDOW
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h,
                        21, 0)
    t = forward_tables(d, p, srw512)
    order = np.random.default_rng(4).permutation(30)
    paths = {int(i): sample_path(t, d, p, srw512, PathRng(21, 0, int(i)))
             for i in order}
    for i, path in paths.items():
        assert path == _loop_sample_path(t, d, p, srw512, PathRng(21, 0, i))
    if not localized:
        assert max(map(max_excursion, paths.values())) > obs._WINDOW


def test_sample_path_advances_rng_two_draws_per_step(srw64):
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 64, p.h,
                        3, 0)
    t = forward_tables(d, p, srw64)
    for i in range(10):
        rng = PathRng(3, 0, i)
        steps = len(sample_path(t, d, p, srw64, rng).returns)
        ref = PathRng(3, 0, i)
        for _ in range(2 * steps):
            ref.uniform()
        assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_sample_path_across_draw_blocks(srw512, monkeypatch, steps):
    # blocks of 1-3 steps end and rewind at every possible offset; n = 20
    # is below the window width
    monkeypatch.setattr(obs, "_DRAW_STEPS", steps)
    for n, p in ((20, ModelParams(0.5, 0.1, 1.0, 0.5)),
                 (4 * obs._WINDOW, ModelParams(0.5, 0.1, 0.0, -0.5))):
        d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n,
                            p.h, 5, 0)
        t = forward_tables(d, p, srw512)
        gaps = []
        for i in range(6):
            rng = PathRng(5, 0, i)
            path = sample_path(t, d, p, srw512, rng)
            ref = PathRng(5, 0, i)
            assert path == _loop_sample_path(t, d, p, srw512, ref)
            assert rng.uniform() == ref.uniform()
            gaps.append(max_excursion(path))
    # the last paths walked past the window
    assert max(gaps) > obs._WINDOW


def test_sample_path_work_is_linear_in_n(monkeypatch):
    # counts the weights a path evaluates: the window table, once per
    # tables object, then only the walks past the window; a full row per
    # step would be about n^2 / 2
    n = 4096
    kern = build_srw_kernel(n)
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h,
                        1, 0)
    t = forward_tables(d, p, kern)
    weights = []
    weight_into = obs._log_weight_into

    def counted(out, *args, **kw):
        weights.append(out.size)
        return weight_into(out, *args, **kw)

    monkeypatch.setattr(obs, "_log_weight_into", counted)
    for i in range(4):
        weights.clear()
        path = sample_path(t, d, p, kern, PathRng(1, 0, i))
        gaps = np.diff((0,) + path.returns)
        walks = sum(int(g) - obs._WINDOW + obs._CHUNK
                    for g in gaps if g > obs._WINDOW)
        table = n * obs._WINDOW if i == 0 else 0
        assert sum(weights) <= table + walks < n * n // 64
        assert len(gaps) > n // 8


def test_sample_path_rejects_other_coupling(srw512):
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 128, p.h,
                        8, 0)
    t = forward_tables(d, p, srw512)
    other_d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN,
                              128, p.h, 8, 0)
    for args in ((d, p.replace(lam=1.5), srw512),
                 (d, p, build_powerlaw_kernel(1.8, 512)),
                 (other_d, p, srw512)):
        with pytest.raises(GuardError, match="built from"):
            sample_path(t, *args, PathRng(8))
    assert t._rows is None
    sample_path(t, d, p.replace(), srw512, PathRng(8))


def test_sample_path_rejects_mismatched_sample(srw64):
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    big = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 32, p.h,
                          1, 0)
    small = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 16,
                            p.h, 1, 0)
    t = forward_tables(big, p, srw64)
    with pytest.raises(GuardError):
        sample_path(t, small, p, srw64, PathRng(1))


def _loop_probability_scan(tables, d, p, kern, weight_neg):
    """The profile scan as one log-domain row per u: the bit-level
    reference of the fallback, and the bound reference of the linear
    path."""
    n = tables.n
    zf, zb, lz = tables.log_zf, tables.log_zb, tables.log_zeta_sites
    w = d.w_prefix
    lk = kern.log_k
    diff = np.zeros(n + 2)
    for u in range(n):
        dw = w[u + 1:] - w[u]
        logp = (zf[u] + _log_weight_core(lk[1:n - u + 1], dw, p.lam)
                + lz[u + 1:] + zb[u + 1:] - zf[n])
        contrib = np.exp(logp)
        if weight_neg:
            contrib = contrib * sigmoid(-2.0 * p.lam * dw)
        diff[u + 1] += contrib.sum()
        diff[u + 2:] -= contrib
    return np.cumsum(diff)[:n + 1]


def _loop_excursion_law(k, tables, d, p, kern):
    """The excursion law as one log-domain row per u: the bit-level
    reference of the fallback, and the bound reference of the linear
    path."""
    n = tables.n
    zf, zb, lz = tables.log_zf, tables.log_zb, tables.log_zeta_sites
    w = d.w_prefix
    lk = kern.log_k
    pmf = np.zeros(n + 1)
    t = np.arange(k + 1, n + 1)
    for u in range(k + 1):
        logp = (zf[u] + _log_weight_core(lk[k + 1 - u:n - u + 1],
                                         w[k + 1:] - w[u], p.lam)
                + lz[k + 1:] + zb[k + 1:] - zf[n])
        pmf[t - u] += np.exp(logp)
    return pmf


_LAMS = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0))
# lam_tilde = 0 drops the return reward: the delocalized side
_LAM_TILDES = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0))
_EPS = 2.0 ** -52


def _bound_scale(t, d, p):
    """(N + 16 M) 2^-52, the factor of the bounds stated at
    ``_excursion_probability_scan``, with M its largest log magnitude."""
    m = max(1.0, *(float(np.abs(x).max()) for x in
                   (t.log_zf, t.log_zb, t.log_zeta_sites,
                    2.0 * p.lam * d.w_prefix)))
    return (t.n + 16.0 * m) * _EPS


def _assert_scans_and_laws_within_bound(t, d, p, kern, laws, share=1.0):
    """Both forms lie within the stated bounds of the exact values, so
    within twice them of each other; ``share`` asks for less."""
    n = t.n
    scale = 2.0 * share * _bound_scale(t, d, p)
    pc = np.exp(t.log_zf + t.log_zb - t.log_zf[n])
    before = np.concatenate(([0.0], np.cumsum(pc)[:-1]))
    scan_bound = scale * (1.0 + 2.0 * before)
    prof = contact_profile(t, d, p, kern)
    for got, want in ((prof.p_neg, _loop_probability_scan(t, d, p, kern,
                                                           True)),
                      (excursion_cover(t, d, p, kern),
                       _loop_probability_scan(t, d, p, kern, False))):
        assert np.all(np.abs(got - want) <= scan_bound)
    for k in laws:
        got = excursion_law(k, t, d, p, kern).pmf
        want = _loop_excursion_law(k, t, d, p, kern)
        # relative above 1e-300; below it the entries only need to stay tiny
        assert np.all(np.abs(got - want) <= np.maximum(scale * want, 2e-300))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), _LAMS, _LAM_TILDES,
       st.integers(min_value=0, max_value=2**32))
def test_scans_and_laws_within_bound_of_loops(n, lam, lam_tilde, seed):
    kern = build_srw_kernel(64)
    p = ModelParams(lam, 0.2, lam_tilde, 0.4)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.UNIFORM_SYM, n, p.h,
                        seed, 0)
    t = forward_tables(d, p, kern)
    _assert_scans_and_laws_within_bound(t, d, p, kern, range(1, n))


def _spy_rows(monkeypatch):
    """Record the site k of every log-domain fallback call (None: scan)."""
    calls = []
    original = obs._log_domain_rows

    def spy(*args, **kwargs):
        calls.append(args[5] if len(args) > 5 else kwargs.get("k"))
        return original(*args, **kwargs)

    monkeypatch.setattr(obs, "_log_domain_rows", spy)
    return calls


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_scans_and_laws_well_inside_bound_at_n2048(monkeypatch, lam):
    # the benchmark sample (seed 1, replica 0) at both weight branches:
    # the linear path, at most a tenth of the bound from the loops
    n = 2048
    kern = build_srw_kernel(n)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h, 1,
                        0)
    t = forward_tables(d, p, kern)
    calls = _spy_rows(monkeypatch)
    _assert_scans_and_laws_within_bound(t, d, p, kern,
                                        (n // 4, n // 2, 3 * n // 4),
                                        share=0.1)
    assert calls == []


_FALLBACK_CASES = {
    # log K(s) < -600 from s = 55 on: a subnormal Kh
    "alpha150": (ModelParams(0.5, 0.1, 1.0, 0.5), 64, 150.0),
    # the forward table climbs ~4000 per site: no block scale spans it
    "lam-tilde-800": (ModelParams(0.0, 0.0, 800.0, 5.0), 48, None),
    "lam-tilde-800-neg": (ModelParams(0.5, 0.1, 800.0, -5.0), 300, None),
}


@pytest.mark.parametrize("case", sorted(_FALLBACK_CASES))
def test_fallback_fires_and_equals_loops(monkeypatch, case):
    p, n, alpha = _FALLBACK_CASES[case]
    kern = (build_srw_kernel(n) if alpha is None
            else build_powerlaw_kernel(alpha, n))
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h, 1,
                        0)
    t = forward_tables(d, p, kern)
    calls = _spy_rows(monkeypatch)
    assert np.array_equal(contact_profile(t, d, p, kern).p_neg,
                          _loop_probability_scan(t, d, p, kern, True))
    assert np.array_equal(excursion_cover(t, d, p, kern),
                          _loop_probability_scan(t, d, p, kern, False))
    k = n // 2
    assert np.array_equal(excursion_law(k, t, d, p, kern).pmf,
                          _loop_excursion_law(k, t, d, p, kern))
    assert calls == [None, None, k]


@pytest.mark.parametrize("sites", [(1000, 1011), (1000, 1004, 1023),
                                   (997, 1000, 1013, 1024)])
def test_ursell_reads_one_segment_per_anchor(monkeypatch, sites):
    # the per-subset joints, bit for bit, from len(sites) - 1 segment rows;
    # every span lies in one block, so the rows share one pass
    n = 2048
    kern = build_srw_kernel(n)
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h, 1,
                        0)
    t = forward_tables(d, p, kern)
    joints = {sub: joint_contact_probability(sub, t, d, p, kern)
              for r in range(1, len(sites) + 1)
              for sub in combinations(sites, r)}
    passes = _spy_passes(monkeypatch)
    assert ursell_from_tables(sites, t, d, p, kern) == ursell(sites, joints)
    assert passes == [len(sites) - 1]


def _spy_passes(monkeypatch):
    """The rows of every ``_forward_batch`` pass from here on."""
    passes = []
    forward = partition._forward_batch

    def spy(j, stop, w, *args):
        passes.append(len(w))
        return forward(j, stop, w, *args)

    monkeypatch.setattr(partition, "_forward_batch", spy)
    return passes


def test_exact_single_sample_passes(monkeypatch):
    # both tables of one sample in one pass of 2 rows, and the order-4
    # Ursell function at N/2 + {0, 8, 16, 24} in one pass of 3 rows
    n = 2048
    kern = build_srw_kernel(n)
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h, 1,
                        0)
    passes = _spy_passes(monkeypatch)
    t = forward_tables(d, p, kern)
    assert passes == [2]
    sites = [n // 2 + o for o in (0, 8, 16, 24)]
    ursell_from_tables(sites, t, d, p, kern)
    assert passes == [2, 3]
    # the joint of one pair more than a block apart: one pass of one row
    joint_contact_probability([10, 10 + 300], t, d, p, kern)
    assert passes == [2, 3, 1]


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_joint_reads_bounded_segments(lam):
    # each consecutive pair from its own bounded segment, bit for bit, with
    # pairs in several width groups
    n = 300
    kern = build_srw_kernel(n)
    p = ModelParams(lam, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, p.h, 4,
                        0)
    t = forward_tables(d, p, kern)
    sites = [3, 20, 170, 171, 299, 300]
    log_p = t.log_zf[3] + t.log_zb[300] - t.log_z
    for a, b in zip(sites, sites[1:]):
        log_p += segment_tables(a, d, p, kern, stop=b)[b]
    assert joint_contact_probability(sites, t, d, p, kern) == float(
        np.exp(log_p))


def test_profile_cached_read_only_and_keyed_by_coupling(srw64, monkeypatch):
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 48, p.h,
                        6, 0)
    t = forward_tables(d, p, srw64)
    scans = []
    full_scan = obs._excursion_probability_scan

    def counted(*args, **kwargs):
        scans.append(args[2:4])  # (p, kern) of each scan
        return full_scan(*args, **kwargs)

    monkeypatch.setattr(obs, "_excursion_probability_scan", counted)
    prof = contact_profile(t, d, p, srw64)
    assert contact_profile(t, d, p, srw64) is prof
    for arr in (prof.p_contact, prof.p_neg):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1] = 0.0
    # the gradients read the cached profile: no second scan
    log_z_gradients(t, d, p, srw64)
    assert len(scans) == 1
    # another coupling or kernel is refused, and leaves the cache alone
    other_p = p.replace(lam=1.5)
    other_kern = build_powerlaw_kernel(1.8, 64)
    for pp, kern in ((other_p, srw64), (p, other_kern)):
        with pytest.raises(GuardError, match="built from"):
            contact_profile(t, d, pp, kern)
    assert len(scans) == 1
    assert t._profile is prof


_ENTRY_POINTS = {
    "sample_path": lambda t, d, p, kern: sample_path(t, d, p, kern,
                                                     PathRng(2)),
    "contact_profile": contact_profile,
    "excursion_cover": excursion_cover,
    "excursion_law": lambda t, d, p, kern: excursion_law(8, t, d, p, kern),
    "joint_contact_probability": lambda t, d, p, kern:
        joint_contact_probability([4, 30], t, d, p, kern),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_observables_guard_horizon_and_length(srw64, name):
    call = _ENTRY_POINTS[name]
    p = ModelParams(0.5, 0.1, 1.0, 0.5)
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 32, p.h,
                        2, 0)
    short = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 16,
                            p.h, 2, 0)
    t = forward_tables(d, p, srw64)
    # a kernel horizon below n, and a sample of another length
    with pytest.raises(GuardError):
        call(t, d, p, build_srw_kernel(16))
    with pytest.raises(GuardError):
        call(t, short, p, srw64)
    call(t, d, p, srw64)


def test_excursion_law_check_catches_nan(srw64, make_instance):
    p, d = make_instance(14, 24)
    t = forward_tables(d, p, srw64)
    zb = t.log_zb.copy()
    zb[20] = np.nan
    t._log_zb = zb
    with pytest.raises(NumericsError):
        excursion_law(12, t, d, p, srw64)
