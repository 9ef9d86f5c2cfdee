import dataclasses
import math
import multiprocessing
import os
import threading
import weakref

import numpy as np
import pytest

import copolymer.estimators as est
import copolymer.partition as partition
from copolymer.cli import main
from copolymer.disorder import DisorderLaw
from copolymer.errors import ConfigError, GuardError, NumericsError
from copolymer.estimators import (VERDICT_BOUNDED, VERDICT_LOG_GROWTH,
                                  boundary_influence, clt_study, entropy_bound,
                                  estimate_free_energy, estimate_mu,
                                  excursion_rate_check, fit_correlation_decay,
                                  finite_size_study, max_excursion_study,
                                  meet_probability, phase_scan)
from copolymer.kernel import build_srw_kernel
from copolymer.logspace import LOG2
from copolymer.observables import PathSample
from copolymer.oracle import (homogeneous_pinning_free_energy, log_srw_mass,
                              renewal_mass_curve)
from copolymer.partition import (ModelParams, forward_tables,
                                 log_partition_curve, segment_tables)

ZERO = ModelParams(0.0, 0.0, 0.0, 0.0)
V_STAR = ModelParams(0.0, 0.0, 1.0, 0.5)
GG = (DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN)


def test_free_energy_zero_couplings_exact(srw512):
    # deterministic: f_hat = (1/N) log u_N with zero stderr
    ests = estimate_free_energy(ZERO, srw512, None, [64, 128], 2, 1)
    for e in ests:
        assert e.stderr == 0.0
        assert e.f_hat == pytest.approx(log_srw_mass(e.n) / e.n, abs=1e-13)
    assert ests[1].f_extrapolated == pytest.approx(
        2 * ests[1].f_hat - ests[0].f_hat, abs=1e-15)
    assert math.isnan(ests[0].f_extrapolated)


def test_free_energy_replica_guard(srw512):
    with pytest.raises(GuardError):
        estimate_free_energy(ZERO, srw512, None, [16], 1, 1)


def test_mu_zero_couplings_exact(srw512):
    # mu_hat = -(1/N) log(2/u_N): negative, vanishing polynomially
    ests = estimate_mu(ZERO, srw512, None, [128, 256, 512], 2, 1)
    for e in ests:
        expected = -(LOG2 - log_srw_mass(e.n)) / e.n
        assert e.mu_hat == pytest.approx(expected, abs=1e-13)
        assert e.mu_hat < 0.0
        # numerator 1 variant differs by exactly log 2 / N at lam = 0
        assert e.mu_hat_symmetric - e.mu_hat == pytest.approx(LOG2 / e.n,
                                                              abs=1e-13)
    assert abs(ests[2].mu_hat) < abs(ests[0].mu_hat)


def test_mu_symmetric_chain_at_positive_lam(srw512):
    # h = 0, symmetric law: mu_hat <= mu_hat_symmetric holds per realization;
    # the log2/N upper side holds for true expectations (asserted exactly in
    # the enumeration suite) and here only up to replica noise
    p = ModelParams(0.6, 0.0, 0.4, 0.2)
    laws = (DisorderLaw.RADEMACHER, DisorderLaw.RADEMACHER)
    e, = estimate_mu(p, srw512, laws, [96], 400, 77)
    assert e.mu_hat <= e.mu_hat_symmetric + 1e-13
    assert e.mu_hat_symmetric - e.mu_hat <= LOG2 / 96 + 5 * e.mu_stderr


def test_mu_ladder_at_reference_point(srw512):
    ests = estimate_mu(V_STAR, srw512, GG, [128, 256, 512], 150, 2024)
    for e in ests:
        assert 0.0 < e.mu_hat <= e.f_hat + 3 * e.f_stderr
    for a, b in zip(ests[:-1], ests[1:]):
        assert b.mu_hat >= a.mu_hat - 2 * (a.mu_stderr + b.mu_stderr)


def test_decay_fit_localized(srw512):
    fit = fit_correlation_decay(V_STAR, srw512, GG, 512, 80,
                                list(range(4, 41)), 5)
    assert fit.c2_hat > 0
    assert fit.r_squared >= 0.9
    assert fit.anchor == 128
    assert np.all(np.diff(fit.distances) > 0)


def test_decay_fit_free_case_reported(srw512):
    # no disorder coupling: polynomial decay, fit reported but not asserted
    fit = fit_correlation_decay(ZERO, srw512, None, 256, 2,
                                list(range(4, 33)), 5)
    assert np.isfinite(fit.c2_hat)
    assert fit.mean_abs_cov.shape == fit.distances.shape


def test_decay_fit_guards(srw512):
    with pytest.raises(GuardError):
        fit_correlation_decay(V_STAR, srw512, GG, 64, 4, [1, 60], 5)
    with pytest.raises(GuardError):
        fit_correlation_decay(V_STAR, srw512, GG, 64, 4, [], 5)


def test_boundary_free_case_exact_renewal(srw512):
    # zero couplings: E_N(delta_m) = u_m u_{N-m} / u_N exactly
    n = 64
    rep = boundary_influence(ZERO, srw512, None, n, [8, 16, 32, n], 2, 9)
    u = renewal_mass_curve(srw512, n)
    for k, got in zip(rep.k_values, rep.mean_abs_diff):
        m = k // 2
        big = u[m] * u[n - m] / u[n]
        small = u[m] * u[k - m] / u[k]
        assert got == pytest.approx(abs(big - small), abs=1e-12)
    assert rep.mean_abs_diff[-1] == 0.0          # k = N: same system
    with pytest.raises(GuardError):
        boundary_influence(ZERO, srw512, None, n, [n + 1], 2, 9)


def test_boundary_localized_rate(srw512):
    rep = boundary_influence(V_STAR, srw512, GG, 256, [32, 64, 128, 192],
                             60, 11)
    assert rep.rate > 0


def test_maxexc_out_of_domain_flag(srw64):
    studies = max_excursion_study(ZERO, srw64, None, [64], 2, 4, 3)
    s = studies[0]
    assert s.mu_hat <= 0
    assert all(math.isnan(v) for v in s.frac_within.values())
    tails = [s.tail[c] for c in sorted(s.tail)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert not s.localized_guard


def test_maxexc_localized_small(srw512):
    studies = max_excursion_study(V_STAR, srw512, GG, [512], 10, 4, 17)
    s = studies[0]
    assert s.localized_guard
    assert s.mu_hat > 0
    assert s.deltas.shape == (10, 4)
    assert s.frac_within[0.5] >= 0.5


def test_clt_zero_coupling_variance_is_zero(srw64):
    rep = clt_study(ZERO, srw64, GG, [64], 16, 3)
    assert rep.var_over_n[0] == 0.0
    assert rep.skewness[0] == 0.0
    assert math.isnan(rep.ks_statistic[0])


def test_clt_localized_small(srw512):
    rep = clt_study(V_STAR, srw512, GG, [256, 512], 200, 3)
    assert np.all(rep.var_over_n > 0)
    ratio = rep.var_over_n[1] / rep.var_over_n[0]
    assert 0.6 <= ratio <= 1.4
    assert np.all(rep.ks_statistic < 0.12)


def test_finite_size_free_case_exact_gaps(srw512):
    ladder = [16, 32, 64, 128, 256]
    rep = finite_size_study(ZERO, srw512, None, ladder, 2, 5)
    for i, n in enumerate(rep.pair_n):
        exact = 0.5 * (log_srw_mass(2 * n) - 2 * log_srw_mass(n))
        assert rep.scaled_gap[i] == pytest.approx(exact, abs=1e-10)
        assert rep.gap_stderr[i] == 0.0
    # quarter-log-growth of the scaled gap in the free case
    incr = np.diff(rep.scaled_gap)
    assert np.all(incr > 0)
    assert np.allclose(incr, 0.25 * LOG2, rtol=0.2)
    assert rep.verdict == VERDICT_LOG_GROWTH


def test_finite_size_homogeneous_bounded(srw512):
    hom = ModelParams(0.0, 0.0, 1.0, 1.0)
    rep = finite_size_study(hom, srw512, None, [32, 64, 128, 256, 512], 2, 5)
    assert rep.verdict == VERDICT_BOUNDED
    assert np.all(rep.diff_mean >= -3 * rep.diff_stderr - 1e-12)


def test_finite_size_ladder_guards(srw512):
    with pytest.raises(GuardError):
        finite_size_study(ZERO, srw512, None, [16, 32, 64], 2, 5)
    with pytest.raises(GuardError):
        finite_size_study(ZERO, srw512, None, [16, 32, 64, 100, 200], 2, 5)


def test_entropy_bound_validation(srw64):
    with pytest.raises(ConfigError):
        entropy_bound(V_STAR, srw64,
                      (DisorderLaw.GAUSSIAN, DisorderLaw.RADEMACHER),
                      8, 64, [0.0, 0.2], 1)
    with pytest.raises(ConfigError):
        entropy_bound(ModelParams(0.5, 0.1, 0.0, 0.0), srw64, GG,
                      8, 64, [0.0, 0.2], 1)
    with pytest.raises(GuardError):
        entropy_bound(V_STAR, srw64, GG, 8, 64, [], 1)


def test_entropy_bound_zero_epsilon_recovers_f(srw512):
    rep = entropy_bound(V_STAR, srw512, GG, 60, 256,
                        [0.0, 0.2, 0.4, 0.6], 21)
    assert rep.bound_values[0] == rep.f_hat
    assert rep.best_bound <= rep.f_hat
    # convex in eps up to estimation noise
    second = np.diff(rep.bound_values, 2)
    noise = 3.0 * (rep.bound_stderr[:-2] + rep.bound_stderr[2:])
    assert np.all(second >= -noise)


def test_entropy_bound_localized_strict(srw512):
    rep = entropy_bound(V_STAR, srw512, GG, 120, 384,
                        [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 22)
    assert rep.best_bound < rep.f_hat - 2 * rep.f_stderr


def test_meet_probability_free_window_two(srw64):
    # window of size 2 has one interior site: P(no meet) = 1 - p^2
    n = 64
    rep = meet_probability(ZERO, srw64, None, n, [1, 2], 40, 25, 13)
    assert rep.mean_prob[0] == 1.0
    u = renewal_mass_curve(srw64, n)
    a = (n - 2) // 2
    site = a + 1
    p_site = u[site] * u[n - site] / u[n]
    expect = 1.0 - p_site ** 2
    npairs = 40 * 25
    tol = 4.0 * math.sqrt(expect * (1 - expect) / npairs)
    assert abs(rep.mean_prob[1] - expect) <= tol


def test_meet_probability_localized(srw512):
    rep = meet_probability(V_STAR, srw512, GG, 256, [4, 8, 12, 16, 24], 50,
                           8, 14)
    assert rep.rate > 0
    diffs = np.diff(rep.mean_prob)
    assert np.all(diffs <= 0.05)


def test_phase_scan_classification(srw512):
    # strongly depinned: h_tilde very negative at lam = 0 keeps F at 0
    pts = phase_scan("lam_tilde", "h_tilde", [1.0], [-2.0], ZERO, srw512, GG,
                     256, 40, 15)
    assert not pts[0].localized
    # delocalized finite-N estimate sits at -O(alpha log N / N), below the floor
    assert -3.0 * math.log(256) / 256 < pts[0].f_hat < 1e-3
    with pytest.raises(GuardError):
        phase_scan("lam_tilde", "h_tilde", [], [1.0], ZERO, srw512, GG,
                   128, 4, 15)
    with pytest.raises(ConfigError):
        phase_scan("lam_tilde", "lam_tilde", [1.0], [1.0], ZERO, srw512, GG,
                   128, 4, 15)


def test_phase_scan_homogeneous_matches_root():
    kern = build_srw_kernel(4096)
    pts = phase_scan("lam_tilde", "h_tilde", [1.0], [1.0], ZERO, kern, None,
                     4096, 2, 15)
    b_star = homogeneous_pinning_free_energy(kern, 1.0)
    pt = pts[0]
    assert pt.localized
    assert abs(pt.f_hat - b_star) <= 1e-3 + 3 * pt.stderr


def test_phase_scan_stable_under_replica_doubling(srw512):
    a = phase_scan("lam_tilde", "h_tilde", [0.2, 1.5], [0.5], V_STAR, srw512,
                   GG, 256, 40, 15)
    b = phase_scan("lam_tilde", "h_tilde", [0.2, 1.5], [0.5], V_STAR, srw512,
                   GG, 256, 80, 15)
    assert [pt.localized for pt in a] == [pt.localized for pt in b]


def test_excursion_rates_concentrate_on_f(srw512):
    kern = build_srw_kernel(1024)
    rep = excursion_rate_check(V_STAR, kern, GG, 1024, 512, 80, 515,
                               s_min=10, s_max=50)
    lo, hi = 0.5 * rep.f_hat, 1.5 * rep.f_hat
    frac = np.mean((rep.replica_rates >= lo) & (rep.replica_rates <= hi))
    assert frac >= 0.9
    # annealed rate dominated by mu (below the typical per-sample rate)
    assert rep.annealed_rate <= float(np.median(rep.replica_rates))
    assert np.all(rep.mean_pmf >= 0)
    with pytest.raises(GuardError):
        excursion_rate_check(V_STAR, kern, GG, 1024, 2, 4, 515)


def test_free_energy_convex_in_h_tilde(srw512):
    # log Z is a cumulant generating direction in h_tilde per sample, so the
    # common-seed f_hat stencil is exactly convex (up to rounding)
    stencil = [-0.4, -0.2, 0.0, 0.2, 0.4]
    f_vals = []
    for dh in stencil:
        p = V_STAR.replace(h_tilde=V_STAR.h_tilde + dh)
        e, = estimate_free_energy(p, srw512, GG, [192], 30, 33)
        f_vals.append(e.f_hat)
    second = np.diff(f_vals, 2)
    assert np.all(second >= -1e-10)


def test_estimators_bit_identical_across_threads_and_reruns(srw512):
    a = estimate_free_energy(V_STAR, srw512, GG, [64, 128], 24, 9, threads=1)
    b = estimate_free_energy(V_STAR, srw512, GG, [64, 128], 24, 9, threads=1)
    c = estimate_free_energy(V_STAR, srw512, GG, [64, 128], 24, 9, threads=3)
    for x, y in zip(a, b):
        assert x == y
    for x, y in zip(a, c):
        assert x == y


@pytest.mark.parametrize("replicas,threads,cap,n_chunks", [
    (10, 1, None, 1),
    (10, 2, None, 2),
    (1, 2, None, 1),
    (33, 1, 31, 2),
    (33, 2, 31, 2),
    (16, 2, 127, 2),
    (100, 2, 15, 7),
    (2000, 2, 15, 134),
])
def test_chunk_indices_fewest_equal_chunks(replicas, threads, cap, n_chunks):
    chunks = est._chunk_indices(replicas, threads, cap)
    sizes = [len(c) for c in chunks]
    assert len(chunks) == n_chunks
    assert max(sizes) - min(sizes) <= 1
    assert cap is None or max(sizes) <= cap
    assert [r for c in chunks for r in c] == list(range(replicas))


def _spy_worker_starts(monkeypatch):
    """Patch the fan-out's worker-start seam; the returned list gets one
    (first, step, tasks) per worker started, its share being
    tasks[first::step]."""
    starts, start = [], est._start_worker

    def spy(work, first, step, conn):
        starts.append((first, step, len(work)))
        return start(work, first, step, conn)

    monkeypatch.setattr(est, "_start_worker", spy)
    return starts


def test_phase_scan_starts_one_pool(srw64, monkeypatch):
    starts = _spy_worker_starts(monkeypatch)
    pts = phase_scan("lam", "h_tilde", [0.0, 0.5], [-0.5, 0.5], V_STAR,
                     srw64, GG, 32, 5, 3, threads=2)
    assert len(starts) == 1
    ref = phase_scan("lam", "h_tilde", [0.0, 0.5], [-0.5, 0.5], V_STAR,
                     srw64, GG, 32, 5, 3, threads=1)
    assert pts == ref


def test_maxexc_ladder_starts_one_pool(srw64, monkeypatch):
    starts = _spy_worker_starts(monkeypatch)
    studies = max_excursion_study(V_STAR, srw64, GG, [32, 64], 3, 2, 5,
                                  threads=2)
    assert len(starts) == 1
    ref = max_excursion_study(V_STAR, srw64, GG, [32, 64], 3, 2, 5,
                              threads=1)
    assert [s.n for s in studies] == [32, 64]
    np.testing.assert_equal([dataclasses.asdict(s) for s in studies],
                            [dataclasses.asdict(s) for s in ref])


def test_pool_has_at_most_one_process_per_task(srw64, monkeypatch):
    starts = _spy_worker_starts(monkeypatch)
    # two replicas make two one-replica tasks, whatever the thread count:
    # the parent runs one beside one worker, two processes in all
    got = estimate_free_energy(V_STAR, srw64, GG, [32], 2, 4, threads=4)
    assert starts == [(1, 2, 2)]
    assert got == estimate_free_energy(V_STAR, srw64, GG, [32], 2, 4)


class _WorkSpy:
    """Records the rows of every forward pass and every (h, replica)
    drawn, at threads 1 (the pool's workers would not report)."""

    def __init__(self, monkeypatch):
        self.passes, self.draws = [], []
        forward, draw = partition._forward_batch, est.sample_disorder

        def forward_spy(w, *args):
            self.passes.append(len(w))
            return forward(w, *args)

        def draw_spy(law, law_tilde, n, h, seed, replica):
            self.draws.append((h, replica))
            return draw(law, law_tilde, n, h, seed, replica)

        monkeypatch.setattr(partition, "_forward_batch", forward_spy)
        monkeypatch.setattr(est, "sample_disorder", draw_spy)


def _loop_phase_scan(axis1, axis2, values1, values2, base, kern, n, replicas,
                     seed):
    """(f_hat, stderr) per grid point, one forward curve per replica."""
    out = []
    for v1 in values1:
        for v2 in values2:
            q = base.replace(**{axis1: v1, axis2: v2})
            z = np.array([log_partition_curve(est._draw_disorder(
                GG, n, q.h, seed, r), q, kern)[n] for r in range(replicas)])
            out.append(est._mean_stderr(z / n))
    return out


def _scan_fields(points):
    return [(pt.f_hat, pt.stderr) for pt in points]


def test_phase_scan_makes_one_pass_per_lam(srw64, monkeypatch):
    spy = _WorkSpy(monkeypatch)
    grid = ("lam", "h_tilde", [0.0, 0.5, 1.0], [-0.5, 0.0, 0.5])
    pts = phase_scan(*grid, V_STAR, srw64, GG, 40, 6, 4, threads=1)
    assert spy.passes == [3 * 6] * 3
    # each replica drawn once per lam group, not once per point
    assert sorted(spy.draws) == sorted([(0.0, r) for r in range(6)] * 3)
    assert _scan_fields(pts) == _loop_phase_scan(*grid, V_STAR, srw64, 40, 6,
                                                 4)


def test_phase_scan_over_h_draws_per_h(srw64, monkeypatch):
    spy = _WorkSpy(monkeypatch)
    p = V_STAR.replace(lam=0.5)
    grid = ("h", "lam_tilde", [0.0, 0.3], [0.5, 1.0])
    pts = phase_scan(*grid, p, srw64, GG, 40, 5, 4, threads=1)
    # one pass, but the charge sums differ with h: one draw per (h, replica)
    assert spy.passes == [4 * 5]
    assert sorted(spy.draws) == sorted((h, r) for h in (0.0, 0.3)
                                       for r in range(5))
    assert _scan_fields(pts) == _loop_phase_scan(*grid, p, srw64, 40, 5, 4)


def test_entropy_bound_makes_one_pass_per_chunk(srw64, monkeypatch):
    spy = _WorkSpy(monkeypatch)
    n, replicas = 32, 7
    # four points, at most 3 replicas per chunk: 3 chunks
    monkeypatch.setattr(est, "_BATCH_CELLS", 12 * (n + 1))
    rep = entropy_bound(V_STAR, srw64, GG, replicas, n, [0.0, 0.1, 0.2, 0.3],
                        1, threads=1)
    assert sorted(spy.passes) == [4 * 2, 4 * 2, 4 * 3]
    assert sorted(spy.draws) == [(0.0, r) for r in range(replicas)]
    monkeypatch.setattr(est, "_BATCH_CELLS", 1 << 18)
    np.testing.assert_equal(_fields(rep), _fields(entropy_bound(
        V_STAR, srw64, GG, replicas, n, [0.0, 0.1, 0.2, 0.3], 1, threads=1)))


@pytest.mark.parametrize("threads", [1, 2])
def test_group_above_row_cap_is_split(srw64, monkeypatch, threads):
    spy = _WorkSpy(monkeypatch)
    n, replicas = 40, 5
    # 4 points of one lam, at most 3 rows per pass
    monkeypatch.setattr(est, "_BATCH_CELLS", 3 * (n + 1))
    grid = ("lam_tilde", "h_tilde", [0.5, 1.0], [-0.5, 0.5])
    pts = phase_scan(*grid, V_STAR, srw64, GG, n, replicas, 4,
                     threads=threads)
    if threads == 1:
        assert spy.passes and max(spy.passes) <= 3
        assert sum(spy.passes) == 4 * replicas
    assert _scan_fields(pts) == _loop_phase_scan(*grid, V_STAR, srw64, n,
                                                 replicas, 4)


@pytest.mark.parametrize("threads", [1, 2])
def test_backward_group_above_row_cap_is_split(srw64, monkeypatch, threads):
    n, replicas = 40, 5
    args = (V_STAR, srw64, GG, n, replicas, [4, 5, 6], 1)
    ref = _fields(fit_correlation_decay(*args, threads=1))
    spy = _WorkSpy(monkeypatch)
    # at most 4 rows per pass: a replica's forward and reversed rows count
    # two, so 2 replicas per chunk, where 4 would fit a forward-only group
    monkeypatch.setattr(est, "_BATCH_CELLS", 4 * (n + 1))
    got = _fields(fit_correlation_decay(*args, threads=threads))
    if threads == 1:
        # per chunk of 1, 2 and 2 replicas: the tables, then the segments
        assert sorted(spy.passes) == [1, 2, 2, 2, 4, 4]
    np.testing.assert_equal(got, ref)


def test_chunk_task_drops_each_replicas_tables(srw64):
    # a sampler window is (n, 32) floats: a chunk must not keep them all.
    # Two points of one group, the second with spans: each call sees its
    # own point's tables, and its segments in span order
    seen = []
    spans = [(5, 20), (0, 32), (9, 10)]

    def per_sample(c, r, d, tables, segs):
        assert tables.built_from(d, c["p"], srw64)
        assert [ref() for ref in seen] == [None] * len(seen)
        seen.append(weakref.ref(tables))
        assert len(segs) == len(c.get("spans", ()))
        for (a, b), seg in zip(c.get("spans", ()), segs):
            assert np.array_equal(seg[:b - a + 1], segment_tables(
                a, d, c["p"], srw64, stop=b)[a:b + 1])
        return r

    points = [V_STAR, V_STAR.replace(h=0.3, h_tilde=-0.2)]
    commons = [dict(per_sample=per_sample, backward=False, p=q, kern=srw64,
                    laws=GG, seed=3, n=32) for q in points]
    commons[1]["spans"] = spans
    assert est._chunk_task((commons, [5, 6, 7, 8])) == [[5, 6, 7, 8]] * 2
    assert len(seen) == 8 and [ref() for ref in seen] == [None] * 8


# the per-sample replica estimators, as (kernel, replicas, threads, p) ->
# result; every sample has length 32
_REPLICA_ESTIMATORS = {
    "boundary_influence": lambda k, r, t=1, p=V_STAR: boundary_influence(
        p, k, GG, 32, [8, 16], r, 1, t),
    "fit_correlation_decay": lambda k, r, t=1, p=V_STAR: fit_correlation_decay(
        p, k, GG, 32, r, [4, 5, 6], 1, t),
    "meet_probability": lambda k, r, t=1, p=V_STAR: meet_probability(
        p, k, GG, 32, [4, 8], r, 2, 1, t),
    "max_excursion_study": lambda k, r, t=1, p=V_STAR: max_excursion_study(
        p, k, GG, [32], r, 2, 1, threads=t),
    "excursion_rate_check": lambda k, r, t=1, p=V_STAR: excursion_rate_check(
        p, k, GG, 32, 16, r, 1, threads=t),
    "finite_size_study": lambda k, r, t=1, p=V_STAR: finite_size_study(
        p, k, GG, [2, 4, 8, 16, 32], r, 1, t),
    "entropy_bound": lambda k, r, t=1, p=V_STAR: entropy_bound(
        p, k, GG, r, 32, [0.1], 1, t),
}


def _fields(result):
    if isinstance(result, list):
        return [dataclasses.asdict(x) for x in result]
    return dataclasses.asdict(result)


def test_meet_sample_counts_shared_returns_strictly_inside(monkeypatch):
    # windows 2, 4, 6 of n = 16 span (7, 9), (6, 10) and (5, 11)
    paths = iter([(3, 6, 10, 16), (6, 10, 12, 16), (4, 8, 16), (2, 8, 16)])
    monkeypatch.setattr(est, "sample_path", lambda *args: PathSample(
        returns=next(paths), signs=()))
    c = dict(p=V_STAR, kern=None, n=16, seed=1, windows=[2, 4, 6], pairs=2)
    # shared 6, 10 and 16 meet only in the widest; shared 8 in all three
    np.testing.assert_array_equal(est._meet_sample(c, 0, None, None, []),
                                  [0.5, 0.5, 0.0])


# module level, so a worker can pickle it: tasks the parent runs append to
# its own list, a worker's to the worker's copy
_PARENT_TASKS = []
_CHUNK_TASK = est._chunk_task


def _parent_chunk_task(task):
    commons, chunk = task
    _PARENT_TASKS.append((os.getpid(), commons[0]["n"], chunk[0]))
    return _CHUNK_TASK(task)


# with them, three one-task rungs: 3 tasks on 2 processes
_FAN_OUT_RUNS = dict(_REPLICA_ESTIMATORS, maxexc_three_rungs=(
    lambda k, r, t=1: max_excursion_study(V_STAR, k, GG, [16, 32, 64], 1, 2,
                                          1, threads=t)))


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("name", sorted(_FAN_OUT_RUNS))
def test_parent_runs_its_share_of_the_tasks(srw64, monkeypatch, name,
                                            threads):
    run = _FAN_OUT_RUNS[name]
    ref = _fields(run(srw64, 7))
    starts = _spy_worker_starts(monkeypatch)
    monkeypatch.setattr(est, "_chunk_task", _parent_chunk_task)
    _PARENT_TASKS.clear()
    got = _fields(run(srw64, 7, threads))
    parent = len(_PARENT_TASKS)
    assert all(pid == os.getpid() for pid, *_ in _PARENT_TASKS)
    tasks = parent + sum(len(range(first, t, step))
                         for first, step, t in starts)
    processes = min(threads, tasks)
    assert tasks >= 2 and parent == -(-tasks // processes)
    assert starts == [(w, processes, tasks) for w in range(1, processes)]
    np.testing.assert_equal(got, ref)


@pytest.mark.parametrize("threads", [2, 3])
def test_parent_share_spans_every_rung(srw64, monkeypatch, threads):
    # three rungs of 3 replicas, one chunk per thread and rung: the parent
    # runs every P-th task, the first chunk of every rung, not the
    # cheapest rungs' tasks
    run = lambda t: max_excursion_study(V_STAR, srw64, GG, [16, 32, 64], 3,
                                        1, 1, threads=t)
    ref = _fields(run(1))
    monkeypatch.setattr(est, "_chunk_task", _parent_chunk_task)
    _PARENT_TASKS.clear()
    got = _fields(run(threads))
    assert [task for _, *task in _PARENT_TASKS] == [[16, 0], [32, 0],
                                                    [64, 0]]
    np.testing.assert_equal(got, ref)


def _fail_at(c, r, d, tables, segs):
    if r == c["fail"]:
        raise NumericsError(str(os.getpid()))
    return r


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("fail, in_parent", [(0, True), (1, True),
                                             (5, False), (7, False)])
def test_failing_task_raises_and_leaves_no_process(srw64, fail, in_parent,
                                                   threads):
    # 8 replicas in one chunk per thread: the parent runs the first,
    # replicas 0..3 at threads 2 and 0..1 at threads 3
    common = dict(per_sample=_fail_at, backward=False,
                  p=V_STAR, kern=srw64, laws=GG, seed=1, n=32, fail=None)
    assert est._fan_out([common], 8, threads) == [list(range(8))]
    common["fail"] = fail
    with pytest.raises(NumericsError) as err:
        est._fan_out([common], 8, threads)
    assert (err.value.args[0] == str(os.getpid())) == in_parent
    assert multiprocessing.active_children() == []


def _fail_at_3_and_5(c, r, d, tables, segs):
    if r in (3, 5):
        raise NumericsError(f"replica {r}")
    return r


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_lowest_index_failure_is_raised(srw64, monkeypatch, threads):
    # tasks of 2 replicas, [0, 1] [2, 3] [4, 5] [6, 7]: at threads 2 the
    # parent's share (tasks 0 and 2) fails at replica 5, a worker's (tasks
    # 1 and 3) at replica 3; threads 1 meets replica 3 first
    monkeypatch.setattr(est, "_BATCH_CELLS", 2 * 33)
    common = dict(per_sample=_fail_at_3_and_5,
                  backward=False, p=V_STAR, kern=srw64, laws=GG, seed=1,
                  n=32)
    threads_before = threading.active_count()
    with pytest.raises(NumericsError, match="^replica 3$"):
        est._fan_out([common], 8, threads)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before


def _exit_in_worker(c, r, d, tables, segs):
    if os.getpid() != c["parent"]:
        os._exit(7)
    return r


class _Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise_unpicklable(c, r, d, tables, segs):
    if os.getpid() != c["parent"]:
        raise _Unpicklable(r, "more")
    return r


@pytest.mark.parametrize("threads", [2, 3])
def test_dead_worker_raises_and_leaves_no_process(srw64, threads):
    common = dict(per_sample=_exit_in_worker,
                  backward=False, p=V_STAR, kern=srw64, laws=GG, seed=1,
                  n=32, parent=os.getpid())
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="exited with code 7"):
        est._fan_out([common], 8, threads)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before


def test_unpicklable_worker_error_arrives_as_its_repr(srw64):
    # _Unpicklable pickles, but does not unpickle: its constructor wants
    # two arguments. Replicas 4..7 run in the worker, 4 first
    common = dict(per_sample=_raise_unpicklable,
                  backward=False, p=V_STAR, kern=srw64, laws=GG, seed=1,
                  n=32, parent=os.getpid())
    with pytest.raises(RuntimeError) as err:
        est._fan_out([common], 8, 2)
    assert err.value.args[0] == repr(_Unpicklable(4, "more"))
    assert multiprocessing.active_children() == []


def test_threaded_fan_out_starts_no_thread(srw64):
    common = dict(per_sample=_fail_at, backward=False,
                  p=V_STAR, kern=srw64, laws=GG, seed=1, n=32, fail=None)
    threads_before = threading.active_count()
    assert est._fan_out([common], 8, 2) == [list(range(8))]
    assert threading.active_count() == threads_before
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("name", sorted(_REPLICA_ESTIMATORS))
def test_replica_estimators_match_loop(srw64, monkeypatch, name, lam,
                                       threads):
    run, replicas = _REPLICA_ESTIMATORS[name], 7
    p = V_STAR.replace(lam=lam, h=0.2 * lam)
    with monkeypatch.context() as m:
        # the reference: one forward_tables per replica, both tables from
        # a pass of their own
        m.setattr(est, "_table_rows", lambda samples, params, kern, _: [
            forward_tables(d, q, kern) for d, q in zip(samples, params)])
        ref = run(srw64, replicas, 1, p)
    # at most 3 replicas per batched pass: several batches per run
    monkeypatch.setattr(est, "_BATCH_CELLS", 3 * 33)
    np.testing.assert_equal(_fields(run(srw64, replicas, threads, p)),
                            _fields(ref))


def _decay_loop(p, kern, n, replicas, dists, seed):
    """fit_correlation_decay's replica rows, from forward_tables and one
    bounded segment_tables per replica."""
    anchor = n // 4
    sites = anchor + dists
    rows = []
    for r in range(replicas):
        d = est._draw_disorder(GG, n, p.h, seed, r)
        t = forward_tables(d, p, kern)
        seg = segment_tables(anchor, d, p, kern, stop=int(sites[-1]))
        zf, zb = t.log_zf, t.log_zb
        pj = math.exp(zf[anchor] + zb[anchor] - zf[n])
        joint = np.exp(zf[anchor] + seg[sites] + zb[sites] - zf[n])
        single = np.exp(zf[sites] + zb[sites] - zf[n])
        rows.append(np.abs(joint - pj * single))
    return rows


def _boundary_loop(p, kern, n, replicas, k_list, seed):
    """boundary_influence's replica rows, from forward_tables and one
    segment_tables bounded at k per replica and k < n."""
    rows = []
    for r in range(replicas):
        d = est._draw_disorder(GG, n, p.h, seed, r)
        t = forward_tables(d, p, kern)
        zf, zb = t.log_zf, t.log_zb
        diffs = np.zeros(len(k_list))
        for i, k in enumerate(k_list):
            m = k // 2
            if k < n:
                z = segment_tables(m, d, p, kern, stop=k)[k]
                diffs[i] = abs(math.exp(zf[m] + zb[m] - zf[n])
                               - math.exp(zf[m] + z - zf[k]))
        rows.append(diffs)
    return rows


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_multi_block_segment_estimators_match_loop(monkeypatch, lam,
                                                   threads):
    # N = 600 is five blocks: the decay segment at anchor 150 reaches
    # site 599 over four, and the boundary segments end in every block
    n, replicas, seed = 600, 5, 3
    kern = build_srw_kernel(n)
    p = V_STAR.replace(lam=lam, h=0.2 * lam)
    dists = np.array([1, 2, 5, 64, 127, 128, 129, 200, 256, 300, 400, 449])
    k_list = [2, 3, 129, 256, 257, 300, 450, 599, n]
    # two replicas per chunk, each a forward and a reversed row
    monkeypatch.setattr(est, "_BATCH_CELLS", 4 * (n + 1))
    decay = fit_correlation_decay(p, kern, GG, n, replicas, dists, seed,
                                  threads)
    mean, se, fit = est._exponential_fit(
        _decay_loop(p, kern, n, replicas, dists, seed), dists, 1e-14,
        keep=dists >= 4)
    assert np.array_equal(decay.mean_abs_cov, mean)
    assert np.array_equal(decay.stderr, se)
    assert (decay.c1_hat, decay.c2_hat, decay.r_squared) == (
        math.exp(fit[0]), -fit[1], fit[2])
    bound = boundary_influence(p, kern, GG, n, k_list, replicas, seed,
                               threads)
    dist = np.array([k - k // 2 for k in k_list], dtype=float)
    mean, se, fit = est._exponential_fit(
        _boundary_loop(p, kern, n, replicas, k_list, seed), dist, 1e-14)
    assert np.array_equal(bound.mean_abs_diff, mean)
    assert np.array_equal(bound.stderr, se)
    assert (bound.rate, bound.r_squared) == (-fit[1], fit[2])


@pytest.mark.parametrize("name", sorted(_REPLICA_ESTIMATORS))
def test_replica_estimators_need_one_replica(srw64, name):
    for replicas in (0, -1):
        with pytest.raises(GuardError, match="at least one replica"):
            _REPLICA_ESTIMATORS[name](srw64, replicas)
    _REPLICA_ESTIMATORS[name](srw64, 1)


def test_maxexc_needs_one_path(srw64):
    for paths in (0, -1):
        with pytest.raises(GuardError, match="at least one path"):
            max_excursion_study(V_STAR, srw64, GG, [32], 2, paths, 1)


def test_sampling_workers_skip_backward_table(srw64, tmp_path, monkeypatch):
    def unread(*args):
        raise AssertionError("the backward table was built")

    monkeypatch.setattr(partition, "_log_zb_rows", unread)
    max_excursion_study(V_STAR, srw64, GG, [32, 64], 2, 3, 1)
    meet_probability(V_STAR, srw64, GG, 48, [2, 4], 2, 2, 1)
    clt_study(V_STAR, srw64, GG, [16, 32], 8, 1)
    finite_size_study(V_STAR, srw64, GG, [2, 4, 8, 16, 32], 2, 1)
    assert main(["sample", "--n", "24", "--replicas", "2", "--paths", "2",
                 "--out", str(tmp_path / "runs")]) == 0


# one replica at a time, one forward curve per call (and for finite-size one
# bounded segment per rung): the references for the batched entropy-bound
# and finite-size paths

def _entropy_sample(c, r, d):
    p, kern, n = c["p"], c["kern"], c["n"]
    z_eps = np.array([
        log_partition_curve(d, p.replace(h_tilde=p.h_tilde - eps), kern)[n]
        for eps in c["eps_grid"]])
    return z_eps, est._log_coin(p, d.w_prefix[n])


def _finite_size_sample(c, r, d):
    p, kern, sites = c["p"], c["kern"], c["sites"]
    zf = log_partition_curve(d, p, kern)
    xis = np.empty(len(sites) - 1)
    for i, n in enumerate(sites[:-1]):
        n = int(n)
        z_shift = segment_tables(n, d, p, kern, stop=2 * n)[2 * n]
        xi = zf[2 * n] - zf[n] - z_shift
        if not xi >= -1e-8 * max(1.0, abs(zf[2 * n])):
            raise NumericsError(f"superadditivity violated: xi={xi}")
        xis[i] = xi
    return zf[sites].copy(), xis


def _loop_columns(per_sample, common, n, replicas, seed):
    p = common["p"]
    return est._columns([per_sample(common, r, est._draw_disorder(
        GG, n, p.h, seed, r)) for r in range(replicas)])


def _stats(x):
    # one contiguous column at a time, as the per-rung loops passed them
    return np.array([est._mean_stderr(col.copy()) for col in x.T])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_entropy_bound_matches_loop(srw64, monkeypatch, threads, lam):
    n, replicas, seed = 48, 11, 6
    p = V_STAR.replace(lam=lam, h=0.2 * lam)
    eps = np.array([0.0, 0.15, 0.4])
    # at most 3 replicas per batched pass: several batches per run
    monkeypatch.setattr(est, "_BATCH_CELLS", 3 * (n + 1))
    z, log_num = _loop_columns(_entropy_sample,
                               dict(p=p, kern=srw64, n=n, eps_grid=eps),
                               n, replicas, seed)
    rep = entropy_bound(p, srw64, GG, replicas, n, eps, seed, threads)
    stats = _stats(z / n)
    assert np.array_equal(rep.bound_values, 0.5 * eps * eps + stats[:, 0])
    assert np.array_equal(rep.bound_stderr, stats[:, 1])
    assert (rep.f_hat, rep.f_stderr) == tuple(stats[0])
    assert rep.mu_hat == est._mu_hat(log_num - z[:, 0], n)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_finite_size_matches_loop(srw64, monkeypatch, threads, lam):
    sites, replicas, seed = np.array([2, 4, 8, 16, 32]), 13, 8
    p = V_STAR.replace(lam=lam, h=0.2 * lam)
    monkeypatch.setattr(est, "_BATCH_CELLS", 3 * (sites[-1] + 1))
    z, xi = _loop_columns(_finite_size_sample,
                          dict(p=p, kern=srw64, sites=sites),
                          sites[-1], replicas, seed)
    rep = finite_size_study(p, srw64, GG, sites, replicas, seed, threads)
    assert np.array_equal(np.stack([rep.f_n, rep.f_stderr], axis=1),
                          _stats(z / sites))
    assert np.array_equal(np.stack([rep.scaled_gap, rep.gap_stderr], axis=1),
                          _stats(0.5 * xi))
    diff = np.stack([z[:, i + 1] / (2 * n) - z[:, i] / n
                     for i, n in enumerate(sites[:-1])], axis=1)
    assert np.array_equal(np.stack([rep.diff_mean, rep.diff_stderr], axis=1),
                          _stats(diff))
