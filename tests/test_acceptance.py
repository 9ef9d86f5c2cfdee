"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured detail and runtime (run with -s to see them live)."""

import math
import time

import numpy as np

from copolymer.cli import main
from copolymer.disorder import (DisorderLaw, disorder_from_arrays,
                                freeze_zero_disorder, sample_disorder)
from copolymer.estimators import (VERDICT_BOUNDED, clt_study, entropy_bound,
                                  estimate_mu, finite_size_study,
                                  fit_correlation_decay, max_excursion_study,
                                  meet_probability)
from copolymer.kernel import build_srw_kernel
from copolymer.observables import contact_profile, log_z_gradients
from copolymer.oracle import (brute_force_partition,
                              homogeneous_pinning_free_energy,
                              inequality_suite, log_srw_mass)
from copolymer.partition import (ModelParams, forward_tables,
                                 log_partition_curve, segment_tables)

V_STAR = ModelParams(0.0, 0.0, 1.0, 0.5)
GG = (DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN)
ALL_LAWS = (DisorderLaw.RADEMACHER, DisorderLaw.GAUSSIAN,
            DisorderLaw.UNIFORM_SYM)


def _report(label, elapsed, budget, detail):
    print(f"[ACCEPTANCE] {label}: PASS in {elapsed:.1f}s "
          f"(budget {budget:.0f}s) -- {detail}")
    assert elapsed <= budget


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    kern = build_srw_kernel(16)
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(1, 15))
        p = ModelParams(*rng.uniform(0.0, 2.0, size=4))
        law_o = ALL_LAWS[i % 3]
        law_t = ALL_LAWS[(i + 1) % 3]
        d = sample_disorder(law_o, law_t, n, p.h, 321, i)
        dp = log_partition_curve(d, p, kern)[n]
        bf = brute_force_partition(d, p, kern)
        worst = max(worst, abs(dp - bf))
    assert worst <= 1e-9
    _report("criterion 1 (oracle equivalence)", time.perf_counter() - started,
            10, f"max |dLogZ| = {worst:.2e} over 50 instances")


def test_criterion_2_free_case_identities():
    started = time.perf_counter()
    kern = build_srw_kernel(16)
    zero = ModelParams(0.0, 0.0, 0.0, 0.0)
    worst = 0.0
    for n in range(1, 13):
        d = freeze_zero_disorder(n, 0.0)
        log_z = forward_tables(d, zero, kern).log_z
        worst = max(worst, abs(log_z - log_srw_mass(n)))
        if n == 2:
            assert abs(log_z - math.log(0.375)) <= 1e-12
    assert worst <= 1e-12
    _report("criterion 2 (free-case identities)", time.perf_counter() - started,
            1, f"max |dLogZ| = {worst:.2e}, Z_2 = 0.375 exact")


def test_criterion_3_homogeneous_pinning():
    started = time.perf_counter()
    kern = build_srw_kernel(4096)
    b_star = homogeneous_pinning_free_energy(kern, 1.0)
    p = ModelParams(0.0, 0.0, 1.0, 1.0)
    d = freeze_zero_disorder(4096, 0.0)
    zf = log_partition_curve(d, p, kern)
    extrap = 2.0 * zf[4096] / 4096 - zf[2048] / 2048
    err = abs(extrap - b_star)
    assert err <= 1e-3
    _report("criterion 3 (homogeneous pinning)", time.perf_counter() - started,
            60, f"b* = {b_star:.6f}, Richardson error = {err:.2e}")


def test_criterion_4_gradient_suite():
    started = time.perf_counter()
    kern = build_srw_kernel(300)
    rng = np.random.default_rng(44)
    eps = 1e-4
    worst = 0.0
    for i in range(10):
        n = 256
        p = ModelParams(*rng.uniform(0.1, 2.0, size=4))
        law = ALL_LAWS[i % 3]
        d = sample_disorder(law, ALL_LAWS[(i + 2) % 3], n, p.h, 55, i)
        tables = forward_tables(d, p, kern)
        grads = log_z_gradients(tables, d, p, kern)

        def logz(params):
            dd = disorder_from_arrays(d.omega[1:], d.omega_tilde[1:], params.h)
            return log_partition_curve(dd, params, kern)[n]

        for name in ("lam", "h", "lam_tilde", "h_tilde"):
            hi = p.replace(**{name: getattr(p, name) + eps})
            lo = p.replace(**{name: getattr(p, name) - eps})
            fd = (logz(hi) - logz(lo)) / (2 * eps)
            rel = abs(fd - grads[name]) / max(1.0, abs(grads[name]))
            worst = max(worst, rel)
    assert worst <= 1e-5

    # order-2 truncated correlation vs second h_tilde derivative at N = 128
    worst2 = 0.0
    for i in range(2):
        n = 128
        p = ModelParams(*np.random.default_rng(91 + i).uniform(0.1, 1.6, 4))
        d = sample_disorder(DisorderLaw.GAUSSIAN, ALL_LAWS[i], n, p.h, 66, i)
        tables = forward_tables(d, p, kern)
        prof = contact_profile(tables, d, p, kern)
        pc = prof.p_contact[1:]
        joint_sum = pc.sum()          # diagonal: E[delta^2] = E[delta]
        for a in range(1, n):
            seg = segment_tables(a, d, p, kern)
            for b in range(a + 1, n + 1):
                joint_sum += 2 * math.exp(tables.log_zf[a] + seg[b]
                                          + tables.log_zb[b] - tables.log_z)
        u2_total = joint_sum - pc.sum() ** 2
        lhs = p.lam_tilde ** 2 * u2_total
        step = 2e-3

        def lz(ht):
            return log_partition_curve(d, p.replace(h_tilde=ht), kern)[n]

        fd2 = (lz(p.h_tilde + step) - 2 * lz(p.h_tilde)
               + lz(p.h_tilde - step)) / step ** 2
        worst2 = max(worst2, abs(lhs - fd2) / abs(fd2))
    assert worst2 <= 1e-4
    _report("criterion 4 (gradient suite)", time.perf_counter() - started, 30,
            f"max rel grad err = {worst:.2e}, max rel ursell2 err = {worst2:.2e}")


def test_criterion_5_exact_inequalities():
    started = time.perf_counter()
    kern = build_srw_kernel(16)
    cases = [
        (ModelParams(0.4, 0.1, 0.6, 0.2), 7),
        (ModelParams(0.8, 0.0, 0.5, -0.3), 6),
        (ModelParams(0.0, 0.0, 1.0, 0.5), 5),
    ]
    worst = -math.inf
    for p, n in cases:
        suite = inequality_suite(p, kern, n)
        worst = max(worst, max(suite.values()))
        assert max(suite.values()) <= 1e-12, (p, n, suite)
    _report("criterion 5 (exact inequality suite)",
            time.perf_counter() - started, 120,
            f"worst violation = {worst:.2e} over {len(cases)} points")


def test_criterion_6_localized_phase_suite():
    started = time.perf_counter()
    details = []

    # (a) correlation decay
    kern1024 = build_srw_kernel(1024)
    fit = fit_correlation_decay(V_STAR, kern1024, GG, 1024, 200,
                                list(range(4, 65)), 2025)
    assert fit.c2_hat > 0
    assert fit.r_squared >= 0.9
    details.append(f"c2={fit.c2_hat:.3f} r2={fit.r_squared:.3f}")

    # (b) mu positive, below F, non-decreasing along the ladder
    mus = estimate_mu(V_STAR, kern1024, GG, [256, 512, 1024], 200, 2024)
    for e in mus:
        assert 0.0 < e.mu_hat <= e.f_hat + 3 * e.f_stderr
    for a, b in zip(mus[:-1], mus[1:]):
        assert b.mu_hat >= a.mu_hat - 2 * (a.mu_stderr + b.mu_stderr)
    details.append(f"mu ladder {[round(e.mu_hat, 4) for e in mus]}")

    # (c) maximal excursion concentration at N = 8192 over 200 paths
    kern8192 = build_srw_kernel(8192)
    study, = max_excursion_study(V_STAR, kern8192, GG, [8192], 25, 8, 606)
    assert study.localized_guard
    assert study.mu_hat > 0
    ratio = study.deltas.ravel() / math.log(8192)
    frac = float(np.mean((ratio >= 0.5 / study.mu_hat)
                         & (ratio <= 2.0 / study.mu_hat)))
    assert frac >= 0.80
    details.append(f"maxexc frac={frac:.3f} (mu={study.mu_hat:.3f})")

    # (d) entropy-shift bound strictly below F
    kern512 = build_srw_kernel(512)
    eb = entropy_bound(V_STAR, kern512, GG, 200, 512,
                       [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 2026)
    assert eb.best_bound < eb.f_hat - 2 * eb.f_stderr
    details.append(f"bound={eb.best_bound:.4f} < F={eb.f_hat:.4f}")

    # (e) two-replica meet probability decays exponentially
    meet = meet_probability(V_STAR, kern512, GG, 512, [4, 8, 12, 16, 24, 32],
                            100, 12, 2027)
    assert meet.rate > 0
    details.append(f"meet rate={meet.rate:.3f}")

    _report("criterion 6 (localized-phase suite)",
            time.perf_counter() - started, 600, "; ".join(details))


def test_criterion_7_finite_size():
    started = time.perf_counter()
    kern = build_srw_kernel(4096)
    rep = finite_size_study(V_STAR, kern, GG,
                            [64, 128, 256, 512, 1024, 2048, 4096], 200, 2028)
    assert rep.verdict == VERDICT_BOUNDED
    assert np.all(rep.diff_mean >= -3 * rep.diff_stderr)
    _report("criterion 7 (finite-size corrections)",
            time.perf_counter() - started, 300,
            f"verdict={rep.verdict}, scaled gaps "
            f"{np.round(rep.scaled_gap, 3).tolist()}")


def test_criterion_8_clt():
    started = time.perf_counter()
    kern = build_srw_kernel(4096)
    rep = clt_study(V_STAR, kern, GG, [2048, 4096], 2000, 31337)
    v1, v2 = rep.var_over_n
    assert max(v1, v2) / min(v1, v2) <= 1.25
    assert abs(rep.skewness[1]) <= 0.3
    assert rep.ks_statistic[1] <= 0.05
    _report("criterion 8 (CLT)", time.perf_counter() - started, 600,
            f"var/N = {v1:.4f}/{v2:.4f}, skew = {rep.skewness[1]:.3f}, "
            f"KS = {rep.ks_statistic[1]:.4f}")


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    configs = [
        ["mu", "--n-ladder", "24,48", "--replicas", "10", "--seed", "4",
         "--lam", "0.3", "--h", "0.1"],
        ["free-energy", "--n-ladder", "16,32", "--replicas", "8",
         "--seed", "12"],
        ["maxexc", "--n", "64", "--replicas", "4", "--paths", "3",
         "--seed", "7"],
    ]
    for idx, args in enumerate(configs):
        blobs = []
        for run, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"{idx}{run}"
            assert main(args + ["--out", str(out), "--threads", threads]) == 0
            run_dir = next(p for p in out.iterdir() if p.is_dir())
            blobs.append({f.name: f.read_bytes()
                          for f in sorted(run_dir.glob("*.csv"))})
        assert blobs[0] == blobs[1] == blobs[2]
    _report("criterion 9 (CLI determinism)", time.perf_counter() - started,
            120, f"{len(configs)} subcommands byte-identical across "
            "reruns and thread counts")
