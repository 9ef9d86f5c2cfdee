import math

import numpy as np
import pytest

from copolymer.disorder import disorder_from_arrays, freeze_zero_disorder
from copolymer.errors import ConfigError, GuardError
from copolymer.kernel import build_powerlaw_kernel, build_srw_kernel
from copolymer.logspace import LOG2, softplus
from copolymer.oracle import (_pinned_kernel_constant,
                              brute_force_marginals,
                              brute_force_partition, enumerate_rademacher,
                              exact_disorder_expectation,
                              factorization_patterns,
                              homogeneous_pinning_free_energy,
                              inequality_suite, log_srw_mass,
                              renewal_mass_curve, return_configurations)
from copolymer.partition import (ModelParams, forward_tables, segment_tables,
                                 single_excursion_log_lower_bound)

ZERO = ModelParams(0.0, 0.0, 0.0, 0.0)


def test_budget_validation():
    # one past the largest enumerable n: 20 for paths, 8 for disorder
    kern = build_srw_kernel(21)
    d = freeze_zero_disorder(21, 0.0)
    for enumerate_n in (lambda: brute_force_partition(d, ZERO, kern),
                        lambda: brute_force_marginals(d, ZERO, kern),
                        lambda: enumerate_rademacher(ZERO, kern, 9),
                        lambda: exact_disorder_expectation("log_z", ZERO,
                                                           kern, 9),
                        lambda: inequality_suite(ZERO, kern, 9)):
        with pytest.raises(GuardError, match="enumeration limit"):
            enumerate_n()


def test_single_site_partition(srw16):
    p = ModelParams(0.7, 0.2, 1.1, -0.3)
    d = disorder_from_arrays(np.array([0.4]), np.array([-1.2]), p.h)
    expected = (srw16.log_k[1] - LOG2
                + softplus(-2 * p.lam * (0.4 + p.h))
                + p.lam_tilde * (-1.2 + p.h_tilde))
    assert brute_force_partition(d, p, srw16) == pytest.approx(expected,
                                                               abs=1e-13)


def test_free_two_step(srw16):
    d = freeze_zero_disorder(2, 0.0)
    assert brute_force_partition(d, ZERO, srw16) == pytest.approx(
        math.log(0.375), abs=1e-14)


def test_return_configurations_count():
    for n in (1, 2, 5):
        configs = list(return_configurations(n))
        assert len(configs) == 2 ** (n - 1)
        assert all(c[0] == 0 and c[-1] == n for c in configs)


def test_marginals_basics(srw16, make_instance):
    p, d = make_instance(3, 7)
    m = brute_force_marginals(d, p, srw16)
    assert m.p_contact[7] == pytest.approx(1.0, abs=1e-12)
    assert m.p_contact[0] == 1.0
    assert np.allclose(m.exc_pmf[1:7].sum(axis=1), 1.0, atol=1e-12)


def test_enumeration_matches_single_samples(srw16):
    # the vectorized Rademacher grid agrees with per-sample brute force
    p = ModelParams(0.6, 0.15, 0.8, 0.25)
    n = 5
    log_z, w_n, _ = enumerate_rademacher(p, srw16, n)
    rng = np.random.default_rng(0)
    for _ in range(12):
        i = int(rng.integers(0, 1 << n))
        j = int(rng.integers(0, 1 << n))
        om = np.where((i >> np.arange(n)) & 1, 1.0, -1.0)
        ot = np.where((j >> np.arange(n)) & 1, 1.0, -1.0)
        d = disorder_from_arrays(om, ot, p.h)
        assert log_z[i, j] == pytest.approx(brute_force_partition(d, p, srw16),
                                            abs=1e-12)
        assert w_n[i] == pytest.approx(d.w_prefix[n], abs=1e-12)


def test_exact_expectations_free_case(srw16):
    # lam = lam_tilde = 0: Z is deterministic, E[1/Z] = 1/u_N
    n = 5
    u_n = math.exp(log_srw_mass(n))
    assert exact_disorder_expectation("inv_z", ZERO, srw16, n) == pytest.approx(
        1.0 / u_n, rel=1e-12)
    assert exact_disorder_expectation("z", ZERO, srw16, n) == pytest.approx(
        u_n, rel=1e-12)


def test_exact_expectation_jensen(srw16):
    p = ModelParams(0.5, 0.1, 0.7, 0.2)
    mean_log = exact_disorder_expectation("log_z", p, srw16, 5)
    mean_z = exact_disorder_expectation("z", p, srw16, 5)
    assert mean_log <= math.log(mean_z) + 1e-12


def test_exact_contact_profile(srw16):
    # averaged contact probabilities match per-configuration marginals
    p = ModelParams(0.4, 0.0, 0.6, 0.1)
    n = 4
    got = exact_disorder_expectation("contact", p, srw16, n)
    acc = np.zeros(n + 1)
    for i in range(1 << n):
        om = np.where((i >> np.arange(n)) & 1, 1.0, -1.0)
        for j in range(1 << n):
            ot = np.where((j >> np.arange(n)) & 1, 1.0, -1.0)
            d = disorder_from_arrays(om, ot, p.h)
            acc += brute_force_marginals(d, p, srw16).p_contact
    acc /= 4 ** n
    assert np.allclose(got, acc, atol=1e-12)
    with pytest.raises(ConfigError):
        exact_disorder_expectation("nope", p, srw16, 4)


def test_renewal_mass_curve_matches_binomial(srw64):
    u = renewal_mass_curve(srw64, 64)
    for t in range(1, 65):
        assert u[t] == pytest.approx(math.exp(log_srw_mass(t)), rel=1e-12)


def test_homogeneous_root_trivial_and_asymptotic():
    kern = build_srw_kernel(4096)
    assert homogeneous_pinning_free_energy(kern, 0.0) == 0.0
    assert homogeneous_pinning_free_energy(kern, -2.0) == 0.0
    # large reward: single-gap domination, b* ~ reward + log K(1)
    b = homogeneous_pinning_free_energy(kern, 20.0)
    assert abs(b - (20.0 + math.log(0.5))) <= 1e-3


def test_homogeneous_root_closed_form_srw():
    # SRW generating function: sum K(n) x^n = 1 - sqrt(1 - x)
    kern = build_srw_kernel(4096)
    for x in (0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0):
        closed = -math.log(1.0 - (1.0 - math.exp(-x)) ** 2)
        got = homogeneous_pinning_free_energy(kern, x)
        assert got == pytest.approx(closed, abs=1e-10)


def test_homogeneous_root_monotone_convex():
    kern = build_srw_kernel(2048)
    grid = np.linspace(0.2, 4.0, 12)
    roots = np.array([homogeneous_pinning_free_energy(kern, x) for x in grid])
    assert np.all(np.diff(roots) > 0)
    assert np.all(np.diff(roots, 2) > -1e-9)


def test_homogeneous_root_powerlaw_kernel():
    kern = build_powerlaw_kernel(2.5, 1 << 14)
    b = homogeneous_pinning_free_energy(kern, 1.0)
    k_lin = np.exp(kern.log_k[1:])
    sites = np.arange(1, kern.n_max + 1)
    val = float(np.sum(k_lin * np.exp(-b * sites)))
    assert val == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_factorization_pattern_count():
    pats = list(factorization_patterns(7, 3))
    assert len(pats) == 28 + 56 + 70


def test_inequality_suite_small():
    suite = inequality_suite(ModelParams(0.4, 0.1, 0.6, 0.2),
                             build_srw_kernel(8), 5)
    assert max(suite.values()) <= 1e-12
    assert set(suite) == {"mumu_exp_le_inv", "chain_lower", "chain_upper",
                          "submult", "jensen", "single_excursion",
                          "factorization", "pin_lower_bound"}


def _loop_inequality_suite(p, kern, n):
    """The suite one realization at a time, with a tables object and its
    segments per realization: the reference for the batched version."""
    out = {}
    m_ratio = np.empty(n + 1)
    for size in range(1, n + 1):
        log_z, w_last, _ = enumerate_rademacher(p, kern, size)
        m_ratio[size] = np.mean(np.exp(softplus(-2.0 * p.lam * w_last)[:, None]
                                       - log_z))
        if size == n:
            inv_z = float(np.mean(np.exp(-log_z)))
            exp_ratio = float(np.mean(np.exp(-2.0 * p.lam * w_last[:, None]
                                             - log_z)))
            mean_log_z = float(np.mean(log_z))
            mean_z = float(np.mean(np.exp(log_z)))
    out["mumu_exp_le_inv"] = exp_ratio - inv_z
    out["chain_lower"] = np.log(inv_z) - np.log(m_ratio[n])
    out["chain_upper"] = np.log(m_ratio[n]) - np.log(inv_z) - LOG2
    out["submult"] = max(
        np.log(m_ratio[n]) - np.log(m_ratio[m]) - np.log(m_ratio[n - m])
        for m in range(1, n))
    out["jensen"] = mean_log_z - np.log(mean_z)

    patterns = list(factorization_patterns(n, 3))
    c_k = _pinned_kernel_constant(kern, n)
    worst_single = -np.inf
    worst_fact = -np.inf
    worst_pin = -np.inf
    for bits_o in range(1 << n):
        omega = np.where((bits_o >> np.arange(n)) & 1, 1.0, -1.0)
        for bits_t in range(1 << n):
            tilde = np.where((bits_t >> np.arange(n)) & 1, 1.0, -1.0)
            d = disorder_from_arrays(omega, tilde, p.h)
            tables = forward_tables(d, p, kern)
            zf, zb = tables.log_zf, tables.log_zb
            worst_single = max(worst_single,
                               single_excursion_log_lower_bound(d, p, kern)
                               - zf[n])
            segmat = np.full((n + 1, n + 1), np.nan)
            for j in range(n):
                segmat[j] = segment_tables(j, d, p, kern)
            for pat in patterns:
                inner = sum(segmat[a, b] for a, b in zip(pat[:-1], pat[1:]))
                worst_fact = max(worst_fact,
                                 zf[pat[0]] + inner + zb[pat[-1]] - zf[n])
            for k in range(1, n):
                log_pk = zf[k] + zb[k] - zf[n]
                bound = -np.log1p(2.0 * c_k * min(k, n - k) ** (2 * kern.alpha)
                                  * np.exp(-tables.log_zeta_sites[k]))
                worst_pin = max(worst_pin, bound - log_pk)
    out["single_excursion"] = worst_single
    out["factorization"] = worst_fact
    out["pin_lower_bound"] = worst_pin
    return out


@pytest.mark.parametrize("p,kern,n", [
    (ModelParams(0.0, 0.0, 0.8, 0.1), build_srw_kernel(8), 3),
    (ModelParams(0.0, 0.2, 1.1, -0.3), build_powerlaw_kernel(2.2, 8), 5),
    (ModelParams(1.3, 0.0, 0.3, -0.4), build_srw_kernel(8), 6),
])
def test_inequality_suite_matches_loop(p, kern, n):
    assert inequality_suite(p, kern, n) == _loop_inequality_suite(p, kern, n)


def test_inequality_suite_guards_horizon():
    with pytest.raises(GuardError, match="kernel horizon"):
        inequality_suite(ModelParams(0.4, 0.1, 0.6, 0.2),
                         build_srw_kernel(4), 5)
