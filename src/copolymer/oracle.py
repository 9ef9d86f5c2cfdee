"""Independent brute-force and closed-form references.

Everything here avoids the O(N^2) recursion it is meant to validate:
partition functions are summed over explicitly enumerated return
configurations (reusing the same excursion weight function, so endpoint and
zeta conventions cannot drift apart silently), disorder expectations are
enumerated exactly over binary charges, and the homogeneous pinning free
energy comes from its characteristic equation.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSample
from .errors import ConfigError, GuardError
from .kernel import KernelSpec, ReturnKernel, build_kernel
from .logspace import LOG2, logsumexp, sigmoid, softplus
from .partition import (ModelParams, _forward_batch, _log_z_rows,
                        excursion_log_weight, log_zeta)

# Largest n of the 2^(n-1) path and 2^(2n) disorder enumerations.
_MAX_N_PATHS = 20
_MAX_N_DISORDER = 8


def _check_enumeration(n, limit, what):
    if n > limit:
        raise GuardError(f"n = {n} exceeds {what}-enumeration limit {limit}")


def return_configurations(n):
    """All return sets as sorted tuples (0, ..., n); 2^(n-1) of them."""
    for mask in range(1 << (n - 1)):
        returns = [0]
        for site in range(1, n):
            if mask >> (site - 1) & 1:
                returns.append(site)
        returns.append(n)
        yield tuple(returns)


def _config_log_weight(returns, d, p, kern):
    u = np.asarray(returns[:-1])
    t = np.asarray(returns[1:])
    w = excursion_log_weight(u, t, d, p, kern)
    return float(np.sum(w) + np.sum(log_zeta(d.omega_tilde[t], p)))


def brute_force_partition(d: DisorderSample, p: ModelParams,
                          kern: ReturnKernel) -> float:
    """log Z by explicit summation over all 2^(N-1) return configurations."""
    _check_enumeration(d.n, _MAX_N_PATHS, "path")
    logs = [_config_log_weight(r, d, p, kern) for r in return_configurations(d.n)]
    return logsumexp(np.array(logs))


@dataclass(frozen=True)
class BruteForceMarginals:
    """Exact polymer-measure marginals from weighted enumeration.

    ``joint[j, k]`` is P(S_j = 0, S_k = 0) (diagonal = contact profile);
    ``exc_pmf[k, s]`` is P(the excursion containing site k has length s).
    """

    n: int
    log_z: float
    p_contact: np.ndarray
    p_neg: np.ndarray
    joint: np.ndarray
    exc_pmf: np.ndarray


def brute_force_marginals(d: DisorderSample, p: ModelParams,
                          kern: ReturnKernel) -> BruteForceMarginals:
    _check_enumeration(d.n, _MAX_N_PATHS, "path")
    n = d.n
    configs = list(return_configurations(n))
    logs = np.array([_config_log_weight(r, d, p, kern) for r in configs])
    log_z = logsumexp(logs)
    probs = np.exp(logs - log_z)

    p_contact = np.zeros(n + 1)
    p_contact[0] = 1.0
    p_neg = np.zeros(n + 1)
    joint = np.zeros((n + 1, n + 1))
    exc_pmf = np.zeros((n + 1, n + 1))
    for returns, prob in zip(configs, probs):
        ret = np.asarray(returns)
        p_contact[ret[1:]] += prob
        joint[np.ix_(ret, ret)] += prob
        for u, t in zip(returns[:-1], returns[1:]):
            frac_neg = sigmoid(-2.0 * p.lam * (d.w_prefix[t] - d.w_prefix[u]))
            p_neg[u + 1:t + 1] += prob * frac_neg
            lo = max(u, 1)
            exc_pmf[lo:t, t - u] += prob  # sites u..t-1 live in this excursion
    return BruteForceMarginals(n=n, log_z=log_z, p_contact=p_contact,
                               p_neg=p_neg, joint=joint, exc_pmf=exc_pmf)


def _rademacher_grid(p: ModelParams, n: int):
    """(W, log zeta) of all 2^n charge rows: bit s of row i is the
    sign of site s + 1, and W and log zeta carry site 0 too."""
    m = 1 << n
    bits = ((np.arange(m)[:, None] >> np.arange(n)[None, :]) & 1)
    charges = np.where(bits == 1, 1.0, -1.0)          # (m, n), site 1..n
    w = np.concatenate([np.zeros((m, 1)),
                        np.cumsum(charges + p.h, axis=1)], axis=1)
    lz_sites = np.concatenate([np.zeros((m, 1)),
                               log_zeta(charges, p)], axis=1)
    return w, lz_sites


def _path_terms(p, kern, n, w, lz_sites):
    """Per return-configuration log-weight split into its omega part (a)
    and omega_tilde part (b); the same formula the DP engine uses."""
    for returns in return_configurations(n):
        u = np.asarray(returns[:-1])
        t = np.asarray(returns[1:])
        gaps = t - u
        a = np.sum(kern.log_k[gaps]) - gaps.size * LOG2
        a = a + np.sum(softplus(-2.0 * p.lam * (w[:, t] - w[:, u])), axis=1)
        b = np.sum(lz_sites[:, t], axis=1)
        yield returns, a, b


def enumerate_rademacher(p: ModelParams, kern: ReturnKernel, n: int):
    """Exact enumeration over all 2^(2n) Rademacher disorder realizations.

    Returns (log_z, w_n, lz_sites) where ``log_z[i, j]`` is log Z for
    omega-configuration i and omega_tilde-configuration j, ``w_n[i]`` is the
    full prefix sum W_n of configuration i, and ``lz_sites`` is the
    (2^n, n+1) matrix of per-site log zeta values for the tilde
    configurations.
    """
    _check_enumeration(n, _MAX_N_DISORDER, "disorder")
    w, lz_sites = _rademacher_grid(p, n)
    m = 1 << n
    log_z = np.full((m, m), -np.inf)
    for _, a, b in _path_terms(p, kern, n, w, lz_sites):
        np.logaddexp(log_z, a[:, None] + b[None, :], out=log_z)
    return log_z, w[:, n], lz_sites


def exact_disorder_expectation(tag: str, p: ModelParams, kern: ReturnKernel,
                               n: int):
    """Exact E over Rademacher disorder of a tagged functional of Z.

    Tags: ``log_z``, ``z``, ``inv_z`` (E[1/Z]), ``contact`` (array of
    E P(S_k = 0), k = 0..n).
    """
    log_z, _, _ = enumerate_rademacher(p, kern, n)
    if tag == "log_z":
        return float(np.mean(log_z))
    if tag == "z":
        return float(np.mean(np.exp(log_z)))
    if tag == "inv_z":
        return float(np.mean(np.exp(-log_z)))
    if tag == "contact":
        w, lz_sites = _rademacher_grid(p, n)
        m = 1 << n
        log_z = np.full((m, m), -np.inf)
        log_zk = np.full((n + 1, m, m), -np.inf)
        for returns, a, b in _path_terms(p, kern, n, w, lz_sites):
            weight = a[:, None] + b[None, :]
            np.logaddexp(log_z, weight, out=log_z)
            for k in returns[1:]:
                np.logaddexp(log_zk[k], weight, out=log_zk[k])
        out = np.empty(n + 1)
        out[0] = 1.0
        for k in range(1, n + 1):
            out[k] = float(np.mean(np.exp(log_zk[k] - log_z)))
        return out
    raise ConfigError(f"unknown functional tag {tag!r}")


def log_srw_mass(n) -> float:
    """Exact log of C(2n, n) 4^-n, the SRW renewal mass u_n."""
    from scipy.special import gammaln  # slow to import; needed only here

    n = np.asarray(n, dtype=float)
    out = gammaln(2 * n + 1) - 2 * gammaln(n + 1) - n * np.log(4.0)
    if out.ndim == 0:
        return float(out)
    return out


def renewal_mass_curve(kern: ReturnKernel, n: int) -> np.ndarray:
    """u_t = P(t is a renewal point), by direct linear-domain convolution."""
    if n > kern.n_max:
        raise GuardError("horizon exceeds kernel table")
    k_lin = np.exp(kern.log_k[:n + 1])
    u = np.zeros(n + 1)
    u[0] = 1.0
    for t in range(1, n + 1):
        u[t] = float(np.dot(k_lin[1:t + 1], u[t - 1::-1]))
    return u


# Bisection width of ``homogeneous_pinning_free_energy``.
_ROOT_TOL = 1e-12


def homogeneous_pinning_free_energy(kern: ReturnKernel,
                                    reward: float) -> float:
    """Root b* >= 0 of sum_n K(n) e^{-b n} = e^{-reward}, by bisection.

    The free energy of the pinning model with constant per-contact reward.
    Returns 0 when the reward is <= 0 (the kernel is normalized, so the
    model is delocalized or critical there). The kernel table is extended
    until the monotone tail bound at the bracket is negligible.
    """
    if reward <= 0.0:
        return 0.0
    target = np.exp(-reward)
    work = kern
    while True:
        k_lin = np.exp(work.log_k[1:])
        sites = np.arange(1, work.n_max + 1, dtype=float)

        def partial_sum(b):
            return float(np.sum(k_lin * np.exp(-b * sites)))

        lo, hi = 0.0, reward - float(work.log_k[1]) + 1.0
        while hi - lo > _ROOT_TOL:
            mid = 0.5 * (lo + hi)
            if partial_sum(mid) > target:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        # monotone-K tail bound at the small end of the bracket
        b_floor = max(root - _ROOT_TOL, _ROOT_TOL)
        tail = (np.exp(work.log_k[work.n_max]) * np.exp(-b_floor * (work.n_max + 1))
                / -np.expm1(-b_floor))
        if tail < 1e-13 or work.n_max >= (1 << 22):
            return root
        n_max = min(4 * work.n_max, 1 << 22)
        work = build_kernel(KernelSpec(work.kind, n_max, work.alpha))


def factorization_patterns(n: int, max_segments: int = 3):
    """All pinned-site patterns 0 <= i_0 < ... < i_m <= n, 1 <= m <= max."""
    for m in range(1, max_segments + 1):
        yield from itertools.combinations(range(n + 1), m + 1)


def _pinned_kernel_constant(kern: ReturnKernel, n: int) -> float:
    """max K(a+b) / (K(a) K(b) min(a,b)^(2 alpha)) over a + b <= n."""
    best = 0.0
    for a in range(1, n):
        for b in range(1, n - a + 1):
            val = np.exp(kern.log_k[a + b] - kern.log_k[a] - kern.log_k[b]
                         - 2.0 * kern.alpha * np.log(min(a, b)))
            best = max(best, float(val))
    return best


def inequality_suite(p: ModelParams, kern: ReturnKernel, n: int) -> dict:
    """Exact inequality checks over fully enumerated Rademacher disorder.

    Returns a dict of worst-case violations (positive = broken, and the
    tests require everything <= ~1e-12):

    - ``mumu_exp_le_inv``:  E[e^{-2 lam W}/Z] <= E[1/Z]
    - ``chain_lower`` / ``chain_upper``:
        log E[1/Z] <= log E[(1+e^{-2 lam W})/Z] <= log E[1/Z] + log 2
    - ``submult``: E-ratio submultiplicativity for every split M of n
    - ``single_excursion``: per-sample lower bound on log Z
    - ``factorization``: pinned-segment factorization for all patterns m <= 3
    - ``pin_lower_bound``: explicit-constant contact-probability lower bound
    - ``jensen``: E[log Z] <= log E[Z]
    """
    _check_enumeration(n, _MAX_N_DISORDER, "disorder")
    if n > kern.n_max:
        raise GuardError(f"system size {n} exceeds kernel horizon {kern.n_max}")
    out = {}
    m_ratio = np.empty(n + 1)
    for size in range(1, n + 1):
        log_z, w_last, _ = enumerate_rademacher(p, kern, size)
        m_ratio[size] = np.mean(np.exp(softplus(-2.0 * p.lam * w_last)[:, None]
                                       - log_z))
    # log_z and w_last are those of size n
    inv_z = float(np.mean(np.exp(-log_z)))
    exp_ratio = float(np.mean(np.exp(-2.0 * p.lam * w_last[:, None] - log_z)))
    mean_log_z = float(np.mean(log_z))
    mean_z = float(np.mean(np.exp(log_z)))
    out["mumu_exp_le_inv"] = exp_ratio - inv_z
    out["chain_lower"] = np.log(inv_z) - np.log(m_ratio[n])
    out["chain_upper"] = np.log(m_ratio[n]) - np.log(inv_z) - LOG2
    out["submult"] = max(
        np.log(m_ratio[n]) - np.log(m_ratio[m]) - np.log(m_ratio[n - m])
        for m in range(1, n))
    out["jensen"] = mean_log_z - np.log(mean_z)

    # realization i = (omega row i // 2^n, tilde row i % 2^n) of the grid
    w_grid, lz_grid = _rademacher_grid(p, n)
    m = 1 << n
    w = np.repeat(w_grid, m, axis=0)
    lz = np.tile(lz_grid, (m, 1))
    zf, zb = _log_z_rows(w, lz, kern.log_k, p.lam, True)
    # seg[j][:, t - j] = log Z on (j, t]; anchor 0 is the forward table
    seg = [zf] + [_forward_batch(w[:, j:], lz[:, j:], kern.log_k, p.lam)
                  for j in range(1, n)]
    # single_excursion_log_lower_bound of every realization, same ufuncs
    single = (lz[:, n] + kern.log_k[n] - LOG2
              + softplus(-2.0 * p.lam * w[:, n]))
    out["single_excursion"] = np.max(single - zf[:, n])
    out["factorization"] = max(
        np.max(zf[:, pat[0]]
               + sum(seg[a][:, b - a] for a, b in zip(pat[:-1], pat[1:]))
               + zb[:, pat[-1]] - zf[:, n])
        for pat in factorization_patterns(n, 3))
    c_k = _pinned_kernel_constant(kern, n)
    worst_pin = -np.inf
    for k in range(1, n):
        log_pk = zf[:, k] + zb[:, k] - zf[:, n]
        bound = -np.log1p(2.0 * c_k * min(k, n - k) ** (2 * kern.alpha)
                          * np.exp(-lz[:, k]))
        worst_pin = max(worst_pin, np.max(bound - log_pk))
    out["pin_lower_bound"] = worst_pin
    return out
