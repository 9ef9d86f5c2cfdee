"""Tabulated inter-return laws K(n) of the free process.

Two kinds are supported: the exact first-return law of the simple random
walk (K(n) = C(2n,n) / ((2n-1) 4^n), tail exponent 3/2), and the
normalized pure power law K(n) = n^-alpha / zeta(alpha) for alpha > 1.
Both sum to 1 over all n, so the return time is proper (recurrent origin).

Tables are built once, in log domain, and are immutable afterwards; they
can be shared freely across workers.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

# Bernoulli numbers B_2, B_4, B_6, B_8 for the Euler-Maclaurin tail.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)


class KernelKind(str, Enum):
    SRW = "srw"
    POWER_LAW = "powerlaw"


@dataclass(frozen=True)
class KernelSpec:
    """Which return law to tabulate and up to which horizon."""

    kind: KernelKind
    n_max: int
    alpha: float = 1.5

    def __post_init__(self):
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.kind == KernelKind.POWER_LAW and not self.alpha > 1.0:
            raise ConfigError(
                f"power-law kernel needs alpha > 1 (got {self.alpha}): "
                "a constant slowly-varying factor is not normalizable otherwise"
            )


@dataclass(frozen=True)
class ReturnKernel:
    """Log-domain table of K(n) for n = 1..n_max.

    ``log_k[g]`` is log K(g); index 0 is -inf (a gap of zero is impossible).
    ``total_mass_defect`` is 1 - sum_{n<=n_max} K(n), the probability mass
    beyond the table horizon.
    """

    kind: KernelKind
    alpha: float
    n_max: int
    log_k: np.ndarray
    total_mass_defect: float

    def __post_init__(self):
        self.log_k.flags.writeable = False


def _finalize(kind, alpha, n_max, log_body, defect):
    log_k = np.concatenate(([-np.inf], log_body))
    return ReturnKernel(kind=kind, alpha=alpha, n_max=int(n_max),
                        log_k=log_k, total_mass_defect=float(defect))


def build_srw_kernel(n_max: int) -> ReturnKernel:
    """First-return law of the simple random walk, one unit = two SRW steps.

    K(n) = C(2n, n) / ((2n - 1) 4^n), evaluated through log-factorials so
    the table stays finite up to horizons of 2^20 and beyond.
    """
    from scipy.special import gammaln  # slow to import; needed only here

    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(1, n_max + 1, dtype=float)
    log_body = (gammaln(2 * n + 1) - 2 * gammaln(n + 1)
                - np.log(2 * n - 1) - n * np.log(4.0))
    defect = 1.0 - float(np.sum(np.exp(log_body)))
    return _finalize(KernelKind.SRW, 1.5, n_max, log_body, max(defect, 0.0))


def build_powerlaw_kernel(alpha: float, n_max: int) -> ReturnKernel:
    """K(n) = n^-alpha / zeta(alpha), normalized over all n >= 1."""
    if not alpha > 1.0:
        raise ConfigError(f"alpha must be > 1, got {alpha}")
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    z = riemann_zeta(alpha)
    n = np.arange(1, n_max + 1, dtype=float)
    log_body = -alpha * np.log(n) - np.log(z)
    defect = zeta_tail(alpha, n_max) / z
    return _finalize(KernelKind.POWER_LAW, float(alpha), n_max, log_body, defect)


def build_kernel(spec: KernelSpec) -> ReturnKernel:
    if spec.kind == KernelKind.SRW:
        return build_srw_kernel(spec.n_max)
    return build_powerlaw_kernel(spec.alpha, spec.n_max)


def riemann_zeta(s: float, m: int = 64) -> float:
    """zeta(s) for s > 1 by direct summation plus an Euler-Maclaurin tail.

    With m = 64 pivot terms and four Bernoulli corrections the relative
    error is far below 1e-12 for every s > 1.
    """
    if not s > 1.0:
        raise ConfigError(f"zeta normalization needs s > 1, got {s}")
    head = float(np.sum(np.arange(1, m, dtype=float) ** (-s)))
    return head + zeta_tail(s, m - 1)


def zeta_tail(s: float, m: int) -> float:
    """sum_{n > m} n^-s via Euler-Maclaurin from the pivot m + 1."""
    p = float(m + 1)
    tail = p ** (1.0 - s) / (s - 1.0) + 0.5 * p ** (-s)
    rising = s
    power = p ** (-s - 1.0)
    fact = 2.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        tail += (b2k / fact) * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= p * p
        fact *= (2 * k + 1) * (2 * k + 2)
    return tail
