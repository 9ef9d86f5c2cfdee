"""Reproducible IID charge sequences and their prefix sums.

Values are generated by a counter-based construction: a 64-bit key is
derived from (master_seed, replica_index, stream tag) with a SplitMix64-style
finalizer, and site m draws from the SplitMix64 stream at offset m. The
result is bit-identical across platforms and independent of the order in
which sites are queried, which is what makes replica-level parallelism
reproducible.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U_GOLDEN = np.uint64(_GOLDEN)
_TAG_OMEGA = 1
_TAG_TILDE = 2
_TAG_PATH = 3

_SQRT3 = float(np.sqrt(3.0))


class DisorderLaw(str, Enum):
    """Centered unit-variance charge laws."""

    RADEMACHER = "rademacher"
    GAUSSIAN = "gaussian"
    UNIFORM_SYM = "uniform"


@dataclass(frozen=True)
class DisorderSample:
    """One realization (omega, omega_tilde) with prefix sums.

    Arrays have length n + 1 and are indexed by site (entry 0 is unused and
    set to 0), so ``omega[m]`` is the charge of site m and
    ``w_prefix[t] = sum_{m<=t} (omega[m] + h)`` with ``w_prefix[0] = 0``.
    """

    n: int
    omega: np.ndarray
    omega_tilde: np.ndarray
    w_prefix: np.ndarray
    h: float
    master_seed: int
    replica_index: int

    def __post_init__(self):
        for arr in (self.omega, self.omega_tilde, self.w_prefix):
            arr.flags.writeable = False


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _absorb(state: int, value: int) -> int:
    return _mix(((state ^ (value & _MASK)) + _GOLDEN) & _MASK)


def _stream_key(master_seed: int, replica_index: int, tag: int) -> int:
    return _absorb(_absorb(_mix(master_seed & _MASK), replica_index), tag)


def _mix_u64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _raw_words(key: int, indices: np.ndarray) -> np.ndarray:
    # SplitMix64 stream seeded at `key`, evaluated at arbitrary offsets.
    return _mix_u64(np.uint64(key) + indices.astype(np.uint64) * _U_GOLDEN)


def _uniforms(key: int, indices: np.ndarray) -> np.ndarray:
    # open (0,1): 53 mantissa bits, shifted off the exact endpoints
    return ((_raw_words(key, indices) >> np.uint64(11)).astype(np.float64)
            + 0.5) * 2.0 ** -53


def _draw(law: DisorderLaw, key: int, indices: np.ndarray) -> np.ndarray:
    if law == DisorderLaw.RADEMACHER:
        bit = _raw_words(key, indices) >> np.uint64(63)
        return np.where(bit == np.uint64(1), 1.0, -1.0)
    u = _uniforms(key, indices)
    if law == DisorderLaw.GAUSSIAN:
        # imported here: scipy.special is most of the package's import time
        from scipy.special import ndtri
        return ndtri(u)
    if law == DisorderLaw.UNIFORM_SYM:
        return (2.0 * u - 1.0) * _SQRT3
    raise ConfigError(f"unknown disorder law: {law!r}")


def sample_disorder(law_omega: DisorderLaw, law_omega_tilde: DisorderLaw,
                    n: int, h: float, master_seed: int,
                    replica_index: int = 0) -> DisorderSample:
    """Draw one (omega, omega_tilde) pair of independent IID streams."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    sites = np.arange(1, n + 1, dtype=np.uint64)
    om = _draw(law_omega, _stream_key(master_seed, replica_index, _TAG_OMEGA), sites)
    ot = _draw(law_omega_tilde, _stream_key(master_seed, replica_index, _TAG_TILDE), sites)
    return _assemble(om, ot, h, master_seed, replica_index)


def freeze_zero_disorder(n: int, h: float) -> DisorderSample:
    """Disorder switched off: omega = omega_tilde = 0 (homogeneous oracles)."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    zeros = np.zeros(n)
    return _assemble(zeros, zeros.copy(), h, 0, 0)


def disorder_from_arrays(omega, omega_tilde, h: float) -> DisorderSample:
    """Wrap explicit site-1..n charge arrays (used by enumeration oracles)."""
    om = np.asarray(omega, dtype=float)
    ot = np.asarray(omega_tilde, dtype=float)
    if om.shape != ot.shape or om.ndim != 1 or om.size < 1:
        raise ConfigError("omega and omega_tilde must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(om)) and np.all(np.isfinite(ot))
            and np.isfinite(h)):
        raise ConfigError("charges and h must be finite")
    return _assemble(om.copy(), ot.copy(), h, 0, 0)


def _assemble(omega_body, tilde_body, h, master_seed, replica_index):
    n = omega_body.size
    omega = np.concatenate(([0.0], omega_body))
    omega_tilde = np.concatenate(([0.0], tilde_body))
    w_prefix = np.concatenate(([0.0], np.cumsum(omega_body + h)))
    return DisorderSample(n=n, omega=omega, omega_tilde=omega_tilde,
                          w_prefix=w_prefix, h=float(h),
                          master_seed=int(master_seed),
                          replica_index=int(replica_index))


class PathRng:
    """Sequential uniform stream for exact path sampling.

    Keyed by (master_seed, replica_index, path_index); draws are consumed
    in order, so a path's randomness does not depend on scheduling.
    """

    def __init__(self, master_seed: int, replica_index: int = 0,
                 path_index: int = 0):
        self._key = _absorb(
            _stream_key(master_seed, replica_index, _TAG_PATH), path_index)
        self._count = 0

    def uniform(self) -> float:
        self._count += 1
        x = _mix((self._key + self._count * _GOLDEN) & _MASK)
        return ((x >> 11) + 0.5) * 2.0 ** -53
