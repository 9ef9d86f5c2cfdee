import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from copolymer.disorder import (DisorderLaw, PathRng, disorder_from_arrays,
                                freeze_zero_disorder, sample_disorder)
from copolymer.errors import ConfigError

LAWS = list(DisorderLaw)


def test_rademacher_support():
    d = sample_disorder(DisorderLaw.RADEMACHER, DisorderLaw.RADEMACHER,
                        5000, 0.0, 42, 0)
    assert set(np.unique(d.omega[1:])) == {-1.0, 1.0}
    assert set(np.unique(d.omega_tilde[1:])) == {-1.0, 1.0}


@pytest.mark.parametrize("law", LAWS)
def test_repeat_calls_are_bit_identical(law):
    a = sample_disorder(law, law, 257, 0.3, 99, 4)
    b = sample_disorder(law, law, 257, 0.3, 99, 4)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.omega_tilde, b.omega_tilde)
    assert np.array_equal(a.w_prefix, b.w_prefix)


@pytest.mark.parametrize("law", LAWS)
def test_prefix_property(law):
    # value of site m depends only on (seed, replica, m): a shorter sample
    # is an exact prefix of a longer one
    small = sample_disorder(law, law, 50, 0.1, 7, 2)
    big = sample_disorder(law, law, 400, 0.1, 7, 2)
    assert np.array_equal(small.omega, big.omega[:51])
    assert np.array_equal(small.omega_tilde, big.omega_tilde[:51])


def test_streams_and_replicas_differ():
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 100, 0, 7, 0)
    assert not np.array_equal(d.omega[1:], d.omega_tilde[1:])
    d2 = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 100, 0, 7, 1)
    assert not np.array_equal(d.omega[1:], d2.omega[1:])


def test_gaussian_moments():
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN,
                        10**6, 0.0, 99, 0)
    x = d.omega[1:]
    assert -0.004 <= x.mean() <= 0.004
    assert 0.99 <= x.var() <= 1.01


@pytest.mark.parametrize("law", LAWS)
def test_unit_variance_and_symmetry(law):
    x = sample_disorder(law, law, 10**6, 0.0, 123, 0).omega[1:]
    assert abs(x.mean()) <= 4.0 / math.sqrt(x.size)
    assert abs(x.var() - 1.0) <= 0.01
    # centered odd moment: the law is symmetric around zero
    assert abs((x ** 3).mean()) <= 4.0 * math.sqrt(15.0 / x.size)


def test_uniform_support():
    x = sample_disorder(DisorderLaw.UNIFORM_SYM, DisorderLaw.UNIFORM_SYM,
                        10**5, 0.0, 5, 0).omega[1:]
    s3 = math.sqrt(3.0)
    assert x.min() >= -s3 and x.max() <= s3


def test_cross_replica_independence():
    n = 10**6
    a = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, 0, 99, 0)
    b = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, n, 0, 99, 1)
    rho = np.corrcoef(a.omega[1:], b.omega[1:])[0, 1]
    assert abs(rho) <= 4.0 / math.sqrt(n)


def test_freeze_zero_disorder_prefixes():
    d = freeze_zero_disorder(5, 0.3)
    assert np.allclose(d.w_prefix, [0.0, 0.3, 0.6, 0.9, 1.2, 1.5], atol=1e-15)
    assert np.all(d.omega_tilde == 0.0)
    assert freeze_zero_disorder(1, 0.7).w_prefix[1] == pytest.approx(0.7)


def test_w_prefix_increments():
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN,
                        1000, 0.25, 2, 3)
    assert d.w_prefix[0] == 0.0
    assert np.allclose(np.diff(d.w_prefix), d.omega[1:] + 0.25, atol=1e-9)


def test_gaussian_quantile_quality():
    # round trip against an independent erfc-based normal CDF
    u = np.concatenate([np.geomspace(1e-12, 0.5, 200),
                        1.0 - np.geomspace(1e-12, 0.4999, 200)])
    z = ndtri(u)
    back = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
    rel = np.abs(back - u) / u
    assert rel.max() <= 1e-9


def test_path_rng_reproducible_and_keyed():
    a = PathRng(11, 3, 7)
    b = PathRng(11, 3, 7)
    seq_a = [a.uniform() for _ in range(100)]
    seq_b = [b.uniform() for _ in range(100)]
    assert seq_a == seq_b
    c = PathRng(11, 3, 8)
    assert [c.uniform() for _ in range(100)] != seq_a
    assert all(0.0 < u < 1.0 for u in seq_a)


@given(st.integers(0, 2**64 - 1), st.integers(0, 50),
       st.lists(st.integers(0, 9), max_size=8))
def test_path_rng_blocks_equal_single_draws(seed, path, blocks):
    # block k of size s (0 = one uniform() call) and, after every block,
    # a rewind of the block's last s // 3 draws, as the sampler does
    ref = PathRng(seed, 1, path)
    rng = PathRng(seed, 1, path)
    seen = []
    for size in blocks:
        if size:
            seen.extend(rng.uniforms(size).tolist())
            back = size // 3
            rng.rewind(back)
            del seen[len(seen) - back:]
        else:
            seen.append(rng.uniform())
    assert rng._count == len(seen)
    assert seen == [ref.uniform() for _ in seen]
    assert rng.uniform() == ref.uniform()


def test_validation_errors():
    with pytest.raises(ConfigError):
        sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 0, 0.0, 1, 0)
    with pytest.raises(ConfigError):
        freeze_zero_disorder(0, 0.0)
    with pytest.raises(ConfigError):
        disorder_from_arrays(np.ones(3), np.ones(4), 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError):
            disorder_from_arrays(np.array([0.0, bad]), np.zeros(2), 0.0)
        with pytest.raises(ConfigError):
            disorder_from_arrays(np.zeros(2), np.array([bad, 1.0]), 0.0)
        with pytest.raises(ConfigError):
            disorder_from_arrays(np.zeros(2), np.zeros(2), bad)


def test_samples_immutable():
    d = sample_disorder(DisorderLaw.GAUSSIAN, DisorderLaw.GAUSSIAN, 10, 0, 1, 0)
    with pytest.raises(ValueError):
        d.omega[1] = 0.0
