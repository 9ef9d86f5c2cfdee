import math

import numpy as np
from hypothesis import given, strategies as st

from copolymer.logspace import (LOG2, logsumexp,
                                scalar_sigmoid, sigmoid, softplus)

finite = st.floats(min_value=-700, max_value=700, allow_nan=False)


@given(finite)
def test_softplus_bounds_and_shift(x):
    sp = softplus(x)
    assert sp >= max(x, 0.0)
    # softplus(x) - softplus(-x) == x identically
    assert math.isclose(sp - softplus(-x), x, rel_tol=0, abs_tol=1e-9 * max(1, abs(x)))


@given(finite)
def test_sigmoid_complement(x):
    assert math.isclose(sigmoid(x) + sigmoid(-x), 1.0, abs_tol=1e-12)
    assert 0.0 <= sigmoid(x) <= 1.0


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30))
def test_logsumexp_matches_naive(xs):
    naive = math.log(sum(math.exp(v) for v in xs))
    assert math.isclose(logsumexp(np.array(xs)), naive, rel_tol=1e-12, abs_tol=1e-12)


def test_logsumexp_edge_cases():
    assert logsumexp(np.array([])) == -np.inf
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert math.isclose(logsumexp(np.array([-np.inf, 0.0])), 0.0)
    big = np.array([1e308, 1e308])
    assert math.isclose(logsumexp(big), 1e308 + LOG2)


def test_scalar_sigmoid_bit_identical():
    # the path sampler's sign probability: -2 lam dW over a wide range
    rng = np.random.default_rng(5)
    xs = np.concatenate((rng.normal(0.0, 3.0, 200_000),
                         rng.uniform(-750.0, 750.0, 50_000),
                         [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0,
                          np.inf, -np.inf]))
    for x in xs:
        assert scalar_sigmoid(x) == sigmoid(x), x
