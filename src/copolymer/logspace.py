"""Stable log-domain arithmetic helpers.

Log-domain quantities are plain floats / float64 arrays holding natural
logs; -inf encodes an exact zero.
"""

import numpy as np

LOG2 = float(np.log(2.0))


def softplus(x):
    """log(1 + e^x), stable for both signs: max(x, 0) + log1p(e^-|x|)."""
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out


def sigmoid(x):
    """1 / (1 + e^-x) without overflow."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    if out.ndim == 0:
        return float(out)
    return out


def scalar_sigmoid(x: float) -> float:
    """``sigmoid`` of one float, bit for bit (the same numpy exp), without
    the cost of two 0-d array expressions."""
    e = np.exp(-abs(x))
    return 1.0 / (1.0 + e) if x >= 0 else e / (1.0 + e)


def logsumexp(a):
    """log sum(e^a) over a 1-d array, max-shifted; -inf for empty/all-zero mass."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -np.inf
    m = np.max(a)
    if not np.isfinite(m):
        # all -inf (or a nan poisoned the max; let it propagate)
        return float(m)
    return float(m + np.log(np.sum(np.exp(a - m))))

