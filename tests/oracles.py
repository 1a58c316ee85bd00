"""Slow reference implementations that the tests compare the library against."""

import numpy as np

from mlscore.margins import InteractionWeights


def mls_naive(f, weights: InteractionWeights, u) -> float:
    """Reference double sum over all ordered pairs:
    sum_ij (f_i - f_j)^2 * w_ij * u_i / Var(f).

    Kept deliberately close to the definition; the matrix form in ``mls`` is
    checked against this.
    """
    f = np.asarray(f, dtype=float)
    u = np.asarray(u, dtype=float)
    var = float(np.var(f, ddof=1))
    if var == 0.0:
        raise ValueError("variance is zero; score undefined")
    diff = f[:, None] - f[None, :]
    return float(np.sum(diff * diff * weights.weights * u[:, None]) / var)
