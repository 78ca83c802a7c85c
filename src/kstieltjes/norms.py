"""Concrete value spaces: R^n under the max norm and n-by-n matrices under
the induced operator norm.

Both norms are exactly computable, which is why they are the instantiation
of choice: the operator norm induced by the max norm is the maximum
absolute row sum, so no spectral estimation is ever needed.  The pairing
satisfies ``norm(A @ x) <= op_norm(A) * sup_norm(x)`` up to one ulp of
accumulation.
"""

from __future__ import annotations

import numpy as np


def sup_norm(x) -> float:
    """Max norm of a vector: ``max_i |x_i|``."""
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x))) if x.size else 0.0


def op_norm(a) -> float:
    """Operator norm induced by the max norm: ``max_i sum_j |a_ij|``."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.sum(np.abs(a), axis=1)))


def norm_of(value) -> float:
    """Dispatch on the array rank: vectors get ``sup_norm``, matrices
    ``op_norm``."""
    value = np.asarray(value, dtype=float)
    if value.ndim <= 1:
        return sup_norm(value)
    return op_norm(value)


def row_norms(values) -> np.ndarray:
    """``norm_of(values[k])`` for every ``k``, as one vector: rows of a
    rank-2 array are vectors, slices of a rank-3 array are operators."""
    a = np.abs(np.asarray(values, dtype=float))
    if a.ndim == 3:
        a = np.sum(a, axis=2)
    return np.max(a, axis=1)
