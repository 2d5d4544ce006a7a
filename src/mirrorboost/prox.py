"""The closed-form prox steps of the two geometries.

Negative entropy on the probability simplex (reference norm l1) and half the
squared Euclidean norm on a vector space (reference norm l2). The primal
domain of a mirror descent problem picks one: md_core reads it from there.
"""

from __future__ import annotations

import math

import numpy as np

ENTROPY = "entropy"
EUCLIDEAN = "euclidean"

# exp() leaves double range near +-709; beyond this the linear term is shifted
# before exponentiation, which normalization cancels.
_EXP_SHIFT_LIMIT = 700.0


def _step(kind: str, c: np.ndarray, anchor: np.ndarray, alpha: float) -> np.ndarray:
    """Exact minimizer of alpha * <c, x> + D(x, anchor) over the domain of
    the geometry `kind`, unchecked: `c` and `anchor` are finite float vectors
    of one length, an entropy anchor is nonnegative with a positive sum, and
    alpha is finite. A previous step's result is such an anchor.

    Entropy: the multiplicative update anchor_i * exp(-alpha * c_i),
    renormalized to the simplex; zero entries of the anchor stay zero.
    Euclidean: anchor - alpha * c. Only the result is checked: a step whose
    normalizer is zero or not finite, or whose Euclidean result overflows,
    raises ValueError instead of leaving the domain."""
    if kind == EUCLIDEAN:
        out = anchor - alpha * c
        if not np.isfinite(out).all():
            raise ValueError(f"the Euclidean prox step of size {alpha!r} overflows")
        return out
    t = alpha * c
    lo = float(t.min())
    if abs(lo) > _EXP_SHIFT_LIMIT:
        t = t - lo
    u = anchor * np.exp(-t)
    s = float(u.sum())
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"the entropy prox step of size {alpha!r} has normalizer {s!r}: "
                         "every weight underflowed or the sum overflowed")
    return u / s
