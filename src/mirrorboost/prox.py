"""Prox functions and their prox steps.

Two geometries are provided: negative entropy on the probability simplex
(reference norm l1) and the squared Euclidean norm on a vector space
(reference norm l2). Both admit closed-form prox steps, which is what the
mirror descent engine relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ENTROPY = "entropy"
EUCLIDEAN = "euclidean"

# exp() leaves double range near +-709; beyond this the linear term is shifted
# before exponentiation, which normalization cancels.
_EXP_SHIFT_LIMIT = 700.0


@dataclass(frozen=True)
class ProxFunction:
    """A prox function together with the domain dimension it acts on."""

    kind: str
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in (ENTROPY, EUCLIDEAN):
            raise ValueError(f"unknown prox kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("prox dimension must be at least 1")

    @property
    def reference_norm(self) -> str:
        return "l1" if self.kind == ENTROPY else "l2"


def entropy(dim: int) -> ProxFunction:
    """Negative entropy on the probability simplex of the given dimension."""
    return ProxFunction(ENTROPY, dim)


def euclidean(dim: int) -> ProxFunction:
    """Half squared Euclidean norm on vectors of the given dimension."""
    return ProxFunction(EUCLIDEAN, dim)


def _as_vector(v, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _checked_anchor(prox: ProxFunction, anchor) -> np.ndarray:
    """`anchor` as a float vector a prox step may start from: of the prox
    dimension, finite, and for the entropy prox nonnegative with a positive
    sum."""
    anchor = _as_vector(anchor, prox.dim, "anchor")
    if prox.kind == ENTROPY and (np.any(anchor < 0.0) or not float(anchor.sum()) > 0.0):
        raise ValueError("anchor must be nonnegative with a positive sum for the entropy prox")
    return anchor


def prox_solve(prox: ProxFunction, c, anchor, alpha: float) -> np.ndarray:
    """Exact minimizer of alpha * <c, x> + D(x, anchor) over the domain.

    Entropy geometry: multiplicative update anchor_i * exp(-alpha * c_i),
    renormalized to the simplex. The anchor may lie on the simplex boundary:
    the minimizer keeps its zero entries at zero. Euclidean geometry:
    anchor - alpha * c. The result always lies in the domain: a step whose
    normalizer is zero or not finite, or whose Euclidean result overflows,
    raises ValueError instead.
    """
    c = _as_vector(c, prox.dim, "c")
    anchor = _checked_anchor(prox, anchor)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return _step(prox.kind, c, anchor, alpha)


def _step(kind: str, c: np.ndarray, anchor: np.ndarray, alpha: float) -> np.ndarray:
    """prox_solve's step from arguments it would accept, unchecked: float
    vectors of the prox dimension, finite, with an entropy anchor nonnegative
    with a positive sum, and a finite alpha. Only the result is checked. A
    previous step's result is such an anchor."""
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
