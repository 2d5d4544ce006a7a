"""Prox functions and their Bregman geometry.

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

_SIMPLEX_SUM_TOL = 1e-8


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


def _check_simplex(x: np.ndarray, name: str, strict: bool) -> None:
    if strict:
        if np.any(x <= 0.0):
            raise ValueError(f"{name} must be strictly positive inside the simplex")
    elif np.any(x < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    if abs(float(x.sum()) - 1.0) > _SIMPLEX_SUM_TOL:
        raise ValueError(f"{name} must sum to 1")


def _entropy_value(x: np.ndarray) -> float:
    # 0 * log(0) is taken as 0 on the simplex boundary.
    positive = x[x > 0.0]
    return float(positive @ np.log(positive)) + math.log(x.size)


def value(prox: ProxFunction, x) -> float:
    """Evaluate the prox function at a point of its domain."""
    x = _as_vector(x, prox.dim, "x")
    if prox.kind == ENTROPY:
        _check_simplex(x, "x", strict=False)
        return _entropy_value(x)
    return 0.5 * float(x @ x)


def bregman(prox: ProxFunction, x, y) -> float:
    """Bregman distance d(x) - d(y) - <grad d(y), x - y>.

    For the entropy geometry both points must lie on the simplex and y must be
    strictly positive, since the entropy gradient is undefined on the boundary.
    """
    x = _as_vector(x, prox.dim, "x")
    y = _as_vector(y, prox.dim, "y")
    if prox.kind == ENTROPY:
        _check_simplex(x, "x", strict=False)
        _check_simplex(y, "y", strict=True)
        grad_y = 1.0 + np.log(y)
        return _entropy_value(x) - _entropy_value(y) - float(grad_y @ (x - y))
    diff = x - y
    return 0.5 * float(diff @ diff)


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


def diameter_bound(prox: ProxFunction, x0, optimum=None) -> float:
    """Upper bound on the Bregman distance from x0 to any point of the domain.

    Entropy geometry: the maximum over the simplex is attained at a vertex and
    equals -log(min_i x0_i); for the uniform anchor this is exactly log(dim).
    Euclidean geometry: the domain is unbounded, so the caller must supply the
    point (typically an optimum) whose distance should be bounded.
    """
    x0 = _as_vector(x0, prox.dim, "x0")
    if prox.kind == ENTROPY:
        _check_simplex(x0, "x0", strict=True)
        if np.all(x0 == x0[0]):
            return math.log(prox.dim)
        return -math.log(float(x0.min()))
    if optimum is None:
        raise ValueError(
            "the Euclidean domain is unbounded: supply the optimum so that "
            "the distance from x0 to it can be used as the bound"
        )
    opt = _as_vector(optimum, prox.dim, "optimum")
    diff = opt - x0
    return 0.5 * float(diff @ diff)
