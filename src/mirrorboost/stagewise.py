"""Incremental forward stagewise regression as a view of the mirror descent engine.

Each round moves the residual along the design column most correlated with
it, by a shrinkage amount, and accrues the same amount on the corresponding
coefficient. That is mirror descent with the Euclidean prox in residual space
on the largest absolute column-residual correlation (the max-norm of the
least-squares loss gradient), with the l1-ball dual: the residual update is
the prox step, the chosen signed column is the dual response, and the
coefficient vector is the engine's step-weighted dual sum. A regression
problem makes that minmax problem once, on first use, and md_core.run, the
one runner, runs the engine on it from the response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .md_core import MinmaxProblem


@dataclass(frozen=True)
class RegressionProblem:
    """A design matrix and a response, each finite, the design without an
    all-zero column.

    Its residual-space problem is made on first use and kept, so the design's
    Lipschitz constant, the largest column l2 norm, is computed once, by the
    problem, and belongs to the design as it was then. The problem holds the
    size and constant: to_minmax().m samples, .n columns and .lipschitz().

    Forward stagewise regression is md_core.run(rp.to_minmax(), schedule,
    iterations, x0=rp.response.copy(), algorithm="stagewise"), from the
    response. Its records carry the coefficient l1 norm and support size
    before the round, and no dual value. The run stops early, with the
    reason on the result, when the residual becomes exactly orthogonal to
    every column (the objective is 0 and no further round can move). The
    final state's `x` holds the residual and its `dual_weighted_sum` the
    coefficients.
    """

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self) -> None:
        design = np.asarray(self.design, dtype=float)
        response = np.asarray(self.response, dtype=float)
        if design.ndim != 2 or design.size == 0:
            raise ValueError("design must be a nonempty 2-D matrix")
        if response.shape != (design.shape[0],):
            raise ValueError("response must have one entry per row of the design")
        # NaN propagates through max and min, and an infinity is one of them
        high, low = design.max(axis=0), design.min(axis=0)
        if not (math.isfinite(high.max()) and math.isfinite(low.min())
                and math.isfinite(response.max()) and math.isfinite(response.min())):
            raise ValueError("design and response must be finite")
        # a column is zero exactly when its largest and smallest entries are
        if np.any((high == 0.0) & (low == 0.0)):
            raise ValueError("design must not contain an all-zero column")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)

    @cached_property
    def _problem(self) -> MinmaxProblem:
        return MinmaxProblem(payoff=self.design, primal_domain="residual-space",
                             dual_domain="l1-ball")

    def to_minmax(self) -> MinmaxProblem:
        """The residual-space formulation: minimize the max absolute correlation.
        The same object on every call."""
        return self._problem


def least_squares_norm(rp: RegressionProblem) -> float:
    """l2 norm of the least-squares fit (the projection of the response onto
    the column space), computed by a rank-aware direct solve."""
    beta, _, _, _ = np.linalg.lstsq(rp.design, rp.response, rcond=None)
    return float(np.linalg.norm(rp.design @ beta))


def optimal_shrinkage(rp: RegressionProblem, iterations: int, projection_norm: float) -> float:
    """Shrinkage tuned a priori to a planned number of iterations, from the
    l2 norm of the least-squares fit or an upper bound on it."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    return projection_norm / (rp.to_minmax().lipschitz() * math.sqrt(iterations))
