"""Shared oracle helpers: brute-force and finite-difference reference
implementations that the library code must agree with. These deliberately
avoid the code paths they are used to verify. Also a trace header builder for
certificate checks, and the certificates and tally of a check."""

from __future__ import annotations

import numpy as np

from mirrorboost import bounds
from mirrorboost.trace import TraceHeader


def certificate_header(algorithm: str, schedule_kind: str, *, m: int | None = None,
                       n: int = 1, lipschitz: float = 1.0, iterations: int = 1,
                       f_star: float | None = None, dist0: float | None = None,
                       eps: float | None = None, format: int = 2) -> TraceHeader:
    """The trace header of a run with these inputs: `m` examples (or samples,
    for stagewise) and `n` columns, the Lipschitz constant, the iteration
    count, f* and, for stagewise, the distance dist0 from the start to an
    optimum and the constant shrinkage eps. The diameter, the horizon and
    dual_defined follow from them, as TraceHeader derives them: the diameter
    is log(m) over the simplex and 0.5 * dist0 * dist0 for stagewise. A
    header that a trace is written with needs the run's shape: format_trace
    refuses a record whose index names no column of it."""
    shape = {"n": m, "p": n} if algorithm == "stagewise" else {"m": m, "n": n}
    return TraceHeader(algorithm=algorithm, schedule_kind=schedule_kind, iterations=iterations,
                       shape=shape, lipschitz=lipschitz, f_star=f_star, dist0=dist0, eps=eps,
                       format=format)


def certified(records, header: TraceHeader, count: int | None = None):
    """The certificate records bounds.certify yields for `records`, in report
    order, and the tally a ReportWriter keeps of them: report.json's
    summary(), by_tag and failures."""
    certs = [cert for _, group in bounds.certify(records, header, count) for cert in group]
    with bounds.ReportWriter() as writer:
        writer.add(certs)
    return certs, writer.tally


def simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All points of the probability simplex with coordinates k/steps,
    returned as a (count, dim) array."""
    if dim == 2:
        a = np.arange(steps + 1, dtype=float) / steps
        return np.column_stack([a, 1.0 - a])
    if dim == 3:
        pts = []
        for i in range(steps + 1):
            j = np.arange(steps + 1 - i, dtype=float)
            block = np.empty((steps + 1 - i, 3))
            block[:, 0] = i / steps
            block[:, 1] = j / steps
            block[:, 2] = 1.0 - block[:, 0] - block[:, 1]
            pts.append(block)
        grid = np.vstack(pts)
        # guard against tiny negative round-off in the last coordinate
        np.clip(grid, 0.0, 1.0, out=grid)
        return grid
    raise NotImplementedError("grid oracle only covers dim 2 and 3")


def entropy_objective(points: np.ndarray, c: np.ndarray, anchor: np.ndarray,
                      alpha: float) -> np.ndarray:
    """alpha*<c, x> + KL(x, anchor), vectorized over rows of `points`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(points > 0.0, points / anchor, 1.0)
        kl = np.sum(np.where(points > 0.0, points * np.log(ratio), 0.0), axis=1)
    return alpha * (points @ c) + kl


def grid_prox_entropy(c: np.ndarray, anchor: np.ndarray, alpha: float,
                      steps: int = 1000) -> np.ndarray:
    """Brute-force minimizer of the entropy prox objective over a simplex grid."""
    grid = simplex_grid(len(c), steps)
    values = entropy_objective(grid, np.asarray(c, float), np.asarray(anchor, float), alpha)
    return grid[int(np.argmin(values))]


def gram_schmidt_projection_norm(design: np.ndarray, response: np.ndarray) -> float:
    """Norm of the projection of `response` onto the column space of `design`,
    via modified Gram-Schmidt with re-orthogonalization. Independent of the
    least-squares routines under test."""
    basis: list[np.ndarray] = []
    for j in range(design.shape[1]):
        v = design[:, j].astype(float).copy()
        for _ in range(2):
            for q in basis:
                v -= (q @ v) * q
        norm = np.linalg.norm(v)
        if norm > 1e-10 * max(1.0, np.linalg.norm(design[:, j])):
            basis.append(v / norm)
    proj = np.zeros_like(response, dtype=float)
    for q in basis:
        proj += (q @ response) * q
    return float(np.linalg.norm(proj))


def central_difference_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad
