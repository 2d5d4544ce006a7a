"""Classical AdaBoost and forward stagewise regression, as test oracles.

The library runs both algorithms as views of the mirror descent engine
(md_core.run). The classical updates below are kept, unchanged, as a second
and independent implementation that the engine is compared against: the
multiplicative weight update over an exact best-column weak learner with the
log-exponential loss, and the stagewise residual update. Only the step-size
rule (StepSchedule) and the data containers are shared with the library.

The stump build has its loop version here too, one stump column at a time.
So do the quantities the engine only keeps as running values or never forms:
the step-sum bound over a list of steps, the dense dual value and support
size, the Bregman distance of a geometry, a schedule of given steps, and
the engine's dual response with its point checked on every call. And the
report.json text of json.dump, which the report writer must reproduce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from mirrorboost import md_core
from mirrorboost.boosting import TrainingSet
from mirrorboost.bounds import CertificateReport
from mirrorboost.md_core import MinmaxProblem
from mirrorboost.prox import ENTROPY
from mirrorboost.schedule import StepSchedule, UndefinedStepError
from mirrorboost.stagewise import RegressionProblem
from mirrorboost.trace import IterationRecord, RunResult

# coefficients below this magnitude count as zero in the support size
NNZ_TOLERANCE = 1e-14


def weak_learner(ts: TrainingSet, weights) -> int:
    """Index of the classifier with the largest weighted edge (lowest index on ties)."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (ts.to_minmax().m,):
        raise ValueError("weights must have one entry per example")
    return int(np.argmax(ts.margins.T @ weights))


def edge(ts: TrainingSet, weights) -> float:
    """Largest weighted edge over all classifiers; nonnegative under negation closure."""
    weights = np.asarray(weights, dtype=float)
    return float(np.max(ts.margins.T @ weights))


def margin(ts: TrainingSet, lam) -> float:
    """Smallest per-example margin of the combination lam."""
    lam = np.asarray(lam, dtype=float)
    return float(np.min(ts.margins @ lam))


# machine epsilon (twice the unit roundoff u = 2^-53) and the smallest subnormal
EPS = float(np.finfo(float).eps)
TINY = 2.0 ** -1074


def dual_rounding_bound(max_abs: float, n: int, k: int, step_sum: float) -> float:
    """Largest difference that rounding alone allows between the engine's dual
    value at record k and the dense margin of the normalized coefficients.

    Both paths hold the same coefficient sums c_j and step sum S (the same
    additions in the same order), and |min a - min b| <= max |a_i - b_i|.
    The dense path rounds each c_j / S once and sums n products per row: off
    from sum_j A_ij c_j / S by at most (n + 1) u max|A|, as sum_j |c_j| <= S
    to first order. The engine adds the k + 1 products alpha_t A_it into its
    running margin and divides by S: (k + 2) u max|A| for that, and k u max|A|
    because each c_j carries up to k roundings of its own. Together
    (2k + n + 3) u max|A| <= c (k + n + 1) u max|A| with c = 2 for n >= 1;
    using EPS = 2u for u covers the second-order terms. Underflow adds less
    than TINY per product or quotient: n products and n quotients (times
    max|A|) in the dense value; k + 1 products, divided by S, and one
    quotient in the engine's.
    """
    return (2.0 * (k + n + 1) * EPS * max_abs
            + TINY * (n * (1.0 + max_abs) + 1.0) + (k + 1) * (TINY / step_sum))


def assert_duals_within_rounding(payoff, oracle_records, engine_records) -> None:
    """Record by record, both duals are None or differ by at most
    dual_rounding_bound; the records' other fields are not looked at."""
    payoff = np.asarray(payoff, dtype=float)
    max_abs, n = float(np.abs(payoff).max()), payoff.shape[1]
    step_sum = 0.0
    for a, b in zip(oracle_records, engine_records):
        step_sum += a.alpha
        if a.dual is None or b.dual is None:
            assert a.dual is None and b.dual is None, (a.k, a.dual, b.dual)
        else:
            bound = dual_rounding_bound(max_abs, n, a.k, step_sum)
            assert abs(a.dual - b.dual) <= bound, (a.k, a.dual, b.dual, bound)


def log_exp_loss(ts: TrainingSet, coefficients) -> tuple[float, np.ndarray]:
    """Log of the mean exponentiated negative margin, and its gradient.

    Numerically stabilized by shifting the exponents; the gradient is
    -margins^T softmax(-margins @ coefficients).
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (ts.to_minmax().n,):
        raise ValueError("coefficients must have one entry per classifier")
    s = -(ts.margins @ coefficients)
    shift = float(s.max())
    e = np.exp(s - shift)
    total = float(e.sum())
    loss = shift + math.log(total / ts.to_minmax().m)
    soft = e / total
    grad = -(ts.margins.T @ soft)
    return loss, grad


@dataclass
class BoostState:
    """Example weights, accumulated classifier coefficients, and step history."""

    weights: np.ndarray
    coefficients: np.ndarray
    steps: list[float] = field(default_factory=list)
    columns: list[int] = field(default_factory=list)
    step_total: float = 0.0

    @classmethod
    def initial(cls, ts: TrainingSet) -> "BoostState":
        problem = ts.to_minmax()
        return cls(weights=np.full(problem.m, 1.0 / problem.m), coefficients=np.zeros(problem.n))

    @property
    def iteration(self) -> int:
        return len(self.steps)

    def normalized_coefficients(self) -> np.ndarray | None:
        """Coefficients scaled to the simplex; None before the first nonzero step."""
        if self.step_total <= 0.0:
            return None
        return self.coefficients / self.step_total


def adaboost_step(state: BoostState, ts: TrainingSet, alpha: float) -> BoostState:
    """One boosting round: pick the best column, reweight, renormalize."""
    alpha = float(alpha)
    if alpha < 0.0 or not math.isfinite(alpha):
        raise ValueError("alpha must be a finite nonnegative step size")
    j = weak_learner(ts, state.weights)
    column = ts.margins[:, j]
    u = state.weights * np.exp(-alpha * column)
    s = float(np.sum(u))
    new_weights = u / s
    coefficients = state.coefficients.copy()
    coefficients[j] += alpha
    return BoostState(
        weights=new_weights,
        coefficients=coefficients,
        steps=state.steps + [alpha],
        columns=state.columns + [j],
        step_total=state.step_total + alpha,
    )


def classical_adaboost(ts: TrainingSet, schedule: StepSchedule, iterations: int,
                       sink=None) -> RunResult:
    """Run classical AdaBoost, recording edge, loss-gradient norm, and margin per round.

    The recorded dual value is the margin of the normalized coefficient vector
    after the round. An undefined line-search step (edge equal to 1) stops the
    run early with the reason on the result. `sink`, when given, gets each
    record and the weights before its round, as the engine's sink does.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    state = BoostState.initial(ts)
    records: list[IterationRecord] = []
    terminated: str | None = None
    best = math.inf
    for k in range(iterations):
        w = state.weights
        scores = ts.margins.T @ w
        j = int(np.argmax(scores))
        value = float(scores[j])
        _, grad = log_exp_loss(ts, state.coefficients)
        grad_norm = float(np.abs(grad).max())
        try:
            alpha = schedule.step_size(k, value=value, grad=ts.margins[:, j])
        except UndefinedStepError as exc:
            terminated = str(exc)
            break
        state = adaboost_step(state, ts, alpha)
        lam = state.normalized_coefficients()
        dval = margin(ts, lam) if lam is not None else None
        if value < best:
            best = value
        rec = IterationRecord(
            k=k,
            algorithm="adaboost",
            index=j,
            sign=1.0,
            alpha=alpha,
            primal=value,
            best_primal=best,
            dual=dval,
            grad_norm=grad_norm,
        )
        records.append(rec)
        if sink is not None:
            sink(rec, w)
    return RunResult(records=records, state=state, terminated=terminated)


@dataclass
class StagewiseState:
    residual: np.ndarray
    coefficients: np.ndarray
    iteration: int = 0

    @classmethod
    def initial(cls, rp: RegressionProblem) -> "StagewiseState":
        return cls(residual=rp.response.copy(), coefficients=np.zeros(rp.to_minmax().n))


def correlation_objective(rp: RegressionProblem, residual) -> float:
    """Largest absolute correlation between the residual and a design column."""
    residual = np.asarray(residual, dtype=float)
    return float(np.max(np.abs(rp.design.T @ residual)))


def fs_step(state: StagewiseState, rp: RegressionProblem, eps: float) -> StagewiseState:
    """One stagewise round; ties on the correlation resolve to the lowest index."""
    eps = float(eps)
    if eps < 0.0 or not math.isfinite(eps):
        raise ValueError("eps must be a finite nonnegative shrinkage")
    corr = rp.design.T @ state.residual
    magnitudes = np.abs(corr)
    j = int(np.argmax(magnitudes))
    sign = float(np.sign(corr[j]))
    grad = sign * rp.design[:, j]
    residual = state.residual - eps * grad
    coefficients = state.coefficients.copy()
    coefficients[j] += eps * sign
    return StagewiseState(residual=residual, coefficients=coefficients,
                          iteration=state.iteration + 1)


def classical_fs(rp: RegressionProblem, schedule: StepSchedule, iterations: int,
                 sink=None) -> RunResult:
    """Run classical forward stagewise regression, one record per round.

    The run stops early, with the reason on the result, when the residual
    becomes exactly orthogonal to every column (the objective is 0 and no
    further round can move). `sink`, when given, gets each record and the
    residual before its round, as the engine's sink does.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    state = StagewiseState.initial(rp)
    records: list[IterationRecord] = []
    terminated: str | None = None
    best = math.inf
    for k in range(iterations):
        r = state.residual
        corr = rp.design.T @ r
        magnitudes = np.abs(corr)
        j = int(np.argmax(magnitudes))
        value = float(magnitudes[j])
        if value == 0.0:
            terminated = "residual is orthogonal to every column; optimum reached"
            break
        sign = float(np.sign(corr[j]))
        grad = sign * rp.design[:, j]
        try:
            eps_k = schedule.step_size(k, value=value, grad=grad)
        except UndefinedStepError as exc:
            terminated = str(exc)
            break
        l1 = float(np.sum(np.abs(state.coefficients)))
        l0 = int(np.count_nonzero(np.abs(state.coefficients) > NNZ_TOLERANCE))
        state = fs_step(state, rp, eps_k)
        if value < best:
            best = value
        rec = IterationRecord(
            k=k,
            algorithm="stagewise",
            index=j,
            sign=sign,
            alpha=eps_k,
            primal=value,
            best_primal=best,
            dual=None,
            grad_norm=None,
            l1=l1,
            l0=l0,
        )
        records.append(rec)
        if sink is not None:
            sink(rec, r)
    return RunResult(records=records, state=state, terminated=terminated)


def run_with_iterates(runner, *args, **kwargs) -> tuple[RunResult, list[np.ndarray]]:
    """`runner(*args, **kwargs)`'s result and, through its sink, the iterate
    before each of its records, in record order."""
    iterates: list[np.ndarray] = []
    result = runner(*args, **kwargs, sink=lambda rec, x: iterates.append(x))
    return result, iterates


def report_json(records) -> str:
    """report.json of the certificate records `records` by the generic
    encoder, json.dump of the reference dict CertificateReport.to_dict and a
    newline, which bounds.ReportWriter must write byte for byte. A value that
    is not finite raises ValueError, as strict JSON has none."""
    return json.dumps(CertificateReport(list(records)).to_dict(), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def classical_build_stumps(features) -> tuple[np.ndarray, list[tuple[int, float, int]]]:
    """All midpoint-threshold stumps over every feature, both orientations,
    plus the two constant classifiers, with exact duplicate columns removed.

    Returns the output matrix (one column per kept stump) and each kept
    stump's (feature, threshold, sign) in column order. A stump outputs
    sign * (+1 if x > threshold else -1) on its feature; a constant
    classifier has feature -1 and outputs its sign.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a 2-D matrix with at least one row")
    columns: list[np.ndarray] = []
    stumps: list[tuple[int, float, int]] = []
    seen: set[bytes] = set()

    def keep(feature: int, threshold: float, sign: int) -> None:
        if feature < 0:
            col = np.full(features.shape[0], float(sign))
        else:
            col = sign * np.where(features[:, feature] > threshold, 1.0, -1.0) + 0.0
        key = col.tobytes()
        if key not in seen:
            seen.add(key)
            columns.append(col)
            stumps.append((feature, threshold, sign))

    for f in range(features.shape[1]):
        values = np.unique(features[:, f])
        for a, b in zip(values[:-1], values[1:]):
            theta = 0.5 * a + 0.5 * b
            if theta == b:  # rounded up: the lower value splits the same way
                theta = a
            for sign in (1, -1):
                keep(f, float(theta), sign)
    for sign in (1, -1):
        keep(-1, 0.0, sign)
    return np.column_stack(columns), stumps


def md_gap_bound(diameter: float, lipschitz: float, steps) -> float:
    """Step-sum bound (diameter + L^2/2 * sum a_i^2) / sum a_i.

    `diameter` is the Bregman diameter of the primal domain for duality-gap
    certificates, or the Bregman distance from the start to a reference point
    when the bound is used against a known optimal value.
    """
    sa = 0.0
    sa2 = 0.0
    for a in steps:
        sa += a
        sa2 += a * a
    if sa <= 0.0:
        raise ValueError("the step-sum bound is undefined for a zero step-size sum")
    return (diameter + 0.5 * lipschitz * lipschitz * sa2) / sa


def dual_value(problem: MinmaxProblem, lam) -> float | None:
    """min over the primal domain of x^T A lam; None when the domain is unbounded."""
    if problem.primal_domain != md_core.PRIMAL_SIMPLEX:
        return None
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.n,):
        raise ValueError(f"lam must have shape ({problem.n},), got {lam.shape}")
    return float(np.min(problem.payoff @ lam))


def support_size(coefficients) -> int:
    """The number of coefficients above NNZ_TOLERANCE in magnitude."""
    return int(np.count_nonzero(np.abs(np.asarray(coefficients, dtype=float)) > NNZ_TOLERANCE))


SIMPLEX_SUM_TOL = 1e-8


def _check_simplex(x: np.ndarray, name: str, strict: bool) -> None:
    if strict:
        if np.any(x <= 0.0):
            raise ValueError(f"{name} must be strictly positive inside the simplex")
    elif np.any(x < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    if abs(float(x.sum()) - 1.0) > SIMPLEX_SUM_TOL:
        raise ValueError(f"{name} must sum to 1")


def _entropy_value(x: np.ndarray) -> float:
    # 0 * log(0) is taken as 0 on the simplex boundary.
    positive = x[x > 0.0]
    return float(positive @ np.log(positive)) + math.log(x.size)


def bregman(kind: str, x, y) -> float:
    """Bregman distance d(x) - d(y) - <grad d(y), x - y> of the geometry
    `kind`, prox.ENTROPY or prox.EUCLIDEAN, between finite vectors of one
    length.

    For the entropy geometry both points must lie on the simplex and y must be
    strictly positive, since the entropy gradient is undefined on the boundary.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x and y must be vectors of one length, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    if kind == ENTROPY:
        _check_simplex(x, "x", strict=False)
        _check_simplex(y, "y", strict=True)
        grad_y = 1.0 + np.log(y)
        return _entropy_value(x) - _entropy_value(y) - float(grad_y @ (x - y))
    diff = x - y
    return 0.5 * float(diff @ diff)


@dataclass(frozen=True)
class SequenceSchedule:
    """The steps of a given sequence, one per iteration, as a schedule: the
    engine only calls a schedule's step_size."""

    steps: tuple[float, ...]

    def __post_init__(self) -> None:
        steps = tuple(float(a) for a in self.steps)
        if any(a < 0.0 for a in steps):
            raise ValueError("step sizes must be nonnegative")
        object.__setattr__(self, "steps", steps)

    def step_size(self, k: int, value: float | None = None, grad=None) -> float:
        if k >= len(self.steps):
            raise ValueError(f"step sequence exhausted at iteration {k}")
        return self.steps[k]


def checked_response(problem: MinmaxProblem, x) -> tuple[int, float, float]:
    """The engine's dual response at `x`, (index, sign, value), after the
    check a state makes of its start point only, with its messages for x0:
    the point is a finite vector of the primal domain."""
    return md_core._respond(problem, md_core.MirrorDescentState.initial(problem, x).x)
