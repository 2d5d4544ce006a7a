"""Mirror descent for minmax objectives over a payoff matrix.

The objective is f(x) = max over lam in Q of x^T A lam. The dual response
oracle returns a maximizing vertex of Q, which is simultaneously the
subgradient oracle: g = A lam. Running the engine accumulates a step-size
weighted average of the dual responses, whose value certifies the primal
progress through weak duality.

Each round reads the payoff once, in the dual response's A^T x scan. The dual
value min_i (A lam_bar)_i of the average needs no second scan: since
A lam_bar = (sum_k alpha_k g_k) / sum_k alpha_k, the engine keeps the margins
A @ (sum_k alpha_k lam_k) as an m-vector and adds alpha_k g_k to them each
round, in O(m), and the dual sum gains alpha_k at one index, since every
response is a signed coordinate vector.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .prox import ENTROPY, EUCLIDEAN, _step
from .schedule import StepSchedule, UndefinedStepError
from .trace import ALGORITHMS, IterationRecord, RunResult

PRIMAL_SIMPLEX = "simplex"
PRIMAL_RESIDUAL = "residual-space"
DUAL_SIMPLEX = "simplex"
DUAL_L1_BALL = "l1-ball"

# coefficients below this magnitude count as zero in the support size
NNZ_TOLERANCE = 1e-14


@dataclass(frozen=True)
class MinmaxProblem:
    """min over the primal domain of max_{lam in Q} x^T A lam.

    primal_domain "simplex" pairs with the l1 norm (compact, so the dual value
    min_i (A lam)_i exists); "residual-space" is an affine subspace measured in
    l2 (unbounded, no dual value). dual_domain "simplex" restricts lam to
    probability vectors, "l1-ball" to vectors of l1 norm at most one.

    The problem owns the payoff's checks and its Lipschitz constant: both are
    computed once, when the problem is made, from the payoff as it is then.
    A float payoff is kept as given, neither copied nor written.
    """

    payoff: np.ndarray
    primal_domain: str = PRIMAL_SIMPLEX
    dual_domain: str = DUAL_SIMPLEX
    _lipschitz: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        payoff = np.asarray(self.payoff, dtype=float)
        if payoff.ndim != 2 or payoff.size == 0:
            raise ValueError("payoff must be a nonempty 2-D matrix")
        # NaN propagates through max and min, and an infinity is one of them
        high, low = payoff.max(), payoff.min()
        if not (math.isfinite(high) and math.isfinite(low)):
            raise ValueError("payoff entries must be finite")
        object.__setattr__(self, "payoff", payoff)
        if self.primal_domain not in (PRIMAL_SIMPLEX, PRIMAL_RESIDUAL):
            raise ValueError(f"unknown primal domain: {self.primal_domain!r}")
        if self.dual_domain not in (DUAL_SIMPLEX, DUAL_L1_BALL):
            raise ValueError(f"unknown dual domain: {self.dual_domain!r}")
        if self.primal_domain == PRIMAL_SIMPLEX:
            # max |A_ij| from the extremes just read, without an |A| temporary
            lipschitz = max(high, -low)
        else:
            # a norm past the float range is an infinite constant, which the
            # trace header refuses
            with np.errstate(over="ignore"):
                lipschitz = np.linalg.norm(payoff, axis=0).max()
        object.__setattr__(self, "_lipschitz", float(lipschitz))

    @property
    def m(self) -> int:
        return self.payoff.shape[0]

    @property
    def n(self) -> int:
        return self.payoff.shape[1]

    def lipschitz(self) -> float:
        """Bound on the dual norm of any subgradient A lam, lam in Q.

        Simplex primal domain: the reference norm is l1, its dual is the max
        norm, and every response is a signed column, so the constant is the
        largest entry magnitude. Residual-space primal domain: the reference
        norm is l2 and the constant is the largest column l2 norm.
        """
        return self._lipschitz


def _respond(problem: MinmaxProblem, x: np.ndarray) -> tuple[int, float, float]:
    """The dual response at a point of the primal domain, unchecked: one
    A^T x scan and its argmax, ties to the lowest column index. Returns the
    maximizing vertex lam of Q, a signed coordinate vector, as its index and
    sign, and the achieved value f(x)."""
    scores = problem.payoff.T @ x
    if problem.dual_domain == DUAL_SIMPLEX:
        j = int(scores.argmax())
        return j, 1.0, float(scores[j])
    magnitudes = np.abs(scores)
    j = int(magnitudes.argmax())
    return j, float(np.sign(scores[j])), float(magnitudes[j])


def _column(problem: MinmaxProblem, index: int, sign: float) -> np.ndarray:
    """The subgradient g = A lam at the vertex lam of Q with this index and
    sign, after refusing one that is no vertex of Q: an index that names no
    column, a sign other than 1.0, or -1.0 outside the l1-ball dual. Under
    the simplex dual g is the payoff's column itself, a view; under the
    l1-ball dual it is the new vector sign * column, for a sign of 1.0 too,
    so that g @ g sums a contiguous vector."""
    if not 0 <= index < problem.n:
        raise ValueError(f"vertex index {index!r} names no column: the payoff has "
                         f"{problem.n} columns")
    column = problem.payoff[:, index]
    if problem.dual_domain == DUAL_SIMPLEX:
        if sign != 1.0:
            raise ValueError(f"vertex sign must be 1.0 under the simplex dual, got {sign!r}")
        return column
    if sign != 1.0 and sign != -1.0:
        raise ValueError(f"vertex sign must be 1.0 or -1.0 under the l1-ball dual, got {sign!r}")
    return sign * column


@dataclass
class MirrorDescentState:
    """Iterate, dual running sums, and the best primal value seen so far, of
    mirror descent on `problem`: its primal domain picks the prox, negative
    entropy on the simplex and half the squared Euclidean norm in residual
    space, and its column count is the dual sum's length.

    Making a state checks its iterate, once, as a point of the primal domain:
    shape (m,), finite, and on the simplex nonnegative with a sum within 1e-6
    of 1. Every later iterate is a prox step's result, which lies in the
    domain, so md_step does not check it again.
    """

    problem: MinmaxProblem
    k: int
    x: np.ndarray
    dual_weighted_sum: np.ndarray
    step_sum: float
    best_value: float
    best_index: int

    def __post_init__(self) -> None:
        m = self.problem.m
        x = np.asarray(self.x, dtype=float)
        if x.shape != (m,):
            raise ValueError(f"x0 must have shape ({m},), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("x0 must be finite")
        if self.problem.primal_domain == PRIMAL_SIMPLEX:
            if float(x.min()) < 0.0 or abs(float(x.sum()) - 1.0) > 1e-6:
                raise ValueError("x0 must lie on the probability simplex")
        self.x = x

    @classmethod
    def initial(cls, problem: MinmaxProblem, x0=None) -> "MirrorDescentState":
        """The state before the first step, at `x0`: by default the uniform
        point of the simplex, which a residual-space domain has no analogue of."""
        if x0 is None:
            if problem.primal_domain != PRIMAL_SIMPLEX:
                raise ValueError("x0 is required for a residual-space primal domain")
            x0 = np.full(problem.m, 1.0 / problem.m)
        return cls(
            problem=problem,
            k=0,
            x=x0,
            dual_weighted_sum=np.zeros(problem.n),
            step_sum=0.0,
            best_value=math.inf,
            best_index=-1,
        )

    @property
    def geometry(self) -> str:
        """The prox kind of the primal domain: prox.ENTROPY or prox.EUCLIDEAN."""
        return ENTROPY if self.problem.primal_domain == PRIMAL_SIMPLEX else EUCLIDEAN

    @property
    def dual_average(self) -> np.ndarray | None:
        """Step-size weighted average of dual responses; None before the first
        nonzero step, where the average would be 0/0."""
        if self.step_sum <= 0.0:
            return None
        return self.dual_weighted_sum / self.step_sum


def md_step(state: MirrorDescentState, vertex: tuple[int, float], alpha: float,
            value: float) -> None:
    """One prox step of the state's geometry from the current iterate, in
    place; a rejected argument raises before `state` changes.

    `vertex` is the dual response, the (index, sign) of the signed coordinate
    vector lam it is: the step's cost vector is A lam, the signed column that
    _column gives after refusing a vertex of no column or a sign outside the
    state's dual domain. The dual sum gains alpha * sign at that index and
    the step sum gains alpha. `alpha` must be finite and nonnegative.
    `value` (the primal objective at the current iterate) feeds the
    best-so-far tracking.
    """
    alpha = float(alpha)
    if alpha < 0.0 or not math.isfinite(alpha):
        raise ValueError("alpha must be a finite nonnegative step size")
    index, sign = vertex
    index = operator.index(index)
    x = _step(state.geometry, _column(state.problem, index, sign), state.x, alpha)
    value = float(value)
    # a dense add of alpha * lam would add +0.0 to every other entry, which
    # leaves it unchanged
    state.dual_weighted_sum[index] += alpha * sign
    state.step_sum += alpha
    if value < state.best_value:
        state.best_value = value
        state.best_index = state.k
    state.x = x
    state.k += 1


def run(problem: MinmaxProblem, schedule: StepSchedule, iterations: int, x0=None,
        sink=None, algorithm: str = "mirror-descent") -> RunResult:
    """Run mirror descent, emitting one record per iteration: the one runner,
    of the matrix game and of the views, AdaBoost on a TrainingSet's problem
    and forward stagewise regression on a RegressionProblem's, whose
    docstrings say what their records and final state hold.

    Each record carries the pre-step iterate values (objective, chosen column)
    and the post-step dual average value when it exists. The dual value is
    read from running margins A @ dual_weighted_sum, to which each round adds
    alpha * g in O(m), so the payoff is scanned once per round, by the dual
    response; only a simplex primal domain keeps them. `algorithm` is the
    tag the records carry. Under the l1-ball dual the records carry the l1
    norm and support size of the pre-step dual sum, which is the stagewise
    coefficient vector; the support size is a running count, updated from the
    one entry each round changes.

    The state made from the problem at `x0` (MirrorDescentState.initial)
    checks it once; each round md_step advances that state in place, toward
    the dual response's vertex, whose column also feeds the schedule and the
    margins.
    `sink`, when given, is called after each round with the record and the
    pre-step iterate, which the round leaves unwritten; records do not keep
    iterates.

    A schedule that cannot produce a step, or a zero dual response (only
    possible under the l1-ball dual), stops the run early and the reason is
    reported on the result; records produced so far are kept.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm tag: {algorithm!r}")
    state = MirrorDescentState.initial(problem, x0)
    l1_ball = problem.dual_domain == DUAL_L1_BALL
    # the support size of dual_sum, its entries above NNZ_TOLERANCE, kept up to
    # date from the one entry a round changes
    dual_sum, support = state.dual_weighted_sum, 0
    # A @ dual_weighted_sum; the residual-space domain has no dual value
    margins = np.zeros(problem.m) if problem.primal_domain == PRIMAL_SIMPLEX else None
    records: list[IterationRecord] = []
    terminated: str | None = None
    for k in range(iterations):
        x = state.x
        index, sign, value = _respond(problem, x)
        if sign == 0.0:
            terminated = "residual is orthogonal to every column; optimum reached"
            break
        grad = _column(problem, index, sign)
        try:
            alpha = schedule.step_size(k, value=value, grad=grad)
        except UndefinedStepError as exc:
            terminated = str(exc)
            break
        l1 = l0 = None
        if l1_ball:
            l1 = float(np.sum(np.abs(dual_sum)))
            l0 = support
            was_in = abs(float(dual_sum[index])) > NNZ_TOLERANCE
        md_step(state, (index, sign), alpha, value)
        if l1_ball:
            support += (abs(float(dual_sum[index])) > NNZ_TOLERANCE) - was_in
        dual = None
        if margins is not None:
            margins += alpha * grad
            if state.step_sum > 0.0:
                dual = float(margins.min()) / state.step_sum
        rec = IterationRecord(
            k=k,
            algorithm=algorithm,
            index=index,
            sign=sign,
            alpha=alpha,
            primal=value,
            best_primal=state.best_value,
            dual=dual,
            l1=l1,
            l0=l0,
        )
        records.append(rec)
        if sink is not None:
            sink(rec, x)
    return RunResult(records=records, state=state, terminated=terminated)
