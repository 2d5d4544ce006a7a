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
from dataclasses import dataclass, field

import numpy as np

from .prox import ProxFunction, _as_vector, _checked_anchor, _step, entropy, euclidean
# EDGE_CAP for tests/test_parent_outputs.py, which pins the earlier outputs
from .schedule import EDGE_CAP, StepSchedule, UndefinedStepError  # noqa: F401
from .trace import ALGORITHMS, IterationRecord, RunResult

PRIMAL_SIMPLEX = "simplex"
PRIMAL_RESIDUAL = "residual-space"
DUAL_SIMPLEX = "simplex"
DUAL_L1_BALL = "l1-ball"

# coefficients below this magnitude count as zero in the support size
NNZ_TOLERANCE = 1e-14

# the most bytes of squares _largest_column_norm holds at once
_SQUARES_BLOCK_BYTES = 512 * 1024


def _largest_column_norm(payoff: np.ndarray) -> float:
    """max_j ||A[:, j]||_2, bit for bit np.linalg.norm(payoff, axis=0).max(),
    which squares the whole matrix into a temporary: here the squares are
    summed a block of columns at a time, each block about
    _SQUARES_BLOCK_BYTES, and two columns or more unless the payoff has one.
    A block keeps the payoff's layout, so numpy adds each column's squares in
    the order it adds them in the whole matrix; a single-column block of a
    wider payoff would be summed pairwise instead. sqrt is monotone, so the
    largest root is the root of the largest sum. A norm past the float range
    is an infinite constant, which the trace header refuses."""
    m, n = payoff.shape
    columns = max(2, _SQUARES_BLOCK_BYTES // (8 * m))
    largest = 0.0
    start = 0
    with np.errstate(over="ignore"):
        while start < n:
            stop = start + columns
            if stop == n - 1:  # no single-column block after a wider one
                stop = n
            block = payoff[:, start:stop]
            largest = max(largest, np.add.reduce(block * block, axis=0).max())
            start = stop
    return math.sqrt(largest)


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
            lipschitz = _largest_column_norm(payoff)
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


def _checked_point(problem: MinmaxProblem, x, name: str) -> np.ndarray:
    """`x` as a float vector, after checking that it lies in the primal domain."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.m,):
        raise ValueError(f"{name} must have shape ({problem.m},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    if problem.primal_domain == PRIMAL_SIMPLEX:
        if float(x.min()) < -1e-9 or abs(float(x.sum()) - 1.0) > 1e-6:
            raise ValueError(f"{name} must lie on the probability simplex")
    return x


def _respond(problem: MinmaxProblem, x: np.ndarray) -> tuple[int, float, float, np.ndarray]:
    """The dual response at a point of the primal domain, unchecked: one
    A^T x scan and its argmax, ties to the lowest column index. Returns the
    maximizing vertex lam of Q, a signed coordinate vector, as its index and
    sign, the achieved value f(x), and the subgradient g = A lam."""
    scores = problem.payoff.T @ x
    if problem.dual_domain == DUAL_SIMPLEX:
        j = int(scores.argmax())
        return j, 1.0, float(scores[j]), problem.payoff[:, j]
    magnitudes = np.abs(scores)
    j = int(magnitudes.argmax())
    sign = float(np.sign(scores[j]))
    return j, sign, float(magnitudes[j]), sign * problem.payoff[:, j]


@dataclass
class MirrorDescentState:
    """Iterate, dual running sums, and the best primal value seen so far,
    stepped with the prox function `prox` throughout.

    Making a state checks its iterate as a prox step's anchor: the prox
    dimension, finite, and for the entropy prox nonnegative with a positive
    sum. Every later iterate is a prox step's result, which lies in the
    domain, so md_step does not check it again.
    """

    k: int
    x: np.ndarray
    prox: ProxFunction
    dual_weighted_sum: np.ndarray
    step_sum: float
    best_value: float
    best_index: int

    def __post_init__(self) -> None:
        self.x = _checked_anchor(self.prox, self.x)

    @classmethod
    def initial(cls, x0, prox: ProxFunction, dual_dim: int) -> "MirrorDescentState":
        return cls(
            k=0,
            x=x0,
            prox=prox,
            dual_weighted_sum=np.zeros(dual_dim),
            step_sum=0.0,
            best_value=math.inf,
            best_index=-1,
        )

    @property
    def dual_average(self) -> np.ndarray | None:
        """Step-size weighted average of dual responses; None before the first
        nonzero step, where the average would be 0/0."""
        if self.step_sum <= 0.0:
            return None
        return self.dual_weighted_sum / self.step_sum


def md_step(state: MirrorDescentState, grad, alpha: float, vertex: tuple[int, float],
            value: float) -> None:
    """One step of the state's prox from the current iterate, in place; a
    rejected argument raises before `state` changes.

    Every call checks `alpha` and `grad`, the prox step's cost vector (shape
    and finiteness). `vertex` is the dual response that produced `grad`, as
    the (index, sign) of the signed coordinate vector it is: the dual sum
    gains alpha * sign at that index and the step sum gains alpha. `value`
    (the primal objective at the current iterate) feeds the best-so-far
    tracking.
    """
    alpha = float(alpha)
    if alpha < 0.0 or not math.isfinite(alpha):
        raise ValueError("alpha must be a finite nonnegative step size")
    x = _step(state.prox.kind, _as_vector(grad, state.prox.dim, "c"), state.x, alpha)
    value = float(value)
    # a dense add of alpha * lam would add +0.0 to every other entry, which
    # leaves it unchanged
    index, sign = vertex
    state.dual_weighted_sum[index] += alpha * sign
    state.step_sum += alpha
    if value < state.best_value:
        state.best_value = value
        state.best_index = state.k
    state.x = x
    state.k += 1


def run(problem: MinmaxProblem, schedule: StepSchedule, iterations: int, x0=None,
        sink=None, algorithm: str = "mirror-descent") -> RunResult:
    """Run mirror descent, emitting one record per iteration.

    The primal domain picks the prox: negative entropy on the simplex,
    half the squared Euclidean norm in residual space.

    Each record carries the pre-step iterate values (objective, chosen column)
    and the post-step dual average value when it exists. The dual value is
    read from running margins A @ dual_weighted_sum, to which each round adds
    alpha * g in O(m), so the payoff is scanned once per round, by the dual
    response; only a simplex primal domain keeps them. `algorithm` is the
    tag the records carry. Under the l1-ball dual the records carry the l1
    norm and support size of the pre-step dual sum, which is the stagewise
    coefficient vector; the support size is a running count, updated from the
    one entry each round changes.

    `x0` is checked once, here, against the primal domain and as the state's
    anchor. Each round md_step advances that state in place.
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
    if x0 is None:
        if problem.primal_domain != PRIMAL_SIMPLEX:
            raise ValueError("x0 is required for a residual-space primal domain")
        x0 = np.full(problem.m, 1.0 / problem.m)
    geometry = entropy if problem.primal_domain == PRIMAL_SIMPLEX else euclidean
    state = MirrorDescentState.initial(_checked_point(problem, x0, "x0"),
                                       geometry(problem.m), problem.n)
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
        index, sign, value, grad = _respond(problem, x)
        if sign == 0.0:
            terminated = "residual is orthogonal to every column; optimum reached"
            break
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
        md_step(state, grad, alpha, (index, sign), value)
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
