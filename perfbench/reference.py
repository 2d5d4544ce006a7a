"""Reference instance and final values of one workload, built without mirrorboost.

    python3 perfbench/reference.py --workload NAME --seed N

Builds the workload's instance from the numpy random draws that mirrorboost's
synthetic generators document, with its own code for the decision stumps, the
negation closure and the regression response, and runs the classical update
rules written out here, not mirrorboost's runners. It then builds the same
instance with mirrorboost.datagen and exits 1 unless that matrix equals its
own, column for column, so a change to the data build that drops, repeats or
reorders columns fails the benchmark.

Prints one JSON object: the shape of the payoff or design matrix, its sha256
(information only), the final best primal value, the final dual value (null
for fs, which has none) and the problem's scale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from workloads import WORKLOADS


def column_digests(matrix: np.ndarray, sign: float = 1.0) -> list[bytes]:
    """A digest of each column of sign * matrix; + 0.0 turns -0.0 into 0.0, so
    equal columns have equal digests."""
    return [hashlib.blake2b((sign * matrix[:, j] + 0.0).tobytes(), digest_size=16).digest()
            for j in range(matrix.shape[1])]


def stump_outputs(features: np.ndarray) -> np.ndarray:
    """Outputs of every stump that thresholds one feature at a midpoint between
    two of its sorted distinct values, +1 above and -1 below then the reverse,
    feature by feature, followed by the two constants; a column equal to an
    earlier one is left out."""
    m = features.shape[0]
    splits = [np.unique(x) for x in features.T]
    outputs = np.empty((m, sum(2 * (len(v) - 1) for v in splits) + 2))
    start = 0
    for x, values in zip(features.T, splits):
        above = x[:, None] > (0.5 * (values[:-1] + values[1:]))[None, :]
        stop = start + 2 * above.shape[1]
        outputs[:, start:stop:2] = np.where(above, 1.0, -1.0)
        outputs[:, start + 1:stop:2] = -outputs[:, start:stop:2]
        start = stop
    outputs[:, start], outputs[:, start + 1] = 1.0, -1.0
    seen: set[bytes] = set()
    keep = [j for j, key in enumerate(column_digests(outputs))
            if not (key in seen or seen.add(key))]
    return outputs if len(keep) == outputs.shape[1] else outputs[:, keep]


def close_under_negation(a: np.ndarray) -> np.ndarray:
    """a, then the negation of each column of a whose negation is neither in a
    nor already appended."""
    seen = set(column_digests(a))
    extra = [j for j, key in enumerate(column_digests(a, -1.0))
             if not (key in seen or seen.add(key))]
    return np.hstack([a, -a[:, extra]]) if extra else a


def build(workload, seed: int) -> dict[str, np.ndarray]:
    """The instance's arrays: the negation-closed margin matrix for the
    classification and game kinds, the design and response for regression."""
    sizes = {k: int(v) for k, v in (token.split("=") for token in workload.sizes.split(":"))}
    rng = np.random.default_rng(seed)
    if workload.kind == "nonseparable":
        m, d = sizes["m"], sizes["d"]
        labels = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        features = rng.standard_normal((m, d))
        features[1] = features[0]  # one example twice, with opposite labels
        labels[1] = -labels[0]
        margins = stump_outputs(features)
        margins *= labels[:, None]
        return {"margins": close_under_negation(margins)}
    if workload.kind == "game":
        return {"margins": close_under_negation(rng.uniform(-1.0, 1.0, size=(sizes["m"], sizes["n"])))}
    if workload.kind == "regression":
        n, p = sizes["n"], sizes["p"]
        design = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:min(3, p)] = rng.choice((-1.0, 1.0), size=min(3, p))
        return {"design": design, "response": design @ beta + 0.5 * rng.standard_normal(n)}
    raise ValueError(f"no reference build for synthetic kind {workload.kind!r}")


def mirrorboost_mismatch(workload, seed: int, arrays: dict[str, np.ndarray]) -> str | None:
    """How mirrorboost's build of the instance differs from `arrays`, or None."""
    from mirrorboost import datagen
    from mirrorboost.cli import parse_data_spec

    _, kind, seed, sizes = parse_data_spec(workload.data_spec(seed))
    instance = datagen.generate_synthetic(kind, seed, **sizes)
    for name, want in arrays.items():
        got = getattr(instance, name)
        if got.shape != want.shape:
            return f"mirrorboost's {name} has shape {got.shape}, the reference's {want.shape}"
        if not np.array_equal(got, want):
            columns = np.flatnonzero(np.any(got != want, axis=0)) if got.ndim == 2 else [0]
            return (f"mirrorboost's {name} differs from the reference's "
                    f"(first at column {int(columns[0])})")
    return None


def multiplicative_weights(a: np.ndarray, step, iterations: int) -> tuple[float, float]:
    """Best-response play against multiplicative weights: AdaBoost on a margin
    matrix, and the entropy-prox game. Returns the best edge and the smallest
    margin of the step-weighted average of the chosen columns."""
    m, n = a.shape
    w = np.full(m, 1.0 / m)
    coefficients = np.zeros(n)
    step_total = 0.0
    best = math.inf
    for k in range(iterations):
        scores = a.T @ w
        j = int(np.argmax(scores))
        best = min(best, float(scores[j]))
        alpha = step(k)
        u = w * np.exp(-alpha * a[:, j])
        w = u / float(np.sum(u))
        coefficients[j] += alpha
        step_total += alpha
    return best, float(np.min(a @ (coefficients / step_total)))


def stagewise_linesearch(design: np.ndarray, response: np.ndarray,
                         iterations: int) -> tuple[float, None]:
    """Forward stagewise with the exact line search; returns the smallest
    largest absolute correlation seen. There is no dual value."""
    r = response.copy()
    best = math.inf
    for _ in range(iterations):
        corr = design.T @ r
        magnitudes = np.abs(corr)
        j = int(np.argmax(magnitudes))
        value = float(magnitudes[j])
        if value == 0.0:
            break
        best = min(best, value)
        g = float(np.sign(corr[j])) * design[:, j]
        r = r - max(0.0, value / float(g @ g)) * g
    return best, None


def reference(workload, arrays: dict[str, np.ndarray]) -> dict:
    """Final best primal and dual values, and the problem's scale: the largest
    payoff entry, or for fs the starting objective.

    The matrices are made row-major, as mirrorboost stores them, so that each
    matrix-vector product sums in mirrorboost's order. The gate needs that:
    on boost-long the edges tie to within rounding error, and a different
    last bit picks a different column and ends at a different best edge."""
    arrays = {name: np.ascontiguousarray(array) for name, array in arrays.items()}
    schedules = ("linesearch",) if workload.task == "fs" else ("constant", "dynamic")
    if workload.schedule not in schedules:
        raise ValueError(f"no reference loop for {workload.task} with {workload.schedule!r}")
    if workload.task == "fs":
        design, response = arrays["design"], arrays["response"]
        best, dual = stagewise_linesearch(design, response, workload.iterations)
        scale = float(np.max(np.abs(design.T @ response)))
        matrix = design
    else:
        a = matrix = arrays["margins"]
        lipschitz = scale = float(np.abs(a).max())
        diameter = math.log(a.shape[0])

        def step(k: int) -> float:
            if workload.schedule == "constant":
                return math.sqrt(2.0 * diameter / workload.iterations) / lipschitz
            return math.sqrt(2.0 * diameter / (k + 1.0)) / lipschitz

        best, dual = multiplicative_weights(a, step, workload.iterations)
    return {"shape": list(matrix.shape), "sha256": hashlib.sha256(matrix.tobytes()).hexdigest(),
            "best_primal": best, "dual": dual, "scale": scale}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    arrays = build(workload, args.seed)
    mismatch = mirrorboost_mismatch(workload, args.seed, arrays)
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 1
    print(json.dumps(reference(workload, arrays)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
