"""Step-size rules. A trace header names its run's algorithm and schedule
kind and holds every constant of its steps (L, D, the horizon, f*, eps), so
`StepSchedule.of(header)` is the run's step rule: `run` steps by it, and the
checker recomputes each recorded step with it. Neither numpy nor another
module of the package is imported here."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# the edge-linesearch step caps the edge at 1 - EDGE_CAP, so a near-perfect
# edge still gives a finite step
EDGE_CAP = 1e-12


class RunSchedule(NamedTuple):
    step: str  # the StepSchedule kind of the steps
    tied: bool  # whether the kind is tied to the run's horizon


# the schedule kinds a run of each algorithm writes, in the command line's order
RUN_SCHEDULES = {
    "adaboost": {"constant": RunSchedule("constant", True),
                 "dynamic": RunSchedule("dynamic", False),
                 "linesearch": RunSchedule("edge-linesearch", False)},
    "mirror-descent": {"constant": RunSchedule("constant", True),
                       "dynamic": RunSchedule("dynamic", False),
                       "polyak": RunSchedule("polyak", False)},
    "stagewise": {"constant": RunSchedule("fixed", False),
                  "optimal": RunSchedule("fixed", True),
                  "linesearch": RunSchedule("polyak", False)},
}


class UndefinedStepError(RuntimeError):
    """A schedule cannot produce a valid step at the current iterate."""


def _check_square(alpha: float, lipschitz: float, num_steps: int = 1) -> None:
    """Reject a step whose squares overflow when summed over `num_steps`
    rounds: the certificates sum alpha^2. Such a step comes from a
    near-subnormal Lipschitz constant. The factor 2 leaves room for the
    rounding of the running sum."""
    if not math.isfinite(2.0 * num_steps * alpha * alpha):
        raise ValueError(f"the step size {alpha!r} from lipschitz constant {lipschitz!r} "
                         f"has no finite square sum over {num_steps} step(s)")


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule; emitted steps are always nonnegative.

    Kinds: "constant" (tuned to a fixed number of planned steps), "dynamic"
    (horizon-free decay), "polyak" (requires the optimal value), "fixed"
    (a plain constant value), and "edge-linesearch" (the classical boosting
    line-search step computed from the current edge).
    """

    kind: str
    alpha: float | None = None
    lipschitz: float | None = None
    diameter: float | None = None
    f_star: float | None = None

    @classmethod
    def of(cls, header) -> "StepSchedule":
        """The step rule of a run with this trace header, made from the
        header's constants; a fixed step's square summed over the header's
        iterations must be finite. Raises ValueError for a pair outside
        RUN_SCHEDULES and for constants the rule refuses."""
        run = RUN_SCHEDULES.get(header.algorithm, {}).get(header.schedule_kind)
        if run is None:
            raise ValueError(f"no step rule for algorithm {header.algorithm!r} and "
                             f"schedule_kind {header.schedule_kind!r}")
        if run.step == "constant":
            return cls.constant(header.lipschitz, header.diameter, header.horizon)
        if run.step == "dynamic":
            return cls.dynamic(header.lipschitz, header.diameter)
        if run.step == "polyak":
            return cls.polyak(header.f_star)
        if run.step == "edge-linesearch":
            return cls.edge_linesearch()
        schedule = cls.fixed(header.eps)
        _check_square(schedule.alpha, header.lipschitz, header.iterations)
        return schedule

    @classmethod
    def constant(cls, lipschitz: float, diameter: float, num_steps: int) -> "StepSchedule":
        """Constant step tuned for a planned run of `num_steps` iterations."""
        if lipschitz <= 0.0 or diameter <= 0.0 or num_steps < 1:
            raise ValueError("constant schedule needs lipschitz > 0, diameter > 0, num_steps >= 1")
        alpha = math.sqrt(2.0 * diameter / num_steps) / lipschitz
        _check_square(alpha, lipschitz, num_steps)  # the sum 2D / L^2 the certificates reach
        return cls(kind="constant", alpha=alpha, lipschitz=float(lipschitz),
                   diameter=float(diameter))

    @classmethod
    def dynamic(cls, lipschitz: float, diameter: float) -> "StepSchedule":
        if lipschitz <= 0.0 or diameter <= 0.0:
            raise ValueError("dynamic schedule needs lipschitz > 0 and diameter > 0")
        # only the first, largest step: the horizon is not known here, so the
        # square sum of a long run can still overflow
        _check_square(math.sqrt(2.0 * diameter) / lipschitz, lipschitz)
        return cls(kind="dynamic", lipschitz=float(lipschitz), diameter=float(diameter))

    @classmethod
    def polyak(cls, f_star: float | None) -> "StepSchedule":
        if f_star is None:
            raise ValueError("the polyak schedule requires the optimal value f_star")
        if not math.isfinite(f_star):
            raise ValueError(f"the polyak schedule needs a finite f_star, got {f_star!r}")
        return cls(kind="polyak", f_star=float(f_star))

    @classmethod
    def fixed(cls, alpha: float | None) -> "StepSchedule":
        if alpha is None:
            raise ValueError("the fixed schedule requires a step size")
        if alpha < 0.0:
            raise ValueError("fixed step size must be nonnegative")
        if not math.isfinite(alpha):
            raise ValueError(f"fixed step size must be finite, got {alpha!r}")
        return cls(kind="fixed", alpha=float(alpha))

    @classmethod
    def edge_linesearch(cls) -> "StepSchedule":
        return cls(kind="edge-linesearch")

    def step_size(self, k: int, value: float | None = None, grad=None) -> float:
        if self.kind in ("constant", "fixed"):
            return self.alpha
        if self.kind == "dynamic":
            return math.sqrt(2.0 * self.diameter / (k + 1.0)) / self.lipschitz
        if self.kind == "polyak":
            if value is None or grad is None:
                raise ValueError("polyak step needs the objective value and subgradient")
            gsq = float(grad @ grad)  # grad is a float vector: the engine's subgradient
            if gsq == 0.0:
                return 0.0
            return max(0.0, (float(value) - self.f_star) / gsq)
        if self.kind == "edge-linesearch":
            if value is None:
                raise ValueError("edge line-search needs the current edge value")
            r = float(value)
            if r >= 1.0:
                raise UndefinedStepError("edge reached 1 (a single column is perfect); "
                                         "line-search step undefined")
            if r < 0.0:
                raise UndefinedStepError("edge is negative; line-search step undefined "
                                         "without negation closure")
            r = min(r, 1.0 - EDGE_CAP)
            return 0.5 * math.log((1.0 + r) / (1.0 - r))
        raise ValueError(f"unknown schedule kind: {self.kind!r}")
