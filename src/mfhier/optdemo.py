"""Two-stage optimization hierarchy on an analytic expensive objective.

A request is a start point; the answer is a local minimizer.  Stage 2
descends on the true objective (every call counted, optionally delayed to
stand in for an expensive simulation) and its descent samples train a
scalar kernel-ridge surrogate.  Stage 1 descends on the surrogate; its
candidate is certified by the gradient norm of the TRUE objective at the
candidate, i.e. the acceptance criterion consults the expensive model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .hierarchy import ModelLevel, ModelOutput, ParameterBox
from .mlsurrogate import KernelRegressor

OPT_RIDGE = 1e-12  # interpolation sharpness the gradient check needs
OPT_MIN_SEPARATION = 1e-5
MAX_ITERS = 500    # descent iterations per start
H_FD = 1e-5        # finite-difference step of fd_gradient
GTOL = 1e-8        # descend stops at a gradient norm <= GTOL
ARMIJO_C = 1e-4    # a step must decrease J by ARMIJO_C * step * |grad|^2
MAX_HALVINGS = 30  # step halvings per line search


def himmelblau(x) -> float:
    """Smooth multimodal test objective with four global minima at J = 0."""
    a = x[0] ** 2 + x[1] - 11.0
    b = x[0] + x[1] ** 2 - 7.0
    return float(a * a + b * b)


class ObjectiveOracle:
    """Counted (and optionally delayed) access to the full objective."""

    def __init__(self, fn=himmelblau, *, delay_s: float):
        if not 0 <= delay_s < math.inf:  # also rejects NaN
            raise ConfigurationError("delay must be finite and nonnegative")
        self.fn = fn
        self.delay_s = delay_s
        self.eval_counter = 0

    def __call__(self, x) -> float:
        self.eval_counter += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return float(self.fn(x))


@dataclass
class OptAnswer:
    x: np.ndarray
    j: float
    descent_calls: int = 0      # objective calls charged to the descent


@dataclass
class DescentSamples:
    """Adaptation payload: (point, value) pairs along a true-objective descent."""

    samples: list = field(default_factory=list)


@dataclass
class DescentResult:
    x: np.ndarray
    j: float
    n_iters: int
    converged: bool
    samples: list = field(default_factory=list)  # iterate (x, J(x)) pairs


def fd_gradient(objective, x, box: ParameterBox) -> np.ndarray:
    """Finite-difference gradient with step :data:`H_FD`, 2 objective calls
    per dimension.

    Central differences in the interior; one-sided at a box face (still two
    calls per dimension so the charge is constant).
    """
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        lo, hi = box.lows[i], box.highs[i]
        if x[i] - H_FD >= lo and x[i] + H_FD <= hi:
            xp, xm = x.copy(), x.copy()
            xp[i] += H_FD
            xm[i] -= H_FD
            grad[i] = (objective(xp) - objective(xm)) / (2.0 * H_FD)
        elif x[i] + H_FD <= hi:
            xp = x.copy()
            xp[i] += H_FD
            grad[i] = (objective(xp) - objective(x)) / H_FD
        else:
            xm = x.copy()
            xm[i] -= H_FD
            grad[i] = (objective(x) - objective(xm)) / H_FD
    return grad


def descend(objective, x0, box: ParameterBox) -> DescentResult:
    """Projected gradient descent with backtracking line search.

    Gradients are central finite differences; steps are halved until the
    Armijo condition holds (at most :data:`MAX_HALVINGS` times) and
    iterates are clamped to the box.  Always returns the best iterate seen.
    The iterate (x, J(x)) pairs are recorded as reusable samples.
    """
    x = box.clip(np.asarray(x0, dtype=float))
    j = objective(x)
    samples = [(x.copy(), j)]
    best_x, best_j = x.copy(), j
    n_iters = 0
    converged = False
    for n_iters in range(MAX_ITERS + 1):
        grad = fd_gradient(objective, x, box)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GTOL:
            converged = True
            break
        if n_iters == MAX_ITERS:
            break
        step = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            trial = box.clip(x - step * grad)
            j_trial = objective(trial)
            if j_trial <= j - ARMIJO_C * step * grad_norm**2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        x, j = trial, j_trial
        samples.append((x.copy(), j))
        if j < best_j:
            best_x, best_j = x.copy(), j
    return DescentResult(x=best_x, j=best_j, n_iters=n_iters,
                         converged=converged, samples=samples)


class FullObjectiveLevel:
    """Reference stage: descend on the true objective; emit descent samples."""

    def __init__(self, oracle: ObjectiveOracle, box: ParameterBox):
        self.oracle = oracle
        self.box = box

    def evaluate(self, x0) -> ModelOutput:
        calls_before = self.oracle.eval_counter
        result = descend(self.oracle, x0, self.box)
        payload = OptAnswer(x=result.x, j=result.j,
                            descent_calls=self.oracle.eval_counter - calls_before)
        return ModelOutput(payload=payload,
                           adaptation=DescentSamples(result.samples))


class SurrogateObjectiveLevel(ModelLevel):
    """Cheap stage: descend on a learned objective, certify with true gradient.

    Training data are the iterate samples of true-objective descents;
    near-coincident points (closer than :data:`OPT_MIN_SEPARATION` in scaled
    coordinates) are skipped to keep the kernel system well conditioned.
    The error estimate is ||grad J(x*)|| computed on the true objective
    with 2*dim calls, plus one call to report the true J(x*).  The
    regressor has ridge :data:`OPT_RIDGE`; with fewer than
    :data:`mlsurrogate.N_MIN` training pairs it raises
    :class:`NotReadyError` at the descent's first point, so a declined
    attempt calls no oracle.
    """

    #: true-objective calls charged per attempt: 2*dim for the gradient
    #: certificate plus one for the reported value.
    CRITERION_CALLS = 5

    def __init__(self, oracle: ObjectiveOracle, box: ParameterBox):
        self.oracle = oracle
        self.box = box
        self.regressor = KernelRegressor(box, OPT_RIDGE)

    def evaluate(self, x0) -> ModelOutput:
        regressor = self.regressor

        def surrogate(x):
            return float(regressor.predict(x)[0])

        result = descend(surrogate, x0, self.box)
        j_true = self.oracle(result.x)
        return ModelOutput(payload=OptAnswer(x=result.x, j=j_true))

    def estimate_error(self, output):
        """Norm of the finite-difference gradient of the true objective.

        Accurate to the truncation of the differences (at most 2e-9 per
        component for central ones on [-5, 5]^2), which the estimate does
        not include: an FD-accurate certificate, not a rigorous bound.
        """
        grad = fd_gradient(self.oracle, output.payload.x, self.box)
        return float(np.linalg.norm(grad))

    def absorb(self, payload) -> bool:
        if not isinstance(payload, DescentSamples):
            return False
        regressor = self.regressor
        added = False
        for x, j in payload.samples:
            if (regressor.n_train and not regressor.has_input(x)
                    and float(np.min(np.linalg.norm(
                        regressor.inputs - self.box.scale01(x), axis=1)))
                    < OPT_MIN_SEPARATION):
                continue  # near-coincident with a different stored point
            regressor.add(x, [j])
            added = True
        return added
