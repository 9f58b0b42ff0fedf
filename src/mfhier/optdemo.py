"""Two-stage optimization hierarchy on an analytic expensive objective.

A request is a start point; the answer is a local minimizer.  Stage 2
descends on the true objective (every call counted, optionally delayed to
stand in for an expensive simulation) and its descent samples train a
scalar kernel-ridge surrogate.  Stage 1 descends on the surrogate; its
candidate is certified by the gradient norm of the TRUE objective at the
candidate, i.e. the acceptance criterion consults the expensive model.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .hierarchy import ModelLevel, ModelOutput, ParameterBox
from .mlsurrogate import KernelRegressor

OPT_RIDGE = 1e-12  # interpolation sharpness the gradient check needs
# J stored exactly: the interpolant reproduces a float32 rounding of J, and
# the surrogate's differences would divide it by 2 * H_FD
OPT_TARGET_DTYPE = np.float64
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
        # time.sleep overflows above TIMEOUT_MAX; the test also rejects NaN
        if not 0 <= delay_s <= threading.TIMEOUT_MAX:
            raise ConfigurationError("delay must be >= 0 and at most "
                                     f"threading.TIMEOUT_MAX, got {delay_s!r}")
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


def fd_gradient(objective, x, box: ParameterBox) -> np.ndarray:
    """Finite-difference gradient with step :data:`H_FD`, 2 objective calls
    per dimension.

    One stencil for every component i: it steps up to x + h e_i if that
    point is in the box, and down to x - h e_i if that point is in the box
    or the up-step is not, and divides J(x+) - J(x-) by the number of steps
    times h.  So the difference is central in the interior and one-sided
    within h of a face; in a box narrower than 2h it steps down only, below
    the box.  J(x+) is evaluated before J(x-).
    """
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        up = x[i] + H_FD <= box.highs[i]
        down = x[i] - H_FD >= box.lows[i] or not up
        xp, xm = x.copy(), x.copy()
        if up:
            xp[i] += H_FD
        if down:
            xm[i] -= H_FD
        grad[i] = (objective(xp) - objective(xm)) / ((int(up) + int(down)) * H_FD)
    return grad


def descend(objective, x0, box: ParameterBox) -> list:
    """Projected gradient descent with backtracking line search.

    Gradients come from :func:`fd_gradient`; steps are halved until the
    Armijo condition holds (at most :data:`MAX_HALVINGS` times) and
    iterates are clamped to the box.  The descent stops at a gradient norm
    of at most :data:`GTOL`, after :data:`MAX_ITERS` steps or at a failed
    line search.  Returns the iterates as (x, J(x)) pairs, start first; the
    Armijo condition never accepts a step that raises J, so the last pair
    is the answer.
    """
    x = box.clip(np.asarray(x0, dtype=float))
    iterates = [(x, objective(x))]
    for n_iters in range(MAX_ITERS + 1):
        x, j = iterates[-1]
        grad = fd_gradient(objective, x, box)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GTOL or n_iters == MAX_ITERS:
            break
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = box.clip(x - step * grad)
            j_trial = objective(trial)
            if j_trial <= j - ARMIJO_C * step * grad_norm**2:
                break
            step *= 0.5
        else:
            break
        iterates.append((trial, j_trial))
    return iterates


class FullObjectiveLevel:
    """Reference stage: descend on the true objective.

    The answer is the descent's last iterate with its true J and the oracle
    calls the descent made; every iterate (x, J(x)) pair is emitted as
    :class:`DescentSamples` for the surrogate to absorb.
    """

    def __init__(self, oracle: ObjectiveOracle, box: ParameterBox):
        self.oracle = oracle
        self.box = box

    def evaluate(self, x0) -> ModelOutput:
        calls_before = self.oracle.eval_counter
        iterates = descend(self.oracle, x0, self.box)
        x, j = iterates[-1]
        payload = OptAnswer(x=x, j=j,
                            descent_calls=self.oracle.eval_counter - calls_before)
        return ModelOutput(payload=payload, adaptation=DescentSamples(iterates))


class SurrogateObjectiveLevel(ModelLevel):
    """Cheap stage: descend on a learned objective, certify with true gradient.

    Training data are the iterate samples of true-objective descents;
    near-coincident points (closer than :data:`OPT_MIN_SEPARATION` in scaled
    coordinates) are skipped to keep the kernel system well conditioned.
    The error estimate is ||grad J(x*)|| computed on the true objective
    with 2*dim calls, plus one call to report the true J(x*).  The
    regressor has ridge :data:`OPT_RIDGE` and keeps J in
    :data:`OPT_TARGET_DTYPE`; with fewer than
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
        self.regressor = KernelRegressor(box, OPT_RIDGE, OPT_TARGET_DTYPE)

    def evaluate(self, x0) -> ModelOutput:
        regressor = self.regressor

        def surrogate(x):
            return float(regressor.predict(x)[0])

        x, _ = descend(surrogate, x0, self.box)[-1]
        return ModelOutput(payload=OptAnswer(x=x, j=self.oracle(x)))

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
