"""Learned coefficient stage: kernel ridge regression of reduced trajectories.

The cheapest stage regresses parameter -> reduced coefficient trajectory in
the SAME reduced space as the reduced-basis stage, trains exclusively on
reduced-basis solutions, and is certified by the shared residual estimator.
It follows the basis of its reduced-basis level: the coefficients live in
the reduced space, so when that level's reduced system is no longer the
one the targets are in, the next ``absorb`` re-expresses them in the new
basis (:func:`rebase`) before it takes anything else.  A prediction carries
the reduced system its targets are in, so the estimator and the lift read
the basis from the prediction itself.  A Gaussian kernel with a
constant lengthscale keeps the regressor deterministic and cheap to
update.  The stage's regressor sees each diffusivity on a log scale,
mapped onto [0, 1] across the box (:class:`LogScaledBox`): the reduced
coefficients vary with log mu, and a linear map of the box would squeeze
its lower decade into the first tenth of the unit interval.

:class:`KernelRegressor` is the only owner of the training pairs and has
one update rule, :meth:`KernelRegressor.add`: a new, distinct input is
bordered onto a current Cholesky factor (:meth:`KernelRegressor.append`);
any other change marks the factor stale, and the next ``predict``
refactors from scratch through :func:`fit`.

The learned stage declines a parameter where the kernel power function
P(mu) exceeds :data:`POWER_GATE`: there the prediction is an extrapolation
that the residual estimator would reject anyway.  The gate only ever
declines, so the estimator stays the only certificate.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, DomainError, NotReadyError
from .hierarchy import ModelLevel, ModelOutput, ParameterBox
from .rb import ReducedSystem, ReducedTrajectory, error_estimate, solve_rb

_trtrs = scipy.linalg.lapack.dtrtrs

#: Largest power function P(mu) at which the learned stage predicts.  On
#: log-scaled inputs at lengthscale 0.12, the largest P of an accepted
#: prediction is 0.046, 0.045 and 0.188 on the 2000-query Q=2 streams of
#: seeds 42, 1 and 2; on the 1000-query Q=8 streams of the same seeds the
#: smallest P of an attempt is 0.429, 0.539 and 0.380, and none is
#: accepted.  0.5 keeps every accepted answer and declines all but 0-5 of
#: the 989 Q=8 attempts before their prediction, lift to full space and
#: residual estimate.
POWER_GATE = 0.5

#: Gaussian kernel lengthscale in the units of the regressor box's
#: ``scale01`` (log-scaled for the learned coefficient stage), and the
#: training pairs a regressor needs before it predicts.
LENGTHSCALE = 0.12
N_MIN = 10
#: Ridge of the learned coefficient stage.
RIDGE = 1e-8
#: Storage precision of the learned coefficient stage's targets.  float32:
#: the prediction is a matvec over all (K+1)*N = 2222 outputs, and in
#: float64 it costs the stage its place below the reduced-basis stage
#: (stage means 0.108 against 0.067 ms, acceptance criterion 5).
TARGET_DTYPE = np.float32


class LogScaledBox(ParameterBox):
    """A positive parameter box whose :meth:`scale01` maps log mu onto
    [0, 1]^Q: (log mu - log lo) / (log hi - log lo) componentwise."""

    def __init__(self, box: ParameterBox):
        if np.any(box.lows <= 0):
            raise ConfigurationError("log-scaled inputs need a positive box")
        super().__init__(zip(box.lows, box.highs))
        self._log_lows = np.log(self.lows)
        self._log_span = np.log(self.highs) - self._log_lows

    def scale01(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        return (np.log(mu) - self._log_lows) / self._log_span


def _gaussian(a: np.ndarray, b: np.ndarray, lengthscale: float) -> np.ndarray:
    """Kernel of every row pair.  Squared differences are summed one
    component at a time, the round-off of a sequential sum at any dimension
    (a reduction over the last axis sums eight or more pairwise).  The sum
    starts at the first square (0 + d^2 is d^2 exactly) and runs in place;
    sq / (-2 l^2) is -sq / (2 l^2) exactly."""
    sq = np.subtract.outer(a[:, 0], b[:, 0])
    sq *= sq
    for k in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, k], b[:, k])
        diff *= diff
        sq += diff
    return np.exp(sq / (-2.0 * lengthscale**2))


def fit(inputs: np.ndarray, lengthscale: float, ridge: float) -> np.ndarray:
    """Lower Cholesky factor of (K_mat + ridge I), factored from scratch.

    Fortran order, so that the LAPACK triangular solves run without
    copying it; positive definite for ridge > 0.
    """
    gram = _gaussian(inputs, inputs, lengthscale)
    gram[np.diag_indices_from(gram)] += ridge
    return np.asfortranarray(np.linalg.cholesky(gram))


class KernelRegressor:
    """Gaussian-kernel ridge regression, vector-valued outputs.

    Owns the training pairs in growing buffers: raw inputs (for rebase and
    the training dump), their ``box.scale01`` images, the targets, the
    index that makes a duplicate input replace its target, and the lower
    Cholesky factor of (K_mat + ridge I).  Nothing is allocated before the
    first pair arrives.  The kernel lengthscale is :data:`LENGTHSCALE` and
    predictions need at least :data:`N_MIN` pairs, both read at the call;
    ``ridge`` and ``dtype`` are the stage's settings.  The targets are kept
    (m, capacity) C-order in ``dtype``, and the prediction multiplies them
    in it: float32 (:data:`TARGET_DTYPE`) halves the buffer a wide matvec
    streams, at ~1e-7 relative noise; an interpolant that is differenced
    (:data:`optdemo.OPT_TARGET_DTYPE`) needs float64.
    """

    def __init__(self, box: ParameterBox, ridge: float, dtype):
        if not ridge > 0:
            raise ConfigurationError("ridge must be positive")
        self.box = box
        self.ridge = float(ridge)
        self.dtype = dtype
        self._n = 0
        self._index: dict = {}
        self._raw = self._scaled = self._targets_t = None
        self._factor = None  # None: stale, refactored by the next predict

    @property
    def n_train(self) -> int:
        return self._n

    @property
    def raw_inputs(self) -> np.ndarray:
        return self._raw[:self._n] if self._n else np.zeros((0, self.box.dim))

    @property
    def inputs(self) -> np.ndarray:
        return self._scaled[:self._n] if self._n else np.zeros((0, self.box.dim))

    @property
    def targets(self) -> np.ndarray:
        """(n_train, m) float64 copy of the stored targets: the values
        added, rounded to ``dtype``."""
        if not self._n:
            return np.zeros((0, 0))
        return self._targets_t[:, :self._n].T.astype(float)

    def has_input(self, mu) -> bool:
        return tuple(np.asarray(mu, dtype=float)) in self._index

    def _set_targets(self, rows) -> None:
        """Replace every target (row i belongs to stored input i)."""
        self._targets_t = None
        if rows:
            self._targets_t = np.zeros((len(rows[0]), len(self._raw)),
                                       dtype=self.dtype)
            for i, row in enumerate(rows):
                self._targets_t[:, i] = row
        self._factor = None

    def _grow(self) -> None:
        capacity = 2 * len(self._raw) if self._raw is not None else 64
        raw = np.zeros((capacity, self.box.dim))
        scaled = np.zeros((capacity, self.box.dim))
        raw[:self._n], scaled[:self._n] = self.raw_inputs, self.inputs
        self._raw, self._scaled = raw, scaled
        if self._targets_t is not None:
            targets_t = np.zeros((self._targets_t.shape[0], capacity),
                                 dtype=self.dtype)
            targets_t[:, :self._n] = self._targets_t[:, :self._n]
            self._targets_t = targets_t

    def add(self, mu, y) -> None:
        """Store one training pair; the only way the pairs change.

        A duplicate input replaces its stored target.  A new, distinct
        input is bordered onto a current factor by :meth:`append`; without
        one, or if round-off fails the bordering (``LinAlgError``), the
        factor stays stale until the next :meth:`predict` refits it.
        """
        mu = self._check_mu(mu)
        y = np.asarray(y, dtype=float).ravel()
        if self._targets_t is not None and y.shape[0] != self._targets_t.shape[0]:
            raise ConfigurationError("output width changed; rebase first")
        key = tuple(mu)
        if key in self._index:
            self._targets_t[:, self._index[key]] = y
            self._factor = None
            return
        n = self._n
        if self._raw is None or n == len(self._raw):
            self._grow()
        if self._targets_t is None:
            self._targets_t = np.zeros((y.shape[0], len(self._raw)),
                                       dtype=self.dtype)
        self._index[key] = n
        self._raw[n] = mu
        self._scaled[n] = self.box.scale01(mu)
        self._targets_t[:, n] = y
        self._n = n + 1
        if self._factor is not None:
            try:
                self.append()
            except np.linalg.LinAlgError:
                self._factor = None  # round-off broke the incremental factor

    def append(self) -> None:
        """Border the current factor by the newest stored input, exactly.

        Valid because the kernel of the earlier inputs is unchanged; the
        new Cholesky row is the standard bordering update.
        """
        n = self._n - 1
        k_col = _gaussian(self._scaled[:n], self._scaled[n:n + 1],
                          LENGTHSCALE)[:, 0]
        l_row = self._triangular(k_col, 0)
        pivot_sq = 1.0 + self.ridge - float(l_row @ l_row)
        if pivot_sq <= 0:  # cannot happen for ridge > 0 barring round-off
            raise np.linalg.LinAlgError("kernel system lost positive definiteness")
        grown = np.zeros((n + 1, n + 1), order="F")
        grown[:n, :n] = self._factor
        grown[n, :n] = l_row
        grown[n, n] = np.sqrt(pivot_sq)
        self._factor = grown

    def _triangular(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        """L^{-1} rhs (trans=0) or L^{-T} rhs (trans=1), L the factor."""
        out, info = _trtrs(self._factor, rhs, lower=1, trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
        return out

    def _check_mu(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.box.dim,):
            raise DomainError(f"expected {self.box.dim} values, got {mu.shape}")
        return mu

    def _kernel_half(self, mu) -> np.ndarray:
        """L^{-1} k(mu), factoring the kernel system first if it is stale."""
        if self._n < N_MIN:
            raise NotReadyError(
                f"{self._n} training pairs, need at least {N_MIN}")
        if self._factor is None:
            self._factor = fit(self.inputs, LENGTHSCALE, self.ridge)
        x = self.box.scale01(self._check_mu(mu))[None]
        return self._triangular(_gaussian(self.inputs, x, LENGTHSCALE)[:, 0], 0)

    def power(self, mu) -> float:
        """Power function P(mu) = sqrt(1 - k^T (K_mat + ridge I)^{-1} k).

        Near 0 at a training input, near 1 where the kernel sees no data
        (k(mu, mu) = 1 for the Gaussian kernel).
        """
        return _power(self._kernel_half(mu))

    def predict(self, mu, max_power: float = math.inf) -> np.ndarray:
        """Flat output vector for one unscaled parameter point.

        k_row @ W == solve(K_mat + ridge I, k_row) @ Y by symmetry, so the
        dual weights W are never formed.  Raises :class:`NotReadyError`
        instead of predicting where the power function exceeds
        ``max_power``; P comes from the first triangular solve, which the
        prediction then reuses.
        """
        half = self._kernel_half(mu)
        if max_power < math.inf:
            power = _power(half)
            if power > max_power:
                # no array in the message: formatting one costs more than
                # the triangular solve
                raise NotReadyError(f"power function {power:.3g} exceeds "
                                    f"{max_power:g}")
        c = self._triangular(half, 1)
        flat = self._targets_t[:, :self._n] @ c.astype(self.dtype, copy=False)
        return flat.astype(float, copy=False)


def _power(half: np.ndarray) -> float:
    """P from L^{-1} k; clamped at 0 against round-off at a training input."""
    return math.sqrt(max(0.0, 1.0 - float(half @ half)))


def predict_trajectory(regressor: KernelRegressor,
                       reduced_system: ReducedSystem, mu) -> ReducedTrajectory:
    """Predict and unflatten coefficients a^0..a^K for one parameter, in
    ``reduced_system``, the system the regressor's targets are in.  Declines
    (:class:`NotReadyError`) where the power function exceeds
    :data:`POWER_GATE`."""
    # made first: it checks mu before the regressor sees it
    trajectory = ReducedTrajectory(coefficients=np.empty((0, 0)), mu=mu,
                                   reduced_system=reduced_system)
    trajectory.coefficients = regressor.predict(
        trajectory.mu, POWER_GATE).reshape(reduced_system.K + 1, -1)
    return trajectory


def rebase(regressor: KernelRegressor, reduced_system: ReducedSystem) -> None:
    """Re-express the stored targets in the basis of ``reduced_system`` by
    re-solving the (cheap) reduced model at every stored input."""
    regressor._set_targets(
        [solve_rb(reduced_system, mu).coefficients.ravel()
         for mu in regressor.raw_inputs])


def dump_training(regressor: KernelRegressor, path) -> None:
    """CSV dump: one row per pair, parameter components then the targets
    the regressor predicts with (:attr:`KernelRegressor.targets`)."""
    np.savetxt(path, np.column_stack([regressor.raw_inputs, regressor.targets]),
               delimiter=",", fmt="%.17g")


class MLCoefficientLevel(ModelLevel):
    """Learned reduced coefficients, certified by the reduced-basis bound.

    The cheapest stage of the parabolic hierarchy when it is in it: the
    harness adds it only with ``ml.enabled``.

    Follows the basis of ``rb_level``: ``reduced_system`` is the system the
    training targets are in, and every ``absorb`` first rebases them if
    ``rb_level`` has swapped in another since, then takes reduced-basis
    solutions as training pairs (the regressor learns only from the reduced
    model).  The error estimate is the residual bound of the prediction's
    own reduced system, the space it is predicted and lifted in; after a
    failed rebase that is the older system the targets are still in.  The
    stage declines (:class:`NotReadyError`) with fewer than :data:`N_MIN`
    pairs and where the power function exceeds :data:`POWER_GATE`.  The
    regressor, at ridge :data:`RIDGE` with :data:`TARGET_DTYPE` targets,
    reads the parameters of the positive ``box`` on a log scale
    (:class:`LogScaledBox`).
    """

    def __init__(self, box: ParameterBox, rb_level):
        self.rb_level = rb_level
        self.reduced_system = rb_level.reduced_system
        self.regressor = KernelRegressor(LogScaledBox(box), RIDGE,
                                         TARGET_DTYPE)

    def evaluate(self, mu) -> ModelOutput:
        trajectory = predict_trajectory(self.regressor, self.reduced_system,
                                        mu)
        return ModelOutput(payload=self.rb_level.lift(trajectory),
                           adaptation=trajectory)

    def estimate_error(self, output):
        return error_estimate(output.adaptation)

    def absorb(self, payload) -> bool:
        current = self.rb_level.reduced_system
        rebased = self.reduced_system is not current
        if rebased:
            # swapped in only once the targets are in it: a failed rebase
            # leaves them marked stale, and the next absorb tries again
            rebase(self.regressor, current)
            self.reduced_system = current
        if isinstance(payload, ReducedTrajectory):
            self.regressor.add(payload.mu, payload.coefficients)
            return True
        return rebased
