"""Generic adaptive model hierarchy.

An ordered list of models of increasing cost and accuracy answers requests
from an outer loop.  Each request is evaluated by the cheapest model first;
a result is accepted once its error estimate meets the tolerance,
otherwise, or when the model declines or fails, the request falls through
to the next model.  Every evaluation, a declined one too, is recorded as an
attempt.  Whenever a model is evaluated, its evaluation data is offered to
every cheaper model, costliest first; each one takes it or not, and each
take is logged as a (source, target) adaptation event.  Over a stream of
requests this shifts the load towards the cheap end of the hierarchy.
The last model is the reference by its position alone: it is always
evaluated when a request reaches it, and its answer is accepted
unconditionally.
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import (ConfigurationError, DomainError, NotReadyError,
                     StreamAborted)

#: Failures of a surrogate level that send the query on to the next level,
#: recorded as an attempt with an infinite estimate: the level declines, or
#: a factorization or triangular solve inside it fails.  Raised by the last
#: level, they propagate; so does every other error (bad input or settings).
SURROGATE_FAILURES = (NotReadyError, np.linalg.LinAlgError)


class ParameterBox:
    """Admissible input domain: a closed box in R^Q."""

    def __init__(self, bounds: Sequence[Sequence[float]]):
        try:
            bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        except (TypeError, ValueError):
            raise ConfigurationError("parameter box must be a list of "
                                     "number pairs") from None
        if not bounds:
            raise ConfigurationError("parameter box needs at least one dimension")
        for lo, hi in bounds:
            if not -math.inf < lo < hi < math.inf:  # also false for NaN
                raise ConfigurationError(f"box interval [{lo}, {hi}] needs "
                                         "finite bounds with lo < hi")
        self.lows = np.array([b[0] for b in bounds])
        self.highs = np.array([b[1] for b in bounds])
        self._lows_list = self.lows.tolist()
        self._highs_list = self.highs.tolist()

    @property
    def dim(self) -> int:
        return len(self.lows)

    def contains(self, mu) -> bool:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.dim,):
            return False
        return all(lo <= v <= hi for v, lo, hi
                   in zip(mu.tolist(), self._lows_list, self._highs_list))

    def validate(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        if not self.contains(mu):
            raise DomainError(f"parameter {mu!r} outside admissible box")
        return mu

    def scale01(self, mu) -> np.ndarray:
        """Map a point of the box componentwise onto [0, 1]^Q."""
        mu = np.asarray(mu, dtype=float)
        return (mu - self.lows) / (self.highs - self.lows)

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lows, self.highs)

    def sample(self, rng) -> np.ndarray:
        return rng.uniform_array(self.lows, self.highs, (self.dim,))


@dataclass
class ModelOutput:
    """Result of one model evaluation.

    ``payload`` is the answer, opaque to the hierarchy and all that an
    answer keeps.  ``adaptation`` is the evaluation's data (None if none):
    the level's own ``estimate_error`` reads it, the hierarchy offers it to
    the cheaper levels, and it is dropped when the query ends.
    """

    payload: Any
    adaptation: Any = None


@dataclass(frozen=True)
class Attempt:
    stage: int
    duration_s: float
    estimate: float | None  # inf: the level failed; None: the reference


@dataclass
class CertifiedAnswer:
    payload: Any
    stage: int
    estimate: float | None  # None for the reference's answer
    attempts: list[Attempt]

    @property
    def is_reference(self) -> bool:
        return self.estimate is None


@dataclass
class QueryRecord:
    query_id: int
    mu: np.ndarray
    answer: CertifiedAnswer
    adaptation_events: list[tuple[int, int]]


class ModelLevel(abc.ABC):
    """Contract of a surrogate stage, i.e. of every level but the last.

    Three methods: ``evaluate``, ``estimate_error`` and ``absorb``.  The
    ``adaptation`` of ``evaluate``'s output is the evaluation's data:
    ``estimate_error`` reads it, the hierarchy offers it to the cheaper
    levels, and it is dropped when the query ends; the answer keeps only
    ``payload``.  A level declines a request in one way only: ``evaluate``
    or ``estimate_error`` raises one of :data:`SURROGATE_FAILURES`.  A level
    that cannot answer yet (an empty basis, too few training pairs) raises
    :class:`NotReadyError`.  The attempt is recorded with an infinite
    estimate, never accepted, and the request goes on to the next level.
    ``absorb`` returns True when taking the payload changed the level's
    state and False when the payload does not apply or changed nothing;
    only a True is logged as an adaptation event.  It must never
    invalidate answers already emitted.  It may fail with one of
    :data:`SURROGATE_FAILURES` only if it leaves the level consistent; the
    failure is logged as nothing taken.  Payloads are offered costliest
    level first, so a level sees the data a costlier level has absorbed
    before it.

    The last level of a hierarchy is the reference.  The hierarchy calls
    only its ``evaluate``, so it needs no other method and need not derive
    from this class; an error it raises propagates.
    """

    @abc.abstractmethod
    def evaluate(self, mu) -> ModelOutput: ...

    @abc.abstractmethod
    def estimate_error(self, output: ModelOutput) -> float:
        """Nonnegative bound on the error of ``output``; reads ``output``
        and never changes it."""

    @abc.abstractmethod
    def absorb(self, payload) -> bool:
        """Consume adaptation data; True only if it changed the level."""


class ModelHierarchy:
    """Tolerance-gated fallback over an ordered list of models.

    From the outside this behaves like a single model: ``handle_request``
    maps an admissible parameter to a :class:`CertifiedAnswer`.  All model
    selection and adaptation is internal.  ``levels[:-1]`` are
    :class:`ModelLevel` surrogates, ``levels[-1]`` is the reference.
    Instances are stateful and must be driven from a single thread.
    """

    def __init__(self, levels: Sequence, tolerance: float,
                 box: ParameterBox):
        if not levels:
            raise ConfigurationError("hierarchy needs at least one level")
        if not tolerance >= 0:
            raise ConfigurationError(f"tolerance must be >= 0, got {tolerance!r}")
        self.levels = list(levels)
        self.tolerance = float(tolerance)
        self.box = box

    # ------------------------------------------------------------------

    def handle_request(self, mu) -> tuple[CertifiedAnswer, list[tuple[int, int]]]:
        """Answer one request; returns (answer, adaptation events fired)."""
        mu = self.box.validate(mu)
        attempts: list[Attempt] = []
        events: list[tuple[int, int]] = []
        for i, level in enumerate(self.levels[:-1]):
            t0 = time.perf_counter()
            try:
                output = level.evaluate(mu)
            except SURROGATE_FAILURES:
                attempts.append(Attempt(i + 1, time.perf_counter() - t0, math.inf))
                continue
            duration_s = time.perf_counter() - t0
            self._adapt(i, output, events)
            try:
                estimate = level.estimate_error(output)
            except SURROGATE_FAILURES:
                estimate = math.inf
            attempts.append(Attempt(i + 1, duration_s, estimate))
            # a decline (inf) is not accepted, even at an infinite tolerance
            if estimate <= self.tolerance and estimate < math.inf:
                return (CertifiedAnswer(output.payload, i + 1, estimate,
                                        attempts), events)
        stage = len(self.levels)
        t0 = time.perf_counter()
        output = self.levels[-1].evaluate(mu)
        attempts.append(Attempt(stage, time.perf_counter() - t0, None))
        self._adapt(stage - 1, output, events)
        return (CertifiedAnswer(output.payload, stage, None, attempts), events)

    def _adapt(self, source_index: int, output: ModelOutput, events) -> None:
        """Offer ``output.adaptation`` to every cheaper level, costliest
        first, and log (source, target) stages for each level that took it.
        A level whose ``absorb`` fails with one of :data:`SURROGATE_FAILURES`
        took nothing: no event is logged and the query goes on."""
        if output.adaptation is None:
            return
        for j in range(source_index - 1, -1, -1):
            try:
                taken = self.levels[j].absorb(output.adaptation)
            except SURROGATE_FAILURES:
                continue
            if taken:
                events.append((source_index + 1, j + 1))

    # ------------------------------------------------------------------

    def run_query_stream(self, mu_sequence, on_record=None) -> list[QueryRecord]:
        """Apply ``handle_request`` to each parameter in order.

        State mutations (adaptation) carry over between queries.  The first
        domain error aborts the stream, raising :class:`StreamAborted` with
        the partial log attached.
        """
        records: list[QueryRecord] = []
        for query_id, mu in enumerate(mu_sequence):
            try:
                answer, events = self.handle_request(mu)
            except DomainError as err:
                raise StreamAborted(f"query {query_id} rejected: {err}",
                                    records) from err
            record = QueryRecord(query_id, np.asarray(mu, dtype=float), answer,
                                 events)
            records.append(record)
            if on_record is not None:
                on_record(record)
        return records
