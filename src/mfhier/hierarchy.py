"""Generic adaptive model hierarchy.

An ordered list of models of increasing cost and accuracy answers requests
from an outer loop.  Each request is evaluated by the cheapest ready model
first; a result is accepted once its error estimate meets the tolerance,
otherwise the request falls through to the next model.  Whenever a model is
evaluated, its evaluation data is offered to all cheaper models so they can
improve themselves, which over a stream of requests shifts the load towards
the cheap end of the hierarchy.  The last model acts as reference and is
accepted unconditionally.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, StreamAborted


class _Reference:
    """Sentinel estimate of the reference model (accepted unconditionally)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Reference"


#: Singleton returned by ``estimate_error`` of the top model.
REFERENCE = _Reference()


class ParameterBox:
    """Admissible input domain: a closed box in R^Q."""

    def __init__(self, bounds: Sequence[Sequence[float]]):
        bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        if not bounds:
            raise ConfigurationError("parameter box needs at least one dimension")
        for lo, hi in bounds:
            if not lo < hi:
                raise ConfigurationError(f"empty interval [{lo}, {hi}]")
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
        return np.array(rng.uniform_vector(self.lows, self.highs))


@dataclass
class ModelOutput:
    """Result of one model evaluation.

    ``payload`` is opaque to the hierarchy; ``adaptation`` is the data
    offered to cheaper models (None if the model emits nothing).  The
    hierarchy fills ``duration_s`` from its own monotonic clock.
    """

    payload: Any
    adaptation: Any = None
    duration_s: float = 0.0


@dataclass(frozen=True)
class Attempt:
    stage: int
    duration_s: float
    estimate: Any  # nonnegative float or REFERENCE
    criterion_s: float = 0.0


@dataclass
class CertifiedAnswer:
    payload: Any
    stage: int
    estimate: Any  # nonnegative float or REFERENCE
    tolerance: float
    attempts: list[Attempt]

    @property
    def is_reference(self) -> bool:
        return self.estimate is REFERENCE


@dataclass
class QueryRecord:
    query_id: int
    mu: np.ndarray
    answer: CertifiedAnswer
    adaptation_events: list[tuple[int, int]]
    wall_s: float = 0.0


class ModelLevel(abc.ABC):
    """Contract every hierarchy stage implements.

    ``evaluate`` may assume ``is_ready()`` returned True immediately
    before.  ``absorb`` returns None when the payload is ignored, or a
    (possibly empty) list of follow-on payloads to offer to the levels
    below this one; it must never invalidate answers already emitted.
    """

    name: str = "model"

    @abc.abstractmethod
    def evaluate(self, mu) -> ModelOutput: ...

    @abc.abstractmethod
    def estimate_error(self, output: ModelOutput, mu, next_level=None):
        """Nonnegative error estimate, or REFERENCE for the top model."""

    @abc.abstractmethod
    def absorb(self, payload):
        """Consume adaptation data; None means 'not applicable to me'."""

    @abc.abstractmethod
    def is_ready(self) -> bool: ...


class ModelHierarchy:
    """Tolerance-gated fallback over an ordered list of models.

    From the outside this behaves like a single model: ``handle_request``
    maps an admissible parameter to a :class:`CertifiedAnswer`.  All model
    selection and adaptation is internal.  Instances are stateful and must
    be driven from a single thread.
    """

    def __init__(self, levels: Sequence[ModelLevel], tolerance: float,
                 box: ParameterBox, adaptation_enabled: bool = True):
        if not levels:
            raise ConfigurationError("hierarchy needs at least one level")
        if tolerance < 0:
            raise ConfigurationError("tolerance must be >= 0")
        self.levels = list(levels)
        self.tolerance = float(tolerance)
        self.box = box
        self.adaptation_enabled = adaptation_enabled

    # ------------------------------------------------------------------

    def handle_request(self, mu) -> tuple[CertifiedAnswer, list[tuple[int, int]]]:
        """Answer one request; returns (answer, adaptation events fired)."""
        mu = self.box.validate(mu)
        if not any(level.is_ready() for level in self.levels):
            raise ConfigurationError("no level is ready; the reference level "
                                     "must always be ready")
        attempts: list[Attempt] = []
        events: list[tuple[int, int]] = []
        n = len(self.levels)
        for i, level in enumerate(self.levels):
            if not level.is_ready():
                continue  # skipped silently, not recorded as an attempt
            t0 = time.perf_counter()
            output = level.evaluate(mu)
            output.duration_s = time.perf_counter() - t0
            if self.adaptation_enabled and output.adaptation is not None:
                self._broadcast(i, output.adaptation, events)
            next_level = self.levels[i + 1] if i + 1 < n else None
            t0 = time.perf_counter()
            estimate = level.estimate_error(output, mu, next_level)
            criterion_s = time.perf_counter() - t0
            if estimate is REFERENCE and i + 1 < n:
                raise ConfigurationError(
                    f"level {i + 1} returned a Reference estimate but is not "
                    "the last level")
            attempts.append(Attempt(i + 1, output.duration_s, estimate, criterion_s))
            if estimate is REFERENCE or estimate <= self.tolerance:
                return (CertifiedAnswer(output.payload, i + 1, estimate,
                                        self.tolerance, attempts), events)
        raise ConfigurationError("top level did not return a Reference estimate")

    def _broadcast(self, source_index: int, payload, events) -> None:
        """Offer ``payload`` to every level below ``source_index``.

        A level that absorbs the payload may emit follow-on payloads,
        which cascade further down from that level.
        """
        for j in range(source_index - 1, -1, -1):
            emitted = self.levels[j].absorb(payload)
            if emitted is None:
                continue
            events.append((source_index + 1, j + 1))
            for follow_on in emitted:
                self._broadcast(j, follow_on, events)

    # ------------------------------------------------------------------

    def run_query_stream(self, mu_sequence, on_record=None) -> list[QueryRecord]:
        """Apply ``handle_request`` to each parameter in order.

        State mutations (adaptation) carry over between queries.  The first
        domain error aborts the stream, raising :class:`StreamAborted` with
        the partial log attached.
        """
        records: list[QueryRecord] = []
        for query_id, mu in enumerate(mu_sequence):
            t0 = time.perf_counter()
            try:
                answer, events = self.handle_request(mu)
            except DomainError as err:
                raise StreamAborted(f"query {query_id} rejected: {err}",
                                    records, query_id, err) from err
            record = QueryRecord(query_id, np.asarray(mu, dtype=float), answer,
                                 events, wall_s=time.perf_counter() - t0)
            records.append(record)
            if on_record is not None:
                on_record(record)
        return records
