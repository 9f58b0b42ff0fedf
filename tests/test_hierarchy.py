import math

import numpy as np
import pytest

from mfhier import (ConfigurationError, DomainError, ModelHierarchy,
                    ModelLevel, ModelOutput, NotReadyError, ParameterBox,
                    StreamAborted, harness)


class StubLevel(ModelLevel):
    """Scriptable surrogate: fixed estimate, optional emission and absorption."""

    def __init__(self, name, estimate=0.5, emits=None, accepts=(),
                 calls=None):
        self.name = name
        self.estimate = estimate
        self.emits = emits          # adaptation payload attached to outputs
        self.accepts = accepts      # payload values this level absorbs
        self.calls = calls          # shared log of absorb calls, by name
        self.absorbed = []
        self.n_evals = 0

    def evaluate(self, mu):
        self.n_evals += 1
        return ModelOutput(payload=(self.name, tuple(mu)), adaptation=self.emits)

    def estimate_error(self, output):
        return self.estimate

    def absorb(self, payload):
        if self.calls is not None:
            self.calls.append(self.name)
        if payload in self.accepts:
            self.absorbed.append(payload)
            return True
        return False


class ColdLevel(StubLevel):
    """Stub level that declines until it has absorbed a payload, the way
    the adaptive stages decline on an empty basis or training set."""

    def evaluate(self, mu):
        if not self.absorbed:
            raise NotReadyError("nothing absorbed yet")
        return super().evaluate(mu)


class Reference:
    """Bare last level: the hierarchy needs nothing of it but ``evaluate``."""

    def __init__(self, name="ref", emits=None, error=None):
        self.name = name
        self.emits = emits
        self.error = error
        self.n_evals = 0

    def evaluate(self, mu):
        self.n_evals += 1
        if self.error is not None:
            raise self.error
        return ModelOutput(payload=(self.name, tuple(mu)), adaptation=self.emits)


class FailingLevel(StubLevel):
    """Stub level whose ``evaluate``, ``estimate_error`` or ``absorb``
    raises ``error``."""

    def __init__(self, name, error, method="evaluate", **kw):
        super().__init__(name, **kw)
        self.error, self.method = error, method

    def evaluate(self, mu):
        output = super().evaluate(mu)
        if self.method == "evaluate":
            raise self.error
        return output

    def estimate_error(self, output):
        if self.method == "estimate_error":
            raise self.error
        return super().estimate_error(output)

    def absorb(self, payload):
        if self.method == "absorb":
            raise self.error
        return super().absorb(payload)


SURROGATE_ERRORS = [NotReadyError("declined"),
                    np.linalg.LinAlgError("singular")]


@pytest.fixture
def unit_box():
    return ParameterBox([[0.0, 1.0]])


def test_single_reference_level(unit_box):
    hierarchy = ModelHierarchy([Reference()], tolerance=1e-3, box=unit_box)
    answer, events = hierarchy.handle_request([0.5])
    assert answer.stage == 1
    assert answer.estimate is None and answer.is_reference
    assert len(answer.attempts) == 1
    assert events == []


def test_last_level_is_reference_by_position(unit_box):
    # the last level needs only ``evaluate``: it is never asked for an
    # estimate or to absorb the data it emits itself
    lvl1 = StubLevel("m1", estimate=0.9, accepts=("d2",))
    top = Reference("m2", emits="d2")
    hierarchy = ModelHierarchy([lvl1, top], tolerance=1e-3, box=unit_box)
    answer, events = hierarchy.handle_request([0.5])
    assert answer.stage == 2 and answer.payload == ("m2", (0.5,))
    assert answer.estimate is None and answer.is_reference
    assert [a.stage for a in answer.attempts] == [1, 2]
    reference_attempt = answer.attempts[-1]
    assert reference_attempt.estimate is None
    assert reference_attempt.duration_s >= 0.0
    assert top.n_evals == 1
    assert events == [(2, 1)] and lvl1.absorbed == ["d2"]


def test_zero_tolerance_forces_fallthrough_and_events(unit_box):
    # estimates strictly positive, TOL = 0: every query reaches the top and
    # fires the (3->2) and (2->1) adaptation events
    lvl1 = StubLevel("m1", estimate=0.1, accepts=("d2",))
    lvl2 = StubLevel("m2", estimate=0.1, emits="d2", accepts=("d3",))
    lvl3 = Reference("m3", emits="d3")
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=0.0, box=unit_box)
    for x in (0.2, 0.7):
        answer, events = hierarchy.handle_request([x])
        assert answer.stage == 3
        assert (3, 2) in events and (2, 1) in events
    assert lvl1.absorbed == ["d2", "d2"]
    assert lvl2.absorbed == ["d3", "d3"]


def test_first_accept_rule(unit_box):
    lvl1 = StubLevel("m1", estimate=0.9)
    lvl2 = StubLevel("m2", estimate=1e-4)
    lvl3 = Reference("m3")
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=1e-3, box=unit_box)
    answer, _ = hierarchy.handle_request([0.1])
    assert answer.stage == 2
    assert lvl3.n_evals == 0
    stages = [a.stage for a in answer.attempts]
    assert stages == [1, 2]
    assert answer.attempts[0].estimate > hierarchy.tolerance
    assert answer.attempts[1].estimate <= hierarchy.tolerance


def test_declining_level_is_one_attempt(unit_box):
    # a level that cannot answer yet is recorded as one attempt with an
    # infinite estimate, the next level answers, and the declining level is
    # offered that level's data like any other
    lvl1 = ColdLevel("m1", estimate=1e-9, accepts=("d2",))
    lvl2 = StubLevel("m2", estimate=1e-6, emits="d2")
    lvl3 = Reference("m3")
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=1e-3, box=unit_box)
    answer, events = hierarchy.handle_request([0.3])
    assert answer.stage == 2 and answer.payload[0] == "m2"
    assert [(a.stage, a.estimate) for a in answer.attempts] == [(1, math.inf),
                                                                (2, 1e-6)]
    assert answer.attempts[0].duration_s >= 0.0
    assert lvl1.n_evals == 0 and events == [(2, 1)]
    answer, _ = hierarchy.handle_request([0.3])
    assert answer.stage == 1
    assert [(a.stage, a.estimate) for a in answer.attempts] == [(1, 1e-9)]


def test_adaptation_offered_costliest_first(unit_box):
    # every cheaper level is offered the payload, costliest first; only the
    # levels whose absorb returns True are logged as events
    calls = []
    lvl1 = StubLevel("m1", accepts=("d4",), calls=calls)
    lvl2 = StubLevel("m2", calls=calls)
    lvl3 = StubLevel("m3", accepts=("d4",), calls=calls)
    top = Reference("m4", emits="d4")
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3, top], tolerance=1e-3,
                               box=unit_box)
    _, events = hierarchy.handle_request([0.4])
    assert calls == ["m3", "m2", "m1"]
    assert events == [(4, 3), (4, 1)]
    assert lvl1.absorbed == lvl3.absorbed == ["d4"] and lvl2.absorbed == []


@pytest.mark.parametrize("method", ["evaluate", "estimate_error"])
@pytest.mark.parametrize("error", SURROGATE_ERRORS, ids=lambda e: type(e).__name__)
def test_surrogate_failure_falls_through(unit_box, error, method):
    lvl1 = FailingLevel("m1", error, method, estimate=1e-9)
    lvl2 = StubLevel("m2", estimate=1e-6)
    lvl3 = Reference("m3")
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=1e-3, box=unit_box)
    records = hierarchy.run_query_stream([[0.1], [0.5], [0.9]])
    for record in records:
        answer = record.answer
        assert answer.stage == 2 and answer.payload[0] == "m2"
        assert [a.stage for a in answer.attempts] == [1, 2]
        failed = answer.attempts[0]
        assert failed.estimate == math.inf and failed.duration_s >= 0.0
    assert lvl3.n_evals == 0


@pytest.mark.parametrize("method", ["evaluate", "estimate_error"])
def test_decline_never_accepted_at_infinite_tolerance(unit_box, method):
    # TOL = inf accepts any bound, but a declined attempt bounds nothing
    lvl1 = FailingLevel("m1", NotReadyError("declined"), method)
    hierarchy = ModelHierarchy([lvl1, Reference("m2")], tolerance=math.inf,
                               box=unit_box)
    answer, _ = hierarchy.handle_request([0.5])
    assert answer.stage == 2 and answer.is_reference
    assert answer.attempts[0].estimate == math.inf


@pytest.mark.parametrize("error", SURROGATE_ERRORS, ids=lambda e: type(e).__name__)
def test_failed_absorb_takes_nothing(unit_box, error):
    # a level that fails to take the reference's data logs no event; the
    # answer stands and the cheaper level is still offered the data
    calls = []
    lvl1 = StubLevel("m1", estimate=0.9, accepts=("d3",), calls=calls)
    lvl2 = FailingLevel("m2", error, "absorb", estimate=0.9, calls=calls)
    hierarchy = ModelHierarchy([lvl1, lvl2, Reference("m3", emits="d3")],
                               tolerance=1e-3, box=unit_box)
    records = hierarchy.run_query_stream([[0.2], [0.7]])
    assert [r.answer.stage for r in records] == [3, 3]
    assert [r.adaptation_events for r in records] == [[(3, 1)], [(3, 1)]]
    assert calls == ["m1"] * 2 and lvl1.absorbed == ["d3"] * 2


# the reference has no estimate, so only its evaluate can fail
@pytest.mark.parametrize("method", ["evaluate"])
@pytest.mark.parametrize("error", SURROGATE_ERRORS, ids=lambda e: type(e).__name__)
def test_top_level_failure_propagates(unit_box, error, method):
    hierarchy = ModelHierarchy([StubLevel("m1", estimate=0.9),
                                Reference("m2", error=error)],
                               tolerance=1e-3, box=unit_box)
    with pytest.raises(type(error)):
        hierarchy.handle_request([0.5])


@pytest.mark.parametrize("error", [DomainError("bad"), ConfigurationError("bad")],
                         ids=lambda e: type(e).__name__)
def test_other_surrogate_errors_propagate(unit_box, error):
    lvl1 = FailingLevel("m1", error)
    hierarchy = ModelHierarchy([lvl1, Reference("m2")],
                               tolerance=1e-3, box=unit_box)
    with pytest.raises(type(error)):
        hierarchy.handle_request([0.5])


def test_domain_error_before_any_evaluation(unit_box):
    lvl = Reference()
    hierarchy = ModelHierarchy([lvl], tolerance=1e-3, box=unit_box)
    with pytest.raises(DomainError):
        hierarchy.handle_request([1.5])
    assert lvl.n_evals == 0


def test_empty_hierarchy_rejected(unit_box):
    with pytest.raises(ConfigurationError):
        ModelHierarchy([], tolerance=1e-3, box=unit_box)


@pytest.mark.parametrize("tolerance", [-1e-3, math.nan])
def test_invalid_tolerance_rejected(unit_box, tolerance):
    with pytest.raises(ConfigurationError):
        ModelHierarchy([Reference()], tolerance=tolerance, box=unit_box)


def test_stream_empty_sequence(unit_box):
    hierarchy = ModelHierarchy([Reference()],
                               tolerance=1e-3, box=unit_box)
    assert hierarchy.run_query_stream([]) == []


def test_stream_aborts_with_partial_log(unit_box):
    hierarchy = ModelHierarchy([Reference()],
                               tolerance=1e-3, box=unit_box)
    with pytest.raises(StreamAborted) as excinfo:
        hierarchy.run_query_stream([[0.1], [0.2], [7.0], [0.3]])
    err = excinfo.value
    # the rejected query is the one after the partial log, and its
    # DomainError is the cause the abort was raised from
    assert str(err).startswith("query 2 rejected")
    assert [r.query_id for r in err.records] == [0, 1]
    assert isinstance(err.__cause__, DomainError)


def test_stream_records_are_sequential(unit_box):
    hierarchy = ModelHierarchy([Reference()],
                               tolerance=1e-3, box=unit_box)
    records = hierarchy.run_query_stream([[0.1], [0.5], [0.9]])
    assert [r.query_id for r in records] == [0, 1, 2]


def summarize_records(records, n_stages):
    rows = [harness.result_row(record, 0.0, 0, 0, n_stages) for record in records]
    return harness.summarize(rows, n_stages)


def test_summarize_empty():
    s = summarize_records([], 3)
    assert s.n_queries == 0
    assert s.accepted == {1: 0, 2: 0, 3: 0} and s.adaptation_total == 0
    assert s.eval_mean_s == {1: None, 2: None, 3: None}
    assert s.accepted_halves == ({1: 0, 2: 0, 3: 0}, {1: 0, 2: 0, 3: 0})
    assert s.qoi_mean == 0.0 and s.estimate_mean == 0.0


def test_summarize_counts_and_halves(unit_box):
    lvl1 = StubLevel("m1", estimate=0.9, accepts=("d2",))
    lvl2 = StubLevel("m2", estimate=1e-6, emits="d2")
    lvl3 = Reference("m3")
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=1e-3, box=unit_box)
    records = hierarchy.run_query_stream([[x] for x in (0.1, 0.2, 0.3, 0.4)])
    s = summarize_records(records, 3)
    assert s.accepted == {1: 0, 2: 4, 3: 0}
    assert s.evaluations == {1: 4, 2: 4, 3: 0}
    assert s.adaptation == {(2, 1): 4}
    first, second = s.accepted_halves
    assert first == second == {1: 0, 2: 2, 3: 0}
    assert s.estimate_mean == pytest.approx(1e-6)


def test_summarize_all_top_stage(unit_box):
    hierarchy = ModelHierarchy(
        [StubLevel("m1", estimate=9.0), Reference("m3")],
        tolerance=1e-3, box=unit_box)
    records = hierarchy.run_query_stream([[0.5]] * 6)
    s = summarize_records(records, 2)
    assert s.accepted == {1: 0, 2: 6}
    assert s.fractions == {1: 0.0, 2: 1.0}
    assert s.evaluations == {1: 6, 2: 6}
    assert s.estimate_mean == 0.0  # reference answers count as 0


def test_parameter_box_validation():
    with pytest.raises(ConfigurationError):
        ParameterBox([])
    for bad in ([[1.0, 1.0]], [[0.0, math.inf]], [[math.nan, 1.0]],
                [[0.0, 1.0, 2.0]], [[None, 1.0]], [0.0, 1.0]):
        with pytest.raises(ConfigurationError):
            ParameterBox(bad)
    box = ParameterBox([[0.0, 2.0], [-1.0, 1.0]])
    assert box.contains([1.0, 0.0])
    assert not box.contains([3.0, 0.0])
    assert not box.contains([1.0])
    np.testing.assert_allclose(box.scale01([1.0, 0.0]), [0.5, 0.5])
