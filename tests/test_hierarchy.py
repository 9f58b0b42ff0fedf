import numpy as np
import pytest

from mfhier import (REFERENCE, ConfigurationError, DomainError, ModelHierarchy,
                    ModelLevel, ModelOutput, ParameterBox, StreamAborted,
                    harness)


class StubLevel(ModelLevel):
    """Scriptable level: fixed estimate, optional emission and absorption."""

    def __init__(self, name, estimate=0.5, reference=False, ready=True,
                 emits=None, accepts=(), forwards=()):
        self.name = name
        self.estimate = estimate
        self.reference = reference
        self.ready = ready
        self.emits = emits          # adaptation payload attached to outputs
        self.accepts = accepts      # payload values this level absorbs
        self.forwards = forwards    # payloads emitted again after absorbing
        self.absorbed = []
        self.n_evals = 0

    def evaluate(self, mu):
        self.n_evals += 1
        return ModelOutput(payload=(self.name, tuple(mu)), adaptation=self.emits)

    def estimate_error(self, output, mu, next_level=None):
        return REFERENCE if self.reference else self.estimate

    def absorb(self, payload):
        if payload in self.accepts:
            self.absorbed.append(payload)
            return list(self.forwards)
        return None

    def is_ready(self):
        return self.ready


@pytest.fixture
def unit_box():
    return ParameterBox([[0.0, 1.0]])


def test_single_reference_level(unit_box):
    hierarchy = ModelHierarchy([StubLevel("ref", reference=True)],
                               tolerance=1e-3, box=unit_box)
    answer, events = hierarchy.handle_request([0.5])
    assert answer.stage == 1
    assert answer.estimate is REFERENCE
    assert len(answer.attempts) == 1
    assert events == []


def test_zero_tolerance_forces_fallthrough_and_events(unit_box):
    # estimates strictly positive, TOL = 0: every query reaches the top and
    # fires the (3->2) and (2->1) adaptation events
    lvl1 = StubLevel("m1", estimate=0.1, accepts=("d2",))
    lvl2 = StubLevel("m2", estimate=0.1, emits="d2", accepts=("d3",))
    lvl3 = StubLevel("m3", reference=True, emits="d3")
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
    lvl3 = StubLevel("m3", reference=True)
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=1e-3, box=unit_box)
    answer, _ = hierarchy.handle_request([0.1])
    assert answer.stage == 2
    assert lvl3.n_evals == 0
    stages = [a.stage for a in answer.attempts]
    assert stages == [1, 2]
    assert answer.attempts[0].estimate > answer.tolerance
    assert answer.attempts[1].estimate <= answer.tolerance


def test_not_ready_levels_skipped_silently(unit_box):
    lvl1 = StubLevel("m1", ready=False)
    lvl2 = StubLevel("m2", estimate=1e-9)
    lvl3 = StubLevel("m3", reference=True)
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=1e-3, box=unit_box)
    answer, _ = hierarchy.handle_request([0.3])
    assert answer.stage == 2
    assert [a.stage for a in answer.attempts] == [2]
    assert lvl1.n_evals == 0


def test_cascading_emission_reaches_cheapest_level(unit_box):
    # level 2 absorbs level 3 data and notifies level 1 in turn
    lvl1 = StubLevel("m1", estimate=0.9, ready=False, accepts=("note",))
    lvl2 = StubLevel("m2", estimate=0.9, accepts=("d3",), forwards=("note",))
    lvl3 = StubLevel("m3", reference=True, emits="d3")
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=1e-3, box=unit_box)
    _, events = hierarchy.handle_request([0.4])
    assert events == [(3, 2), (2, 1)]
    assert lvl1.absorbed == ["note"]


def test_adaptation_disabled_suppresses_events(unit_box):
    lvl1 = StubLevel("m1", estimate=0.9, accepts=("d2",))
    lvl2 = StubLevel("m2", estimate=0.9, emits="d2", accepts=("d3",))
    lvl3 = StubLevel("m3", reference=True, emits="d3")
    hierarchy = ModelHierarchy([lvl1, lvl2, lvl3], tolerance=0.0, box=unit_box,
                               adaptation_enabled=False)
    _, events = hierarchy.handle_request([0.5])
    assert events == []
    assert lvl1.absorbed == [] and lvl2.absorbed == []


def test_domain_error_before_any_evaluation(unit_box):
    lvl = StubLevel("ref", reference=True)
    hierarchy = ModelHierarchy([lvl], tolerance=1e-3, box=unit_box)
    with pytest.raises(DomainError):
        hierarchy.handle_request([1.5])
    assert lvl.n_evals == 0


def test_reference_from_non_last_level_rejected(unit_box):
    bad = StubLevel("m1", reference=True)
    hierarchy = ModelHierarchy([bad, StubLevel("m2", reference=True)],
                               tolerance=1e-3, box=unit_box)
    with pytest.raises(ConfigurationError):
        hierarchy.handle_request([0.5])


def test_top_level_must_be_reference(unit_box):
    hierarchy = ModelHierarchy([StubLevel("m1", estimate=9.9)],
                               tolerance=1e-3, box=unit_box)
    with pytest.raises(ConfigurationError):
        hierarchy.handle_request([0.5])


def test_no_ready_level_is_configuration_error(unit_box):
    hierarchy = ModelHierarchy([StubLevel("m1", ready=False)],
                               tolerance=1e-3, box=unit_box)
    with pytest.raises(ConfigurationError):
        hierarchy.handle_request([0.5])


def test_empty_hierarchy_rejected(unit_box):
    with pytest.raises(ConfigurationError):
        ModelHierarchy([], tolerance=1e-3, box=unit_box)


def test_stream_empty_sequence(unit_box):
    hierarchy = ModelHierarchy([StubLevel("ref", reference=True)],
                               tolerance=1e-3, box=unit_box)
    assert hierarchy.run_query_stream([]) == []


def test_stream_aborts_with_partial_log(unit_box):
    hierarchy = ModelHierarchy([StubLevel("ref", reference=True)],
                               tolerance=1e-3, box=unit_box)
    with pytest.raises(StreamAborted) as excinfo:
        hierarchy.run_query_stream([[0.1], [0.2], [7.0], [0.3]])
    err = excinfo.value
    assert err.query_id == 2
    assert [r.query_id for r in err.records] == [0, 1]


def test_stream_records_are_sequential(unit_box):
    hierarchy = ModelHierarchy([StubLevel("ref", reference=True)],
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
    lvl3 = StubLevel("m3", reference=True)
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
        [StubLevel("m1", estimate=9.0), StubLevel("m3", reference=True)],
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
    with pytest.raises(ConfigurationError):
        ParameterBox([[1.0, 1.0]])
    box = ParameterBox([[0.0, 2.0], [-1.0, 1.0]])
    assert box.contains([1.0, 0.0])
    assert not box.contains([3.0, 0.0])
    assert not box.contains([1.0])
    np.testing.assert_allclose(box.scale01([1.0, 0.0]), [0.5, 0.5])
