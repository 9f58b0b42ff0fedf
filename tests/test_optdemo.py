import math

import numpy as np
import pytest

import mfhier
from mfhier import (ConfigurationError, ModelHierarchy, NotReadyError,
                    ObjectiveOracle, ParameterBox, SplitMix64, descend,
                    fd_gradient, harness, himmelblau, mlsurrogate, optdemo)
from mfhier.optdemo import (DescentSamples, FullObjectiveLevel,
                            SurrogateObjectiveLevel)


@pytest.fixture
def opt_box():
    return ParameterBox([[-5.0, 5.0], [-5.0, 5.0]])


HIMMELBLAU_MINIMA = np.array([
    [3.0, 2.0],
    [-2.805118086952745, 3.131312518250573],
    [-3.779310253377747, -3.283185991286170],
    [3.584428340330492, -1.848126526964404],
])


# ---------------------------------------------------------------- descent


def test_descend_quadratic_converges(opt_box):
    target = np.array([1.0, -2.0])

    def quadratic(x):
        return float(np.sum((x - target) ** 2))

    x, _ = descend(quadratic, [4.0, 4.0], opt_box)[-1]
    assert np.linalg.norm(x - target) <= 1e-6
    # it stopped on the gradient test, not on the iteration cap
    assert np.linalg.norm(fd_gradient(quadratic, x, opt_box)) <= optdemo.GTOL


def test_descend_stationary_start_returns_immediately(opt_box):
    target = np.array([0.5, 0.5])

    def quadratic(x):
        return float(np.sum((x - target) ** 2))

    iterates = descend(quadratic, target, opt_box)
    assert len(iterates) == 1
    np.testing.assert_array_equal(iterates[0][0], target)
    assert iterates[0][1] == 0.0


def test_descend_himmelblau_reaches_minimum(opt_box):
    oracle = ObjectiveOracle(delay_s=0.0)
    x, j = descend(oracle, [3.5, 2.0], opt_box)[-1]
    grad = fd_gradient(oracle, x, opt_box)
    assert np.linalg.norm(grad) <= 1e-6
    distances = np.linalg.norm(HIMMELBLAU_MINIMA - x, axis=1)
    assert distances.min() <= 1e-4
    assert j <= 1e-10


def test_descend_iterates_stay_in_box():
    box = ParameterBox([[-1.0, 1.0], [-1.0, 1.0]])

    def pull_outside(x):
        return float((x[0] - 10.0) ** 2 + x[1] ** 2)

    iterates = descend(pull_outside, [0.0, 0.5], box)
    for x, _ in iterates:
        assert box.contains(x)
    assert iterates[-1][0][0] == pytest.approx(1.0, abs=1e-9)


def test_descent_values_never_rise_and_levels_answer_the_last_pair(opt_box):
    # the Armijo rule accepts no step that raises J, so the last iterate is
    # a best one: from seeded starts, a face and two corners, on the true
    # objective and on a trained surrogate
    rng = SplitMix64(11)
    starts = [opt_box.sample(rng) for _ in range(6)]
    starts += [np.array([5.0, 1.0]), np.array([-5.0, -5.0]),
               np.array([5.0, 5.0])]
    oracle = ObjectiveOracle(delay_s=0.0)
    full = FullObjectiveLevel(oracle, opt_box)
    surrogate = SurrogateObjectiveLevel(oracle, opt_box)

    def assert_never_rise(iterates, start):
        np.testing.assert_array_equal(iterates[0][0], start)
        values = [j for _, j in iterates]
        assert all(later <= earlier
                   for earlier, later in zip(values, values[1:]))

    for start in starts:
        output = full.evaluate(start)
        iterates = output.adaptation.samples
        assert_never_rise(iterates, start)
        assert [j for _, j in iterates] == [himmelblau(x) for x, _ in iterates]
        x, j = iterates[-1]
        np.testing.assert_array_equal(output.payload.x, x)
        assert output.payload.j == j
        surrogate.absorb(output.adaptation)
    assert surrogate.regressor.n_train >= mlsurrogate.N_MIN

    def learned(x):
        return float(surrogate.regressor.predict(x)[0])

    for start in starts:
        iterates = descend(learned, start, opt_box)
        assert_never_rise(iterates, start)
        output = surrogate.evaluate(start)
        np.testing.assert_array_equal(output.payload.x, iterates[-1][0])
        assert output.payload.j == himmelblau(output.payload.x)


# ---------------------------------------------------------------- gradient


def test_fd_gradient_linear_function(opt_box):
    a = np.array([2.0, -3.0])
    grad = fd_gradient(lambda x: float(a @ x), [0.5, 0.5], opt_box)
    np.testing.assert_allclose(grad, a, atol=1e-9)


def test_fd_gradient_at_quadratic_minimum(opt_box):
    grad = fd_gradient(lambda x: float(np.sum(np.square(x))), [0.0, 0.0], opt_box)
    assert np.linalg.norm(grad) <= 1e-9


def test_fd_gradient_at_himmelblau_minimum(opt_box):
    grad = fd_gradient(himmelblau, [3.0, 2.0], opt_box)
    assert np.linalg.norm(grad) <= 1e-6


H = optdemo.H_FD


# J = 3 x0^2 + x1^2/2, whose differences are exact up to round-off: central
# 6 x0, forward 3 (2 x0 + h), backward 3 (2 x0 - h); those two differ by
# 6h = 6e-5, so each case tells which stencil ran.  The last box is
# narrower than 2h: neither step fits, and the difference steps down,
# below the box.
@pytest.mark.parametrize("box, x, expected, below_box", [
    ([[-5.0, 5.0], [-5.0, 5.0]], [1.0, -2.0], [6.0, -2.0], False),
    ([[-5.0, 5.0], [-5.0, 5.0]], [-5.0, 1.0], [3 * (-10.0 + H), 1.0], False),
    ([[-5.0, 5.0], [-5.0, 5.0]], [5.0, 1.0], [3 * (10.0 - H), 1.0], False),
    ([[0.0, 1.5 * H], [-5.0, 5.0]], [0.75 * H, 1.0], [3 * (1.5 * H - H), 1.0],
     True),
], ids=["interior", "lower-face", "upper-face", "narrower-than-2h"])
def test_fd_gradient_one_sided_at_boundary(box, x, expected, below_box):
    points = []

    def quadratic(y):
        points.append(y.copy())
        return float(3.0 * y[0] ** 2 + 0.5 * y[1] ** 2)

    box = ParameterBox(box)
    oracle = ObjectiveOracle(fn=quadratic, delay_s=0.0)
    grad = fd_gradient(oracle, x, box)
    np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-8)
    assert oracle.eval_counter == 4  # constant charge: 2 per dimension
    assert sum(not box.contains(p) for p in points) == int(below_box)


# ---------------------------------------------------------------- oracle


def test_oracle_counts_every_call():
    oracle = ObjectiveOracle(delay_s=0.0)
    oracle([1.0, 1.0])
    oracle([2.0, 2.0])
    assert oracle.eval_counter == 2


# 1e10 s is above threading.TIMEOUT_MAX, where time.sleep overflows
@pytest.mark.parametrize("delay_s", [-0.001, float("nan"), float("inf"), 1e10])
def test_oracle_rejects_invalid_delay(delay_s, monkeypatch):
    def no_sleep(seconds):
        raise AssertionError(f"slept {seconds} s")

    monkeypatch.setattr(optdemo.time, "sleep", no_sleep)
    with pytest.raises(ConfigurationError):
        oracle = ObjectiveOracle(delay_s=delay_s)
        oracle([1.0, 1.0])


# ---------------------------------------------------------------- levels


def build_hierarchy(opt_box, tol=1e-3):
    oracle = ObjectiveOracle(delay_s=0.0)
    full = FullObjectiveLevel(oracle, opt_box)
    surrogate = SurrogateObjectiveLevel(oracle, opt_box)
    hierarchy = ModelHierarchy([surrogate, full], tolerance=tol, box=opt_box)
    return hierarchy, oracle, surrogate, full


def test_first_request_goes_to_full_and_trains_surrogate(opt_box):
    hierarchy, oracle, surrogate, _ = build_hierarchy(opt_box)
    with pytest.raises(NotReadyError):
        surrogate.evaluate([3.5, 2.0])
    assert oracle.eval_counter == 0  # declined before any oracle call
    answer, events = hierarchy.handle_request([3.5, 2.0])
    assert answer.stage == 2
    assert answer.estimate is None and answer.is_reference
    assert [(a.stage, a.estimate) for a in answer.attempts] == [(1, math.inf),
                                                                (2, None)]
    assert oracle.eval_counter == answer.payload.descent_calls
    assert surrogate.regressor.n_train >= 1
    assert (2, 1) in events


def test_infinite_tolerance_accepts_any_ready_candidate(opt_box):
    hierarchy, oracle, surrogate, _ = build_hierarchy(opt_box,
                                                      tol=float("inf"))
    first, _ = hierarchy.handle_request([3.5, 2.0])   # trains the surrogate
    assert first.stage == 2  # a decline is never accepted, whatever the TOL
    assert surrogate.regressor.n_train >= mlsurrogate.N_MIN
    answer, _ = hierarchy.handle_request([-2.0, 3.0])
    assert answer.stage == 1
    assert answer.estimate <= float("inf")


def test_surrogate_certifies_on_its_own_oracle(opt_box):
    # the certificate is charged to the surrogate's oracle, whatever the
    # last level descends on
    own, other = ObjectiveOracle(delay_s=0.0), ObjectiveOracle(delay_s=0.0)
    surrogate = SurrogateObjectiveLevel(own, opt_box)
    surrogate.absorb(DescentSamples(descend(other, [3.5, 2.0], opt_box)))
    hierarchy = ModelHierarchy([surrogate, FullObjectiveLevel(other, opt_box)],
                               tolerance=float("inf"), box=opt_box)
    other_before = other.eval_counter
    answer, _ = hierarchy.handle_request([-2.0, 3.0])
    assert answer.stage == 1
    assert own.eval_counter == SurrogateObjectiveLevel.CRITERION_CALLS
    assert other.eval_counter == other_before
    output = surrogate.evaluate([1.0, 1.0])
    before = own.eval_counter
    surrogate.estimate_error(output)
    assert own.eval_counter - before == 2 * opt_box.dim


def test_accepted_candidates_reverify(opt_box):
    hierarchy, oracle, surrogate, _ = build_hierarchy(opt_box)
    rng_starts = [[3.5, 2.0], [-3.0, 3.0], [3.4, 1.8], [-3.5, -3.0],
                  [3.2, 2.2], [2.8, 1.9], [3.6, -1.7], [-2.9, 3.2]]
    for start in rng_starts:
        answer, _ = hierarchy.handle_request(start)
        if answer.stage == 1:
            grad = fd_gradient(himmelblau, answer.payload.x, opt_box)
            assert np.linalg.norm(grad) <= hierarchy.tolerance + 1e-12
            assert answer.estimate == pytest.approx(
                np.linalg.norm(grad), abs=1e-12)


def test_surrogate_ignores_foreign_payloads(opt_box):
    _, _, surrogate, _ = build_hierarchy(opt_box)
    assert surrogate.absorb({"alien": 1}) is False
    samples = DescentSamples([(np.array([1.0, 1.0]), 2.0)])
    assert surrogate.absorb(samples) is True
    assert surrogate.regressor.n_train == 1


def test_near_duplicate_samples_thinned(opt_box):
    _, _, surrogate, _ = build_hierarchy(opt_box)
    x = np.array([1.0, 1.0])
    batch = DescentSamples([(x, 2.0), (x + 1e-9, 2.0000001), (x, 3.0)])
    assert surrogate.absorb(batch) is True
    # the exact duplicate replaced the value, the near-duplicate was skipped
    assert surrogate.regressor.n_train == 1
    assert surrogate.regressor.targets[0, 0] == 3.0
    # a batch of near-duplicates alone changes nothing: no adaptation event
    assert surrogate.absorb(DescentSamples([(x + 1e-9, 2.0)])) is False
    assert surrogate.regressor.targets[0, 0] == 3.0


def test_reference_only_hierarchy_equals_plain_multistart(opt_box):
    # the hierarchy of the reference alone, as the baseline runs it, must
    # reproduce plain multistart descent bit for bit, call for call
    oracle = ObjectiveOracle(delay_s=0.0)
    hierarchy = ModelHierarchy([FullObjectiveLevel(oracle, opt_box)],
                               tolerance=1e-3, box=opt_box)
    starts = [[3.5, 2.0], [-3.0, 3.0], [1.0, -1.0], [0.1, 4.2]]
    records = hierarchy.run_query_stream(starts)
    reference_oracle = ObjectiveOracle(delay_s=0.0)
    for start, record in zip(starts, records):
        assert record.answer.stage == 1 and record.answer.is_reference
        x, j = descend(reference_oracle, start, opt_box)[-1]
        assert np.array_equal(x, record.answer.payload.x)
        assert j == record.answer.payload.j
    assert oracle.eval_counter == reference_oracle.eval_counter


def test_oracle_accounting_no_hidden_evaluations(opt_box, set_constant):
    set_constant(mlsurrogate, "N_MIN", 5)
    hierarchy, oracle, surrogate, _ = build_hierarchy(opt_box)
    starts = [[3.5, 2.0], [-3.0, 3.0], [1.0, 1.0], [-3.5, -3.0], [0.5, -2.0]]
    records = hierarchy.run_query_stream(starts)
    assert records[0].answer.attempts[0].estimate == math.inf
    stage2_calls = sum(r.answer.payload.descent_calls for r in records
                       if r.answer.stage == 2)
    # a declined attempt (infinite estimate) calls no oracle
    stage1_attempts = sum(1 for r in records for a in r.answer.attempts
                          if a.stage == 1 and math.isfinite(a.estimate))
    expected = stage2_calls + SurrogateObjectiveLevel.CRITERION_CALLS * stage1_attempts
    assert oracle.eval_counter == expected


def test_training_dump_holds_the_exact_objective(tmp_path):
    # the surrogate interpolates J as the oracle returned it: every dumped
    # value is himmelblau at its dumped point, to the last bit
    path = tmp_path / "train.csv"
    config = harness.default_config(
        "optdemo", n_queries=30, seed=42, opt={"delay_s": 0.0},
        output={"results_path": "", "dumps": {"training": str(path)}})
    regressor = harness.run(config).scenario.opt_surrogate.regressor
    train = np.loadtxt(path, delimiter=",", ndmin=2)
    assert train.shape == (regressor.n_train, 3) and regressor.n_train > 0
    assert [row[2] for row in train] == [himmelblau(row[:2]) for row in train]


def test_public_names_resolve():
    for name in mfhier.__all__:
        assert hasattr(mfhier, name), name
