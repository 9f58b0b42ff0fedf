import math

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial.distance

from mfhier import (ConfigurationError, DomainError, FullOrderLevel,
                    KernelRegressor, ModelHierarchy, NotReadyError,
                    ParameterBox, SplitMix64, error_estimate, harness,
                    predict_trajectory, rebase, solve_fom, solve_rb)
from mfhier import mlsurrogate
from mfhier.mlsurrogate import MLCoefficientLevel
from mfhier.rb import ReducedBasisLevel, ReducedTrajectory


@pytest.fixture
def rb_level(small_system, diffusivity_box):
    level = ReducedBasisLevel(small_system)
    level.absorb(solve_fom(small_system, [1.0, 4.0]))
    level.absorb(solve_fom(small_system, [5.0, 0.5]))
    return level


def regressor_from_rb(rb_level, box, mus, ridge=mlsurrogate.RIDGE):
    regressor = KernelRegressor(box, ridge, mlsurrogate.TARGET_DTYPE)
    for mu in mus:
        regressor.add(mu, solve_rb(rb_level.reduced_system, mu).coefficients)
    return regressor


def fresh_copy(regressor):
    """A new regressor holding the same pairs, factored from scratch."""
    fresh = KernelRegressor(regressor.box, regressor.ridge, regressor.dtype)
    for mu, y in zip(regressor.raw_inputs, regressor.targets):
        fresh.add(mu, y)
    return fresh


def seeded_mus(n, seed=1234):
    rng = SplitMix64(seed)
    box = ParameterBox([[0.1, 10.0]] * 2)
    return [box.sample(rng) for _ in range(n)]


# ---------------------------------------------------------------- regressor


def test_duplicate_input_replaces_output(diffusivity_box):
    regressor = KernelRegressor(diffusivity_box, mlsurrogate.RIDGE,
                                mlsurrogate.TARGET_DTYPE)
    regressor.add([1.0, 2.0], [1.0, 1.0])
    regressor.add([1.0, 2.0], [5.0, 5.0])
    assert regressor.n_train == 1
    np.testing.assert_array_equal(regressor.targets[0], [5.0, 5.0])
    # targets of another width belong to another basis: refused, for a
    # stored input as for a new one, and nothing is stored
    for mu in ([1.0, 2.0], [3.0, 4.0]):
        with pytest.raises(ConfigurationError,
                           match="output width changed; rebase first"):
            regressor.add(mu, [1.0, 1.0, 1.0])
    assert regressor.n_train == 1
    np.testing.assert_array_equal(regressor.targets, [[5.0, 5.0]])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_targets_are_stored_in_the_regressor_dtype(diffusivity_box, dtype):
    # a float64 regressor returns what it was given, bit for bit; a float32
    # one returns the float32 rounding of it, as float64
    y = np.array([1.0 / 3.0, math.pi, 1e-30, -2.0 ** 0.5])
    regressor = KernelRegressor(diffusivity_box, mlsurrogate.RIDGE, dtype)
    regressor.add([1.0, 2.0], y)
    regressor.add([3.0, 4.0], 2.0 * y)
    targets = regressor.targets
    assert targets.dtype == np.float64
    expected = np.array([y, 2.0 * y]).astype(dtype).astype(float)
    assert np.array_equal(targets, expected)
    assert np.array_equal(targets, [y, 2.0 * y]) == (dtype is np.float64)


def test_construction_allocates_no_buffer(diffusivity_box):
    regressor = KernelRegressor(diffusivity_box, mlsurrogate.RIDGE,
                                mlsurrogate.TARGET_DTYPE)
    assert regressor._raw is None and regressor._targets_t is None
    assert regressor.n_train == 0


def test_fit_requires_n_min(rb_level, diffusivity_box, set_constant):
    mus = seeded_mus(3)
    regressor = regressor_from_rb(rb_level, diffusivity_box, mus)
    with pytest.raises(NotReadyError):
        regressor.predict(mus[0])
    set_constant(mlsurrogate, "N_MIN", 3)
    regressor.predict(mus[0])  # enough once the bar is lowered


def test_first_factor_is_factored_whole(rb_level, diffusivity_box,
                                        set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    regressor = regressor_from_rb(rb_level, diffusivity_box, seeded_mus(12))
    assert regressor._factor is None  # reaching N_MIN leaves it stale
    regressor.predict([1.0, 1.0])
    assert np.array_equal(regressor._factor, mlsurrogate.fit(
        regressor.inputs, 0.3, regressor.ridge))


def test_invalid_hyperparameters_rejected(diffusivity_box):
    for ridge in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigurationError):
            KernelRegressor(diffusivity_box, ridge, mlsurrogate.TARGET_DTYPE)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_gaussian_matches_cdist_bitwise(dim):
    # the optdemo stream follows the kernel's round-off, so the squared
    # distances keep cdist's sequential component sum; at dim 8 a pairwise
    # sum (numpy's reduction over the last axis) differs
    rng = np.random.default_rng(dim)
    a, b = rng.random((60, dim)), rng.random((45, dim))
    sq = scipy.spatial.distance.cdist(a, b, "sqeuclidean")
    expected = np.exp(-sq / (2.0 * 0.12**2))
    assert np.array_equal(mlsurrogate._gaussian(a, b, 0.12), expected)
    assert np.array_equal(mlsurrogate._gaussian(a, b[:1], 0.12),
                          expected[:, :1])


@pytest.mark.parametrize("mu", [[5.0], [5.0, 5.0, 5.0]])
def test_regressor_rejects_wrong_length_parameters(diffusivity_box, mu,
                                                  set_constant):
    # a length-1 mu must not broadcast to (5, 5) in a 2-D box
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    set_constant(mlsurrogate, "N_MIN", 2)
    regressor = KernelRegressor(diffusivity_box, mlsurrogate.RIDGE,
                                mlsurrogate.TARGET_DTYPE)
    with pytest.raises(DomainError):
        regressor.add(mu, np.zeros(3))
    assert regressor.n_train == 0
    for x in seeded_mus(3):
        regressor.add(x, np.ones(3))
    with pytest.raises(DomainError):
        regressor.predict(mu)


def test_zero_outputs_give_zero_predictions(diffusivity_box, set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    regressor = KernelRegressor(diffusivity_box, mlsurrogate.RIDGE,
                                mlsurrogate.TARGET_DTYPE)
    for mu in seeded_mus(12):
        regressor.add(mu, np.zeros(8))
    pred = regressor.predict([3.0, 3.0])
    assert np.max(np.abs(pred)) <= 1e-12
    weights = scipy.linalg.cho_solve((regressor._factor, True),
                                     regressor.targets)
    assert np.max(np.abs(weights)) <= 1e-12


def test_weights_satisfy_ridge_system(rb_level, diffusivity_box,
                                      set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    regressor = regressor_from_rb(rb_level, diffusivity_box, seeded_mus(15))
    regressor.predict([1.0, 1.0])  # factors the kernel system
    weights = scipy.linalg.cho_solve((regressor._factor, True),
                                     regressor.targets)
    gram = mlsurrogate._gaussian(regressor.inputs, regressor.inputs, 0.3)
    gram[np.diag_indices_from(gram)] += regressor.ridge
    residual = gram @ weights - regressor.targets
    rel = np.linalg.norm(residual) / np.linalg.norm(regressor.targets)
    assert rel <= 1e-8


def test_near_interpolation_at_training_point(rb_level, diffusivity_box,
                                             set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    mus = seeded_mus(15)
    regressor = regressor_from_rb(rb_level, diffusivity_box, mus)
    for idx in (0, 7, 14):
        pred = regressor.predict(mus[idx])
        stored = regressor.targets[idx]
        rel = np.linalg.norm(pred - stored) / np.linalg.norm(stored)
        assert rel <= 1e-4


def test_far_query_prediction_decays(diffusivity_box, set_constant):
    # single pair: prediction at distance >> lengthscale is near zero
    set_constant(mlsurrogate, "LENGTHSCALE", 0.05)
    set_constant(mlsurrogate, "N_MIN", 1)
    regressor = KernelRegressor(diffusivity_box, mlsurrogate.RIDGE,
                                mlsurrogate.TARGET_DTYPE)
    regressor.add([0.2, 0.2], np.full(5, 3.0))
    far = regressor.predict([9.0, 9.0])
    assert np.linalg.norm(far) <= 1e-6 * np.linalg.norm(regressor.targets[0])


def test_incremental_append_matches_full_fit(rb_level, diffusivity_box,
                                             monkeypatch, set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    mus = seeded_mus(20)
    incremental = regressor_from_rb(rb_level, diffusivity_box, mus[:12],
                                    ridge=1e-10)
    probe = np.array([4.4, 6.1])
    incremental.predict(probe)  # first factor, from scratch
    with monkeypatch.context() as patch:
        patch.setattr(mlsurrogate, "fit", lambda *a: pytest.fail("refit"))
        for mu in mus[12:]:
            incremental.add(mu,
                            solve_rb(rb_level.reduced_system, mu).coefficients)
        assert incremental._factor.shape == (20, 20)  # bordered, never refit
        pred = incremental.predict(probe)
    reference = fresh_copy(incremental)
    np.testing.assert_allclose(pred, reference.predict(probe),
                               rtol=1e-6, atol=1e-12)


def test_replaced_target_refits_bitwise(rb_level, diffusivity_box,
                                        set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    mus = seeded_mus(14)
    regressor = regressor_from_rb(rb_level, diffusivity_box, mus)
    probe = np.array([2.2, 7.3])
    regressor.predict(probe)
    regressor.add(mus[5], 2.0 * regressor.targets[5])
    assert regressor._factor is None  # stale until the next predict
    assert np.array_equal(regressor.predict(probe),
                          fresh_copy(regressor).predict(probe))


def test_failed_bordering_leaves_the_factor_stale(rb_level, diffusivity_box,
                                                  monkeypatch, set_constant):
    # a LAPACK failure inside append keeps the pair and drops the factor;
    # the next predict refactors it from scratch
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    mus = seeded_mus(14)
    regressor = regressor_from_rb(rb_level, diffusivity_box, mus[:13])
    probe = np.array([2.2, 7.3])
    regressor.predict(probe)
    with monkeypatch.context() as patch:
        patch.setattr(mlsurrogate, "_trtrs", lambda a, b, **kw: (b, 1))
        regressor.add(mus[13],
                      solve_rb(rb_level.reduced_system, mus[13]).coefficients)
    assert regressor.n_train == 14 and regressor._factor is None
    assert np.array_equal(regressor.predict(probe),
                          fresh_copy(regressor).predict(probe))


def test_rebase_refits_bitwise(small_system, diffusivity_box, set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    rb = ReducedBasisLevel(small_system)
    rb.absorb(solve_fom(small_system, [1.0, 4.0]))
    regressor = regressor_from_rb(rb, diffusivity_box, seeded_mus(12))
    probe = np.array([3.3, 0.4])
    regressor.predict(probe)
    rb.absorb(solve_fom(small_system, [8.0, 0.2]))
    rebase(regressor, rb.reduced_system)
    assert regressor._factor is None
    assert np.array_equal(regressor.predict(probe),
                          fresh_copy(regressor).predict(probe))


def test_prediction_feeds_estimator(rb_level, diffusivity_box, small_system,
                                    set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    regressor = regressor_from_rb(rb_level, diffusivity_box, seeded_mus(12))
    mu = np.array([2.5, 2.5])
    trajectory = predict_trajectory(regressor, rb_level.reduced_system, mu)
    assert trajectory.reduced_system is rb_level.reduced_system
    assert trajectory.coefficients.shape == (small_system.K + 1,
                                             rb_level.reduced_system.N)
    delta = error_estimate(trajectory)
    assert np.isfinite(delta) and delta >= 0.0


# ---------------------------------------------------------------- power gate


def test_power_function_matches_dense_solve(rb_level, diffusivity_box):
    mus = seeded_mus(40)
    regressor = regressor_from_rb(rb_level, diffusivity_box, mus)
    gram = mlsurrogate._gaussian(regressor.inputs, regressor.inputs,
                                 mlsurrogate.LENGTHSCALE)
    gram[np.diag_indices_from(gram)] += regressor.ridge
    for mu in seeded_mus(20, seed=99):
        k = mlsurrogate._gaussian(regressor.inputs,
                                  np.atleast_2d(diffusivity_box.scale01(mu)),
                                  mlsurrogate.LENGTHSCALE)[:, 0]
        expected = math.sqrt(1.0 - k @ np.linalg.solve(gram, k))
        assert abs(regressor.power(mu) - expected) <= 1e-10
    assert max(regressor.power(mu) for mu in mus) < 1e-3
    assert regressor.power([10.0, 0.1]) > 0.99  # a corner far from the data


def test_power_gate_declines_before_predicting(rb_level, diffusivity_box):
    regressor = regressor_from_rb(rb_level, diffusivity_box, seeded_mus(40))
    far, near = [10.0, 0.1], seeded_mus(40)[3]
    with pytest.raises(NotReadyError):
        regressor.predict(far, max_power=0.5)
    assert np.array_equal(regressor.predict(near, max_power=0.5),
                          regressor.predict(near))


def gated_and_ungated_runs(tmp_path, set_constant, Q, n_queries):
    results = []
    for gate in (mlsurrogate.POWER_GATE, math.inf):
        set_constant(mlsurrogate, "POWER_GATE", gate)
        config = harness.config_from_dict({
            "fom": {"Q": Q}, "parameter_box": [[0.1, 10.0]] * Q,
            "n_queries": n_queries, "seed": 42, "ml": {"enabled": True},
            "output": {"results_path": str(tmp_path / f"q{Q}_{gate}.csv")}})
        results.append(harness.run(config))
    return results


def answer_key(record):
    answer = record.answer
    return (answer.stage, answer.payload.qoi,
            "ref" if answer.is_reference else answer.estimate)


@pytest.mark.parametrize("Q,n_queries", [(2, 500), (8, 200)])
def test_power_gate_keeps_every_answer(tmp_path, set_constant, Q, n_queries):
    gated, ungated = gated_and_ungated_runs(tmp_path, set_constant, Q,
                                            n_queries)
    assert ([answer_key(r) for r in gated.records]
            == [answer_key(r) for r in ungated.records])
    stage1 = [a for r in gated.records for a in r.answer.attempts if a.stage == 1]
    assert stage1
    if Q == 8:  # the kernel sees no data in [0, 1]^8: every attempt declined
        assert all(a.estimate == math.inf for a in stage1)
    else:  # some attempts declined, and stage 1 still answers
        assert any(a.estimate == math.inf for a in stage1)
        assert any(r.answer.stage == 1 for r in gated.records)


# ---------------------------------------------------------------- rebase


def test_rebase_empty_set_stays_empty(rb_level, diffusivity_box):
    regressor = KernelRegressor(diffusivity_box, mlsurrogate.RIDGE,
                                mlsurrogate.TARGET_DTYPE)
    rebase(regressor, rb_level.reduced_system)
    assert regressor.n_train == 0
    assert regressor.targets.shape == (0, 0)


def test_rebase_restores_interpolation(small_system, diffusivity_box,
                                       set_constant):
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)
    rb = ReducedBasisLevel(small_system)
    rb.absorb(solve_fom(small_system, [1.0, 4.0]))
    mus = seeded_mus(12)
    regressor = regressor_from_rb(rb, diffusivity_box, mus)
    # basis grows: stored targets are now in the previous basis
    rb.absorb(solve_fom(small_system, [8.0, 0.2]))
    rebase(regressor, rb.reduced_system)
    fresh = solve_rb(rb.reduced_system, mus[3]).coefficients.ravel()
    pred = regressor.predict(mus[3])
    assert np.linalg.norm(pred - fresh) / np.linalg.norm(fresh) <= 1e-4


# ---------------------------------------------------------------- level


@pytest.fixture
def make_ml(small_system, diffusivity_box, set_constant):
    """``make_ml(n_absorb)``: a one-trajectory RB level and a learned level
    at lengthscale 0.3 that has absorbed ``n_absorb`` RB solutions."""
    set_constant(mlsurrogate, "LENGTHSCALE", 0.3)

    def make(n_absorb=0):
        rb = ReducedBasisLevel(small_system)
        rb.absorb(solve_fom(small_system, [1.0, 4.0]))
        ml = MLCoefficientLevel(diffusivity_box, rb)
        for mu in seeded_mus(n_absorb):
            ml.absorb(solve_rb(rb.reduced_system, mu))
        return rb, ml

    return make


def test_ml_level_not_ready_without_data(make_ml):
    _, ml = make_ml(n_absorb=0)
    with pytest.raises(NotReadyError):
        ml.evaluate(np.array([2.0, 3.0]))


def test_ml_level_ready_after_n_min(make_ml):
    mu = np.array([2.0, 3.0])
    _, ml = make_ml(n_absorb=9)
    with pytest.raises(NotReadyError):
        ml.evaluate(mu)
    rb, ml = make_ml(n_absorb=10)
    output = ml.evaluate(mu)
    delta = ml.estimate_error(output)
    assert np.isfinite(delta) and delta >= 0.0
    assert isinstance(output.adaptation, ReducedTrajectory)
    assert output.adaptation.reduced_system is rb.reduced_system


def test_ml_level_ignores_fom_trajectories(small_system, make_ml):
    # a full-order trajectory the basis did not take changes nothing here
    rb, ml = make_ml(n_absorb=3)
    before = ml.regressor.targets
    assert ml.absorb(solve_fom(small_system, [1.0, 1.0])) is False
    assert ml.regressor.n_train == 3
    np.testing.assert_array_equal(ml.regressor.targets, before)


def test_ml_level_takes_rb_trajectories_only(make_ml):
    rb, ml = make_ml(n_absorb=0)
    mu = np.array([2.0, 3.0])
    trajectory = solve_rb(rb.reduced_system, mu)
    assert ml.absorb(trajectory) is True
    assert ml.regressor.n_train == 1
    # a hierarchy offers a level only the outputs of costlier levels, so the
    # reduced trajectories offered here are the RB stage's
    assert ml.absorb({"not": "a trajectory"}) is False
    assert ml.regressor.n_train == 1


def test_ml_level_rebases_on_basis_change(small_system, make_ml):
    rb, ml = make_ml(n_absorb=12)
    old_width = ml.regressor.targets.shape[1]
    # the full-order trajectory is offered to the basis first, then here
    trajectory = solve_fom(small_system, [9.0, 0.15])
    assert rb.absorb(trajectory) is True
    assert rb.reduced_system.generation == 2
    assert ml.reduced_system is not rb.reduced_system  # targets are stale
    assert ml.absorb(trajectory) is True  # the rebase counts as taking it
    assert ml.reduced_system is rb.reduced_system
    assert ml.regressor.targets.shape[1] > old_width
    assert ml.regressor.n_train == 12  # inputs never shrink


def test_ml_level_rebases_only_when_stale(small_system, make_ml, monkeypatch):
    rb, ml = make_ml(n_absorb=3)

    def no_rebase(*args):
        pytest.fail("rebase of a current regressor")

    monkeypatch.setattr(mlsurrogate, "rebase", no_rebase)
    assert ml.absorb(solve_rb(rb.reduced_system, [2.0, 3.0])) is True
    assert ml.absorb(solve_fom(small_system, [2.0, 3.0])) is False
    assert ml.regressor.n_train == 4


def test_ml_level_left_behind_answers_in_its_older_system(
        small_system, diffusivity_box, make_ml, monkeypatch):
    # a failed rebase leaves the learned stage behind the basis; it still
    # answers, predicted, certified and lifted in the older system its
    # targets are in, and that system's bound holds
    rb, ml = make_ml(n_absorb=12)
    behind = ml.reduced_system

    def failing_rebase(*args):
        raise np.linalg.LinAlgError("rebase failed")

    monkeypatch.setattr(mlsurrogate, "rebase", failing_rebase)
    levels = [ml, rb, FullOrderLevel(small_system)]
    answer, events = ModelHierarchy(levels, tolerance=0.0,
                                    box=diffusivity_box).handle_request(
                                        [9.0, 0.15])
    assert answer.stage == 3 and (3, 2) in events and (3, 1) not in events
    assert rb.reduced_system.N > behind.N and ml.reduced_system is behind

    mu = ml.regressor.raw_inputs[0]
    answer, events = ModelHierarchy(levels, tolerance=1.0,
                                    box=diffusivity_box).handle_request(mu)
    assert answer.stage == 1 and events == []
    assert [attempt.stage for attempt in answer.attempts] == [1]
    output = ml.evaluate(mu)
    assert output.adaptation.reduced_system is behind
    assert output.adaptation.coefficients.shape[1] == behind.N
    assert ml.estimate_error(output) == answer.estimate
    assert np.array_equal(output.payload.u_final, answer.payload.u_final)
    true_error = small_system.m_norm(solve_fom(small_system, mu).states[-1]
                                     - answer.payload.u_final)
    assert true_error <= answer.estimate


def test_ml_estimate_uses_its_own_reduced_system(make_ml):
    rb, ml = make_ml(n_absorb=10)
    mu = np.array([2.0, 2.0])
    output = ml.evaluate(mu)
    assert output.adaptation.reduced_system is ml.reduced_system
    assert ml.estimate_error(output) == error_estimate(output.adaptation)


def test_ml_training_set_monotone(make_ml):
    rb, ml = make_ml(n_absorb=0)
    sizes = []
    for mu in seeded_mus(15):
        assert ml.absorb(solve_rb(rb.reduced_system, np.asarray(mu))) is True
        sizes.append(ml.regressor.n_train)
    assert sizes == sorted(sizes)


# ---------------------------------------------------------------- input map


def test_learned_stage_reads_log_scaled_inputs(diffusivity_box, make_ml):
    _, ml = make_ml(n_absorb=12)
    mus = ml.regressor.raw_inputs
    lo, hi = diffusivity_box.lows, diffusivity_box.highs
    expected = (np.log(mus) - np.log(lo)) / (np.log(hi) - np.log(lo))
    np.testing.assert_allclose(ml.regressor.inputs, expected, rtol=1e-15,
                               atol=0)
    np.testing.assert_allclose(ml.regressor.box.scale01(lo), 0.0, atol=0)
    np.testing.assert_allclose(ml.regressor.box.scale01(hi), 1.0, rtol=1e-15)


def test_log_scaled_box_needs_a_positive_box():
    with pytest.raises(ConfigurationError):
        mlsurrogate.LogScaledBox(ParameterBox([[0.0, 1.0]]))


def test_optdemo_surrogate_inputs_stay_linear():
    config = harness.default_config("optdemo", n_queries=3,
                                    opt={"delay_s": 0.0})
    config.output.results_path = ""
    regressor = harness.run(config).scenario.opt_surrogate.regressor
    assert regressor.n_train > 0
    np.testing.assert_array_equal(regressor.inputs,
                                  config.box.scale01(regressor.raw_inputs))


def test_learned_stage_answers_most_of_the_criterion_5_stream():
    # the seed-42 Q=2 stream of criterion 5: on log-scaled inputs stage 1
    # answers about 382 of 500 queries, with the full-order solves of the
    # RB+FOM hierarchy
    config = harness.default_config("parabolic", n_queries=500, seed=42,
                                    ml={"enabled": True})
    config.output.results_path = ""
    summary = harness.run(config).summary
    assert summary.accepted[1] >= 300
    assert summary.accepted[3] == 4
