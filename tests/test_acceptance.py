"""Acceptance suite: one test per criterion, run with `pytest -s` to see
the per-criterion lines.  Criteria run at the reference configuration
(n_h=200, K=100, Q=2, TOL=1e-3, seed 42) unless stated otherwise."""

import time

import numpy as np
import pytest

from mfhier import (ParameterBox, SplitMix64, error_estimate, harness,
                    reconstruct_final, residual_dual_norms, solve_fom,
                    solve_rb)
from mfhier.optdemo import fd_gradient, himmelblau
from mfhier.rb import ReducedTrajectory

from conftest import random_coefficients, strip_duration_columns


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The 400-query parabolic reference run at defaults, with the learned
    stage."""
    out = tmp_path_factory.mktemp("reference") / "run400.csv"
    config = harness.default_config("parabolic", n_queries=400,
                                    ml={"enabled": True})
    config.output.results_path = str(out)
    t0 = time.perf_counter()
    result = harness.run(config)
    return config, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def speed_runs(tmp_path_factory):
    """500-query three-stage hierarchy and FOM-only baseline on the
    identical stream."""
    base = tmp_path_factory.mktemp("speed")
    config_h = harness.default_config("parabolic", n_queries=500,
                                      ml={"enabled": True})
    config_h.output.results_path = str(base / "hierarchy.csv")
    result_h = harness.run(config_h)
    config_b = harness.default_config("parabolic", n_queries=500,
                                      ml={"enabled": True})
    config_b.output.results_path = str(base / "baseline.csv")
    result_b = harness.baseline(config_b)
    return result_h, result_b


def test_criterion_1_certification_soundness(reference_run):
    config, result, run_seconds = reference_run
    system = result.scenario.system
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    worst_gap = -np.inf
    for record in result.records:
        if record.answer.is_reference:
            continue
        checked += 1
        truth = solve_fom(system, record.mu).states[-1]
        true_error = system.m_norm(truth - record.answer.payload.u_final)
        estimate = record.answer.estimate
        worst_gap = max(worst_gap, true_error - estimate)
        if true_error > estimate + 1e-10 or estimate > 1e-3:
            violations += 1
    total_seconds = run_seconds + (time.perf_counter() - t0)
    passed = violations == 0 and checked > 0 and total_seconds <= 180.0
    _report("criterion 1 (certification soundness)", passed,
            f"{checked} surrogate answers re-verified, {violations} violations, "
            f"worst true-minus-estimate {worst_gap:.2e}, "
            f"runtime {total_seconds:.1f}s <= 180s")


def test_criterion_2_estimator_rigor_isolated(default_system):
    system = default_system
    box = ParameterBox([[0.1, 10.0]] * 2)
    rng = SplitMix64(271828)
    min_margin = np.inf
    for trial in range(200):
        # N <= 8
        reduced = harness._random_reduced_system(system, rng, 1 + trial % 8)
        mu = box.sample(rng)
        if trial % 3 == 0:
            trajectory = solve_rb(reduced, mu)
        else:
            coeffs = random_coefficients(rng, system.K + 1, reduced.N, 0.5)
            trajectory = ReducedTrajectory(coefficients=coeffs, mu=mu,
                                           reduced_system=reduced)
        delta = error_estimate(trajectory)
        true_error = system.m_norm(solve_fom(system, mu).states[-1]
                                   - reconstruct_final(trajectory))
        min_margin = min(min_margin, delta - true_error)

    worst_rel = 0.0
    for _ in range(50):
        reduced = harness._random_reduced_system(system, rng, 4)
        mu = box.sample(rng)
        coeffs = random_coefficients(rng, system.K + 1, reduced.N)
        trajectory = ReducedTrajectory(coefficients=coeffs, mu=mu,
                                       reduced_system=reduced)
        online = residual_dual_norms(trajectory)
        direct = harness._direct_residual_norms(system, reduced.V, mu, coeffs)
        worst_rel = max(worst_rel, float(np.max(np.abs(online - direct)))
                        / max(float(np.max(direct)), 1e-30))

    passed = min_margin >= -1e-10 and worst_rel <= 1e-8
    _report("criterion 2 (estimator rigor, offline/online)", passed,
            f"200 triples min(Delta - true) = {min_margin:.2e}; "
            f"50 trials offline/online rel err = {worst_rel:.2e} <= 1e-8")


def test_criterion_3_fom_correctness():
    # unit diffusivity, one subdomain, T = 0.1
    coarse = harness._analytic_error(100, 1000, 0.1, 1)
    fine = harness._analytic_error(201, 4000, 0.1, 1)
    ratio = coarse / fine
    passed = coarse <= 1e-3 and 3.2 <= ratio <= 4.8
    _report("criterion 3 (full-order correctness)", passed,
            f"analytic max-node error {coarse:.3e} <= 1e-3, "
            f"refinement ratio {ratio:.3f} in [3.2, 4.8]")


def test_criterion_4_adaptivity_shift(reference_run):
    _, result, _ = reference_run
    first, second = result.summary.accepted_halves
    stage3_ok = second[3] <= first[3]
    stage1_ok = second[1] >= first[1]
    passed = stage3_ok and stage1_ok
    _report("criterion 4 (adaptivity shift)", passed,
            f"stage-3 first/second = {first[3]}/{second[3]} "
            f"(must not grow), stage-1 first/second = "
            f"{first[1]}/{second[1]} (must not shrink)")


def test_criterion_5_complexity_ordering_and_speedup(speed_runs):
    result_h, result_b = speed_runs
    # a stage never evaluated has no mean and fails the ordering
    means = {stage: np.inf if mean is None else mean
             for stage, mean in result_h.summary.eval_mean_s.items()}
    ordering = means[1] < means[2] < means[3]
    speedup = result_b.wall_s / result_h.wall_s
    passed = ordering and speedup >= 1.5
    _report("criterion 5 (complexity ordering, speedup)", passed,
            "mean eval ms per stage = "
            + "/".join(f"{means[st] * 1e3:.3f}" for st in (1, 2, 3))
            + f", baseline/hierarchy wall = {result_b.wall_s:.2f}s/"
              f"{result_h.wall_s:.2f}s = {speedup:.2f}x >= 1.5x")


def test_criterion_6_exact_reproduction():
    config = harness.default_config("parabolic", n_queries=0,
                                    ml={"enabled": True})
    config.output.results_path = ""
    scenario = harness.build_scenario(config)
    mu = ParameterBox(config.parameter_box).sample(SplitMix64(42))
    first, _ = scenario.hierarchy.handle_request(mu)
    second, _ = scenario.hierarchy.handle_request(mu)
    passed = (first.stage == 3 and second.stage <= 2
              and second.estimate <= 1e-6)
    _report("criterion 6 (exact reproduction)", passed,
            f"first query stage {first.stage}, re-query stage {second.stage} "
            f"with estimate {second.estimate:.2e} <= 1e-6")


def test_criterion_7_optdemo_certification(tmp_path):
    config = harness.default_config("optdemo", n_queries=100)
    config.opt.delay_s = 0.0  # counts, not timings, are asserted here
    config.output.results_path = str(tmp_path / "opt.csv")
    result = harness.run(config)

    box = config.box
    stage1 = [r for r in result.records if r.answer.stage == 1]
    recheck_failures = 0
    for record in stage1:
        grad = fd_gradient(himmelblau, record.answer.payload.x, box)
        if float(np.linalg.norm(grad)) > config.opt.TOL_grad:
            recheck_failures += 1

    config_b = harness.default_config("optdemo", n_queries=100)
    config_b.opt.delay_s = 0.0
    config_b.output.results_path = str(tmp_path / "opt_base.csv")
    result_b = harness.baseline(config_b)
    calls_h = result.scenario.oracle.eval_counter
    calls_b = result_b.scenario.oracle.eval_counter

    passed = (recheck_failures == 0 and len(stage1) >= 1 and calls_h < calls_b)
    _report("criterion 7 (optimization demo certification)", passed,
            f"{len(stage1)} stage-1 acceptances (>= 1), "
            f"{recheck_failures} re-check failures, oracle calls "
            f"{calls_h} < baseline {calls_b}")


def test_criterion_8_determinism(tmp_path):
    outcomes = []
    for scenario, n in (("parabolic", 120), ("optdemo", 40)):
        paths = []
        for tag in ("a", "b"):
            config = harness.default_config(scenario, n_queries=n)
            if scenario == "optdemo":
                config.opt.delay_s = 0.0
            config.output.results_path = str(tmp_path / f"{scenario}_{tag}.csv")
            harness.run(config)
            paths.append(config.output.results_path)
        outcomes.append(strip_duration_columns(paths[0])
                        == strip_duration_columns(paths[1]))
    passed = all(outcomes)
    _report("criterion 8 (determinism)", passed,
            f"identical CSVs modulo durations: parabolic={outcomes[0]}, "
            f"optdemo={outcomes[1]}")
