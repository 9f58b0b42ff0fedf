"""Two-stage optimization hierarchy: learned objective, certified answers.

Requests are start points in the box; answers are local minimizers of a
multimodal objective.  Stage 2 runs gradient descent on the true (counted,
artificially delayed) objective and its iterate samples train a scalar
kernel surrogate.  Stage 1 descends on the surrogate; each candidate is
certified by the gradient norm of the true objective at that point, so an
accepted cheap answer costs five objective calls instead of a descent.
"""

import numpy as np

from mfhier import harness

config = harness.default_config("optdemo", n_queries=60, seed=42)
config.opt.delay_s = 0.0005  # pretend each objective call is expensive
config.output.results_path = "optdemo_results.csv"

print(f"60 seeded starts, gradient tolerance {config.opt.TOL_grad} ...")
result = harness.run(config)
print()
print(result.summary.format())

oracle_calls = result.scenario.oracle.eval_counter
print(f"\ntrue-objective calls with the hierarchy: {oracle_calls}")

config_b = harness.default_config("optdemo", n_queries=60, seed=42)
config_b.opt.delay_s = 0.0005
config_b.output.results_path = "optdemo_baseline.csv"
baseline = harness.baseline(config_b)
baseline_calls = baseline.scenario.oracle.eval_counter
print(f"true-objective calls, full descent on every start: {baseline_calls}")
print(f"saved {baseline_calls - oracle_calls} calls "
      f"({1 - oracle_calls / baseline_calls:.0%})")

print("\naccepted stage-1 answers and their certificates:")
shown = 0
for record in result.records:
    if record.answer.stage == 1 and shown < 8:
        x = record.answer.payload.x
        print(f"  start {np.round(record.mu, 3)} -> minimizer "
              f"({x[0]: .5f}, {x[1]: .5f}), J = {record.answer.payload.j:.2e}, "
              f"|grad J| = {record.answer.estimate:.2e}")
        shown += 1
if shown == 0:
    print("  (none in this stream)")
