"""Three-stage adaptive hierarchy on the parametrized heat equation.

A Monte Carlo loop draws diffusivity parameters and asks the hierarchy for
the quantity of interest (the integral of the final-time solution) to a
tolerance of 1e-3.  Early requests fall through to the full-order solver;
its trajectories grow the reduced basis, reduced solves train the
coefficient regressor, and the load shifts to the cheap stages.  Every
returned answer carries a rigorous error bound.
"""

from mfhier import harness

config = harness.default_config("parabolic", n_queries=200, seed=42)
config.output.results_path = "parabolic_results.csv"

print("running 200 seeded queries at tolerance", config.tolerance, "...")
result = harness.run(config)
print()
print(harness.format_summary(result))

# how the accepting stage evolves over the stream
print("\naccepting stage per quarter of the stream:")
quarter = len(result.records) // 4
for i in range(4):
    chunk = result.records[i * quarter:(i + 1) * quarter]
    counts = {s: 0 for s in (1, 2, 3)}
    for record in chunk:
        counts[record.answer.stage] += 1
    bars = "  ".join(f"stage {s}: {counts[s]:3d}" for s in (1, 2, 3))
    print(f"  queries {i * quarter:3d}-{(i + 1) * quarter - 1:3d}   {bars}")

rb_level = result.scenario.rb_level
ml_level = result.scenario.ml_level
print(f"\nfinal reduced basis: N = {rb_level.basis.N} "
      f"(generation {rb_level.generation})")
print(f"final training set: {ml_level.regressor.n_train} parameter points")

# certification: every surrogate answer came with a bound on the QoI error
bounds = result.certified_bounds
surrogate = bounds[bounds > 0]
print(f"\ncertified QoI mean: {result.qoi_mean:.8f}")
print(f"per-sample QoI error bounds: max {bounds.max():.2e}, "
      f"mean over surrogate answers {surrogate.mean():.2e}")
print("\nresults written to", config.output.results_path)
