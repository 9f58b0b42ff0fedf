import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from mfhier import cli, fom, harness, mlsurrogate, optdemo, rb
from mfhier.cli import main as cli_main
from mfhier.errors import ConfigurationError

from conftest import strip_duration_columns


def small_parabolic(tmp_path, n_queries=30, **kw):
    config = harness.default_config("parabolic", n_queries=n_queries, **kw)
    config.fom.n_h = 60
    config.fom.K = 30
    config.output.results_path = str(tmp_path / "results.csv")
    return config


# ---------------------------------------------------------------- config


def test_config_defaults_validate():
    config = harness.default_config("parabolic")
    assert config.fom.n_h == 200 and config.fom.K == 100
    assert config.tolerance == 1e-3
    assert config.parameter_box == [[0.1, 10.0], [0.1, 10.0]]
    opt = harness.default_config("optdemo")
    assert opt.parameter_box == [[-5.0, 5.0], [-5.0, 5.0]]
    assert opt.hierarchy_tolerance == opt.opt.TOL_grad
    # an infinite tolerance is valid: every answer not declined is accepted
    assert harness.default_config("parabolic", tolerance=math.inf).tolerance == math.inf


def test_config_from_json_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "scenario": "parabolic", "tolerance": 5e-3, "n_queries": 7,
        "seed": 99, "parameter_box": [[0.5, 2.0], [0.5, 2.0]],
        "fom": {"n_h": 40, "K": 10},
        "ml": {"enabled": True},
        "output": {"results_path": "out.csv"},
    }))
    config = harness.config_from_dict(harness.read_config(path))
    assert config.fom.n_h == 40 and config.fom.K == 10
    assert config.ml.enabled is True
    assert config.seed == 99


def test_readme_config_block_is_the_default():
    # the JSON block under README's "## Configuration" names every field
    # with its parabolic default
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Configuration\n", 1)[1]
    block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    default = harness.default_config("parabolic")
    assert block == dataclasses.asdict(default)
    assert harness.config_from_dict(block) == default


# values the field-by-field checks pass but a run could not use, each
# with the field its message names
RANGE_REFUSALS = [
    ({"scenario": "optdemo", "parameter_box": [[-5.0, 5.0]]}, "parameter_box"),
    ({"scenario": "optdemo", "parameter_box": [[-5.0, 5.0]] * 3},
     "parameter_box"),
    ({"fom": {"T": math.inf}}, "fom.T"),
    ({"fom": {"T": 0}}, "fom.T"),
    ({"fom": {"T": -1.0}}, "fom.T"),
    ({"scenario": "optdemo", "opt": {"delay_s": math.inf}}, "opt.delay_s"),
    ({"scenario": "optdemo", "opt": {"delay_s": -1.0}}, "opt.delay_s"),
]


# the entries that name rb, ml.n_min, ml.lengthscale, ml.ridge or
# opt.max_iters are refused as unknown keys: those are module constants, not
# config fields
@pytest.mark.parametrize("bad", [
    {"scenario": "nope"},
    {"tolerance": -1.0},
    {"n_queries": -5},
    {"unknown_key": 1},
    {"fom": {"bogus": 2}},
    {"parameter_box": [[2.0, 1.0], [0.1, 1.0]]},
    {"scenario": "parabolic", "parameter_box": [[0.1, 1.0]]},
    {"ml": {"lengthscale": "median"}},
    {"ml": {"lengthscale": 0.0}},
    {"ml": {"ridge": -1e-8}},
    {"tolerance": float("nan")},
    {"scenario": "optdemo", "opt": {"TOL_grad": float("nan")}},
    {"parameter_box": [[0.1, float("inf")], [0.1, 1.0]]},
    {"parameter_box": [[0.1, 1.0, 2.0], [0.1, 1.0]]},
    {"parameter_box": [[None, 1.0], [0.1, 1.0]]},
    {"parameter_box": 5},
    {"n_queries": 2.5},
    {"n_queries": True},
    {"seed": 1.5},
    {"fom": {"n_h": 50.5}},
    {"fom": {"K": 10.0}},
    {"fom": {"Q": 2.0}},
    {"rb": {"n_add_max": 4.5}},
    {"rb": {"N_max": 20.0}},
    {"ml": {"n_min": 10.0}},
    {"opt": {"max_iters": 1.5}},
    {"output": {"dumps": "basis.csv"}},
    {"output": {"dumps": None}},
    {"output": {"dumps": {"basis_csv": "b.csv"}}},
    {"output": {"dumps": {"basis": 5}}},
    {"output": {"dumps": {"training": ""}}},
    {"scenario": "optdemo", "output": {"dumps": {"basis": "b.csv"}}},
    {"scenario": "optdemo", "output": {"dumps": {"trajectory": "t.csv"}}},
    {"ml": {"enabled": 1}},
    {"ml": {"enabled": "false"}},
    {"output": {"dumps": {"training": "t.csv"}}},
    {"scenario": "optdemo", "ml": {"enabled": False},
     "output": {"dumps": {"training": "t.csv"}}},
    {"tolerance": "x"},
    {"tolerance": True},
    {"fom": {"T": "x"}},
    {"fom": {"T": None}},
    {"rb": {"pod_tol": "x"}},
    {"rb": {"pod_tol": False}},
    {"scenario": "optdemo", "opt": {"delay_s": "x"}},
    {"scenario": "optdemo", "opt": {"TOL_grad": "x"}},
    {"ml": {"ridge": True}},
    {"ml": {"lengthscale": float("nan")}},
    {"fom": {"T": float("nan")}},
    {"rb": {"pod_tol": float("nan")}},
    {"rb": {"pod_tol": -1.0}},
    {"scenario": "optdemo", "opt": {"delay_s": float("nan")}},
    *(bad for bad, _ in RANGE_REFUSALS),
    {"parameter_box": [[0.0, 10.0], [0.1, 10.0]]},
    {"seed": 2**64},
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ConfigurationError):
        harness.config_from_dict(bad)


@pytest.mark.parametrize("bad, name", RANGE_REFUSALS)
def test_cli_range_refusal_names_its_field(bad, name, tmp_path, capsys):
    with pytest.raises(ConfigurationError, match=name):
        harness.config_from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))  # math.inf is written as Infinity
    out = tmp_path / "x.csv"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_scenario_defaults_resolved_per_field():
    # ml.enabled takes the scenario's default; each learned level keeps the
    # ridge its scenario needs
    def ridge(config):
        built = harness.build_scenario(config)
        return (built.ml_level or built.opt_surrogate).regressor.ridge

    opt = harness.default_config("optdemo")
    assert opt.ml.enabled is True
    assert ridge(opt) == optdemo.OPT_RIDGE == 1e-12
    assert ridge(harness.default_config("optdemo", ml={"enabled": True})) == 1e-12
    assert harness.default_config("parabolic").ml.enabled is False
    assert ridge(harness.default_config("parabolic", ml={"enabled": True})) == 1e-8
    args = cli.build_parser().parse_args(["run", "--scenario", "optdemo", "--ml"])
    assert ridge(cli._load_config(args)) == 1e-12


def test_default_hierarchies():
    def level_types(scenario, **kw):
        built = harness.build_scenario(harness.default_config(scenario, **kw))
        return built, [type(level) for level in built.hierarchy.levels]

    parabolic, types = level_types("parabolic")
    assert types == [rb.ReducedBasisLevel, fom.FullOrderLevel]
    assert parabolic.ml_level is None and parabolic.ml_n() == 0
    three, types = level_types("parabolic", ml={"enabled": True})
    assert types[1:] == [rb.ReducedBasisLevel, fom.FullOrderLevel]
    assert three.hierarchy.levels[0] is three.ml_level is not None
    opt, types = level_types("optdemo")
    assert types == [optdemo.SurrogateObjectiveLevel, optdemo.FullObjectiveLevel]
    assert opt.hierarchy.levels[0] is opt.opt_surrogate
    opt_off, types = level_types("optdemo", ml={"enabled": False})
    assert types == [optdemo.FullObjectiveLevel]
    assert opt_off.opt_surrogate is None and opt_off.ml_n() == 0


def test_parameter_stream_reproducible():
    config = harness.default_config("parabolic", n_queries=5, seed=11)
    first = harness.draw_parameters(config)
    second = harness.draw_parameters(config)
    np.testing.assert_array_equal(first, second)
    assert first.shape == (5, 2)
    assert np.all((first >= 0.1) & (first <= 10.0))


# ---------------------------------------------------------------- run


def test_zero_queries_header_only(tmp_path):
    config = small_parabolic(tmp_path, n_queries=0)
    result = harness.run(config)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines == [harness.csv_header(2, 2)]
    assert result.summary.n_queries == 0
    assert result.summary.qoi_mean == 0.0


def test_run_writes_schema_and_monotone_state(tmp_path):
    config = small_parabolic(tmp_path, n_queries=25)
    result = harness.run(config)
    rows, n_stages = harness.read_results(config.output.results_path)
    assert n_stages == 2 and len(rows) == 25
    # every cell but the durations, which the CSV rounds, reads back exactly
    assert ([row._replace(durations=()) for row in rows]
            == [row._replace(durations=()) for row in result.rows])
    basis_sizes = [row.basis_n for row in rows]
    ml_sizes = [row.ml_n for row in rows]
    assert basis_sizes == sorted(basis_sizes)
    assert ml_sizes == sorted(ml_sizes)
    for row in rows:
        assert len(row.mu) == 2
        if row.stage < n_stages:
            assert row.estimate is not None and row.estimate <= config.tolerance


def test_determinism_modulo_durations(tmp_path):
    config_a = small_parabolic(tmp_path, n_queries=20)
    config_a.output.results_path = str(tmp_path / "a.csv")
    harness.run(config_a)
    config_b = small_parabolic(tmp_path, n_queries=20)
    config_b.output.results_path = str(tmp_path / "b.csv")
    harness.run(config_b)
    assert (strip_duration_columns(tmp_path / "a.csv")
            == strip_duration_columns(tmp_path / "b.csv"))


def test_adaptation_events_follow_the_basis(tmp_path):
    # 3>2: a full-order trajectory offered to the basis; 3>1: the learned
    # stage rebased onto a grown basis; 2>1: one training pair
    config = harness.default_config("parabolic", n_queries=150, seed=42,
                                    ml={"enabled": True})
    config.output.results_path = str(tmp_path / "results.csv")
    result = harness.run(config)
    events = [row.events for row in result.rows]
    rebases = [row for row in events if (3, 1) in row]
    assert sum(row.count((3, 1)) for row in events) == len(rebases) > 0
    assert len(rebases) == result.scenario.rb_level.reduced_system.generation
    assert all((3, 2) in row for row in rebases)
    assert (sum(row.count((2, 1)) for row in events)
            == result.scenario.ml_level.regressor.n_train)


def test_same_mu_twice_stage_does_not_increase(tmp_path):
    config = small_parabolic(tmp_path, n_queries=0)
    scenario = harness.build_scenario(config)
    mu = np.array([3.0, 0.7])
    records = scenario.hierarchy.run_query_stream([mu, mu])
    assert records[1].answer.stage <= records[0].answer.stage


def test_first_query_is_declined_at_stage_1():
    # nothing is learned before the first query: on the default seed-42
    # stream the empty basis declines query 0, one attempt with an infinite
    # estimate, and the full-order model answers
    config = harness.default_config("parabolic", n_queries=2)
    config.output.results_path = ""
    first = harness.run(config).records[0].answer
    assert [(a.stage, a.estimate) for a in first.attempts] == [(1, math.inf),
                                                               (2, None)]
    # the optdemo surrogate declines its first start before any oracle call
    config = harness.default_config("optdemo", n_queries=1)
    config.opt.delay_s = 0.0
    config.output.results_path = ""
    result = harness.run(config)
    first = result.records[0].answer
    assert [(a.stage, a.estimate) for a in first.attempts] == [(1, math.inf),
                                                               (2, None)]
    assert result.scenario.oracle.eval_counter == first.payload.descent_calls


def test_learned_stage_only_replaces_rb_answers():
    # the learned stage answers in place of the reduced basis and changes
    # nothing the reduced basis or the full-order model do
    runs = []
    for enabled in (False, True):
        config = harness.default_config("parabolic", n_queries=400, seed=42,
                                        ml={"enabled": enabled})
        config.output.results_path = ""
        runs.append(harness.run(config))
    off, on = runs
    assert off.scenario.levels_total == 2 and on.scenario.levels_total == 3
    assert ([r.query_id for r in off.records if r.answer.is_reference]
            == [r.query_id for r in on.records if r.answer.is_reference])
    assert [row.basis_n for row in off.rows] == [row.basis_n for row in on.rows]
    rb_on = {r.query_id: r.answer for r in on.records if r.answer.stage == 2}
    both = [(r.answer, rb_on[r.query_id]) for r in off.records
            if r.query_id in rb_on]
    assert len(both) == len(rb_on) > 0
    for answer_off, answer_on in both:
        assert answer_off.estimate == answer_on.estimate
        assert answer_off.payload.qoi == answer_on.payload.qoi


def fail_once_inside(monkeypatch, module, lapack, owner, method, n, **match):
    """Let the n-th call of ``module.<lapack>`` made inside
    ``owner.<method>`` with the keyword values ``match`` report info=1."""
    inside, calls = [False], [0]
    method_fn, lapack_fn = getattr(owner, method), getattr(module, lapack)

    def flagged(self, *args, **kwargs):
        inside[0] = True
        try:
            return method_fn(self, *args, **kwargs)
        finally:
            inside[0] = False

    def failing(*args, **kwargs):
        out = lapack_fn(*args, **kwargs)
        if inside[0] and all(kwargs.get(k) == v for k, v in match.items()):
            calls[0] += 1
            if calls[0] == n:
                return (*out[:-1], 1)
        return out

    monkeypatch.setattr(owner, method, flagged)
    monkeypatch.setattr(module, lapack, failing)
    return calls


@pytest.mark.parametrize("ml, stage, module, lapack, owner, method, match", [
    (False, 1, rb, "_potrf", rb.ReducedBasisLevel, "evaluate", {}),
    (True, 2, rb, "_potrf", rb.ReducedBasisLevel, "evaluate", {}),
    (True, 1, mlsurrogate, "_trtrs", mlsurrogate.KernelRegressor, "predict",
     {"trans": 0}),
    (True, 1, mlsurrogate, "_trtrs", mlsurrogate.KernelRegressor, "predict",
     {"trans": 1}),
], ids=["rb-potrf", "ml-rb-potrf", "ml-kernel-solve", "ml-weights-solve"])
def test_numerical_failure_in_a_surrogate_falls_through(
        monkeypatch, ml, stage, module, lapack, owner, method, match):
    # a failed factorization or triangular solve inside a surrogate is an
    # attempt with an infinite estimate; the next stage answers the query
    # and the stream goes on
    config = harness.default_config("parabolic", n_queries=100, seed=42,
                                    ml={"enabled": ml})
    config.output.results_path = ""
    clean = harness.run(config).records
    calls = fail_once_inside(monkeypatch, module, lapack, owner, method, 20,
                             **match)
    patched = harness.run(config).records
    assert calls[0] >= 20
    assert len(patched) == len(clean) == 100

    def attempts(record):
        return [(a.stage, a.estimate) for a in record.answer.attempts]

    hit = next(i for i, (a, b) in enumerate(zip(clean, patched))
               if attempts(a) != attempts(b))
    assert math.isfinite(dict(attempts(clean[hit]))[stage])
    assert (stage, math.inf) in attempts(patched[hit])
    assert patched[hit].answer.stage == stage + 1


def test_failed_rebase_takes_nothing_and_a_later_absorb_rebases(monkeypatch):
    # the third reduced Cholesky inside a rebase of the learned stage's
    # targets fails: that absorb takes nothing and logs no 3>1, the stream
    # answers every query, and a later absorb rebases the targets
    config = harness.default_config("parabolic", n_queries=200, seed=42,
                                    ml={"enabled": True})
    config.output.results_path = ""
    clean = harness.run(config).records
    calls = fail_once_inside(monkeypatch, rb, "_potrf", mlsurrogate,
                             "rebase", 3)
    flagged, completed = mlsurrogate.rebase, []

    def counted(regressor, reduced_system):
        flagged(regressor, reduced_system)
        completed.append(calls[0])

    monkeypatch.setattr(mlsurrogate, "rebase", counted)
    result = harness.run(config)
    patched = result.records
    assert calls[0] >= 3
    assert len(patched) == len(clean) == 200
    hit = next(i for i, (a, b) in enumerate(zip(clean, patched))
               if a.adaptation_events != b.adaptation_events)
    assert (3, 1) in clean[hit].adaptation_events
    assert (3, 1) not in patched[hit].adaptation_events
    assert (3, 2) in patched[hit].adaptation_events
    assert patched[hit].answer.stage == clean[hit].answer.stage == 3
    assert any(n >= 3 for n in completed)  # a rebase after the failed one
    ml_level = result.scenario.ml_level
    assert ml_level.reduced_system is result.scenario.rb_level.reduced_system
    assert ml_level.regressor.targets.shape[1] == (
        (config.fom.K + 1) * ml_level.reduced_system.N)


# ---------------------------------------------------------------- baseline


def test_baseline_matches_zero_tolerance_run(tmp_path):
    # the baseline is a one-stage hierarchy of the reference: every answer
    # is stage 1 with estimate "ref", and the CSV has one duration column
    config = small_parabolic(tmp_path, n_queries=12)
    config.output.results_path = str(tmp_path / "base.csv")
    base = harness.baseline(config)
    config_zero = small_parabolic(tmp_path, n_queries=12)
    config_zero.tolerance = 0.0
    config_zero.output.results_path = str(tmp_path / "zero.csv")
    harness.run(config_zero)
    base_rows, n_base = harness.read_results(str(tmp_path / "base.csv"))
    zero_rows, n_zero = harness.read_results(str(tmp_path / "zero.csv"))
    assert base.scenario.levels_total == n_base == 1 and n_zero == 2
    header = (tmp_path / "base.csv").read_text().splitlines()[0].split(",")
    assert [cell for cell in header if cell.startswith("dur_s")] == ["dur_s1"]
    assert len(base_rows) == len(zero_rows) == 12
    for row_b, row_z in zip(base_rows, zero_rows):
        assert row_b.stage == n_base and row_z.stage == n_zero  # the top
        assert row_b.qoi == row_z.qoi           # QoIs agree bitwise
    assert all(r.estimate is None for r in base_rows)  # estimate column is "ref"


def test_baseline_qoi_within_certified_bound(tmp_path):
    config = small_parabolic(tmp_path, n_queries=25)
    run_result = harness.run(config)
    config_b = small_parabolic(tmp_path, n_queries=25)
    config_b.output.results_path = str(tmp_path / "base.csv")
    base_result = harness.baseline(config_b)
    c_l = run_result.scenario.system.qoi_const
    diffs = np.abs(np.array([row.qoi for row in run_result.rows])
                   - np.array([row.qoi for row in base_result.rows]))
    assert np.all(diffs <= c_l * config.tolerance + 1e-12)


# ---------------------------------------------------------------- verify


def test_verify_default_passes():
    config = harness.default_config("parabolic")
    report = harness.verify(config)
    assert report.all_passed
    assert len(report.checks) == 5


def flip_online_load_column(monkeypatch):
    """Flip the sign of the load column of the residual factor the online
    residual norms see, a fault the offline/online check must catch."""
    online = rb.residual_dual_norms

    def flipped(trajectory):
        reduced_system = trajectory.reduced_system
        factor = reduced_system.residual_factor.copy()
        factor[:, 0] = -factor[:, 0]
        return online(dataclasses.replace(
            trajectory, reduced_system=dataclasses.replace(
                reduced_system, residual_factor=factor)))

    monkeypatch.setattr(rb, "residual_dual_norms", flipped)


def test_verify_sabotage_fails_offline_online(monkeypatch):
    config = harness.default_config("parabolic")
    flip_online_load_column(monkeypatch)
    report = harness.verify(config)
    assert not report.all_passed
    failing = [c.name for c in report.checks if not c.passed]
    assert any("offline/online" in name for name in failing)


def test_verify_tiny_config_passes():
    config = harness.default_config("parabolic")
    config.fom.n_h = 10
    config.fom.K = 5
    report = harness.verify(config)
    assert report.all_passed, report.format()


# ---------------------------------------------------------------- report


def test_report_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(harness.csv_header(2, 3) + "\n")
    summary = harness.report(path)
    assert summary.n_queries == 0
    assert summary.accepted == {1: 0, 2: 0, 3: 0}
    assert summary.qoi_mean == 0.0


def test_report_single_stage_one_row(tmp_path):
    path = tmp_path / "one.csv"
    row = "0,1.0,2.0,1,0.0005,0.25,1.0e-03,0.0,0.0,5,12,2>1"
    path.write_text(harness.csv_header(2, 3) + "\n" + row + "\n")
    summary = harness.report(path)
    assert summary.fractions == {1: 1.0, 2: 0.0, 3: 0.0}
    assert summary.evaluations == {1: 1, 2: 0, 3: 0}
    assert summary.adaptation == {(2, 1): 1}
    assert summary.qoi_mean == 0.25
    assert summary.estimate_mean == 0.0005


def test_report_fractions_sum_to_one(tmp_path):
    config = small_parabolic(tmp_path, n_queries=30)
    harness.run(config)
    summary = harness.report(config.output.results_path)
    assert sum(summary.fractions.values()) == pytest.approx(1.0, abs=1e-12)


def test_report_roundtrip_lossless(tmp_path):
    # the report of a run's CSV is the run's summary; only the mean
    # evaluation times differ, by the 7 digits the CSV keeps of a duration
    optdemo = harness.default_config("optdemo", n_queries=30)
    optdemo.opt.delay_s = 0.0
    optdemo.output.results_path = str(tmp_path / "opt.csv")
    for config in (small_parabolic(tmp_path, n_queries=40), optdemo):
        result = harness.run(config)
        ran = result.summary.to_dict()
        reported = harness.report(config.output.results_path).to_dict()
        ran_means, reported_means = ran.pop("eval_mean_s"), reported.pop("eval_mean_s")
        assert reported == ran
        assert reported_means.keys() == ran_means.keys()
        for stage, mean in ran_means.items():
            assert reported_means[stage] == pytest.approx(mean, rel=1e-6)
        assert sum(ran["evaluations"].values()) > ran["n_queries"]
        assert ran["adaptation_total"] > 0
        mirror = json.loads(json.dumps(reported))
        assert mirror["n_queries"] == config.n_queries


def test_report_malformed_rows_named(tmp_path):
    path = tmp_path / "bad.csv"
    good = "0,1.0,2.0,3,ref,0.25,1e-3,0.0,0.0,5,12,"
    path.write_text(harness.csv_header(2, 3) + "\n" + good + "\n, bad row\n")
    with pytest.raises(ConfigurationError, match="row 2"):
        harness.report(path)
    path.write_text("not,a,header\n")
    with pytest.raises(ConfigurationError, match="header"):
        harness.report(path)
    path.write_text("")
    with pytest.raises(ConfigurationError, match="results file is empty"):
        harness.report(path)


def test_report_rejects_bad_stage_and_estimate(tmp_path):
    path = tmp_path / "bad2.csv"
    row = "0,1.0,2.0,7,ref,0.25,1e-3,0.0,0.0,5,12,"
    path.write_text(harness.csv_header(2, 3) + "\n" + row + "\n")
    with pytest.raises(ConfigurationError, match="row 1"):
        harness.report(path)
    row = "0,1.0,2.0,1,-0.5,0.25,1e-3,0.0,0.0,5,12,"
    path.write_text(harness.csv_header(2, 3) + "\n" + row + "\n")
    with pytest.raises(ConfigurationError, match="row 1"):
        harness.report(path)
    row = "0,1.0,2.0,3,ref,0.25,1e-3,0.0,0.0,5,12,3>2;9>7"
    path.write_text(harness.csv_header(2, 3) + "\n" + row + "\n")
    with pytest.raises(ConfigurationError, match="row 1: bad adaptation event"):
        harness.report(path)
    # non-finite mu, qoi or duration cells, negative durations and counts
    for row, message in (
            ("0,nan,2.0,3,ref,0.25,1e-3,0.0,0.0,5,12,", "non-finite"),
            ("0,1.0,inf,3,ref,0.25,1e-3,0.0,0.0,5,12,", "non-finite"),
            ("0,1.0,2.0,3,ref,nan,1e-3,0.0,0.0,5,12,", "non-finite"),
            ("0,1.0,2.0,3,ref,0.25,nan,0.0,0.0,5,12,", "non-finite"),
            ("0,1.0,2.0,3,ref,0.25,1e-3,0.0,inf,5,12,", "non-finite"),
            ("0,1.0,2.0,3,ref,0.25,1e-3,-5,0.0,5,12,", "negative"),
            ("0,1.0,2.0,3,ref,0.25,1e-3,0.0,0.0,-1,12,", "negative"),
            ("0,1.0,2.0,3,ref,0.25,1e-3,0.0,0.0,5,-12,", "negative")):
        path.write_text(harness.csv_header(2, 3) + "\n" + row + "\n")
        with pytest.raises(ConfigurationError, match=f"row 1: {message}"):
            harness.report(path)
    # the stage count comes from the header: stage 3 of a 2-stage file
    good = "0,1.0,2.0,2,ref,0.25,1e-3,0.0,5,12,"
    row = "1,1.0,2.0,3,ref,0.25,1e-3,0.0,5,12,"
    path.write_text(harness.csv_header(2, 2) + "\n" + good + "\n" + row + "\n")
    with pytest.raises(ConfigurationError, match="row 2: stage 3 out of range"):
        harness.report(path)
    # the estimate is "ref" at the last stage and only there
    number_last = "1,1.0,2.0,2,0.001,0.25,1e-3,0.0,5,12,"
    for first, bad_row in (("0,1.0,2.0,1,ref,0.25,1e-3,0.0,5,12,", 1),
                           ("0,1.0,2.0,1,5e-4,0.25,1e-3,0.0,5,12,", 2)):
        path.write_text(harness.csv_header(2, 2) + "\n" + first + "\n"
                        + number_last + "\n")
        with pytest.raises(ConfigurationError,
                           match=f"row {bad_row}: estimate '.*' at stage"):
            harness.report(path)


# ---------------------------------------------------------------- dumps


def test_dumps_written(tmp_path):
    config = small_parabolic(tmp_path, n_queries=8, ml={"enabled": True})
    config.output.dumps = {
        "trajectory": str(tmp_path / "traj.csv"),
        "basis": str(tmp_path / "basis.csv"),
        "training": str(tmp_path / "train.csv"),
    }
    result = harness.run(config)
    trajectory = np.loadtxt(tmp_path / "traj.csv", delimiter=",")
    assert trajectory.shape == (config.fom.K + 1, config.fom.n_h)
    # the state of the run's last reference answer, bit for bit
    last = next(record.answer for record in reversed(result.records)
                if record.answer.is_reference)
    np.testing.assert_array_equal(trajectory[-1], last.payload.u_final)
    basis = np.loadtxt(tmp_path / "basis.csv", delimiter=",", ndmin=2)
    assert basis.shape[0] == config.fom.n_h
    assert basis.shape[1] == result.scenario.rb_level.reduced_system.N
    meta = (tmp_path / "basis.csv.meta").read_text()
    assert f"N={result.scenario.rb_level.reduced_system.N}" in meta
    train = np.loadtxt(tmp_path / "train.csv", delimiter=",", ndmin=2)
    assert train.shape[0] == result.scenario.ml_level.regressor.n_train


def test_baseline_trajectory_dump(tmp_path):
    config = small_parabolic(tmp_path, n_queries=5)
    config.output.dumps = {"trajectory": str(tmp_path / "traj.csv")}
    result = harness.baseline(config)
    last = result.records[-1].answer
    assert last.is_reference
    trajectory = np.loadtxt(tmp_path / "traj.csv", delimiter=",")
    assert trajectory.shape == (config.fom.K + 1, config.fom.n_h)
    np.testing.assert_array_equal(trajectory[-1], last.payload.u_final)


def test_training_dump_needs_the_learned_stage(tmp_path):
    out, train = tmp_path / "run.csv", tmp_path / "train.csv"
    args = ["run", "--queries", "3", "--out", str(out),
            "--dump-training", str(train)]
    assert cli_main(args) == 2  # refused before any query runs
    assert not out.exists() and not train.exists()
    assert cli_main(args + ["--ml"]) == 0
    assert out.exists() and train.exists()


def test_empty_trajectory_dump_is_reported(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code = cli_main(["run", "--queries", "0", "--out", str(tmp_path / "r.csv"),
                     "--dump-trajectory", str(path)])
    assert code == 0 and not path.exists()
    err = capsys.readouterr().err
    assert "no full-order trajectory" in err and str(path) in err


def test_optdemo_training_dump(tmp_path):
    config = harness.default_config(
        "optdemo", n_queries=3, opt={"delay_s": 0.0},
        output={"results_path": str(tmp_path / "opt.csv"),
                "dumps": {"training": str(tmp_path / "train.csv")}})
    result = harness.run(config)
    regressor = result.scenario.opt_surrogate.regressor
    train = np.loadtxt(tmp_path / "train.csv", delimiter=",", ndmin=2)
    assert regressor.n_train > 0
    # one (x_1, x_2, J) row per stored pair
    assert train.shape == (regressor.n_train, 3)


# ---------------------------------------------------------------- cli


def test_cli_run_and_report(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli_main(["run", "--queries", "6", "--seed", "5",
                     "--out", str(out)])
    assert code == 0
    assert out.exists()
    ran = capsys.readouterr().out.splitlines()
    json_out = tmp_path / "summary.json"
    code = cli_main(["report", str(out), "--out", str(json_out)])
    assert code == 0
    reported = capsys.readouterr().out.splitlines()
    mirror = json.loads(json_out.read_text())
    assert mirror["n_queries"] == 6
    # the same block, apart from the mean evaluation times the CSV rounds
    def block(lines):
        return [line.split("mean eval")[0] for line in lines
                if not line.startswith(("  wall time", "results written",
                                        "summary written"))]
    assert block(reported) == block(ran)
    assert len(block(ran)) == 1 + 2 + 4  # stage 1 is RB, stage 2 the FOM


def test_cli_overrides_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "parabolic", "n_queries": 3,
                                "fom": {"n_h": 40, "K": 10},
                                "output": {"results_path": str(tmp_path / "x.csv")}}))
    code = cli_main(["run", "--config", str(path), "--queries", "4",
                     "--out", str(tmp_path / "y.csv")])
    assert code == 0
    rows = harness.read_results(str(tmp_path / "y.csv"))[0]
    assert len(rows) == 4


def test_cli_scenario_override_takes_its_defaults(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"scenario": "parabolic", "n_queries": 3}))
    parser = cli.build_parser()
    overridden = cli._load_config(parser.parse_args(
        ["run", "--config", str(path), "--scenario", "optdemo"]))
    plain = cli._load_config(parser.parse_args(["run", "--scenario", "optdemo"]))
    assert overridden.parameter_box == plain.parameter_box == [[-5.0, 5.0]] * 2
    assert overridden.ml.enabled is plain.ml.enabled is True
    assert overridden.n_queries == 3


@pytest.mark.parametrize("command", ["run", "baseline"])
@pytest.mark.parametrize("scenario", ["parabolic", "optdemo"])
def test_cli_ml_flag_roundtrip(tmp_path, command, scenario):
    parser = cli.build_parser()

    def enabled(*flags):
        args = parser.parse_args([command, "--scenario", scenario, *flags])
        return cli._load_config(args).ml.enabled

    assert enabled() is (scenario == "optdemo")
    assert enabled("--ml") is True
    assert enabled("--no-ml") is False
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"ml": {"enabled": True},
                                "opt": {"TOL_grad": 0.5, "delay_s": 0.0}}))
    assert enabled("--config", str(path)) is True
    assert enabled("--config", str(path), "--no-ml") is False
    # a flag overrides one field; the rest of the section is kept
    args = parser.parse_args([command, "--scenario", scenario, "--no-ml",
                              "--tolerance", "0.25", "--config", str(path)])
    config = cli._load_config(args)
    assert config.opt.TOL_grad == 0.25 and config.opt.delay_s == 0.0


def test_cli_exit_codes(tmp_path):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{not json")
    assert cli_main(["run", "--config", str(bad_config)]) == 2
    assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    # a config that cannot be read or decoded is refused like a missing one
    assert cli_main(["run", "--config", str(tmp_path)]) == 2
    latin1_config = tmp_path / "latin1.json"
    latin1_config.write_bytes(b'{"seed": "\xe9"}')
    assert cli_main(["run", "--config", str(latin1_config)]) == 2
    # a NaN tolerance would send every query on to the reference, and an
    # infinite box bound would reach the solvers
    nan_out = tmp_path / "nan.csv"
    assert cli_main(["run", "--tolerance", "nan", "--queries", "60",
                     "--out", str(nan_out)]) == 2
    assert not nan_out.exists()
    inf_box = tmp_path / "inf_box.json"
    inf_box.write_text('{"parameter_box": [[0.1, Infinity], [0.1, 10.0]]}')
    assert cli_main(["run", "--config", str(inf_box)]) == 2
    not_bool = tmp_path / "not_bool.json"
    not_bool.write_text('{"ml": {"enabled": "yes"}}')
    assert cli_main(["run", "--config", str(not_bool)]) == 2
    # a non-number in a float field is a configuration error, not a crash
    not_number = tmp_path / "not_number.json"
    not_number.write_text('{"fom": {"T": "x"}}')
    assert cli_main(["run", "--config", str(not_number)]) == 2
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("query_id,nope\n")
    assert cli_main(["report", str(bad_csv)]) == 2
    latin1_csv = tmp_path / "latin1.csv"
    latin1_csv.write_bytes(b"query_id,mu_\xe9\n")
    assert cli_main(["report", str(latin1_csv)]) == 2
    assert cli_main(["report", str(tmp_path / "missing.csv")]) == 3
    # a dump the scenario cannot write is refused before any query runs
    opt_out = tmp_path / "opt.csv"
    assert cli_main(["run", "--scenario", "optdemo", "--queries", "5",
                     "--out", str(opt_out),
                     "--dump-basis", str(tmp_path / "b.csv")]) == 2
    assert not opt_out.exists() and not (tmp_path / "b.csv").exists()
    # unwritable output directory -> I/O failure
    assert cli_main(["run", "--queries", "1",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3


def test_cli_verify_and_sabotage(tmp_path, monkeypatch):
    assert cli_main(["verify", "--seed", "2"]) == 0
    flip_online_load_column(monkeypatch)
    assert cli_main(["verify", "--seed", "2"]) == 1


def test_cli_removed_config_keys_refused(tmp_path, capsys):
    # algorithm settings are module constants: naming one is an error, never
    # silently ignored
    out = tmp_path / "x.csv"
    for removed in ({"fom": {"source": "one"}}, {"fom": {"u0": "zero"}},
                    {"rb": {"pod_tol": 1e-13}}, {"rb": {"n_add_max": 12}},
                    {"rb": {"N_max": 120}}, {"ml": {"n_min": 10}},
                    {"ml": {"lengthscale": 0.12}}, {"ml": {"ridge": 1e-8}},
                    {"opt": {"max_iters": 500}}):
        path = tmp_path / "removed.json"
        path.write_text(json.dumps(removed))
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "unknown keys" in capsys.readouterr().err
        assert not out.exists()


def test_cli_verify_is_parabolic_only(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--scenario", "optdemo"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --scenario" in capsys.readouterr().err
    path = tmp_path / "opt.json"
    path.write_text(json.dumps({"scenario": "optdemo"}))
    assert cli_main(["verify", "--config", str(path)]) == 2
    assert "parabolic scenario only" in capsys.readouterr().err


def test_cli_shards_flag_removed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["baseline", "--queries", "4", "--shards", "2",
                  "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err


def test_cli_optdemo_run(tmp_path):
    out = tmp_path / "opt.csv"
    code = cli_main(["run", "--scenario", "optdemo", "--queries", "4",
                     "--out", str(out)])
    assert code == 0
    rows, n_stages = harness.read_results(str(out))
    assert n_stages == 2 and len(rows) == 4
    assert all(row.stage in (1, 2) and len(row.mu) == 2 for row in rows)
    header = out.read_text().splitlines()[0]
    assert header.endswith(",qoi,dur_s1,dur_s2,basis_n,ml_n,events")


def test_certified_monte_carlo_rows(tmp_path):
    # for every surrogate row, |qoi - qoi_fom(mu)| <= c_l * estimate,
    # re-verified against fresh full-order solves on a 25-row subsample
    from mfhier import compute_qoi, solve_fom
    config = small_parabolic(tmp_path, n_queries=40)
    result = harness.run(config)
    system = result.scenario.system
    surrogate_records = [r for r in result.records
                         if not r.answer.is_reference][:25]
    assert surrogate_records
    for record in surrogate_records:
        qoi_fom = compute_qoi(system, solve_fom(system, record.mu).states[-1])
        bound = system.qoi_const * record.answer.estimate
        assert abs(record.answer.payload.qoi - qoi_fom) <= bound + 1e-12


# ------------------------------------------------ statistical time ordering


def test_mean_eval_time_ordering_with_enough_samples(tmp_path):
    # statistical check: only compare stages with >= 50 evaluations
    config = small_parabolic(tmp_path, n_queries=150)
    result = harness.run(config)
    s = result.summary
    for cheap in range(1, result.scenario.levels_total):
        costly = cheap + 1
        if s.evaluations[cheap] >= 50 and s.evaluations[costly] >= 50:
            assert s.eval_mean_s[cheap] < s.eval_mean_s[costly]


# ---------------------------------------------------------------- BLAS threads


def test_run_uses_one_blas_thread_and_restores_the_callers(monkeypatch):
    controls = harness._openblas_thread_controls()
    if not controls:
        pytest.skip("no vendored OpenBLAS found")
    counts_in_solve = []
    solve_fom = fom.solve_fom

    def counting_solve(system, mu):
        counts_in_solve.append([get() for get, _ in controls])
        return solve_fom(system, mu)

    monkeypatch.setattr(fom, "solve_fom", counting_solve)
    initial = [get() for get, _ in controls]
    config = harness.default_config("parabolic", n_queries=5)
    config.output.results_path = ""
    try:
        for _, set_ in controls:
            set_(2)
        caller = [get() for get, _ in controls]
        harness.run(config)
        after = [get() for get, _ in controls]
    finally:
        for (_, set_), count in zip(controls, initial):
            set_(count)
    assert counts_in_solve and all(counts == [1] * len(controls)
                                   for counts in counts_in_solve)
    assert after == caller
