import dataclasses
import json

import numpy as np
import pytest

from mfhier import cli, harness, rb
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


def test_config_from_json_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "scenario": "parabolic", "tolerance": 5e-3, "n_queries": 7,
        "seed": 99, "parameter_box": [[0.5, 2.0], [0.5, 2.0]],
        "fom": {"n_h": 40, "K": 10},
        "rb": {"pod_tol": 1e-9, "n_add_max": 4, "N_max": 20},
        "ml": {"n_min": 5, "lengthscale": 0.2, "ridge": 1e-7},
        "output": {"results_path": "out.csv"},
    }))
    config = harness.load_config(path)
    assert config.fom.n_h == 40 and config.rb.N_max == 20
    assert config.ml.lengthscale == 0.2
    assert config.seed == 99


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
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ConfigurationError):
        harness.config_from_dict(bad)


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
    assert lines == [harness.csv_header(2, 3)]
    assert result.summary.n_queries == 0
    assert result.summary.qoi_mean == 0.0


def test_run_writes_schema_and_monotone_state(tmp_path):
    config = small_parabolic(tmp_path, n_queries=25)
    result = harness.run(config)
    rows, n_stages = harness.read_results(config.output.results_path)
    assert n_stages == 3 and len(rows) == 25
    # every cell but the durations, which the CSV rounds, reads back exactly
    assert ([row._replace(durations=()) for row in rows]
            == [row._replace(durations=()) for row in result.rows])
    basis_sizes = [row.basis_n for row in rows]
    ml_sizes = [row.ml_n for row in rows]
    assert basis_sizes == sorted(basis_sizes)
    assert ml_sizes == sorted(ml_sizes)
    for row in rows:
        assert len(row.mu) == 2
        if row.stage < 3:
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


def test_same_mu_twice_stage_does_not_increase(tmp_path):
    config = small_parabolic(tmp_path, n_queries=0)
    scenario = harness.build_scenario(config)
    mu = np.array([3.0, 0.7])
    records = scenario.hierarchy.run_query_stream([mu, mu])
    assert records[1].answer.stage <= records[0].answer.stage


# ---------------------------------------------------------------- baseline


def test_baseline_matches_zero_tolerance_run(tmp_path):
    config = small_parabolic(tmp_path, n_queries=12)
    config.output.results_path = str(tmp_path / "base.csv")
    base = harness.baseline(config)
    config_zero = small_parabolic(tmp_path, n_queries=12)
    config_zero.tolerance = 0.0
    config_zero.output.results_path = str(tmp_path / "zero.csv")
    zero = harness.run(config_zero)
    base_rows = harness.read_results(str(tmp_path / "base.csv"))[0]
    zero_rows = harness.read_results(str(tmp_path / "zero.csv"))[0]
    for row_b, row_z in zip(base_rows, zero_rows):
        assert row_b.stage == row_z.stage == 3  # always the top
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


def flip_online_g_fm(monkeypatch):
    """Flip the sign of g_fm in the reduced system the online residual
    norms see, a fault the offline/online check must catch."""
    online = rb.residual_dual_norms

    def flipped(reduced_system, mu, trajectory):
        return online(dataclasses.replace(reduced_system, g_fm=-reduced_system.g_fm),
                      mu, trajectory)

    monkeypatch.setattr(rb, "residual_dual_norms", flipped)


def test_verify_sabotage_fails_offline_online(monkeypatch):
    config = harness.default_config("parabolic")
    flip_online_g_fm(monkeypatch)
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
    # the stage count comes from the header: stage 3 of a 2-stage file
    good = "0,1.0,2.0,2,ref,0.25,1e-3,0.0,5,12,"
    row = "1,1.0,2.0,3,ref,0.25,1e-3,0.0,5,12,"
    path.write_text(harness.csv_header(2, 2) + "\n" + good + "\n" + row + "\n")
    with pytest.raises(ConfigurationError, match="row 2: stage 3 out of range"):
        harness.report(path)


# ---------------------------------------------------------------- dumps


def test_dumps_written(tmp_path):
    config = small_parabolic(tmp_path, n_queries=8)
    config.output.dumps = {
        "trajectory": str(tmp_path / "traj.csv"),
        "basis": str(tmp_path / "basis.csv"),
        "training": str(tmp_path / "train.csv"),
    }
    result = harness.run(config)
    trajectory = np.loadtxt(tmp_path / "traj.csv", delimiter=",")
    assert trajectory.shape == (config.fom.K + 1, config.fom.n_h)
    basis = np.loadtxt(tmp_path / "basis.csv", delimiter=",", ndmin=2)
    assert basis.shape[0] == config.fom.n_h
    assert basis.shape[1] == result.scenario.rb_level.basis.N
    meta = (tmp_path / "basis.csv.meta").read_text()
    assert f"N={result.scenario.rb_level.basis.N}" in meta
    train = np.loadtxt(tmp_path / "train.csv", delimiter=",", ndmin=2)
    assert train.shape[0] == result.scenario.ml_level.regressor.n_train


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
    assert len(block(ran)) == 1 + 3 + 4


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
    assert overridden.ml.ridge == plain.ml.ridge == 1e-12
    assert overridden.n_queries == 3


def test_cli_exit_codes(tmp_path):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{not json")
    assert cli_main(["run", "--config", str(bad_config)]) == 2
    assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("query_id,nope\n")
    assert cli_main(["report", str(bad_csv)]) == 2
    assert cli_main(["report", str(tmp_path / "missing.csv")]) == 3
    # unwritable output directory -> I/O failure
    assert cli_main(["run", "--queries", "1",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3


def test_cli_verify_and_sabotage(tmp_path, monkeypatch):
    assert cli_main(["verify", "--seed", "2"]) == 0
    flip_online_g_fm(monkeypatch)
    assert cli_main(["verify", "--seed", "2"]) == 1


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
    surrogate_records = [r for r in result.records if r.answer.stage < 3][:25]
    assert surrogate_records
    for record in surrogate_records:
        qoi_fom = compute_qoi(system, solve_fom(system, record.mu))
        bound = system.qoi_const * record.answer.estimate
        assert abs(record.answer.payload.qoi - qoi_fom) <= bound + 1e-12


# ------------------------------------------------ statistical time ordering


def test_mean_eval_time_ordering_with_enough_samples(tmp_path):
    # statistical check: only compare stages with >= 50 evaluations
    config = small_parabolic(tmp_path, n_queries=150)
    result = harness.run(config)
    s = result.summary
    means = [s.eval_mean_s[stage] for stage in (1, 2, 3)]
    counts = [s.evaluations[stage] for stage in (1, 2, 3)]
    for cheap, costly in ((0, 1), (1, 2)):
        if counts[cheap] >= 50 and counts[costly] >= 50:
            assert means[cheap] < means[costly]
