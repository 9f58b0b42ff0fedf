"""Outer loops, configuration, verification and reporting.

This is the multi-query driver around the hierarchy: it draws seeded
parameter streams, runs them through a scenario ("parabolic" or
"optdemo"), writes one CSV row per query, and aggregates summaries.  The
`baseline` entry point answers the same stream with the reference model
alone (adaptation disabled, so the cheap stages never become ready), which
is the speedup reference.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fom, mlsurrogate, optdemo, rb
from .errors import ConfigurationError
from .hierarchy import REFERENCE, ModelHierarchy, ParameterBox
from .rng import SplitMix64

CSV_EVENT_SEP = ";"


# ----------------------------------------------------------------------
# Configuration


@dataclass
class FomConfig:
    n_h: int = 200
    K: int = 100
    T: float = 1.0
    Q: int = 2
    source: str = "one"
    u0: str = "zero"


@dataclass
class RbConfig:
    pod_tol: float = 1e-13
    n_add_max: int = 12
    N_max: int = 60


@dataclass
class MlConfig:
    n_min: int = 10
    lengthscale: float = 0.12  # box-scaled units
    ridge: float = 1e-8

    def __post_init__(self):
        for name in ("lengthscale", "ridge"):
            value = getattr(self, name)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or value <= 0):
                raise ConfigurationError(f"ml.{name} must be a positive number, "
                                         f"got {value!r}")


@dataclass
class OptConfig:
    TOL_grad: float = 1e-3
    max_iters: int = 500
    delay_s: float = 0.002


@dataclass
class OutputConfig:
    results_path: str = "results.csv"
    dumps: dict = field(default_factory=dict)  # {"trajectory"|"basis"|"training": path}


@dataclass
class RunConfig:
    scenario: str = "parabolic"
    tolerance: float = 1e-3
    n_queries: int = 400
    seed: int = 42
    parameter_box: list = None
    fom: FomConfig = field(default_factory=FomConfig)
    rb: RbConfig = field(default_factory=RbConfig)
    ml: MlConfig = None  # scenario-dependent default, see __post_init__
    opt: OptConfig = field(default_factory=OptConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if self.scenario not in ("parabolic", "optdemo"):
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.ml is None:
            # the optimization surrogate interpolates sharply clustered
            # descent data and needs a much smaller ridge than the
            # coefficient surrogate
            self.ml = (MlConfig() if self.scenario == "parabolic"
                       else MlConfig(ridge=optdemo.OPT_RIDGE_DEFAULT))
        if self.tolerance < 0:
            raise ConfigurationError("tolerance must be >= 0")
        if self.n_queries < 0:
            raise ConfigurationError("n_queries must be >= 0")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigurationError("seed must fit in 64 bits")
        if self.parameter_box is None:
            self.parameter_box = ([[0.1, 10.0]] * self.fom.Q
                                  if self.scenario == "parabolic"
                                  else [[-5.0, 5.0], [-5.0, 5.0]])
        for pair in self.parameter_box:
            if len(pair) != 2 or not float(pair[0]) < float(pair[1]):
                raise ConfigurationError(f"bad box interval {pair!r}")
        if self.scenario == "parabolic":
            if len(self.parameter_box) != self.fom.Q:
                raise ConfigurationError("parameter box dimension must equal fom.Q")
            if any(float(pair[0]) <= 0 for pair in self.parameter_box):
                raise ConfigurationError("diffusivity box must be positive")

    @property
    def box(self) -> ParameterBox:
        return ParameterBox(self.parameter_box)

    @property
    def hierarchy_tolerance(self) -> float:
        """TOL of the acceptance check; the gradient threshold for optdemo."""
        return self.opt.TOL_grad if self.scenario == "optdemo" else self.tolerance


def _coerce_section(cls, data, name):
    if not isinstance(data, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in section {name!r}")
    return cls(**data)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    data = dict(data)
    sections = {"fom": FomConfig, "rb": RbConfig, "ml": MlConfig,
                "opt": OptConfig, "output": OutputConfig}
    kwargs = {}
    for key, value in data.items():
        if key in sections:
            kwargs[key] = _coerce_section(sections[key], value, key)
        elif key in {f.name for f in dataclasses.fields(RunConfig)}:
            kwargs[key] = value
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    try:
        return RunConfig(**kwargs)
    except TypeError as err:
        raise ConfigurationError(str(err)) from None


def read_config(path):
    """The JSON config document at ``path``, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from None


def load_config(path) -> RunConfig:
    return config_from_dict(read_config(path))


def default_config(scenario: str = "parabolic", **overrides) -> RunConfig:
    return config_from_dict({"scenario": scenario, **overrides})


# ----------------------------------------------------------------------
# Scenario wiring


@dataclass
class Scenario:
    hierarchy: ModelHierarchy
    system: fom.AffineSystem = None
    rb_level: rb.ReducedBasisLevel = None
    ml_level: mlsurrogate.MLCoefficientLevel = None
    oracle: optdemo.ObjectiveOracle = None
    opt_surrogate: optdemo.SurrogateObjectiveLevel = None

    @property
    def levels_total(self) -> int:
        return len(self.hierarchy.levels)

    def basis_n(self) -> int:
        return self.rb_level.basis.N if self.rb_level is not None else 0

    def ml_n(self) -> int:
        level = self.ml_level or self.opt_surrogate
        return level.regressor.n_train if level is not None else 0


def build_scenario(config: RunConfig, adaptation_enabled: bool = True) -> Scenario:
    box = config.box
    if config.scenario == "parabolic":
        system = fom.assemble(config.fom.n_h, config.fom.K, config.fom.T,
                              config.fom.Q, source=config.fom.source,
                              u0=config.fom.u0)
        fom_level = fom.FullOrderLevel(system)
        rb_level = rb.ReducedBasisLevel(system, pod_tol=config.rb.pod_tol,
                                        n_add_max=config.rb.n_add_max,
                                        n_max=config.rb.N_max)
        ml_level = mlsurrogate.MLCoefficientLevel(
            box, rb_level, n_min=config.ml.n_min,
            lengthscale=config.ml.lengthscale, ridge=config.ml.ridge)
        hierarchy = ModelHierarchy([ml_level, rb_level, fom_level],
                                   tolerance=config.hierarchy_tolerance,
                                   box=box, adaptation_enabled=adaptation_enabled)
        return Scenario(hierarchy=hierarchy, system=system,
                        rb_level=rb_level, ml_level=ml_level)

    oracle = optdemo.ObjectiveOracle(delay_s=config.opt.delay_s)
    full_level = optdemo.FullObjectiveLevel(oracle, box,
                                            max_iters=config.opt.max_iters)
    surrogate = optdemo.SurrogateObjectiveLevel(
        oracle, box, n_min=config.ml.n_min,
        lengthscale=config.ml.lengthscale, ridge=config.ml.ridge,
        max_iters=config.opt.max_iters)
    hierarchy = ModelHierarchy([surrogate, full_level],
                               tolerance=config.hierarchy_tolerance,
                               box=box, adaptation_enabled=adaptation_enabled)
    return Scenario(hierarchy=hierarchy, oracle=oracle,
                    opt_surrogate=surrogate)


def draw_parameters(config: RunConfig) -> np.ndarray:
    """The seeded query stream: component-ordered SplitMix64 draws."""
    rng = SplitMix64(config.seed)
    box = config.box
    return np.array([box.sample(rng) for _ in range(config.n_queries)]
                    ).reshape(config.n_queries, box.dim)


# ----------------------------------------------------------------------
# Results table


class ResultRow(NamedTuple):
    """One query of a results table, as run builds it and the CSV holds it."""

    query_id: int
    mu: tuple
    stage: int
    estimate: float | None  # None for a reference-stage answer ("ref")
    qoi: float               # the objective value for optdemo
    durations: tuple         # evaluation time per stage, 0 if not attempted
    basis_n: int
    ml_n: int
    events: tuple            # adaptation events, (source, target) pairs


def csv_header(dim: int, n_stages: int) -> str:
    mu_cols = ",".join(f"mu_{i + 1}" for i in range(dim))
    dur_cols = ",".join(f"dur_s{s + 1}" for s in range(n_stages))
    return f"query_id,{mu_cols},stage,estimate,qoi,{dur_cols},basis_n,ml_n,events"


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise ConfigurationError(f"non-finite value {value!r} in results")
    return format(value, ".17g")


def result_row(record, qoi: float, basis_n: int, ml_n: int,
               n_stages: int) -> ResultRow:
    durations = [0.0] * n_stages
    for attempt in record.answer.attempts:
        durations[attempt.stage - 1] = attempt.duration_s
    estimate = record.answer.estimate
    return ResultRow(record.query_id, tuple(record.mu.tolist()),
                     record.answer.stage,
                     None if estimate is REFERENCE else float(estimate),
                     float(qoi), tuple(durations), basis_n, ml_n,
                     tuple(record.adaptation_events))


def _format_row(row: ResultRow) -> str:
    estimate = "ref" if row.estimate is None else _fmt(row.estimate)
    events = CSV_EVENT_SEP.join(f"{s}>{t}" for s, t in row.events)
    cells = ([str(row.query_id)] + [_fmt(v) for v in row.mu]
             + [str(row.stage), estimate, _fmt(row.qoi)]
             + [format(d, ".6e") for d in row.durations]
             + [str(row.basis_n), str(row.ml_n), events])
    return ",".join(cells)


def _write_results(path, rows, dim: int, n_stages: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_header(dim, n_stages) + "\n")
        for row in rows:
            fh.write(_format_row(row) + "\n")


def _parse_row(line: str, dim: int, n_stages: int, row_number: int) -> ResultRow:
    cells = line.split(",")
    # query_id + mu + (stage, estimate, qoi) + durations + (basis_n, ml_n) + events
    expected = 1 + dim + 3 + n_stages + 2 + 1
    if len(cells) != expected:
        raise ConfigurationError(
            f"results row {row_number}: expected {expected} cells, "
            f"got {len(cells)}")
    try:
        raw_estimate = cells[2 + dim]
        estimate = None if raw_estimate == "ref" else float(raw_estimate)
        if estimate is not None and (not math.isfinite(estimate) or estimate < 0):
            raise ValueError(f"bad estimate {raw_estimate!r}")
        events = []
        if cells[-1]:
            for token in cells[-1].split(CSV_EVENT_SEP):
                src, tgt = (int(stage) for stage in token.split(">"))
                if not n_stages >= src > tgt >= 1:
                    raise ValueError(f"bad adaptation event {token!r}")
                events.append((src, tgt))
        row = ResultRow(
            query_id=int(cells[0]),
            mu=tuple(float(c) for c in cells[1:1 + dim]),
            stage=int(cells[1 + dim]),
            estimate=estimate,
            qoi=float(cells[3 + dim]),
            durations=tuple(float(c) for c in cells[4 + dim:4 + dim + n_stages]),
            basis_n=int(cells[4 + dim + n_stages]),
            ml_n=int(cells[5 + dim + n_stages]),
            events=tuple(events))
        if not 1 <= row.stage <= n_stages:
            raise ValueError(f"stage {row.stage} out of range 1..{n_stages}")
    except (ValueError, IndexError) as err:
        raise ConfigurationError(f"results row {row_number}: {err}") from None
    return row


def read_results(path) -> tuple[list, int]:
    """Parse a results CSV; returns (rows, number of stages)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise ConfigurationError("results file is empty (missing header)")
    header = lines[0].split(",")
    dim = sum(1 for cell in header if cell.startswith("mu_"))
    n_stages = sum(1 for cell in header if cell.startswith("dur_s"))
    if dim == 0 or n_stages == 0 or lines[0] != csv_header(dim, n_stages):
        raise ConfigurationError("results header does not match the schema")
    rows = [_parse_row(line, dim, n_stages, i + 1)
            for i, line in enumerate(lines[1:]) if line]
    return rows, n_stages


# ----------------------------------------------------------------------
# Stream summary


@dataclass
class StreamSummary:
    """Per-stream statistics; every per-stage dict has the keys 1..n_stages."""

    n_queries: int
    accepted: dict          # stage -> answers accepted there
    fractions: dict         # stage -> accepted / n_queries
    evaluations: dict       # stage -> evaluations (accepted or rejected)
    eval_mean_s: dict       # stage -> mean evaluation time, None if never run
    accepted_halves: tuple  # (first half, second half), each stage -> accepted
    adaptation: dict        # (source, target) -> events
    adaptation_total: int
    qoi_mean: float
    estimate_mean: float    # mean accepted estimate, "ref" counted as 0

    def to_dict(self) -> dict:
        def keyed(d):  # JSON needs string keys
            return {str(key): value for key, value in d.items()}
        first, second = self.accepted_halves
        return {
            "n_queries": self.n_queries,
            "accepted": keyed(self.accepted),
            "fractions": keyed(self.fractions),
            "evaluations": keyed(self.evaluations),
            "eval_mean_s": keyed(self.eval_mean_s),
            "accepted_halves": {"first": keyed(first), "second": keyed(second)},
            "adaptation": {f"{s}>{t}": c for (s, t), c in self.adaptation.items()},
            "adaptation_total": self.adaptation_total,
            "qoi_mean": self.qoi_mean,
            "estimate_mean": self.estimate_mean,
        }

    def format(self) -> str:
        lines = [f"queries: {self.n_queries}"]
        for stage, accepted in self.accepted.items():
            mean = self.eval_mean_s[stage]
            mean_text = f"{mean * 1e3:9.3f} ms" if mean is not None else "        -"
            lines.append(
                f"  stage {stage}: accepted {accepted:5d} "
                f"({self.fractions[stage]:7.2%})   "
                f"evaluations {self.evaluations[stage]:5d}   "
                f"mean eval {mean_text}")
        first, second = self.accepted_halves
        lines.append("  accepted per half: "
                     + " ".join(f"s{st}:{first[st]}/{second[st]}" for st in first)
                     + "  (first/second)")
        lines.append(f"  adaptation events: {self.adaptation_total}  "
                     + " ".join(f"{s}>{t}:{c}"
                                for (s, t), c in self.adaptation.items()))
        lines.append(f"  qoi mean: {self.qoi_mean:.10g}")
        lines.append(f"  estimate mean: {self.estimate_mean:.3e}")
        return "\n".join(lines)


def summarize(rows, n_stages: int) -> StreamSummary:
    """Aggregate a results table: per-stage counts and times, the accepted
    stages of each half of the stream (the adaptive load shift), the
    adaptation events and the means of the QoI and the accepted estimate."""
    stages = range(1, n_stages + 1)
    n = len(rows)
    n_first = (n + 1) // 2
    accepted = dict.fromkeys(stages, 0)
    first, second = dict.fromkeys(stages, 0), dict.fromkeys(stages, 0)
    evaluations = dict.fromkeys(stages, 0)
    eval_total = dict.fromkeys(stages, 0.0)
    adaptation = {}
    for i, row in enumerate(rows):
        accepted[row.stage] += 1
        (first if i < n_first else second)[row.stage] += 1
        for stage, duration in zip(stages, row.durations):
            if duration > 0:
                evaluations[stage] += 1
                eval_total[stage] += duration
        for event in row.events:
            adaptation[event] = adaptation.get(event, 0) + 1
    return StreamSummary(
        n_queries=n,
        accepted=accepted,
        fractions={s: c / n if n else 0.0 for s, c in accepted.items()},
        evaluations=evaluations,
        eval_mean_s={s: eval_total[s] / c if c else None
                     for s, c in evaluations.items()},
        accepted_halves=(first, second),
        adaptation=dict(sorted(adaptation.items())),
        adaptation_total=sum(adaptation.values()),
        qoi_mean=sum(row.qoi for row in rows) / n if n else 0.0,
        estimate_mean=(sum(row.estimate for row in rows
                           if row.estimate is not None) / n if n else 0.0),
    )


def report(path) -> StreamSummary:
    """Aggregate a results CSV into the summary its run printed."""
    return summarize(*read_results(path))


# ----------------------------------------------------------------------
# run / baseline


@dataclass
class RunResult:
    config: RunConfig
    records: list
    rows: list  # ResultRow per query, as written to the results CSV
    summary: StreamSummary
    wall_s: float
    scenario: Scenario


def _execute(config: RunConfig, adaptation_enabled: bool) -> RunResult:
    scenario = build_scenario(config, adaptation_enabled=adaptation_enabled)
    parameters = draw_parameters(config)
    n_stages = scenario.levels_total
    rows = []

    def on_record(record):
        payload = record.answer.payload
        qoi = payload.qoi if config.scenario == "parabolic" else payload.j
        rows.append(result_row(record, qoi, scenario.basis_n(), scenario.ml_n(),
                               n_stages))

    t0 = time.perf_counter()
    records = scenario.hierarchy.run_query_stream(parameters, on_record=on_record)
    wall_s = time.perf_counter() - t0

    result = RunResult(config=config, records=records, rows=rows,
                       summary=summarize(rows, n_stages),
                       wall_s=wall_s, scenario=scenario)
    if config.output.results_path:
        _write_results(config.output.results_path, rows, config.box.dim, n_stages)
    _write_dumps(config, scenario, records)
    return result


def _write_dumps(config: RunConfig, scenario: Scenario, records) -> None:
    dumps = config.output.dumps or {}
    if "basis" in dumps and scenario.rb_level is not None:
        rb.dump_basis(scenario.rb_level.basis, scenario.rb_level.pod_tol,
                      dumps["basis"])
    if "training" in dumps and scenario.ml_level is not None:
        mlsurrogate.dump_training(scenario.ml_level.regressor, dumps["training"])
    if "trajectory" in dumps:
        for record in reversed(records):
            trajectory = getattr(record.answer.payload, "trajectory", None)
            if trajectory is not None:
                fom.dump_trajectory(trajectory, dumps["trajectory"])
                break


def run(config: RunConfig) -> RunResult:
    """Full adaptive hierarchy over the seeded stream."""
    return _execute(config, adaptation_enabled=True)


def baseline(config: RunConfig) -> RunResult:
    """Reference-model-only answers for the identical stream.

    Adaptation is disabled, so the surrogate stages never become ready and
    every query falls through to the top stage; same CSV schema.
    """
    return _execute(config, adaptation_enabled=False)


# ----------------------------------------------------------------------
# verify


@dataclass
class Check:
    name: str
    value: float
    bound: float
    passed: bool
    note: str = ""


@dataclass
class VerifyReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"[{status}] {c.name}: value={c.value:.6e} "
                         f"bound={c.bound:.6e}{note}")
        lines.append("verify: " + ("all checks passed" if self.all_passed
                                   else "FAILURES present"))
        return "\n".join(lines)


def _analytic_error(n_h: int, K: int, T: float, Q: int) -> float:
    """Max-node error of the discrete solution against the closed-form
    single-sine heat mode e^{-pi^2 t} sin(pi x) at unit diffusivity."""
    system = fom.assemble(n_h, K, T, Q, source="zero", u0="sine")
    trajectory = fom.solve_fom(system, np.ones(Q))
    exact = math.exp(-math.pi**2 * T) * np.sin(np.pi * system.nodes())
    return float(np.max(np.abs(trajectory.states[-1] - exact)))


def verify(config: RunConfig) -> VerifyReport:
    """User-facing correctness suite; see README for the check list."""
    checks = []
    fc = config.fom

    # 1. analytic heat mode at the configured resolution (T fixed at 0.1,
    #    the analytic configuration) with a resolution-aware bound, plus
    #    the refinement ratio of a (2 n_h + 1, 4 K) refinement.
    T_a = 0.1
    h = 1.0 / (fc.n_h + 1)
    dt = T_a / fc.K
    err_coarse = _analytic_error(fc.n_h, fc.K, T_a, fc.Q)
    bound = 3.0 * T_a * math.exp(-math.pi**2 * T_a) * math.pi**4 * (
        dt / 2.0 + h**2 / 12.0)
    checks.append(Check("fom analytic error (bound ~ h^2 + dt)",
                        err_coarse, bound, err_coarse <= bound,
                        note=f"n_h={fc.n_h} K={fc.K}"))
    err_fine = _analytic_error(2 * fc.n_h + 1, 4 * fc.K, T_a, fc.Q)
    ratio = err_coarse / err_fine if err_fine > 0 else float("inf")
    checks.append(Check("fom refinement ratio in [3.2, 4.8]", ratio, 4.8,
                        3.2 <= ratio <= 4.8))

    # the parabolic checks draw diffusivities; optdemo's box is not one
    system = fom.assemble(fc.n_h, fc.K, fc.T, fc.Q, source=fc.source, u0=fc.u0)
    box = (config.box if config.scenario == "parabolic"
           else ParameterBox([[0.1, 10.0]] * fc.Q))

    # 2. offline/online residual norm equality on random bases/coefficients
    worst = _offline_online_discrepancy(system, box, config, trials=50)
    checks.append(Check("offline/online residual norms (relative)",
                        worst, 1e-8, worst <= 1e-8))

    # 3. X-orthonormality of an adaptively grown basis
    basis, reduced_system = _grown_basis(system, box, config)
    gram = basis.V.T @ (system.X @ basis.V)
    ortho = float(np.max(np.abs(gram - np.eye(basis.N)))) if basis.N else 0.0
    checks.append(Check("basis X-orthonormality max|V^T X V - I|",
                        ortho, 1e-8, ortho <= 1e-8, note=f"N={basis.N}"))

    # 4. estimator rigor on random triples (true error by fresh FOM solves)
    margin = _rigor_margin(system, box, config, basis, reduced_system,
                           trials=25)
    checks.append(Check("estimator rigor min(Delta - true error)",
                        margin, -1e-10, margin >= -1e-10))
    return VerifyReport(checks)


def _random_basis(system, rng, n_vectors: int) -> rb.ReducedBasis:
    W = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n_vectors)]
                  for _ in range(system.n_h)])
    V = rb._x_orthonormalize(system, np.zeros((system.n_h, 0)), W)
    return rb.ReducedBasis(V=V, generation=1)


def _offline_online_discrepancy(system, box, config, trials: int) -> float:
    rng = SplitMix64(config.seed ^ 0xA5A5A5A5)
    worst = 0.0
    for _ in range(trials):
        basis = _random_basis(system, rng, 4)
        reduced_system = rb.build_reduced_system(system, basis)
        mu = box.sample(rng)
        coeffs = np.array([[rng.uniform(-1.0, 1.0) for _ in range(basis.N)]
                           for _ in range(system.K + 1)])
        trajectory = rb.ReducedTrajectory(coefficients=coeffs, mu=mu,
                                          generation=1, producer="rb")
        online = rb.residual_dual_norms(reduced_system, mu, trajectory)
        direct = _direct_residual_norms(system, basis, mu, coeffs)
        scale = max(float(np.max(direct)), 1e-30)
        worst = max(worst, float(np.max(np.abs(online - direct))) / scale)
    return worst


def _direct_residual_norms(system, basis, mu, coeffs) -> np.ndarray:
    """Brute-force oracle: assemble each residual in full space and lift."""
    U = coeffs @ basis.V.T  # (K+1, n_h)
    norms = np.empty(system.K)
    for k in range(1, system.K + 1):
        r = (system.F - (system.M @ (U[k] - U[k - 1])) / system.dt
             - sum(m_q * (A_q @ U[k]) for m_q, A_q in zip(mu, system.A)))
        rho = system.x_solve(r)
        norms[k - 1] = np.sqrt(max(float(r @ rho), 0.0))
    return norms


def _grown_basis(system, box, config):
    """A basis grown by three full-order solves, with its reduced system."""
    rng = SplitMix64(config.seed ^ 0x5A5A5A5A)
    basis = rb.ReducedBasis.empty(system.n_h)
    reduced_system = rb.build_reduced_system(system, basis)
    for _ in range(3):
        trajectory = fom.solve_fom(system, box.sample(rng))
        basis, reduced_system, _ = rb.extend_basis(
            basis, reduced_system, system, trajectory,
            pod_tol=config.rb.pod_tol, n_add_max=config.rb.n_add_max,
            n_max=config.rb.N_max)
    return basis, reduced_system


def _rigor_margin(system, box, config, basis, reduced_system,
                  trials: int) -> float:
    """min over samples of (Delta - true final-time M-norm error)."""
    rng = SplitMix64(config.seed ^ 0x3C3C3C3C)
    margin = float("inf")
    for trial in range(trials):
        mu = box.sample(rng)
        if trial % 2 == 0:
            trajectory = rb.solve_rb(reduced_system, mu)
        else:
            coeffs = np.array([[rng.uniform(-0.5, 0.5) for _ in range(basis.N)]
                               for _ in range(system.K + 1)])
            trajectory = rb.ReducedTrajectory(coefficients=coeffs, mu=mu,
                                              generation=basis.generation,
                                              producer="ml")
        delta = rb.error_estimate(reduced_system, mu, trajectory)
        u_true = fom.solve_fom(system, mu).states[-1]
        u_red = rb.reconstruct_final(basis, trajectory)
        margin = min(margin, delta - system.m_norm(u_true - u_red))
    return margin
