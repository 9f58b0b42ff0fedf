"""Outer loops, configuration, verification and reporting.

This is the multi-query driver around the hierarchy: it draws seeded
parameter streams, runs them through a scenario ("parabolic" or
"optdemo"), writes one CSV row per query, and aggregates summaries.  The
`baseline` entry point answers the same stream with a one-level hierarchy
of the scenario's reference model, which is the speedup reference.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import numbers
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import fom, mlsurrogate, optdemo, rb
from .errors import ConfigurationError
from .hierarchy import ModelHierarchy, ParameterBox
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


@dataclass
class MlConfig:
    enabled: bool | None = None  # None: the scenario's default, see _ML_DEFAULTS


@dataclass
class OptConfig:
    TOL_grad: float = 1e-3
    delay_s: float = 0.002


@dataclass
class OutputConfig:
    results_path: str = "results.csv"
    dumps: dict = field(default_factory=dict)  # {kind: path}, see _DUMP_KINDS


#: What each scenario can dump at the end of a run (``output.dumps`` keys).
_DUMP_KINDS = {"parabolic": ("trajectory", "basis", "training"),
              "optdemo": ("training",)}

#: ``ml.enabled`` of a config that leaves it out.  The learned coefficient
#: stage costs more than it saves on both parabolic streams, 1.7x the wall
#: of RB + FOM at Q=2 and 2.8x at Q=8 (README, "Which stages pay"), so it
#: is opt-in there; the optimization surrogate saves oracle calls.
_ML_DEFAULTS = {"parabolic": False, "optdemo": True}

#: Config fields that count something and must be integers (not bools).
_COUNT_FIELDS = ("n_queries", "seed", "fom.n_h", "fom.K", "fom.Q")

#: Config fields that must be real numbers (not bools, not NaN).
_REAL_FIELDS = ("tolerance", "fom.T", "opt.TOL_grad", "opt.delay_s")


@dataclass
class RunConfig:
    """What a run sets.  The levels' algorithm settings are their own
    defaults (``rb``, ``mlsurrogate``, ``optdemo``), not config fields."""

    scenario: str = "parabolic"
    tolerance: float = 1e-3
    n_queries: int = 400
    seed: int = 42
    parameter_box: list = None
    fom: FomConfig = field(default_factory=FomConfig)
    ml: MlConfig = field(default_factory=MlConfig)
    opt: OptConfig = field(default_factory=OptConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if self.scenario not in ("parabolic", "optdemo"):
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.ml.enabled is None:
            self.ml.enabled = _ML_DEFAULTS[self.scenario]
        if not isinstance(self.ml.enabled, bool):
            raise ConfigurationError("ml.enabled must be true or false, "
                                     f"got {self.ml.enabled!r}")
        for fields, kind, noun in (
                (_COUNT_FIELDS, numbers.Integral, "an integer"),
                (_REAL_FIELDS, numbers.Real, "a real number")):
            for path in fields:
                value = functools.reduce(getattr, path.split("."), self)
                if (isinstance(value, bool) or not isinstance(value, kind)
                        or value != value):  # NaN is not equal to itself
                    raise ConfigurationError(f"{path} must be {noun}, "
                                             f"got {value!r}")
        for path, value in (("tolerance", self.tolerance),
                            ("opt.TOL_grad", self.opt.TOL_grad)):
            if value < 0:
                raise ConfigurationError(f"{path} must be >= 0, got {value!r}")
        if not 0 < self.fom.T < math.inf:
            raise ConfigurationError("fom.T must be finite and > 0, "
                                     f"got {self.fom.T!r}")
        if not 0 <= self.opt.delay_s <= threading.TIMEOUT_MAX:
            raise ConfigurationError("opt.delay_s must be >= 0 and at most "
                                     "threading.TIMEOUT_MAX, "
                                     f"got {self.opt.delay_s!r}")
        if self.n_queries < 0:
            raise ConfigurationError("n_queries must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in 64 bits")
        dumps = self.output.dumps
        if not isinstance(dumps, dict):
            raise ConfigurationError("output.dumps must be an object mapping "
                                     "a dump kind to a path")
        kinds = _DUMP_KINDS[self.scenario]
        for kind, path in dumps.items():
            if kind not in kinds:
                raise ConfigurationError(
                    f"{self.scenario} cannot dump {kind!r}; "
                    f"output.dumps takes {list(kinds)}")
            if not isinstance(path, str) or not path:
                raise ConfigurationError(f"output.dumps.{kind} must be a "
                                         f"non-empty path, got {path!r}")
        if "training" in dumps and not self.ml.enabled:
            raise ConfigurationError("a training dump needs the learned stage "
                                     "(ml.enabled)")
        if self.parameter_box is None:
            self.parameter_box = ([[0.1, 10.0]] * self.fom.Q
                                  if self.scenario == "parabolic"
                                  else [[-5.0, 5.0], [-5.0, 5.0]])
        box = self.box
        if self.scenario == "parabolic":
            if box.dim != self.fom.Q:
                raise ConfigurationError("parameter box dimension must equal fom.Q")
            if np.any(box.lows <= 0):
                raise ConfigurationError("diffusivity box must be positive")
        elif box.dim != 2:  # Himmelblau reads x[0] and x[1]
            raise ConfigurationError("the optdemo parameter_box must be 2-D, "
                                     f"got dimension {box.dim}")

    @property
    def box(self) -> ParameterBox:
        return ParameterBox(self.parameter_box)

    @property
    def hierarchy_tolerance(self) -> float:
        """TOL of the acceptance check; the gradient threshold for optdemo."""
        return self.opt.TOL_grad if self.scenario == "optdemo" else self.tolerance


_SECTIONS = {"fom": FomConfig, "ml": MlConfig, "opt": OptConfig,
             "output": OutputConfig}


def _known_keys(cls, data, where: str) -> dict:
    """``data`` if it is an object whose keys all name fields of ``cls``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in {where}")
    return data


def config_from_dict(data: dict) -> RunConfig:
    kwargs = dict(_known_keys(RunConfig, data, "config"))
    for name, cls in _SECTIONS.items():
        if name in kwargs:
            kwargs[name] = cls(**_known_keys(cls, kwargs[name],
                                             f"config section {name!r}"))
    try:
        return RunConfig(**kwargs)
    except TypeError as err:
        raise ConfigurationError(str(err)) from None


def read_config(path):
    """The JSON config document at ``path``, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from None


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
        level = self.rb_level
        return level.reduced_system.N if level is not None else 0

    def ml_n(self) -> int:
        level = self.ml_level or self.opt_surrogate
        return level.regressor.n_train if level is not None else 0


def build_scenario(config: RunConfig) -> Scenario:
    """The scenario's levels, cheapest first; the learned stage is among
    them only with ``ml.enabled``.  Stages are numbered by position."""
    box = config.box
    if config.scenario == "parabolic":
        system = fom.assemble(config.fom.n_h, config.fom.K, config.fom.T,
                              config.fom.Q)
        rb_level = rb.ReducedBasisLevel(system)
        levels = [rb_level, fom.FullOrderLevel(system)]
        scenario = Scenario(hierarchy=None, system=system, rb_level=rb_level)
        if config.ml.enabled:
            scenario.ml_level = mlsurrogate.MLCoefficientLevel(box, rb_level)
            levels.insert(0, scenario.ml_level)
    else:
        oracle = optdemo.ObjectiveOracle(delay_s=config.opt.delay_s)
        levels = [optdemo.FullObjectiveLevel(oracle, box)]
        scenario = Scenario(hierarchy=None, oracle=oracle)
        if config.ml.enabled:
            scenario.opt_surrogate = optdemo.SurrogateObjectiveLevel(oracle, box)
            levels.insert(0, scenario.opt_surrogate)
    scenario.hierarchy = ModelHierarchy(levels, config.hierarchy_tolerance, box)
    return scenario


def draw_parameters(config: RunConfig) -> np.ndarray:
    """The seeded query stream: component-ordered SplitMix64 draws."""
    box = config.box
    return SplitMix64(config.seed).uniform_array(
        box.lows, box.highs, (config.n_queries, box.dim))


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
    return ResultRow(record.query_id, tuple(record.mu.tolist()),
                     record.answer.stage, record.answer.estimate, float(qoi),
                     tuple(durations), basis_n, ml_n,
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
        if (estimate is None) != (row.stage == n_stages):
            raise ValueError(f"estimate {raw_estimate!r} at stage {row.stage} of "
                             f"{n_stages}: the last stage's, and only its, is 'ref'")
        if not all(map(math.isfinite, (*row.mu, row.qoi, *row.durations))):
            raise ValueError("non-finite mu, qoi or duration")
        if min(*row.durations, row.basis_n, row.ml_n) < 0:
            raise ValueError("negative duration, basis_n or ml_n")
    except (ValueError, IndexError) as err:
        raise ConfigurationError(f"results row {row_number}: {err}") from None
    return row


def read_results(path) -> tuple[list, int]:
    """Parse a results CSV; returns (rows, number of stages)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"results file is not UTF-8: {err}") from None
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
    reference_unabsorbed: int  # reference answers no cheaper level absorbed
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
            "reference_unabsorbed": self.reference_unabsorbed,
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
                                for (s, t), c in self.adaptation.items())
                     + "   reference answers no level absorbed: "
                     f"{self.reference_unabsorbed}")
        lines.append(f"  qoi mean: {self.qoi_mean:.10g}")
        lines.append(f"  estimate mean: {self.estimate_mean:.3e}")
        return "\n".join(lines)


def summarize(rows, n_stages: int) -> StreamSummary:
    """Aggregate a results table: per-stage counts and times, the accepted
    stages of each half of the stream (the adaptive load shift), the
    adaptation events, the reference answers whose row has no event from
    the reference stage (a solve that taught no cheaper level, e.g. at the
    basis cap) and the means of the QoI and the accepted estimate."""
    stages = range(1, n_stages + 1)
    n = len(rows)
    n_first = (n + 1) // 2
    accepted = dict.fromkeys(stages, 0)
    first, second = dict.fromkeys(stages, 0), dict.fromkeys(stages, 0)
    evaluations = dict.fromkeys(stages, 0)
    eval_total = dict.fromkeys(stages, 0.0)
    adaptation = {}
    reference_unabsorbed = 0
    for i, row in enumerate(rows):
        accepted[row.stage] += 1
        if (row.stage == n_stages
                and all(source != n_stages for source, _ in row.events)):
            reference_unabsorbed += 1
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
        reference_unabsorbed=reference_unabsorbed,
        qoi_mean=sum(row.qoi for row in rows) / n if n else 0.0,
        estimate_mean=(sum(row.estimate for row in rows
                           if row.estimate is not None) / n if n else 0.0),
    )


def report(path) -> StreamSummary:
    """Aggregate a results CSV into the summary its run printed."""
    return summarize(*read_results(path))


# ----------------------------------------------------------------------
# run / baseline


#: The OpenBLAS builds that numpy and scipy wheels vendor: the package, the
#: library's file pattern in ``<package>.libs`` and the suffix of its
#: ``scipy_openblas_{get,set}_num_threads`` symbols.
_VENDORED_OPENBLAS = ((np, "libscipy_openblas64_*.so", "64_"),
                      (scipy, "libscipy_openblas*.so", ""))


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each vendored OpenBLAS found;
    a library or symbol that is not there is skipped."""
    controls = []
    for package, pattern, suffix in _VENDORED_OPENBLAS:
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread and give back the caller's counts.

    The hierarchy's dense kernels are small (N <= 60, a few hundred
    training pairs).  On OpenBLAS's default pool the first ``eigh`` calls
    of a process can stall for 150-210 ms each when no threaded BLAS work
    ran for a while, which one thread avoids.
    """
    controls = _openblas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


@dataclass
class RunResult:
    records: list
    rows: list  # ResultRow per query, as written to the results CSV
    summary: StreamSummary
    wall_s: float
    scenario: Scenario


def _execute(config: RunConfig, scenario: Scenario) -> RunResult:
    parameters = draw_parameters(config)
    n_stages = scenario.levels_total
    rows = []

    def on_record(record):
        payload = record.answer.payload
        qoi = payload.qoi if config.scenario == "parabolic" else payload.j
        rows.append(result_row(record, qoi, scenario.basis_n(), scenario.ml_n(),
                               n_stages))

    with _one_blas_thread():
        t0 = time.perf_counter()
        records = scenario.hierarchy.run_query_stream(parameters,
                                                      on_record=on_record)
        wall_s = time.perf_counter() - t0

    result = RunResult(records=records, rows=rows,
                       summary=summarize(rows, n_stages),
                       wall_s=wall_s, scenario=scenario)
    if config.output.results_path:
        _write_results(config.output.results_path, rows, config.box.dim, n_stages)
    _write_dumps(config, scenario, records)
    return result


def _write_dumps(config: RunConfig, scenario: Scenario, records) -> None:
    """Write the dumps ``RunConfig`` validated for the scenario."""
    dumps = config.output.dumps
    if "basis" in dumps:
        rb.dump_basis(scenario.rb_level.reduced_system, dumps["basis"])
    if "training" in dumps:
        level = scenario.ml_level or scenario.opt_surrogate
        mlsurrogate.dump_training(level.regressor, dumps["training"])
    if "trajectory" in dumps:
        # answers keep no trajectory: re-solve the last reference answer
        for record in reversed(records):
            if record.answer.is_reference:
                fom.dump_trajectory(fom.solve_fom(scenario.system, record.mu),
                                    dumps["trajectory"])
                break
        else:
            print("no full-order trajectory was produced; "
                  f"{dumps['trajectory']} not written", file=sys.stderr)


def run(config: RunConfig) -> RunResult:
    """Full adaptive hierarchy over the seeded stream."""
    return _execute(config, build_scenario(config))


def baseline(config: RunConfig) -> RunResult:
    """Reference-model-only answers for the identical stream.

    The hierarchy is one level, the scenario's last, so every query is
    answered at stage 1 by the reference and the CSV has one ``dur_s``
    column.  The scenario keeps its other levels, which nothing evaluates.
    """
    scenario = build_scenario(config)
    hierarchy = scenario.hierarchy
    scenario.hierarchy = ModelHierarchy(hierarchy.levels[-1:],
                                        hierarchy.tolerance, hierarchy.box)
    return _execute(config, scenario)


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


@_one_blas_thread()
def verify(config: RunConfig) -> VerifyReport:
    """User-facing correctness suite of the parabolic scenario; see README
    for the check list."""
    if config.scenario != "parabolic":
        raise ConfigurationError("verify checks the parabolic scenario only, "
                                 f"not {config.scenario!r}")
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

    system = fom.assemble(fc.n_h, fc.K, fc.T, fc.Q)
    box = config.box

    # 2. offline/online residual norm equality on random bases/coefficients
    worst = _offline_online_discrepancy(system, box, config, trials=50)
    checks.append(Check("offline/online residual norms (relative)",
                        worst, 1e-8, worst <= 1e-8))

    # 3. X-orthonormality of an adaptively grown basis
    reduced_system = _grown_basis(system, box, config)
    V, N = reduced_system.V, reduced_system.N
    gram = V.T @ (system.X @ V)
    ortho = float(np.max(np.abs(gram - np.eye(N)))) if N else 0.0
    checks.append(Check("basis X-orthonormality max|V^T X V - I|",
                        ortho, 1e-8, ortho <= 1e-8, note=f"N={N}"))

    # 4. estimator rigor on random triples (true error by fresh FOM solves)
    margin = _rigor_margin(system, box, config, reduced_system, trials=25)
    checks.append(Check("estimator rigor min(Delta - true error)",
                        margin, -1e-10, margin >= -1e-10))
    return VerifyReport(checks)


def _random_reduced_system(system, rng, n_vectors: int) -> rb.ReducedSystem:
    W = rng.uniform_array(-1.0, 1.0, (system.n_h, n_vectors))
    V = rb._x_orthonormalize(system, np.zeros((system.n_h, 0)), W)
    return rb.build_reduced_system(system, V, generation=1)


def _offline_online_discrepancy(system, box, config, trials: int) -> float:
    rng = SplitMix64(config.seed ^ 0xA5A5A5A5)
    worst = 0.0
    for _ in range(trials):
        reduced_system = _random_reduced_system(system, rng, 4)
        mu = box.sample(rng)
        coeffs = rng.uniform_array(-1.0, 1.0,
                                   (system.K + 1, reduced_system.N))
        trajectory = rb.ReducedTrajectory(coefficients=coeffs, mu=mu,
                                          reduced_system=reduced_system)
        online = rb.residual_dual_norms(trajectory)
        direct = _direct_residual_norms(system, reduced_system.V, mu, coeffs)
        scale = max(float(np.max(direct)), 1e-30)
        worst = max(worst, float(np.max(np.abs(online - direct))) / scale)
    return worst


def _direct_residual_norms(system, V, mu, coeffs) -> np.ndarray:
    """Brute-force oracle: assemble each residual in full space and lift."""
    U = coeffs @ V.T  # (K+1, n_h)
    norms = np.empty(system.K)
    for k in range(1, system.K + 1):
        r = (system.F - (system.M @ (U[k] - U[k - 1])) / system.dt
             - sum(m_q * (A_q @ U[k]) for m_q, A_q in zip(mu, system.A)))
        rho = system.x_solve(r)
        norms[k - 1] = np.sqrt(max(float(r @ rho), 0.0))
    return norms


def _grown_basis(system, box, config) -> rb.ReducedSystem:
    """The reduced system of a basis grown by three full-order solves."""
    rng = SplitMix64(config.seed ^ 0x5A5A5A5A)
    level = rb.ReducedBasisLevel(system)
    for _ in range(3):
        level.absorb(fom.solve_fom(system, box.sample(rng)))
    return level.reduced_system


def _rigor_margin(system, box, config, reduced_system, trials: int) -> float:
    """min over samples of (Delta - true final-time M-norm error)."""
    rng = SplitMix64(config.seed ^ 0x3C3C3C3C)
    margin = float("inf")
    for trial in range(trials):
        mu = box.sample(rng)
        if trial % 2 == 0:
            trajectory = rb.solve_rb(reduced_system, mu)
        else:
            coeffs = rng.uniform_array(-0.5, 0.5,
                                       (system.K + 1, reduced_system.N))
            trajectory = rb.ReducedTrajectory(
                coefficients=coeffs, mu=mu, reduced_system=reduced_system)
        delta = rb.error_estimate(trajectory)
        u_true = fom.solve_fom(system, mu).states[-1]
        u_red = rb.reconstruct_final(trajectory)
        margin = min(margin, delta - system.m_norm(u_true - u_red))
    return margin
