"""Benchmark of mfhier's outer loop on seeded query streams.

    python3 bench/run.py --workload parabolic-mc --seed 1 --seconds 16 --trace 0

A run repeats whole rounds until ``--seconds`` of rounds have been timed.
A round is one cold ``harness.run`` (``harness.baseline`` for
``parabolic-fom``) over the workload's stream; every answer of every round
is checked against ``reference.py``.  The last line of standard output is a
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced rounds with ``--trace 1``.  README.md documents the
workloads, the metrics and the checks.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# A fixed string-hash seed and no address-space randomization: with either
# left random, the peak memory of identical parabolic-q8 runs moved between
# 178.5 and 184.8 MB; with both fixed it repeats to the byte.  Both take
# effect only when a program starts, hence the re-exec of this process.  A
# system that refuses personality() keeps the randomization.
ADDR_NO_RANDOMIZE = 0x0040000
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    _libc = ctypes.CDLL(None, use_errno=True)
    _libc.personality.argtypes = [ctypes.c_ulong]
    _libc.personality.restype = ctypes.c_int
    _persona = _libc.personality(0xFFFFFFFF)  # reads the current persona
    if _persona != -1:
        _libc.personality(_persona | ADDR_NO_RANDOMIZE)
    os.execve(sys.executable, [sys.executable, *sys.argv], os.environ)

# One BLAS thread, set before numpy loads: the default OpenBLAS pool stalls
# numpy.linalg.eigh inside rb.extend_basis on a 2-vCPU machine (README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No transparent huge pages for numpy arrays: whether the kernel backs one
# with them depends on the rest of the machine, and it moved the peak memory
# of identical parabolic-q8 runs by 0.07 MB.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "mfhier" / "__init__.py").is_file():
    sys.exit(f"bench: mfhier sources not found under {SRC}")
sys.path.insert(0, str(SRC))
from mfhier import (fom, harness, hierarchy, mlsurrogate, optdemo,  # noqa: E402
                    rb)

LAYERS = (harness, hierarchy, fom, rb, mlsurrogate, optdemo)
TOL = 1e-3
PARABOLIC_BOX = (0.1, 10.0)
OPTDEMO_BOX = (-5.0, 5.0)
SETUP_BATCH_S = 0.05


@dataclass(frozen=True)
class Workload:
    scenario: str
    n_queries: int
    stream_seed: int | None  # None: the stream is drawn from --seed
    Q: int = 2
    reference_only: bool = False


# The adaptive streams are pinned: which stage answers, how far the basis
# and the training set grow, and so the cost of a round and the answers
# that carry a false certificate all follow the stream (seeds 1 and 2 give
# 13 full-order solves on parabolic-q8 against 12 at seed 42, and 18596 /
# 22929 oracle calls on optdemo-multistart against 18444).  parabolic-fom
# answers every query with one full-order solve whatever the stream, so it
# takes its stream from --seed.
WORKLOADS = {
    "parabolic-mc": Workload("parabolic", 2000, 42),
    "parabolic-q8": Workload("parabolic", 1000, 42, Q=8),
    "parabolic-fom": Workload("parabolic", 1000, None, reference_only=True),
    "optdemo-multistart": Workload("optdemo", 100, 42),
}

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "expensive_calls": "count",
}

PER_LAYER = {
    "hierarchy.attempts_s1": "count",
    "hierarchy.attempts_s2": "count",
    "hierarchy.attempts_s3": "count",
    "hierarchy.accepted_s1": "count",
    "hierarchy.s1_yield": "ratio",
    "hierarchy.rejected_s": "s",
    "hierarchy.absorb_s": "s",
    "hierarchy.self_s": "s",
    "fom.solve_ms": "ms",
    "fom.solves": "count",
    "fom.assemble_ms": "ms",
    "rb.solve_ms": "ms",
    "rb.solve_calls": "count",
    "rb.estimate_ms": "ms",
    "rb.estimate_calls": "count",
    "rb.extend_ms": "ms",
    "rb.extensions": "count",
    "rb.basis_n": "count",
    "mlsurrogate.predict_ms": "ms",
    "mlsurrogate.predict_calls": "count",
    "mlsurrogate.append_ms": "ms",
    "mlsurrogate.append_s": "s",
    "mlsurrogate.fit_s": "s",
    "mlsurrogate.fits": "count",
    "mlsurrogate.rebase_s": "s",
    "mlsurrogate.rebases": "count",
    "mlsurrogate.n_train": "count",
    "mlsurrogate.factor_mb": "MB",
    "optdemo.surrogate_descent_ms": "ms",
    "optdemo.full_descent_ms": "ms",
    "optdemo.certify_ms": "ms",
    "optdemo.absorb_s": "s",
    "optdemo.oracle_calls_descent": "count",
    "optdemo.oracle_calls_certify": "count",
    "harness.build_scenario_ms": "ms",
    "harness.overhead_s": "s",
}

MIB = 2.0**20


def make_config(workload: Workload, seed: int, n_queries: int, results_path):
    if workload.scenario == "parabolic":
        data = {"fom": {"Q": workload.Q},
                "parameter_box": [list(PARABOLIC_BOX)] * workload.Q}
    else:
        data = {"opt": {"TOL_grad": TOL, "delay_s": 0.0},
                "parameter_box": [list(OPTDEMO_BOX)] * 2}
    data.update(scenario=workload.scenario, tolerance=TOL, seed=seed,
                n_queries=n_queries,
                output={"results_path": str(results_path)})
    return harness.config_from_dict(data)


# ----------------------------------------------------------------------
# Answer checks


class ParabolicCheck:
    """Final states and QoI against the benchmark's own heat solver.

    A surrogate answer fails if Delta > TOL, if its M-norm error against the
    reference exceeds Delta, or if its QoI error exceeds ||1||_M Delta.  A
    reference-stage answer fails if it differs from the reference by more
    than the round-off bound ``2 K cond(B) eps ||u||_M``: each implicit
    Euler step of either solver is backward stable with relative error
    about cond(B) eps, the step contracts in the M-norm, so the two
    solutions drift apart at most linearly over K steps.  Gershgorin bounds
    cond(M + dt A) by 3 + 12 dt max(mu) / h^2.
    """

    def __init__(self, config, mus: np.ndarray):
        fc = config.fom
        self.ref = reference.HeatReference(fc.n_h, fc.K, fc.T, fc.Q)
        self.states = self.ref.final_states(mus)
        self.qoi = self.states @ self.ref.mass_ones
        cond = 3.0 + 12.0 * self.ref.dt * mus.max(axis=1) / self.ref.h**2
        self.roundoff = (2.0 * fc.K * cond * reference.EPS
                         * self.ref.m_norms(self.states))

    def failures(self, records) -> np.ndarray:
        answers = [record.answer for record in records]
        u = np.array([a.payload.u_final for a in answers])
        qoi = np.array([a.payload.qoi for a in answers])
        err = self.ref.m_norms(u - self.states)
        qoi_err = np.abs(qoi - self.qoi)
        is_ref = np.array([a.is_reference for a in answers])
        delta = np.array([0.0 if a.is_reference else a.estimate for a in answers])
        bound = np.where(is_ref, self.roundoff, delta)
        return ((~is_ref & (delta > TOL)) | (err > bound)
                | (qoi_err > self.ref.one_m_norm * bound))


class OptdemoCheck:
    """Minimizers against the analytic Himmelblau function.

    An answer fails if it lies farther than ``NEAR`` from all four known
    minimizers, if its reported J differs from J(x) by more than twice the
    round-off of evaluating J, or, at stage 1, if the analytic gradient
    norm exceeds TOL_grad + ``FD_SLACK``.  The slack covers the central
    differences (h = 1e-5) that certify stage 1: their truncation error is
    at most h^2 / 6 max|d^3 J| = 2e-9 per component on the box [-5, 5]^2
    (|d^3 J / dx^3| = 24 |x| <= 120), and the rounding of J near a minimum
    adds less than 1e-12.
    """

    NEAR = 1e-3
    FD_SLACK = 1e-8

    def failures(self, records) -> np.ndarray:
        failed = np.zeros(len(records), dtype=bool)
        for i, record in enumerate(records):
            answer = record.answer
            x, j = np.asarray(answer.payload.x, dtype=float), answer.payload.j
            dist = np.min(np.linalg.norm(reference.HIMMELBLAU_MINIMIZERS - x, axis=1))
            failed[i] = (dist > self.NEAR
                         # both evaluations of J round
                         or abs(j - reference.himmelblau(x))
                         > 2.0 * reference.himmelblau_roundoff(x)
                         or (answer.stage == 1 and np.linalg.norm(
                             reference.himmelblau_gradient(x))
                             > TOL + self.FD_SLACK))
        return failed


# ----------------------------------------------------------------------
# Measurement


class LatencyProbe:
    """Times every ``ModelHierarchy.handle_request`` call while active."""

    def __init__(self):
        self.samples: list = []
        self._original = None

    def install(self) -> None:
        original = self._original = hierarchy.ModelHierarchy.handle_request
        samples, clock = self.samples, time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(clock() - t0)

        hierarchy.ModelHierarchy.handle_request = timed

    def uninstall(self) -> None:
        hierarchy.ModelHierarchy.handle_request = self._original


class SetupTimer:
    """Per-call time of ``harness.build_scenario``, sampled in batches of
    calls at least ``SETUP_BATCH_S`` long.  The batches are spread over the
    whole run, because the machine's speed changes by 30% from one tenth of
    a second to the next; the median batch is reported."""

    def __init__(self, config):
        self.config = config
        t0 = time.perf_counter()
        harness.build_scenario(config)
        self.per_batch = max(1, int(SETUP_BATCH_S / (time.perf_counter() - t0)))
        self.samples: list = []

    def sample(self, batches: int) -> None:
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(self.per_batch):
                harness.build_scenario(self.config)
            self.samples.append((time.perf_counter() - t0) / self.per_batch)


def expensive_calls(result) -> int:
    """Full-order solves (parabolic) or objective-oracle calls (optdemo)."""
    if result.scenario.oracle is not None:
        return result.scenario.oracle.eval_counter
    return sum(1 for record in result.records
               for attempt in record.answer.attempts
               if attempt.stage == result.scenario.levels_total)


def p50_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(spans, result) -> dict:
    """Per-layer metrics of one traced round (see README.md)."""
    own = tracing.self_times(spans)
    dur = [end - start for _, start, end, _, _ in spans]
    names = [span[0] for span in spans]
    by_name: dict = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def durations(name):
        return [dur[i] for i in by_name.get(name, [])]

    def parent_name(i):
        parent = spans[i][3]
        return names[parent] if parent >= 0 else None

    levels = result.scenario.hierarchy.levels
    level_name = [f"{type(level).__module__.rsplit('.', 1)[-1]}."
                  f"{type(level).__name__}" for level in levels]
    accepted = [record.answer.stage for record in result.records]

    request = "hierarchy.ModelHierarchy.handle_request"
    in_request = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        in_request[i] = name == request or (parent >= 0 and in_request[parent])

    rejected_s = absorb_s = 0.0
    for stage, prefix in enumerate(level_name, start=1):
        for method in ("evaluate", "estimate_error"):
            for i in by_name.get(f"{prefix}.{method}", []):
                if accepted[spans[i][4]] != stage:
                    rejected_s += dur[i]
        absorb_s += sum(durations(f"{prefix}.absorb"))

    attempts = {stage: 0 for stage in (1, 2, 3)}
    for record in result.records:
        for attempt in record.answer.attempts:
            attempts[attempt.stage] += 1
    accepted_s1 = accepted.count(1)

    scenario = result.scenario
    regressor = (scenario.ml_level.regressor if scenario.ml_level is not None
                 else scenario.opt_surrogate.regressor
                 if scenario.opt_surrogate is not None else None)
    n_factor = regressor.n_train if regressor is not None else 0
    calls_descent = calls_certify = 0
    if scenario.oracle is not None:
        calls_descent = sum(record.answer.payload.descent_calls
                            for record in result.records)
        calls_certify = scenario.oracle.eval_counter - calls_descent

    descents = by_name.get("optdemo.descend", [])
    run_name = "harness.baseline" if "harness.baseline" in by_name else "harness.run"
    extend = "rb.extend_basis"
    return {
        "hierarchy.attempts_s1": attempts[1],
        "hierarchy.attempts_s2": attempts[2],
        "hierarchy.attempts_s3": attempts[3],
        "hierarchy.accepted_s1": accepted_s1,
        "hierarchy.s1_yield": accepted_s1 / attempts[1] if attempts[1] else 0.0,
        "hierarchy.rejected_s": rejected_s,
        "hierarchy.absorb_s": absorb_s,
        "hierarchy.self_s": sum(own[i] for i, name in enumerate(names)
                                if in_request[i] and name.startswith("hierarchy.")),
        "fom.solve_ms": p50_ms(durations("fom.solve_fom")),
        "fom.solves": len(durations("fom.solve_fom")),
        "fom.assemble_ms": p50_ms(durations("fom.assemble")),
        "rb.solve_ms": p50_ms(durations("rb.solve_rb")),
        "rb.solve_calls": len(durations("rb.solve_rb")),
        "rb.estimate_ms": p50_ms(durations("rb.error_estimate")),
        "rb.estimate_calls": len(durations("rb.error_estimate")),
        "rb.extend_ms": p50_ms(durations(extend)),
        "rb.extensions": sum(1 for i in by_name.get("rb.build_reduced_system", [])
                             if parent_name(i) == extend),
        "rb.basis_n": scenario.basis_n(),
        "mlsurrogate.predict_ms": p50_ms(durations("mlsurrogate.KernelRegressor.predict")),
        "mlsurrogate.predict_calls": len(durations("mlsurrogate.KernelRegressor.predict")),
        "mlsurrogate.append_ms": p50_ms(durations("mlsurrogate.KernelRegressor.append")),
        "mlsurrogate.append_s": sum(durations("mlsurrogate.KernelRegressor.append")),
        "mlsurrogate.fit_s": sum(durations("mlsurrogate.fit")),
        "mlsurrogate.fits": len(durations("mlsurrogate.fit")),
        "mlsurrogate.rebase_s": sum(durations("mlsurrogate.rebase")),
        "mlsurrogate.rebases": len(durations("mlsurrogate.rebase")),
        "mlsurrogate.n_train": scenario.ml_n(),
        "mlsurrogate.factor_mb": n_factor**2 * 8 / MIB,
        "optdemo.surrogate_descent_ms": p50_ms(
            [dur[i] for i in descents
             if parent_name(i) == "optdemo.SurrogateObjectiveLevel.evaluate"]),
        "optdemo.full_descent_ms": p50_ms(
            [dur[i] for i in descents
             if parent_name(i) == "optdemo.FullObjectiveLevel.evaluate"]),
        "optdemo.certify_ms": p50_ms(
            durations("optdemo.SurrogateObjectiveLevel.estimate_error")),
        "optdemo.absorb_s": sum(durations("optdemo.SurrogateObjectiveLevel.absorb")),
        "optdemo.oracle_calls_descent": calls_descent,
        "optdemo.oracle_calls_certify": calls_certify,
        "harness.build_scenario_ms": p50_ms(durations("harness.build_scenario")),
        "harness.overhead_s": (sum(durations(run_name))
                               - sum(durations("harness.build_scenario"))
                               - sum(durations(request))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    seed = args.seed if workload.stream_seed is None else workload.stream_seed
    OUT.mkdir(exist_ok=True)
    config = make_config(workload, seed, workload.n_queries,
                         OUT / f"results-{args.workload}.csv")
    # looked up on each call, so that traced rounds call the wrapper
    entry_name = "baseline" if workload.reference_only else "run"
    problems = []

    # one process-wide CPU: the program is single-threaded, and migrations
    # between the vCPUs of a small virtual machine added 5-10% to round times
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # one untimed round on its own hierarchy: lazy imports, first calls and
    # the allocator's first growth to the round's array sizes (without it
    # the first timed round runs 5-15% slower than the rest).  The peak
    # memory is read right after it, before anything whose size depends on
    # timing has been allocated.
    getattr(harness, entry_name)(config)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB

    box = np.array(config.parameter_box, dtype=float)
    stream = reference.splitmix64_stream(seed, workload.n_queries,
                                         box[:, 0], box[:, 1])
    if workload.scenario == "parabolic":
        problems += reference.validate_heat_reference()
        check = ParabolicCheck(config, stream)
    else:
        check = OptdemoCheck()
    setup = SetupTimer(config)
    setup.sample(4)

    tracer = tracing.Tracer(LAYERS, "hierarchy.ModelHierarchy.handle_request")
    probe = LatencyProbe()
    plain_qps, traced_qps, traced_spans, layer_rounds = [], [], [], []
    round_p50_ms, round_p90_ms = [], []
    counts = set()
    attempted = failed = 0
    timed_s = 0.0
    while (not plain_qps or (args.trace and not traced_qps)
           or timed_s < args.seconds):
        # a traced run alternates untraced and traced rounds, which gives
        # the tracing overhead; an untraced run times handle_request only
        traced = bool(args.trace) and len(plain_qps) > len(traced_qps)
        setup.sample(4)
        instrument = tracer if traced else probe
        instrument.install()
        try:
            t0 = time.perf_counter()
            result = getattr(harness, entry_name)(config)
            wall = time.perf_counter() - t0
        finally:
            instrument.uninstall()
        timed_s += wall
        records = result.records
        mus = np.array([record.mu for record in records]).reshape(-1, box.shape[0])
        if len(records) != workload.n_queries or not np.array_equal(mus, stream):
            sys.exit("bench: the answered queries are not the requested stream")
        attempted += len(records)
        failed += int(check.failures(records).sum())
        counts.add(expensive_calls(result))
        (traced_qps if traced else plain_qps).append(len(records) / wall)
        if traced:
            spans = tracer.take()
            layer_rounds.append(layer_metrics(spans, result))
            traced_spans.append(spans)
        else:
            round_p50_ms.append(statistics.median(probe.samples) * 1e3)
            round_p90_ms.append(statistics.quantiles(probe.samples, n=10)[8] * 1e3)
            probe.samples.clear()
        # free this round's answers before the next round makes its own
        del result, records

    if len(counts) > 1:
        problems.append(f"expensive_calls differs between rounds: {sorted(counts)}")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)

    if args.trace:
        spans_path = OUT / f"spans-{args.workload}.jsonl"
        tracing.write_jsonl(spans_path, traced_spans,
                            {"workload": args.workload, "seed": args.seed})
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in PER_LAYER}
        units = PER_LAYER
        untraced, traced = statistics.median(plain_qps), statistics.median(traced_qps)
        print(f"tracing overhead: queries_per_s {untraced:.2f} untraced, "
              f"{traced:.2f} traced ({(untraced / traced - 1) * 100:+.1f}% time); "
              f"spans in {spans_path.relative_to(HERE.parent)}")
    else:
        metrics = {
            "queries_per_s": statistics.median(plain_qps),
            "latency_p50_ms": statistics.median(round_p50_ms),
            "latency_p90_ms": statistics.median(round_p90_ms),
            "setup_s": statistics.median(setup.samples),
            "peak_rss_mb": peak_rss_mb,
            "expensive_calls": max(counts),
        }
        units = END_TO_END
    print(f"workload {args.workload}, stream seed {seed}, "
          f"{len(plain_qps) + len(traced_qps)} rounds, {attempted} queries, "
          f"{failed} failed")
    print("  untraced rounds, queries/s: "
          + " ".join(f"{qps:.2f}" for qps in plain_qps))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
