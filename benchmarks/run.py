"""End-to-end and per-layer benchmark of gravent, checked against an independent reference.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Without ``--workload`` every workload runs in
turn. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checker
import tracer
import workloads
from child import REPORT_VALUES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MiB",
    "report_p50_us": "us",
    "report_p99_us": "us",
}
PER_LAYER = {
    "config.parse_us": "us",
    "sweep.spec_us": "us",
    "sweep.point_us": "us",
    "sweep.evaluate_self_us": "us",
    "sweep.pool_overhead_s": "s",
    "model.build_us": "us",
    "model.validity_us": "us",
    "model.validity_calls": "count",
    "model.width_calls": "count",
    "potential.corrected_us": "us",
    "potential.correction_calls": "count",
    "potential.force_us": "us",
    "dynamics.phase_us": "us",
    "dynamics.evolve_us": "us",
    "measures.state_us": "us",
    "measures.entropy_us": "us",
    "measures.report_us": "us",
    "sweep.objects_per_point": "count",
    "cli.csv_us_per_row": "us",
    "cli.json_us_per_row": "us",
    "cli.output_mb": "MiB",
    "trace.overhead_points_per_s": "points/s",
}
#: The work of a run is fixed by ``--seconds``, not by the clock, so that
#: every run of a given length attempts the same operations and a faster
#: program finishes sooner instead of attempting more. These are the wall
#: seconds one unit of work took on the reference machine (see README.md):
#: one sweep process, and one round of report-calls.
SWEEP_PROCESS_S = {"sweep-csv": 1.6, "sweep6-json": 1.6}
CALLS_ROUND_S = 0.058
#: report-calls runs this many fresh processes per run, so that set-up is
#: timed several times.
CALLS_PROCESSES = 15
#: Each process makes over 1000 report() calls, so over ten lie beyond p99.
#: A sweep process makes this many after its sweep, for its latencies.
MIN_CALLS_ROUNDS = 4
#: A child that has not finished after this long is killed.
CHILD_TIMEOUT_S = 120
#: The shared host's speed swings by up to 1.7x, both within a second and
#: for minutes at a time, and moves every time the benchmark takes alike.
#: So a fixed kernel of the kind of work gravent does (frozen dataclasses,
#: float math, 2x2 numpy linear algebra) is timed in this process, on the
#: children's CPU, between consecutive children. A child's slowdown is the
#: mean of the kernel times before and after it over this reference time:
#: the kernel's median time on the reference machine (see README.md). It is
#: taken twice: in wall time, for the child's wall times, and in this
#: thread's CPU time, for the report() latencies, which are CPU times too.
CALIBRATION_STEPS = 4000
REFERENCE_CALIBRATION_S = 0.174


class BenchmarkError(RuntimeError):
    pass


@dataclass
class Invocation:
    """One fresh process that ran gravent."""

    traced: bool
    slowdown: float
    cpu_slowdown: float
    setup_s: float
    rate: float
    rss_mb: float
    latencies_ns: np.ndarray
    rows: int
    output_bytes: int = 0
    spans: np.ndarray | None = None
    names: list[str] = field(default_factory=list)
    counted: list[int] = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    examples: list[str] = field(default_factory=list)

    def add(self, verdict: str, detail: object) -> None:
        self.attempted += 1
        if verdict != checker.OK:
            self.failed += 1
        if verdict == checker.WRONG:
            self.wrong += 1
            if len(self.examples) < 5:
                self.examples.append(str(detail))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass(frozen=True)
class _Sample:
    x: float
    root: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.x):
            raise ValueError(f"x must be finite, got {self.x!r}")


def calibration_s() -> np.ndarray:
    """Wall and CPU seconds this thread takes for the fixed calibration kernel."""
    base = np.array([[1.0, 0.5], [0.5, 2.0]])
    acc = 0.0
    start = np.array([time.perf_counter(), time.thread_time()])
    for i in range(CALIBRATION_STEPS):
        sample = _Sample(1.0 + (i % 200) * 1e-3, math.sqrt(1.0 + (i % 200) * 1e-3))
        amp = np.array([math.cos(sample.x), 1j * math.sin(sample.x)]) / math.sqrt(2.0)
        rho = np.outer(amp, amp.conj())
        w = np.linalg.eigvalsh(rho.real + base)
        acc += math.sin(sample.x) * math.log1p(sample.root) + float(np.sum(w * np.log(w)))
        acc += float(np.trace(rho @ rho).real)
    elapsed = np.array([time.perf_counter(), time.thread_time()]) - start
    if not math.isfinite(acc):
        raise BenchmarkError(f"calibration kernel gave {acc!r}")
    return elapsed


class HostSpeed:
    """Calibration times between consecutive children; see REFERENCE_CALIBRATION_S."""

    def __init__(self) -> None:
        self.last = calibration_s()

    def slowdown(self) -> np.ndarray:
        """The wall and CPU slowdowns of the child that just ended."""
        before, self.last = self.last, calibration_s()
        return (before + self.last) / 2 / REFERENCE_CALIBRATION_S


def spawn(args: list[str], result: Path) -> tuple[float, dict]:
    """Run child.py with ``args``; returns its start time and its summary."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), args[0], str(result), *args[1:]],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return started, json.loads(result.read_text(encoding="utf-8"))


def load_invocation(
    result: Path, started: float, marks: dict, traced: bool, rate_end: str, slowdowns: np.ndarray
) -> Invocation:
    inv = Invocation(
        traced=traced,
        slowdown=float(slowdowns[0]),
        cpu_slowdown=float(slowdowns[1]),
        setup_s=marks["setup_end"] - started,
        rate=marks["rows"] / (marks[rate_end] - marks["setup_end"]),
        rss_mb=marks["rss_kb"] / 1024.0,
        latencies_ns=np.fromfile(f"{result}.lat", dtype=np.int64),
        rows=marks["rows"],
    )
    if traced:
        inv.spans = np.fromfile(f"{result}.spans", dtype=np.int64)
        inv.names, inv.counted = marks["names"], marks["counted"]
    return inv


def write_calls_pool() -> Path:
    path = OUT / "calls-pool.json"
    path.write_text(json.dumps(workloads.calls_pool()), encoding="utf-8")
    return path


def run_sweep(
    name: str, case: workloads.SweepCase, seed: int, seconds: float, trace: bool
) -> tuple[Tally, list[Invocation]]:
    """Fresh CLI processes over one grid, as many as ``seconds`` buys at SWEEP_PROCESS_S each.

    After its sweep, each untraced process makes MIN_CALLS_ROUNDS rounds of
    report-calls' loop, for the workload's report() latencies.
    """
    pool_path = write_calls_pool()
    config = OUT / f"{name}.ini"
    config.write_text(case.config_text(), encoding="utf-8")
    output, result = OUT / f"{name}.{case.fmt}", OUT / f"{name}.result.json"
    points = [
        {**p, "r1": case.r1, "r2": case.r2} for p in checker.grid_points(case.axes, case.fixed)
    ]
    refs = [
        checker.point_reference(
            p["m1"], p["m2"], p["omega1"], p["omega2"], p["d"], p["tau"], threshold=case.threshold
        )
        for p in points
    ]
    parse = checker.parse_json if case.fmt == "json" else checker.parse_csv
    tally, invocations, host = Tally(), [], HostSpeed()
    # Verdicts per distinct output text: a process that writes the same
    # bytes as an earlier one gets the same verdicts without re-checking.
    checked: dict[str, list[tuple[str, object]]] = {}
    for j in range(max(2, round(seconds / SWEEP_PROCESS_S[name]))):
        traced = trace and j % 2 == 1
        output.unlink(missing_ok=True)
        started, marks = spawn(
            ["cli", "1" if traced else "0", str(pool_path), str(seed * CALLS_PROCESSES + j),
             str(MIN_CALLS_ROUNDS), "--", "--config", str(config), "--output", str(output)],
            result,
        )
        inv = load_invocation(result, started, marks, traced, "end", host.slowdown())
        inv.output_bytes = output.stat().st_size
        invocations.append(inv)
        text = output.read_text(encoding="utf-8")
        if text not in checked:
            rows = parse(text)
            if len(rows) != len(points):
                tally.wrong += 1
                tally.examples.append(f"{len(rows)} rows for {len(points)} grid points")
            checked[text] = [
                (checker.check_row(row, index, point, ref, threshold=case.threshold), index)
                for index, (row, point, ref) in enumerate(zip(rows, points, refs))
            ]
        for (verdict, missed), index in checked[text]:
            tally.add(verdict, (index, missed))
    return tally, invocations


def run_calls(seed: int, seconds: float, trace: bool) -> tuple[Tally, list[Invocation]]:
    """report-calls: CALLS_PROCESSES fresh processes, each a closed loop of whole rounds.

    The rounds per process are what ``seconds`` buys at CALLS_ROUND_S each.
    """
    pool = workloads.calls_pool()
    pool_path, result = write_calls_pool(), OUT / "report-calls.result.json"
    refs = [
        checker.point_reference(
            p["m1"], p["m2"], p["omega1"], p["omega2"], p["d"], p["tau"],
            threshold=workloads.REGIME_THRESHOLD,
        ).measures
        for p in pool
    ]
    rounds = max(MIN_CALLS_ROUNDS, round(seconds / CALLS_PROCESSES / CALLS_ROUND_S))
    tally, invocations, host = Tally(), [], HostSpeed()
    checked: dict[tuple, tuple[str, list[str]]] = {}
    for j in range(CALLS_PROCESSES):
        traced = trace and j % 2 == 1
        started, marks = spawn(
            ["calls", "1" if traced else "0", str(pool_path), str(seed * CALLS_PROCESSES + j),
             str(rounds)],
            result,
        )
        invocations.append(
            load_invocation(result, started, marks, traced, "loop_end", host.slowdown())
        )
        values = np.fromfile(f"{result}.out", dtype=np.float64).reshape(-1, len(REPORT_VALUES))
        for i, row in zip(np.fromfile(f"{result}.idx", dtype=np.uint16).tolist(), values.tolist()):
            # The verdict depends only on the scenario and the values
            # reported, which repeat across rounds; check each pair once.
            key = (i, *row)
            if key not in checked:
                reported = dict(zip(REPORT_VALUES, row))
                for flag in REPORT_VALUES[-2:]:
                    reported[flag] = bool(reported[flag])
                checked[key] = checker.check_measures(reported, refs[i])
            verdict, missed = checked[key]
            tally.add(verdict, (i, missed))
    return tally, invocations


def latency_percentile_us(inv: Invocation, q: float) -> float:
    if len(inv.latencies_ns) * (100 - q) / 100 < 10:
        raise BenchmarkError(f"{len(inv.latencies_ns)} report() calls leave fewer than 10 beyond p{q:g}")
    return float(np.percentile(inv.latencies_ns, q)) / 1e3


def end_to_end(invocations: list[Invocation]) -> dict[str, float]:
    """Each metric is taken per process, then the median over the run's processes.

    Times and rates are at the reference host speed: divided, or for the
    rate multiplied, by the process's slowdown (its CPU slowdown for the
    latencies, which are CPU times).
    """
    plain = [inv for inv in invocations if not inv.traced]
    return {
        "setup_s": statistics.median(inv.setup_s / inv.slowdown for inv in invocations),
        "points_per_s": statistics.median(inv.rate * inv.slowdown for inv in plain),
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in plain),
        "report_p50_us": statistics.median(
            latency_percentile_us(inv, 50) / inv.cpu_slowdown for inv in plain
        ),
        "report_p99_us": statistics.median(
            latency_percentile_us(inv, 99) / inv.cpu_slowdown for inv in plain
        ),
    }


def per_layer(invocations: list[Invocation]) -> dict[str, float]:
    traced = [inv for inv in invocations if inv.traced]
    plain = [inv for inv in invocations if not inv.traced]
    totals: dict[str, dict[str, int]] = {}
    counted: dict[str, int] = {}
    for inv in traced:
        for name, entry in tracer.layer_times(inv.spans, inv.names).items():
            acc = totals.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] += value
        for name, n in zip(inv.names, inv.counted):
            counted[name] = counted.get(name, 0) + n
    points = sum(inv.rows for inv in traced)
    processes = len(traced)

    def get(name: str, key: str) -> int:
        return totals.get(name, {}).get(key, 0)

    def per_point_us(*names: str, key: str = "inclusive_ns") -> float:
        return sum(get(n, key) for n in names) / points / 1e3

    return {
        "config.parse_us": get("config.parse_config", "inclusive_ns") / processes / 1e3,
        "sweep.spec_us": get("config.sweep_spec", "inclusive_ns") / processes / 1e3,
        "sweep.point_us": per_point_us("sweep.point", key="self_ns"),
        "sweep.evaluate_self_us": per_point_us("sweep.evaluate_point", key="self_ns"),
        "sweep.pool_overhead_s": get("sweep.run_sweep", "self_ns") / processes / 1e9,
        "model.build_us": per_point_us("model.MassiveBody", "model.PairSystem"),
        "model.validity_us": per_point_us("model.assess_validity"),
        "model.validity_calls": get("model.assess_validity", "calls") / points,
        "model.width_calls": get("model.zero_point_width", "calls") / points,
        "potential.corrected_us": per_point_us("potential.corrected_potential"),
        "potential.correction_calls": get("potential.quantum_correction", "calls") / points,
        "potential.force_us": per_point_us("potential.entanglement_force"),
        "dynamics.phase_us": per_point_us("dynamics.accumulated_phase", key="self_ns"),
        "dynamics.evolve_us": per_point_us("dynamics.evolve_closed_form"),
        "measures.state_us": per_point_us("measures.report_from_phases", key="self_ns"),
        "measures.entropy_us": per_point_us("measures.von_neumann_entropy"),
        "measures.report_us": per_point_us("measures.report"),
        "sweep.objects_per_point": counted.get("validated", 0) / points,
        "cli.csv_us_per_row": per_point_us("cli.rows_to_csv"),
        "cli.json_us_per_row": per_point_us("cli.rows_to_json"),
        "cli.output_mb": statistics.mean(inv.output_bytes for inv in invocations) / 2**20,
        "trace.overhead_points_per_s": statistics.median(inv.rate for inv in traced)
        - statistics.median(inv.rate for inv in plain),
    }


WORKLOADS = {
    "sweep-csv": lambda seed, seconds, trace: run_sweep(
        "sweep-csv", workloads.sweep_csv(seed), seed, seconds, trace
    ),
    "sweep6-json": lambda seed, seconds, trace: run_sweep(
        "sweep6-json", workloads.sweep6_json(seed), seed, seconds, trace
    ),
    "report-calls": run_calls,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tally, invocations = WORKLOADS[name](seed, seconds, trace)
    values = per_layer(invocations) if trace else end_to_end(invocations)
    units = PER_LAYER if trace else END_TO_END
    print(f"== {name}: seed {seed}, {len(invocations)} processes, "
          f"{tally.attempted} attempted, {tally.failed} failed ({tally.wrong} wrong), "
          f"host slowdown {statistics.median(inv.slowdown for inv in invocations):.3f}")
    for metric, value in values.items():
        print(f"   {metric:30s} {value:14.6g} {units[metric]}")
    for example in tally.examples:
        print(f"   wrong: {example}")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }


def warm_up() -> None:
    """Compile the bytecode and warm the calibration kernel once, so that
    no timed process or calibration pays for it."""
    subprocess.run(
        [sys.executable, "-c", "import gravent.cli, checker, child, tracer, workloads"],
        cwd=HERE, env=child_env(), check=True, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    calibration_s()


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds(),
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gravent" / "__init__.py").is_file():
        print(f"run.py: no gravent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # This process and every child it starts run on one CPU. There the
    # sweep6-json pool's two threads hand the interpreter lock over without
    # waiting on a second vCPU that the host shares, and the calibration
    # kernel runs where the children run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        warm_up()
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
