"""One process that runs gravent and records what the benchmark measures.

    python3 child.py cli   RESULT TRACE POOL SEED ROUNDS -- gravent CLI arguments...
    python3 child.py calls RESULT TRACE POOL SEED ROUNDS

``cli`` runs ``gravent.cli.main`` on the arguments, as the ``gravent``
console script does. ``calls`` is a closed loop with one caller: it builds
a system and calls ``report(system, tau)``, with no think time, for ROUNDS
whole rounds over the scenario pool. Untraced, ``cli`` runs the same loop
after the CLI returns, for the report() latencies alone.

RESULT receives a JSON summary; binary arrays go next to it (RESULT.lat:
per-report latencies, in ns of the calling thread's CPU time; RESULT.out:
report values; RESULT.idx: pool index per call; RESULT.spans: trace
spans). With TRACE = 0 the only wrappers are a timestamp where set-up ends
and a timer around ``report``; with TRACE = 1 the tracer wraps every layer
instead.
"""

import json
import sys
import time
from array import array

#: Values stored per report() call, in this order.
REPORT_VALUES = ("delta_phi", "purity_full", "purity_reduced", "epsilon", "entropy_nats",
                 "entropy_bits", "separable_by_measures", "separable_by_two_pi_criterion")


def peak_rss_kb():
    # VmHWM belongs to this process image. getrusage's ru_maxrss is no use
    # here: exec carries the spawning process's peak over into it.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


#: report() latencies are CPU time of the calling thread. Its wall time
#: also holds every stretch in which the thread did not run: the host taking
#: the vCPU away for up to several ms, which set the p99 more than report()
#: did.
LATENCY_CLOCK = time.thread_time_ns


def report_loop(pool, seed, rounds, latencies, tracer=None, values=None, indices=None):
    """A closed loop, one caller, no think time: ``rounds`` whole rounds of
    building a system and calling ``report(system, tau)`` over the pool.

    Records each call's latency, and its values and pool index when given
    arrays for them. Returns the number of calls.
    """
    import numpy as np

    from gravent import measures, model
    import workloads

    MassiveBody, PairSystem, report = model.MassiveBody, model.PairSystem, measures.report
    if tracer is not None:
        MassiveBody = tracer.span("model.MassiveBody", MassiveBody)
        PairSystem = tracer.span("model.PairSystem", PairSystem)
        report = tracer.span("measures.report", report)
    constants = model.PhysicalConstants()
    rng = np.random.default_rng(seed)
    clock = LATENCY_CLOCK
    calls = 0
    for _ in range(rounds):
        for i, s, r1, r2 in workloads.calls_round(rng):
            p = pool[i]
            system = PairSystem(
                MassiveBody(p["m1"] * s, r1, p["omega1"] * s),
                MassiveBody(p["m2"] * s, r2, p["omega2"] * s),
                p["d"],
                constants,
            )
            t0 = clock()
            rep = report(system, p["tau"])
            latencies.append(clock() - t0)
            if values is not None:
                values.extend((rep.delta_phi, rep.purity_full, rep.purity_reduced, rep.epsilon,
                               rep.entropy_nats, rep.entropy_bits, rep.separable_by_measures,
                               rep.separable_by_two_pi_criterion))
                indices.append(i)
            calls += 1
    return calls


def load_pool(pool_path):
    with open(pool_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv, pool_path, seed, rounds, tracer, marks, latencies):
    """The CLI, then, untraced, a report() loop like report-calls' in the same process.

    The loop gives the sweep workloads their report() latencies without
    depending on how the sweep evaluates its grid. It runs after the CLI
    returns and after peak memory is read, so it moves neither
    points_per_s nor peak_rss_mb.
    """
    from gravent import cli

    if tracer is not None:
        tracer.install(cli=True)
    run_sweep = cli.run_sweep

    def marked(spec, workers=1):
        marks["setup_end"] = time.monotonic()
        rows = run_sweep(spec, workers=workers)
        marks["rows"] = len(rows)
        return rows

    cli.run_sweep = marked
    code = cli.main(argv)
    marks["end"] = time.monotonic()
    marks["rss_kb"] = peak_rss_kb()
    if tracer is None:
        report_loop(load_pool(pool_path), seed, rounds, latencies)
    return code


def run_calls(pool_path, seed, rounds, tracer, marks, latencies, path):
    # What report_loop imports is loaded as part of set-up.
    import numpy  # noqa: F401

    import gravent.measures  # noqa: F401
    import workloads  # noqa: F401

    pool = load_pool(pool_path)
    if tracer is not None:
        tracer.install(cli=False)
    values, indices = array("d"), array("H")
    marks["setup_end"] = time.monotonic()
    marks["rows"] = report_loop(pool, seed, rounds, latencies, tracer, values, indices)
    marks["loop_end"] = marks["end"] = time.monotonic()
    marks["rss_kb"] = peak_rss_kb()
    with open(path + ".out", "wb") as fh:
        values.tofile(fh)
    with open(path + ".idx", "wb") as fh:
        indices.tofile(fh)
    return 0


def main(argv):
    mode, path, trace = argv[0], argv[1], argv[2] == "1"
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    marks, latencies = {}, array("q")
    pool_path, seed, rounds = argv[3], int(argv[4]), int(argv[5])
    if mode == "cli":
        code = run_cli(argv[7:], pool_path, seed, rounds, tracer, marks, latencies)
    else:
        code = run_calls(pool_path, seed, rounds, tracer, marks, latencies, path)
    marks["exit"] = code
    with open(path + ".lat", "wb") as fh:
        latencies.tofile(fh)
    if tracer is not None:
        tracer.write(path + ".spans")
        marks.update(tracer.summary())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
