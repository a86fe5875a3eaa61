"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vqe_budget --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` runs untraced rounds for ``--seconds`` and prints the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs a fixed
number of rounds per workload (so layer totals compare between
commits; ``--seconds`` is not used), each once untraced and once with
every layer wrapped (``layers.py``), checks that both give
bit-identical results, and prints the per-layer metrics.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; failed output checks and the raw (unscaled) end-to-end
figures go to standard error.  Times are scaled to nominal machine
speed (``machine.py``); the traced run also reports the raw figures of
its untraced rounds (``raw.*``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="minimal sizes, for the self-check",
    )
    parser.add_argument(
        "--probe", metavar="WORKDIR",
        help="internal: build the workload, print 'ready' and exit",
    )
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile with linear interpolation."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def wall(start: float, end: float) -> float:
    """Unscaled length of an interval."""
    return end - start


def measure_setup(args, workdir: Path, meter) -> tuple[float, float]:
    """Median seconds from process spawn to a built workload.

    Each probe is a fresh interpreter, so imports, Hamiltonian and plan
    construction, and service recovery are paid every time, exactly as
    a user starting the program pays them.  Returns the scaled and
    the raw median.
    """
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--probe", str(workdir),
    ]
    if args.tiny:
        command.append("--tiny")
    times, raw = [], []
    meter.sample(0.03)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as probe:
            line = probe.stdout.readline().strip()
            ready = time.perf_counter()
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        meter.sample(0.03)
        times.append(meter.scaled(start, ready))
        raw.append(ready - start)
    return statistics.median(times), statistics.median(raw)


def _seconds(rounds, length) -> float:
    return sum(
        length(start, end) for r in rounds for start, end in r.regions
    )


def throughput(rounds, length) -> dict:
    """Rates and latency percentiles of rounds, intervals by ``length``."""
    latencies = [length(a, b) for r in rounds for a, b in r.ops]
    seconds = _seconds(rounds, length)
    return {
        "circuits_per_s": (sum(r.circuits for r in rounds) / seconds, "1/s"),
        "ops_per_s": (len(latencies) / seconds, "1/s"),
        "op_p50_ms": (1000.0 * percentile(latencies, 50), "ms"),
        "op_p95_ms": (1000.0 * percentile(latencies, 95), "ms"),
    }


def end_to_end(rounds, length, setup_s: float) -> dict:
    """The end-to-end metrics of untraced rounds."""
    return {
        "setup_s": (setup_s, "s"),
        **throughput(rounds, length),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def per_layer(traced, plain, summary, meter, catch_all) -> dict:
    """The per-layer metrics of the traced rounds (see README.md).

    Unattributed time is the traced time no span covers plus the self
    time of the ``catch_all`` spans, which enclose whole phases.
    """
    calls, busy, self_s = (
        summary["calls"], summary["busy"], summary["self"]
    )

    def total(key):
        return sum(r.counters.get(key, 0) for r in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    quality = [r.quality for r in plain if r.quality]

    def q_sum(key):
        return sum(q[key] for q in quality)

    traced_s = _seconds(traced, meter.scaled)
    waits = summary["queue_waits"]
    rows = summary["rows"]
    kinds = summary["batch_kind_s"]
    return {
        "optimizers.self_s": (self_s.get("optimizers", 0.0), "s"),
        "estimator.evaluate.calls": (
            calls.get("estimator.evaluate", 0), "count"
        ),
        "estimator.evaluate.self_s": (
            self_s.get("estimator.evaluate", 0.0), "s"
        ),
        "core.global_fraction": (
            ratio(q_sum("global_fraction"), len(quality)), "ratio"
        ),
        "core.subset_circuits_per_eval": (
            quality[0]["subset_circuits_per_eval"] if quality else 0,
            "count",
        ),
        "reconstruction.calls": (calls.get("reconstruction", 0), "count"),
        "reconstruction.busy_s": (busy.get("reconstruction", 0.0), "s"),
        "energy.busy_s": (busy.get("energy", 0.0), "s"),
        "engine.batch.calls": (calls.get("engine.batch", 0), "count"),
        "engine.batch.self_s": (self_s.get("engine.batch", 0.0), "s"),
        "engine.prepare.busy_s": (busy.get("engine.prepare", 0.0), "s"),
        "engine.fingerprint.busy_s": (
            busy.get("engine.fingerprint", 0.0), "s"
        ),
        "engine.jobs": (total("jobs"), "count"),
        "engine.simulations": (total("simulations"), "count"),
        "engine.dedup_ratio": (
            ratio(total("simulations"), total("jobs")), "ratio"
        ),
        "engine.pmf_cache.hit_rate": (
            ratio(total("pmf_hits"), total("pmf_requests")), "ratio"
        ),
        "engine.plan_cache.hit_rate": (
            ratio(total("plan_hits"), total("plan_requests")), "ratio"
        ),
        "plan.compile.calls": (calls.get("plan.compile", 0), "count"),
        "plan.compile.busy_s": (busy.get("plan.compile", 0.0), "s"),
        "plan.run.calls": (calls.get("plan.run", 0), "count"),
        "plan.run.busy_s": (busy.get("plan.run", 0.0), "s"),
        "plan.run_batch.calls": (calls.get("plan.run_batch", 0), "count"),
        "plan.rows_per_batch": (ratio(sum(rows), len(rows)), "count"),
        "counts.convert.busy_s": (busy.get("counts.convert", 0.0), "s"),
        "noise.finish.busy_s": (busy.get("noise.finish", 0.0), "s"),
        "noise.sample.calls": (calls.get("noise.sample", 0), "count"),
        "noise.sample.busy_s": (busy.get("noise.sample", 0.0), "s"),
        "backend.dense.busy_s": (kinds.get("dense", 0.0), "s"),
        "backend.clifford.busy_s": (kinds.get("clifford", 0.0), "s"),
        "backend.density.busy_s": (kinds.get("density", 0.0), "s"),
        "backend.clifford.fallbacks": (total("clifford_fallbacks"), "count"),
        "serve.submit.busy_s": (busy.get("serve.submit", 0.0), "s"),
        "serve.execute.busy_s": (busy.get("serve.execute", 0.0), "s"),
        "serve.queue_wait_p50_ms": (
            1000.0 * percentile(waits, 50) if waits else 0.0, "ms"
        ),
        "serve.executed": (total("executed"), "count"),
        "serve.served_from_db": (total("served_from_db"), "count"),
        "serve.coalesced": (total("coalesced"), "count"),
        "io.journal.append.calls": (
            calls.get("io.journal.append", 0), "count"
        ),
        "io.journal.append.busy_s": (
            busy.get("io.journal.append", 0.0), "s"
        ),
        "io.journal.bytes": (total("journal_bytes"), "bytes"),
        "io.journal.load.busy_s": (busy.get("io.journal.load", 0.0), "s"),
        "vqe.mitigated_pct": (
            100.0 * (1.0 - ratio(q_sum("varsaw_error"),
                                 q_sum("jigsaw_error")))
            if quality else 0.0,
            "%",
        ),
        "vqe.circuit_reduction": (
            ratio(
                ratio(q_sum("jigsaw_circuits"), q_sum("jigsaw_evals")),
                ratio(q_sum("varsaw_circuits"), q_sum("varsaw_evals")),
            ),
            "ratio",
        ),
        "trace.timed_s": (traced_s, "s"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(
                _seconds([t], meter.scaled) / _seconds([p], meter.scaled)
                for t, p in zip(traced, plain)
            ) - 1.0),
            "%",
        ),
        "trace.unattributed_frac": (
            (traced_s - summary["covered_s"]
             + sum(self_s.get(name, 0.0) for name in catch_all)) / traced_s,
            "ratio",
        ),
        "machine.speed": (meter.median_speed(), "ratio"),
        **{
            f"raw.{name}": value
            for name, value in throughput(plain, wall).items()
        },
        "obs.counter_mismatch": (
            sum(r.counters["counter_mismatch"] for r in traced + plain),
            "count",
        ),
    }


def traced_pairs(workload, meter, tracer, layers):
    """Run each round untraced, then traced; return both and the spans.

    Span lengths are scaled like every other interval, so the meter's
    sampling slices drop out of the layer times that contain them.
    """
    from tracer import END, EXTRA, NAME, OUTERMOST, START

    plain, traced = [], []
    summary = {
        "calls": {}, "busy": {}, "self": {}, "covered_s": 0.0,
        "queue_waits": [], "rows": [], "batch_kind_s": {},
    }
    meter.sample()
    for r in range(workload.trace_rounds):
        plain.append(workload.round(r, meter))
        meter.sample()
        layers.install(tracer)
        try:
            traced.append(workload.round(r, meter))
        finally:
            tracer.restore()
        meter.sample()
        part = tracer.summary(traced[-1].regions, meter.scaled)
        for key in ("calls", "busy", "self"):
            for name, value in part[key].items():
                summary[key][name] = summary[key].get(name, 0) + value
        summary["covered_s"] += part["covered_s"]
        for span in tracer.spans:
            if span[NAME] == "serve.batch":
                summary["queue_waits"].extend(
                    meter.scaled(a, b) for a, b in span[EXTRA]
                )
            elif span[NAME] == "plan.run_batch":
                summary["rows"].append(span[EXTRA])
            elif span[NAME] == "engine.batch" and span[OUTERMOST]:
                kinds = summary["batch_kind_s"]
                kinds[span[EXTRA]] = kinds.get(
                    span[EXTRA], 0.0
                ) + meter.scaled(span[START], span[END])
        tracer.clear()
    return plain, traced, summary


def _result(rounds, metrics, failures) -> dict:
    for round_ in rounds:
        failures.extend(round_.failures)
        if round_.circuits <= 0:
            failures.append("a round charged zero circuits")
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    attempted = sum(len(r.ops) for r in rounds)
    return {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": min(len(failures), max(attempted, 1)),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def run_untraced(cls, args, config, workdir) -> dict:
    from machine import Meter

    meter = Meter()
    setup_s, raw_setup_s = measure_setup(args, workdir, meter)
    workload = cls(args.seed, config, workdir)
    rounds = []
    meter.sample()
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        rounds.append(workload.round(len(rounds), meter))
        meter.sample()
    raw = {
        name: value
        for name, (value, _) in end_to_end(rounds, wall, raw_setup_s).items()
    }
    print(
        f"{len(rounds)} rounds, {_seconds(rounds, wall):.3f} s timed, "
        f"median machine speed {meter.median_speed():.4f}, "
        f"raw {json.dumps(raw)}",
        file=sys.stderr,
    )
    return _result(rounds, end_to_end(rounds, meter.scaled, setup_s), [])


def run_traced(cls, args, config, workdir) -> dict:
    import layers
    from machine import Meter
    from tracer import Tracer, leftover_wrappers

    meter = Meter()
    plain, traced, summary = traced_pairs(
        cls(args.seed, config, workdir), meter, Tracer(), layers
    )
    failures = [
        f"wrapper left installed: {name}" for name in leftover_wrappers()
    ]
    for r, (a, b) in enumerate(zip(plain, traced)):
        if a.digest != b.digest:
            failures.append(f"round {r}: traced results differ")
    return _result(
        plain + traced,
        per_layer(traced, plain, summary, meter, layers.CATCH_ALL),
        failures,
    )


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    cls = WORKLOADS[args.workload]
    config = cls.TINY if args.tiny else cls.FULL
    if args.probe:
        cls(args.seed, config, Path(args.probe))
        print("ready", flush=True)
        return 0

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if hasattr(cls, "preload"):
            cls.preload(args.seed, config, workdir)
        if args.trace:
            result = run_traced(cls, args, config, workdir)
        else:
            result = run_untraced(cls, args, config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
