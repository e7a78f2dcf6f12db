"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-4x --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` beside this directory; the benchmark generates every input from
``--seed`` and hands the program nothing else.

The process pins itself to one CPU, and every gated time is reported
at reference speed: scaled by a reference probe run beside it on the
same CPU, so that the shared host's drifting speed cancels (see
``benchlib/speed.py``; the raw wall-clock figures are printed too).

With ``--trace 0`` the run measures the end-to-end metrics untraced.
With ``--trace 1`` it alternates untraced and traced cycles, reports the
per-layer metrics of the traced cycles and ``trace.overhead`` (traced ÷
untraced end-to-end time).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Traced runs alternate untraced and traced cycles, this many of each.
TRACE_PAIRS = 2

#: (name, unit, better) of the end-to-end metrics, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program(meter):
    """Import the program from ``src/`` and finish its lazy set-up.

    Returns the environment and the start-up time, from process start,
    as (wall clock, reference speed) seconds, scaled like a set-up.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    with meter.sampling():
        import numpy

        import repro.analysis.report  # noqa: F401
        import repro.serve  # noqa: F401
        from repro.engine.kernels import active_backend

        # The compiled Tarjan kernel builds (or loads) on first use.
        backend = {"compiled": "c", "fallback": "python"}[active_backend()]
        ended = time.perf_counter()
    start_up_s = ended - _STARTED - meter.busy_s
    env = {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    return env, (start_up_s, start_up_s * meter.factor(_STARTED, ended))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def world_seed(seed: int, cycle: int) -> int:
    """The world seed of one cycle: every cycle of a run builds another
    world, all derived from the run's ``--seed``."""
    return seed * 10 + cycle


def run_cycle(workload, seed, budget_s, final, meter, tracer=None):
    """Set up, measure and check one cycle; returns its record.

    Set-up and the timed region run with the tracer's wrappers installed
    when one is given; checks run after the peak-memory reading and are
    never timed.
    """
    gc.collect()
    if tracer is not None:
        from benchlib import layers

        layers.install(tracer)
    try:
        meter.reset()
        with meter.sampling():
            started = time.perf_counter()
            state = workload.setup(seed)
            ended = time.perf_counter()
            setup_s = ended - started - meter.busy_s
        setup_factor = meter.factor(started, ended)
        try:
            gc.collect()
            if tracer is not None:
                tracer.phase = "measure"
            meter.reset()
            measurement = workload.measure(state, budget_s, tracer is not None, meter)
            rss = peak_rss_mb()
            if tracer is not None:
                tracer.phase = "check"
            results = workload.check(state, seed, measurement, final)
        finally:
            workload.teardown(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"setup_s": setup_s, "setup_factor": setup_factor, "m": measurement,
            "rss": rss, "checks": results}


def outcome(records):
    """(attempted, failed, problem lines): operations plus output checks."""
    attempted = sum(r["m"].attempted + len(r["checks"]) for r in records)
    failed = sum(r["m"].failed + sum(not c.ok for c in r["checks"]) for r in records)
    problems = [e for r in records for e in r["m"].errors[:3]]
    problems += [f"{c.name}: {c.detail}" for r in records for c in r["checks"] if not c.ok]
    return attempted, failed, problems


def end_to_end(workload, records, start_up):
    """The gated end-to-end metrics and the workload's named report lines."""
    from benchlib.stats import highest_supported_percentile, percentile, tail_summary

    op = tail_summary([x for r in records for x in r["m"].op_ref_ms], workload.tail_pct)
    raw = tail_summary([x for r in records for x in r["m"].op_ms], workload.tail_pct)
    work = sum(r["m"].work for r in records)
    start_up_s, start_up_ref_s = start_up
    metrics = {
        "setup_s": start_up_ref_s + statistics.median(
            r["setup_s"] * r["setup_factor"] for r in records
        ),
        # Later cycles' high-water marks carry earlier cycles' heap
        # fragmentation, so the first cycle's is the workload's own.
        "peak_rss_mb": records[0]["rss"],
        "ops_per_s": work / sum(r["m"].ref_s for r in records),
        "op_p50_ms": op["p50"],
        "op_tail_ms": op["tail"],
    }
    raw_setup_s = start_up_s + statistics.median(r["setup_s"] for r in records)
    attempted, failed, _ = outcome(records)
    n, tail = op["samples"], f"p{op['tail_pct']:g}"
    highest = highest_supported_percentile(n)
    highest_ms = percentile([x for r in records for x in r["m"].op_ref_ms], highest or 50.0)
    lines = [
        f"op latency: n={n} tail={tail} beyond={op['beyond']} rule_ok={op['rule_ok']} "
        f"(highest supported: p{highest or 0:g} = {highest_ms:.6g} ms)",
        f"setup_s {metrics['setup_s']:.6g} s  (start-up {start_up_ref_s:.3g} s + median of "
        f"{len(records)} set-ups; wall clock {raw_setup_s:.6g} s)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
        f"failed_share {failed / attempted:.6g} failed/attempted  ({failed}/{attempted})",
    ]
    names = workload.metric_names
    raw_rate = work / sum(r["m"].wall_s for r in records)
    lines += [
        f"{names['ops_per_s']} {metrics['ops_per_s']:.6g} {workload.work_unit}/s  "
        f"(= ops_per_s; wall clock {raw_rate:.6g})",
        f"{names['op_p50_ms']} {metrics['op_p50_ms']:.6g} ms  "
        f"(n={n}; = op_p50_ms; wall clock {raw['p50']:.6g})",
        f"{names['op_tail_ms']} {metrics['op_tail_ms']:.6g} ms  "
        f"({tail}; = op_tail_ms; wall clock {raw['tail']:.6g})",
    ]
    lines.append("reference-speed factors (set-up, measure) by cycle: " + "; ".join(
        f"{r['setup_factor']:.4g}, {r['m'].speed:.4g}" for r in records
    ))
    for name, pct in workload.extra_latencies:
        extra = tail_summary([x for r in records for x in r["m"].samples[name]], pct)
        stem = name[: -len("_ms")]
        lines.append(f"{stem}_p50_ms {extra['p50']:.6g} ms  (n={extra['samples']}; wall clock)")
        lines.append(f"{stem}_p{pct:g}_ms {extra['tail']:.6g} ms  "
                     f"(beyond={extra['beyond']}; wall clock)")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    from benchlib.speed import SpeedMeter, pin_one_cpu

    # Before any import can start a thread: later threads inherit the CPU.
    cpu = pin_one_cpu()
    meter = SpeedMeter()
    env, start_up = load_program(meter)
    from benchlib.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"backend={env['backend']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} cpu={cpu}")
    return measure_and_report(args, workload, start_up, meter)


def measure_and_report(args, workload, start_up, meter) -> int:
    if args.trace:
        from benchlib.layers import PER_LAYER, layer_metrics
        from benchlib.tracer import Tracer

        # Each pair runs one world untraced, then traced.
        budget = args.seconds / (2 * TRACE_PAIRS)
        plain, traced, layer_runs = [], [], []
        for pair in range(TRACE_PAIRS):
            seed, final = world_seed(args.seed, pair), pair == TRACE_PAIRS - 1
            plain.append(run_cycle(workload, seed, budget, final, meter))
            tracer = Tracer()
            traced.append(run_cycle(workload, seed, budget, final, meter, tracer))
            layer_runs.append(layer_metrics(tracer, traced[-1]["m"].observed))
        records = plain + traced
        metrics = {
            name: statistics.mean(run[name] for run in layer_runs)
            for name, _, _ in PER_LAYER if name != "trace.overhead"
        }
        metrics["trace.overhead"] = statistics.median(
            workload.e2e_seconds(r["m"]) for r in traced
        ) / statistics.median(workload.e2e_seconds(r["m"]) for r in plain)
        units = {name: unit for name, unit, _ in PER_LAYER}
        lines = [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    else:
        cycles = workload.cycles
        records = [
            run_cycle(workload, world_seed(args.seed, cycle), args.seconds / cycles,
                      cycle == cycles - 1, meter)
            for cycle in range(cycles)
        ]
        metrics, lines = end_to_end(workload, records, start_up)
        units = {name: unit for name, unit, _ in END_TO_END}

    attempted, failed, problems = outcome(records)
    lines += [f"FAILED {problem}" for problem in problems]
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
