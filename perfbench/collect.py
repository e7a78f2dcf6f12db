"""Run one workload over several seeds and summarize each metric.

    python3 perfbench/collect.py --workload live-follow --seeds 1-10
    python3 perfbench/collect.py --workload batch-4x --seeds 1-10 --record

Each seed is one ``run.py`` process, run one after another.  For every
metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (the
distance between the quartiles as a share of the median) -- the figure
the run-to-run bounds in ``BENCHMARK.json`` are judged by.  ``--record``
stores the summary, with the sample count and the machine, in
``perfbench/baseline.json`` under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib.stats import quartiles  # noqa: E402
from regenerate_references import parse_seeds  # noqa: E402

BASELINE_PATH = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    values, units, runs = {}, {}, []
    for seed in parse_seeds(args.seeds):
        result, lines, elapsed = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, "wall_s": elapsed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "report": lines})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
              + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, series in values.items():
        stats = quartiles(series)
        summary[name] = {"unit": units[name], "samples": len(series), **stats}
        print(f"{name:36s} median={stats['median']:.5g} q1={stats['q1']:.5g} "
              f"q3={stats['q3']:.5g} spread={stats['spread']:.4f} {units[name]}")
    if args.record:
        baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
        key = args.workload + (" (trace)" if args.trace else "")
        baseline[key] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "all_correct": all(run["correct"] for run in runs),
            "metrics": summary,
            "runs": runs,
        }
        BASELINE_PATH.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
