"""Rewrite the batch-4x reference digests in ``perfbench/references.json``.

    python3 perfbench/regenerate_references.py --seeds 0-31

Run this only when a change is *meant* to alter detection output: the
batch-4x workload fails every run whose funnel counts or confirmed
activities differ from the digest stored for its seed.  Each digest is
computed with the default (legacy) engine and must agree with the kernel
engine before it is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from benchlib import checks  # noqa: E402
from benchlib.workloads import BatchWorkload, build_world, kernel_digest, scaled_config  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,9")
    args = parser.parse_args(argv)
    from repro.analysis.report import PaperReport

    references = checks.load_references()
    table = references.setdefault(BatchWorkload.name, {})
    for seed in parse_seeds(args.seeds):
        world = build_world(scaled_config(seed))
        report = PaperReport(world)
        digest = checks.detection_digest(report.result)
        if kernel_digest(world, report.dataset) != digest:
            print(f"seed {seed}: legacy and kernel engines disagree; not written")
            return 1
        table[str(seed)] = digest
        print(f"seed {seed}: {digest}", flush=True)
    references[BatchWorkload.name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    checks.REFERENCES_PATH.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
