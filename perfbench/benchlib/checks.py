"""Output checks: digests of what the program computed, and their references.

Every check runs outside the timed region and yields one
:class:`CheckResult`; a failing check counts as one failed operation.
The batch workload compares its detection output against a per-seed
reference digest kept in ``references.json`` beside this package
(rewrite it deliberately with ``python3 perfbench/regenerate_references.py``);
for a seed without a stored reference, the output must instead equal
that of an independent detection engine over the same dataset.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

REFERENCES_PATH = Path(__file__).resolve().parent.parent / "references.json"


@dataclass
class CheckResult:
    """One output check: its name, whether it passed, and why not."""

    name: str
    ok: bool
    detail: str = ""


def detection_digest(result) -> str:
    """sha256 over the funnel stage counts and the confirmed activities.

    Activities enter as :func:`repro.serve.parity.activity_fingerprint`
    tuples (evidence details included), sorted, so the digest names the
    exact detection output independent of discovery order.
    """
    from repro.serve.parity import activity_fingerprint

    payload = {
        "funnel": [
            [stage.name, stage.nft_count, stage.component_count, stage.account_count]
            for stage in result.refinement.stages
        ],
        "activities": sorted(repr(activity_fingerprint(a)) for a in result.activities),
    }
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def world_bytes(world) -> bytes:
    """Every generated input a world hands the program, as bytes.

    Blocks (number, timestamp) and each transaction's full record --
    call, receipt, logs -- in chain order; two worlds are the same
    input exactly when these bytes are equal.
    """
    parts: List[str] = []
    for block in world.chain.blocks:
        parts.append(f"block {block.number} {block.timestamp}")
        parts.extend(repr(tx) for tx in block.transactions)
    return "\n".join(parts).encode()


def load_references() -> Dict[str, Dict[str, str]]:
    if not REFERENCES_PATH.exists():
        return {}
    return json.loads(REFERENCES_PATH.read_text())


def reference_digest(workload: str, seed: int) -> Optional[str]:
    return load_references().get(workload, {}).get(str(seed))


def compare(name: str, got: str, expected: str) -> CheckResult:
    if got == expected:
        return CheckResult(name, True)
    return CheckResult(name, False, f"got {got[:12]}, expected {expected[:12]}")


def from_mismatches(name: str, problems: List[str]) -> CheckResult:
    """A check passes when a parity walk reported no divergence."""
    if not problems:
        return CheckResult(name, True)
    shown = "; ".join(problems[:3])
    return CheckResult(name, False, f"{len(problems)} mismatches: {shown}")


def exactly_once(name: str, received: List[int], expected_count: int) -> CheckResult:
    """Every alert seq 0..expected_count-1 arrived, and none twice."""
    if sorted(received) == list(range(expected_count)):
        return CheckResult(name, True)
    missing = expected_count - len(set(received))
    duplicates = len(received) - len(set(received))
    return CheckResult(
        name, False,
        f"{len(received)} received for {expected_count} published "
        f"({missing} missing, {duplicates} duplicated)",
    )
