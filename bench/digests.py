"""Output-correctness gate for benchmark passes.

Every run a pass makes is checked three ways:

- completeness: the manifest plans the requests the workload expects, the
  log holds one graded reply per planned request, and no reply is an
  empty transport failure;
- consistency: a simulate run's predictions equal the per-item share of
  correct replies in its log;
- digests: ``responses.jsonl``, ``predictions.json``, ``fit.json`` and
  ``evaluation.json`` hash to the reference recorded for this workload and
  seed in ``reference_digests.json``. For a seed with no reference, every
  pass must match the first pass of the same invocation.

Artifacts embed the run's manifest hash, which covers the config and so
the stub's port; the digest replaces that hash with a fixed marker, so the
digests hold on any port and in any checkout.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ARTIFACTS = ("responses.jsonl", "predictions.json", "fit.json", "evaluation.json")
REFERENCE_PATH = Path(__file__).with_name("reference_digests.json")

Digests = Dict[str, Dict[str, str]]  # run -> artifact -> sha256


def run_digests(run_dir: Path) -> Dict[str, str]:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    marker = str(manifest["manifest_hash"]).encode("ascii")
    out = {}
    for name in ARTIFACTS:
        path = run_dir / name
        if path.exists():
            data = path.read_bytes().replace(marker, b"<manifest-hash>")
            out[name] = hashlib.sha256(data).hexdigest()
    return out


def run_problems(run_dir: Path, run: str, planned: int) -> Tuple[int, List[str]]:
    """(requests lost, problems) for run ``run`` in ``run_dir``, digests aside."""
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        return planned, [f"{run}: no manifest"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = []
    if manifest["counts"]["requests"] != planned:
        problems.append(
            f"{run}: manifest plans {manifest['counts']['requests']} requests, expected {planned}"
        )
    log = run_dir / "responses.jsonl"
    records = []
    if log.exists():
        with open(log, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
    lost = max(planned - len(records), 0) + sum(1 for r in records if r["raw"] == "")
    if lost:
        problems.append(f"{run}: {lost} of {planned} planned requests unanswered or failed")
    if manifest["mode"] == "simulate":
        predictions_path = run_dir / "predictions.json"
        if not predictions_path.exists():
            problems.append(f"{run}: no predictions.json")
        else:
            predictions = json.loads(predictions_path.read_text(encoding="utf-8"))["predictions"]
            totals: Dict[str, List[int]] = {}
            for r in records:
                cell = totals.setdefault(r["item_id"], [0, 0])
                cell[0] += int(r["correct"])
                cell[1] += 1
            for item_id, (correct, seen) in totals.items():
                if predictions.get(item_id) != correct / seen:
                    problems.append(
                        f"{run}: prediction for {item_id} is {predictions.get(item_id)}, "
                        f"log says {correct}/{seen}"
                    )
                    break
    return lost, problems


def load_reference() -> Dict[str, Dict[str, Digests]]:
    """workload -> seed -> recorded digests."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Gate:
    """Checks the passes of one (workload, seed) invocation.

    ``runs`` holds (run directory, planned requests) pairs; ``reference``
    the recorded digests, or None to hold passes to the first clean one.
    """

    def __init__(self, runs, reference: Optional[Digests]) -> None:
        self.runs = runs
        self.reference = reference

    def check(self, pass_dir: Path) -> Tuple[int, List[str]]:
        """(failed requests, problems) for one pass."""
        failed = 0
        problems: List[str] = []
        digests: Digests = {}
        for run, planned in self.runs:
            run_dir = pass_dir / run
            lost, found = run_problems(run_dir, run, planned)
            if not found:
                digests[run] = run_digests(run_dir)
                if self.reference is not None and digests[run] != self.reference.get(run):
                    expected = self.reference.get(run, {})
                    bad = sorted(
                        name for name in set(expected) | set(digests[run])
                        if expected.get(name) != digests[run].get(name)
                    )
                    found = [f"{run}: digest mismatch in {', '.join(bad)}"]
            if found:
                problems.extend(found)
                lost = planned
            failed += lost
        if self.reference is None and not problems:
            # No recorded reference for this seed: later passes must
            # reproduce the first clean one.
            self.reference = digests
        return failed, problems
