"""classim benchmark: end-to-end metrics per workload, or per-layer ones when traced.

Run from the root of a classim checkout::

    python3 bench/run.py --workload mock-classroom --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --workload all --trace 1  # per-layer metrics
    python3 bench/run.py --workload all --record 0 7919  # write reference digests

One process with one thread drives the benchmark. Each pass starts one
fresh child process (``child.py``) that imports classim from ``./src`` and
runs the workload; the endpoint workload adds one stub server process
(``stub.py``). Passes repeat until ``--seconds`` would be exceeded, and
the result is the median over passes. With ``--trace 1`` untraced and
traced passes alternate, so tracing overhead is measured too. Every pass
goes through the correctness gate in ``digests.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import digests
import spans
from workloads import (
    MAX_IN_FLIGHT,
    STUB_DELAY_S,
    WORKLOADS,
    Workload,
    write_inputs,
)

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
# Fewest passes behind a median: untraced, and traced + untraced pairs.
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
# A run must end within 180 s; no pass starts that could end past this.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 120.0
# A pass during which the hypervisor ran other guests on this machine's
# CPUs for more than this share of the time ("steal" in /proc/stat) is
# left out of the medians when enough undisturbed passes remain. On a
# shared host, such passes ran 30-90% slower with no change to the program.
MAX_STEAL_SHARE = 0.05

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "collect_s": "s",
    "evaluate_s": "s",
    "replies_per_s": "1/s",
    "concurrency_efficiency": "ratio",
    "backend_requests_per_reply": "ratio",
    "answered_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.loads": "count",
    "classroom.sample_s": "s",
    "classroom.samples": "count",
    "promptgen.render_s": "s",
    "promptgen.renders": "count",
    "promptgen.distinct_prompt_share": "ratio",
    "gateway.batches": "count",
    "gateway.batch_size_mean": "count",
    "gateway.threads_started": "count",
    "gateway.pool_busy_share": "ratio",
    "gateway.outside_run_s": "s",
    "gateway.complete_p50_ms": "ms",
    "gateway.complete_p99_ms": "ms",
    "gateway.attempts_per_request": "ratio",
    "gateway.connections_per_request": "ratio",
    "responses.parse_s": "s",
    "responses.parses": "count",
    "responses.append_s": "s",
    "responses.appends": "count",
    "responses.bytes_appended": "bytes",
    "responses.read_s": "s",
    "responses.build_matrix_s": "s",
    "irt.fit_s": "s",
    "irt.sweeps": "count",
    "metrics.self_s": "s",
    "metrics.permutation_share": "ratio",
    "metrics.permutation_calls": "count",
    "orchestrator.prepare_s": "s",
    "orchestrator.self_s": "s",
    "orchestrator.evaluate_self_s": "s",
    "cli.commands": "count",
    "trace.overhead_s": "s",
}


class Stub:
    """The loopback endpoint process; always closed, even on failure."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--delay", str(STUB_DELAY_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"stub endpoint failed to start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}/v1/chat/completions"

    def stats(self, reset: bool = False) -> Dict[str, int]:
        self.proc.stdin.write("reset\n" if reset else "stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _cpu_ticks() -> Tuple[int, int]:
    """(steal, total) CPU ticks of this machine so far; (0, 0) off Linux."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


class Pass:
    def __init__(self, traced: bool, duration: float, steal_share: float) -> None:
        self.traced = traced
        self.duration = duration
        self.steal_share = steal_share
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}


def _run_pass(
    root: Path, workload: Workload, seed: int, inputs: Path, pass_dir: Path,
    stub: Optional[Stub], traced: bool, gate: digests.Gate,
) -> Pass:
    shutil.copytree(inputs, pass_dir)
    spec = {
        "workload": workload.name,
        "seed": seed,
        "endpoint": stub.url if stub else None,
        "trace": traced,
    }
    (pass_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    if stub:
        stub.stats(reset=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    steal, ticks = _cpu_ticks()
    start = time.monotonic()
    with open(pass_dir / "child.out", "w") as out, open(pass_dir / "child.err", "w") as err:
        try:
            code = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), "spec.json"],
                cwd=pass_dir, env=env, stdout=out, stderr=err, timeout=CHILD_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            code = None
    duration = time.monotonic() - start
    steal_after, ticks_after = _cpu_ticks()
    result = Pass(traced, duration, (steal_after - steal) / max(ticks_after - ticks, 1))
    result_path = pass_dir / "result.json"
    if code != 0 or not result_path.exists():
        tail = (pass_dir / "child.err").read_text(errors="replace")[-2000:]
        result.failed = workload.planned_requests
        result.problems = [f"pass process exited with {code}:\n{tail}"]
        return result
    child = json.loads(result_path.read_text(encoding="utf-8"))
    stub_stats = stub.stats() if stub else None
    result.failed, result.problems = gate.check(pass_dir)

    replies = 0
    bytes_logged = 0
    for run, _ in workload.runs:
        log = pass_dir / run / "responses.jsonl"
        if log.exists():
            bytes_logged += log.stat().st_size
            with open(log, "rb") as handle:
                replies += sum(1 for _ in handle)
    if traced:
        with open(pass_dir / "spans.json", "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
        result.metrics = spans.layer_metrics(recorded, MAX_IN_FLIGHT, bytes_logged, stub_stats)
        result.metrics["wall_s"] = child["end"] - start
        return result

    collect_s = child["collect_s"]
    if stub_stats:
        backend_requests = stub_stats["requests"]
        busy_s = backend_requests * STUB_DELAY_S / MAX_IN_FLIGHT
    else:
        backend_requests = child["backend_calls"]
        # The mock computes in this process under the interpreter lock, so
        # its bottleneck is one CPU: busy time is the process's CPU time.
        busy_s = child["collect_cpu_s"]
    result.metrics = {
        "wall_s": child["end"] - start,
        "setup_s": child["first_call"] - start,
        "collect_s": collect_s,
        "evaluate_s": child["evaluate_s"],
        "replies_per_s": replies / collect_s,
        "concurrency_efficiency": busy_s / collect_s,
        "backend_requests_per_reply": backend_requests / max(replies, 1),
        "answered_share": 1.0 - result.failed / workload.planned_requests,
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }
    return result


def run_workload(
    root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
    gate: digests.Gate, min_passes: int,
) -> List[Pass]:
    work = root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    write_inputs(workload, seed, inputs)
    passes: List[Pass] = []
    stub = Stub() if workload.endpoint else None
    try:
        start = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_dir = work / f"pass{len(passes)}"
            done = _run_pass(root, workload, seed, inputs, pass_dir, stub, traced, gate)
            passes.append(done)
            for problem in done.problems:
                print(f"{workload.name} pass {len(passes) - 1}: {problem}", file=sys.stderr)
            if not done.problems:
                shutil.rmtree(pass_dir, ignore_errors=True)
            elapsed = time.monotonic() - start
            longest = max(p.duration for p in passes)
            if elapsed + longest > RUN_BUDGET_S:
                break
            if len(passes) >= min_passes and elapsed + longest > seconds:
                break
    finally:
        if stub:
            stub.close()
    if all(not p.problems for p in passes):
        shutil.rmtree(work, ignore_errors=True)
    return passes


def _median(passes: List[Pass], key: str) -> float:
    return statistics.median(p.metrics[key] for p in passes)


def _undisturbed(passes: List[Pass], least: int) -> List[Pass]:
    """The passes at or below MAX_STEAL_SHARE, or the ``least`` least
    disturbed ones when fewer qualify."""
    ranked = sorted(passes, key=lambda p: p.steal_share)
    calm = [p for p in ranked if p.steal_share <= MAX_STEAL_SHARE]
    return calm if len(calm) >= least else ranked[:least]


def summarize(passes: List[Pass], trace: bool) -> Dict[str, float]:
    plain = [p for p in passes if not p.traced and p.metrics]
    traced = [p for p in passes if p.traced and p.metrics]
    if trace:
        if not plain or not traced:
            return {}
        plain = _undisturbed(plain, MIN_TRACED_PASSES // 2)
        traced = _undisturbed(traced, MIN_TRACED_PASSES // 2)
        out = spans.median_metrics([p.metrics for p in traced])
        out["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
        out.pop("wall_s")
        return out
    if not plain:
        return {}
    used = _undisturbed(plain, MIN_PASSES)
    print(
        f"  medians over {len(used)} of {len(plain)} passes; steal share per pass "
        + " ".join(f"{p.steal_share:.3f}" for p in plain)
    )
    out = {}
    for key in END_TO_END:
        values = sorted(p.metrics[key] for p in used)
        out[key] = statistics.median(values)
        print(
            f"  {key:<28} median {out[key]:.6g} {END_TO_END[key]}  "
            f"min {values[0]:.6g}  max {values[-1]:.6g}"
        )
    return out


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment(root: Path, args: argparse.Namespace, names: List[str]) -> Dict[str, object]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "requests": version("requests"),
        "git_commit": _git_commit(root),
        "stub_delay_s": STUB_DELAY_S,
        "max_in_flight": MAX_IN_FLIGHT,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {
            name: {
                "items": WORKLOADS[name].n_items,
                "students": WORKLOADS[name].students,
                "planned_requests_per_pass": WORKLOADS[name].planned_requests,
            }
            for name in names
        },
    }


def record(root: Path, names: List[str], seeds: List[int]) -> int:
    """Run two passes per (workload, seed) and store their digests."""
    reference = digests.load_reference()
    for name in names:
        workload = WORKLOADS[name]
        for seed in seeds:
            gate = digests.Gate(workload.runs, None)
            passes = run_workload(root, workload, seed, 0.0, False, gate, min_passes=2)
            if any(p.problems for p in passes):
                print(f"not recorded: {name} seed {seed} failed its checks", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = gate.reference
            print(f"recorded {name} seed {seed}")
    ordered = {
        name: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
        for name, by_seed in sorted(reference.items())
    }
    digests.REFERENCE_PATH.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="classim benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (inputs and run seed)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED",
                        help="record reference digests for these seeds instead of measuring")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "classim" / "__init__.py").is_file():
        print("error: no classim sources at ./src/classim; run from a checkout root",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return record(root, names, args.record)

    print("environment: " + json.dumps(environment(root, args, names), sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    metrics: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        workload = WORKLOADS[name]
        reference = digests.load_reference().get(name, {}).get(str(args.seed))
        gate = digests.Gate(workload.runs, reference)
        print(f"{name}: seed {args.seed}, "
              f"{'recorded' if reference else 'no recorded'} reference digests")
        passes = run_workload(
            root, workload, args.seed, args.seconds, bool(args.trace), gate,
            MIN_TRACED_PASSES if args.trace else MIN_PASSES,
        )
        attempted += len(passes) * workload.planned_requests
        failed += sum(p.failed for p in passes)
        values = summarize(passes, bool(args.trace))
        correct = correct and bool(values) and not any(p.problems for p in passes)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in units.items():
            if key in values:
                metrics[prefix + key] = {"value": values[key], "unit": unit}
    if args.trace:
        for key, entry in metrics.items():
            print(f"  {key:<40} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
