"""One benchmark pass, run as a fresh process by ``run.py``.

Usage: ``python3 bench/child.py SPEC.json`` from inside the pass directory,
with the checkout's ``src`` on ``PYTHONPATH``. The spec names the
workload, the stub endpoint (if any) and whether to trace. The pass drives
classim through its public API or its CLI, exactly as a user would, and
writes ``result.json`` (and ``spans.json`` when traced) into the pass
directory.

Beyond the tracer of a traced pass, the pass wraps one thing: each
backend's ``complete`` is counted, and its first call time-stamped, which
is where set-up time ends.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, List, Tuple

Timings = List[Tuple[float, float]]


class BackendProbe:
    """Counts backend calls and time-stamps the first one."""

    def __init__(self, classes) -> None:
        self.first_call = None
        self._calls = itertools.count()
        for cls in classes:
            cls.complete = self._probe(cls.complete)

    def _probe(self, complete: Callable) -> Callable:
        probe = self

        def counted(backend, request):
            if probe.first_call is None:
                probe.first_call = time.monotonic()
            next(probe._calls)
            return complete(backend, request)

        return counted

    @property
    def calls(self) -> int:
        # itertools.count is atomic under threads; reading it advances it.
        return next(self._calls)


def _timed(into: Timings, fn: Callable, *args, **kwargs):
    """Call ``fn``, appending its (wall, process CPU) seconds to ``into``."""
    start, cpu = time.monotonic(), time.process_time()
    out = fn(*args, **kwargs)
    into.append((time.monotonic() - start, time.process_time() - cpu))
    return out


def mock_classroom(spec, collect: Timings, evaluate: Timings) -> None:
    import classim

    config = classim.ExperimentConfig(
        corpus_path="corpus.json",
        grade=8,
        n_students=300,
        strategy="diverse",
        mock=True,
        seed=spec["seed"],
    )
    _timed(collect, classim.run_simulate, config, out_dir="run")
    _timed(evaluate, classim.evaluate_run, "run")
    _timed(evaluate, classim.render_report, "run")


def endpoint_small_batches(spec, collect: Timings, evaluate: Timings) -> None:
    import classim

    config = classim.ExperimentConfig(
        corpus_path="corpus.json",
        grade=8,
        endpoint=spec["endpoint"],
        model="stub-model",
        seed=spec["seed"],
    )
    _timed(collect, classim.run_baseline, replace(config, mode="baseline"), out_dir="baseline")
    _timed(
        collect,
        classim.run_dpce,
        replace(config, mode="dpce", dpce_variant="averaged"),
        out_dir="dpce",
    )
    _timed(collect, classim.run_simulate, replace(config, n_students=10), out_dir="simulate")
    for run in ("baseline", "dpce", "simulate"):
        _timed(evaluate, classim.evaluate_run, run)
        _timed(evaluate, classim.render_report, run)


def sweep_small_corpus(spec, collect: Timings, evaluate: Timings) -> None:
    from classim import cli

    def command(into: Timings, argv: List[str]) -> None:
        code = _timed(into, cli.main, argv)
        if code != 0:
            raise RuntimeError(f"classim {' '.join(argv)} exited with {code}")

    command(collect, ["simulate", "--config", "sweep.json", "--out", "sweep"])
    for manifest in sorted(Path("sweep").glob("*/manifest.json")):
        command(evaluate, ["evaluate", "--run", str(manifest.parent)])
        command(evaluate, ["report", "--run", str(manifest.parent)])


STEPS = {
    "mock-classroom": mock_classroom,
    "endpoint-small-batches": endpoint_small_batches,
    "sweep-small-corpus": sweep_small_corpus,
}


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    from classim.gateway import HttpChatBackend, MockStudentModel

    probe = BackendProbe((MockStudentModel, HttpChatBackend))
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.install()
    collect: Timings = []
    evaluate: Timings = []
    STEPS[spec["workload"]](spec, collect, evaluate)
    end = time.monotonic()
    result = {
        "first_call": probe.first_call,
        "end": end,
        "collect_s": sum(wall for wall, _ in collect),
        "collect_cpu_s": sum(cpu for _, cpu in collect),
        "evaluate_s": sum(wall for wall, _ in evaluate),
        "backend_calls": probe.calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open("result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if tracer is not None:
        tracer.dump("spans.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
