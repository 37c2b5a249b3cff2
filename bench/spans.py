"""Span tracer for the traced run, and the per-layer metrics built from it.

:func:`install` rebinds the public functions each classim layer exposes,
from outside the package: every module-level name and class attribute
that refers to one of them is replaced by a wrapper that records a span
``(id, name, start, end, parent, run)``. Parents are tracked per thread,
so a span's children all ran on its thread. Spans stay in memory until
:meth:`Tracer.dump` writes them once, at the end of the process.

:func:`layer_metrics` turns one process's spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span name, module, attribute path, note taken from (args, result))
_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("corpus.load", "classim.corpus", "load_corpus", None),
    ("classroom.sample", "classim.classroom", "sample_classroom", None),
    ("promptgen.render", "classim.promptgen", "render_student_prompt",
     lambda args, out: hash((out.system, out.user))),
    ("promptgen.render", "classim.promptgen", "render_knowledge_prompt",
     lambda args, out: hash((out.system, out.user))),
    ("promptgen.render", "classim.promptgen", "render_direct_percentage_prompt",
     lambda args, out: hash((out.system, out.user))),
    ("gateway.run", "classim.gateway", "Gateway.run", lambda args, out: len(args[1])),
    ("gateway.complete", "classim.gateway", "MockStudentModel.complete", None),
    ("gateway.complete", "classim.gateway", "HttpChatBackend.complete", None),
    ("responses.parse", "classim.responses", "parse_answer", None),
    ("responses.parse", "classim.responses", "parse_percentage", None),
    ("responses.append", "classim.responses", "ResponseLog.append_batch", None),
    ("responses.read", "classim.responses", "ResponseLog.read_all", None),
    ("responses.build_matrix", "classim.responses", "build_matrix", None),
    ("irt.fit", "classim.irt", "fit_rasch", lambda args, out: out.iterations),
    ("metrics.permutation", "classim.metrics", "permutation_pvalue", None),
    ("metrics.compute", "classim.metrics", "pearson", None),
    ("metrics.compute", "classim.metrics", "spearman", None),
    ("metrics.compute", "classim.metrics", "mann_whitney_auc", None),
    ("metrics.compute", "classim.metrics", "difficulty_separation", None),
    ("metrics.compute", "classim.metrics", "distractor_match", None),
    ("metrics.compute", "classim.metrics", "skill_correctness", None),
    ("metrics.compute", "classim.metrics", "subgroup_correlations", None),
    ("orchestrator.collect", "classim.orchestrator", "run_simulate", None),
    ("orchestrator.collect", "classim.orchestrator", "run_dpce", None),
    ("orchestrator.collect", "classim.orchestrator", "run_baseline", None),
    ("orchestrator.evaluate", "classim.orchestrator", "evaluate_run", None),
    ("orchestrator.report", "classim.orchestrator", "render_report", None),
    ("cli.main", "classim.cli", "main", None),
)

# Spans that start a new run id for everything below them.
_RUN_ROOTS = frozenset({"orchestrator.collect", "orchestrator.evaluate", "orchestrator.report"})

Span = Tuple[int, str, float, float, int, int, object]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.run = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        tracer = self
        starts_run = name in _RUN_ROOTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            if starts_run:
                tracer.run = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = note(args, out) if note is not None else None
            tracer.spans.append((span_id, name, start, end, parent, tracer.run, extra))
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every classim module-level name bound to ``original`` at
    ``replacement``, so ``from .x import f`` copies are traced too."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("classim"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Import classim and trace its layers; return the tracer."""
    import classim  # noqa: F401 - loads every layer module
    import classim.cli  # noqa: F401

    tracer = Tracer()
    for name, module_name, path, note in _TARGETS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = tracer.wrap(name, original, note)
        if outer:
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)
    threading.Thread.start = tracer.wrap("gateway.thread_start", threading.Thread.start)
    return tracer


def _percentile_ms(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index] * 1000.0


def layer_metrics(
    spans: Sequence[Sequence],
    max_in_flight: int,
    bytes_appended: int,
    stub: Optional[Dict[str, int]],
) -> Dict[str, float]:
    """Per-layer numbers for one traced process.

    ``bytes_appended`` is the size of the response logs the process wrote
    (they start empty and are append-only); ``stub`` holds the endpoint's
    request and connection counts, or is None when no endpoint ran.
    """
    by_name: Dict[str, List[Sequence]] = {}
    children: Dict[int, float] = {}
    for span in spans:
        span_id, name, start, end, parent, run, extra = span
        by_name.setdefault(name, []).append(span)
        if parent:
            children[parent] = children.get(parent, 0.0) + (end - start)

    def spans_of(name: str) -> List[Sequence]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s[3] - s[2] for s in spans_of(name))

    def self_time(name: str) -> float:
        return sum(s[3] - s[2] - children.get(s[0], 0.0) for s in spans_of(name))

    metrics_s = self_time("metrics.compute") + self_time("metrics.permutation")
    renders = spans_of("promptgen.render")
    runs = spans_of("gateway.run")
    completes = spans_of("gateway.complete")
    collect_s = total("orchestrator.collect")
    run_wall = total("gateway.run")
    requests = sum(s[6] for s in runs)
    first_run: Dict[int, float] = {}
    for s in runs:
        first_run[s[5]] = min(first_run.get(s[5], s[2]), s[2])
    prepare_s = sum(
        first_run[s[0]] - s[2] for s in spans_of("orchestrator.collect") if s[0] in first_run
    )
    http_requests = stub["requests"] if stub else 0
    return {
        "corpus.load_s": total("corpus.load"),
        "corpus.loads": len(spans_of("corpus.load")),
        "classroom.sample_s": total("classroom.sample"),
        "classroom.samples": len(spans_of("classroom.sample")),
        "promptgen.render_s": total("promptgen.render"),
        "promptgen.renders": len(renders),
        "promptgen.distinct_prompt_share": (
            len({s[6] for s in renders}) / len(renders) if renders else 0.0
        ),
        "gateway.batches": len(runs),
        "gateway.batch_size_mean": requests / len(runs) if runs else 0.0,
        "gateway.threads_started": len(spans_of("gateway.thread_start")),
        "gateway.pool_busy_share": (
            total("gateway.complete") / (max_in_flight * run_wall) if run_wall else 0.0
        ),
        "gateway.outside_run_s": collect_s - run_wall,
        "gateway.complete_p50_ms": _percentile_ms([s[3] - s[2] for s in completes], 0.50),
        "gateway.complete_p99_ms": _percentile_ms([s[3] - s[2] for s in completes], 0.99),
        "gateway.attempts_per_request": len(completes) / requests if requests else 0.0,
        "gateway.connections_per_request": (
            stub["connections"] / http_requests if http_requests else 0.0
        ),
        "responses.parse_s": total("responses.parse"),
        "responses.parses": len(spans_of("responses.parse")),
        "responses.append_s": total("responses.append"),
        "responses.appends": len(spans_of("responses.append")),
        "responses.bytes_appended": bytes_appended,
        "responses.read_s": total("responses.read"),
        "responses.build_matrix_s": total("responses.build_matrix"),
        "irt.fit_s": total("irt.fit"),
        "irt.sweeps": sum(s[6] for s in spans_of("irt.fit")),
        "metrics.self_s": metrics_s,
        "metrics.permutation_share": total("metrics.permutation") / metrics_s,
        "metrics.permutation_calls": len(spans_of("metrics.permutation")),
        "orchestrator.prepare_s": prepare_s,
        "orchestrator.self_s": self_time("orchestrator.collect"),
        "orchestrator.evaluate_self_s": self_time("orchestrator.evaluate"),
        "cli.commands": len(spans_of("cli.main")),
    }


def median_metrics(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
