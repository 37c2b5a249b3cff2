"""Experiment drivers: simulate, estimate, solve, evaluate, combine.

A run is a directory. ``manifest.json`` pins the configuration (hashed),
the prompt fixtures (hashed) and the request counts; ``responses.jsonl``
accumulates graded replies in a deterministic order so two runs with the
same seed produce byte-identical logs and an interrupted run can resume
into the same bytes; the remaining artifacts are derived from those two
plus the corpus and never embed timestamps, so re-deriving them is also
byte-stable.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import itertools
import json
import math
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union, get_type_hints

from . import __version__
from .classroom import (
    SkillDistribution,
    StudentProfile,
    sample_classroom,
    strategy_kind,
)
from .corpus import Corpus, Item, check_kind, filter_corpus, is_number, json_kinds
from .corpus import load_corpus, read_json
from .gateway import (
    CompletionBackend,
    CompletionRecord,
    CompletionRequest,
    Gateway,
    HttpChatBackend,
    MockStudentModel,
    RequestKey,
    parse_endpoint,
)
from .irt import FitResult, fit_rasch
from .metrics import (
    CorrelationResult,
    difficulty_separation,
    distractor_agreement,
    ensemble_predictions,
    pearson,
    permutation_pvalue,
    skill_correctness,
    spearman,
    subgroup_correlations,
    tally_wrong_choices,
)
from .promptgen import (
    PromptTemplates,
    RenderedPrompt,
    render_direct_percentage_prompt,
    render_knowledge_prompt,
    render_student_prompt,
)
from .responses import (
    NO_STUDENT,
    ParseStatus,
    ResponseLog,
    ResponseMatrix,
    SimulatedResponse,
    build_matrix,
    direct_estimates,
    grade as grade_answer,
    parse_answer,
    parse_percentage,
)
from .rng import mix64

MANIFEST_NAME = "manifest.json"
RESPONSES_NAME = "responses.jsonl"
FIT_NAME = "fit.json"
PREDICTIONS_NAME = "predictions.json"
EVALUATION_JSON_NAME = "evaluation.json"
EVALUATION_CSV_NAME = "evaluation.csv"
REPORT_NAME = "report.md"
CAPTURE_NAME = "capture.jsonl"

_DPCE_VARIANTS = {
    # variant -> (temperature, replicates)
    "greedy": (0.0, 1),
    "averaged": (0.3, 10),
}

# mock_options keys: the mock's own tunables. Its corpus and seed come from
# the run, its skill mixture from skill_weights.
_MOCK_OPTIONS = frozenset(inspect.signature(MockStudentModel).parameters) - {
    "corpus",
    "seed",
    "mixture",
}
# Below this many predicted items, p-values come from permutations.
PERMUTATION_BELOW = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on, in one hashable bundle."""

    corpus_path: str
    mode: str = "simulate"  # simulate | dpce | baseline
    grade: Optional[int] = None
    n_students: int = 300
    strategy: str = "none"
    model: str = "local-model"
    endpoint: str = "http://localhost:8000/v1/chat/completions"
    temperature: float = 0.7
    seed: int = 0
    mock: bool = False
    replicates: int = 1
    dpce_variant: str = "greedy"
    mask_failed: bool = False
    skill_weights: Optional[Dict[str, float]] = None
    max_retries: int = 3
    max_in_flight: int = 8
    timeout: float = 60.0
    capture: bool = False
    mock_options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, kinds in _FIELD_TYPES.items():
            check_kind(name, getattr(self, name), kinds)
        if self.mode not in ("simulate", "dpce", "baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, least in (
            ("n_students", 1),
            ("replicates", 1),
            ("max_retries", 0),
            ("max_in_flight", 1),
            ("temperature", 0),
        ):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}")
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if self.dpce_variant not in _DPCE_VARIANTS:
            raise ValueError(f"unknown dpce_variant {self.dpce_variant!r}")
        unknown = sorted(set(self.mock_options) - _MOCK_OPTIONS)
        if unknown:
            raise ValueError(
                f"unknown mock_options key(s) {unknown}; known: {sorted(_MOCK_OPTIONS)}"
            )
        # parsed here, not first in the run, so every mode rejects them early
        parse_endpoint(self.endpoint)
        strategy_kind(self.strategy)
        try:
            self.distribution()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"skill_weights: {exc}") from None

    def distribution(self) -> SkillDistribution:
        if self.skill_weights is None:
            return SkillDistribution.default()
        return SkillDistribution.from_mapping(self.skill_weights)

    def roster(self) -> List[StudentProfile]:
        """The run's one classroom: the one simulate seats and evaluate groups."""
        return sample_classroom(self.n_students, self.distribution(), self.strategy, self.seed)

    def to_mapping(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_mapping(cls, raw: Mapping[str, object]) -> "ExperimentConfig":
        known = {spec.name for spec in cls.__dataclass_fields__.values()}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = sorted(
            spec.name
            for spec in cls.__dataclass_fields__.values()
            if spec.default is MISSING and spec.default_factory is MISSING and spec.name not in raw
        )
        if missing:
            raise ValueError(f"missing config fields: {missing}")
        return cls(**raw)  # type: ignore[arg-type]


_FIELD_TYPES: Dict[str, Tuple[type, ...]] = {
    name: json_kinds(hint) for name, hint in get_type_hints(ExperimentConfig).items()
}


def expand_sweep(
    base: Mapping[str, object],
) -> List[Tuple[str, ExperimentConfig]]:
    """Grid-expand list-valued ``n_students``/``strategy`` fields.

    Each expanded run gets its own seed, derived by mixing the run index
    into the base seed, so sweep points are independent draws rather than
    accidental replays of one another. A config with no list fields comes
    back as a single unnamed run with its seed untouched. Two grid points
    that would share a run directory (a repeated value, or ``single:``
    names that differ only in ``:`` versus ``-``) are an error.
    """
    sizes = base.get("n_students", 300)
    strategies = base.get("strategy", "none")
    swept = isinstance(sizes, (list, tuple)) or isinstance(strategies, (list, tuple))
    size_list = list(sizes) if isinstance(sizes, (list, tuple)) else [sizes]
    strategy_list = (
        list(strategies) if isinstance(strategies, (list, tuple)) else [strategies]
    )
    for name, values in (("n_students", size_list), ("strategy", strategy_list)):
        if not values:
            raise ValueError(f"{name} must list at least one value")
    runs: Dict[str, ExperimentConfig] = {}
    for index, (n, strategy) in enumerate(itertools.product(size_list, strategy_list)):
        # built with the base seed first, so every field is checked as in a single run
        config = ExperimentConfig.from_mapping({**base, "n_students": n, "strategy": strategy})
        if not swept:
            return [("", config)]
        name = f"n{config.n_students}-{config.strategy.replace(':', '-')}"
        if name in runs:
            raise ValueError(f"two sweep points would share the run directory {name!r}")
        runs[name] = replace(config, seed=config.seed ^ mix64(index))
    return list(runs.items())


def _canonical_json(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_manifest(
    config: ExperimentConfig,
    templates: PromptTemplates,
    n_items: int,
    n_students: int,
    n_requests: int,
    names_repeat: bool,
) -> Dict[str, object]:
    config_map = config.to_mapping()
    manifest: Dict[str, object] = {
        "manifest_version": 1,
        "package_version": __version__,
        "mode": config.mode,
        "config": config_map,
        "config_hash": _sha256_text(_canonical_json(config_map)),
        "prompt_hashes": templates.fixture_hashes(),
        "counts": {
            "items": n_items,
            "students": n_students,
            "requests": n_requests,
        },
        "names_repeat": names_repeat,
    }
    manifest["manifest_hash"] = _sha256_text(_canonical_json(manifest))
    return manifest


def _json_text(payload: Mapping[str, object]) -> str:
    """Strict JSON: a NaN or infinity, at any depth, is written as null."""
    plain = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(plain, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def _write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: the text goes to a
    temporary file in the same directory, then takes the name, so a kill
    leaves the old file or the new one, never a torn one, and a failed
    write leaves no temporary file behind. When an old file is there, the
    text reaches the disk before the rename, so that a power loss cannot
    put an empty file in its place either. A first write has no old bytes
    to lose and skips that sync."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    replacing = os.path.exists(path)
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            if replacing:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _write_json(path: Path, payload: Mapping[str, object]) -> None:
    _write_text(path, _json_text(payload))


def _read_json(path: Path, **hints: object) -> Dict[str, object]:
    """The JSON object in ``path``; a ValueError naming the file unless it
    parses to an object with each field in ``hints``, of its hint's JSON kind."""
    payload = read_json(path, dict, "must hold a JSON object")
    for name, hint in hints.items():
        if name not in payload:
            raise ValueError(f"{path}: missing field {name!r}")
        check_kind(f"{path}: field {name!r}", payload[name], json_kinds(hint))
    return payload


def _read_manifest(run_path: Path, **hints: object) -> Tuple[Dict[str, object], ExperimentConfig]:
    """A run's manifest and its configuration; a ValueError naming
    ``manifest.json`` unless it holds an object ``config`` that is a valid
    configuration, and each field in ``hints`` as :func:`_read_json` checks it."""
    path = run_path / MANIFEST_NAME
    manifest = _read_json(path, config=dict, **hints)
    try:
        return manifest, ExperimentConfig.from_mapping(manifest["config"])
    except ValueError as exc:
        raise ValueError(f"{path}: field 'config': {exc}") from None


# fit.json's fields are FitResult's, so their JSON kinds are read off its hints
_FIT_HINTS = get_type_hints(FitResult)


def _read_predictions(path: Path) -> Dict[str, object]:
    """``predictions.json`` at ``path``, each prediction a float or None; a
    ValueError naming the file unless it holds an object ``parse_counts``
    and its ``predictions`` maps item ids to numbers or null."""
    payload = _read_json(path, parse_counts=dict)
    predictions = payload.get("predictions")
    if not isinstance(predictions, dict) or not all(
        value is None or is_number(value) for value in predictions.values()
    ):
        raise ValueError(f"{path}: field 'predictions' must map item ids to numbers or null")
    payload["predictions"] = {
        item_id: None if value is None else float(value)
        for item_id, value in predictions.items()
    }
    return payload


def _load_run_corpus(config: ExperimentConfig) -> Corpus:
    corpus = load_corpus(config.corpus_path)
    if config.grade is not None:
        corpus = filter_corpus(corpus, grade=config.grade)
    if len(corpus) == 0:
        raise ValueError("no items left after filtering; check corpus and grade")
    return corpus


def _make_backend(config: ExperimentConfig, corpus: Corpus) -> CompletionBackend:
    if not config.mock:
        return HttpChatBackend(config.endpoint, config.model, config.timeout)
    return MockStudentModel(
        corpus=corpus,
        seed=config.seed,
        mixture=config.distribution(),
        **config.mock_options,
    )


@dataclass
class RunOutcome:
    manifest: Dict[str, object]
    out_dir: Optional[Path]
    responses: List[SimulatedResponse]
    completed: bool
    matrix: Optional[ResponseMatrix] = None
    fit: Optional[FitResult] = None
    predictions: Dict[str, Optional[float]] = field(default_factory=dict)
    parse_counts: Dict[str, int] = field(default_factory=dict)


class RequestFailed(RuntimeError):
    """A request still failed after its retries, so the run stopped."""


def _prepare_out_dir(
    out_dir: Optional[Union[str, Path]], manifest: Dict[str, object], items: Mapping[str, Item]
) -> Tuple[Optional[Path], Optional[ResponseLog], List[SimulatedResponse]]:
    """Create or re-enter a run directory, reading its log as graded by
    ``items``; refuse one built from a different configuration. An
    unchanged manifest is not rewritten, so a rerun cannot leave it truncated."""
    if out_dir is None:
        return None, None, []
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    manifest_path = out_path / MANIFEST_NAME
    text = _json_text(manifest)
    if manifest_path.exists():
        existing = _read_json(manifest_path, config_hash=str)
        if existing["config_hash"] != manifest["config_hash"]:
            raise ValueError(
                f"{out_path} holds a run with a different configuration; "
                "pick a fresh directory or delete the old run"
            )
    if not manifest_path.exists() or manifest_path.read_bytes() != text.encode("utf-8"):
        _write_text(manifest_path, text)
    log = ResponseLog(str(out_path / RESPONSES_NAME))
    return out_path, log, log.open_resumable(items)


# A grader turns one reply into (chosen letter, correct, parse status).
Grader = Callable[[Item, str], Tuple[Optional[str], int, ParseStatus]]
Renderer = Callable[[Item, Optional[StudentProfile], PromptTemplates], RenderedPrompt]


def _grade_choice(item: Item, text: str) -> Tuple[Optional[str], int, ParseStatus]:
    parsed = parse_answer(text, item.choice_letters)
    return parsed.chosen, grade_answer(parsed.chosen, item.correct_key), parsed.status


def _grade_percentage(item: Item, text: str) -> Tuple[Optional[str], int, ParseStatus]:
    stated = parse_percentage(text) is not None
    return None, 0, ParseStatus.PARSED if stated else ParseStatus.FAILED


def _capture_line(record: CompletionRecord) -> str:
    request = record.request
    return json.dumps(
        {
            **request.key._asdict(),
            "system": request.prompt.system,
            "user": request.prompt.user,
            "text": record.text,
            "ok": record.ok,
            "attempts": record.attempts,
        },
        ensure_ascii=False,
    ) + "\n"


def _collect(
    config: ExperimentConfig,
    out_dir: Optional[Union[str, Path]],
    backend: Optional[CompletionBackend],
    seated: bool,
    replicates: int,
    temperature: float,
    render: Renderer,
    grader: Grader,
    max_requests: Optional[int] = None,
) -> Tuple[RunOutcome, Corpus]:
    """The request pipeline every mode runs through.

    A seated mode asks each student of the run's one roster, as a student
    of the item's grade; the other modes ask from one ``NO_STUDENT``
    seat. The plan covers items in corpus order, then seats, then
    replicates, and is rendered lazily as one gateway stream consumes
    it; that order is also the log order:
    equal seeds give byte-identical logs and an interrupted log is a
    clean prefix that a rerun completes. Replies are graded as they
    arrive and appended once per item. A request that still fails after
    its retries stops the run with :class:`RequestFailed`; only the
    replies before it are logged, so a rerun asks for it again, and the
    stream's queued requests are never sent. A rerun checks that the log
    is the plan's first requests, in order and graded as the corpus
    grades them, before it sends any request, and continues the plan
    after them. With ``config.capture`` every record this call receives,
    the failed one included, is appended to ``capture.jsonl`` in the same
    plan order. ``max_requests`` stops after that many new completions
    (used to exercise resumption).
    """
    corpus = _load_run_corpus(config)
    templates = PromptTemplates.load()
    seats: Sequence[Optional[StudentProfile]] = (None,)
    n_students, names_repeat = 0, False
    if seated:
        seats = roster = config.roster()
        # counted per grade present: it feeds manifest_hash, which every artifact embeds
        n_students = len(roster) * len(corpus.grades_present())
        names = {profile.identity for profile in roster}
        names_repeat = config.strategy == "diverse" and len(names) < len(roster)
    n_requests = len(seats) * replicates * len(corpus)
    if backend is None:
        backend = _make_backend(config, corpus)
    manifest = build_manifest(
        config, templates, len(corpus), n_students, n_requests, names_repeat
    )
    out_path, log, responses = _prepare_out_dir(out_dir, manifest, corpus.by_id)
    gateway = Gateway(
        backend, max_retries=config.max_retries, max_in_flight=config.max_in_flight
    )

    def plan() -> Iterator[Tuple[RequestKey, Item, Optional[StudentProfile]]]:
        for item in corpus:
            for seat in seats:
                student_index = NO_STUDENT if seat is None else seat.student_index
                for replicate in range(replicates):
                    yield RequestKey(item.item_id, student_index, replicate), item, seat

    cells = plan()
    for line, response in enumerate(responses, start=1):
        key = next(cells, (None,))[0]
        if response.key != key:
            where = "past the plan's end" if key is None else f"where the plan has {tuple(key)}"
            raise ValueError(
                f"{log.path}:{line}: logged reply {tuple(response.key)} {where}; "
                "a resumed log must be a prefix of this run's plan"
            )
    requests = (
        CompletionRequest(
            prompt=render(item, seat, templates),
            key=key,
            temperature=temperature,
            skill=None if seat is None else seat.skill,
        )
        for key, item, seat in itertools.islice(cells, max_requests)
    )

    def append(graded: List[SimulatedResponse]) -> None:
        if log is not None:
            log.append_batch(graded)
        responses.extend(graded)

    capture = None
    if config.capture and out_path is not None:
        capture = open(out_path / CAPTURE_NAME, "a", encoding="utf-8")
    records = gateway.stream(requests)
    try:
        for item_id, item_records in itertools.groupby(
            records, key=lambda record: record.request.key.item_id
        ):
            item = corpus.by_id[item_id]
            graded: List[SimulatedResponse] = []
            for record in item_records:
                request = record.request
                if capture is not None:
                    capture.write(_capture_line(record))
                if not record.ok:
                    append(graded)
                    raise RequestFailed(
                        f"run {out_path or '(in memory)'} stopped: request "
                        f"{tuple(request.key)} failed after {record.attempts} "
                        f"attempt(s): {record.error!r}"
                    )
                chosen, correct, status = grader(item, record.text)
                graded.append(
                    SimulatedResponse(
                        *request.key,  # item_id, student_index, replicate
                        skill="" if request.skill is None else request.skill.value,
                        raw=record.text,
                        chosen=chosen,
                        correct=correct,
                        parse_status=status.value,
                    )
                )
            append(graded)
    finally:
        records.close()
        if capture is not None:
            capture.close()

    outcome = RunOutcome(
        manifest=manifest,
        out_dir=out_path,
        responses=responses,
        completed=len(responses) == n_requests,
    )
    return outcome, corpus


def _derive_predictions(
    config: ExperimentConfig, corpus: Corpus, responses: Iterable[SimulatedResponse]
) -> Tuple[Dict[str, object], Optional[ResponseMatrix]]:
    """The ``predictions.json`` fields of a ``config.mode`` run whose graded
    replies are ``responses``, parse counts last, and for simulate its
    response matrix, from one pass over ``responses``."""
    counts = {status.value: 0 for status in ParseStatus}

    def counted() -> Iterator[SimulatedResponse]:
        for response in responses:
            counts[response.parse_status] += 1
            yield response

    item_ids = [item.item_id for item in corpus]
    matrix = None
    if config.mode == "simulate":
        matrix = build_matrix(counted(), item_ids, mask_failed=config.mask_failed)
        rates = matrix.item_success_rates().tolist()
        predictions = {i: None if math.isnan(rate) else rate for i, rate in zip(item_ids, rates)}
        fields: Dict[str, object] = {"predictions": predictions}
    elif config.mode == "dpce":
        parsed = ((response.item_id, parse_percentage(response.raw)) for response in counted())
        fields = {"variant": config.dpce_variant, "predictions": direct_estimates(parsed, item_ids)}
    else:  # baseline: one reply per item, in corpus order
        correct = {response.item_id: float(response.correct) for response in counted()}
        fields = {"predictions": correct, "accuracy": sum(correct.values()) / len(correct)}
    return {**fields, "parse_counts": counts}, matrix


def _finish(config: ExperimentConfig, outcome: RunOutcome, corpus: Corpus) -> RunOutcome:
    """Give ``outcome`` its parse counts and, once the run is complete, its
    predictions and, for simulate, its matrix and fit; then write
    ``fit.json``, if there is a fit, and ``predictions.json``."""
    fields, matrix = _derive_predictions(config, corpus, outcome.responses)
    outcome.parse_counts = fields["parse_counts"]
    if not outcome.completed:
        return outcome
    outcome.predictions, outcome.matrix = fields["predictions"], matrix
    if matrix is not None:
        outcome.fit = fit_rasch(matrix)
    if outcome.out_dir is not None:
        identity = {"manifest_hash": outcome.manifest["manifest_hash"]}
        if outcome.fit is not None:
            _write_json(outcome.out_dir / FIT_NAME, {**outcome.fit.to_json_dict(), **identity})
        _write_json(outcome.out_dir / PREDICTIONS_NAME, {**identity, "mode": config.mode, **fields})
    return outcome


def run_simulate(
    config: ExperimentConfig,
    out_dir: Optional[Union[str, Path]] = None,
    backend: Optional[CompletionBackend] = None,
    max_requests: Optional[int] = None,
) -> RunOutcome:
    """Role-play every (student, item, replicate) cell and fit the result.

    ``max_requests`` stops after that many new completions (used to
    exercise resumption); the outcome then reports ``completed=False``
    and carries no fit.
    """
    config = replace(config, mode="simulate")
    outcome, corpus = _collect(
        config,
        out_dir,
        backend,
        seated=True,
        replicates=config.replicates,
        temperature=config.temperature,
        render=render_student_prompt,
        grader=_grade_choice,
        max_requests=max_requests,
    )
    return _finish(config, outcome, corpus)


def run_dpce(
    config: ExperimentConfig,
    out_dir: Optional[Union[str, Path]] = None,
    backend: Optional[CompletionBackend] = None,
) -> RunOutcome:
    """Ask the model to estimate each item's success percentage directly.

    The greedy variant asks once at temperature 0; the averaged variant
    asks ten times at temperature 0.3 and averages whatever parses. The
    per-item estimate lands in ``predictions.json``; replicates whose
    reply never states a percentage are dropped from the average, and an
    item with no parseable replicate gets a null estimate.
    """
    config = replace(config, mode="dpce")
    temperature, replicates = _DPCE_VARIANTS[config.dpce_variant]
    outcome, corpus = _collect(
        config,
        out_dir,
        backend,
        seated=False,
        replicates=replicates,
        temperature=temperature,
        render=lambda item, _, templates: render_direct_percentage_prompt(item, templates),
        grader=_grade_percentage,
    )
    return _finish(config, outcome, corpus)


def run_baseline(
    config: ExperimentConfig,
    out_dir: Optional[Union[str, Path]] = None,
    backend: Optional[CompletionBackend] = None,
) -> RunOutcome:
    """Solve every item once as an expert, reporting raw model knowledge.

    The per-item record is 1 when the model picked the keyed answer. A
    low overall accuracy here caps what any persona conditioning can be
    expected to deliver downstream.
    """
    config = replace(config, mode="baseline")
    outcome, corpus = _collect(
        config,
        out_dir,
        backend,
        seated=False,
        replicates=1,
        temperature=0.0,
        render=lambda item, _, templates: render_knowledge_prompt(item, templates),
        grader=_grade_choice,
    )
    return _finish(config, outcome, corpus)


def _correlation_payload(result: CorrelationResult, method: str) -> Dict[str, object]:
    return {**asdict(result), "p_method": method}


def evaluate_predictions(
    predictions: Mapping[str, Optional[float]],
    corpus: Corpus,
    seed: int = 0,
) -> Dict[str, object]:
    """Core agreement numbers for one prediction set against the corpus.

    Small samples (< ``PERMUTATION_BELOW`` items) get permutation
    p-values; the t approximation takes over above that.
    """
    sim: List[float] = []
    real: List[float] = []
    used: List[str] = []
    for item in corpus:
        value = predictions.get(item.item_id)
        if value is None:
            continue
        sim.append(float(value))
        real.append(item.real_percent_correct)
        used.append(item.item_id)
    if len(sim) < 3:
        raise ValueError(f"need at least 3 predicted items to evaluate, got {len(sim)}")
    labels = {item.item_id: item.difficulty_label for item in corpus}
    pred_map = {item_id: value for item_id, value in zip(used, sim)}
    method = "permutation" if len(sim) < PERMUTATION_BELOW else "t"
    result: Dict[str, object] = {
        "n_items": len(sim),
        "pearson": _correlation_payload(pearson(sim, real), method),
        "spearman": _correlation_payload(spearman(sim, real), method),
    }
    if method == "permutation":
        pearson_p, spearman_p = permutation_pvalue(sim, real, seed)
        result["pearson"]["p_value"] = pearson_p
        result["spearman"]["p_value"] = spearman_p
    for mode in ("hard_vs_easy", "hard_vs_rest"):
        result[f"auc_{mode}"] = asdict(difficulty_separation(pred_map, labels, mode=mode))
    return result


def _demographic_groups(roster: Sequence[StudentProfile]) -> Dict[str, List[int]]:
    groups: Dict[str, List[int]] = {}
    for profile in roster:
        if profile.name_demographics is None:
            continue
        gender, race = profile.name_demographics
        groups.setdefault(gender.lower(), []).append(profile.student_index)
        groups.setdefault(race.lower(), []).append(profile.student_index)
    return groups


def _subgroup_real_rates(corpus: Corpus) -> Dict[str, Dict[str, float]]:
    rates: Dict[str, Dict[str, float]] = {}
    for item in corpus:
        if not item.real_subgroup_percent_correct:
            continue
        for label, value in item.real_subgroup_percent_correct.items():
            rates.setdefault(label.lower(), {})[item.item_id] = float(value)
    return rates


def evaluate_run(
    run_dir: Union[str, Path],
    corpus_path: Optional[str] = None,
) -> Dict[str, object]:
    """Score a finished run directory against its corpus.

    A simulate run's predictions and parse counts are derived from its
    log, which must hold every reply its manifest counts; the other modes'
    are read from ``predictions.json``. Always reports the correlation and
    separation numbers; simulate runs additionally get per-skill
    correctness, distractor agreement and, when the roster carries
    demographics and the corpus carries subgroup rates, per-subgroup
    correlations. The output embeds the run's manifest hash and nothing
    time-dependent, so evaluating twice writes identical bytes.
    """
    run_path = Path(run_dir)
    manifest, config = _read_manifest(run_path, counts=dict, manifest_hash=str, mode=str)
    if corpus_path is not None:
        config = replace(config, corpus_path=corpus_path)
    corpus = _load_run_corpus(config)
    matrix = None
    if config.mode == "simulate":
        requests = manifest["counts"].get("requests")
        check_kind(f"{run_path / MANIFEST_NAME}: counts field 'requests'", requests, (int,))
        # one pass over the log, which is never held whole
        log = ResponseLog(str(run_path / RESPONSES_NAME))
        wrong_choices: Dict[str, Dict[str, int]] = {}
        fields, matrix = _derive_predictions(
            config, corpus, tally_wrong_choices(log.records(corpus.by_id), wrong_choices)
        )
        logged = sum(fields["parse_counts"].values())
        if logged != requests:
            raise ValueError(
                f"run {run_path}: {logged} of {requests} replies logged; "
                "evaluate needs one per request"
            )
    else:
        fields = _read_predictions(run_path / PREDICTIONS_NAME)
    predictions: Dict[str, Optional[float]] = fields["predictions"]
    try:
        metrics = evaluate_predictions(predictions, corpus, seed=config.seed)
    except ValueError as exc:
        raise ValueError(f"run {run_path}: {exc}") from None
    evaluation: Dict[str, object] = {
        "manifest_hash": manifest["manifest_hash"],
        "mode": manifest["mode"],
        "metrics": metrics,
        "parse_counts": fields["parse_counts"],
    }

    if matrix is not None:
        evaluation["skill_correctness"] = skill_correctness(matrix)
        evaluation["distractor_match"] = asdict(distractor_agreement(wrong_choices, corpus))
        groups = _demographic_groups(config.roster())
        real_rates = _subgroup_real_rates(corpus)
        if groups and real_rates:
            subgroup = subgroup_correlations(matrix, groups, real_rates)
            evaluation["subgroup_correlations"] = {
                label: _correlation_payload(result, "t")
                for label, result in sorted(subgroup.items())
            }
        keep = ("beta", "converged", "iterations", "log_likelihood")
        fit = _read_json(run_path / FIT_NAME, **{name: _FIT_HINTS[name] for name in keep})
        evaluation["fit"] = {name: fit[name] for name in keep}

    _write_json(run_path / EVALUATION_JSON_NAME, evaluation)
    _write_evaluation_csv(run_path / EVALUATION_CSV_NAME, predictions, corpus)
    return evaluation


def _write_evaluation_csv(
    path: Path, predictions: Mapping[str, Optional[float]], corpus: Corpus
) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["item_id", "grade", "difficulty", "real_rate", "predicted_rate"])
    for item in corpus:
        value = predictions.get(item.item_id)
        writer.writerow(
            [
                item.item_id,
                item.grade,
                item.difficulty_label,
                f"{item.real_percent_correct:.6f}",
                "" if value is None else f"{value:.6f}",
            ]
        )
    _write_text(path, text.getvalue())


def run_ensemble(
    run_dirs: Sequence[Union[str, Path]],
    corpus_path: Optional[str] = None,
    weights: Optional[Sequence[float]] = None,
    out_path: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """Blend the predictions of several finished runs and score the blend.

    Weights follow the run order and renormalize over the runs covering
    each item. The corpus defaults to the first run's configured one.
    """
    if not run_dirs:
        raise ValueError("ensemble needs at least one run directory")
    sources: List[Dict[str, object]] = []
    prediction_sets: List[Dict[str, float]] = []
    for run_dir in run_dirs:
        payload = _read_predictions(Path(run_dir) / PREDICTIONS_NAME)
        clean = {k: v for k, v in payload["predictions"].items() if v is not None}
        prediction_sets.append(clean)
        sources.append(
            {
                "run": str(run_dir),
                "mode": payload.get("mode"),
                "manifest_hash": payload.get("manifest_hash"),
                "n_items": len(clean),
            }
        )
    combined = ensemble_predictions(prediction_sets, weights)
    if corpus_path is None:
        corpus_path = _read_manifest(Path(run_dirs[0]))[1].corpus_path
    corpus = load_corpus(corpus_path)
    payload = {
        "sources": sources,
        "weights": list(weights) if weights is not None else None,
        "predictions": combined,
        "metrics": evaluate_predictions(combined, corpus),
    }
    if out_path is not None:
        _write_json(Path(out_path), payload)
    return payload


def _format_float(value: object) -> str:
    return "-" if value is None else f"{float(value):.4f}"  # type: ignore[arg-type]


def _table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> List[str]:
    """A markdown table's lines."""
    return [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
        *("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows),
    ]


def _correlation_row(label: str, block: Mapping[str, object]) -> Tuple[object, ...]:
    return (label, _format_float(block["r"]), _format_float(block["p_value"]), block["n"])


@contextmanager
def _reading(path: Path) -> Iterator[None]:
    """Turn a KeyError, TypeError, AttributeError or ValueError raised while
    the block reads the content of ``path`` into a ValueError naming it."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed content: {type(exc).__name__}: {exc}") from None


def render_report(run_dir: Union[str, Path]) -> str:
    """Markdown summary of a run's evaluation, regenerated on demand."""
    run_path = Path(run_dir)
    evaluation_path = run_path / EVALUATION_JSON_NAME
    if not evaluation_path.exists():
        evaluate_run(run_path)
    evaluation = _read_json(evaluation_path, metrics=dict, parse_counts=dict)
    manifest, config = _read_manifest(run_path, counts=dict, manifest_hash=str, mode=str)
    lines: List[str] = []
    lines.append(f"# Run report: {manifest['mode']}")
    lines.append("")
    lines.append(f"- manifest hash: `{manifest['manifest_hash']}`")
    lines.append(f"- model: {config.model}  mock: {config.mock}")
    lines.append(
        f"- grade: {config.grade}  students: {config.n_students}  "
        f"strategy: {config.strategy}  seed: {config.seed}"
    )
    with _reading(run_path / MANIFEST_NAME):
        counts = manifest["counts"]
        lines.append(
            f"- items: {counts['items']}  requests: {counts['requests']}"
        )
    with _reading(evaluation_path):
        lines.append("")
        metrics_block = evaluation["metrics"]
        lines.append("## Agreement with observed difficulty")
        lines.append("")
        rows = [_correlation_row(name, metrics_block[name]) for name in ("pearson", "spearman")]
        for name in ("auc_hard_vs_easy", "auc_hard_vs_rest"):
            block = metrics_block[name]
            rows.append(
                (name, _format_float(block["auc"]), "-", f"{block['n_hard']}+{block['n_other']}")
            )
        lines.extend(_table(("metric", "value", "p", "n"), rows))
        lines.append("")
        lines.append("## Parsing")
        lines.append("")
        for status, count in sorted(evaluation["parse_counts"].items()):
            lines.append(f"- {status}: {count}")
        if "skill_correctness" in evaluation:
            lines.append("")
            lines.append("## Correctness by skill")
            lines.append("")
            rates = evaluation["skill_correctness"]
            lines.extend(
                _table(("skill", "rate"), ((k, _format_float(v)) for k, v in rates.items()))
            )
        if "distractor_match" in evaluation:
            block = evaluation["distractor_match"]
            lines.append("")
            lines.append("## Distractor agreement")
            lines.append("")
            lines.append(
                f"- top wrong answer matches observed on "
                f"{_format_float(block['match_rate'])} of {block['n_items']} items"
            )
            lines.append(
                f"- blind-guess reference: {_format_float(block['chance_wrong_only'])} "
                f"(wrong choices only), {_format_float(block['chance_all_choices'])} "
                "(all choices)"
            )
        if "subgroup_correlations" in evaluation:
            lines.append("")
            lines.append("## Subgroup agreement")
            lines.append("")
            subgroups = evaluation["subgroup_correlations"]
            rows = [_correlation_row(label, block) for label, block in subgroups.items()]
            lines.extend(_table(("subgroup", "r", "p", "n"), rows))
        if "fit" in evaluation:
            block = evaluation["fit"]
            lines.append("")
            lines.append("## Ability scaling")
            lines.append("")
            betas = block["beta"]
            lines.extend(
                _table(("skill", "ability"), ((k, _format_float(v)) for k, v in betas.items()))
            )
            lines.append("")
            lines.append(
                f"- converged: {block['converged']} after {block['iterations']} sweeps"
            )
    lines.append("")
    report = "\n".join(lines)
    _write_text(run_path / REPORT_NAME, report)
    return report
