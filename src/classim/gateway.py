"""Transport layer for chat completions.

Two backends sit behind one interface: an HTTP client for any
OpenAI-compatible endpoint, and an offline model that fabricates
transcript-shaped replies as a pure function of ``(seed, request key)``.
The surrounding :class:`Gateway` owns retries and bounded concurrency;
backends only turn one request into text.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Protocol, Sequence

import requests

from .classroom import SkillDistribution, SkillLevel
from .corpus import Corpus, Item
from .promptgen import PromptKind, RenderedPrompt
from .rng import SplitMix64, derive_seed, normal_pair

API_KEY_ENV = "CLASSIM_API_KEY"

# Backoff before retry n (from 0): BACKOFF_BASE * 2**n seconds, at most BACKOFF_CAP.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 8.0

# Statuses worth retrying: timeout, throttling, server-side trouble.
_RETRY_STATUSES = frozenset({408, 429})
# Statuses whose Retry-After header the gateway honours (RFC 9110 §10.2.3).
_RETRY_AFTER_STATUSES = frozenset({429, 503})
# Requests a stream submits ahead of the oldest unconsumed one, per worker;
# the window is also the reorder buffer.
WINDOW_PER_WORKER = 4


class RequestKey(NamedTuple):
    """Identity of one completion within a run.

    ``student_index`` is -1 for requests that do not belong to a simulated
    student (expert solves, percentage estimates); keeping it an int keeps
    keys totally ordered for stable log layout.
    """

    item_id: str
    student_index: int
    replicate: int


@dataclass(frozen=True)
class CompletionRequest:
    prompt: RenderedPrompt
    key: RequestKey
    temperature: float
    skill: Optional[SkillLevel] = None


@dataclass(frozen=True)
class CompletionRecord:
    request: CompletionRequest
    text: str
    ok: bool
    attempts: int
    error: Optional[str] = None


class CompletionBackend(Protocol):
    def complete(self, request: CompletionRequest) -> str:
        """Return the assistant text for one request. May raise."""


class TransientBackendError(RuntimeError):
    """Failure that is worth retrying (throttle, 5xx, transport).

    ``retry_after`` is the wait in seconds the server asked for, if any.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds of a delta-seconds ``Retry-After`` value; ``None`` for an
    absent value or one that is not a non-negative number (an HTTP-date
    included)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if 0.0 <= seconds < math.inf else None


class HttpChatBackend:
    """POSTs to a chat-completions endpoint and extracts the reply text."""

    def __init__(self, endpoint: str, model: str, timeout: float) -> None:
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self._local = threading.local()

    def _session(self) -> requests.Session:
        # One session per worker thread; requests.Session is not documented
        # as safe for concurrent use.
        session = getattr(self._local, "session", None)
        if session is None:
            session = requests.Session()
            self._local.session = session
        return session

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def complete(self, request: CompletionRequest) -> str:
        payload: Dict[str, object] = {
            "model": self.model,
            "messages": list(request.prompt.messages()),
            "temperature": request.temperature,
        }
        try:
            response = self._session().post(
                self.endpoint,
                json=payload,
                headers=self._headers(),
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransientBackendError(f"transport error: {exc}") from exc
        if response.status_code in _RETRY_STATUSES or response.status_code >= 500:
            retry_after = None
            if response.status_code in _RETRY_AFTER_STATUSES:
                retry_after = _retry_after(response.headers.get("Retry-After"))
            raise TransientBackendError(f"status {response.status_code}", retry_after)
        if response.status_code != 200:
            raise RuntimeError(
                f"status {response.status_code}: {response.text[:200]}"
            )
        try:
            data = response.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise RuntimeError(f"malformed completion payload: {exc}") from exc
        if not isinstance(content, str):
            raise RuntimeError("completion content is not text")
        return content


class Gateway:
    """Runs completion requests with retries on one worker pool.

    :meth:`stream` takes a lazy sequence of requests and yields one
    record per request, in request order. One pool of ``max_in_flight``
    workers serves the whole stream, so ``max_in_flight`` bounds the
    requests in flight across everything the stream carries, and each
    worker keeps its connection. At most ``WINDOW_PER_WORKER *
    max_in_flight`` requests are taken ahead of the oldest record not yet
    consumed; they are the reorder buffer. Closing the stream cancels
    every queued request and waits for the running ones. Requests to a
    :class:`MockStudentModel` run in the caller's thread at any ``max_in_flight``.

    A request that exhausts its retries is reported as a failed record,
    never raised; the caller decides whether a hole is fatal. Total
    attempts per request never exceed ``1 + max_retries``; between two,
    the gateway waits the larger of its backoff and the server's
    ``Retry-After``.
    """

    def __init__(
        self,
        backend: CompletionBackend,
        *,
        max_retries: int,
        max_in_flight: int,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.backend = backend
        self.max_retries = max_retries
        self.max_in_flight = max_in_flight
        self._sleep = sleep

    def _run_one(self, request: CompletionRequest) -> CompletionRecord:
        attempts = 0
        last_error = "no attempts made"
        while attempts <= self.max_retries:
            attempts += 1
            try:
                text = self.backend.complete(request)
                return CompletionRecord(
                    request=request, text=text, ok=True, attempts=attempts
                )
            except TransientBackendError as exc:
                last_error = str(exc)
                if attempts <= self.max_retries:
                    wait = min(BACKOFF_CAP, BACKOFF_BASE * 2.0 ** (attempts - 1))
                    self._sleep(max(wait, exc.retry_after or 0.0))
            except Exception as exc:  # non-retryable: fail the key immediately
                return CompletionRecord(
                    request=request,
                    text="",
                    ok=False,
                    attempts=attempts,
                    error=str(exc),
                )
        return CompletionRecord(
            request=request, text="", ok=False, attempts=attempts, error=last_error
        )

    def stream(self, requests: Iterable[CompletionRequest]) -> Iterator[CompletionRecord]:
        if isinstance(self.backend, MockStudentModel):
            # pure Python, so worker threads would only take turns at the
            # interpreter lock
            yield from map(self._run_one, requests)
            return
        window = WINDOW_PER_WORKER * self.max_in_flight
        pending: deque[Future] = deque()
        pool = ThreadPoolExecutor(max_workers=self.max_in_flight)
        try:
            for request in requests:
                pending.append(pool.submit(self._run_one, request))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def run(self, batch: Sequence[CompletionRequest]) -> List[CompletionRecord]:
        return list(self.stream(batch))


_EPS = 1e-6

DEFAULT_SKILL_BETAS: Mapping[SkillLevel, float] = {
    SkillLevel.BELOW_BASIC: -1.0,
    SkillLevel.BASIC: -0.3,
    SkillLevel.PROFICIENT: 0.6,
    SkillLevel.ADVANCED: 1.3,
}

_REASONING_PHRASES = (
    "I worked through the steps and this one fits.",
    "I compared the choices and settled on this.",
    "This matches what I got when I checked it.",
    "I was not fully sure, but this looked right.",
)


def _logit(p: float) -> float:
    p = min(max(p, _EPS), 1.0 - _EPS)
    return math.log(p / (1.0 - p))


def _number(name: str, value: object, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float; a ValueError naming the option unless it is a
    finite number in ``[low, high]``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (math.isfinite(value) and low <= value <= high)
    ):
        raise ValueError(
            f"{name} must be a finite number in [{low:g}, {high:g}], got {value!r}"
        )
    return float(value)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


class MockStudentModel:
    """Offline backend that behaves like a population of test takers.

    Every item gets a latent difficulty: by default the log-odds of
    failure on the item's observed success rate, so harder items (lower
    rate) get larger difficulty; with ``delta_source="independent"`` the
    difficulty is a standard normal draw unrelated to the observed rate,
    which is the null configuration used to check that the pipeline does
    not manufacture correlation. Role-play requests answer correctly with
    probability ``sigmoid(beta_skill - delta)``; wrong answers pick a
    distractor either uniformly or following the item's observed choice
    shares. Percentage requests report the skill-mixture expectation plus
    temperature-scaled noise. Expert requests answer correctly with
    probability ``expert_accuracy``.

    All draws derive from ``(seed, request key, purpose)``, so equal seeds
    give byte-identical transcripts regardless of batch order or thread
    count.
    """

    def __init__(
        self,
        corpus: Corpus,
        seed: int,
        skill_betas: Optional[Mapping[SkillLevel, float]] = None,
        mixture: Optional[SkillDistribution] = None,
        distractor_policy: str = "uniform",
        expert_accuracy: float = 1.0,
        noise_scale: float = 0.15,
        dpce_constant: Optional[float] = None,
        delta_source: str = "real",
        garble_rate: float = 0.0,
    ) -> None:
        if distractor_policy not in ("uniform", "real-marginal"):
            raise ValueError(f"unknown distractor_policy {distractor_policy!r}")
        if delta_source not in ("real", "independent"):
            raise ValueError(f"unknown delta_source {delta_source!r}")
        try:
            betas = {
                SkillLevel(skill): beta
                for skill, beta in dict(skill_betas or DEFAULT_SKILL_BETAS).items()
            }
        except (TypeError, ValueError):
            betas = {}
        if set(betas) != set(SkillLevel):
            raise ValueError(
                "skill_betas must give one number per skill level "
                f"{[skill.value for skill in SkillLevel]}, got {skill_betas!r}"
            )
        self.corpus = corpus
        self.seed = seed
        self.skill_betas = {
            skill: _number(f"skill_betas[{skill.value!r}]", beta)
            for skill, beta in betas.items()
        }
        self.mixture = mixture or SkillDistribution.default()
        self.distractor_policy = distractor_policy
        self.expert_accuracy = _number("expert_accuracy", expert_accuracy, 0.0, 1.0)
        self.noise_scale = _number("noise_scale", noise_scale, 0.0)
        self.dpce_constant = (
            None if dpce_constant is None else _number("dpce_constant", dpce_constant, 0.0, 1.0)
        )
        self.delta_source = delta_source
        self.garble_rate = _number("garble_rate", garble_rate, 0.0, 1.0)

    def item_delta(self, item: Item) -> float:
        if self.delta_source == "independent":
            rng = SplitMix64(derive_seed(self.seed, "delta", item.item_id))
            return normal_pair(rng)[0]
        return -_logit(item.real_percent_correct)

    def success_probability(self, item: Item, skill: SkillLevel) -> float:
        return _sigmoid(self.skill_betas[skill] - self.item_delta(item))

    def expected_rate(self, item: Item) -> float:
        """Success rate under the skill mixture; what a run should recover."""
        weights = self.mixture.as_mapping()
        return sum(
            weights[skill] * self.success_probability(item, skill)
            for skill in SkillLevel
        )

    def _rng(self, request: CompletionRequest, purpose: str) -> SplitMix64:
        key = request.key
        return SplitMix64(
            derive_seed(
                self.seed,
                purpose,
                key.item_id,
                key.student_index,
                key.replicate,
            )
        )

    def _pick_distractor(self, item: Item, rng: SplitMix64) -> str:
        wrong = item.wrong_letters()
        if self.distractor_policy == "real-marginal" and item.real_choice_distribution:
            shares = [
                max(item.real_choice_distribution.get(letter, 0.0), 0.0)
                for letter in wrong
            ]
            total = sum(shares)
            if total > 0.0:
                point = rng.next_float() * total
                acc = 0.0
                for letter, share in zip(wrong, shares):
                    acc += share
                    if point < acc:
                        return letter
                return wrong[-1]
        return wrong[rng.randrange(len(wrong))]

    def _item(self, item_id: str) -> Item:
        try:
            return self.corpus.by_id[item_id]
        except KeyError:
            raise RuntimeError(f"unknown item {item_id!r}") from None

    def _student_reply(self, request: CompletionRequest, item: Item) -> str:
        if request.skill is None:
            raise RuntimeError("role-play request is missing the student skill")
        rng = self._rng(request, "student")
        if self.garble_rate > 0.0 and rng.next_float() < self.garble_rate:
            return "I ran out of time and could not pick one."
        p = self.success_probability(item, request.skill)
        if rng.next_float() < p:
            letter = item.correct_key
        else:
            letter = self._pick_distractor(item, rng)
        phrase = _REASONING_PHRASES[rng.randrange(len(_REASONING_PHRASES))]
        return json.dumps({"reasoning": phrase, "answer key": letter})

    def _expert_reply(self, request: CompletionRequest, item: Item) -> str:
        rng = self._rng(request, "expert")
        if rng.next_float() < self.expert_accuracy:
            letter = item.correct_key
        else:
            letter = self._pick_distractor(item, rng)
        return f"Working through it step by step.\nAnswer Key: {letter}"

    def _percentage_reply(self, request: CompletionRequest, item: Item) -> str:
        rng = self._rng(request, "percentage")
        if self.dpce_constant is not None:
            value = self.dpce_constant
        else:
            value = self.expected_rate(item)
        sigma = self.noise_scale * request.temperature
        if sigma > 0.0:
            value += sigma * normal_pair(rng)[0]
        percent = round(min(max(value, 0.0), 1.0) * 100.0)
        return (
            "Judging the computational load for this grade level.\n"
            f"Percentage Correct: {percent}"
        )

    def complete(self, request: CompletionRequest) -> str:
        item = self._item(request.key.item_id)
        kind = request.prompt.kind
        if kind == PromptKind.STUDENT:
            return self._student_reply(request, item)
        if kind == PromptKind.KNOWLEDGE:
            return self._expert_reply(request, item)
        if kind == PromptKind.DIRECT_PERCENTAGE:
            return self._percentage_reply(request, item)
        raise RuntimeError(f"unsupported prompt kind {kind!r}")
