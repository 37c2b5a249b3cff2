import json
import math
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from classim.classroom import SkillLevel
from classim.corpus import load_corpus
from classim.gateway import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    WINDOW_PER_WORKER,
    CompletionRequest,
    Gateway,
    HttpChatBackend,
    MockStudentModel,
    RequestKey,
    TransientBackendError,
)
from classim.promptgen import (
    PromptTemplates,
    render_direct_percentage_prompt,
    render_knowledge_prompt,
    render_student_prompt,
)
from classim.classroom import NoIdentifier, SkillDistribution, sample_classroom
from classim.responses import parse_answer, parse_percentage
from conftest import make_item_record, write_corpus


class FlakyBackend:
    """Fails transiently a set number of times, then succeeds."""

    def __init__(self, failures, hard_error=False):
        self.failures = failures
        self.hard_error = hard_error
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            if self.hard_error:
                raise RuntimeError("bad request")
            raise TransientBackendError("throttled")
        return "Answer Key: A"


def key(i=0):
    return RequestKey(item_id=f"it{i}", student_index=i, replicate=0)


def request(i=0):
    # retry logic treats the prompt as opaque
    class Prompt:
        system = "be terse"
        user = f"q{i}"

        def messages(self):
            return (
                {"role": "system", "content": self.system},
                {"role": "user", "content": self.user},
            )

    return CompletionRequest(prompt=Prompt(), key=key(i), temperature=0.0)


def make_gateway(backend, max_retries=3, max_in_flight=8, **kwargs):
    return Gateway(
        backend, max_retries=max_retries, max_in_flight=max_in_flight, **kwargs
    )


def test_retry_then_success_counts_attempts():
    sleeps = []
    gateway = make_gateway(FlakyBackend(failures=2), max_retries=3, sleep=sleeps.append)
    [record] = gateway.run([request()])
    assert record.ok and record.text == "Answer Key: A"
    assert record.attempts == 3
    assert sleeps == [0.5, 1.0]  # exponential, per failed attempt


def test_retries_are_bounded():
    backend = FlakyBackend(failures=99)
    gateway = make_gateway(backend, max_retries=2, sleep=lambda _: None)
    [record] = gateway.run([request()])
    assert not record.ok
    assert record.attempts == 3  # 1 try + 2 retries, never more
    assert backend.calls == 3
    assert "throttled" in record.error


def test_non_retryable_error_fails_fast():
    backend = FlakyBackend(failures=99, hard_error=True)
    gateway = make_gateway(backend, max_retries=5, sleep=lambda _: None)
    [record] = gateway.run([request()])
    assert not record.ok
    assert record.attempts == 1
    assert backend.calls == 1


def test_backoff_is_capped():
    sleeps = []
    gateway = make_gateway(FlakyBackend(failures=7), max_retries=7, sleep=sleeps.append)
    gateway.run([request()])
    assert (BACKOFF_BASE, BACKOFF_CAP) == (0.5, 8.0)  # as the README states
    assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]


def test_results_keep_request_order_under_concurrency():
    class JitterBackend:
        def complete(self, req):
            # later requests finish first
            import time

            time.sleep(0.002 * (7 - req.key.student_index % 8))
            return f"echo {req.key.student_index}"

    gateway = make_gateway(JitterBackend(), max_in_flight=8)
    batch = [request(i) for i in range(16)]
    records = gateway.run(batch)
    assert [r.request.key for r in records] == [b.key for b in batch]
    assert [r.text for r in records] == [f"echo {i}" for i in range(16)]


def test_stream_takes_at_most_its_window_ahead():
    window = WINDOW_PER_WORKER * 3
    taken = []

    def requests():
        for i in range(5 * window):
            taken.append(i)
            yield request(i)

    stream = make_gateway(FlakyBackend(failures=0), max_in_flight=3).stream(requests())
    for consumed, record in enumerate(stream):
        assert record.request.key == key(consumed)
        assert len(taken) <= window + consumed
    assert len(taken) == 5 * window


class _Script(BaseHTTPRequestHandler):
    """Answers each POST with the next ``(status, payload[, headers])``."""

    script = []
    seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"auth": self.headers.get("Authorization"), "body": body}
        )
        status, payload, *headers = type(self).script.pop(0)
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Script)
    _Script.script = []
    _Script.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join()


def _ok_payload(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def endpoint(server):
    return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"


def http_backend(server, model="local-model"):
    return HttpChatBackend(endpoint(server), model, timeout=60.0)


def test_http_backend_round_trip(http_server, monkeypatch):
    monkeypatch.setenv("CLASSIM_API_KEY", "sekrit")
    _Script.script.append((200, _ok_payload("Answer Key: B")))
    backend = http_backend(http_server, model="m1")
    text = backend.complete(request(0))
    assert text == "Answer Key: B"
    seen = _Script.seen[0]
    assert seen["auth"] == "Bearer sekrit"
    assert seen["body"]["model"] == "m1"
    assert seen["body"]["messages"][0]["content"] == "be terse"
    assert seen["body"]["messages"][1]["content"] == "q0"


def test_http_backend_omits_auth_without_key(http_server, monkeypatch):
    monkeypatch.delenv("CLASSIM_API_KEY", raising=False)
    _Script.script.append((200, _ok_payload("x")))
    backend = http_backend(http_server)
    backend.complete(request(0))
    assert _Script.seen[0]["auth"] is None


def test_http_backend_retries_server_errors(http_server):
    _Script.script.extend(
        [(500, {}), (429, {}), (200, _ok_payload("recovered"))]
    )
    gateway = make_gateway(
        http_backend(http_server), max_retries=3, sleep=lambda _: None
    )
    [record] = gateway.run([request(0)])
    assert record.ok and record.text == "recovered"
    assert record.attempts == 3


def test_retry_after_is_honoured_on_429_and_503(http_server):
    _Script.script.extend(
        [
            (503, {}, {"Retry-After": "3"}),
            (429, {}, {"Retry-After": "0.25"}),  # shorter than the backoff
            (503, {}, {"Retry-After": "-1"}),
            (503, {}, {"Retry-After": "inf"}),
            (429, {}, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
            (500, {}, {"Retry-After": "9"}),  # only 429 and 503 carry it
            (200, _ok_payload("recovered")),
        ]
    )
    sleeps = []
    gateway = make_gateway(http_backend(http_server), max_retries=6, sleep=sleeps.append)
    [record] = gateway.run([request(0)])
    assert record.ok and record.attempts == 7
    assert sleeps == [3.0, 1.0, 2.0, 4.0, 8.0, 8.0]


def test_retry_after_keeps_the_attempt_bound(http_server):
    _Script.script.extend([(503, {}, {"Retry-After": "2"})] * 2)
    sleeps = []
    gateway = make_gateway(
        http_backend(http_server), max_retries=1, sleep=sleeps.append
    )
    [record] = gateway.run([request(0)])
    assert not record.ok and record.attempts == 2
    assert sleeps == [2.0]


def test_http_backend_rejects_malformed_payload(http_server):
    _Script.script.append((200, {"nonsense": True}))
    gateway = make_gateway(
        http_backend(http_server), max_retries=1, sleep=lambda _: None
    )
    [record] = gateway.run([request(0)])
    assert not record.ok
    assert record.attempts == 1  # malformed body is not worth retrying


def test_http_backend_client_error_fails_fast(http_server):
    _Script.script.append((404, {}))
    gateway = make_gateway(
        http_backend(http_server), max_retries=3, sleep=lambda _: None
    )
    [record] = gateway.run([request(0)])
    assert not record.ok
    assert record.attempts == 1


@pytest.fixture
def mock_world(tmp_path):
    records = [
        make_item_record(i, grade=8, with_distribution=True) for i in range(10)
    ]
    path = write_corpus(tmp_path / "c.json", records)
    corpus = load_corpus(path)
    templates = PromptTemplates.load()
    roster = sample_classroom(
        12, 8, SkillDistribution.default(), NoIdentifier(), seed=3
    )
    return corpus, templates, roster


def student_request(corpus, templates, roster, item_index=0, student=0, replicate=0):
    item = corpus.items[item_index]
    profile = roster[student]
    return CompletionRequest(
        prompt=render_student_prompt(item, profile, templates),
        key=RequestKey(item.item_id, profile.student_index, replicate),
        temperature=0.7,
        skill=profile.skill,
    )


def test_mock_replies_are_deterministic(mock_world):
    corpus, templates, roster = mock_world
    model_a = MockStudentModel(corpus, seed=5)
    model_b = MockStudentModel(corpus, seed=5)
    model_c = MockStudentModel(corpus, seed=6)
    req = student_request(corpus, templates, roster)
    assert model_a.complete(req) == model_b.complete(req)
    assert model_a.complete(req) != model_c.complete(req) or (
        # different seeds may still collide on one reply; a second request
        # settling the same way is vanishingly unlikely
        model_a.complete(student_request(corpus, templates, roster, 1))
        != model_c.complete(student_request(corpus, templates, roster, 1))
    )


def test_mock_student_reply_parses(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(corpus, seed=5)
    req = student_request(corpus, templates, roster)
    parsed = parse_answer(model.complete(req), corpus.items[0].choice_letters)
    assert parsed.status.value == "parsed"
    assert parsed.chosen in corpus.items[0].choice_letters


def test_mock_success_rate_tracks_skill_and_difficulty(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(corpus, seed=5)
    item = corpus.items[0]
    # success probability is monotone in skill
    probs = [model.success_probability(item, level) for level in SkillLevel]
    assert probs == sorted(probs)
    # difficulty is the log-odds of failure on the observed rate
    easy = corpus.items[0]
    y = easy.real_percent_correct
    assert model.item_delta(easy) == pytest.approx(-math.log(y / (1 - y)), rel=1e-9)


def test_mock_empirical_rates_match_probabilities(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(corpus, seed=5)
    item = corpus.items[2]
    profile = roster[0]
    hits = 0
    trials = 2000
    for replicate in range(trials):
        req = student_request(corpus, templates, roster, 2, 0, replicate)
        text = model.complete(req)
        parsed = parse_answer(text, item.choice_letters)
        hits += int(parsed.chosen == item.correct_key)
    expected = model.success_probability(item, profile.skill)
    assert abs(hits / trials - expected) < 0.04


def test_mock_expert_is_perfect_by_default(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(corpus, seed=5)
    for item in corpus.items:
        req = CompletionRequest(
            prompt=render_knowledge_prompt(item, templates),
            key=RequestKey(item.item_id, -1, 0),
            temperature=0.0,
        )
        parsed = parse_answer(model.complete(req), item.choice_letters)
        assert parsed.chosen == item.correct_key


def test_mock_expert_accuracy_dial(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(corpus, seed=5, expert_accuracy=0.0)
    item = corpus.items[0]
    req = CompletionRequest(
        prompt=render_knowledge_prompt(item, templates),
        key=RequestKey(item.item_id, -1, 0),
        temperature=0.0,
    )
    parsed = parse_answer(model.complete(req), item.choice_letters)
    assert parsed.chosen != item.correct_key


def test_mock_percentage_reply(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(corpus, seed=5)
    item = corpus.items[1]
    req = CompletionRequest(
        prompt=render_direct_percentage_prompt(item, templates),
        key=RequestKey(item.item_id, -1, 0),
        temperature=0.0,
    )
    value = parse_percentage(model.complete(req))
    assert value == pytest.approx(model.expected_rate(item), abs=0.005)


def test_mock_percentage_constant_override(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(corpus, seed=5, dpce_constant=0.7)
    values = set()
    for item in corpus.items:
        req = CompletionRequest(
            prompt=render_direct_percentage_prompt(item, templates),
            key=RequestKey(item.item_id, -1, 0),
            temperature=0.0,
        )
        values.add(parse_percentage(model.complete(req)))
    assert values == {0.7}


def test_mock_percentage_temperature_jitters(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(corpus, seed=5, noise_scale=0.3)
    item = corpus.items[1]
    values = set()
    for replicate in range(6):
        req = CompletionRequest(
            prompt=render_direct_percentage_prompt(item, templates),
            key=RequestKey(item.item_id, -1, replicate),
            temperature=0.3,
        )
        values.add(parse_percentage(model.complete(req)))
    assert len(values) > 1


def test_mock_real_marginal_distractors_follow_observed_shares(mock_world):
    corpus, templates, roster = mock_world
    model = MockStudentModel(
        corpus,
        seed=5,
        distractor_policy="real-marginal",
        skill_betas={level: -8.0 for level in SkillLevel},  # always wrong
    )
    item = corpus.items[0]
    dominant = max(
        (letter for letter in item.wrong_letters()),
        key=lambda letter: item.real_choice_distribution[letter],
    )
    picks = Counter()
    for replicate in range(600):
        req = student_request(corpus, templates, roster, 0, 0, replicate)
        parsed = parse_answer(model.complete(req), item.choice_letters)
        picks[parsed.chosen] += 1
    assert picks.most_common(1)[0][0] == dominant


def test_mock_validates_options(mock_world):
    corpus, _, _ = mock_world
    with pytest.raises(ValueError):
        MockStudentModel(corpus, seed=1, distractor_policy="sneaky")
    with pytest.raises(ValueError):
        MockStudentModel(corpus, seed=1, delta_source="psychic")
    with pytest.raises(ValueError):
        MockStudentModel(corpus, seed=1, expert_accuracy=1.5)
    betas = {level.value: 0 for level in SkillLevel}  # as a config file spells them
    model = MockStudentModel(corpus, seed=1, skill_betas=betas)
    assert model.skill_betas == {level: 0.0 for level in SkillLevel}
    for name, value in [
        ("garble_rate", "x"),
        ("garble_rate", 1.5),
        ("noise_scale", -1),
        ("noise_scale", math.nan),
        ("expert_accuracy", "high"),
        ("dpce_constant", 1.5),
        ("dpce_constant", True),
        ("skill_betas", {"Basic": 0.0}),
        ("skill_betas", {**betas, "Basic": "x"}),
        ("skill_betas", {**betas, "Genius": 2.0}),
        ("skill_betas", [1, 2]),
    ]:
        with pytest.raises(ValueError, match=name):
            MockStudentModel(corpus, seed=1, **{name: value})

