import http.client
import json
import math
import os
import ssl
import subprocess
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

from classim import gateway as gateway_module
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
    parse_endpoint,
)
from classim.promptgen import (
    PromptTemplates,
    render_direct_percentage_prompt,
    render_knowledge_prompt,
    render_student_prompt,
)
from classim.classroom import SkillDistribution, sample_classroom
from classim.responses import parse_answer, parse_percentage
from classim.rng import SplitMix64, derive_seed, normal_pair
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
    # a short poll interval makes shutdown() return in ~0.05 s, not ~0.5 s
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


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
    roster = sample_classroom(12, SkillDistribution.default(), "none", seed=3)
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


def _reference_student_reply(model, request, item):
    """The role-play reply as the mock computed it per request, from the
    formulas alone: no per-item table and no per-text cache."""
    key = request.key
    rng = SplitMix64(
        derive_seed(model.seed, "student", key.item_id, key.student_index, key.replicate)
    )
    if model.garble_rate > 0.0 and rng.next_float() < model.garble_rate:
        return "I ran out of time and could not pick one."
    if rng.next_float() < model.success_probability(item, request.skill):
        letter = item.correct_key
    else:
        letter = model._pick_distractor(item, rng)
    phrase = gateway_module._REASONING_PHRASES[
        rng.randrange(len(gateway_module._REASONING_PHRASES))
    ]
    return json.dumps({"reasoning": phrase, "answer key": letter})


@pytest.mark.parametrize("garble_rate", [0.0, 0.2])
@pytest.mark.parametrize("policy", ["uniform", "real-marginal"])
@pytest.mark.parametrize("delta_source", ["real", "independent"])
def test_mock_tables_match_the_formulas(tmp_path, delta_source, policy, garble_rate):
    records = [
        make_item_record(i, n_choices=4 + i % 2, with_distribution=True) for i in range(8)
    ]
    corpus = load_corpus(write_corpus(tmp_path / "c.json", records))
    model = MockStudentModel(
        corpus, seed=9, delta_source=delta_source, distractor_policy=policy,
        garble_rate=garble_rate,
    )
    for item in corpus:
        if delta_source == "real":
            rate = item.real_percent_correct
            delta = -math.log(rate / (1 - rate))
        else:
            delta = normal_pair(SplitMix64(derive_seed(9, "delta", item.item_id)))[0]
        for skill in SkillLevel:
            expected = 1.0 / (1.0 + math.exp(delta - model.skill_betas[skill]))
            assert model._success[item.item_id, skill] == model.success_probability(
                item, skill
            )
            assert model._success[item.item_id, skill] == pytest.approx(expected, rel=1e-12)
    assert len(model._student_texts) == len(gateway_module._REASONING_PHRASES) * 5
    templates = PromptTemplates.load()
    roster = sample_classroom(12, SkillDistribution.default(), "none", seed=3)
    letters = Counter()
    for item in corpus:
        for profile in roster:
            for replicate in range(3):
                request = CompletionRequest(
                    prompt=render_student_prompt(item, profile, templates),
                    key=RequestKey(item.item_id, profile.student_index, replicate),
                    temperature=0.7,
                    skill=profile.skill,
                )
                reply = model.complete(request)
                assert reply == _reference_student_reply(model, request, item)
                letters[parse_answer(reply, item.choice_letters).chosen] += 1
    # both branches and every letter, the fifth included, were reached
    garbled = {None} if garble_rate else set()
    assert set(letters) == {"A", "B", "C", "D", "E"} | garbled


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


class _KeepAlive(BaseHTTPRequestHandler):
    """An HTTP/1.1 endpoint that keeps connections open; with the server's
    ``close_after_reply`` set it closes each one after its first reply
    without saying so, as a server does with a connection left idle."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.connections += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests += 1
        blob = json.dumps(_ok_payload(f"reply {self.server.requests}")).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)
        self.close_connection = self.server.close_after_reply

    def log_message(self, *args):
        pass


@pytest.fixture
def keep_alive_server():
    # threaded, so shutdown never waits on a connection a client left open
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAlive)
    server.daemon_threads = True
    server.connections = server.requests = 0
    server.close_after_reply = False
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


def test_one_thread_reuses_one_connection(keep_alive_server):
    backend = http_backend(keep_alive_server)
    texts = [backend.complete(request(i)) for i in range(5)]
    assert texts == [f"reply {i}" for i in range(1, 6)]
    assert (keep_alive_server.requests, keep_alive_server.connections) == (5, 1)


def test_a_stale_connection_is_resent_once_without_an_attempt(keep_alive_server):
    keep_alive_server.close_after_reply = True
    sleeps = []
    gateway = make_gateway(
        http_backend(keep_alive_server), max_retries=3, max_in_flight=1, sleep=sleeps.append
    )
    records = gateway.run([request(0), request(1)])
    assert [(r.ok, r.text, r.attempts) for r in records] == [
        (True, "reply 1", 1),
        (True, "reply 2", 1),
    ]
    assert sleeps == []
    assert (keep_alive_server.requests, keep_alive_server.connections) == (2, 2)


def test_a_stale_error_on_a_fresh_connection_is_transient(monkeypatch):
    backend = HttpChatBackend("http://127.0.0.1:9/v1/chat/completions", "m", timeout=1.0)
    sends = []

    def reset(*args, **kwargs):
        sends.append(args)
        raise ConnectionResetError("reset by peer")

    monkeypatch.setattr(backend._connection(), "request", reset)
    with pytest.raises(TransientBackendError, match="reset by peer"):
        backend.complete(request(0))
    assert len(sends) == 1  # never opened, so not stale: no second send


def test_a_slow_reply_times_out_and_is_retried():
    release = threading.Event()

    class Stalls(BaseHTTPRequestHandler):
        def do_POST(self):
            release.wait(10)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Stalls)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        backend = HttpChatBackend(endpoint(server), "m", timeout=0.2)
        sleeps = []
        gateway = make_gateway(backend, max_retries=1, max_in_flight=1, sleep=sleeps.append)
        [record] = gateway.run([request(0)])
    finally:
        release.set()
        server.shutdown()
        thread.join()
        server.server_close()
    assert not record.ok and record.attempts == 2
    assert sleeps == [BACKOFF_BASE]
    assert "timed out" in record.error


def test_an_https_endpoint_builds_an_unopened_tls_connection():
    backend = HttpChatBackend("https://llm.example:8443/v1/chat?tier=a", "m", timeout=5.0)
    connection = backend._connection()
    assert isinstance(connection, http.client.HTTPSConnection)
    assert (connection.host, connection.port, connection.timeout) == ("llm.example", 8443, 5.0)
    assert connection.sock is None  # nothing was sent
    assert backend._path == "/v1/chat?tier=a"
    assert connection._context.verify_mode == ssl.CERT_REQUIRED
    assert connection._context.check_hostname


@pytest.mark.parametrize(
    "url",
    [
        "localhost:8000/v1",
        "ftp://host/v1",
        "http:///v1",
        "http://host:port/v1",
        "http://[::1/v1",
        "http://host/v1/chat completions",
        "http://host/v1/caf\u00e9",
    ],
)
def test_a_malformed_endpoint_is_a_value_error_naming_it(url):
    with pytest.raises(ValueError, match="endpoint"):
        parse_endpoint(url)
    with pytest.raises(ValueError, match="endpoint"):
        HttpChatBackend(url, "m", timeout=1.0)


def test_importing_classim_leaves_requests_out():
    # the standard library carries every request; a dependency must not creep back
    done = subprocess.run(
        [sys.executable, "-c", "import sys, classim; print('requests' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(Path(gateway_module.__file__).parents[1])},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
