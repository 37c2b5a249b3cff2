import hashlib
import json
import os
import threading
import time
import tracemalloc
from dataclasses import fields, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from classim.cli import _base_mapping, build_parser
from classim.corpus import load_corpus
from classim.gateway import MockStudentModel, TransientBackendError
from classim import metrics
from classim.metrics import PERMUTATION_ROUNDS
from classim.orchestrator import (
    CAPTURE_NAME,
    EVALUATION_CSV_NAME,
    EVALUATION_JSON_NAME,
    FIT_NAME,
    MANIFEST_NAME,
    PREDICTIONS_NAME,
    REPORT_NAME,
    RESPONSES_NAME,
    ExperimentConfig,
    RequestFailed,
    build_manifest,
    evaluate_predictions,
    evaluate_run,
    expand_sweep,
    render_report,
    run_baseline,
    run_dpce,
    run_ensemble,
    run_simulate,
    _FIELD_TYPES,
    _json_text,
    _write_json,
)
from classim.promptgen import PromptTemplates
from classim.rng import derive_seed, mix64

from conftest import make_item_record, write_corpus

N_ITEMS = 8
N_STUDENTS = 12


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small corpus plus one completed simulate run to inspect."""
    root = tmp_path_factory.mktemp("orchestrator")
    records = [
        make_item_record(i, grade=8, with_distribution=True, with_subgroups=True)
        for i in range(N_ITEMS)
    ]
    corpus_path = write_corpus(root / "corpus.json", records)
    config = ExperimentConfig(
        corpus_path=str(corpus_path),
        n_students=N_STUDENTS,
        strategy="diverse",
        mock=True,
        seed=5,
        max_in_flight=1,
    )
    run_dir = root / "run_a"
    outcome = run_simulate(config, out_dir=run_dir)
    return {
        "root": root,
        "corpus_path": str(corpus_path),
        "config": config,
        "run_dir": run_dir,
        "outcome": outcome,
    }


class TestConfig:
    def test_mapping_round_trip(self, tmp_path):
        config = ExperimentConfig(
            corpus_path="c.json", grade=8, n_students=40, seed=9
        )
        assert ExperimentConfig.from_mapping(config.to_mapping()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_mapping({"corpus_path": "c", "students": 10})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "osmosis"},
            {"n_students": 0},
            {"replicates": 0},
            {"dpce_variant": "psychic"},
            {"max_retries": -1},
            {"max_in_flight": 0},
            {"n_students": [4, 5]},
            {"n_students": "5"},
            {"replicates": 2.0},
            {"seed": None},
            {"max_retries": True},
            {"max_in_flight": "8"},
            {"grade": "8"},
            {"mock_options": {"garble": 0.1}},
            {"mock_options": {"mixture": {}}},
            {"mock_options": [["garble_rate", 0.1]]},
            {"mock": "false"},
            {"strategy": 5},
            {"strategy": "bogus"},
            {"skill_weights": {"Basic": [1]}},
            {"skill_weights": {"Basic": 1.0}},
            {"temperature": "hot"},
            {"timeout": None},
            {"capture": 1},
            {"timeout": 0},
            {"timeout": -1.5},
            {"temperature": -5},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
            {"timeout": float("inf")},
            {"skill_weights": {
                "BelowBasic": float("nan"), "Basic": 0.35, "Proficient": 0.25, "Advanced": 0.15,
            }},
            {"skill_weights": {
                "BelowBasic": "0.25", "Basic": "0.35", "Proficient": "0.25", "Advanced": "0.15",
            }},
            {"skill_weights": {
                "BelowBasic": False, "Basic": True, "Proficient": False, "Advanced": False,
            }},
            {"skill_weights": {
                "BelowBasic": 0.25, "Basic": 0.35, "Proficient": 0.25, "Advanced": None,
            }},
            {"endpoint": "localhost:8000/v1/chat/completions"},
            {"endpoint": "ftp://localhost/v1/chat/completions"},
            {"endpoint": "http:///v1/chat/completions"},
            {"endpoint": "http://localhost:port/v1/chat/completions"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        [name] = kwargs
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(corpus_path="c.json", **kwargs)

    def test_every_field_is_type_checked(self):
        assert list(_FIELD_TYPES) == [spec.name for spec in fields(ExperimentConfig)]

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"corpus_path": "c.json", "seed": 1, "n_students": 25}),
            encoding="utf-8",
        )
        args = build_parser().parse_args(
            ["simulate", "--config", str(path), "--seed", "7"]
        )
        config = ExperimentConfig.from_mapping(_base_mapping(args))
        assert (config.seed, config.n_students) == (7, 25)

    def test_skill_weights_build_distribution(self):
        config = ExperimentConfig(
            corpus_path="c.json",
            skill_weights={
                "BelowBasic": 0.1,
                "Basic": 0.2,
                "Proficient": 0.3,
                "Advanced": 0.4,
            },
        )
        weights = config.distribution().as_mapping()
        assert weights["Advanced"] == pytest.approx(0.4)


class TestSweep:
    def test_plain_config_passes_through(self):
        runs = expand_sweep({"corpus_path": "c.json", "seed": 42})
        assert len(runs) == 1
        name, config = runs[0]
        assert name == ""
        assert config.seed == 42

    def test_grid_names_and_seeds(self):
        runs = expand_sweep(
            {
                "corpus_path": "c.json",
                "seed": 100,
                "temperature": 0.4,
                "n_students": [50, 300],
                "strategy": ["none", "single:Maria"],
            }
        )
        assert [name for name, _ in runs] == [
            "n50-none",
            "n50-single-Maria",
            "n300-none",
            "n300-single-Maria",
        ]
        for index, (_, config) in enumerate(runs):
            assert config.seed == (100 ^ mix64(index))
            assert config.temperature == 0.4
        assert runs[3][1].n_students == 300
        assert runs[3][1].strategy == "single:Maria"

    @pytest.mark.parametrize("seed", ["5", 5.7, True])
    def test_swept_seed_is_checked_like_a_single_run(self, seed):
        base = {"corpus_path": "c.json", "seed": seed}
        with pytest.raises(ValueError) as single:
            expand_sweep(base)
        with pytest.raises(ValueError) as swept:
            expand_sweep({**base, "n_students": [4, 5]})
        assert str(swept.value) == str(single.value)
        assert str(single.value).startswith("seed must be int")

    @pytest.mark.parametrize("name", ["n_students", "strategy"])
    def test_empty_sweep_list_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must list at least one value"):
            expand_sweep({"corpus_path": "c.json", name: []})


class TestManifest:
    def test_hash_is_config_sensitive(self, world):
        templates = PromptTemplates.load()
        base = world["config"]
        a = build_manifest(base, templates, 8, 12, 96, False)
        b = build_manifest(base, templates, 8, 12, 96, False)
        c = build_manifest(replace(base, seed=6), templates, 8, 12, 96, False)
        assert a["manifest_hash"] == b["manifest_hash"]
        assert a["config_hash"] != c["config_hash"]
        assert a["manifest_hash"] != c["manifest_hash"]

    def test_recorded_contents(self, world):
        manifest = json.loads(
            (world["run_dir"] / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["mode"] == "simulate"
        assert manifest["counts"] == {
            "items": N_ITEMS,
            "students": N_STUDENTS,
            "requests": N_ITEMS * N_STUDENTS,
        }
        assert len(manifest["prompt_hashes"]) == 12
        assert manifest["names_repeat"] is False
        assert manifest["config"]["strategy"] == "diverse"


class TestSimulate:
    def test_run_completes_with_artifacts(self, world):
        outcome = world["outcome"]
        assert outcome.completed
        assert len(outcome.responses) == N_ITEMS * N_STUDENTS
        assert sum(outcome.parse_counts.values()) == N_ITEMS * N_STUDENTS
        assert outcome.fit is not None and outcome.fit.converged
        assert set(outcome.predictions) == {
            item.item_id for item in load_corpus(world["corpus_path"])
        }
        for name in (MANIFEST_NAME, RESPONSES_NAME, FIT_NAME, PREDICTIONS_NAME):
            assert (world["run_dir"] / name).exists()

    def test_log_order_is_per_item_then_student(self, world):
        lines = (
            (world["run_dir"] / RESPONSES_NAME)
            .read_text(encoding="utf-8")
            .splitlines()
        )
        records = [json.loads(line) for line in lines]
        corpus_order = [item.item_id for item in load_corpus(world["corpus_path"])]
        seen_items = list(dict.fromkeys(r["item_id"] for r in records))
        assert seen_items == corpus_order
        for item_id in corpus_order:
            cells = [
                (r["student_index"], r["replicate"])
                for r in records
                if r["item_id"] == item_id
            ]
            assert cells == sorted(cells)

    def test_equal_seeds_give_byte_identical_logs(self, world):
        other = world["root"] / "run_same_seed"
        run_simulate(world["config"], out_dir=other)
        assert (other / RESPONSES_NAME).read_bytes() == (
            world["run_dir"] / RESPONSES_NAME
        ).read_bytes()
        assert (other / MANIFEST_NAME).read_bytes() == (
            world["run_dir"] / MANIFEST_NAME
        ).read_bytes()

    def test_different_seed_changes_log(self, world):
        other = world["root"] / "run_other_seed"
        run_simulate(replace(world["config"], seed=6), out_dir=other)
        assert (other / RESPONSES_NAME).read_bytes() != (
            world["run_dir"] / RESPONSES_NAME
        ).read_bytes()

    def test_interrupt_then_resume_matches_uninterrupted(self, world):
        resumed = world["root"] / "run_resumed"
        partial = run_simulate(
            world["config"], out_dir=resumed, max_requests=30
        )
        assert not partial.completed
        assert partial.fit is None
        assert not (resumed / FIT_NAME).exists()
        # simulate a crash mid-write: a torn trailing record
        with open(resumed / RESPONSES_NAME, "ab") as handle:
            handle.write(b'{"item_id": "g8-0003", "stu')
        final = run_simulate(world["config"], out_dir=resumed)
        assert final.completed
        assert (resumed / RESPONSES_NAME).read_bytes() == (
            world["run_dir"] / RESPONSES_NAME
        ).read_bytes()
        assert (resumed / FIT_NAME).exists()

    def test_failed_request_stops_run_and_resume_fills_it(self, world):
        failing = world["root"] / "run_failing"
        mock = MockStudentModel(
            corpus=load_corpus(world["corpus_path"]), seed=world["config"].seed
        )
        bad_keys = {("g8-0002", 5, 0), ("g8-0005", 0, 0)}

        class FailingOnKeys:
            def complete(self, request):
                if request.key in bad_keys:
                    raise RuntimeError("backend unavailable")
                return mock.complete(request)

        with pytest.raises(
            RequestFailed, match=r"\('g8-0002', 5, 0\).*backend unavailable"
        ):
            run_simulate(world["config"], out_dir=failing, backend=FailingOnKeys())
        reference = (world["run_dir"] / RESPONSES_NAME).read_bytes()
        prefix = (failing / RESPONSES_NAME).read_bytes()
        # only the replies before the failed key, never a graded failure
        assert prefix.count(b"\n") == 2 * N_STUDENTS + 5
        assert reference.startswith(prefix)
        assert not (failing / FIT_NAME).exists()
        assert not (failing / PREDICTIONS_NAME).exists()
        final = run_simulate(world["config"], out_dir=failing)
        assert final.completed
        assert (failing / RESPONSES_NAME).read_bytes() == reference

    @pytest.mark.parametrize(
        "reply", ["[" * 3000, "1+" * 100_000 + "1", "-" * 100_000 + "1"],
        ids=["deep-list", "long-sum", "deep-negation"],
    )
    def test_a_reply_no_decoder_accepts_is_logged_as_a_failed_parse(
        self, reply, world, tmp_path
    ):
        mock = MockStudentModel(
            corpus=load_corpus(world["corpus_path"]), seed=world["config"].seed
        )
        odd_key = ("g8-0002", 5, 0)

        class OneUndecodableReply:
            def complete(self, request):
                return reply if request.key == odd_key else mock.complete(request)

        outcome = run_simulate(world["config"], out_dir=tmp_path, backend=OneUndecodableReply())
        assert outcome.completed
        lines = (tmp_path / RESPONSES_NAME).read_text(encoding="utf-8").splitlines()
        reference = (world["run_dir"] / RESPONSES_NAME).read_text(encoding="utf-8").splitlines()
        odd = 2 * N_STUDENTS + 5  # the line of g8-0002's sixth student
        assert lines[:odd] + lines[odd + 1:] == reference[:odd] + reference[odd + 1:]
        assert json.loads(lines[odd]) == {
            **json.loads(reference[odd]),
            "raw": reply, "chosen": None, "correct": 0, "parse_status": "failed",
        }

    def test_failed_request_stops_sending(self, world):
        config = replace(world["config"], n_students=40, max_in_flight=8, max_retries=1)
        lock = threading.Lock()
        calls = []

        class AlwaysUnavailable:
            def complete(self, request):
                with lock:
                    calls.append(request.key)
                raise TransientBackendError("status 503")

        with pytest.raises(RequestFailed, match="status 503"):
            run_simulate(config, backend=AlwaysUnavailable())
        # the requests already running may finish their attempts; every
        # queued one is cancelled (the whole first item would be 80 calls)
        assert len(calls) <= 2 * config.max_in_flight * (1 + config.max_retries)

    def test_rerun_leaves_an_unchanged_manifest_alone(self, world, tmp_path):
        finished, interrupted = tmp_path / "finished", tmp_path / "interrupted"
        run_simulate(world["config"], out_dir=finished)
        run_simulate(world["config"], out_dir=interrupted, max_requests=30)
        expected = (world["run_dir"] / MANIFEST_NAME).read_bytes()
        for run_dir in (finished, interrupted):
            manifest = run_dir / MANIFEST_NAME
            os.utime(manifest, ns=(0, 0))
            assert run_simulate(world["config"], out_dir=run_dir).completed
            assert manifest.stat().st_mtime_ns == 0
            assert manifest.read_bytes() == expected
        # same configuration, other content: rewritten
        manifest = finished / MANIFEST_NAME
        manifest.write_bytes(expected.replace(b'"package_version": "', b'"package_version": "0+', 1))
        run_simulate(world["config"], out_dir=finished)
        assert manifest.read_bytes() == expected

    @pytest.mark.parametrize("broken", ["fsync", "replace"])
    def test_a_failed_artifact_write_keeps_the_old_file(
        self, world, tmp_path, monkeypatch, broken
    ):
        run_dir = tmp_path / "run"
        run_simulate(world["config"], out_dir=run_dir)
        evaluate_run(run_dir)
        manifest = run_dir / MANIFEST_NAME
        manifest.write_bytes(
            manifest.read_bytes().replace(b'"package_version": "', b'"package_version": "0+', 1)
        )
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}

        def fail(*args):
            raise OSError(f"{broken} failed")

        monkeypatch.setattr(os, broken, fail)
        with pytest.raises(OSError, match=f"{broken} failed"):
            _write_json(run_dir / FIT_NAME, {"beta": "overwritten"})
        with pytest.raises(OSError, match=f"{broken} failed"):
            evaluate_run(run_dir)
        # a rerun rewrites a manifest whose bytes differ
        with pytest.raises(OSError, match=f"{broken} failed"):
            run_simulate(world["config"], out_dir=run_dir)
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before

    def test_a_failed_csv_or_report_write_keeps_the_old_file(self, world, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        run_simulate(world["config"], out_dir=run_dir)
        render_report(run_dir)
        # older bytes than a rewrite would put there, so a write in place shows
        for name in (EVALUATION_CSV_NAME, REPORT_NAME):
            (run_dir / name).write_bytes((run_dir / name).read_bytes() + b"older\n")
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        replace_file = os.replace

        def fail_for_csv_and_report(src, dst):
            if Path(dst).name in (EVALUATION_CSV_NAME, REPORT_NAME):
                raise OSError("replace failed")
            replace_file(src, dst)

        monkeypatch.setattr(os, "replace", fail_for_csv_and_report)
        with pytest.raises(OSError, match="replace failed"):
            evaluate_run(run_dir)
        with pytest.raises(OSError, match="replace failed"):
            render_report(run_dir)
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before

    def test_reusing_directory_for_other_config_fails(self, world):
        with pytest.raises(ValueError, match="different configuration"):
            run_simulate(
                replace(world["config"], seed=99), out_dir=world["run_dir"]
            )

    def test_in_memory_run_produces_no_files(self, world, tmp_path):
        outcome = run_simulate(replace(world["config"], strategy="none"))
        assert outcome.completed
        assert outcome.out_dir is None
        assert outcome.matrix is not None
        assert list(tmp_path.iterdir()) == []

    def test_garbled_replies_are_counted_and_maskable(self, world):
        config = replace(
            world["config"],
            strategy="none",
            mask_failed=True,
            mock_options={"garble_rate": 0.5},
        )
        outcome = run_simulate(config)
        assert outcome.parse_counts["failed"] > 0
        assert not outcome.matrix.mask.all()

    def test_names_repeat_recorded_for_large_diverse_roster(self, world):
        config = replace(world["config"], n_students=49)
        outcome = run_simulate(config)
        assert outcome.manifest["names_repeat"] is True


class TestDpce:
    def test_greedy_matches_mock_expectation(self, world, tmp_path):
        config = ExperimentConfig(
            corpus_path=world["corpus_path"],
            mode="dpce",
            mock=True,
            seed=3,
            max_in_flight=1,
        )
        out_dir = tmp_path / "dpce"
        outcome = run_dpce(config, out_dir=out_dir)
        assert outcome.completed
        assert len(outcome.responses) == N_ITEMS
        corpus = load_corpus(world["corpus_path"])
        model = MockStudentModel(corpus=corpus, seed=3)
        for item in corpus:
            predicted = outcome.predictions[item.item_id]
            # greedy runs at temperature 0, so only integer rounding remains
            assert predicted == pytest.approx(model.expected_rate(item), abs=0.0051)
        payload = json.loads(
            (out_dir / PREDICTIONS_NAME).read_text(encoding="utf-8")
        )
        assert payload["mode"] == "dpce"
        assert payload["variant"] == "greedy"

    def test_averaged_takes_ten_samples(self, world):
        config = ExperimentConfig(
            corpus_path=world["corpus_path"],
            mode="dpce",
            dpce_variant="averaged",
            mock=True,
            seed=3,
            max_in_flight=1,
        )
        outcome = run_dpce(config)
        assert len(outcome.responses) == N_ITEMS * 10
        corpus = load_corpus(world["corpus_path"])
        model = MockStudentModel(corpus=corpus, seed=3)
        for item in corpus:
            assert outcome.predictions[item.item_id] == pytest.approx(
                model.expected_rate(item), abs=0.08
            )

    def test_constant_estimate_option(self, world):
        config = ExperimentConfig(
            corpus_path=world["corpus_path"],
            mode="dpce",
            mock=True,
            seed=3,
            max_in_flight=1,
            mock_options={"dpce_constant": 0.7},
        )
        outcome = run_dpce(config)
        assert set(outcome.predictions.values()) == {0.7}


class TestBaseline:
    def test_expert_solves_everything(self, world, tmp_path):
        config = ExperimentConfig(
            corpus_path=world["corpus_path"],
            mode="baseline",
            mock=True,
            seed=3,
            max_in_flight=1,
        )
        out_dir = tmp_path / "baseline"
        outcome = run_baseline(config, out_dir=out_dir)
        assert outcome.completed
        assert set(outcome.predictions.values()) == {1.0}
        payload = json.loads(
            (out_dir / PREDICTIONS_NAME).read_text(encoding="utf-8")
        )
        assert payload["accuracy"] == 1.0

    def test_capped_expert(self, world):
        config = ExperimentConfig(
            corpus_path=world["corpus_path"],
            mode="baseline",
            mock=True,
            seed=3,
            max_in_flight=1,
            mock_options={"expert_accuracy": 0.0},
        )
        outcome = run_baseline(config)
        assert set(outcome.predictions.values()) == {0.0}


@pytest.mark.parametrize(
    "run", [run_simulate, run_dpce, run_baseline], ids=["simulate", "dpce", "baseline"]
)
def test_torn_log_resumes_to_same_bytes(world, tmp_path, run):
    config = replace(world["config"], dpce_variant="averaged")
    run(config, out_dir=tmp_path)
    log = tmp_path / RESPONSES_NAME
    full = log.read_bytes()
    predictions = (tmp_path / PREDICTIONS_NAME).read_bytes()
    lines = full.splitlines(keepends=True)
    keep = len(lines) // 3
    log.write_bytes(b"".join(lines[:keep]) + lines[keep][:20])
    outcome = run(config, out_dir=tmp_path)
    assert outcome.completed
    assert log.read_bytes() == full
    assert (tmp_path / PREDICTIONS_NAME).read_bytes() == predictions


class DelayedMock:
    """The mock's replies, each delayed by a seeded 0-3 ms per key, so
    requests finish out of order; records the worker threads it ran on."""

    def __init__(self, world):
        self.mock = MockStudentModel(
            corpus=load_corpus(world["corpus_path"]), seed=world["config"].seed
        )
        self.lock = threading.Lock()
        self.threads = set()

    def complete(self, request):
        with self.lock:
            self.threads.add(threading.current_thread().name)
        time.sleep((derive_seed(11, "delay", *request.key) % 4) / 1000.0)
        return self.mock.complete(request)


class TestStream:
    def test_order_holds_across_item_boundaries(self, world, tmp_path):
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        run_simulate(world["config"], out_dir=serial, backend=DelayedMock(world))
        config = replace(world["config"], max_in_flight=8)
        run_simulate(config, out_dir=pooled, backend=DelayedMock(world))
        log = pooled / RESPONSES_NAME
        full = log.read_bytes()
        assert full == (serial / RESPONSES_NAME).read_bytes()
        lines = full.splitlines(keepends=True)
        keep = len(lines) // 3
        log.write_bytes(b"".join(lines[:keep]) + lines[keep][:20])
        assert run_simulate(config, out_dir=pooled, backend=DelayedMock(world)).completed
        assert log.read_bytes() == full

    def test_capture_is_in_plan_order_and_resume_appends(self, world, tmp_path):
        config = replace(world["config"], capture=True)
        pooled = replace(config, max_in_flight=8)
        serial, parallel, failing = (tmp_path / name for name in ("s", "p", "f"))
        run_simulate(config, out_dir=serial, backend=DelayedMock(world))
        run_simulate(pooled, out_dir=parallel, backend=DelayedMock(world))
        reference = (serial / CAPTURE_NAME).read_bytes()
        assert (parallel / CAPTURE_NAME).read_bytes() == reference
        lines = reference.splitlines(keepends=True)
        captured = [json.loads(line) for line in lines]
        logged = [
            json.loads(line)
            for line in (serial / RESPONSES_NAME).read_text(encoding="utf-8").splitlines()
        ]
        assert [
            (c["item_id"], c["student_index"], c["replicate"], c["text"]) for c in captured
        ] == [(r["item_id"], r["student_index"], r["replicate"], r["raw"]) for r in logged]
        assert list(captured[0]) == [
            "item_id", "student_index", "replicate", "system", "user", "text", "ok", "attempts"
        ]

        delayed = DelayedMock(world)

        class FailingOnKey:
            def complete(self, request):
                if request.key == ("g8-0002", 5, 0):
                    raise RuntimeError("backend unavailable")
                return delayed.complete(request)

        with pytest.raises(RequestFailed):
            run_simulate(pooled, out_dir=failing, backend=FailingOnKey())
        stopped = (failing / CAPTURE_NAME).read_bytes().splitlines(keepends=True)
        sent = 2 * N_STUDENTS + 5
        assert stopped[:sent] == lines[:sent]
        assert len(stopped) == sent + 1
        last = json.loads(stopped[-1])
        assert (last["item_id"], last["student_index"], last["ok"]) == ("g8-0002", 5, False)
        # the rerun sends, and so appends, only what the log lacks
        run_simulate(pooled, out_dir=failing, backend=DelayedMock(world))
        assert (failing / CAPTURE_NAME).read_bytes() == b"".join(stopped + lines[sent:])

    def test_one_pool_serves_the_run(self, world):
        backend = DelayedMock(world)
        outcome = run_simulate(replace(world["config"], max_in_flight=8), backend=backend)
        assert outcome.completed
        assert 1 < len(backend.threads) <= 8

    def test_the_mock_runs_in_the_calling_thread(self, world, tmp_path):
        threads = set()

        class ThreadRecordingMock(MockStudentModel):
            def complete(self, request):
                threads.add(threading.current_thread())
                return super().complete(request)

        backend = ThreadRecordingMock(
            corpus=load_corpus(world["corpus_path"]), seed=world["config"].seed
        )
        config = replace(world["config"], max_in_flight=8)
        assert run_simulate(config, out_dir=tmp_path, backend=backend).completed
        assert threads == {threading.current_thread()}
        assert world["config"].max_in_flight == 1
        assert (tmp_path / RESPONSES_NAME).read_bytes() == (
            world["run_dir"] / RESPONSES_NAME
        ).read_bytes()


class _AnswerByContent(BaseHTTPRequestHandler):
    """A chat endpoint whose reply is a hash of the request body, so it
    does not depend on request order; while the server's ``refuse`` is
    set, every request whose user message contains it gets a 400."""

    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; Nagle would hold the second
    disable_nagle_algorithm = True

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        user = json.loads(body)["messages"][-1]["content"]
        if self.server.refuse is not None and self.server.refuse in user:
            status, payload = 400, {"error": "refused"}
        else:
            digest = hashlib.sha256(body).digest()
            text = (
                f"Answer Key: {'ABCD'[digest[0] % 4]}\n"
                f"Percentage Correct: {digest[1] % 101}"
            )
            status, payload = 200, {"choices": [{"message": {"content": text}}]}
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture
def content_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _AnswerByContent)
    server.daemon_threads = True
    server.refuse = None
    # a short poll interval makes shutdown() return in ~0.05 s, not ~0.5 s
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


REFUSED_ITEM = "g8-0003"


@pytest.mark.parametrize("max_in_flight", [1, 4])
@pytest.mark.parametrize(
    "run, settings",
    [(run_simulate, {}), (run_dpce, {"dpce_variant": "averaged"}), (run_baseline, {})],
    ids=["simulate", "dpce", "baseline"],
)
def test_endpoint_run_stops_on_a_refusal_and_resumes(
    run, settings, max_in_flight, content_server, world, tmp_path
):
    port = content_server.server_address[1]
    config = replace(
        world["config"],
        mock=False,
        endpoint=f"http://127.0.0.1:{port}/v1/chat/completions",
        max_in_flight=max_in_flight,
        **settings,
    )
    whole, stopped = tmp_path / "whole", tmp_path / "stopped"
    assert run(config, out_dir=whole).completed
    reference = (whole / RESPONSES_NAME).read_bytes()
    lines = reference.splitlines(keepends=True)
    before = [json.loads(line)["item_id"] for line in lines].index(REFUSED_ITEM)

    content_server.refuse = f"Problem {int(REFUSED_ITEM[-4:])}:"
    with pytest.raises(RequestFailed, match=rf"'{REFUSED_ITEM}'.*status 400"):
        run(config, out_dir=stopped)
    # every request of the refused item fails, so the first failure in
    # plan order is its first request, however many were in flight
    assert (stopped / RESPONSES_NAME).read_bytes() == b"".join(lines[:before])
    assert not (stopped / PREDICTIONS_NAME).exists()

    content_server.refuse = None
    assert run(config, out_dir=stopped).completed
    for name in (RESPONSES_NAME, PREDICTIONS_NAME):
        assert (stopped / name).read_bytes() == (whole / name).read_bytes()


class TestEvaluate:
    def test_metrics_and_sections(self, world):
        evaluation = evaluate_run(world["run_dir"])
        assert evaluation["manifest_hash"] == world["outcome"].manifest[
            "manifest_hash"
        ]
        assert evaluation["metrics"]["n_items"] == N_ITEMS
        assert -1.0 <= evaluation["metrics"]["pearson"]["r"] <= 1.0
        assert evaluation["metrics"]["pearson"]["p_method"] == "permutation"
        assert set(evaluation["skill_correctness"]) == {
            "BelowBasic",
            "Basic",
            "Proficient",
            "Advanced",
        }
        assert evaluation["distractor_match"]["n_items"] >= 0
        assert evaluation["fit"]["converged"] is True
        subgroups = evaluation["subgroup_correlations"]
        assert {"female", "male"} <= set(subgroups)
        for name in (EVALUATION_JSON_NAME, EVALUATION_CSV_NAME):
            assert (world["run_dir"] / name).exists()

    def test_reevaluation_is_byte_stable(self, world):
        evaluate_run(world["run_dir"])
        first = (world["run_dir"] / EVALUATION_JSON_NAME).read_bytes()
        first_csv = (world["run_dir"] / EVALUATION_CSV_NAME).read_bytes()
        evaluate_run(world["run_dir"])
        assert (world["run_dir"] / EVALUATION_JSON_NAME).read_bytes() == first
        assert (world["run_dir"] / EVALUATION_CSV_NAME).read_bytes() == first_csv

    def test_csv_layout(self, world):
        evaluate_run(world["run_dir"])
        lines = (
            (world["run_dir"] / EVALUATION_CSV_NAME)
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert lines[0] == "item_id,grade,difficulty,real_rate,predicted_rate"
        assert len(lines) == 1 + N_ITEMS
        first = lines[1].split(",")
        assert first[1] == "8"
        float(first[3]), float(first[4])  # both populated for a finished run

    def test_memory_does_not_grow_with_the_log(self, world, tmp_path):
        # 250 students x 8 items: 2,000 replies of more than 4 KB each
        run_dir = tmp_path / "long"
        run_simulate(replace(world["config"], n_students=250), out_dir=run_dir)
        log = run_dir / RESPONSES_NAME
        records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 2000
        for record in records:
            record["raw"] += " I checked each step again." * 160
        log.write_text(
            "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records),
            encoding="utf-8",
        )
        size = log.stat().st_size
        assert size > 2000 * 4096
        tracemalloc.start()
        try:
            evaluation = evaluate_run(run_dir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert evaluation["fit"]["converged"] is True
        assert peak < size / 4, (peak, size)

    def test_corpus_override(self, world):
        evaluation = evaluate_run(world["run_dir"], corpus_path=world["corpus_path"])
        assert evaluation["metrics"]["n_items"] == N_ITEMS

    def test_one_shuffle_stream_serves_both_correlations(self, world, monkeypatch):
        blocks = []
        round_shuffles = metrics._round_shuffles

        def recording(seed, n, first, count):
            blocks.append((seed, n, first, count))
            return round_shuffles(seed, n, first, count)

        monkeypatch.setattr(metrics, "_round_shuffles", recording)
        corpus = load_corpus(world["corpus_path"])
        predictions = {item.item_id: 0.1 * (k % 5) for k, item in enumerate(corpus)}
        result = evaluate_predictions(predictions, corpus, seed=3)
        assert result["pearson"]["p_method"] == "permutation"
        assert {(seed, n) for seed, n, _, _ in blocks} == {
            (derive_seed(3, "permutation"), N_ITEMS)
        }
        rounds = [r for _, _, first, count in blocks for r in range(first, first + count)]
        assert rounds == list(range(PERMUTATION_ROUNDS))

    def test_needs_three_predictions(self, world):
        corpus = load_corpus(world["corpus_path"])
        with pytest.raises(ValueError, match="at least 3"):
            evaluate_predictions({"g8-0000": 0.5, "g8-0001": 0.4}, corpus)


class TestEnsemble:
    def test_blend_and_write(self, world, tmp_path):
        dpce_dir = world["root"] / "dpce_for_ensemble"
        config = ExperimentConfig(
            corpus_path=world["corpus_path"],
            mode="dpce",
            mock=True,
            seed=11,
            max_in_flight=1,
        )
        run_dpce(config, out_dir=dpce_dir)
        out_path = tmp_path / "ensemble.json"
        payload = run_ensemble(
            [world["run_dir"], dpce_dir], out_path=out_path
        )
        assert len(payload["sources"]) == 2
        assert len(payload["predictions"]) == N_ITEMS
        assert out_path.exists()
        sim = world["outcome"].predictions
        dpce = json.loads(
            (dpce_dir / PREDICTIONS_NAME).read_text(encoding="utf-8")
        )["predictions"]
        for item_id, value in payload["predictions"].items():
            assert value == pytest.approx((sim[item_id] + dpce[item_id]) / 2)

    def test_zero_weight_drops_a_source(self, world):
        payload = run_ensemble(
            [world["run_dir"], world["run_dir"]], weights=[1.0, 0.0]
        )
        for item_id, value in payload["predictions"].items():
            assert value == pytest.approx(world["outcome"].predictions[item_id])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            run_ensemble([])


class TestReport:
    def test_sections_present(self, world):
        report = render_report(world["run_dir"])
        assert report.startswith("# Run report: simulate")
        for heading in (
            "## Agreement with observed difficulty",
            "## Parsing",
            "## Correctness by skill",
            "## Distractor agreement",
            "## Subgroup agreement",
            "## Ability scaling",
        ):
            assert heading in report
        assert (world["run_dir"] / REPORT_NAME).read_text(
            encoding="utf-8"
        ) == report

    def test_rerender_is_stable(self, world):
        assert render_report(world["run_dir"]) == render_report(world["run_dir"])


def test_json_artifacts_are_strict_and_write_null_for_a_number_that_is_not_finite():
    payload = {"r": float("nan"), "rows": [1.5, float("inf"), {"low": -float("inf")}],
               "big": 10**20, "text": "NaN"}
    assert json.loads(_json_text(payload)) == {
        "r": None, "rows": [1.5, None, {"low": None}], "big": 10**20, "text": "NaN",
    }
    finite = {"x": 0.1, "rows": [1e16, -0.0, 2**70, (1, 2)], "name": "café", "none": None}
    assert _json_text(finite) == json.dumps(finite, indent=2, ensure_ascii=False) + "\n"
