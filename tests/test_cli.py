import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from classim import orchestrator
from classim.cli import build_parser, main
from classim.orchestrator import ExperimentConfig
from classim.gateway import MockStudentModel

from conftest import OUT_OF_DOMAIN, OUT_OF_DOMAIN_IDS, make_item_record, write_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    records = [make_item_record(i, grade=8) for i in range(6)]
    return str(write_corpus(root / "corpus.json", records))


def run_cli(*argv):
    return main(list(argv))


_NAN_WEIGHTS = {"BelowBasic": float("nan"), "Basic": 0.35, "Proficient": 0.25, "Advanced": 0.15}
_STRING_WEIGHTS = {"BelowBasic": 0.25, "Basic": "0.35", "Proficient": 0.25, "Advanced": 0.15}
_BOOL_WEIGHTS = {"BelowBasic": False, "Basic": True, "Proficient": False, "Advanced": False}


def _corpus_with(field, key, value):
    """A one-item corpus whose ``field`` (its entry ``key``, if not None) is ``value``."""
    record = make_item_record(0, with_distribution=True, with_subgroups=True)
    if key is None:
        record[field] = value
    else:
        record[field][key] = value
    return json.dumps([record])


def _corpus_with_choice_text(text):
    """A one-item corpus whose choice B reads ``text``."""
    record = make_item_record(0)
    record["choices"][1]["text"] = text
    return json.dumps([record])


class TestSimulateCommand:
    def test_mock_run_to_directory(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_cli(
            "simulate",
            "--corpus", corpus_path,
            "--mock",
            "--n", "10",
            "--seed", "3",
            "--max-in-flight", "1",
            "--out", str(out),
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "simulate completed: 60 of 60 responses" in captured.out
        assert "abilities:" in captured.out
        assert (out / "predictions.json").exists()

    def test_failed_request_is_a_one_line_error(
        self, corpus_path, tmp_path, capsys, monkeypatch
    ):
        def refuse(self, request):
            raise RuntimeError("status 400: bad request")

        monkeypatch.setattr(MockStudentModel, "complete", refuse)
        out = tmp_path / "run"
        rc = run_cli("baseline", "--corpus", corpus_path, "--mock", "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(out) in err
        assert "('g8-0000', -1, 0)" in err and "status 400: bad request" in err
        assert not (out / "predictions.json").exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            (
                json.dumps([
                    {k: v for k, v in make_item_record(0).items() if k != "content_area"}
                ]),
                "item 'g8-0000', field 'content_area'",
            ),
            ('[{"item_id": "g8-0000",', "invalid JSON at line 1"),
            (
                _corpus_with("real_choice_distribution", "B", None),
                "item 'g8-0000', field 'real_choice_distribution': share of 'B'",
            ),
            (
                _corpus_with("real_choice_distribution", "B", "x"),
                "item 'g8-0000', field 'real_choice_distribution': share of 'B'",
            ),
            (
                _corpus_with("real_choice_distribution", "A", True),
                "item 'g8-0000', field 'real_choice_distribution': share of 'A'",
            ),
            (
                _corpus_with("real_percent_correct", None, True),
                "item 'g8-0000', field 'real_percent_correct'",
            ),
            (
                _corpus_with("real_subgroup_percent_correct", "female", True),
                "item 'g8-0000', field 'real_subgroup_percent_correct'",
            ),
            (
                _corpus_with("real_percent_correct", None, 10**400),
                "item 'g8-0000', field 'real_percent_correct'",
            ),
            (
                _corpus_with("real_choice_distribution", "B", float("nan")),
                "item 'g8-0000', field 'real_choice_distribution': share of 'B'",
            ),
            (_corpus_with_choice_text(None), "item 'g8-0000', field 'choices': choice #1"),
            (_corpus_with_choice_text(5), "item 'g8-0000', field 'choices': choice #1"),
            (_corpus_with_choice_text({"x": 1}), "item 'g8-0000', field 'choices': choice #1"),
            (
                _corpus_with("content_area", None, ["Algebra"]),
                "item 'g8-0000', field 'content_area': value must be str",
            ),
            (_corpus_with("grade", None, 8.0), "item 'g8-0000', field 'grade': value must be int"),
            (
                _corpus_with("correct_key", None, 1),
                "item 'g8-0000', field 'correct_key': value must be str",
            ),
            (json.dumps([make_item_record(0), 5]), "record [1], field 'record'"),
            ('[{"grade": 8}]', "record [0], field 'item_id'"),
            ("[" * 100_000, "bad.json: invalid JSON: nested too deeply"),
        ],
        ids=[
            "missing-field", "broken-json", "null-share", "string-share", "true-share",
            "true-rate", "true-subgroup-rate", "huge-rate", "nan-share", "null-choice-text",
            "number-choice-text", "object-choice-text", "list-content-area", "float-grade",
            "number-correct-key", "non-object-record", "no-item-id", "nested-too-deeply",
        ],
    )
    def test_bad_corpus_is_a_one_line_error(self, text, named, tmp_path, capsys):
        corpus = tmp_path / "bad.json"
        corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "run"
        rc = run_cli("simulate", "--corpus", str(corpus), "--mock", "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("{not json", "invalid JSON at line 1, column 2"),
            ("[1, 2]", "config file must hold a JSON object"),
            ("[" * 100_000, "invalid JSON: nested too deeply"),
        ],
        ids=["broken-json", "not-an-object", "nested-too-deeply"],
    )
    def test_bad_config_file_error_names_the_file(
        self, text, named, corpus_path, tmp_path, capsys
    ):
        config = tmp_path / "bad.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "run"
        rc = run_cli(
            "simulate", "--corpus", corpus_path, "--mock",
            "--config", str(config), "--out", str(out),
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {config}: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    def test_missing_corpus_is_an_error(self, capsys):
        rc = run_cli("simulate", "--mock")
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err

    def test_sweep_requires_out(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "corpus_path": corpus_path,
                    "mock": True,
                    "max_in_flight": 1,
                    "n_students": [4, 6],
                }
            ),
            encoding="utf-8",
        )
        rc = run_cli("simulate", "--config", str(config))
        assert rc == 2
        assert "needs --out" in capsys.readouterr().err

    def test_sweep_creates_named_subdirectories(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "corpus_path": corpus_path,
                    "mock": True,
                    "max_in_flight": 1,
                    "n_students": [4, 6],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "sweep_runs"
        rc = run_cli("simulate", "--config", str(config), "--out", str(out))
        captured = capsys.readouterr()
        assert rc == 0
        assert "--- n4-none ---" in captured.out
        for name in ("n4-none", "n6-none"):
            assert (out / name / "predictions.json").exists()

    def test_cli_overrides_config_file(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "corpus_path": corpus_path,
                    "mock": True,
                    "max_in_flight": 1,
                    "n_students": 4,
                }
            ),
            encoding="utf-8",
        )
        rc = run_cli("simulate", "--config", str(config), "--n", "7")
        captured = capsys.readouterr()
        assert rc == 0
        assert "42 of 42 responses" in captured.out  # 6 items x 7 students


class TestRunOptions:
    def test_run_option_dests_are_config_fields(self):
        parser = build_parser()
        names = {spec.name for spec in fields(ExperimentConfig)}
        for mode in ("simulate", "dpce", "baseline"):
            dests = set(vars(parser.parse_args([mode])))
            assert dests - {"command", "handler", "config", "out"} <= names

    @pytest.mark.parametrize("mode", ["simulate", "dpce", "baseline"])
    def test_flag_beats_config_file(self, mode, corpus_path, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "corpus_path": corpus_path,
                    "mock": True,
                    "max_in_flight": 1,
                    "n_students": 4,
                    "seed": 1,
                    "dpce_variant": "averaged",
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "run"
        variant = ["--variant", "greedy"] if mode == "dpce" else []
        rc = run_cli(
            mode, "--config", str(config), "--n", "7", "--seed", "9",
            "--out", str(out), *variant,
        )
        capsys.readouterr()
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["mode"] == mode
        settings = manifest["config"]
        assert (settings["n_students"], settings["seed"]) == (7, 9)
        assert settings["mock"] and settings["max_in_flight"] == 1
        assert settings["dpce_variant"] == ("greedy" if mode == "dpce" else "averaged")

    @pytest.mark.parametrize(
        "argv, settings, named",
        [
            (["simulate", "--max-in-flight", "0"], {}, "max_in_flight"),
            (["simulate", "--max-retries", "-1"], {}, "max_retries"),
            (["dpce"], {"n_students": [4, 5]}, "n_students"),
            (["simulate"], {"n_students": "5"}, "n_students"),
            (["simulate"], {"mock_options": {"garble": 0.1}}, "garble"),
            (["simulate", "--endpoint", "http://localhost:9/v1"], {"mock": "false"}, "mock"),
            (["simulate"], {"strategy": 5}, "strategy"),
            (["simulate"], {"skill_weights": {"Basic": [1]}}, "skill_weights"),
            (["dpce"], {"strategy": "bogus"}, "strategy"),
            (["simulate"], {"temperature": "hot"}, "temperature"),
            (["simulate"], {"mock_options": {"garble_rate": "x"}}, "garble_rate"),
            (["dpce"], {"mock_options": {"noise_scale": -1}}, "noise_scale"),
            (["baseline"], {"mock_options": {"expert_accuracy": "high"}}, "expert_accuracy"),
            (["dpce"], {"mock_options": {"dpce_constant": 1.5}}, "dpce_constant"),
            (
                ["simulate"],
                {"mock_options": {"skill_betas": {
                    "BelowBasic": -1, "Basic": "x", "Proficient": 0.6, "Advanced": 1.3,
                }}},
                "skill_betas",
            ),
            (["baseline", "--endpoint", "http://localhost:9/v1"],
             {"mock": False, "timeout": 0}, "timeout"),
            (["dpce", "--variant", "averaged"], {"temperature": -5}, "temperature"),
            (["simulate"], {"n_students": [4, 6], "seed": "5"}, "seed"),
            (["simulate"], {"strategy": []}, "strategy"),
            (["simulate"], {"n_students": [4, 4]}, "n4-none"),
            (["simulate"], {"strategy": ["single:Ana-Lee", "single:Ana:Lee"]},
             "n300-single-Ana-Lee"),
            (["dpce", "--variant", "averaged"], {"temperature": float("inf")},
             "temperature"),
            (["simulate"], {"timeout": float("inf")}, "timeout"),
            (["simulate"], {"temperature": 10**400}, "error: temperature must be"),
            (["simulate"], {"mock_options": {"garble_rate": 10**400}},
             "error: garble_rate must be"),
            (["simulate"], {"skill_weights": _NAN_WEIGHTS}, "error: skill_weights:"),
            (["dpce"], {"skill_weights": _NAN_WEIGHTS}, "error: skill_weights:"),
            (["baseline"], {"skill_weights": _NAN_WEIGHTS}, "error: skill_weights:"),
            (["simulate"], {"skill_weights": _STRING_WEIGHTS},
             "error: skill_weights: weight of 'Basic' must be a number, got '0.35'"),
            (["dpce"], {"skill_weights": _STRING_WEIGHTS},
             "error: skill_weights: weight of 'Basic'"),
            (["baseline"], {"skill_weights": _STRING_WEIGHTS},
             "error: skill_weights: weight of 'Basic'"),
            (["simulate"], {"skill_weights": _BOOL_WEIGHTS},
             "error: skill_weights: weight of 'BelowBasic' must be a number, got False"),
            (["dpce"], {"skill_weights": _BOOL_WEIGHTS},
             "error: skill_weights: weight of 'BelowBasic'"),
            (["baseline"], {"skill_weights": _BOOL_WEIGHTS},
             "error: skill_weights: weight of 'BelowBasic'"),
            (["simulate", "--endpoint", "localhost:8000/v1/chat/completions"],
             {"mock": False}, "error: endpoint must be an http:// or https:// URL"),
            (["dpce"], {"endpoint": "ftp://localhost/v1"}, "error: endpoint must be"),
            (["baseline", "--endpoint", "http://localhost:port/v1"], {"mock": False},
             "error: endpoint 'http://localhost:port/v1': Port"),
        ],
        ids=[
            "max-in-flight", "max-retries", "dpce-list", "string", "mock-option",
            "mock-string", "strategy-type", "skill-weights", "dpce-strategy",
            "temperature", "garble-rate", "noise-scale", "expert-accuracy",
            "dpce-constant", "skill-betas", "timeout-range", "temperature-range",
            "sweep-seed", "empty-sweep", "repeated-size", "single-name-clash",
            "temperature-inf", "timeout-inf", "temperature-huge", "garble-rate-huge",
            "nan-weight-simulate", "nan-weight-dpce",
            "nan-weight-baseline", "string-weight-simulate", "string-weight-dpce",
            "string-weight-baseline", "bool-weight-simulate", "bool-weight-dpce",
            "bool-weight-baseline", "endpoint-no-scheme", "endpoint-ftp", "endpoint-port",
        ],
    )
    def test_bad_value_fails_before_the_run_directory(
        self, argv, settings, named, corpus_path, tmp_path, capsys
    ):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"corpus_path": corpus_path, "mock": True, **settings}),
            encoding="utf-8",
        )
        out = tmp_path / "run"
        rc = run_cli(*argv, "--config", str(config), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err
        assert not out.exists()


@pytest.mark.parametrize("value", [None, "x"], ids=["null", "string"])
@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_malformed_log_record_is_a_one_line_error(
    command, value, corpus_path, tmp_path, capsys
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    log = out / "responses.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    record["student_index"] = value
    lines[2] = json.dumps(record) + "\n"
    log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    rc = run_cli(*(["evaluate", "--run", str(out)] if command == "evaluate" else argv))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{log}:3:" in err and "student_index" in err


def _drop(field):
    def edit(text):
        payload = json.loads(text)
        del payload[field]
        return json.dumps(payload)

    return edit


def _set(field, value):
    def edit(text):
        return json.dumps({**json.loads(text), field: value})

    return edit


def _set_in(field, key, value):
    """Set one entry of the object ``field``, keeping the others."""
    def edit(text):
        payload = json.loads(text)
        payload[field][key] = value
        return json.dumps(payload)

    return edit


def _predict(item_id, value):
    """Set one item's prediction, keeping the others."""
    def edit(text):
        payload = json.loads(text)
        payload["predictions"][item_id] = value
        return json.dumps(payload)

    return edit


@pytest.mark.parametrize(
    "command, name, edit, named",
    [
        ("evaluate", "fit.json", _drop("beta"), "missing field 'beta'"),
        ("evaluate", "fit.json", lambda text: "[]", "must hold a JSON object"),
        ("evaluate", "predictions.json", _drop("predictions"), "'predictions'"),
        ("evaluate", "predictions.json", lambda text: text.replace('"', "", 1),
         "invalid JSON at line 2, column 3"),
        ("evaluate", "manifest.json", _drop("config"), "missing field 'config'"),
        ("report", "evaluation.json", lambda text: "[]", "must hold a JSON object"),
        ("ensemble", "predictions.json", _drop("predictions"), "'predictions'"),
        ("simulate", "manifest.json", lambda text: "[]", "must hold a JSON object"),
        ("evaluate", "manifest.json", _set("config", {}), "missing config fields: ['corpus_path']"),
        ("evaluate", "manifest.json", _set("config", 5), "'config' must be a JSON object"),
        ("evaluate", "predictions.json", _set("predictions", []), "'predictions' must map"),
        ("evaluate", "predictions.json", _set("predictions", {"g8-0000": "x"}),
         "'predictions' must map"),
        ("ensemble", "predictions.json", _set("predictions", []), "'predictions' must map"),
        ("ensemble", "manifest.json", _set("config", {}), "missing config fields"),
        ("report", "manifest.json", _set("config", []), "'config' must be a JSON object"),
        ("evaluate", "predictions.json", _predict("g8-0001", True), "'predictions' must map"),
        ("ensemble", "predictions.json", _predict("g8-0001", False), "'predictions' must map"),
        ("report", "evaluation.json", _set_in("fit", "beta", 5), "malformed content"),
        ("report", "evaluation.json", _set("metrics", []), "field 'metrics' must be"),
        ("report", "manifest.json", _set("counts", 3), "field 'counts' must be"),
        ("evaluate", "fit.json", _set("beta", [1]), "field 'beta' must be"),
        ("evaluate", "predictions.json", _set("parse_counts", 7), "field 'parse_counts' must be"),
        ("evaluate", "predictions.json", _predict("g8-0001", float("nan")),
         "'predictions' must map"),
        ("ensemble", "predictions.json", _predict("g8-0001", float("nan")),
         "'predictions' must map"),
        ("evaluate", "predictions.json", _predict("g8-0001", 10**400), "'predictions' must map"),
        ("ensemble", "predictions.json", _predict("g8-0001", 10**400), "'predictions' must map"),
        ("report", "evaluation.json",
         _set_in("metrics", "pearson", {"r": "high", "p_value": None, "n": 6}),
         "malformed content: ValueError"),
        ("report", "evaluation.json", _drop("parse_counts"), "missing field 'parse_counts'"),
        ("evaluate", "manifest.json", _set("counts", 3), "field 'counts' must be"),
        ("evaluate", "manifest.json", _set_in("counts", "requests", "60"),
         "counts field 'requests' must be int, got '60'"),
    ],
    ids=[
        "fit-field", "fit-list", "predictions-field", "predictions-json",
        "manifest-field", "report-evaluation", "ensemble-predictions", "resume-manifest",
        "manifest-config-empty", "manifest-config-number", "predictions-list",
        "predictions-value", "ensemble-predictions-list", "ensemble-config-empty",
        "report-config-list", "predictions-true", "ensemble-predictions-false",
        "report-fit-beta-number", "report-metrics-list", "report-counts-number",
        "fit-beta-list", "predictions-parse-counts-number", "predictions-nan",
        "ensemble-predictions-nan", "predictions-huge", "ensemble-predictions-huge",
        "report-r-string", "report-parse-counts", "manifest-counts-number",
        "manifest-requests-string",
    ],
)
def test_unreadable_run_file_is_a_one_line_error(
    command, name, edit, named, corpus_path, tmp_path, capsys
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    if (command, name) == ("evaluate", "predictions.json"):
        argv[0] = "dpce"  # evaluate derives a simulate run's predictions from its log
    assert run_cli(*argv) == 0
    assert run_cli("evaluate", "--run", str(out)) == 0
    path = out / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    rc = run_cli(
        *{
            "evaluate": ["evaluate", "--run", str(out)],
            "report": ["report", "--run", str(out)],
            "ensemble": ["ensemble", "--runs", str(out)],
            "simulate": argv,
        }[command]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert named in err


def _with_student(line, student_index):
    return json.dumps({**json.loads(line), "student_index": student_index}) + "\n"


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda lines: lines[:20] + lines[19:20], 21),
        (lambda lines: lines[:4] + [_with_student(lines[4], 99)] + lines[5:20], 5),
        (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:20], 3),
        (lambda lines: lines + lines[:1], 61),
    ],
    ids=["duplicate", "foreign-student", "swapped", "over-long"],
)
def test_resume_refuses_a_log_that_is_not_a_plan_prefix(
    edit, line, corpus_path, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    log = out / "responses.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 60
    log.write_text("".join(edit(lines)), encoding="utf-8")
    before = log.read_bytes()
    calls = []
    monkeypatch.setattr(MockStudentModel, "complete", lambda self, request: calls.append(request))
    capsys.readouterr()
    rc = run_cli(*argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {log}:{line}: ") and err.count("\n") == 1
    assert "prefix" in err
    assert calls == [] and log.read_bytes() == before


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda lines: lines[:5] + [b""] + lines[5:], 6),
        (lambda lines: lines[:5] + [b""] + lines[5:20] + lines[19:], 6),
        (lambda lines: lines[:2] + [lines[2].replace(b'"raw": "', b'"raw": "caf\xe9 ', 1)]
         + lines[3:], 3),
        (lambda lines: lines + [b"[" * 100_000], 61),
    ],
    ids=["blank", "blank-then-duplicate", "not-utf8", "nested-too-deeply"],
)
@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_a_log_line_that_is_not_one_record_is_a_one_line_error(
    command, edit, line, corpus_path, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    log = out / "responses.jsonl"
    lines = log.read_bytes().split(b"\n")[:-1]
    log.write_bytes(b"".join(line + b"\n" for line in edit(lines)))
    before = log.read_bytes()
    calls = []
    monkeypatch.setattr(MockStudentModel, "complete", lambda self, request: calls.append(request))
    capsys.readouterr()
    rc = run_cli(*(["evaluate", "--run", str(out)] if command == "evaluate" else argv))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {log}:{line}: corrupt response line: ")
    assert err.count("\n") == 1
    assert calls == [] and log.read_bytes() == before


def test_evaluate_stops_at_a_corrupt_line_and_writes_no_evaluation(
    corpus_path, tmp_path, capsys
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    log = out / "responses.jsonl"
    intact = log.read_bytes()
    lines = intact.split(b"\n")[:-1]
    n = 17  # complete records before the corrupt one
    torn = b"".join(line + b"\n" for line in lines[:n] + [lines[n][:40]] + lines[n:])
    derived = ("evaluation.json", "evaluation.csv")

    def evaluate():
        capsys.readouterr()
        rc = run_cli("evaluate", "--run", str(out))
        return rc, capsys.readouterr().err

    log.write_bytes(torn)
    rc, err = evaluate()
    assert rc == 2
    assert err.startswith(f"error: {log}:{n + 1}: corrupt response line: ")
    assert err.count("\n") == 1
    assert not any((out / name).exists() for name in derived)

    log.write_bytes(intact)
    assert evaluate()[0] == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    log.write_bytes(torn)
    rc, err = evaluate()
    assert rc == 2 and f"{log}:{n + 1}: corrupt response line: " in err
    after = {path.name: path.read_bytes() for path in out.iterdir()}
    assert after == {**before, "responses.jsonl": torn}


@pytest.mark.parametrize("field, value", OUT_OF_DOMAIN, ids=OUT_OF_DOMAIN_IDS)
@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_a_record_outside_its_domain_stops_resume_and_evaluate(
    command, field, value, corpus_path, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    log = out / "responses.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    if command == "simulate":
        lines = lines[:20]  # an interrupted run, which a rerun would continue
    lines[4] = json.dumps({**json.loads(lines[4]), field: value}) + "\n"
    log.write_text("".join(lines), encoding="utf-8")
    before = log.read_bytes()
    calls = []
    monkeypatch.setattr(MockStudentModel, "complete", lambda self, request: calls.append(request))
    capsys.readouterr()
    rc = run_cli(*(["evaluate", "--run", str(out)] if command == "evaluate" else argv))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {log}:5: corrupt response line: response field '{field}' ")
    assert err.count("\n") == 1
    assert calls == [] and log.read_bytes() == before
    assert not (out / "evaluation.json").exists()


# (which record to change: the first the test holds for, the change, what the error says)
_MISGRADED = [
    (
        lambda r: r["chosen"] is not None and r["correct"] == 0, {"correct": 1},
        "and is graded 1, but the corpus key of item",
    ),
    (
        lambda r: r["correct"] == 1, {"correct": 0},
        "and is graded 0, but the corpus key of item",
    ),
    (lambda r: r["chosen"] is not None, {"parse_status": "failed"}, ") is a failed parse holding"),
    (
        lambda r: r["correct"] == 0, {"chosen": "E"},
        ") disagrees with the corpus: it chose 'E', but the corpus gives item",
    ),
]


@pytest.mark.parametrize(
    "applies, change, named", _MISGRADED,
    ids=["wrong-graded-right", "right-graded-wrong", "failed-with-letter", "foreign-letter"],
)
@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_a_grade_that_disagrees_with_its_letter_stops_resume_and_evaluate(
    command, applies, change, named, corpus_path, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    log = out / "responses.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if applies(json.loads(line)))
    lines[index] = json.dumps({**json.loads(lines[index]), **change}, ensure_ascii=False) + "\n"
    if command == "simulate":
        lines = lines[: index + 5]  # an interrupted run, which a rerun would continue
    log.write_text("".join(lines), encoding="utf-8")
    before = {name: (out / name).read_bytes() for name in ("responses.jsonl", "fit.json")}
    calls = []
    monkeypatch.setattr(MockStudentModel, "complete", lambda self, request: calls.append(request))
    capsys.readouterr()
    rc = run_cli(*(["evaluate", "--run", str(out)] if command == "evaluate" else argv))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {log}:{index + 1}: reply (")
    assert named in err and err.count("\n") == 1
    assert calls == []
    assert {name: (out / name).read_bytes() for name in before} == before
    assert not (out / "evaluation.json").exists()


def test_evaluate_against_a_corpus_with_another_key_names_the_corpus_key(
    corpus_path, tmp_path, capsys
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    rekeyed = [make_item_record(i, grade=8) for i in range(6)]
    assert rekeyed[0]["correct_key"] == "A"
    rekeyed[0]["correct_key"] = "C"
    other = write_corpus(tmp_path / "rekeyed.json", rekeyed)
    log = out / "responses.jsonl"
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    line, record = next(
        (n, r) for n, r in enumerate(records, start=1)
        if r["item_id"] == "g8-0000" and r["correct"] != int(r["chosen"] == "C")
    )
    before = log.read_bytes()
    capsys.readouterr()
    assert run_cli("evaluate", "--run", str(out), "--corpus", str(other)) == 2
    err = capsys.readouterr().err
    key = ("g8-0000", record["student_index"], record["replicate"])
    assert err == (
        f"error: {log}:{line}: reply {key} disagrees with the corpus: "
        f"it chose {record['chosen']!r} and is graded {record['correct']}, "
        "but the corpus key of item 'g8-0000' is 'C'\n"
    )
    assert log.read_bytes() == before
    assert not (out / "evaluation.json").exists()
    assert run_cli("evaluate", "--run", str(out), "--corpus", corpus_path) == 0


@pytest.mark.parametrize("name", ["responses.jsonl", "fit.json"])
def test_evaluate_of_a_simulate_run_needs_its_log_and_fit(name, corpus_path, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    (out / name).unlink()
    capsys.readouterr()
    rc = run_cli("evaluate", "--run", str(out))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out / name) in err
    assert not (out / "evaluation.json").exists()


def test_evaluate_of_a_simulate_run_takes_its_predictions_from_the_log(
    corpus_path, tmp_path, capsys
):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    assert run_cli(*argv) == 0
    assert run_cli("evaluate", "--run", str(out)) == 0
    derived = {name: (out / name).read_bytes() for name in ("evaluation.json", "evaluation.csv")}
    path = out / "predictions.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["predictions"] = {
        item_id: (value + 0.5) % 1 for item_id, value in payload["predictions"].items()
    }
    payload["parse_counts"] = {status: 0 for status in payload["parse_counts"]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli("evaluate", "--run", str(out)) == 0
    assert {name: (out / name).read_bytes() for name in derived} == derived


@pytest.mark.parametrize("how", ["stopped", "lost-lines", "over-long"])
def test_evaluate_refuses_a_simulate_log_without_one_reply_per_request(
    how, corpus_path, tmp_path, capsys
):
    out = tmp_path / "run"
    if how == "stopped":
        config = ExperimentConfig(corpus_path=corpus_path, mock=True, n_students=10)
        assert not orchestrator.run_simulate(config, out_dir=out, max_requests=45).completed
        logged = 45
    else:
        argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
        assert run_cli(*argv) == 0
        log = out / "responses.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        lines = lines[:45] if how == "lost-lines" else lines + lines[-1:]
        log.write_text("".join(lines), encoding="utf-8")
        logged = len(lines)
    capsys.readouterr()
    assert run_cli("evaluate", "--run", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: run {out}: {logged} of 60 replies logged; evaluate needs one per request\n"
    )
    assert not any((out / name).exists() for name in ("evaluation.json", "evaluation.csv"))


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_a_run_with_too_few_predicted_items_is_named(command, tmp_path, capsys):
    corpus = write_corpus(tmp_path / "two.json", [make_item_record(i) for i in range(2)])
    out = tmp_path / "run"
    assert run_cli("simulate", "--corpus", corpus, "--mock", "--n", "10", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli(command, "--run", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: run {out}: need at least 3 predicted items to evaluate, got 2\n"
    )
    assert not (out / "evaluation.json").exists()


def test_an_undefined_correlation_is_written_as_null(corpus_path, tmp_path, capsys):
    out = tmp_path / "dpce"
    config = tmp_path / "constant.json"
    config.write_text(
        json.dumps({"corpus_path": corpus_path, "mock": True,
                    "mock_options": {"dpce_constant": 0.5}}),
        encoding="utf-8",
    )
    assert run_cli("dpce", "--config", str(config), "--out", str(out)) == 0
    assert run_cli("report", "--run", str(out)) == 0
    blend = tmp_path / "blend.json"
    assert run_cli("ensemble", "--runs", str(out), "--out", str(blend)) == 0

    def strict(token):
        raise ValueError(f"not strict JSON: {token}")

    for path in (out / "evaluation.json", blend):
        payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=strict)
        assert payload["metrics"]["pearson"]["r"] is None
        assert payload["metrics"]["pearson"]["p_value"] is None
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "| pearson | - | - | 6 |" in report


@pytest.mark.parametrize("which", ["config", "corpus", "predictions"])
def test_a_file_that_is_not_utf8_is_named(which, corpus_path, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["simulate", "--corpus", corpus_path, "--mock", "--n", "10", "--out", str(out)]
    path = tmp_path / "latin.json"
    if which == "config":
        path.write_bytes(b'{"corpus_path": "caf\xe9"}')
        argv = ["simulate", "--config", str(path), "--mock"]
    elif which == "corpus":
        text = Path(corpus_path).read_bytes()
        path.write_bytes(text.replace(b'"stem": "', b'"stem": "caf\xe9 ', 1))
        argv[2] = str(path)
    else:
        argv[0] = "dpce"  # evaluate derives a simulate run's predictions from its log
        assert run_cli(*argv) == 0
        path = out / "predictions.json"
        path.write_bytes(path.read_bytes().replace(b'"mode": "', b'"mode": "\xe9', 1))
        argv = ["evaluate", "--run", str(out)]
    capsys.readouterr()
    rc = run_cli(*argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: not UTF-8 text: ") and err.count("\n") == 1
    assert which == "predictions" or not out.exists()


def test_one_classroom_answers_every_grade(tmp_path, capsys, monkeypatch):
    grades = (4, 8, 12)
    records = [
        make_item_record(i, grade=grade, with_subgroups=True)
        for grade in grades
        for i in range(4)
    ]
    corpus = write_corpus(tmp_path / "c.json", records)
    out = tmp_path / "run"
    n = 10
    rc = run_cli(
        "simulate", "--corpus", corpus, "--mock", "--strategy", "diverse",
        "--capture", "--n", str(n), "--out", str(out),
    )
    assert rc == 0
    grade_of = {record["item_id"]: record["grade"] for record in records}
    names = {}
    captured = (out / "capture.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(captured) == n * len(records)
    for line in captured:
        capture = json.loads(line)
        assert f"in the {grade_of[capture['item_id']]}th grade" in capture["system"]
        name = re.search(r"You are (\w+), a student", capture["system"]).group(1)
        names.setdefault(capture["student_index"], set()).add(name)
    assert sorted(names) == list(range(n))
    assert all(len(student_names) == 1 for student_names in names.values())
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"]["students"] == n * len(grades)

    groups_seen = []
    subgroup_correlations = orchestrator.subgroup_correlations

    def spy(matrix, groups, real_rates):
        groups_seen.append(groups)
        return subgroup_correlations(matrix, groups, real_rates)

    monkeypatch.setattr(orchestrator, "subgroup_correlations", spy)
    assert run_cli("evaluate", "--run", str(out)) == 0
    [groups] = groups_seen
    for labels in (("female", "male"), ("asian", "black", "hispanic", "white")):
        members = [k for label in labels for k in groups[label]]
        assert sorted(members) == list(range(n))
    evaluation = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
    assert set(evaluation["subgroup_correlations"]) == {"female", "male"}


@pytest.fixture(scope="module")
def finished_run(corpus_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("finished") / "run"
    rc = run_cli(
        "simulate",
        "--corpus", corpus_path,
        "--mock",
        "--n", "10",
        "--seed", "3",
        "--max-in-flight", "1",
        "--out", str(out),
    )
    assert rc == 0
    return out


class TestOtherCommands:
    def test_dpce(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "dpce"
        rc = run_cli(
            "dpce",
            "--corpus", corpus_path,
            "--mock",
            "--variant", "greedy",
            "--max-in-flight", "1",
            "--out", str(out),
        )
        assert rc == 0
        assert "dpce completed: 6 of 6 responses" in capsys.readouterr().out
        payload = json.loads((out / "predictions.json").read_text(encoding="utf-8"))
        assert payload["variant"] == "greedy"

    def test_baseline(self, corpus_path, capsys):
        rc = run_cli(
            "baseline",
            "--corpus", corpus_path,
            "--mock",
            "--max-in-flight", "1",
        )
        assert rc == 0
        assert "baseline completed" in capsys.readouterr().out

    def test_evaluate(self, finished_run, capsys):
        rc = run_cli("evaluate", "--run", str(finished_run))
        captured = capsys.readouterr()
        assert rc == 0
        assert "pearson: r=" in captured.out
        assert "auc_hard_vs_easy:" in captured.out
        assert (finished_run / "evaluation.json").exists()

    def test_evaluate_missing_run(self, tmp_path, capsys):
        rc = run_cli("evaluate", "--run", str(tmp_path / "nope"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_report(self, finished_run, capsys):
        rc = run_cli("report", "--run", str(finished_run))
        captured = capsys.readouterr()
        assert rc == 0
        assert "# Run report: simulate" in captured.out
        assert (finished_run / "report.md").exists()

    def test_ensemble(self, finished_run, tmp_path, capsys):
        out = tmp_path / "blend.json"
        rc = run_cli(
            "ensemble",
            "--runs", str(finished_run), str(finished_run),
            "--weights", "1,1",
            "--out", str(out),
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "ensemble pearson" in captured.out
        assert out.exists()

    @pytest.mark.parametrize("weights", ["inf,1", "nan,1", "0,0", "-1,1"])
    def test_ensemble_bad_weights_are_a_one_line_error(
        self, weights, finished_run, tmp_path, capsys
    ):
        out = tmp_path / "blend.json"
        rc = run_cli(
            "ensemble",
            "--runs", str(finished_run), str(finished_run),
            f"--weights={weights}",
            "--out", str(out),
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: weights must be") and err.count("\n") == 1
        assert not out.exists()

    def test_ensemble_weight_count_mismatch(self, finished_run, capsys):
        rc = run_cli(
            "ensemble",
            "--runs", str(finished_run),
            "--weights", "1,2",
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err
