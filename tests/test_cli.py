import json
from dataclasses import fields

import pytest

from classim.cli import build_parser, main
from classim.orchestrator import ExperimentConfig
from classim.gateway import MockStudentModel

from conftest import make_item_record, write_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    records = [make_item_record(i, grade=8) for i in range(6)]
    return str(write_corpus(root / "corpus.json", records))


def run_cli(*argv):
    return main(list(argv))


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
        ],
        ids=["missing-field", "broken-json"],
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
        ],
        ids=[
            "max-in-flight", "max-retries", "dpce-list", "string", "mock-option",
            "mock-string", "strategy-type", "skill-weights", "dpce-strategy",
            "temperature", "garble-rate", "noise-scale", "expert-accuracy",
            "dpce-constant", "skill-betas", "timeout-range", "temperature-range",
            "sweep-seed", "empty-sweep", "repeated-size", "single-name-clash",
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

    def test_ensemble_weight_count_mismatch(self, finished_run, capsys):
        rc = run_cli(
            "ensemble",
            "--runs", str(finished_run),
            "--weights", "1,2",
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err
