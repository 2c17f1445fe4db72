import inspect
import io
import json
import re
import shlex
import sys
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import (
    GRAPH_REPLY,
    TINY_PNG,
    FakeChatServer,
    Fault,
    build_two_level_scenario,
    scripted_backend_of,
    scripted_config,
    write_fixture_dir,
)
from hmgie import cli, pipeline
from hmgie import gateway as gateway_module
from hmgie.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from hmgie.forge import ForgeConfig
from hmgie.gateway import Gateway, HttpBackend
from hmgie.pipeline import PipelineConfig, RoleBindings, evaluate_pair
from hmgie.prompts import TemplateName

CAPTION = "A brown dog lies on a sofa."


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in (
        "HMGIE_ENDPOINT",
        "HMGIE_API_KEY",
        "HMGIE_MODEL",
        "HMGIE_CACHE_DIR",
        "HMGIE_TEMPLATES_DIR",
        "HMGIE_TEMPERATURE",
    ):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture()
def replay_setup(tmp_path):
    """Fixture dir + image for the standard two-level scenario."""
    config = scripted_config()
    build_two_level_scenario(config, caption=CAPTION)
    fixtures = scripted_backend_of(config).fixtures
    fixture_dir = tmp_path / "fixtures"
    write_fixture_dir(fixtures, fixture_dir)
    image = tmp_path / "img.png"
    image.write_bytes(TINY_PNG)
    return fixture_dir, image


class TestEvaluateSingle:
    def test_replay_single_pair(self, replay_setup, capsys, tmp_path):
        fixture_dir, image = replay_setup
        out_dir = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--image", str(image),
                "--caption", CAPTION,
                "--replay", str(fixture_dir),
                "--out", str(out_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "decision: consistent" in captured.out
        assert "H_acc" in captured.out
        assert "H_comp" in captured.out
        report = json.loads((out_dir / "pair.report.json").read_text())
        assert report["decision"] == 1
        assert report["realized_depth"] == 2

    def test_out_that_is_a_file_exits_2_before_any_call(
        self, replay_setup, capsys, tmp_path, monkeypatch
    ):
        fixture_dir, image = replay_setup
        monkeypatch.setattr(cli, "evaluate_pair", lambda *a: pytest.fail("pair ran"))
        not_a_dir = tmp_path / "notadir"
        not_a_dir.write_text("", encoding="utf-8")
        argv = ["evaluate", "--image", str(image), "--caption", CAPTION,
                "--replay", str(fixture_dir), "--out", str(not_a_dir)]
        assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: ")

    def test_json_output(self, replay_setup, capsys):
        fixture_dir, image = replay_setup
        code = main(
            [
                "evaluate",
                "--image", str(image),
                "--caption", CAPTION,
                "--replay", str(fixture_dir),
                "--json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == 1
        assert payload["h_acc"] == pytest.approx(1.96 / 2.2, abs=1e-9)

    def test_missing_caption_and_dataset_is_usage_error(self, capsys):
        assert main(["evaluate"]) == EXIT_USAGE
        assert "either --caption" in capsys.readouterr().err

    def test_caption_without_image_is_usage_error(self, replay_setup):
        fixture_dir, _ = replay_setup
        code = main(
            ["evaluate", "--caption", "x", "--replay", str(fixture_dir)]
        )
        assert code == EXIT_USAGE

    def test_caption_and_dataset_together_is_usage_error(self, replay_setup):
        fixture_dir, image = replay_setup
        code = main(
            [
                "evaluate",
                "--image", str(image),
                "--caption", "x",
                "--dataset", "whatever.jsonl",
                "--replay", str(fixture_dir),
            ]
        )
        assert code == EXIT_USAGE

    def test_unknown_flag_exits_64(self, replay_setup, capsys):
        # Beside flags that would run, so only the unknown one can refuse it.
        fixture_dir, image = replay_setup
        argv = ["evaluate", "--image", str(image), "--caption", CAPTION,
                "--replay", str(fixture_dir), "--bogus-flag"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "hmgie: error: unrecognized arguments: --bogus-flag\n"
        )

    def test_no_command_prints_the_usage_and_exits_64(self, capsys):
        assert main([]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage: hmgie ")

    def test_missing_fixture_exits_2_with_key(self, replay_setup, capsys):
        fixture_dir, image = replay_setup
        # remove a load-bearing fixture (the level-2 VQA reply)
        log = fixture_dir / "replies.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        victim = next(line for line in lines if "0.8" in json.loads(line)[1])
        key = json.loads(victim)[0]
        log.write_bytes(b"".join(line for line in lines if line != victim))
        code = main(
            [
                "evaluate",
                "--image", str(image),
                "--caption", CAPTION,
                "--replay", str(fixture_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert key in captured.err

    def test_live_mode_without_key_is_usage_error(self, replay_setup, capsys):
        _, image = replay_setup
        code = main(["evaluate", "--image", str(image), "--caption", CAPTION])
        assert code == EXIT_USAGE
        assert "API key" in capsys.readouterr().err


class TestEvaluateBatch:
    @pytest.fixture()
    def batch_setup(self, tmp_path):
        config = scripted_config()
        build_two_level_scenario(config, caption="clean caption")
        build_two_level_scenario(
            config, caption="noisy caption", second_level1_correct=False
        )
        fixture_dir = tmp_path / "fixtures"
        write_fixture_dir(scripted_backend_of(config).fixtures, fixture_dir)
        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        rows = [
            {"id": "a", "image_path": str(image), "caption": "clean caption", "label": 0, "granularity": 1},
            {"id": "b", "image_path": str(image), "caption": "noisy caption", "label": 1, "granularity": 1},
            {"id": "c", "image_path": str(image), "caption": "clean caption", "label": 0, "granularity": 2},
            {"id": "d", "image_path": str(image), "caption": "noisy caption", "label": 1, "granularity": 2},
        ]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            "\n".join(json.dumps(row) for row in rows) + "\n", encoding="utf-8"
        )
        return fixture_dir, dataset

    def test_labeled_batch_prints_metrics(self, batch_setup, capsys, tmp_path):
        fixture_dir, dataset = batch_setup
        out_dir = tmp_path / "reports"
        code = main(
            [
                "evaluate",
                "--dataset", str(dataset),
                "--replay", str(fixture_dir),
                "--out", str(out_dir),
                "--per-granularity",
                "--parallelism", "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "TPR: 1.0000" in captured.out
        assert "FPR: 0.0000" in captured.out
        assert "F1: 1.0000" in captured.out
        assert "G1:" in captured.out and "G2:" in captured.out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["evaluated"] == 4
        assert summary["metrics"]["confusion"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}
        assert (out_dir / "a.report.json").exists()

    def test_item_error_exits_2(self, batch_setup, capsys, tmp_path):
        fixture_dir, dataset = batch_setup
        rows = [json.loads(line) for line in dataset.read_text().splitlines()]
        rows.append(
            {"id": "broken", "image_path": rows[0]["image_path"], "caption": "unknown", "label": 1}
        )
        dataset.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        code = main(
            ["evaluate", "--dataset", str(dataset), "--replay", str(fixture_dir)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert "broken: error" in captured.out
        assert "4 evaluated, 1 failed" in captured.out


    @pytest.mark.parametrize("first, second", [("a/b", "a_b"), ("x", "x")])
    def test_ids_sharing_a_report_file_exit_2_before_any_call(
        self, batch_setup, capsys, tmp_path, first, second
    ):
        fixture_dir, dataset = batch_setup
        rows = [json.loads(line) for line in dataset.read_text().splitlines()][:2]
        rows[0]["id"], rows[1]["id"] = first, second
        dataset.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        out_dir = tmp_path / "reports"
        code = main(
            [
                "evaluate",
                "--dataset", str(dataset),
                "--replay", str(fixture_dir),
                "--out", str(out_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        name = first.replace("/", "_")
        assert captured.err == (
            f"error: items {first!r} and {second!r} would both write {name}.report.json\n"
        )
        assert captured.out == ""
        assert not out_dir.exists()

    def test_out_that_is_a_file_exits_2_before_any_call(
        self, batch_setup, capsys, tmp_path, monkeypatch
    ):
        fixture_dir, dataset = batch_setup
        monkeypatch.setattr(cli, "evaluate_batch", lambda *a: pytest.fail("batch ran"))
        not_a_dir = tmp_path / "notadir"
        not_a_dir.write_text("keep\n", encoding="utf-8")
        argv = ["evaluate", "--dataset", str(dataset), "--replay", str(fixture_dir),
                "--out", str(not_a_dir)]
        assert main(argv) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(not_a_dir) in captured.err
        assert captured.out == ""
        assert not_a_dir.read_text(encoding="utf-8") == "keep\n"

    def test_a_report_write_that_fails_after_the_batch_exits_2(
        self, batch_setup, capsys, tmp_path
    ):
        fixture_dir, dataset = batch_setup
        out_dir = tmp_path / "reports"
        (out_dir / "a.report.json").mkdir(parents=True)
        argv = ["evaluate", "--dataset", str(dataset), "--replay", str(fixture_dir),
                "--out", str(out_dir)]
        assert main(argv) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""  # files go first, so no line is printed
        assert captured.err.startswith("error: [Errno 21] Is a directory: ")
        assert captured.err.count("\n") == 1
        # The temp file the write went through is gone.
        assert [path.name for path in out_dir.iterdir()] == ["a.report.json"]

    def test_a_stdout_closed_after_one_line_costs_no_file(
        self, batch_setup, capsys, tmp_path, monkeypatch
    ):
        """As with `hmgie evaluate ... | head -1`: every report and the summary
        are on disk, and the run exits 2 naming the broken pipe."""

        class ClosedAfterOneLine(io.StringIO):
            def write(self, text):
                if "\n" in self.getvalue():
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        fixture_dir, dataset = batch_setup
        out_dir = tmp_path / "reports"
        stdout = ClosedAfterOneLine()
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = ["evaluate", "--dataset", str(dataset), "--replay", str(fixture_dir),
                "--out", str(out_dir)]
        assert main(argv) == EXIT_RUNTIME
        assert stdout.getvalue().startswith("a: decision=consistent ")
        assert stdout.getvalue().count("\n") == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "a.report.json", "b.report.json", "c.report.json", "d.report.json", "summary.json"
        ]
        assert json.loads((out_dir / "summary.json").read_text())["evaluated"] == 4


def router(prompt: str) -> str:
    """One-level scenario served over HTTP for record/replay round trips."""
    if prompt.startswith("Your task is to parse"):
        return GRAPH_REPLY
    if prompt.startswith("You are a specialized question generator"):
        return json.dumps(
            {
                "Questions": [
                    {
                        "Question": "What is shown?",
                        "Verify-Fact": "a dog is shown",
                        "Expected-Answer": "a dog",
                        "Parent-IDS": [],
                        "Covered-Nodes": ["N1", "N2", "N3"],
                        "Covered-Edges": [0, 1],
                    }
                ]
            }
        )
    if "visual question answering" in prompt:
        return json.dumps({"Answer": "a dog", "Confidence": 1.0})
    if prompt.startswith("You are a question answer evaluator"):
        return json.dumps({"Correct": True})
    if "based on QA results" in prompt:
        return json.dumps(
            {
                "Verified-Complete": True,
                "Examined-Nodes": [],
                "Examined-Edges": [],
                "Next-Level-Suggestion": None,
            }
        )
    return "everything checks out"


def http_responder(body: dict) -> tuple[int, str]:
    content = body["messages"][-1]["content"]
    prompt = content if isinstance(content, str) else content[0]["text"]
    return 200, router(prompt)


class TestRecordReplay:
    def test_record_then_replay_byte_identical(self, tmp_path, capsys):
        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        cache_dir = tmp_path / "cache"
        out_record = tmp_path / "out-record"
        out_replay = tmp_path / "out-replay"

        with FakeChatServer(http_responder) as server:
            code = main(
                [
                    "evaluate",
                    "--record",
                    "--image", str(image),
                    "--caption", "a dog",
                    "--endpoint", server.endpoint,
                    "--api-key", "k",
                    "--cache-dir", str(cache_dir),
                    "--out", str(out_record),
                ]
            )
            assert code == EXIT_OK
            live_hits = len(server.requests)
            assert live_hits > 0

            # replay must not touch the network
            code = main(
                [
                    "evaluate",
                    "--image", str(image),
                    "--caption", "a dog",
                    "--replay", str(cache_dir),
                    "--out", str(out_replay),
                ]
            )
            assert code == EXIT_OK
            assert len(server.requests) == live_hits

        recorded = (out_record / "pair.report.json").read_bytes()
        replayed = (out_replay / "pair.report.json").read_bytes()
        assert recorded == replayed

    def test_replay_runs_levels_without_a_pool_and_writes_the_same_report(
        self, replay_setup, tmp_path, monkeypatch
    ):
        fixture_dir, image = replay_setup
        config = replace(scripted_config(), intra_level_parallelism=4)
        build_two_level_scenario(config, caption=CAPTION)
        fanned_out = evaluate_pair(TINY_PNG, CAPTION, config).to_json() + "\n"
        pools = []

        class CountingPool(pipeline.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CountingPool)
        out = tmp_path / "out"
        argv = ["evaluate", "--image", str(image), "--caption", CAPTION, "--out", str(out),
                "--replay", str(fixture_dir)]
        assert main(argv) == EXIT_OK
        assert pools == []
        assert (out / "pair.report.json").read_text(encoding="utf-8") == fanned_out

    def test_replay_gateway_keeps_no_record_of_its_calls(
        self, replay_setup, tmp_path, monkeypatch
    ):
        # Replies come from the gateway's reply log; the backend sees misses only.
        fixture_dir, image = replay_setup
        built = []

        class KeptGateway(cli.Gateway):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "Gateway", KeptGateway)
        argv = ["evaluate", "--image", str(image), "--caption", CAPTION,
                "--out", str(tmp_path / "out"), "--replay", str(fixture_dir)]
        assert main(argv) == EXIT_OK
        assert len(built) == 1
        assert built[0].backend.calls == []

    def test_oversized_reply_fails_its_item_and_the_batch_completes(self, tmp_path, capsys):
        cap = gateway_module.MAX_REPLY_BYTES

        def responder(body):
            content = body["messages"][-1]["content"]
            if isinstance(content, str) and "a huge caption" in content:
                return Fault.OVERSIZE
            return http_responder(body)

        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        dataset = tmp_path / "data.jsonl"
        rows = [
            {"id": item, "image_path": str(image), "caption": caption}
            for item, caption in (("a", "a dog"), ("big", "a huge caption"), ("c", "a cat"))
        ]
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
        with FakeChatServer(responder) as server:
            code = main(
                [
                    "evaluate",
                    "--record",
                    "--dataset", str(dataset),
                    "--endpoint", server.endpoint,
                    "--api-key", "k",
                    "--cache-dir", str(cache_dir),
                    "--out", str(out_dir),
                    "--parallelism", "2",
                ]
            )
        assert code == EXIT_RUNTIME
        out = capsys.readouterr().out
        assert "items: 2 evaluated, 1 failed" in out
        (failure,) = [line for line in out.splitlines() if line.startswith("big: error")]
        assert f"MAX_REPLY_BYTES = {cap}" in failure
        # The oversized reply was asked for once: no retry, no second attempt.
        huge = [r for r in server.requests if "a huge caption" in json.dumps(r)]
        assert len(huge) == 1
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "a.report.json", "c.report.json", "summary.json"
        ]
        log = (cache_dir / "replies.jsonl").read_bytes()
        assert b"a huge caption" not in log and len(log) < cap

    def test_commands_close_the_backends_they_built(self, tmp_path, monkeypatch):
        closed = []
        close = HttpBackend.close

        def recording_close(backend):
            closed.append(backend)
            close(backend)

        monkeypatch.setattr(HttpBackend, "close", recording_close)
        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        with FakeChatServer(http_responder) as server:
            code = main(
                [
                    "evaluate",
                    "--record",
                    "--image", str(image),
                    "--caption", "a dog",
                    "--endpoint", server.endpoint,
                    "--api-key", "k",
                    "--cache-dir", str(tmp_path / "cache"),
                ]
            )
        assert code == EXIT_OK
        assert len(closed) == 1
        code = main(
            [
                "forge",
                "--images", str(tmp_path / "missing"),
                "--out", str(tmp_path / "x.jsonl"),
                "--endpoint", "http://example.invalid",
                "--api-key", "k",
            ]
        )
        assert code == EXIT_RUNTIME
        assert len(closed) == 2

    @pytest.mark.parametrize(
        "command, template",
        [(["evaluate", "--image", "i", "--caption", "c"], "vqa.txt"),
         (["forge", "--images", "imgs", "--out", "x.jsonl"], "direct_prompt.txt")],
    )
    def test_config_error_closes_the_backends_built_before_it(
        self, tmp_path, capsys, monkeypatch, command, template
    ):
        # The templates load after every role's gateway is built.
        closed = []
        close = HttpBackend.close
        monkeypatch.setattr(HttpBackend, "close", lambda b: (closed.append(b), close(b)))
        (tmp_path / template).write_text("{bogus}", encoding="utf-8")
        argv = command + [
            "--endpoint", "http://example.invalid",
            "--api-key", "k",
            "--templates-dir", str(tmp_path),
        ]
        assert main(argv) == EXIT_USAGE
        assert "undeclared placeholders ['bogus']" in capsys.readouterr().err
        assert len(closed) == 1

    def test_replay_keeps_the_retry_limit_it_was_recorded_under(self, tmp_path, capsys):
        def unjudged(body):
            content = body["messages"][-1]["content"]
            if isinstance(content, str) and content.startswith("You are a question answer"):
                return 200, "no verdict"
            return http_responder(body)

        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        cache_dir = tmp_path / "cache"
        pair = ["--image", str(image), "--caption", "a dog", "--cache-dir", str(cache_dir)]
        with FakeChatServer(unjudged) as server:
            live = ["--endpoint", server.endpoint, "--api-key", "k"]
            argv = ["evaluate", "--record", *pair, *live, "--retry-limit", "1",
                    "--out", str(tmp_path / "a")]
            assert main(argv) == EXIT_OK
        replay = ["evaluate", *pair, "--replay", str(cache_dir)]
        argv = [*replay, "--retry-limit", "1", "--out", str(tmp_path / "b")]
        assert main(argv) == EXIT_OK
        recorded = (tmp_path / "a" / "pair.report.json").read_bytes()
        assert (tmp_path / "b" / "pair.report.json").read_bytes() == recorded
        assert b"answer-eval attempt 1 unparseable" in recorded
        # At the default budget, replay asks for a second attempt never recorded.
        capsys.readouterr()
        assert main(replay) == EXIT_RUNTIME
        assert "no fixture recorded for request key" in capsys.readouterr().err

    def test_record_without_api_key_is_usage_error(self, tmp_path, capsys):
        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        code = main(
            [
                "evaluate",
                "--record",
                "--image", str(image),
                "--caption", "a dog",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == EXIT_USAGE
        assert "API key" in capsys.readouterr().err

    def test_record_without_cache_dir_is_usage_error(self, tmp_path, capsys):
        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        code = main(
            [
                "evaluate",
                "--record",
                "--image", str(image),
                "--caption", "a dog",
                "--endpoint", "http://example.invalid",
                "--api-key", "k",
            ]
        )
        assert code == EXIT_USAGE
        assert "cache" in capsys.readouterr().err.lower()

    def test_replay_deleted_fixture_exits_2_naming_key(self, tmp_path, capsys):
        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        cache_dir = tmp_path / "cache"
        with FakeChatServer(http_responder) as server:
            main(
                [
                    "evaluate",
                    "--record",
                    "--image", str(image),
                    "--caption", "a dog",
                    "--endpoint", server.endpoint,
                    "--api-key", "k",
                    "--cache-dir", str(cache_dir),
                ]
            )
        capsys.readouterr()
        log = cache_dir / "replies.jsonl"
        assert list(cache_dir.iterdir()) == [log]
        lines = log.read_bytes().splitlines(keepends=True)
        key = json.loads(lines[0])[0]
        log.write_bytes(b"".join(lines[1:]))
        code = main(
            [
                "evaluate",
                "--image", str(image),
                "--caption", "a dog",
                "--replay", str(cache_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert key in captured.err


class TestLoneSurrogates:
    """A reply or dataset field holding a lone surrogate costs no item."""

    EXPLANATION = "The caption matches.\ud800"

    @pytest.fixture()
    def recorded(self, tmp_path):
        config = scripted_config()
        script = build_two_level_scenario(config, caption=CAPTION)
        script.script_explain(self.EXPLANATION)
        fixture_dir = tmp_path / "fixtures"
        recorder = Gateway(scripted_backend_of(config), cache_dir=fixture_dir, record=True)
        recording = replace(config, backends=RoleBindings.uniform(recorder))
        evaluate_pair(TINY_PNG, CAPTION, recording)
        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        return fixture_dir, image

    def test_single_pair_prints_and_writes_the_escape(self, recorded, capsys, tmp_path):
        fixture_dir, image = recorded
        out_dir = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--image", str(image),
                "--caption", CAPTION,
                "--replay", str(fixture_dir),
                "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "explanation: The caption matches.\\ud800\n" in capsys.readouterr().out
        text = (out_dir / "pair.report.json").read_text(encoding="utf-8")
        assert '"explanation": "The caption matches.\\ud800"' in text
        assert json.loads(text)["explanation"] == self.EXPLANATION
        assert [path.name for path in out_dir.iterdir()] == ["pair.report.json"]

    def test_batch_writes_every_report_and_the_summary(self, recorded, capsys, tmp_path):
        fixture_dir, image = recorded
        dataset = tmp_path / "data.jsonl"
        rows = [
            {"id": "a", "image_path": str(image), "caption": CAPTION},
            {"id": "b\udcff", "image_path": str(image), "caption": CAPTION},
        ]
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--dataset", str(dataset),
                "--replay", str(fixture_dir),
                "--out", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("a: decision=consistent ")
        assert "\nb\\udcff: decision=consistent " in out
        for name in ("a.report.json", "b_.report.json"):
            report = json.loads((out_dir / name).read_text(encoding="utf-8"))
            assert report["explanation"] == self.EXPLANATION
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert [row["id"] for row in summary["results"]] == ["a", "b\udcff"]
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "a.report.json", "b_.report.json", "summary.json"
        ]


class TestForgeCli:
    def _fixtures(self, tmp_path) -> Path:
        """Record forge fixtures by running against the HTTP fake once."""
        # the CLI forge in replay mode needs a populated fixture dir; record it
        images = tmp_path / "imgs"
        images.mkdir(exist_ok=True)
        for name in ("one.png", "two.png"):
            (images / name).write_bytes(TINY_PNG)
        cache = tmp_path / "forge-cache"

        def forge_router(body):
            content = body["messages"][-1]["content"]
            prompt = content if isinstance(content, str) else content[0]["text"]
            if prompt.startswith("Describe the image"):
                return 200, "ground truth caption"
            if prompt.startswith("You are constructing hard negative captions"):
                return 200, json.dumps({"Perturbed-Caption": "perturbed caption"})
            if prompt.startswith("Does the image match"):
                return 200, json.dumps({"Answer": "Yes", "Explanation": "fooled"})
            return 200, "unused"

        with FakeChatServer(forge_router) as server:
            code = main(
                [
                    "forge",
                    "--images", str(images),
                    "--out", str(tmp_path / "seed.jsonl"),
                    "--endpoint", server.endpoint,
                    "--api-key", "k",
                    "--cache-dir", str(cache),
                    "--record",
                ]
            )
            assert code == EXIT_OK
        return images, cache

    def test_forge_writes_sixteen_records(self, tmp_path, capsys):
        images, cache = self._fixtures(tmp_path)
        capsys.readouterr()
        out = tmp_path / "dataset.jsonl"
        code = main(
            [
                "forge",
                "--images", str(images),
                "--out", str(out),
                "--replay", str(cache),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 16
        assert "records: 16" in captured.out
        assert "G1: 4" in captured.out

    def test_unreadable_images_dir(self, tmp_path, capsys):
        code = main(
            [
                "forge",
                "--images", str(tmp_path / "missing"),
                "--out", str(tmp_path / "x.jsonl"),
                "--endpoint", "http://example.invalid",
                "--api-key", "k",
            ]
        )
        assert code == EXIT_RUNTIME
        assert "not readable" in capsys.readouterr().err

    def test_max_iter_zero_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "forge",
                "--images", str(tmp_path),
                "--out", str(tmp_path / "x.jsonl"),
                "--endpoint", "http://example.invalid",
                "--api-key", "k",
                "--max-iter", "0",
            ]
        )
        assert code == EXIT_USAGE
        assert "max_iterations" in capsys.readouterr().err

    def test_skipped_count_names_every_omission(self, tmp_path, capsys):
        # The detector is never fooled, but --include-undetected keeps the
        # attempt; the cell is skipped because it equals the ground truth.
        images = tmp_path / "imgs"
        images.mkdir()
        (images / "one.png").write_bytes(TINY_PNG)

        def router(body):
            content = body["messages"][-1]["content"]
            prompt = content if isinstance(content, str) else content[0]["text"]
            if prompt.startswith("Describe the image"):
                return 200, "ground truth caption"
            if prompt.startswith("You are constructing hard negative captions"):
                return 200, json.dumps({"Perturbed-Caption": "ground truth caption"})
            return 200, json.dumps({"Answer": "No"})

        with FakeChatServer(router) as server:
            code = main(
                [
                    "forge",
                    "--images", str(images),
                    "--out", str(tmp_path / "x.jsonl"),
                    "--endpoint", server.endpoint,
                    "--api-key", "k",
                    "--granularity", "1",
                    "--max-iter", "1",
                    "--include-undetected",
                ]
            )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out == (
            "records: 1 (1 clean, 0 adversarial)\n"
            "G1: 1 records\n"
            "skipped (no adversarial record): 1\n"
        )
        assert captured.err == (
            f"note: {images / 'one.png'} g1: perturbation equals ground truth; omitted\n"
        )

    def test_a_run_whose_every_cell_fails_exits_2(self, tmp_path, capsys):
        images = tmp_path / "imgs"
        images.mkdir()
        (images / "one.png").write_bytes(TINY_PNG)
        fixtures = tmp_path / "fx"
        fixtures.mkdir()
        argv = ["forge", "--images", str(images), "--out", str(tmp_path / "x.jsonl"),
                "--replay", str(fixtures), "--granularity", "1"]
        assert main(argv) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == "records: 0 (0 clean, 0 adversarial)\n"
        assert captured.err.startswith(
            f"note: {images / 'one.png'} g1: AllCaptionersFailedError: captioner 0: "
        )

    def test_images_sharing_a_stem_exit_2_before_any_call(self, tmp_path, capsys):
        images = tmp_path / "imgs"
        images.mkdir()
        for name in ("cat.png", "cat.jpg"):
            (images / name).write_bytes(TINY_PNG)
        fixtures = tmp_path / "fx"
        fixtures.mkdir()
        out = tmp_path / "dataset.jsonl"
        argv = ["forge", "--images", str(images), "--out", str(out), "--replay", str(fixtures)]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == (
            f"error: images {str(images / 'cat.jpg')!r} and {str(images / 'cat.png')!r} "
            "would share record ids\n"
        )
        assert not out.exists()


class TestConfigResolution:
    def _rc(self, tmp_path, monkeypatch, flag=None, env=None, file_value=None):
        from contextlib import ExitStack

        from hmgie.cli import _configure, build_parser

        fixture_dir = tmp_path / "fx"
        fixture_dir.mkdir(exist_ok=True)
        argv = ["evaluate", "--caption", "c", "--image", "i", "--replay", str(fixture_dir)]
        if flag is not None:
            argv += ["--model", flag]
        if env is not None:
            monkeypatch.setenv("HMGIE_MODEL", env)
        if file_value is not None:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"model": file_value}), encoding="utf-8")
            argv += ["--config", str(config_path)]
        args = build_parser().parse_args(argv)
        with ExitStack() as stack:
            return _configure(args, stack)

    @pytest.mark.parametrize("flag", [None, "from-flag"])
    @pytest.mark.parametrize("env", [None, "from-env"])
    @pytest.mark.parametrize("file_value", [None, "from-file"])
    def test_precedence_exhaustive(self, tmp_path, monkeypatch, flag, env, file_value):
        # flags > env > file > default, over every presence combination
        expected = flag or env or file_value or "gpt-4o"
        config = self._rc(tmp_path, monkeypatch, flag, env, file_value)
        assert config.model_id == expected

    def test_invalid_max_level(self, tmp_path, capsys):
        fixture_dir = tmp_path / "fx"
        fixture_dir.mkdir()
        code = main(
            [
                "evaluate",
                "--caption", "c",
                "--image", "i",
                "--replay", str(fixture_dir),
                "--max-level", "0",
            ]
        )
        assert code == EXIT_USAGE
        assert "max_level" in capsys.readouterr().err

    def test_invalid_weight_ratio(self, tmp_path, capsys):
        fixture_dir = tmp_path / "fx"
        fixture_dir.mkdir()
        code = main(
            [
                "evaluate",
                "--caption", "c",
                "--image", "i",
                "--replay", str(fixture_dir),
                "--weight-ratio", "-1",
            ]
        )
        assert code == EXIT_USAGE
        assert "weight_ratio" in capsys.readouterr().err


# Every way the flags can fail to resolve into a run mode or a setting, with
# the exact stderr line. {fx} is an existing fixture directory, {missing} a
# directory that does not exist, and {latin1} a templates directory whose
# vqa.txt is not UTF-8.
EVAL = ["evaluate", "--caption", "c", "--image", "i"]
FORGE = ["forge", "--images", "{fx}", "--out", "{fx}/x.jsonl"]
ENDPOINT = ["--endpoint", "http://example.invalid"]
KEY = ["--api-key", "k"]
FX = ["--replay", "{fx}"]
CONFLICT = "--record and --replay are mutually exclusive"
NO_CACHE = "record mode needs --cache-dir or HMGIE_CACHE_DIR"
RUN_CONFIG_ERRORS = [
    (EVAL + ["--record"] + FX, CONFLICT),
    (FORGE + ["--record"] + FX, CONFLICT),
    (EVAL + ["--replay", "{missing}"], "replay dir does not exist: {missing}"),
    (FORGE + ["--replay", "{missing}"], "replay dir does not exist: {missing}"),
    (FORGE + ["--record"] + ENDPOINT + KEY, NO_CACHE),
    (EVAL + ENDPOINT + KEY + ["--record"], NO_CACHE),
    (EVAL + KEY, "no endpoint configured (--endpoint or HMGIE_ENDPOINT)"),
    (EVAL + ENDPOINT, "no API key configured (--api-key or HMGIE_API_KEY)"),
    (EVAL + FX + ["--temperature", "hot"], "temperature: expected a number, got 'hot'"),
    (EVAL + FX + ["--temperature", "-1"], "temperature must be finite and >= 0, got -1.0"),
    (EVAL + FX + ["--weight-ratio", "x"], "weight-ratio: expected a number, got 'x'"),
    (EVAL + FX + ["--weight-ratio", "0"], "weight_ratio must be finite and > 0, got 0.0"),
    (EVAL + FX + ["--max-level", "2.5"], "max-level: expected an integer, got '2.5'"),
    (FORGE + ENDPOINT + KEY + ["--max-iter", "0"], "max_iterations must be >= 1, got 0"),
    (
        EVAL + KEY + ["--endpoint", "http://h:abc"],
        "endpoint 'http://h:abc' is not a valid URL: "
        "Port could not be cast to integer value as 'abc'",
    ),
    (
        EVAL + KEY + ["--endpoint", "http://h:99999"],
        "endpoint 'http://h:99999' is not a valid URL: Port out of range 0-65535",
    ),
    (
        EVAL + KEY + ["--endpoint", "http://[::1"],
        "endpoint 'http://[::1' is not a valid URL: Invalid IPv6 URL",
    ),
    (EVAL + FX + ["--templates-dir", "{missing}"], "templates dir is not a directory: {missing}"),
    (
        EVAL + FX + ["--templates-dir", "{latin1}/vqa.txt"],
        "templates dir is not a directory: {latin1}/vqa.txt",
    ),
    (
        FORGE + ENDPOINT + KEY + ["--templates-dir", "{latin1}"],
        "cannot read template {latin1}/vqa.txt: "
        "'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte",
    ),
]


class TestRunConfigErrors:
    @pytest.mark.parametrize("argv, message", RUN_CONFIG_ERRORS)
    def test_exit_64_with_exact_message(self, tmp_path, capsys, argv, message):
        paths = {"fx": tmp_path, "missing": tmp_path / "missing", "latin1": tmp_path / "latin1"}
        paths["latin1"].mkdir()
        (paths["latin1"] / "vqa.txt").write_bytes("Caf\u00e9 {question}".encode("latin-1"))
        code = main([arg.format(**paths) for arg in argv])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message.format(**paths)}\n"

    @pytest.mark.parametrize(
        "proxy, message",
        [
            (
                "http://user:secret@p:abc",
                "https_proxy is not a valid URL: "
                "Port could not be cast to integer value as 'abc'\n",
            ),
            ("http://:3128", "https_proxy names no host\n"),
            # The rest quotes the idna codec, whose wording each Python changes.
            ("http://b\u00fc..example:3128", "https_proxy is not a valid URL: "),
        ],
    )
    def test_malformed_proxy_exits_64(self, capsys, monkeypatch, proxy, message):
        # The proxy URL may hold a password, so the message names its variable.
        for name in ("no_proxy", "NO_PROXY", "HTTPS_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("https_proxy", proxy)
        code = main(EVAL + KEY + ["--endpoint", "https://example.invalid"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"config error: {message}")


# Config-file values that name no setting or have the wrong type, with the
# exact stderr line, which names a file value by its key; all but the
# endpoint case run in replay mode.
CONFIG_FILE_ERRORS = [
    ({"max_levle": 2}, "config file {path}: unknown key 'max_levle'"),
    ({"max_level": True}, "max_level: expected an integer, got True"),
    ({"max_level": 2.5}, "max_level: expected an integer, got 2.5"),
    ({"temperature": False}, "temperature: expected a number, got False"),
    ({"weight_ratio": "nan"}, "weight_ratio: expected a number, got 'nan'"),
    ({"endpoint": 123, "api_key": "k"}, "endpoint: expected text, got 123"),
    ({"templates_dir": 7}, "templates_dir: expected text, got 7"),
    ([], "config file {path}: top level must be an object"),
]


@pytest.mark.parametrize("settings, message", CONFIG_FILE_ERRORS)
def test_config_file_value_refused_with_exit_64(tmp_path, capsys, settings, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(settings), encoding="utf-8")
    argv = EVAL + ["--config", str(path)]
    if "endpoint" not in settings:
        argv += ["--replay", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"max_level": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"model": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["integer-past-the-digit-limit", "not-utf-8"],
)
def test_config_file_that_json_cannot_read_exits_64(tmp_path, capsys, content, message):
    # json raises a plain ValueError for both, not a JSONDecodeError.
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(EVAL + ["--config", str(path), "--replay", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {path}: ") and message in err


COMMON_FLAGS = {
    "--api-key", "--cache-dir", "--config", "--endpoint", "--help", "--model",
    "--parallelism", "--record", "--replay", "--retry-limit", "--temperature",
    "--templates-dir",
}
EVAL_FLAGS = COMMON_FLAGS | {
    "--caption", "--dataset", "--image", "--json", "--max-level", "--max-per-level",
    "--out", "--per-granularity", "--weight-ratio",
}
HELP_FLAGS = {
    "evaluate": EVAL_FLAGS,
    "forge": COMMON_FLAGS | {
        "--captioner-model", "--detector", "--granularity", "--images",
        "--include-undetected", "--max-iter", "--out",
    },
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_each_subcommands_flags(capsys, command):
    assert main([command, "--help"]) == EXIT_OK
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == HELP_FLAGS[command]


def _library_defaults(command: str) -> dict:
    """Each default --help shows, as the library defines it."""
    if command == "evaluate":
        config = PipelineConfig
        shown = {
            "--max-level": config.max_level,
            "--max-per-level": config.max_questions_per_level,
            "--weight-ratio": config.weight_ratio,
        }
    else:
        config = ForgeConfig
        detector = {v: k for k, v in cli.DETECTORS.items()}[config.detector_template]
        shown = {"--max-iter": config.max_iterations, "--detector": detector}
    return {
        **shown,
        "--model": config.model_id,
        "--temperature": config.temperature,
        "--retry-limit": Gateway(None).attempts,
        "--parallelism": config.parallelism,
    }


@pytest.mark.parametrize("command", ["evaluate", "forge"])
def test_help_shows_the_library_defaults(capsys, command):
    assert main([command, "--help"]) == EXIT_OK
    options = " ".join(capsys.readouterr().out.split()).split(" options: ", 1)[1]
    shown = re.findall(r"(--[a-z-]+) \S+ (?:(?! --).)*?\(default ([^)]+)\)", options)
    expected = {flag: str(value) for flag, value in _library_defaults(command).items()}
    assert dict(shown) == expected


def _numeric_settings(command: str):
    """The numeric settings ``command`` passes on: those naming a parameter
    of its config or of its gateways."""
    config = ForgeConfig if command == "forge" else PipelineConfig
    names = {*inspect.signature(config).parameters, *inspect.signature(Gateway).parameters}
    return {
        key: setting.parameter or key
        for key, setting in cli.SETTINGS.items()
        if setting.kind is not str and (setting.parameter or key) in names
    }


def _out_of_range_cases():
    # Every numeric setting, also for forge where forge does not use it.
    numeric = [key for key, setting in cli.SETTINGS.items() if setting.kind is not str]
    for command in ("evaluate", "forge"):
        for key in numeric:
            routes = ["file"]
            if "--" + key.replace("_", "-") in HELP_FLAGS[command]:
                routes.append("flag")
            if cli.SETTINGS[key].env:
                routes.append("env")
            for route in routes:
                yield pytest.param(command, key, route, id=f"{command}-{key}-{route}")


@pytest.mark.parametrize("command, key, route", list(_out_of_range_cases()))
def test_setting_out_of_range_exits_64_before_any_model_call(
    tmp_path, capsys, monkeypatch, command, key, route
):
    # -1 is below the bound of every numeric setting.
    calls = []
    monkeypatch.setattr(
        HttpBackend, "complete", lambda backend, request: calls.append(request) or "reply"
    )
    (tmp_path / "img.png").write_bytes(TINY_PNG)
    if command == "forge":
        argv = ["forge", "--images", str(tmp_path), "--out", str(tmp_path / "x.jsonl")]
    else:
        argv = ["evaluate", "--image", str(tmp_path / "img.png"), "--caption", CAPTION]
    argv += ENDPOINT + KEY
    if route == "flag":
        argv += ["--" + key.replace("_", "-"), "-1"]
    elif route == "env":
        monkeypatch.setenv(f"HMGIE_{key.upper()}", "-1")
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: -1}), encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert re.fullmatch(r"config error: \w+ must be [^\n]*, got -1(\.0)?\n", err)
    assert calls == []


# Settings the CLI uses itself rather than passing on to the library.
DEPLOYMENT_SETTINGS = {"endpoint", "api_key", "cache_dir", "templates_dir"}


def test_every_setting_names_a_library_parameter():
    names = set()
    for target in (PipelineConfig, ForgeConfig, Gateway):
        names |= set(inspect.signature(target).parameters)
    for key, setting in cli.SETTINGS.items():
        assert key in DEPLOYMENT_SETTINGS or (setting.parameter or key) in names, key


@pytest.mark.parametrize("command", ["evaluate", "forge"])
def test_each_numeric_setting_arrives_where_it_is_named(tmp_path, command):
    settings = _numeric_settings(command)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict.fromkeys(settings, 2)), encoding="utf-8")
    if command == "forge":
        argv = ["forge", "--images", str(tmp_path), "--out", str(tmp_path / "x.jsonl")]
    else:
        argv = ["evaluate", "--image", "i", "--caption", "c"]
    args = cli.build_parser().parse_args(argv + ["--replay", str(tmp_path), "--config", str(path)])
    with ExitStack() as stack:
        config = cli._configure(args, stack)
    gateway = config.bindings.perturb if command == "forge" else config.backends.vqa
    for key, name in settings.items():
        assert getattr(config if hasattr(config, name) else gateway, name) == 2, key


@pytest.mark.parametrize(
    "flag, template",
    [
        (["--detector", "dp"], TemplateName.DIRECT_PROMPT),
        (["--detector", "cot"], TemplateName.COT_PROMPT),
    ],
)
def test_forge_detector_flag_picks_its_template(tmp_path, flag, template):
    argv = ["forge", "--images", str(tmp_path), "--out", str(tmp_path / "x.jsonl"),
            "--replay", str(tmp_path), *flag]
    with ExitStack() as stack:
        config = cli._configure(cli.build_parser().parse_args(argv), stack)
    assert config.detector_template is template


def test_every_readme_command_parses():
    """Each `hmgie …` line in README.md's code blocks is one the parser takes,
    so the docs show no spelling the CLI has dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("hmgie ")]
    assert len(commands) >= 4
    for command in commands:
        try:
            cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
