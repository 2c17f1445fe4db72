"""The benchmark's planted end-to-end runs, pinned byte for byte.

The quick ``live-record`` and ``forge-live`` workloads of ``bench/`` are
served by ``bench/stub.py`` in-process, with no injected latency, and driven
through ``cli.main``: ``record --dataset`` then ``replay``, and
``forge --record`` with a three-model captioner ensemble then
``forge --replay``. One more replay runs over a log missing one line, so one
``summary.json`` row names a ``FixtureMissingError``.

Together the runs reach depths 1 to 5, a graph reply retried under its
attempt-2 key (rejected for good at ``--retry-limit 1``), first questions
shared between pairs and served from the cache, fenced and prose-wrapped
replies, vision requests over several images, and every forge role.

PINNED holds the first 16 hex digits of the SHA-256 of each output: each
report file, ``summary.json``, stdout, the sorted recorded keys and the
forge JSONL. The digests were computed at commit ``fdc4e3d`` before any
source edit. A change that means to alter one of these outputs re-pins it
in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import scenario  # noqa: E402
import stub  # noqa: E402

from hmgie.cli import main  # noqa: E402

SEED = 5


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(autouse=True)
def planted(tmp_path, monkeypatch):
    """Run in ``tmp_path`` with relative paths (the forge JSONL carries
    them), no injected stub latency and no HMGIE_* settings."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(scenario, "LATENCY_MS", dict.fromkeys(scenario.LATENCY_MS, 0))
    for key in [key for key in os.environ if key.startswith("HMGIE_")]:
        monkeypatch.delenv(key)


@contextmanager
def serving(workload: scenario.Workload):
    """A fresh stub for ``workload``, so every run meets the retry fault anew."""
    server = stub.serve(stub.Stub(workload))
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def write_images(workload: scenario.Workload, directory: Path) -> None:
    directory.mkdir()
    for image in workload.images:
        (directory / image.name).write_bytes(scenario.image_bytes(image, SEED))


def recorded_keys(directory: Path) -> str:
    lines = (directory / "replies.jsonl").read_text(encoding="ascii").splitlines()
    return digest("\n".join(sorted(json.loads(line)[0] for line in lines)).encode("ascii"))


def run(capsys, argv: list[str]) -> tuple[int, str]:
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().out


def outputs(code: int, stdout: str, out_dir: Path) -> dict:
    found = {name.name: digest(name.read_bytes()) for name in sorted(out_dir.iterdir())}
    return {"exit": code, "stdout": digest(stdout.encode("utf-8")), **found}


def live_record(capsys, options: list[str]) -> dict:
    """Record the quick live-record workload, replay it twice (once from a log
    missing its line of least key) and return every digest by run."""
    workload = scenario.build("live-record", SEED, quick=True)
    write_images(workload, Path("images"))
    names = {image.image_id: image.name for image in workload.images}
    with open("dataset.jsonl", "w", encoding="utf-8") as handle:
        for pair in workload.pairs:
            line = {
                "id": f"p{pair.pid:04d}",
                "image_path": f"images/{names[pair.image_id]}",
                "caption": pair.caption,
                "label": pair.label,
                "granularity": pair.granularity,
            }
            handle.write(json.dumps(line) + "\n")
    dataset = ["--dataset", "dataset.jsonl", *options]
    with serving(workload) as endpoint:
        record = run(capsys, [
            "evaluate", "--record", *dataset, "--endpoint", endpoint, "--api-key", "k",
            "--cache-dir", "rec", "--out", "out-record",
        ])
    replay = run(capsys, ["evaluate", *dataset, "--replay", "rec", "--out", "out-replay"])

    log = Path("rec/replies.jsonl").read_text(encoding="ascii").splitlines(keepends=True)
    least = min(log, key=lambda line: json.loads(line)[0])
    Path("rec-missing").mkdir()
    Path("rec-missing/replies.jsonl").write_text(
        "".join(line for line in log if line != least), encoding="ascii"
    )
    missing = run(capsys, ["evaluate", *dataset, "--replay", "rec-missing", "--out", "out-missing"])
    return {
        "keys": recorded_keys(Path("rec")),
        "record": outputs(*record, Path("out-record")),
        "replay": outputs(*replay, Path("out-replay")),
        "missing": outputs(*missing, Path("out-missing")),
    }


def forge_live(capsys, options: list[str]) -> dict:
    """Forge the quick forge-live workload live, then replay it."""
    workload = scenario.build("forge-live", SEED, quick=True)
    write_images(workload, Path("forge-images"))
    forge = ["forge", "--images", "forge-images", "--include-undetected", *options]
    for model in scenario.CAPTIONER_MODELS:
        forge += ["--captioner-model", model]
    with serving(workload) as endpoint:
        code, stdout = run(capsys, [
            *forge, "--out", "forge-record.jsonl", "--record", "--endpoint", endpoint,
            "--api-key", "k", "--cache-dir", "forge-rec",
        ])
    record = {"exit": code, "stdout": digest(stdout.encode("utf-8"))}
    code, stdout = run(capsys, [*forge, "--out", "forge-replay.jsonl", "--replay", "forge-rec"])
    replay = {"exit": code, "stdout": digest(stdout.encode("utf-8"))}
    return {
        "keys": recorded_keys(Path("forge-rec")),
        "record": {**record, "jsonl": digest(Path("forge-record.jsonl").read_bytes())},
        "replay": {**replay, "jsonl": digest(Path("forge-replay.jsonl").read_bytes())},
    }


# Forge parses no reply it could retry, so --retry-limit 1 leaves it as is.
FORGE = {
    "keys": "876ca870f18974bf",
    "record": {"exit": 0, "stdout": "9e84a535003d6dc1", "jsonl": "cd2d7d5ea731d9c1"},
}
PINNED = {
    ("live-record", "default"): {
        "keys": "8f043613444e7839",
        "record": {
            "exit": 0,
            "stdout": "b697d0e9b03eed5b",
            "p0000.report.json": "0266f45a1d752031",
            "p0001.report.json": "9e10e51d5b274d73",
            "p0002.report.json": "784979f170af3d5b",
            "p0003.report.json": "5c55573a38af83e4",
            "p9999.report.json": "6a61ad0c255e8dda",
            "summary.json": "ce8b40dd9291fd54",
        },
        "missing": {
            "exit": 2,
            "stdout": "81ae00c59bf441e0",
            "p0001.report.json": "9e10e51d5b274d73",
            "p0002.report.json": "784979f170af3d5b",
            "p0003.report.json": "5c55573a38af83e4",
            "p9999.report.json": "6a61ad0c255e8dda",
            "summary.json": "63b3d78da3e47fc5",
        },
    },
    # The retry-fault item p9999 fails with GraphGenFailedError.
    ("live-record", "1"): {
        "keys": "1718fbd61627f6a2",
        "record": {
            "exit": 2,
            "stdout": "e38b9c1e5f21410c",
            "p0000.report.json": "0266f45a1d752031",
            "p0001.report.json": "9e10e51d5b274d73",
            "p0002.report.json": "784979f170af3d5b",
            "p0003.report.json": "5c55573a38af83e4",
            "summary.json": "62f05802aa7bcfd4",
        },
        "missing": {
            "exit": 2,
            "stdout": "1dfeee915fc7db13",
            "p0001.report.json": "9e10e51d5b274d73",
            "p0002.report.json": "784979f170af3d5b",
            "p0003.report.json": "5c55573a38af83e4",
            "summary.json": "54278ea61e7c37d6",
        },
    },
    ("forge-live", "default"): FORGE,
    ("forge-live", "1"): FORGE,
}


@pytest.mark.parametrize("parallelism", ["1", "2"])
@pytest.mark.parametrize("retries", ["default", "1"])
@pytest.mark.parametrize("workload", ["live-record", "forge-live"])
def test_planted_run_outputs_are_pinned(capsys, workload, retries, parallelism):
    options = ["--parallelism", parallelism]
    if retries != "default":
        options += ["--retry-limit", retries]
    runner = live_record if workload == "live-record" else forge_live
    found = runner(capsys, options)
    assert found.pop("replay") == found["record"]
    assert found == PINNED[(workload, retries)]


def test_a_missing_reply_fails_only_the_items_that_need_it(capsys):
    live_record(capsys, [])
    rows = json.loads(Path("out-missing/summary.json").read_text(encoding="utf-8"))["results"]
    failed = {row["id"]: row["error"] for row in rows if row["error"] is not None}
    assert list(failed) == ["p0000"]
    assert failed["p0000"].startswith("FixtureMissingError: no fixture recorded for request key ")
    retried = json.loads(Path("out-record/p9999.report.json").read_text(encoding="utf-8"))
    assert retried["diagnostics"][0].startswith("graph-gen attempt 1 unparseable: ")
