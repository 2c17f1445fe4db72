"""ImageFiles, the one reader of image files: an unchanged file is hashed
once per config, a changed or fresh one every time it is read."""

import ast
import hashlib
import json
import os
import types
from dataclasses import replace
from pathlib import Path

import pytest

import hmgie
from helpers import (
    TINY_PNG,
    count_payload_hashes,
    dynamic_config,
    fuzz_responder,
    move_gateway_clock,
)
from hmgie import gateway as gateway_module
from hmgie.gateway import ImageFiles, ImageRef
from hmgie.pipeline import DatasetItem, evaluate_batch
from hmgie.prompts import load_templates

TEMPLATES = load_templates()
# TINY_PNG with one byte of its last chunk's CRC flipped: the same size, still a PNG.
OTHER_PNG = TINY_PNG[:-1] + bytes([TINY_PNG[-1] ^ 1])


def _respond(request):
    """fuzz_responder's replies, with a VQA answer that names the image, so
    a report tells the image it was made from."""
    if request.image is not None:
        return json.dumps({"Answer": request.image.digest[:12], "Confidence": 1.0})
    return _FUZZ(request)


_FUZZ = fuzz_responder(7)


def _config(**overrides):
    return dynamic_config(_respond, templates=TEMPLATES, max_level=2, **overrides)


def _reports(batch) -> list[str]:
    assert batch.failed == 0, [result.error for result in batch.results]
    return [result.report.to_json() for result in batch.results]


def _write(path: Path, payload: bytes) -> str:
    path.write_bytes(payload)
    return str(path)


class TestReader:
    def test_a_settled_file_is_hashed_once_and_read_each_time(self, tmp_path, monkeypatch):
        path = _write(tmp_path / "a.png", TINY_PNG)
        move_gateway_clock(monkeypatch, 3600)
        passes = count_payload_hashes(monkeypatch, TINY_PNG)
        files = ImageFiles()
        refs = [files.read(path) for _ in range(3)]
        assert len(passes) == 1
        assert {ref.digest for ref in refs} == {hashlib.sha256(TINY_PNG).hexdigest()}
        assert all(ref.payload == TINY_PNG and ref == ImageRef(TINY_PNG) for ref in refs)

    @pytest.mark.parametrize("after, hashes", [(0.0, 3), (1.9, 3), (2.1, 1)])
    def test_a_file_changed_within_two_seconds_of_the_read_is_not_kept(
        self, tmp_path, monkeypatch, after, hashes
    ):
        path = _write(tmp_path / "a.png", TINY_PNG)
        stat = os.stat(path)
        changed = max(stat.st_mtime_ns, stat.st_ctime_ns)
        clock = types.SimpleNamespace(time_ns=lambda: changed + round(after * 1e9))
        monkeypatch.setattr(gateway_module, "time", clock)
        passes = count_payload_hashes(monkeypatch, TINY_PNG)
        files = ImageFiles()
        for _ in range(3):
            files.read(path)
        assert len(passes) == hashes

    def test_a_rewrite_that_keeps_size_and_mtime_still_gets_its_new_digest(
        self, tmp_path, monkeypatch
    ):
        path = _write(tmp_path / "a.png", TINY_PNG)
        stat = os.stat(path)
        move_gateway_clock(monkeypatch, 3600)
        files = ImageFiles()
        assert files.read(path).digest == ImageRef(TINY_PNG).digest
        # The same size and the old mtime put back: only the ctime moves.
        _write(Path(path), OTHER_PNG)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert files.read(path).digest == ImageRef(OTHER_PNG).digest

    def test_past_the_bound_the_oldest_digest_is_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gateway_module, "MAX_IMAGE_DIGESTS", 2)
        payloads = [TINY_PNG + bytes([index]) for index in range(3)]
        paths = [_write(tmp_path / f"{index}.png", p) for index, p in enumerate(payloads)]
        move_gateway_clock(monkeypatch, 3600)
        passes = count_payload_hashes(monkeypatch, *payloads)
        files = ImageFiles()
        for path in [*paths, paths[2], paths[1], paths[0]]:
            files.read(path)
        assert passes == [*payloads, payloads[0]]

    def test_a_missing_file_raises_as_reading_it_does(self, tmp_path):
        path = tmp_path / "sub//missing.png"
        with pytest.raises(FileNotFoundError) as raised:
            ImageFiles().read(str(path))
        with pytest.raises(FileNotFoundError) as expected:
            Path(path).read_bytes()
        assert str(raised.value) == str(expected.value)


class TestConfigsOwnOne:
    def test_two_batches_on_one_config_hash_a_settled_file_once(self, tmp_path, monkeypatch):
        path = _write(tmp_path / "a.png", TINY_PNG)
        move_gateway_clock(monkeypatch, 3600)
        config = _config()
        passes = count_payload_hashes(monkeypatch, TINY_PNG)
        for caption in ("A brown dog lies on a sofa.", "A cat sits on a mat."):
            evaluate_batch([DatasetItem(id=caption, image_path=path, caption=caption)], config)
        assert len(passes) == 1

    def test_replace_starts_a_fresh_table_and_the_reader_is_no_option(self):
        config = _config()
        copy = replace(config, max_level=2)
        assert copy == config
        assert copy.image_files is not config.image_files
        assert "image_files" not in repr(config)
        with pytest.raises(ValueError, match="init=False"):
            replace(config, image_files=ImageFiles())

    def test_a_same_size_rewrite_with_a_new_mtime_gets_the_fresh_config_report(
        self, tmp_path, monkeypatch
    ):
        path = _write(tmp_path / "a.png", TINY_PNG)
        move_gateway_clock(monkeypatch, 3600)
        config = _config()
        item = DatasetItem(id="a", image_path=path, caption="A brown dog lies on a sofa.")
        before = _reports(evaluate_batch([item], config))
        stat = os.stat(path)
        _write(Path(path), OTHER_PNG)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        after = _reports(evaluate_batch([item], config))
        assert after == _reports(evaluate_batch([item], _config()))
        assert after != before

    def test_parallel_items_naming_two_files_write_the_serial_reports(
        self, tmp_path, monkeypatch
    ):
        paths = [_write(tmp_path / "a.png", TINY_PNG), _write(tmp_path / "b.png", OTHER_PNG)]
        move_gateway_clock(monkeypatch, 3600)
        items = [
            DatasetItem(id=str(index), image_path=paths[index % 2], caption=f"caption {index // 2}")
            for index in range(8)
        ]
        serial = _reports(evaluate_batch(items, _config(parallelism=1)))
        assert _reports(evaluate_batch(items, _config(parallelism=4))) == serial
        assert len(set(serial)) == 8


def _reads_a_file_outside_the_reader(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that call ``.read_bytes()`` or build an
    ``ImageRef(...)``, outside ImageFiles."""
    inside = {
        id(node)
        for reader in ast.walk(tree)
        if isinstance(reader, ast.ClassDef) and reader.name == "ImageFiles"
        for node in ast.walk(reader)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "read_bytes") or (
                isinstance(func, ast.Name) and func.id == "ImageRef"
            ):
                lines.append(node.lineno)
    return lines


def test_only_image_files_reads_an_image_file():
    """Every image file the package reads goes through ImageFiles.read, so
    no ``read_bytes()`` and no ``ImageRef(...)`` appears anywhere else."""
    package = Path(hmgie.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _reads_a_file_outside_the_reader(ast.parse(path.read_text("utf-8"))))
    }
    assert found == {}


def test_the_guard_sees_a_file_read_outside_the_reader():
    source = (
        "def load(path):\n"
        "    return ImageRef(Path(path).read_bytes())\n"
        "class ImageFiles:\n"
        "    def read(self, path):\n"
        "        return ImageRef(Path(path).read_bytes())\n"
    )
    assert _reads_a_file_outside_the_reader(ast.parse(source)) == [2, 2]
