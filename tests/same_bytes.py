#!/usr/bin/env python3
"""One digest of the bytes the quick live-record and forge-live runs write.

Records the quick ``live-record`` dataset with ``hmgie evaluate --record``
and forges the quick ``forge-live`` images with ``hmgie forge --record`` and
a three-model captioner ensemble, both through ``hmgie.cli.main`` and each
against a fresh ``bench/stub.py`` process. The runs take place in a
temporary directory with relative paths, since the forge JSONL carries
them. The script prints one SHA-256 over every report, ``summary.json`` and
the forge JSONL, so two interpreters can be checked for the same bytes
without pytest:

    python3.10 tests/same_bytes.py
    python3.11 tests/same_bytes.py

Stdlib only; tier-1 does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import scenario  # noqa: E402

from hmgie.cli import main as hmgie  # noqa: E402

SEED = 5


@contextlib.contextmanager
def stub(workload: str):
    """A fresh stub for the quick ``workload``; yields its endpoint."""
    process = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "stub.py"), workload, str(SEED), "--quick"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = process.stdout.readline().strip()
        if not port.isdigit():
            raise SystemExit(f"bench/stub.py {workload} did not start")
        yield f"http://127.0.0.1:{port}"
    finally:
        process.terminate()
        process.wait(timeout=10)
        process.stdout.close()


def write_images(workload: scenario.Workload, directory: str) -> dict[int, str]:
    os.mkdir(directory)
    for image in workload.images:
        Path(directory, image.name).write_bytes(scenario.image_bytes(image, SEED))
    return {image.image_id: f"{directory}/{image.name}" for image in workload.images}


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        hmgie(argv)


def live_record() -> None:
    workload = scenario.build("live-record", SEED, quick=True)
    paths = write_images(workload, "images")
    with open("dataset.jsonl", "w", encoding="utf-8") as handle:
        for pair in workload.pairs:
            row = {
                "id": f"p{pair.pid:04d}",
                "image_path": paths[pair.image_id],
                "caption": pair.caption,
                "label": pair.label,
                "granularity": pair.granularity,
            }
            handle.write(json.dumps(row) + "\n")
    with stub("live-record") as endpoint:
        run(["evaluate", "--record", "--dataset", "dataset.jsonl", "--endpoint", endpoint,
             "--api-key", "k", "--cache-dir", "rec", "--out", "out"])


def forge_live() -> None:
    workload = scenario.build("forge-live", SEED, quick=True)
    write_images(workload, "forge-images")
    argv = ["forge", "--images", "forge-images", "--include-undetected"]
    for model in scenario.CAPTIONER_MODELS:
        argv += ["--captioner-model", model]
    with stub("forge-live") as endpoint:
        run([*argv, "--out", "forge.jsonl", "--record", "--endpoint", endpoint,
             "--api-key", "k", "--cache-dir", "forge-rec"])


def main() -> None:
    for key in [key for key in os.environ if key.startswith("HMGIE_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory(prefix="hmgie-same-bytes-") as work:
        os.chdir(work)
        live_record()
        forge_live()
        outputs = sorted(Path("out").iterdir()) + [Path("forge.jsonl")]
        digest = hashlib.sha256()
        for path in outputs:
            digest.update(b"%s %d\n" % (path.as_posix().encode(), path.stat().st_size))
            digest.update(path.read_bytes())
        os.chdir(ROOT)
    print(f"{digest.hexdigest()}  {len(outputs)} files")


if __name__ == "__main__":
    main()
