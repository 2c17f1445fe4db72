"""Benchmark of hmgie: replay, live record over a latency stub, and forge.

Runs one workload (or all four) against the package in ../src and prints
every metric by name with its unit; the last line of output is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 1 a
separate traced run reports the per-layer metrics instead of the end-to-end
ones. Results also go to .bench_out/BENCH_<workload>.json. See README.md.

    python3 bench/run.py --workload replay-deep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --quick          # every workload, a few items each
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenario

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ITEMS = 100
SETUP_PROBES = 3
TOLERANCE = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
    "model_calls_per_item": "count",
    "prompt_kb_per_item": "KB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from the suffix of its name."""
    for suffix, unit in (("_s", "s"), ("ms", "ms"), ("ms_per_item", "ms"), ("kb_per_item", "KB")):
        if name.endswith(suffix):
            return unit
    return "count"


def python_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class PlantedBackend:
    """In-process model that serves the planted replies (used to record)."""

    name = "planted"
    supports_vision = True

    def __init__(self, responder: scenario.Responder):
        self.responder = responder

    def complete(self, request) -> str:
        head = (request.image_payload or b"")[:32]
        return self.responder.reply(request.prompt, head, request.model_id)[1]


def record_fixtures(hm, workload: scenario.Workload, spec: dict) -> dict[int, str]:
    """Record the replay fixtures in record mode; return each report's digest."""
    gateway = hm.Gateway(
        PlantedBackend(scenario.Responder(workload)), cache_dir=spec["fixtures"], record=True
    )
    config = hm.PipelineConfig(
        backends=hm.RoleBindings.uniform(gateway), intra_level_parallelism=1
    )
    digests = {}
    for index, pair in enumerate(workload.pairs):
        item = hm.DatasetItem(
            id=f"p{pair.pid:04d}",
            image_path=spec["images"][str(pair.image_id)],
            caption=pair.caption,
            label=pair.label,
            granularity=pair.granularity,
        )
        result = hm.evaluate_batch([item], config).results[0]
        if result.report is None:
            raise RuntimeError(f"recording {item.id} failed: {result.error}")
        digests[index] = hashlib.sha256(result.report.to_json().encode("utf-8")).hexdigest()
    return digests


def start_stub(name: str, seed: int, quick: bool) -> tuple[subprocess.Popen, str]:
    command = [sys.executable, str(ROOT / "bench" / "stub.py"), name, str(seed)]
    if quick:
        command.append("--quick")
    stub = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=python_env())
    port = stub.stdout.readline().strip()
    if not port.isdigit():
        stop(stub)
        raise RuntimeError("the stub did not start")
    return stub, f"http://127.0.0.1:{port}"


def stop(process: subprocess.Popen | None) -> None:
    if process is None:
        return
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def probe_setup(spec_path: Path) -> dict:
    """Fresh interpreter until the config is ready: import, templates, gateways."""
    started = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--probe", str(spec_path)],
        stdout=subprocess.PIPE,
        text=True,
        env=python_env(),
    )
    line = probe.stdout.readline()
    setup_s = time.perf_counter() - started
    probe.stdout.close()
    if probe.wait(timeout=60) != 0 or not line:
        raise RuntimeError("the set-up probe failed")
    return dict(json.loads(line), setup_s=setup_s)


def cli_help_s() -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "hmgie.cli", "--help"],
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=60,
        env=python_env(),
        cwd=ROOT,
    )
    return time.perf_counter() - started


class Checks:
    """Compares the program's outputs with values computed apart from it."""

    def __init__(self, workload: scenario.Workload, record_digests: dict[int, str] | None):
        self.workload = workload
        self.record_digests = record_digests
        self.first_digests: dict[int, str] = {}
        self.errors: list[str] = []
        self.failures: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.fail(f"{what}: got {got!r}, expected {want!r}")

    def close(self, what: str, got: float, want: float) -> None:
        if abs(got - want) > TOLERANCE:
            self.fail(f"{what}: got {got!r}, expected {want!r}")

    def round(self, data: dict) -> None:
        if data["unplanted"]:
            self.fail(f"the stub got {data['unplanted']} requests it had no reply for")
        outcomes = {int(i): o for i, o in data["outcomes"].items()}
        self.expect("items in round", sorted(outcomes), list(range(len(self.workload.items))))
        for index, outcome in outcomes.items():
            self.attempted += 1
            if "error" in outcome:
                self.failed += 1
                kind = outcome["error"]
                self.failures[kind] = self.failures.get(kind, 0) + 1
                item = self.workload.items[index]
                if not (getattr(item, "fault", False) and kind == "GraphGenFailedError"):
                    self.fail(f"item {index} failed: {outcome['message']}")
            elif self.workload.mode == "forge":
                self.cell(index, outcome)
            else:
                self.pair(index, outcome)
        if self.workload.mode != "forge":
            self.detection(outcomes, data["detection"])

    def pair(self, index: int, o: dict) -> None:
        pair = self.workload.pairs[index]
        name = f"p{pair.pid:04d}"
        h_acc, h_comp = scenario.expected_scores(pair, max_level=5)
        self.expect(f"{name} decision", o["decision"], pair.decision)
        self.expect(f"{name} depth", o["depth"], len(pair.levels))
        self.expect(f"{name} questions per level", o["counts"], pair.counts)
        self.close(f"{name} H_acc", o["h_acc"], h_acc)
        self.close(f"{name} H_comp", o["h_comp"], h_comp)
        self.expect(
            f"{name} item metrics",
            o["confusion"],
            scenario.confusion([(1 - pair.decision, pair.label)]),
        )
        if self.record_digests is not None:
            self.expect(
                f"{name} replayed report vs recorded", o["digest"], self.record_digests[index]
            )
        else:
            self.expect(
                f"{name} report vs its first round",
                o["digest"],
                self.first_digests.setdefault(index, o["digest"]),
            )

    def detection(self, outcomes: dict, got: dict | None) -> None:
        done = [i for i, o in sorted(outcomes.items()) if "error" not in o]
        pairs = [self.workload.pairs[i] for i in done]
        if not pairs:
            return
        outcome_bits = [(1 - p.decision, p.label) for p in pairs]
        want = scenario.confusion(outcome_bits)
        self.expect("round confusion", got["confusion"], want)
        for key, value in scenario.rates(want).items():
            if value is None or got[key] is None:
                self.expect(f"round {key}", got[key], value)
            else:
                self.close(f"round {key}", got[key], value)
        for g in sorted({p.granularity for p in pairs}):
            bits = [b for b, p in zip(outcome_bits, pairs) if p.granularity == g]
            self.expect(
                f"round G{g} confusion",
                got["per_granularity"][str(g)]["confusion"],
                scenario.confusion(bits),
            )

    def cell(self, index: int, o: dict) -> None:
        cell = self.workload.cells[index]
        name = f"cell i{cell.image_id:04d} g{cell.granularity}"
        self.expect(f"{name} errors", o["errors"], [])
        records = o["records"]
        self.expect(f"{name} labels", [r["label"] for r in records], [0, 1])
        if len(records) != 2:
            return
        clean, adversarial = records
        self.expect(f"{name} clean caption", clean["caption"], cell.truth)
        self.expect(f"{name} clean status", clean["status"], "Clean")
        status = "AdversarialFound" if cell.evade_at is not None else "MaxIterReached"
        self.expect(f"{name} status", adversarial["status"], status)
        self.expect(f"{name} ground truth", adversarial["ground_truth"], cell.truth)
        self.expect(
            f"{name} history", adversarial["history"], cell.variants[: cell.iterations]
        )
        self.expect(f"{name} caption", adversarial["caption"], cell.variants[cell.iterations - 1])
        if adversarial["caption"] == cell.truth:
            self.fail(f"{name}: the adversarial caption equals the ground truth")


def end_to_end(result: dict, completed: int, setup: list[dict]) -> dict[str, float]:
    rounds = result["rounds"]
    latencies = [
        o["latency_ms"]
        for r in rounds
        for o in r["outcomes"].values()
        if "error" not in o
    ]
    per = max(completed, 1)
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "items_per_s": completed / sum(r["wall_s"] for r in rounds),
        "item_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "item_p90_ms": deciles[8] if latencies else 0.0,
        "cpu_ms_per_item": sum(r["cpu_s"] for r in rounds) * 1000 / per,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "model_calls_per_item": sum(r["calls"] for r in rounds) / per,
        "prompt_kb_per_item": sum(r["prompt_bytes"] for r in rounds) / 1024 / per,
    }


def load_program():
    """Import hmgie from the checkout's src, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hmgie

    if not Path(hmgie.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hmgie imported from {hmgie.__file__}, not from {SRC}")
    return hmgie


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "images").mkdir(parents=True)
    workload = scenario.build(name, seed, quick)
    images = {}
    for image in workload.images:
        path = work / "images" / image.name
        path.write_bytes(scenario.image_bytes(image, seed))
        images[str(image.image_id)] = str(path)
    spec = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "trace": trace,
        "min_items": 1 if quick else MIN_ITEMS,
        "mode": workload.mode,
        "intra_level_parallelism": workload.intra_level_parallelism,
        "captioner_models": list(scenario.CAPTIONER_MODELS),
        "src": str(SRC),
        "work": str(work),
        "images": images,
        "fixtures": str(work / "fixtures"),
        "probe_cache": str(work / "probe-cache"),
        "result_path": str(work / "result.json"),
        "trace_path": str(OUT / f"trace_{name}.jsonl"),
    }
    spec_path = work / "spec.json"
    record_digests = None
    stub = None
    try:
        if workload.mode == "replay":
            record_digests = record_fixtures(load_program(), workload, spec)
        else:
            stub, spec["endpoint"] = start_stub(name, seed, quick)
        spec_path.write_text(json.dumps(spec))
        setup = [probe_setup(spec_path) for _ in range(1 if quick else SETUP_PROBES)]
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), str(spec_path)],
            check=True,
            timeout=seconds + 120,
            env=python_env(),
        )
        result = json.loads(Path(spec["result_path"]).read_text())
        layers_setup = {}
        if trace:
            layers_setup = {
                "setup.import_s": statistics.median(p["import_s"] for p in setup),
                "setup.cli_help_s": statistics.median(cli_help_s() for _ in setup[:3]),
                "setup.templates_ms": statistics.median(p["templates_ms"] for p in setup),
            }
    finally:
        stop(stub)

    checks = Checks(workload, record_digests)
    for data in result["rounds"]:
        checks.round(data)
    completed = checks.attempted - checks.failed
    e2e = end_to_end(result, completed, setup)
    if trace:
        chosen = dict(layers_setup, **result["layers"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in chosen.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    summary = {
        "correct": not checks.errors,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "rounds": len(result["rounds"]),
        "failures_by_type": checks.failures,
        "untraced_layers": result["missing_layers"],
        "check_errors": checks.errors,
        "end_to_end": e2e,
        "result": summary,
    }
    suffix = "-traced" if trace else ""
    (OUT / f"BENCH_{name}{suffix}.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *scenario.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one small round per workload")
    args = parser.parse_args(argv)
    if not (SRC / "hmgie" / "__init__.py").is_file():
        print(f"error: the hmgie package is not at {SRC / 'hmgie'}", file=sys.stderr)
        return 2
    names = list(scenario.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
        reports.append(report)
        result = report["result"]
        print(
            f"{name}: attempted {result['attempted']}, failed {result['failed']} "
            f"{report['failures_by_type'] or ''}, correct {result['correct']}"
        )
        for error in report["check_errors"]:
            print(f"  check failed: {error}")
        if report["untraced_layers"]:
            print(f"  not found, so not traced: {', '.join(report['untraced_layers'])}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.4f} {entry['unit']}")
    if len(reports) == 1:
        final = reports[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {
                f"{r['workload']}.{k}": v
                for r in reports
                for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
