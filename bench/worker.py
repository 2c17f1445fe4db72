"""The program's process: builds hmgie's config and drives the timed rounds.

Run by run.py in a fresh interpreter so that the CPU time and peak memory it
reports belong to the program alone, not to the benchmark's set-up or to the
stub. ``--probe`` only builds the config and reports the set-up timings.

    python3 bench/worker.py --probe SPEC.json
    python3 bench/worker.py SPEC.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import shutil
import sys
import threading
import time
import urllib.request
from pathlib import Path


def import_program(src: str):
    sys.path.insert(0, src)
    started = time.perf_counter()
    import hmgie

    import_s = time.perf_counter() - started
    if not Path(hmgie.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"hmgie imported from {hmgie.__file__}, not from {src}")
    return hmgie, import_s


def pipeline_config(hm, spec: dict, templates, cache_dir=None):
    """The config `hmgie replay` / `hmgie record` would build for the run."""
    if spec["mode"] == "replay":
        gateway = hm.Gateway(hm.ScriptedBackend(fixture_dir=spec["fixtures"]))
    else:
        gateway = hm.Gateway(
            hm.HttpBackend(endpoint=spec["endpoint"], api_key="bench-key"),
            cache_dir=cache_dir,
            record=True,
        )
    options = {}
    if spec["intra_level_parallelism"] is not None:
        options["intra_level_parallelism"] = spec["intra_level_parallelism"]
    return hm.PipelineConfig(
        backends=hm.RoleBindings.uniform(gateway), templates=templates, **options
    )


def forge_config(hm, spec: dict, templates):
    """The config `hmgie forge` would build for an ensemble of captioners."""
    gateway = hm.Gateway(hm.HttpBackend(endpoint=spec["endpoint"], api_key="bench-key"))
    models = tuple(spec["captioner_models"])
    bindings = hm.ForgeBindings(
        captioners=(gateway,) * len(models), fusion=gateway, perturb=gateway, detector=gateway
    )
    return hm.ForgeConfig(
        bindings=bindings,
        captioner_model_ids=models,
        include_undetected=True,
        templates=templates,
    )


def build_config(hm, spec: dict, templates, cache_dir=None):
    if spec["mode"] == "forge":
        return forge_config(hm, spec, templates)
    return pipeline_config(hm, spec, templates, cache_dir)


def probe(spec: dict) -> None:
    """Import hmgie, load templates, build gateways and config, report."""
    hm, import_s = import_program(spec["src"])
    started = time.perf_counter()
    templates = hm.load_templates()
    templates_ms = (time.perf_counter() - started) * 1000
    build_config(hm, spec, templates, cache_dir=spec.get("probe_cache"))
    print(json.dumps({"import_s": import_s, "templates_ms": templates_ms}), flush=True)


def stub_call(endpoint: str, path: str, method: str = "GET") -> dict:
    data = b"" if method == "POST" else None
    request = urllib.request.Request(endpoint + path, method=method, data=data)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def run_round(clients: list[list[int]], call) -> tuple[dict, float, float]:
    """Closed loop: each client sends its next item when the last returns.

    Returns ({index: (outcome, latency_ms)}, wall seconds, CPU seconds).
    """
    results: dict[int, tuple] = {}

    def client(indices: list[int]) -> None:
        for index in indices:
            started = time.perf_counter()
            try:
                outcome = call(index)
            except Exception as exc:  # reported as a failed item, never lost
                outcome = exc
            results[index] = (outcome, (time.perf_counter() - started) * 1000)

    cpu0, wall0 = time.process_time(), time.perf_counter()
    if len(clients) == 1:
        client(clients[0])
    else:
        threads = [threading.Thread(target=client, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return results, time.perf_counter() - wall0, time.process_time() - cpu0


def error_outcome(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)[:300]}


def pipeline_outcome(result) -> dict:
    """What the checks need from one single-item BatchResult."""
    if isinstance(result, Exception):
        return error_outcome(result)
    item = result.results[0]
    if item.report is None:
        return {"error": item.error.split(":", 1)[0], "message": item.error[:300]}
    report = item.report
    confusion = result.metrics.confusion if result.metrics is not None else None
    return {
        "decision": report.decision,
        "h_acc": report.h_acc,
        "h_comp": report.h_comp,
        "depth": report.realized_depth,
        "counts": [s.count for s in report.per_level],
        "digest": hashlib.sha256(report.to_json().encode("utf-8")).hexdigest(),
        "confusion": dataclasses.asdict(confusion) if confusion is not None else None,
    }


def forge_outcome(value) -> dict:
    if isinstance(value, Exception):
        return error_outcome(value)
    summary, out_path = value
    lines = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    return {
        "errors": list(summary.errors),
        "records": [
            {
                "label": line["label"],
                "status": line["status"],
                "caption": line["caption"],
                "ground_truth": line["ground_truth"],
                "history": line["perturbation_history"],
            }
            for line in lines
        ],
    }


def main(spec: dict) -> dict:
    hm, _ = import_program(spec["src"])
    import scenario
    import tracing

    workload = scenario.build(spec["workload"], spec["seed"], spec["quick"])
    templates = hm.load_templates()
    tracer = None
    missing: list[str] = []
    if spec["trace"]:
        tracer = tracing.Tracer(scenario.role_of)
        missing = tracer.install(hm)

    work = Path(spec["work"])
    images = {int(image_id): path for image_id, path in spec["images"].items()}
    items = [
        hm.DatasetItem(
            id=f"p{pair.pid:04d}",
            image_path=images[pair.image_id],
            caption=pair.caption,
            label=pair.label,
            granularity=pair.granularity,
        )
        for pair in workload.pairs
    ]
    specs = {s.level: s for s in hm.DEFAULT_GRANULARITY_SPECS}
    mode = spec["mode"]
    endpoint = spec.get("endpoint")

    rounds = []
    started = time.perf_counter()
    completed = 0
    while True:
        cache_dir = work / "cache" / f"round{len(rounds)}"
        config = build_config(hm, spec, templates, cache_dir=cache_dir)
        if mode == "forge":
            cell_configs = {g: dataclasses.replace(config, specs=(specs[g],)) for g in specs}
            out_dir = work / "forge-out"
            out_dir.mkdir(parents=True, exist_ok=True)

            def call(index: int):
                cell = workload.cells[index]
                out = out_dir / f"cell{index:03d}.jsonl"
                summary = hm.forge.build_dataset(
                    [images[cell.image_id]], cell_configs[cell.granularity], out
                )
                return summary, out
        else:

            def call(index: int):
                return hm.evaluate_batch([items[index]], config)

        if tracer is not None:
            base = len(rounds) * len(workload.items)
            plain = call

            def call(index: int, plain=plain, base=base):
                return tracer.item(base + index, plain, index)

        if mode != "replay":
            stub_call(endpoint, "/reset", "POST")
        results, wall, cpu = run_round(workload.clients, call)

        outcomes = {}
        for index, (value, latency) in results.items():
            if mode == "forge":
                outcome = forge_outcome(value)
            else:
                outcome = pipeline_outcome(value)
            outcome["latency_ms"] = latency
            outcomes[index] = outcome
        if mode == "replay":
            backend = config.backends.graph_gen.backend
            calls = len(backend.calls)
            prompt_bytes = sum(len(r.prompt.encode("utf-8")) for r in backend.calls)
            body_bytes = unplanted = 0
        else:
            stats = stub_call(endpoint, "/stats")
            calls, prompt_bytes, body_bytes, unplanted = (
                stats["requests"], stats["prompt_bytes"], stats["body_bytes"], stats["unplanted"]
            )
        detection = None
        if mode != "forge":
            done = [(i, o) for i, o in sorted(outcomes.items()) if "error" not in o]
            if done:
                pairs = [(1 - o["decision"], workload.pairs[i].label) for i, o in done]
                grans = [workload.pairs[i].granularity for i, _ in done]
                detection = hm.detection_metrics(pairs, grans).to_dict()
        shutil.rmtree(cache_dir, ignore_errors=True)
        rounds.append(
            {
                "wall_s": wall,
                "cpu_s": cpu,
                "calls": calls,
                "prompt_bytes": prompt_bytes,
                "body_bytes": body_bytes,
                "unplanted": unplanted,
                "detection": detection,
                "outcomes": {str(i): o for i, o in sorted(outcomes.items())},
            }
        )
        completed += sum(1 for o in outcomes.values() if "error" not in o)
        if spec["quick"]:
            break
        if time.perf_counter() - started >= spec["seconds"] and completed >= spec["min_items"]:
            break

    result = {
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing_layers": missing,
    }
    if tracer is not None:
        tracer.write_jsonl(spec["trace_path"])
        injected = scenario.LATENCY_MS if mode != "replay" else {}
        http_kb = sum(r["body_bytes"] for r in rounds) / 1024
        result["layers"] = tracing.layer_metrics(tracer.spans, completed, injected, http_kb)
    return result


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        probe(json.loads(Path(sys.argv[2]).read_text()))
    else:
        spec = json.loads(Path(sys.argv[1]).read_text())
        Path(spec["result_path"]).write_text(json.dumps(main(spec)))
