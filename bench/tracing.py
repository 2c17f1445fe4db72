"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces functions where the program binds them (for
example ``hmgie.pipeline.graph_to_json``) with wrappers that record a span:
id, parent span, item id, name, start, end, thread and one extra value. The
program's source is not touched. Spans stay in memory; ``write_jsonl`` dumps
them when the run ends and ``layer_metrics`` reduces them to per-item figures.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

SPAN_FIELDS = ("id", "parent", "item", "name", "start", "end", "thread", "extra")

# (current span id, item id) of the running code; 0 / -1 outside any item.
_CURRENT = contextvars.ContextVar("bench_span", default=(0, -1))


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in the submitter's context, so the spans
    of a fanned-out task keep their parent and item."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self, role_of):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._role_of = role_of

    def wrap(self, name, fn, extra=None):
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent, item = _CURRENT.get()
            span_id = next(ids)
            token = _CURRENT.set((span_id, item))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                _CURRENT.reset(token)
                value = extra(args, result) if extra is not None else None
                spans.append(
                    (span_id, parent, item, name, start, end, threading.get_ident(), value)
                )

        traced.__wrapped__ = fn
        return traced

    def item(self, item_id: int, fn, *args):
        """Run fn(*args) as the root span of one benchmark item."""
        token = _CURRENT.set((0, item_id))
        try:
            return self.wrap("item", fn)(*args)
        finally:
            _CURRENT.reset(token)

    def install(self, hm) -> list[str]:
        """Wrap the program's layers; returns the names it could not find."""
        pipeline, gateway, forge = hm.pipeline, hm.gateway, hm.forge
        role_of = self._role_of

        def level_extra(args, result):
            batch, _, config = args
            return [min(config.intra_level_parallelism, len(batch.items))] + [
                item.question for item in batch.items
            ]

        module_patches = [
            (pipeline, "evaluate_pair", "pipeline.evaluate_pair", None),
            (pipeline, "_run_level", "pipeline.level", level_extra),
            (pipeline, "_answer_and_judge", "pipeline.answer", lambda a, r: a[0]),
            (pipeline, "graph_to_json", "semantic_graph.to_json", None),
            (pipeline, "parse_semantic_graph", "semantic_graph.parse", None),
            (pipeline, "hieg_to_prompt_json", "hieg.to_prompt_json", None),
            (pipeline, "expand", "hieg.expand", None),
            (pipeline, "compute_h_acc", "scoring", None),
            (pipeline, "compute_h_comp", "scoring", None),
            (pipeline, "detection_metrics", "scoring", None),
            (gateway, "cache_key", "gateway.cache_key", None),
            (
                forge,
                "perturb_iteratively",
                "forge.perturb",
                lambda a, r: len(r.perturbation_history) if r is not None else 0,
            ),
            (forge, "generate_ground_truth", "forge.ground_truth", None),
        ]
        for kind in ("graph", "question", "vqa", "eval", "coverage", "explain"):
            module_patches.append(
                (pipeline, f"build_{kind}_request", "pipeline.build_request", None)
            )
        for parser in ("question_batch", "vqa_reply", "eval_reply", "coverage_reply"):
            module_patches.append((pipeline, f"parse_{parser}", "prompts.parse", None))
        module_patches.append((forge, "parse_consistency_reply", "prompts.parse", None))
        for module in (pipeline, forge):
            module_patches.append((module, "render", "prompts.render", None))
        for module in (hm.prompts, hm.semantic_graph, forge):
            module_patches.append((module, "extract_json_value", "structured.extract", None))

        missing = []
        for module, attr, name, extra in module_patches:
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr), extra))
            else:
                missing.append(f"{module.__name__}.{attr}")

        def cached(args, result):
            return getattr(result, "cached", 0)

        def role(args, result):
            return role_of(args[1].prompt)

        gateway.Gateway.call = self.wrap("gateway.call", gateway.Gateway.call, cached)
        for backend in (gateway.HttpBackend, gateway.ScriptedBackend):
            backend.complete = self.wrap("gateway.backend", backend.complete, role)
        gateway.ModelRequest.vision = staticmethod(
            self.wrap("gateway.vision_request", gateway.ModelRequest.vision)
        )
        if hasattr(pipeline, "ThreadPoolExecutor"):
            pipeline.ThreadPoolExecutor = _ContextPool
        return missing

    def write_jsonl(self, path) -> None:
        """One JSON array per span, after a first line naming the fields."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _makespan(costs: list[int], workers: int) -> int:
    """Round trips on the critical path when tasks of the given costs are
    handed in order to the first free of `workers` threads (FIFO), with one
    unit of time per backend call."""
    free = [0] * max(1, workers)
    finish = 0
    for cost in costs:
        start = heapq.heappop(free)
        heapq.heappush(free, start + cost)
        finish = max(finish, start + cost)
    return finish


def serial_round_trips(spans: list[tuple]) -> int:
    """Backend calls on each item's critical path, summed over items.

    Calls on the thread of their parent run one after another. Tasks that a
    level fans out to other threads are scheduled FIFO on that level's worker
    count. The count depends on which calls reached the backend and where
    they sit in the call tree, never on timing.
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)

    def serial(span: tuple) -> int:
        own = 1 if span[3] == "gateway.backend" else 0
        same = [c for c in children[span[0]] if c[6] == span[6]]
        other = [c for c in children[span[0]] if c[6] != span[6]]
        total = own + sum(serial(c) for c in same)
        if other:
            if span[3] == "pipeline.level" and span[7]:
                workers, questions = span[7][0], span[7][1:]
                cost = {c[7]: serial(c) for c in other}
                total += _makespan([cost.get(q, 0) for q in questions], workers)
            else:
                total += max(serial(c) for c in other)
        return total

    return sum(serial(span) for span in spans if span[3] == "item")


def layer_metrics(
    spans: list[tuple], completed: int, injected_ms: dict[str, float], http_kb: float
) -> dict[str, float]:
    """Per-item figures of each layer from the spans of a traced run."""
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span[1])
        if parent is not None and parent[6] == span[6]:
            child_time[span[1]] += span[5] - span[4]
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    cache_hits = iterations = questions = 0
    http_overhead = 0.0
    for span_id, _, _, name, start, end, _, extra in spans:
        duration = end - start
        total[name] += duration
        own[name] += duration - child_time[span_id]
        count[name] += 1
        if name == "gateway.call":
            cache_hits += extra or 0
        elif name == "gateway.backend":
            http_overhead += duration - injected_ms.get(extra, 0.0) / 1000
        elif name == "forge.perturb":
            iterations += extra or 0
        elif name == "pipeline.level" and extra:
            questions += len(extra) - 1

    per = max(completed, 1)

    def ms(value: float) -> float:
        return value * 1000 / per

    pipeline_self = sum(
        own[name]
        for name in ("pipeline.evaluate_pair", "pipeline.level", "pipeline.answer")
    )
    return {
        "gateway.calls_per_item": count["gateway.call"] / per,
        "gateway.cache_hits_per_item": cache_hits / per,
        "gateway.self_ms_per_item": ms(own["gateway.call"]),
        "gateway.cache_key_ms_per_item": ms(total["gateway.cache_key"]),
        "gateway.vision_request_ms_per_item": ms(total["gateway.vision_request"]),
        "gateway.backend_ms_per_item": ms(total["gateway.backend"]),
        "gateway.http_overhead_ms_per_item": ms(http_overhead),
        "gateway.http_request_kb_per_item": http_kb / per,
        "prompts.render_ms_per_item": ms(total["prompts.render"]),
        "prompts.parse_ms_per_item": ms(total["prompts.parse"]),
        "structured.extract_calls_per_item": count["structured.extract"] / per,
        "structured.extract_ms_per_item": ms(total["structured.extract"]),
        "semantic_graph.to_json_calls_per_item": count["semantic_graph.to_json"] / per,
        "semantic_graph.to_json_ms_per_item": ms(total["semantic_graph.to_json"]),
        "semantic_graph.parse_ms_per_item": ms(total["semantic_graph.parse"]),
        "hieg.to_prompt_json_ms_per_item": ms(total["hieg.to_prompt_json"]),
        "hieg.expand_ms_per_item": ms(total["hieg.expand"]),
        "scoring.ms_per_item": ms(total["scoring"]),
        "pipeline.build_request_ms_per_item": ms(total["pipeline.build_request"]),
        "pipeline.self_ms_per_item": ms(pipeline_self),
        "pipeline.serial_round_trips_per_item": serial_round_trips(spans) / per,
        "pipeline.levels_per_item": count["pipeline.level"] / per,
        "pipeline.questions_per_item": questions / per,
        "forge.ground_truth_ms_per_item": ms(total["forge.ground_truth"]),
        "forge.perturb_ms_per_item": ms(total["forge.perturb"]),
        "forge.iterations_per_item": iterations / per,
    }
