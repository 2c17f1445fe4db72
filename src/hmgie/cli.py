"""Command-line interface.

Exit codes: 0 success, 2 runtime failure (any per-item error), 64 usage or
configuration error. Values resolve as flags > environment > config file >
defaults; backend credentials can be overridden per role through
HMGIE_<ROLE>_ENDPOINT / HMGIE_<ROLE>_API_KEY.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import HmgieError
from .forge import (
    DEFAULT_GRANULARITY_SPECS,
    ForgeBindings,
    ForgeConfig,
    build_dataset,
)
from .gateway import Gateway, HttpBackend, ScriptedBackend
from .pipeline import (
    EvaluationReport,
    PipelineConfig,
    RoleBindings,
    evaluate_batch,
    evaluate_pair,
    load_dataset_jsonl,
)
from .prompts import TemplateName, load_templates

EXIT_OK = 0
EXIT_RUNTIME = 2
EXIT_USAGE = 64

IMAGE_EXTENSIONS = {".png", ".jpg", ".jpeg", ".gif", ".webp", ".bmp"}


class UsageError(Exception):
    """Invalid flags or configuration; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve(*candidates):
    """First non-None candidate (flag > env > file > default)."""
    for candidate in candidates:
        if candidate is not None:
            return candidate
    return None


def _env(name: str) -> Optional[str]:
    value = os.environ.get(name)
    return value if value else None


@dataclass
class RunConfig:
    """Resolved, validated settings shared by the subcommands."""

    mode: str  # live | record | replay
    endpoint: Optional[str]
    api_key: Optional[str]
    model: str
    temperature: float
    cache_dir: Optional[str]
    replay_dir: Optional[str]
    templates_dir: Optional[str]
    retry_limit: int
    max_level: int
    max_per_level: int
    weight_ratio: float
    parallelism: int
    max_output_tokens: int


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: top level must be an object")
    return data


def _number(value, name: str, kind=int, low=1, strict=False):
    """value as ``kind``, required to be >= low (> low when ``strict``)."""
    try:
        number = kind(value)
    except (TypeError, ValueError):
        expected = "an integer" if kind is int else "a number"
        raise UsageError(f"{name}: expected {expected}, got {value!r}")
    if number < low or (strict and number == low):
        raise UsageError(f"{name}: must be {'>' if strict else '>='} {low}, got {number}")
    return number


def _build_run_config(args, mode: str) -> RunConfig:
    file_cfg = _load_config_file(getattr(args, "config", None))

    def setting(key: str, default=None, env: bool = False):
        """Flag > HMGIE_<KEY> (for env-backed keys) > config file > default."""
        from_env = _env(f"HMGIE_{key.upper()}") if env else None
        return _resolve(getattr(args, key, None), from_env, file_cfg.get(key), default)

    endpoint = setting("endpoint", env=True)
    api_key = setting("api_key", env=True)
    cache_dir = setting("cache_dir", env=True)
    # The subcommand's mode, then the flags: --replay (or the replay
    # subcommand's cache-dir fallback) wins, --record turns live into record.
    record = getattr(args, "record", False)
    replay_dir = _resolve(
        getattr(args, "replay", None), cache_dir if mode == "replay" else None
    )
    if mode == "replay" and replay_dir is None:
        raise UsageError("replay needs --replay DIR or a cache dir (HMGIE_CACHE_DIR)")
    elif replay_dir is not None and not Path(replay_dir).is_dir():
        raise UsageError(f"replay dir does not exist: {replay_dir}")
    elif replay_dir is not None and record:
        raise UsageError("--record and --replay are mutually exclusive")
    elif replay_dir is not None:
        mode = "replay"
    elif (record or mode == "record") and cache_dir is None:
        raise UsageError("record mode needs --cache-dir or HMGIE_CACHE_DIR")
    elif not api_key:
        raise UsageError("no API key configured (--api-key or HMGIE_API_KEY)")
    elif not endpoint:
        raise UsageError("no endpoint configured (--endpoint or HMGIE_ENDPOINT)")
    elif record:
        mode = "record"

    return RunConfig(
        mode=mode,
        endpoint=endpoint,
        api_key=api_key,
        model=str(setting("model", "gpt-4o", env=True)),
        temperature=_number(
            setting("temperature", 0.3, env=True), "temperature", float, 0
        ),
        cache_dir=cache_dir,
        replay_dir=replay_dir,
        templates_dir=setting("templates_dir", env=True),
        retry_limit=_number(setting("retry_limit", 3), "retry-limit"),
        max_level=_number(setting("max_level", 5), "max-level"),
        max_per_level=_number(setting("max_per_level", 10), "max-per-level"),
        weight_ratio=_number(
            setting("weight_ratio", 1.2), "weight-ratio", float, 0, strict=True
        ),
        parallelism=_number(setting("parallelism", 1), "parallelism"),
        max_output_tokens=_number(
            setting("max_output_tokens", 2048), "max_output_tokens"
        ),
    )


class _GatewayFactory:
    """Builds one gateway per distinct (endpoint, api key), honoring mode.

    ``close`` closes the HTTP backends it built; commands hold the factory
    in ``contextlib.closing`` so that happens when they end.
    """

    def __init__(self, rc: RunConfig):
        self.rc = rc
        self._gateways: dict[tuple[Optional[str], Optional[str]], Gateway] = {}
        self._scripted: Optional[Gateway] = None

    def for_role(self, role: str) -> Gateway:
        rc = self.rc
        if rc.mode == "replay":
            if self._scripted is None:
                # Replies come from the log's index; a miss reaches the
                # empty backend, which names the key it lacks.
                backend = ScriptedBackend(fixtures={})
                self._scripted = Gateway(backend, cache_dir=rc.replay_dir)
            return self._scripted
        endpoint = _env(f"HMGIE_{role}_ENDPOINT") or rc.endpoint
        api_key = _env(f"HMGIE_{role}_API_KEY") or rc.api_key
        key = (endpoint, api_key)
        if key not in self._gateways:
            backend = HttpBackend(endpoint=endpoint, api_key=api_key)
            self._gateways[key] = Gateway(
                backend,
                cache_dir=rc.cache_dir,
                record=(rc.mode == "record"),
                attempts=rc.retry_limit,
            )
        return self._gateways[key]

    def close(self) -> None:
        for gateway in self._gateways.values():
            gateway.backend.close()


def _pipeline_config(rc: RunConfig, factory: _GatewayFactory) -> PipelineConfig:
    bindings = RoleBindings(
        graph_gen=factory.for_role("GRAPH_GEN"),
        question_gen=factory.for_role("QUESTION_GEN"),
        vqa=factory.for_role("VQA"),
        answer_eval=factory.for_role("EVAL"),
        coverage=factory.for_role("COVERAGE"),
        explain=factory.for_role("EXPLAIN"),
    )
    return PipelineConfig(
        backends=bindings,
        max_level=rc.max_level,
        max_questions_per_level=rc.max_per_level,
        retry_limit=rc.retry_limit,
        weight_ratio=rc.weight_ratio,
        model_id=rc.model,
        temperature=rc.temperature,
        max_output_tokens=rc.max_output_tokens,
        templates=load_templates(rc.templates_dir),
        # Replay waits on no model, so level fan-out threads only add switching.
        intra_level_parallelism=(
            1 if rc.mode == "replay" else PipelineConfig.intra_level_parallelism
        ),
    )


def _format_float(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _print_report(report: EvaluationReport, as_json: bool) -> None:
    if as_json:
        print(report.to_json())
        return
    print(f"decision: {'consistent' if report.decision else 'inconsistent'}")
    print(f"H_acc: {report.h_acc:.6f}")
    print(f"H_comp: {report.h_comp:.6f}")
    print(f"realized_depth: {report.realized_depth}")
    for stats in report.per_level:
        noun = "question" if stats.count == 1 else "questions"
        print(f"level {stats.level}: {stats.count} {noun}")
    if report.explanation:
        print(f"explanation: {report.explanation}")
    for note in report.diagnostics:
        print(f"note: {note}")


def _print_metrics(metrics, per_granularity: bool) -> None:
    print("metrics:")
    print(f"  TPR: {_format_float(metrics.tpr)}")
    print(f"  FPR: {_format_float(metrics.fpr)}")
    print(f"  precision: {_format_float(metrics.precision)}")
    print(f"  F1: {_format_float(metrics.f1)}")
    if per_granularity and metrics.per_granularity:
        for granularity, summary in sorted(metrics.per_granularity.items()):
            print(
                f"  G{granularity}: TPR {_format_float(summary.tpr)} "
                f"FPR {_format_float(summary.fpr)} F1 {_format_float(summary.f1)}"
            )


def _safe_name(identifier: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in identifier)


def _check_report_names(dataset) -> None:
    """Refuse a batch in which two item ids would write one report file."""
    owners: dict[str, str] = {}
    for item in dataset:
        name = f"{_safe_name(item.id)}.report.json"
        if name in owners:
            raise ValueError(
                f"items {owners[name]!r} and {item.id!r} would both write {name}"
            )
        owners[name] = item.id


def _write_text(path: Path, text: str) -> None:
    """Write a file whole or not at all, through a temp file moved into place.

    A lone surrogate, which JSON text carries from a reply or a dataset
    field, is written as its ``\\udxxx`` escape, so the file stays JSON
    that reads back to the same string.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", errors="backslashreplace") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_report(out_dir: Optional[str], name: str, report: EvaluationReport) -> None:
    if out_dir is not None:
        _write_text(Path(out_dir) / f"{_safe_name(name)}.report.json", report.to_json() + "\n")


def cmd_evaluate(args, mode: str = "live") -> int:
    try:
        if bool(args.dataset) == bool(args.caption):
            raise UsageError("provide either --caption with --image, or --dataset")
        if args.caption and not args.image:
            raise UsageError("--caption requires --image")
        rc = _build_run_config(args, mode)
    except (UsageError, HmgieError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with closing(_GatewayFactory(rc)) as factory:
        return _evaluate(args, rc, factory)


def _evaluate(args, rc: RunConfig, factory: _GatewayFactory) -> int:
    try:
        config = _pipeline_config(rc, factory)
    except (UsageError, HmgieError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.caption:
        try:
            payload = Path(args.image).read_bytes()
            report = evaluate_pair(payload, args.caption, config)
        except (HmgieError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        _print_report(report, args.json)
        _write_report(args.out, "pair", report)
        return EXIT_OK

    try:
        dataset = load_dataset_jsonl(args.dataset)
        if args.out is not None:
            _check_report_names(dataset)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    batch = evaluate_batch(dataset, config, parallelism=rc.parallelism)

    summary_rows = []
    for result in batch.results:
        report = result.report
        if report is None:
            print(f"{result.item.id}: error {result.error}")
        else:
            decision = "consistent" if report.decision else "inconsistent"
            print(
                f"{result.item.id}: decision={decision} "
                f"h_acc={report.h_acc:.6f} h_comp={report.h_comp:.6f}"
            )
            _write_report(args.out, result.item.id, report)
        summary_rows.append(
            {
                "id": result.item.id,
                "decision": None if report is None else report.decision,
                "h_acc": None if report is None else report.h_acc,
                "h_comp": None if report is None else report.h_comp,
                "error": result.error,
            }
        )
    print(f"items: {batch.evaluated} evaluated, {batch.failed} failed")
    if batch.metrics is not None:
        if batch.failed:
            print(f"metrics cover {batch.evaluated} of {len(batch.results)} items")
        _print_metrics(batch.metrics, args.per_granularity)
    if args.out is not None:
        summary = {
            "items": len(batch.results),
            "evaluated": batch.evaluated,
            "failed": batch.failed,
            "metrics": batch.metrics.to_dict() if batch.metrics else None,
            "results": summary_rows,
        }
        _write_text(
            Path(args.out) / "summary.json",
            json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        )
    return EXIT_RUNTIME if batch.failed else EXIT_OK


def cmd_forge(args) -> int:
    try:
        rc = _build_run_config(args, "live")
    except (UsageError, HmgieError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with closing(_GatewayFactory(rc)) as factory:
        return _forge(args, rc, factory)


def _forge(args, rc: RunConfig, factory: _GatewayFactory) -> int:
    try:
        max_iterations = _number(args.max_iter, "max-iter")
        granularities = args.granularity or [1, 2, 3, 4]
        specs = tuple(
            spec for spec in DEFAULT_GRANULARITY_SPECS if spec.level in granularities
        )
        if not specs:
            raise UsageError("no granularity specs selected")
        captioner_models = tuple(args.captioner_model or ())
        captioners = tuple(
            factory.for_role("CAPTION") for _ in range(max(1, len(captioner_models)))
        )
        config = ForgeConfig(
            bindings=ForgeBindings(
                captioners=captioners,
                fusion=factory.for_role("FUSION"),
                perturb=factory.for_role("PERTURB"),
                detector=factory.for_role("DETECTOR"),
            ),
            specs=specs,
            max_iterations=max_iterations,
            detector_template=(
                TemplateName.COT_PROMPT
                if args.detector == "cot"
                else TemplateName.DIRECT_PROMPT
            ),
            include_undetected=args.include_undetected,
            model_id=rc.model,
            captioner_model_ids=captioner_models,
            temperature=rc.temperature,
            max_output_tokens=rc.max_output_tokens,
            templates=load_templates(rc.templates_dir),
            parallelism=rc.parallelism,
        )
    except (UsageError, HmgieError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    images_dir = Path(args.images)
    if not images_dir.is_dir():
        print(f"error: images directory not readable: {args.images}", file=sys.stderr)
        return EXIT_RUNTIME
    image_paths = sorted(
        str(p) for p in images_dir.iterdir() if p.suffix.lower() in IMAGE_EXTENSIONS
    )
    try:
        summary = build_dataset(image_paths, config, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"records: {summary.records_written} "
          f"({summary.clean_records} clean, {summary.adversarial_records} adversarial)")
    for granularity in sorted(summary.per_granularity):
        print(f"G{granularity}: {summary.per_granularity[granularity]} records")
    if summary.skipped_undetected:
        print(f"skipped (detector never fooled): {summary.skipped_undetected}")
    for error in summary.errors:
        print(f"note: {error}", file=sys.stderr)
    if image_paths and summary.records_written == 0 and summary.errors:
        return EXIT_RUNTIME
    return EXIT_OK


def _add_common_args(parser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--endpoint", help="chat-completions endpoint URL")
    parser.add_argument("--api-key", dest="api_key", help="backend API key")
    parser.add_argument("--model", help="model identifier")
    parser.add_argument("--temperature", help="sampling temperature (default 0.3)")
    parser.add_argument("--cache-dir", dest="cache_dir", help="response cache directory")
    parser.add_argument(
        "--templates-dir", dest="templates_dir", help="prompt template overrides"
    )
    parser.add_argument(
        "--retry-limit", dest="retry_limit", help="attempts per model call (default 3)"
    )
    parser.add_argument("--parallelism", help="concurrent items (default 1)")


def _add_eval_args(parser, include_modes: bool = True) -> None:
    parser.add_argument("--image", help="image file for single-pair evaluation")
    parser.add_argument("--caption", help="caption text for single-pair evaluation")
    parser.add_argument("--dataset", help="JSONL dataset for batch evaluation")
    parser.add_argument("--out", help="directory for report files")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--max-level", dest="max_level", help="maximum depth (default 5)")
    parser.add_argument(
        "--max-per-level", dest="max_per_level", help="question budget per level (default 10)"
    )
    parser.add_argument(
        "--weight-ratio", dest="weight_ratio", help="geometric weight ratio (default 1.2)"
    )
    parser.add_argument(
        "--per-granularity",
        dest="per_granularity",
        action="store_true",
        help="break metrics down by dataset granularity",
    )
    _add_common_args(parser)
    if include_modes:
        parser.add_argument(
            "--record", action="store_true", help="capture live replies into the cache dir"
        )
        parser.add_argument("--replay", help="serve replies from this fixture directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="hmgie", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    evaluate = sub.add_parser("evaluate", help="evaluate image-caption consistency")
    _add_eval_args(evaluate)
    evaluate.set_defaults(mode="live")

    record = sub.add_parser("record", help="evaluate live and capture replay fixtures")
    _add_eval_args(record, include_modes=False)
    record.set_defaults(mode="record")

    replay = sub.add_parser("replay", help="re-run an evaluation from fixtures only")
    _add_eval_args(replay, include_modes=False)
    replay.add_argument("--replay", help="fixture directory (defaults to the cache dir)")
    replay.set_defaults(mode="replay")

    forge = sub.add_parser("forge", help="construct an adversarial dataset")
    forge.add_argument("--images", required=True, help="directory of input images")
    forge.add_argument("--out", required=True, help="output JSONL path")
    forge.add_argument("--max-iter", dest="max_iter", default=5, help="perturbation budget")
    forge.add_argument(
        "--granularity",
        action="append",
        type=int,
        choices=(1, 2, 3, 4),
        help="restrict to these granularity tiers (repeatable)",
    )
    forge.add_argument(
        "--detector", choices=("dp", "cot"), default="dp", help="detector prompt style"
    )
    forge.add_argument(
        "--include-undetected",
        dest="include_undetected",
        action="store_true",
        help="emit records whose perturbations never fooled the detector",
    )
    forge.add_argument(
        "--captioner-model",
        dest="captioner_model",
        action="append",
        help="ensemble captioner model id (repeatable)",
    )
    forge.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    forge.add_argument("--replay", help="serve replies from this fixture directory")
    _add_common_args(forge)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # A reply or a dataset field may hold a lone surrogate; print its escape.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "forge":
        return cmd_forge(args)
    if args.command is not None:
        return cmd_evaluate(args, args.mode)
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
