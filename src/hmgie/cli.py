"""Command-line interface.

Exit codes: 0 success, 2 runtime failure (any per-item error), 64 usage or
configuration error. A run is live, records each reply into the cache dir
(--record) or serves replies from a fixture dir alone (--replay DIR).
Values resolve as flags > environment > config file; a setting given
nowhere keeps the library's default, which --help shows. Backend
credentials can be overridden per role through HMGIE_<ROLE>_ENDPOINT /
HMGIE_<ROLE>_API_KEY.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from contextlib import ExitStack, closing
from pathlib import Path
from typing import NamedTuple, Optional

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
from .scoring import ScoringConfig

EXIT_OK = 0
EXIT_RUNTIME = 2
EXIT_USAGE = 64

IMAGE_EXTENSIONS = {".png", ".jpg", ".jpeg", ".gif", ".webp", ".bmp"}

DETECTORS = {"dp": TemplateName.DIRECT_PROMPT, "cot": TemplateName.COT_PROMPT}


class UsageError(Exception):
    """Invalid flags or configuration; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Setting(NamedTuple):
    """How the CLI reads one setting, and the library parameter it sets;
    that parameter's owner checks its range."""

    parameter: str = ""  # when it is not named like the setting
    kind: type = str  # str, int or float
    env: bool = False  # HMGIE_<KEY> backs it

    def check(self, value, name: str):
        """``value`` as this setting's type, else UsageError naming ``name``.
        A JSON bool is not a number, nor a float an integer, nor is a number
        that is not finite."""
        if self.kind is str:
            if not isinstance(value, str):
                raise UsageError(f"{name}: expected text, got {value!r}")
            return value
        try:
            if isinstance(value, bool) or (self.kind is int and isinstance(value, float)):
                raise TypeError(value)
            number = self.kind(value)
            if not math.isfinite(number):
                raise ValueError(value)
        except (TypeError, ValueError):
            expected = "an integer" if self.kind is int else "a number"
            raise UsageError(f"{name}: expected {expected}, got {value!r}") from None
        return number


# Every setting the CLI reads, by its config-file key, which its flag and
# HMGIE_<KEY> spell too; max_output_tokens has no flag. Each names a parameter
# of PipelineConfig, ForgeConfig or Gateway, except the deployment settings
# endpoint, api_key and templates_dir, which the CLI uses itself.
SETTINGS = {
    "endpoint": _Setting(env=True),
    "api_key": _Setting(env=True),
    "cache_dir": _Setting(env=True),
    "templates_dir": _Setting(env=True),
    "model": _Setting("model_id", env=True),
    "temperature": _Setting(kind=float, env=True),
    "retry_limit": _Setting("attempts", kind=int),
    "max_level": _Setting(kind=int),
    "max_per_level": _Setting("max_questions_per_level", kind=int),
    "weight_ratio": _Setting(kind=float),
    "parallelism": _Setting(kind=int),
    "max_output_tokens": _Setting(kind=int),
}


def _env(name: str) -> Optional[str]:
    value = os.environ.get(name)
    return value if value else None


# Gateway's retry default, read once for --help.
_GATEWAY_ATTEMPTS = inspect.signature(Gateway).parameters["attempts"].default


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or a long integer
        raise UsageError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: top level must be an object")
    unknown = sorted(set(data) - set(SETTINGS))
    if unknown:
        raise UsageError(f"config file {path}: unknown key {unknown[0]!r}")
    return data


def _given_settings(args) -> dict:
    """Each setting the user gave, checked: its flag, else HMGIE_<KEY>, else
    the config file. One given nowhere is left out, so the library's default
    holds. A message names a flag's value by the flag, any other by its key."""
    from_file = _load_config_file(args.config)
    given = {}
    for key, setting in SETTINGS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = setting.check(flag, key.replace("_", "-"))
            continue
        value = _env(f"HMGIE_{key.upper()}") if setting.env else None
        value = from_file.get(key) if value is None else value
        if value is not None:
            given[key] = setting.check(value, key)
    return given


def _passed(given: dict, target) -> dict:
    """The given settings that ``target`` takes, by its parameter names; the
    rest keep ``target``'s defaults."""
    names = inspect.signature(target).parameters
    passed = {SETTINGS[key].parameter or key: value for key, value in given.items()}
    return {name: value for name, value in passed.items() if name in names}


def _run_mode(args, given: dict) -> tuple[str, Optional[str]]:
    """The run mode and replay directory: --replay DIR replays, --record
    records, and a run with neither is live."""
    if args.replay is not None and not Path(args.replay).is_dir():
        raise UsageError(f"replay dir does not exist: {args.replay}")
    elif args.replay is not None and args.record:
        raise UsageError("--record and --replay are mutually exclusive")
    elif args.replay is not None:
        return "replay", args.replay
    elif args.record and given.get("cache_dir") is None:
        raise UsageError("record mode needs --cache-dir or HMGIE_CACHE_DIR")
    elif not given.get("api_key"):
        raise UsageError("no API key configured (--api-key or HMGIE_API_KEY)")
    elif not given.get("endpoint"):
        raise UsageError("no endpoint configured (--endpoint or HMGIE_ENDPOINT)")
    return ("record" if args.record else "live"), None


class _GatewayFactory:
    """Builds one gateway per distinct (endpoint, api key), honoring mode.

    ``close`` closes the HTTP backends it built; commands hold the factory
    in ``contextlib.closing`` so that happens when they end.
    """

    def __init__(self, given: dict, mode: str, replay_dir: Optional[str]):
        self.given = given
        self.mode = mode
        # Every gateway's settings as given (the attempts and the cache dir);
        # replay reads the replay dir.
        self.options = _passed(given, Gateway)
        if mode == "replay":
            self.options["cache_dir"] = replay_dir
        self._gateways: dict[tuple[Optional[str], Optional[str]], Gateway] = {}
        self._scripted: Optional[Gateway] = None

    def for_role(self, role: str) -> Gateway:
        if self.mode == "replay":
            if self._scripted is None:
                # Replies come from the log's index; a miss reaches the
                # empty backend, which names the key it lacks.
                self._scripted = Gateway(ScriptedBackend(fixtures={}), **self.options)
            return self._scripted
        endpoint = _env(f"HMGIE_{role}_ENDPOINT") or self.given["endpoint"]
        api_key = _env(f"HMGIE_{role}_API_KEY") or self.given["api_key"]
        key = (endpoint, api_key)
        if key not in self._gateways:
            backend = HttpBackend(endpoint=endpoint, api_key=api_key)
            self._gateways[key] = Gateway(backend, record=(self.mode == "record"), **self.options)
        return self._gateways[key]

    def close(self) -> None:
        for gateway in self._gateways.values():
            gateway.backend.close()


def _pipeline_config(given: dict, factory: _GatewayFactory) -> PipelineConfig:
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
        templates=load_templates(given.get("templates_dir")),
        # Replay waits on no model, so level fan-out threads only add switching.
        **({"intra_level_parallelism": 1} if factory.mode == "replay" else {}),
        **_passed(given, PipelineConfig),
    )


def _forge_config(args, given: dict, factory: _GatewayFactory) -> ForgeConfig:
    # Forge scores nothing, yet it refuses a scoring setting out of range as
    # evaluate does, so one config file serves both commands.
    scoring = inspect.signature(ScoringConfig).parameters
    ScoringConfig(**{key: value for key, value in given.items() if key in scoring})
    options = _passed(given, ForgeConfig)
    if args.max_iter is not None:
        options["max_iterations"] = _Setting(kind=int).check(args.max_iter, "max-iter")
    if args.granularity:
        specs = DEFAULT_GRANULARITY_SPECS
        options["specs"] = tuple(spec for spec in specs if spec.level in args.granularity)
    if args.detector is not None:
        options["detector_template"] = DETECTORS[args.detector]
    captioner_models = tuple(args.captioner_model or ())
    return ForgeConfig(
        bindings=ForgeBindings(
            captioners=tuple(
                factory.for_role("CAPTION") for _ in range(max(1, len(captioner_models)))
            ),
            fusion=factory.for_role("FUSION"),
            perturb=factory.for_role("PERTURB"),
            detector=factory.for_role("DETECTOR"),
        ),
        include_undetected=args.include_undetected,
        captioner_model_ids=captioner_models,
        templates=load_templates(given.get("templates_dir")),
        **options,
    )


def _configure(args, stack: ExitStack) -> PipelineConfig | ForgeConfig:
    """The subcommand's config, built from the settings the user gave;
    ``stack`` closes the backends built on the way."""
    given = _given_settings(args)
    factory = stack.enter_context(closing(_GatewayFactory(given, *_run_mode(args, given))))
    if args.command == "forge":
        return _forge_config(args, given, factory)
    return _pipeline_config(given, factory)


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


def _evaluate(args, config: PipelineConfig) -> int:
    if args.caption:
        image = config.image_files.read(args.image)
        if args.out is not None:  # made before any model call: a bad path fails first
            Path(args.out).mkdir(parents=True, exist_ok=True)
        report = evaluate_pair(image, args.caption, config)
        _write_report(args.out, "pair", report)
        _print_report(report, args.json)
        return EXIT_OK

    dataset = load_dataset_jsonl(args.dataset)
    if args.out is not None:
        _check_report_names(dataset)
        Path(args.out).mkdir(parents=True, exist_ok=True)
    batch = evaluate_batch(dataset, config)

    # Every file is written before any line is printed, so a closed stdout
    # costs the batch no file.
    lines, summary_rows = [], []
    for result in batch.results:
        report = result.report
        if report is None:
            lines.append(f"{result.item.id}: error {result.error}")
        else:
            decision = "consistent" if report.decision else "inconsistent"
            lines.append(
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
    for line in lines:
        print(line)
    print(f"items: {batch.evaluated} evaluated, {batch.failed} failed")
    if batch.metrics is not None:
        if batch.failed:
            print(f"metrics cover {batch.evaluated} of {len(batch.results)} items")
        _print_metrics(batch.metrics, args.per_granularity)
    return EXIT_RUNTIME if batch.failed else EXIT_OK


def _forge(args, config: ForgeConfig) -> int:
    images_dir = Path(args.images)
    if not images_dir.is_dir():
        raise NotADirectoryError(f"images directory not readable: {args.images}")
    image_paths = sorted(
        str(p) for p in images_dir.iterdir() if p.suffix.lower() in IMAGE_EXTENSIONS
    )
    summary = build_dataset(image_paths, config, args.out)
    print(f"records: {summary.records_written} "
          f"({summary.clean_records} clean, {summary.adversarial_records} adversarial)")
    for granularity in sorted(summary.per_granularity):
        print(f"G{granularity}: {summary.per_granularity[granularity]} records")
    if summary.skipped_undetected:
        print(f"skipped (no adversarial record): {summary.skipped_undetected}")
    for error in summary.errors:
        print(f"note: {error}", file=sys.stderr)
    if image_paths and summary.records_written == 0 and summary.errors:
        return EXIT_RUNTIME
    return EXIT_OK


def _add_common_args(parser, config) -> None:
    """The flags every subcommand takes; help shows the defaults of the
    library ``config`` the subcommand builds."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--endpoint", help="chat-completions endpoint URL")
    parser.add_argument("--api-key", help="backend API key")
    parser.add_argument("--model", help=f"model identifier (default {config.model_id})")
    parser.add_argument(
        "--temperature", help=f"sampling temperature (default {config.temperature})"
    )
    parser.add_argument("--cache-dir", help="response cache directory")
    parser.add_argument("--templates-dir", help="prompt template overrides")
    parser.add_argument(
        "--retry-limit", help=f"attempts per model call (default {_GATEWAY_ATTEMPTS})"
    )
    parser.add_argument("--parallelism", help=f"concurrent items (default {config.parallelism})")
    parser.add_argument(
        "--record", action="store_true", help="capture live replies into the cache dir"
    )
    parser.add_argument("--replay", metavar="DIR", help="serve replies from this fixture directory")


def _add_eval_args(parser) -> None:
    parser.add_argument("--image", help="image file for single-pair evaluation")
    parser.add_argument("--caption", help="caption text for single-pair evaluation")
    parser.add_argument("--dataset", help="JSONL dataset for batch evaluation")
    parser.add_argument("--out", help="directory for report files")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--max-level", help=f"maximum depth (default {PipelineConfig.max_level})")
    budget = PipelineConfig.max_questions_per_level
    parser.add_argument("--max-per-level", help=f"question budget per level (default {budget})")
    ratio = PipelineConfig.weight_ratio
    parser.add_argument("--weight-ratio", help=f"geometric weight ratio (default {ratio})")
    parser.add_argument(
        "--per-granularity",
        action="store_true",
        help="break metrics down by dataset granularity",
    )
    _add_common_args(parser, PipelineConfig)


def build_parser() -> _Parser:
    parser = _Parser(prog="hmgie", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    evaluate = sub.add_parser("evaluate", help="evaluate image-caption consistency")
    _add_eval_args(evaluate)

    forge = sub.add_parser("forge", help="construct an adversarial dataset")
    forge.add_argument("--images", required=True, help="directory of input images")
    forge.add_argument("--out", required=True, help="output JSONL path")
    budget = ForgeConfig.max_iterations
    forge.add_argument("--max-iter", help=f"perturbation budget (default {budget})")
    forge.add_argument(
        "--granularity",
        action="append",
        type=int,
        choices=tuple(spec.level for spec in DEFAULT_GRANULARITY_SPECS),
        help="restrict to these granularity tiers (repeatable)",
    )
    style = {template: name for name, template in DETECTORS.items()}
    forge.add_argument(
        "--detector",
        choices=tuple(DETECTORS),
        help=f"detector prompt style (default {style[ForgeConfig.detector_template]})",
    )
    forge.add_argument(
        "--include-undetected",
        action="store_true",
        help="emit records whose perturbations never fooled the detector",
    )
    forge.add_argument(
        "--captioner-model",
        action="append",
        help="ensemble captioner model id (repeatable)",
    )
    _add_common_args(forge, ForgeConfig)
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
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    forge = args.command == "forge"
    # A config problem ends here, after the factory closes what it built.
    with ExitStack() as stack:
        try:
            if not forge and bool(args.dataset) == bool(args.caption):
                raise UsageError("provide either --caption with --image, or --dataset")
            if not forge and args.caption and not args.image:
                raise UsageError("--caption requires --image")
            config = _configure(args, stack)
        except (UsageError, HmgieError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            return _forge(args, config) if forge else _evaluate(args, config)
        except (HmgieError, OSError, ValueError) as exc:  # the run failed, not its config
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
