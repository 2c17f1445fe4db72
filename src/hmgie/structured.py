"""Tolerant extraction of structured payloads from model replies.

Models frequently wrap the JSON they were asked for in code fences or
surrounding prose; every parser in this package goes through
:func:`extract_json_value`, which returns the first JSON object (or array)
that the standard library's decoder accepts at a ``{`` or ``[`` of the reply.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring as _quote
from typing import Any, Iterator

from .errors import MalformedOutputError

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n(.*?)```", re.DOTALL)
_START_RE = re.compile(r"[{\[]")
_DECODER = json.JSONDecoder()

# Candidate starts one reply may have rejected before the search gives up.
# Each rejection costs the decoder a scan up to its start (for the error's
# line and column), so this keeps a hostile reply's cost linear in its length.
MAX_REJECTED_STARTS = 64


def _candidates(raw: str) -> Iterator[tuple[str, int]]:
    """Every ``{`` or ``[`` of the fenced blocks, in order, then of the reply."""
    for fence in _FENCE_RE.finditer(raw):
        block = fence.group(1)
        for start in _START_RE.finditer(block):
            yield block, start.start()
    for start in _START_RE.finditer(raw):
        yield raw, start.start()


def extract_json_value(raw: str) -> Any:
    """Extract the first well-formed JSON object or array embedded in raw.

    Fenced blocks are searched first so that prose containing stray braces
    does not shadow the actual payload. The search stops after
    MAX_REJECTED_STARTS candidate starts failed to decode, counted over the
    fenced blocks and the reply together.

    Raises:
        MalformedOutputError: nothing parseable was found within the budget,
            or the reply nests too deeply or holds too long an integer.
    """
    if not raw or not raw.strip():
        raise MalformedOutputError("empty model reply")
    rejected = 0
    try:
        for text, start in _candidates(raw):
            try:
                return _DECODER.raw_decode(text, start)[0]
            except json.JSONDecodeError:
                rejected += 1
                if rejected == MAX_REJECTED_STARTS:
                    break
    except RecursionError as exc:
        raise MalformedOutputError("model reply nests too deeply to parse") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise MalformedOutputError(f"model reply holds a number too long to parse: {exc}") from exc
    raise MalformedOutputError("no balanced JSON object or array found in model reply")


def prompt_json(value: Any) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` for values built
    from None, bool, int, str, list and str-keyed dict; strings are quoted by
    json.dumps's C escaper, not the pure-Python encoder ``indent`` forces."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, list):
        items, brackets = [prompt_json(item) for item in value], "[]"
    elif isinstance(value, dict):
        items, brackets = [_quote(k) + ": " + prompt_json(v) for k, v in value.items()], "{}"
    else:
        raise TypeError(f"prompt_json cannot write a {type(value).__name__}")
    body = ",\n".join(items).replace("\n", "\n  ")  # no quoted string holds a newline
    return f"{brackets[0]}\n  {body}\n{brackets[1]}" if items else brackets
