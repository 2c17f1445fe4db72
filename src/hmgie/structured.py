"""Tolerant extraction of structured payloads from model replies.

Models frequently wrap the JSON they were asked for in code fences or
surrounding prose; every parser in this package goes through
:func:`extract_json_value`, which pulls out the first balanced, well-formed
JSON object (or array) it can find.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .errors import MalformedOutputError

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n(.*?)```", re.DOTALL)
_OPENERS = {"{": "}", "[": "]"}


def _scan_balanced(text: str, start: int) -> int | None:
    """Return the end index (exclusive) of the balanced bracket span at start."""
    opener = text[start]
    closer = _OPENERS[opener]
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == opener:
            depth += 1
        elif ch == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def _first_value(text: str) -> Any | None:
    for i, ch in enumerate(text):
        if ch not in _OPENERS:
            continue
        end = _scan_balanced(text, i)
        if end is None:
            continue
        try:
            return json.loads(text[i:end])
        except json.JSONDecodeError:
            continue
    return None


def extract_json_value(raw: str) -> Any:
    """Extract the first well-formed JSON object or array embedded in raw.

    Fenced blocks are searched first so that prose containing stray braces
    does not shadow the actual payload.

    Raises:
        MalformedOutputError: nothing parseable was found, or the reply
            nests deeper than the JSON decoder's recursion limit.
    """
    if not raw or not raw.strip():
        raise MalformedOutputError("empty model reply")
    try:
        for fenced in _FENCE_RE.findall(raw):
            value = _first_value(fenced)
            if value is not None:
                return value
        value = _first_value(raw)
    except RecursionError as exc:
        raise MalformedOutputError("model reply nests too deeply to parse") from exc
    if value is None:
        raise MalformedOutputError(
            "no balanced JSON object or array found in model reply"
        )
    return value
