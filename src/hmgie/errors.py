"""Exception hierarchy shared across the package.

A class lives here only when a caller catches it by type or an artifact
names it (``summary.json`` rows, forge ``errors``); other package guards
raise SchemaViolationError with a message of their own (argument-shape
checks may raise ValueError).
"""

from __future__ import annotations

import sys
from typing import Optional


class HmgieError(Exception):
    """Base class for all package errors."""


# --- model replies and caller values ---

class MalformedOutputError(HmgieError):
    """No well-formed structured payload could be extracted from a model reply."""


class SchemaViolationError(HmgieError):
    """A value from a model reply or a caller breaks a shape or bound the
    package requires: a reply's schema, a graph or HIEG invariant, a
    template's placeholders, a score's inputs or a setting's range."""


def require_positive(**values: int) -> None:
    """SchemaViolationError naming the first of ``values`` that is not an int
    (a bool is not) from 1 to sys.maxsize."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool) or value > sys.maxsize:
            raise SchemaViolationError(f"{name} must be an int up to sys.maxsize, got {value!r}")
        if value < 1:
            raise SchemaViolationError(f"{name} must be >= 1, got {value}")


class EmptyBatchError(HmgieError):
    """A question-generation reply contained no usable question items."""


# --- model gateway ---

class GatewayError(HmgieError):
    """Base class for backend/transport failures."""


class AuthError(GatewayError):
    """The backend rejected the configured credentials."""


class ExhaustedError(GatewayError):
    """Retries were exhausted without obtaining a reply."""


class FixtureMissingError(ExhaustedError):
    """The scripted backend has no fixture for the request's cache key."""

    def __init__(self, key: str):
        super().__init__(f"no fixture recorded for request key {key}")
        self.key = key


class TransientBackendError(GatewayError):
    """Internal marker for failures worth retrying (HTTP 429/5xx/timeout).

    ``retry_after`` is the delay in seconds the server asked for, if any.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


# --- pipeline / forge ---

class EmptyHiegError(HmgieError):
    """Evaluation produced no questions at all; the decision is undefined."""


class GraphGenFailedError(HmgieError):
    """Semantic graph generation failed on every configured attempt."""


class AllCaptionersFailedError(HmgieError):
    """Every captioner in the ensemble failed to produce a caption."""


class ForgeError(HmgieError):
    """A backend failure aborted the perturbation of one forge cell."""
