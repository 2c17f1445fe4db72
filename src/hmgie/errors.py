"""Exception hierarchy shared across the package."""

from __future__ import annotations

from typing import Optional


class HmgieError(Exception):
    """Base class for all package errors."""


# --- structured-output parsing ---

class MalformedOutputError(HmgieError):
    """No well-formed structured payload could be extracted from a model reply."""


class SchemaViolationError(HmgieError):
    """A structured payload was extracted but violates the expected schema."""


def require_positive(**values: int) -> None:
    """SchemaViolationError naming the first of ``values`` below 1."""
    for name, value in values.items():
        if value < 1:
            raise SchemaViolationError(f"{name} must be >= 1, got {value}")


class DuplicateNodeIdError(SchemaViolationError):
    """Two semantic-graph nodes share the same id."""


class DanglingEdgeError(SchemaViolationError):
    """A semantic-graph edge references a node id that does not exist."""


class UnknownElementError(HmgieError):
    """A coverage update names a node id or edge index absent from the mask."""


class EmptyBatchError(HmgieError):
    """A question-generation reply contained no usable question items."""


class MissingPlaceholderError(HmgieError):
    """A template substitution map does not cover every declared placeholder."""


class UnknownPlaceholderError(HmgieError):
    """A template substitution map contains keys the template does not declare."""


# --- evaluation graph ---

class LevelGapError(HmgieError):
    """An expansion batch does not target the next contiguous level."""


class UnknownParentError(HmgieError):
    """A question declares a parent id that is not an existing lower-level node."""


class DuplicateQuestionError(HmgieError):
    """A question's exact text already appears in the evaluation graph or batch."""


class EmptyHiegError(HmgieError):
    """Evaluation produced no questions at all; the decision is undefined."""


# --- model gateway ---

class GatewayError(HmgieError):
    """Base class for backend/transport failures."""


class UnsupportedRequestError(GatewayError):
    """A vision request was sent to a backend without vision support."""


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


# --- scoring ---

class NoLevelsError(HmgieError):
    """Accuracy scoring requires at least one populated level."""


class EmptyInputError(HmgieError):
    """Detection metrics require at least one prediction/label pair."""


class LengthMismatchError(HmgieError):
    """Paired sequences must have equal lengths."""


class DegenerateInputError(HmgieError):
    """Rank correlation is undefined (too few points or all values tied)."""


# --- pipeline / forge ---

class GraphGenFailedError(HmgieError):
    """Semantic graph generation failed on every configured attempt."""


class AllCaptionersFailedError(HmgieError):
    """Every captioner in the ensemble failed to produce a caption."""


class ForgeError(HmgieError):
    """A backend failure aborted the perturbation of one forge cell."""
