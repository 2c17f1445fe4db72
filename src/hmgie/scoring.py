"""Quantitative scores: level-weighted accuracy and completeness, detection
metrics over binary decisions, rank correlation, and n-gram overlap.

The two H-Scores weight levels by a normalized geometric sequence (default
ratio 1.2, deeper levels weighted more). Accuracy normalizes weights over the
levels actually reached, so it judges only the questions that were asked;
completeness normalizes over the configured maximum depth, so shallow
evaluations score low.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import add
from typing import Iterable, Optional, Sequence

from .errors import SchemaViolationError, require_positive, shown
from .hieg import LevelStats


MAX_LEVEL = 100  # the deepest evaluation a config may ask for


@dataclass(frozen=True)
class ScoringConfig:
    """Weight schedule and per-level question budgets."""

    weight_ratio: float = 1.2
    max_level: int = 5
    max_per_level: int | tuple[int, ...] = 10

    def __post_init__(self):
        require_positive(max_level=self.max_level)
        if self.max_level > MAX_LEVEL:
            raise SchemaViolationError(f"max_level must be <= {MAX_LEVEL}, got {self.max_level}")
        geometric_weights(self.max_level, self.weight_ratio)  # refuses a ratio it cannot use
        per_level = self.max_per_level
        if not isinstance(per_level, (tuple, list)):
            per_level = (per_level,) * self.max_level
        if len(per_level) != self.max_level:
            raise SchemaViolationError(
                f"max_per_level needs {self.max_level} entries, got {len(per_level)}"
            )
        for budget in per_level:
            require_positive(max_per_level=budget)
        object.__setattr__(self, "max_per_level", tuple(per_level))


def _total(values: Iterable[float]) -> float:
    """The sum of ``values``, added left to right as ``sum()`` adds floats
    before Python 3.12; 3.12's compensated ``sum()`` can move the last digit
    of a score, and so a report's bytes."""
    return reduce(add, values, 0)


def geometric_weights(count: int, ratio: float) -> tuple[float, ...]:
    """Normalized geometric weights ratio**i, shallowest level first. The
    ratio is an int or a float (not a bool), finite and > 0, whose weights
    fit in a float."""
    if not isinstance(ratio, (int, float)) or isinstance(ratio, bool):
        raise SchemaViolationError(f"weight_ratio must be an int or a float, got {shown(ratio)}")
    if not 0 < ratio < math.inf:
        raise SchemaViolationError(f"weight_ratio must be finite and > 0, got {shown(ratio)}")
    try:
        raw = [ratio**i for i in range(count)]
    except OverflowError:
        raw = [math.inf]
    if (total := _total(raw)) == math.inf:
        raise SchemaViolationError(f"weight_ratio {ratio} over {count} levels passes float range")
    return tuple(w / total for w in raw)


def compute_h_acc(stats: Sequence[LevelStats], config: ScoringConfig) -> float:
    """Confidence-weighted accuracy over realized levels.

    Each level contributes its mean of confidence * verdict, combined with
    geometric weights normalized over the populated levels only.
    """
    if not stats:
        raise SchemaViolationError("accuracy score needs at least one populated level")
    weights = geometric_weights(len(stats), config.weight_ratio)
    return _total(
        weight * (entry.correct_weighted_sum / entry.count)
        for weight, entry in zip(weights, stats)
    )


def compute_h_comp(counts: Sequence[int], config: ScoringConfig) -> float:
    """Question-volume score over the full configured depth.

    counts holds the realized question count per level (length <= max_level);
    unreached levels count zero. Weights normalize over all max_level levels.
    """
    budgets = config.max_per_level
    padded = list(counts) + [0] * (config.max_level - len(counts))
    for level, (n, cap) in enumerate(zip(padded, budgets, strict=True), start=1):
        if n > cap:
            raise SchemaViolationError(
                f"level {level} count {n} exceeds its budget {cap}"
            )
    weights = geometric_weights(config.max_level, config.weight_ratio)
    return _total(w * n / cap for w, n, cap in zip(weights, padded, budgets))


@dataclass(frozen=True)
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


@dataclass(frozen=True)
class MetricsSummary:
    """Detection rates; None marks a rate whose denominator was zero."""

    confusion: Confusion
    tpr: Optional[float]
    fpr: Optional[float]
    precision: Optional[float]
    f1: Optional[float]
    per_granularity: Optional[dict[int, "MetricsSummary"]] = None

    def to_dict(self) -> dict:
        payload = {
            "confusion": {
                "tp": self.confusion.tp,
                "fp": self.confusion.fp,
                "tn": self.confusion.tn,
                "fn": self.confusion.fn,
            },
            "tpr": self.tpr,
            "fpr": self.fpr,
            "precision": self.precision,
            "f1": self.f1,
        }
        if self.per_granularity is not None:
            payload["per_granularity"] = {
                str(g): summary.to_dict()
                for g, summary in sorted(self.per_granularity.items())
            }
        return payload


# The confusion cell of each (predicted, label) bit pair.
_CELLS = {(1, 1): "tp", (1, 0): "fp", (0, 0): "tn", (0, 1): "fn"}


def _count(pairs: Iterable[tuple[int, int]]) -> Confusion:
    """A pair that is not two bits has no cell, and raises KeyError."""
    return Confusion(**Counter(_CELLS[predicted, label] for predicted, label in pairs))


def _ratio(numerator: int, denominator: int) -> Optional[float]:
    return numerator / denominator if denominator > 0 else None


def _summarize(confusion: Confusion) -> MetricsSummary:
    tpr = _ratio(confusion.tp, confusion.tp + confusion.fn)
    fpr = _ratio(confusion.fp, confusion.fp + confusion.tn)
    precision = _ratio(confusion.tp, confusion.tp + confusion.fp)
    if precision is not None and tpr is not None and precision + tpr > 0:
        f1: Optional[float] = 2 * precision * tpr / (precision + tpr)
    else:
        f1 = None
    return MetricsSummary(confusion=confusion, tpr=tpr, fpr=fpr, precision=precision, f1=f1)


def detection_metrics(
    pairs: Sequence[tuple[int, int]],
    granularities: Optional[Sequence[Optional[int]]] = None,
) -> MetricsSummary:
    """Confusion counts and rates for (predicted, label) bit pairs.

    Bit 1 flags an inconsistent pair (the positive class). When a granularity
    sequence is supplied, a per-granularity breakdown is attached.
    """
    if not pairs:
        raise SchemaViolationError("detection metrics need at least one pair")
    summary = _summarize(_count(pairs))
    if granularities is None:
        return summary
    buckets: dict[int, list[tuple[int, int]]] = {}
    for pair, granularity in zip(pairs, granularities, strict=True):
        if granularity is not None:
            buckets.setdefault(int(granularity), []).append(pair)
    breakdown = {g: _summarize(_count(bucket)) for g, bucket in buckets.items()}
    return MetricsSummary(
        confusion=summary.confusion,
        tpr=summary.tpr,
        fpr=summary.fpr,
        precision=summary.precision,
        f1=summary.f1,
        per_granularity=breakdown,
    )


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected (tau-b) Kendall rank correlation.

    Raises:
        SchemaViolationError: sequences differ in length, fewer than two
            points, or all values tied in either sequence (tau-b undefined).
    """
    if len(x) != len(y):
        raise SchemaViolationError(f"length {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise SchemaViolationError("rank correlation needs at least two points")
    if len(set(x)) < 2 or len(set(y)) < 2:
        raise SchemaViolationError("all values tied; tau-b undefined")
    if any(value != value for value in (*x, *y)):
        raise SchemaViolationError("tau-b undefined for this input")
    # Knight's O(n log n) method: sort by (x, y), then count the swaps a
    # stable sort of the y column needs; each swap is one discordant pair.
    pairs = sorted(zip(x, y))
    ys, swaps = _sort_counting_swaps([b for _, b in pairs])
    total = len(pairs) * (len(pairs) - 1) // 2
    x_ties = _tied_pairs(a for a, _ in pairs)
    y_ties = _tied_pairs(ys)
    joint_ties = _tied_pairs(pairs)
    concordant_minus_discordant = total - x_ties - y_ties + joint_ties - 2 * swaps
    tau = concordant_minus_discordant / math.sqrt((total - x_ties) * (total - y_ties))
    return min(1.0, max(-1.0, tau))


def _tied_pairs(sorted_values) -> int:
    """Pairs of equal values in an already sorted sequence."""
    runs = (sum(1 for _ in run) for _, run in groupby(sorted_values))
    return sum(n * (n - 1) // 2 for n in runs)


def _sort_counting_swaps(values: list) -> tuple[list, int]:
    """Merge sort that also counts the inversions (strictly out-of-order pairs)."""
    if len(values) < 2:
        return values, 0
    middle = len(values) // 2
    left, swaps_left = _sort_counting_swaps(values[:middle])
    right, swaps_right = _sort_counting_swaps(values[middle:])
    merged = []
    swaps = swaps_left + swaps_right
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            merged.append(right[j])
            swaps += len(left) - i
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, swaps


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on whitespace and punctuation."""
    return _TOKEN_RE.findall(text.lower())


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f_measure: float
    too_short: bool = False


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap between candidate and reference texts.

    Either text having fewer than n tokens yields all-zero scores with the
    too_short flag set instead of an error.
    """
    require_positive(n=n)
    candidate_tokens = tokenize(candidate)
    reference_tokens = tokenize(reference)
    if len(candidate_tokens) < n or len(reference_tokens) < n:
        return RougeScore(0.0, 0.0, 0.0, too_short=True)
    candidate_counts = Counter(_ngrams(candidate_tokens, n))
    reference_counts = Counter(_ngrams(reference_tokens, n))
    overlap = sum((candidate_counts & reference_counts).values())
    precision = overlap / sum(candidate_counts.values())
    recall = overlap / sum(reference_counts.values())
    f_measure = (
        2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    return RougeScore(precision=precision, recall=recall, f_measure=f_measure)
