import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgie.errors import SchemaViolationError
from hmgie.hieg import LevelStats
from hmgie.scoring import (
    ScoringConfig,
    compute_h_acc,
    compute_h_comp,
    detection_metrics,
    geometric_weights,
    kendall_tau,
    rouge_n,
    tokenize,
)

# --- independent oracles -------------------------------------------------


def oracle_h_acc(per_level_cy: list[list[tuple[float, int]]], ratio: float) -> float:
    """Direct re-implementation: weighted mean of confidence*verdict per level."""
    big_l = len(per_level_cy)
    raw = [ratio**j for j in range(big_l)]
    total = 0.0
    for j, level in enumerate(per_level_cy):
        inner = sum(c * y for c, y in level) / len(level)
        total += (raw[j] / sum(raw)) * inner
    return total


def oracle_h_comp(counts: list[int], budgets: list[int], ratio: float) -> float:
    big_k = len(budgets)
    raw = [ratio**j for j in range(big_k)]
    padded = counts + [0] * (big_k - len(counts))
    return sum((raw[j] / sum(raw)) * padded[j] / budgets[j] for j in range(big_k))


def oracle_tau_b(x, y) -> float:
    """O(n^2) pair counting with tie correction."""
    concordant = discordant = only_x_tied = only_y_tied = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                only_x_tied += 1
            elif dy == 0:
                only_y_tied += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt(
        (concordant + discordant + only_x_tied)
        * (concordant + discordant + only_y_tied)
    )
    return (concordant - discordant) / denom


def oracle_rouge(candidate: str, reference: str, n: int):
    """Exhaustive greedy n-gram multiset matching."""
    def grams(text):
        tokens = tokenize(text)
        return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]

    cand, ref = grams(candidate), grams(reference)
    pool = list(ref)
    overlap = 0
    for gram in cand:
        if gram in pool:
            pool.remove(gram)
            overlap += 1
    precision = overlap / len(cand)
    recall = overlap / len(ref)
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def stats_from(per_level_cy) -> list[LevelStats]:
    return [
        LevelStats(
            level=j + 1,
            count=len(level),
            correct_weighted_sum=sum(c * y for c, y in level),
        )
        for j, level in enumerate(per_level_cy)
    ]


# --- H-Scores -------------------------------------------------------------


class TestHAcc:
    def test_all_correct_is_one(self):
        for depth in (1, 3, 5):
            stats = [LevelStats(j + 1, 4, 4.0) for j in range(depth)]
            value = compute_h_acc(stats, ScoringConfig(max_level=5))
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_single_level_half(self):
        stats = [LevelStats(1, 2, 1.0)]  # y=[1,0], c=[1,1]
        assert compute_h_acc(stats, ScoringConfig()) == pytest.approx(0.5)

    def test_two_level_derived_value(self):
        # level means 0.5 and 0.8 with weights (1, 1.2)/2.2
        stats = [LevelStats(1, 2, 1.0), LevelStats(2, 1, 0.8)]
        value = compute_h_acc(stats, ScoringConfig())
        assert value == pytest.approx(1.46 / 2.2, abs=1e-12)
        assert value == pytest.approx(0.66363636363, abs=1e-9)

    def test_no_levels(self):
        with pytest.raises(
            SchemaViolationError, match="^accuracy score needs at least one populated level$"
        ):
            compute_h_acc([], ScoringConfig())

    def test_matches_oracle_on_random_hiegs(self):
        rng = random.Random(5)
        for _ in range(500):
            depth = rng.randint(1, 5)
            per_level = [
                [(rng.random(), rng.randint(0, 1)) for _ in range(rng.randint(1, 10))]
                for _ in range(depth)
            ]
            ratio = rng.choice([0.8, 1.0, 1.2, 2.0])
            config = ScoringConfig(weight_ratio=ratio, max_level=5)
            assert compute_h_acc(stats_from(per_level), config) == pytest.approx(
                oracle_h_acc(per_level, ratio), abs=1e-12
            )


class TestHComp:
    def test_zero_questions(self):
        assert compute_h_comp([], ScoringConfig()) == 0.0

    def test_full_budget_is_one(self):
        config = ScoringConfig(max_level=5, max_per_level=10)
        assert compute_h_comp([10] * 5, config) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_derived_value(self):
        config = ScoringConfig(max_level=2, max_per_level=(4, 4))
        value = compute_h_comp([2, 4], config)
        assert value == pytest.approx((1 / 2.2) * 0.5 + (1.2 / 2.2) * 1.0, abs=1e-12)
        assert value == pytest.approx(0.77272727272, abs=1e-9)

    def test_count_above_budget_rejected(self):
        with pytest.raises(SchemaViolationError):
            compute_h_comp([11], ScoringConfig(max_level=1, max_per_level=10))

    def test_matches_oracle(self):
        rng = random.Random(6)
        for _ in range(500):
            big_k = rng.randint(1, 6)
            budgets = [rng.randint(1, 12) for _ in range(big_k)]
            depth = rng.randint(0, big_k)
            counts = [rng.randint(0, budgets[j]) for j in range(depth)]
            ratio = rng.choice([0.5, 1.0, 1.2, 3.0])
            config = ScoringConfig(
                weight_ratio=ratio, max_level=big_k, max_per_level=tuple(budgets)
            )
            assert compute_h_comp(counts, config) == pytest.approx(
                oracle_h_comp(counts, budgets, ratio), abs=1e-12
            )


@pytest.mark.parametrize(
    "ratio", [math.inf, math.nan, True, Decimal("1.2"), Fraction(6, 5), "1.2"]
)
def test_weight_ratio_must_be_finite(ratio):
    with pytest.raises(SchemaViolationError):
        ScoringConfig(weight_ratio=ratio)
    with pytest.raises(SchemaViolationError):
        geometric_weights(3, ratio)


class TestWeights:
    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_normalization(self, count, ratio):
        weights = geometric_weights(count, ratio)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert all(w > 0 for w in weights)

    @settings(max_examples=200)
    @given(st.data())
    def test_h_acc_monotone_in_verdicts(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        depth = rng.randint(1, 5)
        per_level = [
            [(rng.random(), rng.randint(0, 1)) for _ in range(rng.randint(1, 6))]
            for _ in range(depth)
        ]
        config = ScoringConfig()
        base = compute_h_acc(stats_from(per_level), config)
        level_idx = rng.randrange(depth)
        item_idx = rng.randrange(len(per_level[level_idx]))
        c, y = per_level[level_idx][item_idx]
        if y == 1:
            return
        per_level[level_idx][item_idx] = (c, 1)
        flipped = compute_h_acc(stats_from(per_level), config)
        assert flipped >= base - 1e-15

    @settings(max_examples=200)
    @given(st.data())
    def test_h_comp_monotone_in_counts(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        big_k = rng.randint(1, 6)
        budgets = tuple(rng.randint(1, 8) for _ in range(big_k))
        counts = [rng.randint(0, budgets[j]) for j in range(big_k)]
        config = ScoringConfig(max_level=big_k, max_per_level=budgets)
        base = compute_h_comp(counts, config)
        grow = rng.randrange(big_k)
        if counts[grow] >= budgets[grow]:
            return
        counts[grow] += 1
        assert compute_h_comp(counts, config) >= base - 1e-15

    @settings(max_examples=200)
    @given(st.data())
    def test_scores_stay_in_unit_interval(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        depth = rng.randint(1, 5)
        per_level = [
            [(rng.random(), rng.randint(0, 1)) for _ in range(rng.randint(1, 10))]
            for _ in range(depth)
        ]
        config = ScoringConfig()
        assert 0.0 <= compute_h_acc(stats_from(per_level), config) <= 1.0
        counts = [len(level) for level in per_level]
        assert 0.0 <= compute_h_comp(counts, config) <= 1.0


# --- detection metrics ----------------------------------------------------


def pairs_from_confusion(tp, fn, fp, tn):
    return (
        [(1, 1)] * tp + [(0, 1)] * fn + [(1, 0)] * fp + [(0, 0)] * tn
    )


class TestDetectionMetrics:
    def test_perfect(self):
        summary = detection_metrics(pairs_from_confusion(tp=2, fn=0, fp=0, tn=2))
        assert summary.tpr == 1.0
        assert summary.fpr == 0.0
        assert summary.f1 == 1.0

    def test_hand_confusion(self):
        summary = detection_metrics(pairs_from_confusion(tp=3, fn=1, fp=2, tn=4))
        assert summary.tpr == pytest.approx(0.75)
        assert summary.fpr == pytest.approx(1 / 3)
        assert summary.precision == pytest.approx(0.6)
        assert summary.f1 == pytest.approx(2 * 0.6 * 0.75 / 1.35)

    @pytest.mark.parametrize(
        "tpr_pct,fpr_pct,f1_pct",
        [
            (97.65, 2.35, 97.65),
            (96.71, 8.24, 94.37),
            (94.12, 12.94, 90.91),
            (91.29, 16.24, 87.98),
            (94.94, 9.94, 92.68),
        ],
    )
    def test_balanced_class_f1_consistency(self, tpr_pct, fpr_pct, f1_pct):
        # balanced classes: 10000 positives and 10000 negatives
        population = 10000
        tp = round(tpr_pct / 100 * population)
        fp = round(fpr_pct / 100 * population)
        summary = detection_metrics(
            pairs_from_confusion(tp=tp, fn=population - tp, fp=fp, tn=population - fp)
        )
        assert summary.f1 * 100 == pytest.approx(f1_pct, abs=0.1)

    def test_empty_input_rejected(self):
        with pytest.raises(
            SchemaViolationError, match="^detection metrics need at least one pair$"
        ):
            detection_metrics([])

    def test_zero_denominators_reported_none(self):
        summary = detection_metrics([(0, 0), (1, 0)])  # no positives labeled
        assert summary.tpr is None
        assert summary.fpr == pytest.approx(0.5)

    def test_identities_on_random_confusions(self):
        rng = random.Random(9)
        for _ in range(300):
            tp, fn, fp, tn = (rng.randint(0, 20) for _ in range(4))
            if tp + fn + fp + tn == 0:
                continue
            summary = detection_metrics(pairs_from_confusion(tp, fn, fp, tn))
            confusion = summary.confusion
            assert (confusion.tp, confusion.fn, confusion.fp, confusion.tn) == (tp, fn, fp, tn)
            if tp + fn:
                assert summary.tpr == pytest.approx(tp / (tp + fn))
            else:
                assert summary.tpr is None
            if fp + tn:
                assert summary.fpr == pytest.approx(fp / (fp + tn))
            else:
                assert summary.fpr is None
            if summary.precision is not None and summary.tpr is not None:
                if summary.precision + summary.tpr > 0:
                    expected = (
                        2 * summary.precision * summary.tpr
                        / (summary.precision + summary.tpr)
                    )
                    assert summary.f1 == pytest.approx(expected)

    def test_per_granularity_breakdown(self):
        pairs = [(1, 1), (0, 0), (0, 1), (1, 0)]
        granularities = [1, 1, 2, 2]
        summary = detection_metrics(pairs, granularities)
        assert set(summary.per_granularity) == {1, 2}
        assert summary.per_granularity[1].tpr == 1.0
        assert summary.per_granularity[2].tpr == 0.0


# --- Kendall tau ----------------------------------------------------------


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_example_matches_oracle(self):
        x, y = [1, 2, 3, 4], [1, 3, 2, 4]
        assert kendall_tau(x, y) == pytest.approx(oracle_tau_b(x, y), abs=1e-12)
        assert kendall_tau(x, y) == pytest.approx(4 / 6)

    def test_length_mismatch(self):
        with pytest.raises(SchemaViolationError, match="^length 2 vs 3$"):
            kendall_tau([1, 2], [1, 2, 3])

    def test_degenerate_all_ties(self):
        with pytest.raises(SchemaViolationError, match="^all values tied; tau-b undefined$"):
            kendall_tau([1, 1, 1], [1, 2, 3])
        with pytest.raises(SchemaViolationError, match="^all values tied; tau-b undefined$"):
            kendall_tau([1, 2, 3], [7, 7, 7])
        with pytest.raises(
            SchemaViolationError, match="^rank correlation needs at least two points$"
        ):
            kendall_tau([1], [1])

    def test_symmetry_and_self_correlation(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 12)
            x = [rng.randint(0, 5) for _ in range(n)]
            y = [rng.randint(0, 5) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_tau(x, y) == pytest.approx(kendall_tau(y, x), abs=1e-12)
            assert kendall_tau(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_with_ties(self):
        rng = random.Random(4)
        for _ in range(400):
            n = rng.randint(2, 15)
            x = [rng.randint(0, 6) for _ in range(n)]  # tie-heavy, Likert-like
            y = [rng.randint(0, 6) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_tau(x, y) == pytest.approx(oracle_tau_b(x, y), abs=1e-12)


# --- ROUGE ----------------------------------------------------------------


VOCAB = ["red", "car", "dog", "park", "tree", "blue", "sky", "runs", "the", "a"]


class TestRouge:
    def test_identical_texts(self):
        text = "a red car drives past the tall green tree"
        score = rouge_n(text, text, 4)
        assert score.f_measure == 1.0
        assert not score.too_short

    def test_no_shared_fourgram(self):
        score = rouge_n(
            "a red car drives past the tree",
            "two dogs sleep under blue skies today",
            4,
        )
        assert score.f_measure == 0.0
        assert not score.too_short

    def test_hand_pair_matches_oracle(self):
        candidate = "the red car the red car stops"
        reference = "a red car stops near the red car"
        for n in (1, 2, 3):
            score = rouge_n(candidate, reference, n)
            p, r, f = oracle_rouge(candidate, reference, n)
            assert score.precision == pytest.approx(p, abs=1e-12)
            assert score.recall == pytest.approx(r, abs=1e-12)
            assert score.f_measure == pytest.approx(f, abs=1e-12)

    @pytest.mark.parametrize("n", [0, True, 2.0])
    def test_n_must_be_a_count(self, n):
        with pytest.raises(SchemaViolationError, match="n must be"):
            rouge_n("a red car", "a red car", n)

    def test_too_short(self):
        score = rouge_n("one two three", "one two three four", 4)
        assert score.too_short
        assert score.f_measure == 0.0

    def test_tokenization_strips_punctuation_and_case(self):
        assert tokenize("The RED car, stopped!") == ["the", "red", "car", "stopped"]

    def test_matches_oracle_on_random_texts(self):
        rng = random.Random(8)
        for _ in range(400):
            n = rng.randint(1, 4)
            candidate = " ".join(rng.choices(VOCAB, k=rng.randint(1, 12)))
            reference = " ".join(rng.choices(VOCAB, k=rng.randint(1, 12)))
            score = rouge_n(candidate, reference, n)
            if len(tokenize(candidate)) < n or len(tokenize(reference)) < n:
                assert score.too_short
                continue
            p, r, f = oracle_rouge(candidate, reference, n)
            assert score.precision == pytest.approx(p, abs=1e-12)
            assert score.recall == pytest.approx(r, abs=1e-12)
            assert score.f_measure == pytest.approx(f, abs=1e-12)
