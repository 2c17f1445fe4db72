"""Seeded inputs for the hmgie benchmark and the model that answers them.

A workload is one round of items (image-caption pairs, or forge cells) that
the benchmark repeats for as long as a run lasts. The shape of a round is
fixed: graph sizes, depths, question counts per level, which questions are
judged wrong, image sizes and the forge evasion schedule. The seed only picks
the words, the image bytes, the confidences and the order of items, and every
word it picks has six letters. So the prompt bytes and the number of model
calls of a round are the same for every seed, while the content differs.

``Responder`` plays the model: given a prompt (and, for vision requests, the
first bytes of the image) it returns the reply planted for that request. The
in-process recording backend and the HTTP stub both use it, so the planted
labels are known to the checks without asking the program.
"""

from __future__ import annotations

import json
import random
import re
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

NOUNS = (
    "basket bottle candle carpet cactus rabbit guitar helmet jacket kettle ladder "
    "lizard mirror pillow pencil saddle teapot tunnel violin wallet anchor barrel "
    "beaver bucket button camera cannon cheese cookie donkey falcon garden hammer "
    "magnet muffin napkin orange parrot pepper pickle puppet quiver rocket salmon "
    "spider statue tomato turtle window"
).split()
ADJECTIVES = (
    "purple yellow wooden golden silver frosty smooth shabby rugged velvet marble "
    "bright shaded rustic modern glossy sturdy dented rusted spotty fluffy grassy "
    "cloudy chubby coarse curved dainty dotted frozen gloomy hollow narrow padded "
    "shaggy silken sleepy soaked sparse spiked stormy sunlit tinted wicker winged "
    "woolen"
).split()
assert all(len(word) == 6 for word in NOUNS + ADJECTIVES)

NODE_KINDS = ("Entity", "Attribute", "Location", "Event")
EDGE_KINDS = ("Action", "Spatial", "Has Attribute", "Part Of", "Quantity")
EDGE_VERBS = ("holds", "below", "tinted", "within", "counts")

# Injected stub latency per role, in milliseconds.
LATENCY_MS = {
    "graph": 25,
    "question": 20,
    "vqa": 15,
    "eval": 10,
    "coverage": 10,
    "explain": 20,
    "caption": 20,
    "fusion": 15,
    "perturb": 15,
    "detector": 20,
}

# Prompt prefixes that identify each role; they are the first words of the
# package templates and of the forge prompts.
ROLE_PREFIXES = (
    ("Your task is to parse", "graph"),
    ("You are a specialized question generator", "question"),
    ("You are an advanced AI assistant specialized in visual question", "vqa"),
    ("You are a question answer evaluator", "eval"),
    ("You are an AI assistant responsible for detecting", "coverage"),
    ("You are an AI assistant responsible for generating", "explain"),
    ("Describe the image for a captioning dataset", "caption"),
    ("You are given several candidate captions", "fusion"),
    ("You are constructing hard negative captions", "perturb"),
    ("Does the image match the given caption?", "detector"),
)

CAPTIONER_MODELS = ("captioner-a", "captioner-b", "captioner-c")
FORGE_MAX_ITER = 5
# Lower word bound of each default granularity spec -> its level.
GRANULARITY_BY_LOW = {6: 1, 15: 2, 26: 3, 45: 4}
FORGE_WORDS = {1: 10, 2: 24, 3: 40, 4: 64}

# The item that meets the retry fault: a fixed caption on a fixed image, so
# it fails the same way for every seed until graph retries reach the model.
FAULT_PID = 9999
FAULT_IMAGE_ID = 9999
FAULT_IMAGE_BYTES = 2048
MALFORMED_GRAPH = '{"nodes": [{"id": "N1", "type": "Entity", "label": "photo'


def role_of(prompt: str) -> str:
    for prefix, role in ROLE_PREFIXES:
        if prompt.startswith(prefix):
            return role
    return "unknown"


@dataclass
class Question:
    text: str
    fact: str
    expected: str
    answer: str
    confidence: float
    correct: bool
    parents: list[str]
    nodes: list[str]
    edges: list[int]


@dataclass
class Pair:
    """One image-caption pair and everything the model will say about it."""

    pid: int
    image_id: int
    caption: str
    label: int  # dataset ground truth: 1 marks an inconsistent pair
    granularity: int
    nodes: list[tuple[str, str, str]]
    edges: list[tuple[str, str, str, str, str]]
    levels: list[list[Question]]
    style: int
    fault: bool = False

    @property
    def decision(self) -> int:
        return int(all(q.correct for level in self.levels for q in level))

    @property
    def counts(self) -> list[int]:
        return [len(level) for level in self.levels]


@dataclass
class Cell:
    """One forge (image, granularity) cell and its planted evasion iteration."""

    cid: int
    image_id: int
    granularity: int
    drafts: list[str]
    truth: str
    variants: list[str]
    evade_at: Optional[int]  # None: the detector is never fooled

    @property
    def iterations(self) -> int:
        return self.evade_at if self.evade_at is not None else FORGE_MAX_ITER


@dataclass
class Image:
    image_id: int
    size: int
    kind: str  # png | jpeg

    @property
    def name(self) -> str:
        suffix = "png" if self.kind == "png" else "jpg"
        return f"img{self.image_id:04d}.{suffix}"


@dataclass
class Workload:
    name: str
    mode: str  # replay | live | forge
    images: list[Image]
    pairs: list[Pair] = field(default_factory=list)
    cells: list[Cell] = field(default_factory=list)
    clients: list[list[int]] = field(default_factory=list)  # item indices per client
    intra_level_parallelism: Optional[int] = 1  # None: the program's default

    @property
    def items(self) -> list:
        return self.pairs or self.cells


def image_bytes(image: Image, seed: int) -> bytes:
    """Image payload with valid magic bytes and its id at offset 8."""
    magic = b"\x89PNG\r\n\x1a\n" if image.kind == "png" else b"\xff\xd8\xff\xe0\x00\x10JF"
    tag = b"BENCHIMG%04d" % image.image_id
    if image.image_id == FAULT_IMAGE_ID:
        body = bytes(range(256)) * (image.size // 256 + 1)
    else:
        body = random.Random(f"image:{seed}:{image.image_id}").randbytes(image.size)
    return (magic + tag + body)[: image.size]


def image_id_of(head: bytes) -> Optional[int]:
    match = re.match(rb"BENCHIMG(\d{4})", head[8:20])
    return int(match.group(1)) if match else None


def _wrap(text: str, style: int) -> str:
    """Wrap a JSON reply the way models do: bare, fenced, or inside prose."""
    if style % 3 == 1:
        return f"```json\n{text}\n```"
    if style % 3 == 2:
        return f"Here is the requested output.\n{text}\nEnd of output."
    return text


def make_pair(
    rng: random.Random,
    pid: int,
    image_id: int,
    n_nodes: int,
    n_edges: int,
    counts: list[int],
    label: int,
    decision: int,
    granularity: int,
    style: int,
    shared: Optional[tuple[str, str, float]] = None,
    fault: bool = False,
) -> Pair:
    """Build one pair whose shape depends only on the arguments, not on rng.

    shared, when given, is (question text, answer, confidence) of a level-1
    question that every caption of the same image asks, so its VQA request
    repeats.
    """
    tag = f"p{pid:04d}"
    nodes = [("N1", "Concept", f"photo {tag}")]
    for index in range(2, n_nodes + 1):
        kind = NODE_KINDS[index % len(NODE_KINDS)]
        word = rng.choice(ADJECTIVES if kind == "Attribute" else NOUNS)
        nodes.append((f"N{index}", kind, word))
    caption = f"Photo {tag} shows: " + " ".join(label for _, _, label in nodes[1:]) + "."
    edges = []
    for j in range(n_edges):
        a = j % n_nodes
        b = (j * 7 + 3) % n_nodes
        if a == b:
            b = (b + 1) % n_nodes
        verb = EDGE_VERBS[j % len(EDGE_VERBS)]
        from_label, to_label = nodes[a][2], nodes[b][2]
        edges.append(
            (
                nodes[a][0],
                nodes[b][0],
                EDGE_KINDS[j % len(EDGE_KINDS)],
                f"{verb} {to_label}",
                f"The {from_label} {verb} the {to_label}.",
            )
        )

    elements = [("node", node[0]) for node in nodes] + [("edge", j) for j in range(n_edges)]
    total_questions = sum(counts)
    wrong = (min(3, len(counts)) - 1, counts[min(3, len(counts)) - 1] - 1)
    levels: list[list[Question]] = []
    ordinal = 0
    for level, count in enumerate(counts, start=1):
        questions = []
        for j in range(count):
            lo = ordinal * len(elements) // total_questions
            hi = (ordinal + 1) * len(elements) // total_questions
            covered = elements[lo:hi]
            ordinal += 1
            noun, adj = rng.choice(NOUNS), rng.choice(ADJECTIVES)
            if shared is not None and level == 1 and j == 0:
                text, answer, confidence = shared
            else:
                other = rng.choice(NOUNS)
                text = f"L{level}.{j:02d} {tag}: is there a {adj} {noun} near the {other}?"
                answer = f"{adj} {noun}"
                confidence = round(rng.uniform(0.5, 1.0), 2)
            parents = [] if level == 1 else [f"Q{level - 1}.{j % counts[level - 2] + 1}"]
            questions.append(
                Question(
                    text=text,
                    fact=f"{tag} has a {adj} {noun}",
                    expected=f"{adj} {noun} ({tag})",
                    answer=answer,
                    confidence=confidence,
                    correct=not (decision == 0 and (level - 1, j) == wrong),
                    parents=parents,
                    nodes=[e for k, e in covered if k == "node"],
                    edges=[e for k, e in covered if k == "edge"],
                )
            )
        levels.append(questions)
    return Pair(
        pid=pid,
        image_id=image_id,
        caption=caption,
        label=label,
        granularity=granularity,
        nodes=nodes,
        edges=edges,
        levels=levels,
        style=style,
        fault=fault,
    )


# (label, decision) of the items of one round: true negatives, true
# positives, two false positives and one false negative.
OUTCOMES_16 = [(0, 1)] * 7 + [(1, 0)] * 6 + [(0, 0)] * 2 + [(1, 1)]
OUTCOMES_4 = [(0, 1), (1, 0), (0, 0), (1, 1)]


def _replay_deep(rng: random.Random, quick: bool) -> Workload:
    n = 4 if quick else 16
    outcomes = OUTCOMES_4 if quick else OUTCOMES_16
    tables = ([8, 10, 9, 10, 8], [10, 9, 10, 8, 10], [9, 8, 10, 10, 9], [10, 10, 8, 9, 10])
    images = [Image(image_id=i, size=96, kind="png") for i in range(n)]
    shapes = [(tables[i % 4], outcomes[i], 1 + i % 4) for i in range(n)]
    rng.shuffle(shapes)
    pairs = [
        make_pair(rng, i, i, 40, 50, counts, label, decision, gran, style=i)
        for i, (counts, (label, decision), gran) in enumerate(shapes)
    ]
    return Workload("replay-deep", "replay", images, pairs=pairs, clients=[list(range(n))])


def _replay_large_image(rng: random.Random, quick: bool) -> Workload:
    n_images = 2 if quick else 8
    outcomes = OUTCOMES_4 if quick else OUTCOMES_16
    tables = ([2, 3], [3, 2], [2, 2], [3, 3])
    images = [
        Image(image_id=i, size=(i + 1) * 1024 * 1024, kind="png" if i % 2 == 0 else "jpeg")
        for i in range(n_images)
    ]
    shapes = [
        (i // 2, tables[i % 4], outcomes[i], 1 + i % 4) for i in range(2 * n_images)
    ]
    rng.shuffle(shapes)
    pairs = [
        make_pair(rng, i, image, 4, 3, counts, label, decision, gran, style=i)
        for i, (image, counts, (label, decision), gran) in enumerate(shapes)
    ]
    order = list(range(len(pairs)))
    return Workload(
        "replay-large-image", "replay", images, pairs=pairs, clients=[order]
    )


def _live_record(rng: random.Random, quick: bool) -> Workload:
    n_groups = 1 if quick else 4
    outcomes = OUTCOMES_4 if quick else OUTCOMES_16
    depth_tables = ([3], [3, 2], [2, 3, 2], [2, 2, 3, 2, 2])
    images = [
        Image(image_id=g, size=(150 + 150 * g) * 1024, kind="jpeg" if g % 2 else "png")
        for g in range(n_groups)
    ]
    pairs: list[Pair] = []
    clients: list[list[int]] = [[], []]
    for g in range(n_groups):
        noun = rng.choice(NOUNS)
        shared = (
            f"L1.00 i{g:04d}: which object is at the center of this scene?",
            f"{rng.choice(ADJECTIVES)} {noun}",
            round(rng.uniform(0.5, 1.0), 2),
        )
        slots = list(range(4))
        rng.shuffle(slots)
        for slot in slots:
            pid = len(pairs)
            label, decision = outcomes[4 * g + slot]
            pairs.append(
                make_pair(
                    rng, pid, g, 10, 8, list(depth_tables[slot]), label, decision,
                    1 + slot, style=pid, shared=shared,
                )
            )
            clients[g % 2].append(pid)
    fault_rng = random.Random("retry-fault")
    fault = make_pair(
        fault_rng, FAULT_PID, FAULT_IMAGE_ID, 6, 5, [2, 2], 0, 1, 1, style=0, fault=True
    )
    images.append(Image(image_id=FAULT_IMAGE_ID, size=FAULT_IMAGE_BYTES, kind="png"))
    clients[1].append(len(pairs))
    pairs.append(fault)
    return Workload(
        "live-record", "live", images, pairs=pairs, clients=clients,
        intra_level_parallelism=None,
    )


# Per granularity, the two evasion iterations that each client's two images
# share out; None means the detector is never fooled.
EVASION = {1: (1, None), 2: (2, 4), 3: (3, 5), 4: (None, 2)}


def _forge_live(rng: random.Random, quick: bool) -> Workload:
    n_images = 2 if quick else 4
    images = [
        Image(image_id=i, size=(100 + 100 * i) * 1024, kind="png" if i % 2 == 0 else "jpeg")
        for i in range(n_images)
    ]
    swaps = {(c, g): rng.random() < 0.5 for c in range(2) for g in EVASION}
    cells: list[Cell] = []
    clients: list[list[int]] = [[], []]
    for image in images:
        client, first = divmod(image.image_id, 2)
        for g in (1, 2, 3, 4):
            a, b = EVASION[g]
            evade_at = a if bool(first) != swaps[(client, g)] else b
            words = [rng.choice(NOUNS if k % 2 else ADJECTIVES) for k in range(FORGE_WORDS[g])]
            truth = f"Image i{image.image_id:04d} at tier {g}: " + " ".join(words) + "."
            drafts = [f"{truth} Draft {k}." for k in range(len(CAPTIONER_MODELS))]
            variants = []
            for k in range(FORGE_MAX_ITER):
                changed = list(words)
                changed[k] = rng.choice([w for w in NOUNS if w != words[k]])
                variants.append(
                    f"Image i{image.image_id:04d} at tier {g}: " + " ".join(changed) + "."
                )
            clients[client].append(len(cells))
            cells.append(
                Cell(len(cells), image.image_id, g, drafts, truth, variants, evade_at)
            )
    for order in clients:
        rng.shuffle(order)
    return Workload(
        "forge-live", "forge", images, cells=cells, clients=clients,
        intra_level_parallelism=None,
    )


WORKLOADS = {
    "replay-deep": _replay_deep,
    "replay-large-image": _replay_large_image,
    "live-record": _live_record,
    "forge-live": _forge_live,
}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), quick)


def _between(text: str, start: str, end: str) -> str:
    begin = text.index(start) + len(start)
    return text[begin : text.index(end, begin)]


class Responder:
    """The planted model: maps each prompt of a workload to its reply."""

    def __init__(self, workload: Workload):
        self._lock = threading.Lock()
        self._graph_requests: Counter[str] = Counter()
        self.by_caption = {pair.caption: pair for pair in workload.pairs}
        self.by_pid = {pair.pid: pair for pair in workload.pairs}
        self.answers: dict[str, tuple[str, float]] = {}
        self.verdicts: dict[tuple[str, str], bool] = {}
        for pair in workload.pairs:
            for level in pair.levels:
                for q in level:
                    self.answers[q.text] = (q.answer, q.confidence)
                    self.verdicts[(q.text, q.expected)] = q.correct
        self.cells = {(c.image_id, c.granularity): c for c in workload.cells}
        self.by_draft = {c.drafts[0]: c for c in workload.cells}
        self.by_truth = {c.truth: c for c in workload.cells}
        self.by_variant = {
            v: (c, k) for c in workload.cells for k, v in enumerate(c.variants, start=1)
        }

    def _pair_in(self, prompt: str) -> Pair:
        return self.by_pid[int(re.search(r"photo p(\d{4})", prompt).group(1))]

    def reset(self) -> None:
        """Forget the graph requests seen so far (a new round begins)."""
        with self._lock:
            self._graph_requests.clear()

    def reply(self, prompt: str, image_head: bytes = b"", model: str = "") -> tuple[str, str]:
        """Return (role, reply text) for one request.

        Raises KeyError when nothing was planted for the prompt.
        """
        role = role_of(prompt)
        if role == "graph":
            return role, self._graph(prompt)
        if role == "caption":
            return role, self._caption(prompt, image_head, model)
        handler = getattr(self, f"_{role}", None)
        if handler is None:
            raise KeyError(f"no planted reply for a {role} prompt")
        return role, handler(prompt)

    def _graph(self, prompt: str) -> str:
        caption = prompt[prompt.rindex("[") + 1 : prompt.rindex("]")]
        pair = self.by_caption[caption]
        with self._lock:
            self._graph_requests[caption] += 1
            first = self._graph_requests[caption] == 1
        if pair.fault and first:
            return MALFORMED_GRAPH
        payload = {
            "nodes": [{"id": i, "type": k, "label": l} for i, k, l in pair.nodes],
            "edges": [
                {
                    "from": [a, self._label(pair, a)],
                    "to": [b, self._label(pair, b)],
                    "type": kind,
                    "label": label,
                    "description": description,
                }
                for a, b, kind, label, description in pair.edges
            ],
        }
        return _wrap(json.dumps(payload, indent=2), pair.style)

    @staticmethod
    def _label(pair: Pair, node_id: str) -> str:
        return pair.nodes[int(node_id[1:]) - 1][2]

    def _question(self, prompt: str) -> str:
        pair = self._pair_in(prompt)
        level = int(re.search(r"Current Level: \[(\d+)\]", prompt).group(1))
        items = [
            {
                "Question": q.text,
                "Verify-Fact": q.fact,
                "Expected-Answer": q.expected,
                "Parent-IDS": q.parents,
                "Covered-Nodes": q.nodes,
                "Covered-Edges": q.edges,
            }
            for q in pair.levels[level - 1]
        ]
        return _wrap(json.dumps({"Questions": items}, indent=2), pair.style + level)

    def _vqa(self, prompt: str) -> str:
        question = _between(prompt, "The question is: [", "]\n")
        answer, confidence = self.answers[question]
        return _wrap(json.dumps({"Answer": answer, "Confidence": confidence}), len(question))

    def _eval(self, prompt: str) -> str:
        question = _between(prompt, "Question: [", "]\n")
        expected = _between(prompt, "Expected Answer: [", "]\n")
        return _wrap(json.dumps({"Correct": self.verdicts[(question, expected)]}), len(expected))

    def _coverage(self, prompt: str) -> str:
        pair = self._pair_in(prompt)
        level = max(int(n) for n in re.findall(r'"Question-ID": "Q(\d+)\.', prompt))
        if level >= len(pair.levels):
            payload = {
                "Verified-Complete": True,
                "Examined-Nodes": [],
                "Examined-Edges": [],
                "Next-Level-Suggestion": None,
            }
        else:
            asked = pair.levels[level - 1]
            payload = {
                "Verified-Complete": False,
                "Examined-Nodes": [n for q in asked for n in q.nodes],
                "Examined-Edges": [e for q in asked for e in q.edges],
                "Next-Level-Suggestion": f"check what p{pair.pid:04d} still leaves open",
            }
        return _wrap(json.dumps(payload, indent=2), pair.style + level + 1)

    def _explain(self, prompt: str) -> str:
        pair = self.by_caption[_between(prompt, "Original Caption: [", "]\n")]
        verdict = "consistent" if pair.decision else "inconsistent"
        questions = sum(pair.counts)
        depth = len(pair.levels)
        return f"p{pair.pid:04d} is {verdict} after {depth} levels and {questions:02d} questions."

    def _caption(self, prompt: str, image_head: bytes, model: str) -> str:
        low = int(re.search(r"between (\d+) and \d+ words", prompt).group(1))
        cell = self.cells[(image_id_of(image_head), GRANULARITY_BY_LOW[low])]
        return cell.drafts[CAPTIONER_MODELS.index(model)]

    def _fusion(self, prompt: str) -> str:
        return self.by_draft[_between(prompt, "Caption 1: ", "\n")].truth

    def _perturb(self, prompt: str) -> str:
        cell = self.by_truth[_between(prompt, "Ground-truth caption: ", "\n\n")]
        iteration = prompt.count("\nAttempt ") + 1
        payload = {"Perturbed-Caption": cell.variants[iteration - 1]}
        return _wrap(json.dumps(payload, indent=4), cell.cid + iteration)

    def _detector(self, prompt: str) -> str:
        cell, iteration = self.by_variant[_between(prompt, "Caption:\n\n[", "]\n")]
        fooled = iteration == cell.evade_at
        payload = {
            "Answer": "Yes" if fooled else "No",
            "Explanation": "All details match." if fooled else "A detail differs.",
        }
        return _wrap(json.dumps(payload, indent=4), cell.cid)


def geometric_weights(count: int, ratio: float) -> list[float]:
    raw = [ratio**i for i in range(count)]
    total = sum(raw)
    return [w / total for w in raw]


def h_acc_oracle(levels: list[list[tuple[float, bool]]], ratio: float = 1.2) -> float:
    """Accuracy H-score from (confidence, correct) per question, per level."""
    weights = geometric_weights(len(levels), ratio)
    return sum(
        w * sum(c for c, ok in level if ok) / len(level) for w, level in zip(weights, levels)
    )


def h_comp_oracle(counts: list[int], max_level: int, cap: int, ratio: float = 1.2) -> float:
    """Completeness H-score from question counts, over the configured depth."""
    weights = geometric_weights(max_level, ratio)
    padded = counts + [0] * (max_level - len(counts))
    return sum(w * n / cap for w, n in zip(weights, padded))


def expected_scores(pair: Pair, max_level: int, cap: int = 10) -> tuple[float, float]:
    levels = [[(q.confidence, q.correct) for q in level] for level in pair.levels]
    return h_acc_oracle(levels), h_comp_oracle(pair.counts, max_level, cap)


def confusion(outcomes: list[tuple[int, int]]) -> dict[str, int]:
    """Confusion counts over (predicted, label) bits, 1 = inconsistent."""
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for predicted, label in outcomes:
        key = ("t" if predicted == label else "f") + ("p" if predicted else "n")
        counts[key] += 1
    return counts


def rates(c: dict[str, int]) -> dict[str, Optional[float]]:
    def ratio(a: int, b: int) -> Optional[float]:
        return a / b if b else None

    tpr = ratio(c["tp"], c["tp"] + c["fn"])
    precision = ratio(c["tp"], c["tp"] + c["fp"])
    f1 = None
    if tpr is not None and precision is not None and tpr + precision > 0:
        f1 = 2 * tpr * precision / (tpr + precision)
    return {"tpr": tpr, "fpr": ratio(c["fp"], c["fp"] + c["tn"]), "precision": precision, "f1": f1}
