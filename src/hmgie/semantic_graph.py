"""Typed semantic graph of a caption and the coverage mask over its elements.

Graph extraction itself is delegated to a model backend; this module only
validates and types the structured reply, and tracks which elements have
been examined so far (flag 1 = still unexamined).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping

from .errors import MalformedOutputError, SchemaViolationError
from .structured import extract_json_value, prompt_json

_NODE_ID_RE = re.compile(r"^N[1-9][0-9]*$")


class NodeKind(Enum):
    ENTITY = "Entity"
    LOCATION = "Location"
    CONCEPT = "Concept"
    EVENT = "Event"
    ATTRIBUTE = "Attribute"
    OTHER = "Other"


class EdgeKind(Enum):
    ACTION = "Action"
    SPATIAL = "Spatial"
    HAS_ATTRIBUTE = "HasAttribute"
    PART_OF = "PartOf"
    QUANTITY = "Quantity"
    OTHER = "Other"


def _normalize_kind(raw: str) -> str:
    return re.sub(r"[\s_-]+", "", raw).lower()


_NODE_KIND_ALIASES = {_normalize_kind(k.value): k for k in NodeKind}
_NODE_KIND_ALIASES["others"] = NodeKind.OTHER

_EDGE_KIND_ALIASES = {_normalize_kind(k.value): k for k in EdgeKind}
_EDGE_KIND_ALIASES["others"] = EdgeKind.OTHER

# Surface forms used when a graph is re-serialized into a prompt; they match
# the wording the extraction prompt itself shows to the model.
_EDGE_KIND_SURFACE = {
    EdgeKind.ACTION: "Action",
    EdgeKind.SPATIAL: "Spatial",
    EdgeKind.HAS_ATTRIBUTE: "Has Attribute",
    EdgeKind.PART_OF: "Part Of",
    EdgeKind.QUANTITY: "Quantity",
    EdgeKind.OTHER: "Others",
}
_NODE_KIND_SURFACE = {k: ("Others" if k is NodeKind.OTHER else k.value) for k in NodeKind}


@dataclass(frozen=True)
class SemanticNode:
    """One semantic element of the caption (entity, location, attribute, ...)."""

    id: str
    kind: NodeKind
    label: str

    def __post_init__(self):
        if not _NODE_ID_RE.match(self.id):
            raise SchemaViolationError(
                f"node id {self.id!r} does not match 'N<positive integer>'"
            )
        if not self.label or not self.label.strip():
            raise SchemaViolationError(f"node {self.id} has an empty label")


@dataclass(frozen=True)
class SemanticEdge:
    """A typed relationship between two nodes of the same graph."""

    from_id: str
    to_id: str
    kind: EdgeKind
    label: str = ""
    description: str = ""


@dataclass(frozen=True)
class SemanticGraph:
    """Validated caption graph: unique node ids, resolvable edges, >= 1 node."""

    nodes: tuple[SemanticNode, ...]
    edges: tuple[SemanticEdge, ...]
    source_caption: str = ""

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.nodes:
            raise SchemaViolationError("semantic graph must contain at least one node")
        seen: set[str] = set()
        for node in self.nodes:
            if node.id in seen:
                raise SchemaViolationError(f"duplicate node id {node.id}")
            seen.add(node.id)
        for index, edge in enumerate(self.edges):
            for endpoint in (edge.from_id, edge.to_id):
                if endpoint not in seen:
                    raise SchemaViolationError(
                        f"edge {index} references unknown node {endpoint}"
                    )

    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)


@dataclass(frozen=True)
class CoverageMask:
    """Binary flags over graph elements; 1 marks an element not yet examined."""

    node_flags: Mapping[str, int]
    edge_flags: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "node_flags", dict(self.node_flags))
        object.__setattr__(self, "edge_flags", dict(self.edge_flags))
        for flags in (self.node_flags, self.edge_flags):
            for key, bit in flags.items():
                if bit not in (0, 1):
                    raise SchemaViolationError(f"mask flag for {key!r} must be 0 or 1")


def fresh_mask(graph: SemanticGraph) -> CoverageMask:
    """All-ones mask: every node and edge of the graph starts unexamined."""
    return CoverageMask(
        node_flags={node.id: 1 for node in graph.nodes},
        edge_flags={index: 1 for index in range(len(graph.edges))},
    )


def apply_coverage(
    mask: CoverageMask,
    examined_nodes: Iterable[str] = (),
    examined_edges: Iterable[int] = (),
) -> CoverageMask:
    """Return a new mask with the listed elements marked examined (flag 0).

    Flags already 0 stay 0; marking is monotone non-increasing. Unknown
    identifiers raise SchemaViolationError.
    """
    node_flags = dict(mask.node_flags)
    edge_flags = dict(mask.edge_flags)
    for node_id in examined_nodes:
        if node_id not in node_flags:
            raise SchemaViolationError(f"node {node_id!r} is not in the mask")
        node_flags[node_id] = 0
    for index in examined_edges:
        if index not in edge_flags:
            raise SchemaViolationError(f"edge index {index!r} is not in the mask")
        edge_flags[index] = 0
    return CoverageMask(node_flags=node_flags, edge_flags=edge_flags)


def is_fully_covered(mask: CoverageMask) -> bool:
    """True iff no flag is still 1."""
    return not any(mask.node_flags.values()) and not any(mask.edge_flags.values())


def _parse_kind(raw: Any, aliases: dict, fallback: Enum, element: str, notes: list[str]):
    """The kind ``aliases`` maps ``raw`` to; an unknown one is ``fallback``,
    with a note. ``element`` ("node" or "edge") names the element in both."""
    if not isinstance(raw, str) or not raw.strip():
        raise SchemaViolationError(f"{element} 'type' must be a nonempty string, got {raw!r}")
    kind = aliases.get(_normalize_kind(raw))
    if kind is None:
        notes.append(f"unknown {element} kind {raw!r}; mapped to {fallback.value}")
        return fallback
    return kind


def _parse_endpoint(raw: Any, field: str) -> str:
    # The extraction prompt shows endpoints as (id, label) pairs; plain id
    # strings are accepted as well.
    if isinstance(raw, str):
        return raw
    if isinstance(raw, (list, tuple)) and raw and isinstance(raw[0], str):
        return raw[0]
    raise SchemaViolationError(
        f"edge {field!r} must be a node id or an [id, label] pair, got {raw!r}"
    )


def _optional_text(value: Any) -> str:
    """An edge's optional text field; null reads as absent."""
    return "" if value is None else str(value)


def parse_semantic_graph(raw_model_output: str, caption: str, notes: list[str]) -> SemanticGraph:
    """Parse the graph-extraction reply into a validated SemanticGraph.

    Tolerates code fences and surrounding prose. Unknown node/edge kinds map
    to Other, and each of those and each self-loop edge adds a note.

    Raises:
        MalformedOutputError: no extractable structured object.
        SchemaViolationError: missing fields or wrong shapes, a repeated
            node id, or an edge to an unknown node.
    """
    payload = extract_json_value(raw_model_output)
    if not isinstance(payload, dict):
        raise MalformedOutputError("graph reply is not a JSON object")
    raw_nodes = payload.get("nodes")
    if not isinstance(raw_nodes, list):
        raise SchemaViolationError("graph reply has no 'nodes' array")
    raw_edges = payload.get("edges", [])
    if not isinstance(raw_edges, list):
        raise SchemaViolationError("'edges' must be an array")

    nodes = []
    for item in raw_nodes:
        if not isinstance(item, dict):
            raise SchemaViolationError(f"node entry is not an object: {item!r}")
        missing = [key for key in ("id", "type", "label") if key not in item]
        if missing:
            raise SchemaViolationError(f"node entry missing fields {missing}: {item!r}")
        if not isinstance(item["id"], str):
            raise SchemaViolationError(f"node id must be a string, got {item['id']!r}")
        label = item["label"]
        if isinstance(label, bool) or not isinstance(label, (str, int, float)):
            raise SchemaViolationError(f"node label must be a string or a number: {item!r}")
        kind = _parse_kind(item["type"], _NODE_KIND_ALIASES, NodeKind.OTHER, "node", notes)
        nodes.append(SemanticNode(id=item["id"], kind=kind, label=str(label)))

    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise SchemaViolationError(f"edge entry is not an object: {item!r}")
        missing = [key for key in ("from", "to", "type") if key not in item]
        if missing:
            raise SchemaViolationError(f"edge entry missing fields {missing}: {item!r}")
        edges.append(
            SemanticEdge(
                from_id=_parse_endpoint(item["from"], "from"),
                to_id=_parse_endpoint(item["to"], "to"),
                kind=_parse_kind(item["type"], _EDGE_KIND_ALIASES, EdgeKind.OTHER, "edge", notes),
                label=_optional_text(item.get("label")),
                description=_optional_text(item.get("description")),
            )
        )
    graph = SemanticGraph(nodes=tuple(nodes), edges=tuple(edges), source_caption=caption)
    for index, edge in enumerate(graph.edges):
        if edge.from_id == edge.to_id:
            notes.append(f"edge {index} is a self-loop on {edge.from_id}")
    return graph


def graph_to_payload(graph: SemanticGraph) -> dict:
    """Serialize a graph back into the extraction prompt's JSON shape."""
    labels = {n.id: n.label for n in graph.nodes}
    return {
        "nodes": [
            {"id": n.id, "type": _NODE_KIND_SURFACE[n.kind], "label": n.label}
            for n in graph.nodes
        ],
        "edges": [
            {
                "from": [e.from_id, labels[e.from_id]],
                "to": [e.to_id, labels[e.to_id]],
                "type": _EDGE_KIND_SURFACE[e.kind],
                "label": e.label,
                "description": e.description,
            }
            for e in graph.edges
        ],
    }


def graph_to_json(graph: SemanticGraph) -> str:
    return prompt_json(graph_to_payload(graph))
