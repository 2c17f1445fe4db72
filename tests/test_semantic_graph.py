import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgie.errors import MalformedOutputError, SchemaViolationError
from hmgie.semantic_graph import (
    CoverageMask,
    EdgeKind,
    NodeKind,
    SemanticEdge,
    SemanticGraph,
    SemanticNode,
    apply_coverage,
    fresh_mask,
    graph_to_json,
    is_fully_covered,
    parse_semantic_graph,
)

MINIMAL_PAYLOAD = json.dumps(
    {
        "nodes": [
            {"id": "N1", "type": "Entity", "label": "dog"},
            {"id": "N2", "type": "Attribute", "label": "brown"},
        ],
        "edges": [
            {
                "from": "N1",
                "to": "N2",
                "type": "Has Attribute",
                "label": "dog is brown",
                "description": "The dog is brown.",
            }
        ],
    }
)

DOG = {"id": "N1", "type": "Entity", "label": "dog"}

# Graph replies a model can send that the parser refuses: the reply's JSON,
# the error's type and its message.
REFUSED_GRAPHS = [
    ([DOG], MalformedOutputError, "graph reply is not a JSON object"),
    ({"nodes": [DOG], "edges": {}}, SchemaViolationError, "'edges' must be an array"),
    ({"nodes": ["N1"]}, SchemaViolationError, "node entry is not an object: 'N1'"),
    (
        {"nodes": [DOG], "edges": ["N1 -> N1"]},
        SchemaViolationError,
        "edge entry is not an object: 'N1 -> N1'",
    ),
    (
        {"nodes": [{**DOG, "id": 1}]},
        SchemaViolationError,
        "node id must be a string, got 1",
    ),
    (
        {"nodes": [DOG], "edges": [{"from": "N1", "to": "N1"}]},
        SchemaViolationError,
        "edge entry missing fields ['type']: {'from': 'N1', 'to': 'N1'}",
    ),
    (
        {"nodes": [{**DOG, "type": " "}]},
        SchemaViolationError,
        "node 'type' must be a nonempty string, got ' '",
    ),
    (
        {"nodes": [DOG], "edges": [{"from": 1, "to": "N1", "type": "Spatial"}]},
        SchemaViolationError,
        "edge 'from' must be a node id or an [id, label] pair, got 1",
    ),
    # A label where an id belongs: the graph, not the edge, refuses the endpoint.
    (
        {"nodes": [DOG], "edges": [{"from": "dog", "to": "N1", "type": "Spatial"}]},
        SchemaViolationError,
        "edge 0 references unknown node dog",
    ),
]


def small_graph() -> SemanticGraph:
    return parse_semantic_graph(MINIMAL_PAYLOAD, "a brown dog", [])


class TestParse:
    def test_minimal_payload(self):
        graph = small_graph()
        assert len(graph.nodes) == 2
        assert len(graph.edges) == 1
        assert graph.nodes[0].kind is NodeKind.ENTITY
        assert graph.edges[0].kind is EdgeKind.HAS_ATTRIBUTE
        assert graph.source_caption == "a brown dog"

    def test_duplicate_node_id(self):
        payload = json.dumps(
            {
                "nodes": [
                    {"id": "N1", "type": "Entity", "label": "a"},
                    {"id": "N1", "type": "Entity", "label": "b"},
                ],
                "edges": [],
            }
        )
        with pytest.raises(SchemaViolationError, match="^duplicate node id N1$"):
            parse_semantic_graph(payload, "c", [])

    def test_dangling_edge(self):
        payload = json.dumps(
            {
                "nodes": [{"id": "N1", "type": "Entity", "label": "a"}],
                "edges": [{"from": "N1", "to": "N9", "type": "Spatial", "label": "x"}],
            }
        )
        with pytest.raises(SchemaViolationError, match="^edge 0 references unknown node N9$"):
            parse_semantic_graph(payload, "c", [])

    def test_code_fence_and_prose(self):
        wrapped = f"Sure! Here is the graph:\n```json\n{MINIMAL_PAYLOAD}\n```\nDone."
        graph = parse_semantic_graph(wrapped, "a brown dog", [])
        assert len(graph.nodes) == 2

    def test_endpoint_pairs(self):
        payload = json.dumps(
            {
                "nodes": [
                    {"id": "N1", "type": "Entity", "label": "dog"},
                    {"id": "N2", "type": "Entity", "label": "sofa"},
                ],
                "edges": [
                    {
                        "from": ["N1", "dog"],
                        "to": ["N2", "sofa"],
                        "type": "Spatial",
                        "label": "on",
                    }
                ],
            }
        )
        graph = parse_semantic_graph(payload, "c", [])
        assert graph.edges[0].from_id == "N1"
        assert graph.edges[0].to_id == "N2"

    def test_unknown_kind_maps_to_other_with_warning(self):
        payload = json.dumps(
            {
                "nodes": [{"id": "N1", "type": "Vehicle", "label": "car"}],
                "edges": [],
            }
        )
        notes: list[str] = []
        graph = parse_semantic_graph(payload, "c", notes)
        assert notes == ["unknown node kind 'Vehicle'; mapped to Other"]
        assert graph.nodes[0].kind is NodeKind.OTHER

    def test_others_alias(self):
        payload = json.dumps(
            {
                "nodes": [{"id": "N1", "type": "Others", "label": "misc"}],
                "edges": [],
            }
        )
        assert parse_semantic_graph(payload, "c", []).nodes[0].kind is NodeKind.OTHER

    def test_no_structured_object(self):
        with pytest.raises(MalformedOutputError):
            parse_semantic_graph("I could not build a graph, sorry.", "c", [])

    def test_empty_nodes_rejected(self):
        with pytest.raises(SchemaViolationError):
            parse_semantic_graph(json.dumps({"nodes": [], "edges": []}), "c", [])

    def test_missing_node_field(self):
        payload = json.dumps({"nodes": [{"id": "N1", "label": "dog"}], "edges": []})
        with pytest.raises(SchemaViolationError, match="missing fields"):
            parse_semantic_graph(payload, "c", [])

    @pytest.mark.parametrize("label", [None, True, ["dog"], {"text": "dog"}])
    def test_node_label_must_be_text_or_number(self, label):
        payload = json.dumps({"nodes": [{"id": "N1", "type": "Entity", "label": label}]})
        with pytest.raises(SchemaViolationError, match="node label must be a string or a number"):
            parse_semantic_graph(payload, "c", [])

    @pytest.mark.parametrize("payload, error, message", REFUSED_GRAPHS)
    def test_graph_reply_of_a_wrong_shape_is_refused(self, payload, error, message):
        with pytest.raises((MalformedOutputError, SchemaViolationError)) as excinfo:
            parse_semantic_graph(json.dumps(payload), "c", [])
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_null_edge_texts_read_as_absent(self):
        payload = json.loads(MINIMAL_PAYLOAD)
        payload["nodes"][1]["label"] = 2
        payload["edges"][0].update(label=None, description=None)
        notes: list[str] = []
        graph = parse_semantic_graph(json.dumps(payload), "c", notes)
        assert graph.nodes[1].label == "2"
        assert (graph.edges[0].label, graph.edges[0].description) == ("", "")
        assert notes == []

    def test_self_loop_warns_but_parses(self):
        payload = json.dumps(
            {
                "nodes": [{"id": "N1", "type": "Entity", "label": "dog"}],
                "edges": [{"from": "N1", "to": "N1", "type": "Others", "label": "self"}],
            }
        )
        notes: list[str] = []
        graph = parse_semantic_graph(payload, "c", notes)
        assert notes == ["edge 0 is a self-loop on N1"]
        assert len(graph.edges) == 1

    def test_round_trip(self):
        graph = small_graph()
        again = parse_semantic_graph(graph_to_json(graph), graph.source_caption, [])
        assert again == graph


class TestMask:
    def test_fresh_mask_all_ones(self):
        mask = fresh_mask(small_graph())
        assert mask.node_flags == {"N1": 1, "N2": 1}
        assert mask.edge_flags == {0: 1}

    def test_fresh_mask_single_node(self):
        graph = SemanticGraph(
            nodes=(SemanticNode("N1", NodeKind.ENTITY, "dog"),), edges=()
        )
        assert fresh_mask(graph).node_flags == {"N1": 1}
        assert fresh_mask(graph).edge_flags == {}

    def test_fresh_mask_counts(self):
        nodes = tuple(
            SemanticNode(f"N{i}", NodeKind.ENTITY, f"thing {i}") for i in range(1, 6)
        )
        edges = tuple(
            SemanticEdge(f"N{i}", f"N{i + 1}", EdgeKind.SPATIAL, "next to")
            for i in range(1, 5)
        )
        mask = fresh_mask(SemanticGraph(nodes=nodes, edges=edges))
        assert len(mask.node_flags) + len(mask.edge_flags) == 9
        assert all(v == 1 for v in mask.node_flags.values())
        assert all(v == 1 for v in mask.edge_flags.values())

    def test_apply_marks_zero(self):
        mask = CoverageMask(node_flags={"N1": 1, "N2": 1}, edge_flags={})
        updated = apply_coverage(mask, examined_nodes={"N1"})
        assert updated.node_flags == {"N1": 0, "N2": 1}
        # the input mask is untouched
        assert mask.node_flags == {"N1": 1, "N2": 1}

    def test_apply_idempotent_on_zero(self):
        mask = CoverageMask(node_flags={"N1": 0, "N2": 1}, edge_flags={})
        updated = apply_coverage(mask, examined_nodes={"N1"})
        assert updated.node_flags == {"N1": 0, "N2": 1}

    def test_apply_unknown_element(self):
        mask = CoverageMask(node_flags={"N1": 1, "N2": 1}, edge_flags={})
        with pytest.raises(SchemaViolationError, match="^node 'N7' is not in the mask$"):
            apply_coverage(mask, examined_nodes={"N7"})

    def test_fully_covered(self):
        assert is_fully_covered(CoverageMask(node_flags={"N1": 0}, edge_flags={0: 0}))
        assert not is_fully_covered(CoverageMask(node_flags={"N1": 1}, edge_flags={}))
        flags = {f"N{i}": 0 for i in range(1, 11)}
        flags["N5"] = 1
        assert not is_fully_covered(CoverageMask(node_flags=flags, edge_flags={}))

    def test_bad_flag_value(self):
        with pytest.raises(SchemaViolationError):
            CoverageMask(node_flags={"N1": 2}, edge_flags={})


def graphs(max_nodes: int = 8, max_edges: int = 8):
    @st.composite
    def _graph(draw):
        n = draw(st.integers(min_value=1, max_value=max_nodes))
        nodes = tuple(
            SemanticNode(
                id=f"N{i + 1}",
                kind=draw(st.sampled_from(list(NodeKind))),
                label=draw(st.text(min_size=1, max_size=8).filter(str.strip)),
            )
            for i in range(n)
        )
        ids = [node.id for node in nodes]
        edge_count = draw(st.integers(min_value=0, max_value=max_edges))
        edges = tuple(
            SemanticEdge(
                from_id=draw(st.sampled_from(ids)),
                to_id=draw(st.sampled_from(ids)),
                kind=draw(st.sampled_from(list(EdgeKind))),
                label=draw(st.text(max_size=8)),
                description=draw(st.text(max_size=12)),
            )
            for _ in range(edge_count)
        )
        return SemanticGraph(nodes=nodes, edges=edges, source_caption="prop caption")

    return _graph()


class TestProperties:
    @settings(max_examples=200)
    @given(graphs())
    def test_mask_graph_bijection(self, graph):
        mask = fresh_mask(graph)
        assert set(mask.node_flags) == set(graph.node_ids())
        assert set(mask.edge_flags) == set(range(len(graph.edges)))

    @settings(max_examples=200)
    @given(graphs(), st.randoms())
    def test_mask_monotone(self, graph, rng):
        mask = fresh_mask(graph)
        node_ids = list(mask.node_flags)
        edge_ids = list(mask.edge_flags)
        for _ in range(5):
            chosen_nodes = {n for n in node_ids if rng.random() < 0.4}
            chosen_edges = {e for e in edge_ids if rng.random() < 0.4}
            updated = apply_coverage(mask, chosen_nodes, chosen_edges)
            for key, bit in updated.node_flags.items():
                assert bit <= mask.node_flags[key]
            for key, bit in updated.edge_flags.items():
                assert bit <= mask.edge_flags[key]
            mask = updated

    @settings(max_examples=200)
    @given(graphs())
    def test_serialization_round_trip(self, graph):
        notes: list[str] = []
        reparsed = parse_semantic_graph(graph_to_json(graph), "prop caption", notes)
        assert reparsed == graph
        # random graphs may contain self-loops; each one is noted by index
        assert notes == [
            f"edge {index} is a self-loop on {edge.from_id}"
            for index, edge in enumerate(graph.edges)
            if edge.from_id == edge.to_id
        ]

    @settings(max_examples=300)
    @given(st.text(max_size=200))
    def test_parse_totality_on_garbage(self, raw):
        try:
            graph = parse_semantic_graph(raw, "caption", [])
        except (MalformedOutputError, SchemaViolationError):
            return
        # If anything parsed, the invariants must hold by construction.
        assert graph.nodes
        ids = set(graph.node_ids())
        assert len(ids) == len(graph.nodes)
        for edge in graph.edges:
            assert edge.from_id in ids and edge.to_id in ids


def test_fuzzed_mutations_never_yield_invalid_graph():
    rng = random.Random(7)
    base = json.loads(MINIMAL_PAYLOAD)
    for _ in range(300):
        payload = json.loads(json.dumps(base))
        mutation = rng.randrange(6)
        if mutation == 0:
            payload["nodes"] = []
        elif mutation == 1:
            payload["nodes"].append({"id": "N1", "type": "Entity", "label": "dup"})
        elif mutation == 2:
            payload["edges"].append({"from": "N1", "to": "N99", "type": "Spatial", "label": ""})
        elif mutation == 3:
            payload["nodes"][0].pop("label")
        elif mutation == 4:
            payload["nodes"][0]["id"] = "bogus"
        else:
            payload = {"unexpected": True}
        try:
            graph = parse_semantic_graph(json.dumps(payload), "c", [])
        except (MalformedOutputError, SchemaViolationError):
            continue
        ids = set(graph.node_ids())
        assert graph.nodes and len(ids) == len(graph.nodes)
        for edge in graph.edges:
            assert edge.from_id in ids and edge.to_id in ids
