import random
import re
from datetime import timedelta

from oced_forge import TripleStore, dot_export, graph_to_triples, store_to_dot

from oracles import BASE_TIME, build_handoff_graph, random_oced_graph

_QUOTED = r'"(?:[^"\\]|\\.)*"'
_LINE_RES = [
    re.compile(r"^digraph \w+ \{$"),
    re.compile(r"^\}$"),
    re.compile(r"^  \w+=\w+;$"),  # graph attribute, e.g. rankdir
    re.compile(rf"^  {_QUOTED} \[[^\[\]]*\];$"),  # node with attrs
    re.compile(rf"^  {_QUOTED} -> {_QUOTED}(?: \[[^\[\]]*\])?;$"),  # edge
]


def assert_valid_dot(text: str):
    """Structural DOT check: brace balance plus per-line statement shapes."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    for line in lines:
        assert any(regex.match(line) for regex in _LINE_RES), f"bad DOT line: {line!r}"


def fixture_store() -> TripleStore:
    return graph_to_triples(
        build_handoff_graph([("case_1", None, BASE_TIME + timedelta(hours=9))])
    ).freeze()


def test_fixture_has_two_nodes_and_a_labeled_edge():
    dot = store_to_dot(fixture_store())
    assert_valid_dot(dot)
    assert dot.count("[shape=box") == 1
    assert dot.count("[shape=ellipse") == 1
    assert '"ex:e1" -> "ex:case_1" [label="event_case"];' in dot


def test_event_label_carries_type_and_time():
    dot = store_to_dot(fixture_store())
    assert re.search(r'label="handover\\n2012-01-01T09:00:00\.000Z"', dot)


def test_empty_store_is_a_valid_empty_digraph():
    dot = store_to_dot(TripleStore().freeze())
    assert_valid_dot(dot)
    assert "->" not in dot


def test_object_object_edges_use_unescaped_qualifier():
    graph = build_handoff_graph(
        [("case_1", "team_A", BASE_TIME), ("case_1", "team_B", BASE_TIME)]
    )
    graph.relate_objects("case_1", "team_A", "involves team")
    dot = store_to_dot(graph_to_triples(graph).freeze())
    assert_valid_dot(dot)
    assert '"ex:case_1" -> "ex:team_A" [label="involves team"];' in dot


def test_random_graphs_are_valid_and_deterministic():
    rng = random.Random(8)
    for _ in range(20):
        store = graph_to_triples(random_oced_graph(rng)).freeze()
        dot = store_to_dot(store)
        assert_valid_dot(dot)
        assert store_to_dot(store) == dot


def test_each_distinct_term_is_rendered_once(monkeypatch):
    """An event or object appears in its node line and in every edge it
    ends; store_to_dot renders its term once, and the bytes are the same."""
    rng = random.Random(9)
    stores = [graph_to_triples(random_oced_graph(rng)).freeze() for _ in range(10)]
    handoffs = [(f"case_{i % 3}", f"team_{i % 2}", BASE_TIME + timedelta(minutes=i)) for i in range(12)]
    stores.append(graph_to_triples(build_handoff_graph(handoffs)).freeze())
    expected = [store_to_dot(store) for store in stores]
    rendered = []

    def counting(term):
        rendered.append(term)
        return render_term(term)

    render_term = dot_export.render_term
    monkeypatch.setattr(dot_export, "render_term", counting)
    for store, dot in zip(stores, expected):
        rendered.clear()
        assert store_to_dot(store) == dot
        assert len(rendered) == len(set(rendered))
    assert sum(dot.count(" -> ") for dot in expected) > 20  # so terms recur: each edge names two nodes
