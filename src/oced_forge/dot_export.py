"""Graphviz DOT export of a serialized OCED graph.

Events render as boxes labeled with event type and time, objects as
ellipses labeled with object type and id, event-object edges come from the
reified ext:EventObject nodes (labeled with the classifier when present),
and object-object edges from qualifier predicates between objects.  Output
order is fully deterministic.
"""

from .oced_model import unescape_id
from .terms import (
    EXT,
    EXT_CLASSIFIER,
    EXT_EVENT,
    EXT_EVENT_OBJECT_CLASS,
    EXT_EVENT_TYPE,
    EXT_OBJECT,
    EXT_OBJECT_TYPE,
    OBSERVED_AT,
    RDF_TYPE,
    Iri,
    PlainLiteral,
    TypedLiteral,
    object_object_triples,
)
from .triple_query import TriplePattern, TripleStore, Var
from .turtle_io import render_term


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def _literal_of(store: TripleStore, subject: Iri, predicate: Iri) -> str | None:
    for sol in store.match_pattern(TriplePattern(subject, predicate, Var("v"))):
        value = sol["v"]
        if isinstance(value, PlainLiteral):
            return value.value
        if isinstance(value, TypedLiteral):
            return value.lexical
    return None


def _events_and_objects(store: TripleStore) -> tuple[set[Iri], set[Iri]]:
    events = {s["s"] for s in store.match_pattern(TriplePattern(Var("s"), EXT_EVENT_TYPE, Var("v")))}
    events |= {s["s"] for s in store.match_pattern(TriplePattern(Var("s"), OBSERVED_AT, Var("v")))}
    objects = {s["s"] for s in store.match_pattern(TriplePattern(Var("s"), EXT_OBJECT_TYPE, Var("v")))}
    return events, objects


def store_to_dot(store: TripleStore) -> str:
    events, objects = _events_and_objects(store)
    lines = ["digraph oced {", "  rankdir=LR;"]

    for iri in sorted(events, key=lambda t: t.value):
        label_parts = []
        event_type = _literal_of(store, iri, EXT_EVENT_TYPE)
        time = _literal_of(store, iri, OBSERVED_AT)
        label_parts.append(event_type or render_term(iri))
        if time:
            label_parts.append(time)
        lines.append(
            f"  {_dot_quote(render_term(iri))} [shape=box, label={_dot_quote(chr(10).join(label_parts))}];"
        )
    for iri in sorted(objects, key=lambda t: t.value):
        object_type = _literal_of(store, iri, EXT_OBJECT_TYPE) or "object"
        label = f"{object_type}\n{render_term(iri)}"
        lines.append(
            f"  {_dot_quote(render_term(iri))} [shape=ellipse, label={_dot_quote(label)}];"
        )

    edges: list[tuple[str, str, str | None]] = []
    node = Var("node")
    for sol in store.match_optional(
        required=[
            TriplePattern(node, RDF_TYPE, EXT_EVENT_OBJECT_CLASS),
            TriplePattern(node, EXT_EVENT, Var("event")),
            TriplePattern(node, EXT_OBJECT, Var("object")),
        ],
        optional_groups=[[TriplePattern(node, EXT_CLASSIFIER, Var("classifier"))]],
    ):
        classifier = sol.get("classifier")
        label = classifier.value if isinstance(classifier, PlainLiteral) else None
        edges.append((render_term(sol["event"]), render_term(sol["object"]), label))

    for triple in object_object_triples(store, objects):
        qualifier = unescape_id(triple.predicate.value[len(EXT):])
        edges.append((render_term(triple.subject), render_term(triple.object), qualifier))

    for source, target, label in sorted(edges, key=lambda e: (e[0], e[1], e[2] or "")):
        attrs = f" [label={_dot_quote(label)}]" if label else ""
        lines.append(f"  {_dot_quote(source)} -> {_dot_quote(target)}{attrs};")

    lines.append("}")
    return "\n".join(lines) + "\n"
