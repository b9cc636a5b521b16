"""Graphviz DOT export of a serialized OCED graph.

Events render as boxes labeled with event type and time, objects as
ellipses labeled with object type and id, event-object edges come from the
reified ext:EventObject nodes (labeled with the classifier when present),
and object-object edges from qualifier predicates between objects.  Output
order is fully deterministic.

store_to_dot reads the triples of PATTERNS' predicates and of every
qualifier predicate (terms.is_qualifier), so a load for it may keep only
those.
"""

from .analyses import EVENT_OBJECT_BLOCK, event_object_solutions
from .terms import (
    EXT,
    EXT_EVENT_TYPE,
    EXT_OBJECT_TYPE,
    OBSERVED_AT,
    Iri,
    PlainLiteral,
    TypedLiteral,
    object_object_triples,
    unescape_id,
)
from .triple_query import TriplePattern, TripleStore, Var
from .turtle_io import render_term


# ?s P ?v for each predicate _labels reads, then the event-object block
_LABELED = (EXT_EVENT_TYPE, OBSERVED_AT, EXT_OBJECT_TYPE)
PATTERNS = [*(TriplePattern(Var("s"), p, Var("v")) for p in _LABELED), *EVENT_OBJECT_BLOCK]


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def _labels(store: TripleStore, predicate: Iri) -> dict[Iri, str | None]:
    """Each subject of the predicate with its first literal object in
    insertion order (None when every object is an IRI)."""
    labels: dict[Iri, str | None] = {}
    for subject, value in store.pairs(predicate):
        if labels.get(subject) is not None:
            continue
        if isinstance(value, PlainLiteral):
            labels[subject] = value.value
        elif isinstance(value, TypedLiteral):
            labels[subject] = value.lexical
        else:
            labels[subject] = None
    return labels


def store_to_dot(store: TripleStore) -> str:
    event_types = _labels(store, EXT_EVENT_TYPE)
    times = _labels(store, OBSERVED_AT)
    object_types = _labels(store, EXT_OBJECT_TYPE)
    lines = ["digraph oced {", "  rankdir=LR;"]

    for iri in sorted(event_types.keys() | times.keys(), key=lambda t: t.value):
        label_parts = [event_types.get(iri) or render_term(iri)]
        time = times.get(iri)
        if time:
            label_parts.append(time)
        lines.append(
            f"  {_dot_quote(render_term(iri))} [shape=box, label={_dot_quote(chr(10).join(label_parts))}];"
        )
    for iri in sorted(object_types, key=lambda t: t.value):
        label = f"{object_types[iri] or 'object'}\n{render_term(iri)}"
        lines.append(
            f"  {_dot_quote(render_term(iri))} [shape=ellipse, label={_dot_quote(label)}];"
        )

    edges: list[tuple[str, str, str | None]] = []
    for sol in event_object_solutions(store):
        classifier = sol.get("classifier")
        label = classifier.value if isinstance(classifier, PlainLiteral) else None
        edges.append((render_term(sol["event"]), render_term(sol["object"]), label))

    for triple in object_object_triples(store, object_types):
        qualifier = triple.predicate.value[len(EXT):]
        try:
            qualifier = unescape_id(qualifier)
        except ValueError:  # a malformed %-escape, or one that is not UTF-8: label as written
            pass
        edges.append((render_term(triple.subject), render_term(triple.object), qualifier))

    for source, target, label in sorted(edges, key=lambda e: (e[0], e[1], e[2] or "")):
        attrs = f" [label={_dot_quote(label)}]" if label else ""
        lines.append(f"  {_dot_quote(source)} -> {_dot_quote(target)}{attrs};")

    lines.append("}")
    return "\n".join(lines) + "\n"
