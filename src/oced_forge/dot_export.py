"""Graphviz DOT export of a serialized OCED graph.

Events render as boxes labeled with event type and time, objects as
ellipses labeled with object type and id, event-object edges come from the
reified ext:EventObject nodes (labeled with the classifier when present),
and object-object edges from qualifier predicates between objects.  Output
order is fully deterministic.  A label is a literal's text, its field 0;
only a plain-literal classifier labels its edge, and a qualifier is shown
unescaped, or as written when unescape_id raises ValueError for it.  Each
distinct term is rendered, and each distinct token quoted, once per call.

store_to_dot reads the event and object label predicates, the
event-object block and every qualifier predicate (terms.is_qualifier).
Every predicate convert writes is rdf:type, ocedo:observed_at or an ext:
predicate, all of which it reads or a keep rule for it would keep, so
export-dot loads every triple, as stats does.
"""

from .analyses import event_object_rows
from .terms import (
    EXT,
    EXT_EVENT_TYPE,
    EXT_OBJECT_TYPE,
    OBSERVED_AT,
    Iri,
    PlainLiteral,
    object_object_triples,
    unescape_id,
)
from .triple_query import TripleStore
from .turtle_io import _Memo, render_term


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def _labels(store: TripleStore, predicate: Iri) -> dict[Iri, str | None]:
    """Each subject of the predicate with its first literal object in
    insertion order (None when every object is an IRI)."""
    labels: dict[Iri, str | None] = {}
    for subject, value in store.pairs(predicate):
        if labels.get(subject) is None:
            labels[subject] = None if value.__class__ is Iri else value[0]
    return labels


def store_to_dot(store: TripleStore) -> str:
    token, quote = _Memo(render_term).__getitem__, _Memo(_dot_quote).__getitem__
    event_types = _labels(store, EXT_EVENT_TYPE)
    times = _labels(store, OBSERVED_AT)
    object_types = _labels(store, EXT_OBJECT_TYPE)
    lines = ["digraph oced {", "  rankdir=LR;"]

    for iri in sorted(event_types.keys() | times.keys(), key=lambda t: t.value):
        label_parts = [event_types.get(iri) or token(iri)]
        time = times.get(iri)
        if time:
            label_parts.append(time)
        lines.append(f"  {quote(token(iri))} [shape=box, label={_dot_quote(chr(10).join(label_parts))}];")
    for iri in sorted(object_types, key=lambda t: t.value):
        label = f"{object_types[iri] or 'object'}\n{token(iri)}"
        lines.append(f"  {quote(token(iri))} [shape=ellipse, label={_dot_quote(label)}];")

    edges: list[tuple[str, str, str | None]] = []
    for event, obj, classifier in event_object_rows(store, ("event", "object", "classifier")):
        label = classifier.value if isinstance(classifier, PlainLiteral) else None
        edges.append((token(event), token(obj), label))

    for triple in object_object_triples(store, object_types):
        qualifier = triple.predicate.value[len(EXT):]
        try:
            qualifier = unescape_id(qualifier)
        except ValueError:  # a malformed %-escape, or one that is not UTF-8: label as written
            pass
        edges.append((token(triple.subject), token(triple.object), qualifier))

    for source, target, label in sorted(edges, key=lambda e: (e[0], e[1], e[2] or "")):
        attrs = f" [label={quote(label)}]" if label else ""
        lines.append(f"  {quote(source)} -> {quote(target)}{attrs};")

    lines.append("}")
    return "\n".join(lines) + "\n"
