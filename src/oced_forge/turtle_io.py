"""Turtle serialization of OCED graphs.

Serialization is deterministic: prefixes are declared in a fixed order
(ocedo, ext, xsd, rdf, ex), triples are sorted lexicographically by their
rendered `S P O .` rows, and all dateTime lexical forms are UTC with
milliseconds.  Sorting rows as strings is sorting their (subject,
predicate, object) tokens: a subject or predicate token holds no character
at or below ' ', and an object token that is a proper prefix of another is
followed there by '^', '@' or a name character, not by the ' ' that ends it.

One generator lists a graph's statements.  graph_to_turtle renders them to
rows with no triple store: each distinct IRI and literal is rendered once
and each row is one string.  The rows are listed in emission order, in which
each entity's rows form one nearly sorted run, and sorted in place, which
merges those runs.  A row equal to the one before it (a statement emitted
twice) is dropped, and the rows are written to a text stream in chunks.
graph_to_triples collects the same statements into a TripleStore for
querying, building terms as graph_to_turtle builds tokens: one memo makes
each distinct IRI once, and one keyed on (lexical form, datatype) each
distinct literal, its datatype taken from the first, so each distinct term
is one object.  write_turtle renders any store's rows the same way, so
write_turtle(graph_to_triples(g)) is the text graph_to_turtle writes.

Event-object relations are emitted twice on purpose: once as a reified
ext:EventObject node (ext:event / ext:object / ext:classifier) and once as a
direct qualifier predicate from the event to the object, so both the
reified and the direct query styles work against the same file.

Each token is written by terms (render_term, and the IRI and literal
token writers it calls), which the DOT export shares; render_term is still
found here.  The reader is turtle_parser.  parse_turtle is still found here
for callers that read and write through this module: it loads the reader on
first access (PEP 562), so the writer's callers never do.
"""

import io
import os
from collections.abc import Iterator
from itertools import groupby
from typing import TYPE_CHECKING, TextIO

from .errors import SerializationError
from .terms import (
    EX,
    EXT,
    EXT_CLASSIFIER,
    EXT_EVENT,
    EXT_EVENT_OBJECT_CLASS,
    EXT_EVENT_TYPE,
    EXT_OBJECT,
    EXT_OBJECT_TYPE,
    OBSERVED_AT,
    PREFIXES,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_DOUBLE,
    XSD_INTEGER,
    Iri,
    PlainLiteral,
    TypedLiteral,
    _Memo,
    _iri_token,
    _literal_token,
    escape_id,
    render_term,
)
from .timeutil import format_utc_millis

if TYPE_CHECKING:  # annotations only: graph_to_turtle loads neither module
    from .oced_model import OcedGraph, TypedValue
    from .triple_query import TripleStore

# -- graph -> statements ----------------------------------------------------

# statements carry IRIs as strings
_RDF_TYPE, _OBSERVED_AT, _XSD_DATETIME = RDF_TYPE.value, OBSERVED_AT.value, XSD_DATETIME.value
_EXT_EVENT_TYPE, _EXT_OBJECT_TYPE = EXT_EVENT_TYPE.value, EXT_OBJECT_TYPE.value
_EXT_EVENT, _EXT_OBJECT, _EXT_CLASSIFIER = EXT_EVENT.value, EXT_OBJECT.value, EXT_CLASSIFIER.value
_EXT_EVENT_OBJECT_CLASS = EXT_EVENT_OBJECT_CLASS.value
# xsd:double's spelling of the floats whose repr it does not read
_FLOAT_LEXICAL = {"nan": "NaN", "inf": "INF", "-inf": "-INF"}


def _ext_iri(name: str) -> str:
    if not name:
        raise SerializationError("cannot mint an IRI from an empty name")
    return EXT + escape_id(name)


def _value_literal(tv: "TypedValue") -> tuple[str, str | None]:
    if tv.kind in ("string", "id"):
        return str(tv.value), None
    if tv.kind == "date":
        return format_utc_millis(tv.value), _XSD_DATETIME
    if tv.kind == "int":
        return str(tv.value), XSD_INTEGER.value
    if tv.kind == "float":
        text = repr(float(tv.value))
        return _FLOAT_LEXICAL.get(text, text), XSD_DOUBLE.value
    if tv.kind == "boolean":
        return ("true" if tv.value else "false"), XSD_BOOLEAN.value
    raise SerializationError(f"attribute value kind {tv.kind!r} cannot be serialized")


def _statements(graph: "OcedGraph") -> Iterator[tuple[str, str, str | tuple[str, str | None]]]:
    """The graph's statements, in emission order and possibly repeated.

    Subject and predicate are IRI strings; the object is an IRI string or a
    literal as a (lexical form, datatype IRI) pair, the datatype None for a
    plain literal.  Events, objects and event-object relation nodes share the
    ex: instance namespace, so an id used by two of them (legal in the
    graph's separate namespaces) cannot be serialized: the first object or
    relation whose id the graph's events or objects already hold raises
    SerializationError at its place in emission order.
    """
    ext_iri = _Memo(_ext_iri)

    def collision(entity_id: str, first: str, kind: str) -> SerializationError:
        return SerializationError(
            f"id {entity_id!r} is used as both {first} and {kind}; "
            f"ids share one IRI namespace in Turtle output"
        )

    for event in graph.events.values():
        e_iri = EX + event.id
        yield e_iri, _RDF_TYPE, ext_iri[event.event_type]
        yield e_iri, _OBSERVED_AT, (format_utc_millis(event.observed_at), _XSD_DATETIME)
        yield e_iri, _EXT_EVENT_TYPE, (event.event_type, None)
        for key in sorted(event.attributes):
            yield e_iri, ext_iri[key], _value_literal(event.attributes[key])

    for obj in graph.objects.values():
        if obj.id in graph.events:
            raise collision(obj.id, "event", "object")
        o_iri = EX + obj.id
        yield o_iri, _RDF_TYPE, ext_iri[obj.object_type]
        yield o_iri, _EXT_OBJECT_TYPE, (obj.object_type, None)

    for rel in graph.event_object_relations:
        if rel.id in graph.events:
            raise collision(rel.id, "event", "relation")
        if rel.id in graph.objects:
            raise collision(rel.id, "object", "relation")
        node = EX + rel.id
        e_iri = EX + rel.event
        o_iri = EX + rel.object
        yield node, _RDF_TYPE, _EXT_EVENT_OBJECT_CLASS
        yield node, _EXT_EVENT, e_iri
        yield node, _EXT_OBJECT, o_iri
        if rel.qualifier is not None:
            yield node, _EXT_CLASSIFIER, (rel.qualifier, None)
            yield e_iri, ext_iri[rel.qualifier], o_iri

    for rel in graph.object_object_relations:
        yield EX + rel.source, ext_iri[rel.qualifier], EX + rel.target


def graph_to_triples(graph: "OcedGraph") -> "TripleStore":
    """The graph's Turtle-level triples as a store (see _statements).  Terms
    are built as graph_to_turtle builds tokens: each distinct IRI and literal
    is one object, made once."""
    from .triple_query import TripleStore

    iri = _Memo(Iri)
    literal = _Memo(lambda o: TypedLiteral(o[0], iri[o[1]]) if o[1] else PlainLiteral(o[0]))  # (lexical, datatype)
    return TripleStore(
        (iri[s], iri[p], iri[o] if o.__class__ is str else literal[o]) for s, p, o in _statements(graph)
    )


# -- writing -----------------------------------------------------------------

_HEADER = "".join(f"@prefix {prefix}: <{namespace}> .\n" for prefix, namespace in PREFIXES)
_CHUNK = 8192  # rows per write


def _write_document(rows: list[str], out: TextIO):
    """The fixed prefix header, then the rows (each `S P O .\n`), in order."""
    out.write(_HEADER)
    if rows:
        out.write("\n")
    for i in range(0, len(rows), _CHUNK):
        out.write("".join(rows[i : i + _CHUNK]))


def graph_to_turtle(graph: "OcedGraph", out: TextIO | str | os.PathLike) -> int:
    """Write a graph's Turtle text to out, a text stream or a file path, and
    return its number of distinct triples.

    The text is write_turtle(graph_to_triples(graph)), built without the
    store: each distinct IRI and literal is rendered once, each row is
    rendered as one string, and repeated statements (say, a passthrough
    attribute keyed event_type that equals the event type) are written
    once.  Every row is rendered and sorted before out is written, or
    opened when it is a path, so a graph that cannot be serialized leaves
    out untouched.
    """
    iri = _Memo(_iri_token)
    literal = _Memo(lambda o: _literal_token(o[0], o[1] and iri[o[1]]))  # keyed on (lexical, datatype)
    rows = [
        f"{iri[s]} {iri[p]} {iri[o] if o.__class__ is str else literal[o]} .\n" for s, p, o in _statements(graph)
    ]
    # emission order is long sorted runs (one entity's rows each), which the
    # sort merges; a statement emitted twice ends up as two adjacent rows
    rows.sort()
    rows = [row for row, _ in groupby(rows)]
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _write_document(rows, fh)
    else:
        _write_document(rows, out)
    return len(rows)


def write_turtle(store: "TripleStore") -> str:
    """Deterministic Turtle text: fixed prefix header, sorted triples."""
    term = _Memo(render_term)
    out = io.StringIO()
    _write_document(sorted(f"{term[s]} {term[p]} {term[o]} .\n" for s, p, o in store), out)
    return out.getvalue()


def __getattr__(name: str):
    if name == "parse_turtle":
        from .turtle_parser import parse_turtle

        return parse_turtle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
