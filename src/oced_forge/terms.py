"""RDF terms and the fixed vocabulary used by the graph serialization.

Three term kinds exist: IRIs, typed literals, and plain literals (optionally
language-tagged).  Triples restrict subject and predicate to IRIs.

Terms and triples are named tuples, so they hash and compare as tuples, in C
(also with plain tuples: Iri("x") == ("x",)).  The kinds never compare equal
to each other: an IRI is a 1-tuple, a literal a pair whose second field is an
Iri (typed) or a str or None (plain).
"""

from collections.abc import Container, Iterable, Iterator
from typing import NamedTuple, Union

# Namespace IRIs.  The ocedo/ext pair is fixed by the vocabulary this tool
# emits; ex is the instance namespace minted for converted entities.
OCEDO = "https://w3id.org/ocedo/core#"
EXT = "https://w3id.org/ocedo/ext#"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
EX = "http://example.org/oced/"

# Prefixes in the order they are declared in Turtle output.
PREFIXES: tuple[tuple[str, str], ...] = (
    ("ocedo", OCEDO),
    ("ext", EXT),
    ("xsd", XSD),
    ("rdf", RDF),
    ("ex", EX),
)


class Iri(NamedTuple):
    value: str

    def __repr__(self):
        return f"Iri({self.value!r})"


class TypedLiteral(NamedTuple):
    lexical: str
    datatype: Iri

    def __repr__(self):
        return f"TypedLiteral({self.lexical!r}, {self.datatype.value!r})"


class PlainLiteral(NamedTuple):
    value: str
    lang: str | None = None

    def __repr__(self):
        if self.lang:
            return f"PlainLiteral({self.value!r}, lang={self.lang!r})"
        return f"PlainLiteral({self.value!r})"


Term = Union[Iri, TypedLiteral, PlainLiteral]


class _Triple(NamedTuple):
    subject: Iri
    predicate: Iri
    object: Term


class Triple(_Triple):
    __slots__ = ()

    def __new__(cls, subject: Iri, predicate: Iri, object: Term):
        if not isinstance(subject, Iri):
            raise TypeError(f"triple subject must be an IRI, got {subject!r}")
        if not isinstance(predicate, Iri):
            raise TypeError(f"triple predicate must be an IRI, got {predicate!r}")
        return tuple.__new__(cls, (subject, predicate, object))

    @classmethod
    def _make(cls, iterable):  # also used by _replace: keep the checks
        return cls(*iterable)


# Fixed predicates and classes.
RDF_TYPE = Iri(RDF + "type")
OBSERVED_AT = Iri(OCEDO + "observed_at")
EXT_EVENT = Iri(EXT + "event")
EXT_OBJECT = Iri(EXT + "object")
EXT_EVENT_CASE = Iri(EXT + "event_case")
EXT_HANDLED_BY_TEAM = Iri(EXT + "handled_by_support_team")
EXT_EVENT_TYPE = Iri(EXT + "event_type")
EXT_OBJECT_TYPE = Iri(EXT + "object_type")
EXT_CLASSIFIER = Iri(EXT + "classifier")
EXT_EVENT_OBJECT_CLASS = Iri(EXT + "EventObject")

XSD_DATETIME = Iri(XSD + "dateTime")
XSD_INTEGER = Iri(XSD + "integer")
XSD_DOUBLE = Iri(XSD + "double")
XSD_DECIMAL = Iri(XSD + "decimal")
XSD_BOOLEAN = Iri(XSD + "boolean")

# ext: predicates with a fixed meaning; every other ext: predicate between
# entities is a data-derived qualifier.
EXT_FIXED_PREDICATES = frozenset(
    {
        EXT_EVENT,
        EXT_OBJECT,
        EXT_CLASSIFIER,
        EXT_EVENT_TYPE,
        EXT_OBJECT_TYPE,
    }
)


def object_object_triples(triples: Iterable[Triple], objects: Container[Term]) -> Iterator[Triple]:
    """The object-object relations among triples: a data-derived ext:
    qualifier predicate between two members of objects."""
    for triple in triples:
        if (
            triple.subject in objects
            and triple.object in objects
            and triple.predicate.value.startswith(EXT)
            and triple.predicate not in EXT_FIXED_PREDICATES
        ):
            yield triple
