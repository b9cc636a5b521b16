"""RDF terms and the fixed vocabulary used by the graph serialization.

Three term kinds exist: IRIs, typed literals, and plain literals (optionally
language-tagged).  A term's text is its field 0: an IRI's value, or a
literal's lexical form.  Triples restrict subject and predicate to IRIs.
Entity ids and qualifier names enter IRIs through escape_id, leave them
through unescape_id and are checked by is_escaped_id; the escaped-id alphabet
is written once, here, so the Turtle reader and writer and the DOT export
need nothing from the graph model.  is_qualifier tells a data-derived ext:
predicate from the fixed vocabulary; object-object relations have one, and
a load for the DOT export keeps them all.

Terms and triples are named tuples, so they hash and compare as tuples, in C
(also with plain tuples: Iri("x") == ("x",)).  The kinds never compare equal
to each other: an IRI is a 1-tuple, a literal a pair whose second field is an
Iri (typed) or a str or None (plain).
"""

import re
from collections.abc import Container, Iterator
from typing import NamedTuple, Union

# the characters an escaped id holds as themselves
_SAFE = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
# a '%' in an escaped id or a local name that two hex digits do not follow
BAD_PERCENT_RE = re.compile(r"%(?![0-9A-Fa-f]{2})")
# An escaped id is a run of one character class that BAD_PERCENT_RE does not
# match, and a run of %XX escapes ends at the first escape no '%' follows; a
# repeated group instead of a class would keep engine state per character.
_ESCAPED_ID_RE = re.compile(f"[{re.escape(_SAFE)}%]+")
_ESCAPE_RUN_RE = re.compile(r"%[%0-9A-Fa-f]*?(?<=%[0-9A-Fa-f]{2})(?!%)")


class _EscapeTable(dict):
    """escape_id's str.translate table of the ASCII codes; any other code's
    UTF-8 escapes are made on lookup and not stored, so the table stays small."""

    def __missing__(self, code: int) -> str:
        return "".join(f"%{b:02X}" for b in chr(code).encode("utf-8"))


_ESCAPE_TABLE = _EscapeTable((c, chr(c) if chr(c) in _SAFE else f"%{c:02X}") for c in range(128))


def escape_id(raw: str) -> str:
    """Percent-encode every character outside [A-Za-z0-9_-], reversibly."""
    return raw.translate(_ESCAPE_TABLE)


def is_escaped_id(text: str) -> bool:
    """Whether text is a non-empty run of [A-Za-z0-9_-] and %XX escapes."""
    return _ESCAPED_ID_RE.fullmatch(text) is not None and ("%" not in text or not BAD_PERCENT_RE.search(text))


def unescape_id(escaped: str) -> str:
    """Inverse of escape_id; ValueError for a '%' that two hex digits do not
    follow, or for a run of %XX escapes that is not UTF-8."""
    if bad := BAD_PERCENT_RE.search(escaped):
        raise ValueError(f"'%' at {bad.start()} does not start a %XX escape")
    return _ESCAPE_RUN_RE.sub(lambda run: bytes.fromhex(run[0].replace("%", "")).decode("utf-8"), escaped)


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


def is_qualifier(predicate: Iri) -> bool:
    """Whether predicate is a data-derived ext: qualifier, the kind of
    predicate an object-object relation has."""
    return predicate.value.startswith(EXT) and predicate not in EXT_FIXED_PREDICATES


def object_object_triples(store, objects: Container[Term]) -> Iterator[Triple]:
    """The object-object relations in a TripleStore: a qualifier predicate
    between two members of objects.  Only qualifier predicates' pairs are read."""
    for predicate in store.predicates():
        if is_qualifier(predicate):
            for subject, obj in store.pairs(predicate):
                if subject in objects and obj in objects:
                    yield Triple(subject, predicate, obj)
