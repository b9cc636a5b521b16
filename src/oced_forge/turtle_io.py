"""Turtle serialization of OCED graphs and a parser for the Turtle subset
this tool emits.

Serialization is deterministic: prefixes are declared in a fixed order
(ocedo, ext, xsd, rdf, ex), triples are sorted lexicographically by their
rendered `S P O .` rows, and all dateTime lexical forms are UTC with
milliseconds.  Sorting rows as strings is sorting their (subject,
predicate, object) tokens: a subject or predicate token holds no character
at or below ' ', and an object token that is a proper prefix of another is
followed there by '^', '@' or a name character, not by the ' ' that ends it.

One generator lists a graph's statements.  graph_to_turtle renders them to
rows with no triple store: each distinct IRI is rendered once, each row is
one string, a statement emitted twice is written once, and the rows are
sorted once and written to a text stream in chunks.  graph_to_triples
collects the same statements into a TripleStore for querying, and
write_turtle renders any store's rows the same way, so
write_turtle(graph_to_triples(g)) is the text graph_to_turtle writes.

Event-object relations are emitted twice on purpose: once as a reified
ext:EventObject node (ext:event / ext:object / ext:classifier) and once as a
direct qualifier predicate from the event to the object, so both the
reified and the direct query styles work against the same file.

Both readers add each (subject, object) pair straight to its predicate's
partition in the store (see triple_query) and build no Triple.  One memo
maps each predicate to its partition, or to None when parse_turtle's keep
rule, a function of the predicate, drops it; the kept pairs go in the
order a full parse adds them.  Both readers still read and cook every
statement, so every error keeps its class, message, line and column.  The
reader needs nothing from the graph model (oced_model is an annotation
only), and triple_query is loaded only where a store is built.

The parser supports prefix declarations, IRIs, prefixed names, plain / typed
/ language-tagged literals, numeric and boolean shorthand, the ';' and ','
abbreviations, and 'a' for rdf:type.  Blank nodes, collections, long
strings, and @base are rejected as unsupported constructs.  An IRI holds
no control character, space or any of <>"{}|^`\\ (RDF 1.1 Turtle's IRIREF,
and the rule the writer checks), and no escape sequence.

Parsing picks a reader per statement.  A statement fast path reads the
triple statements write_turtle emits and the subject-grouped shape of
general RDF tools, one regex match for a statement's subject and first
`V O` and one per further item: after blank lines and whole-line comments
(skipped by _past_comments, one str.find per line), a statement of
prefixed names, absolute IRIs and strings without escapes, with `a`, `;`
and `,` abbreviations, ending its line.  It declines any other statement
(directives, escaped strings, numbers, booleans, comments inside a
statement, unknown prefixes) without raising.  The general reader, one
token regex at `pos` with one token of lookahead, reads that one statement,
and the fast path resumes at the token after it; it reads every directive,
which in a file convert writes are the five header lines only.  The fast
path accepts only statements the general reader reads as the same triples
without error, so the triples, their order and every error message, line
and column are those of the general reader alone.
"""

import io
import os
import re
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, TextIO

from .errors import SerializationError, TurtleSyntaxError, UnsupportedConstructError
from .terms import (
    BAD_PERCENT_RE,
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
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    Iri,
    PlainLiteral,
    Term,
    TypedLiteral,
    escape_id,
    is_escaped_id,
)
from .timeutil import format_utc_millis

if TYPE_CHECKING:  # the reader runs without the graph model, the writer without the store
    from .oced_model import OcedGraph, TypedValue
    from .triple_query import TripleStore

_ABSOLUTE_IRI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_BAD_IRI_CHARS = re.compile(r'[\x00-\x20<>"{}|^`\\]')
# the language tag both readers accept
_LANG_RE = re.compile(r"[A-Za-z][A-Za-z0-9\-]*")
# most IRIs written are instances, so ex: is tried first; no namespace
# starts another, so the order cannot change a token
_TOKEN_PREFIXES = PREFIXES[-1:] + PREFIXES[:-1]


# -- graph -> statements ----------------------------------------------------

# statements carry IRIs as strings
_RDF_TYPE, _OBSERVED_AT, _XSD_DATETIME = RDF_TYPE.value, OBSERVED_AT.value, XSD_DATETIME.value
_EXT_EVENT_TYPE, _EXT_OBJECT_TYPE = EXT_EVENT_TYPE.value, EXT_OBJECT_TYPE.value
_EXT_EVENT, _EXT_OBJECT, _EXT_CLASSIFIER = EXT_EVENT.value, EXT_OBJECT.value, EXT_CLASSIFIER.value
_EXT_EVENT_OBJECT_CLASS = EXT_EVENT_OBJECT_CLASS.value


class _Memo(dict):
    """fn(key), computed once per distinct key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _ext_iri(name: str) -> str:
    if not name:
        raise SerializationError("cannot mint an IRI from an empty name")
    return EXT + escape_id(name)


def _float_lexical(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "INF"
    if value == float("-inf"):
        return "-INF"
    return repr(value)


def _value_literal(tv: "TypedValue") -> tuple[str, str | None]:
    if tv.kind in ("string", "id"):
        return str(tv.value), None
    if tv.kind == "date":
        return format_utc_millis(tv.value), _XSD_DATETIME
    if tv.kind == "int":
        return str(tv.value), XSD_INTEGER.value
    if tv.kind == "float":
        return _float_lexical(float(tv.value)), XSD_DOUBLE.value
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
    """The graph's Turtle-level triples as a store (see _statements)."""
    from .triple_query import TripleStore

    iri = _Memo(Iri)
    store = TripleStore()
    for s, p, o in _statements(graph):
        if o.__class__ is str:
            o = iri[o]
        elif o[1] is None:
            o = PlainLiteral(o[0])
        else:
            o = TypedLiteral(o[0], iri[o[1]])
        store.insert((iri[s], iri[p], o))
    return store


# -- rendering ---------------------------------------------------------------


def _escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def _iri_token(value: str) -> str:
    for prefix, namespace in _TOKEN_PREFIXES:
        if value.startswith(namespace):
            local = value[len(namespace):]
            if is_escaped_id(local) and local[0] != "-":
                return f"{prefix}:{local}"
    if _BAD_IRI_CHARS.search(value):
        raise SerializationError(f"IRI contains characters illegal in Turtle: {value!r}")
    return f"<{value}>"


def _literal_token(lexical: str, datatype_token: str | None = None, lang: str | None = None) -> str:
    rendered = f'"{_escape_literal(lexical)}"'
    if datatype_token is not None:
        return f"{rendered}^^{datatype_token}"
    if lang and not _LANG_RE.fullmatch(lang):
        raise SerializationError(f"language tag {lang!r} is not [A-Za-z][A-Za-z0-9-]*")
    return f"{rendered}@{lang}" if lang else rendered


def render_term(term: Term) -> str:
    """Turtle token for one term, using the fixed prefixes where possible."""
    if isinstance(term, Iri):
        return _iri_token(term.value)
    if isinstance(term, TypedLiteral):
        return _literal_token(term.lexical, _iri_token(term.datatype.value))
    if isinstance(term, PlainLiteral):
        return _literal_token(term.value, lang=term.lang)
    raise TypeError(f"not a term: {term!r}")


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
    store: each distinct IRI is rendered once, each row is rendered as one
    string, and repeated statements (say, a passthrough attribute keyed
    event_type that equals the event type) are written once.  Every row is
    rendered and sorted before out is written, or opened when it is a path,
    so a graph that cannot be serialized leaves out untouched.
    """
    iri = _Memo(_iri_token)
    rows = sorted(
        {
            f"{iri[s]} {iri[p]} {iri[o] if o.__class__ is str else _literal_token(o[0], o[1] and iri[o[1]])} .\n"
            for s, p, o in _statements(graph)
        }
    )
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


# -- parsing -----------------------------------------------------------------

_IRIREF, _PNAME, _STRING, _NUMBER, _WORD, _ATWORD = "iriref", "pname", "string", "number", "word", "atword"
_PUNCT = "punct"  # . ; , ^^
_EOF = "eof"

_HEX = "0123456789abcdefABCDEF"

# One match skips blanks, then reads one token; the named group that
# matched is the token's kind.  The shapes are those of RDF 1.1 Turtle
# section 6.5, cut to the supported subset (numbers are ASCII digits).
# pname is tried before word, which matches its leading letters; a `"""`
# and a '.' before a digit match no kind.  A string token is its opening
# quote and first run; _read walks its escapes and closing quote.  When no
# kind fits, the empty last alternative matches: at a '#' _past_comments
# skips the comment lines, and otherwise _UNMATCHED names the error.  Every
# repeat is of one character class (a run of blanks, a local name), which
# the engine matches without keeping state per character.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*"
    r"(?:(?P<pname>(?:[A-Za-z][A-Za-z0-9_.\-]*)?:[A-Za-z0-9_.%\-]*)"
    r"|(?P<punct>[;,]|\.(?!\d)|\^\^)"
    r'|(?P<string>"(?!"")[^"\\\n]*)'
    r"|(?P<word>[A-Za-z][A-Za-z0-9_.\-]*)"
    r"|(?P<iriref><[^>\n]*>)"
    r"|(?P<number>[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<atword>@[A-Za-z][A-Za-z0-9\-]*)"
    r"|(?P<eof>\Z)"
    r"|)"
)
# one escape in a string and the run of plain characters after it
_ESCAPE_RUN_RE = re.compile(r'\\.[^"\\\n]*')
_ESCAPES = frozenset('\\"nrtbf')
# the start of text that no token matches, and its error
_UNMATCHED = (
    ('"""', "long string literal", UnsupportedConstructError),
    ('"', "unterminated string literal", TurtleSyntaxError),
    ("'", "single-quoted literal", UnsupportedConstructError),
    (("[", "]"), "blank node", UnsupportedConstructError),
    (("(", ")"), "collection", UnsupportedConstructError),
    ("_:", "blank node label", UnsupportedConstructError),
    ("<", "unterminated IRI", TurtleSyntaxError),
    ("@", "expected a name after '@'", TurtleSyntaxError),
    ("^", "expected '^^'", TurtleSyntaxError),
)

_BLANKS_RE = re.compile(r"[ \t\r\n]*")


def _past_comments(text: str, pos: int) -> int:
    """The offset past the blanks and whole comment lines at pos, or pos when
    no comment follows its blanks.  One str.find per comment line: as a
    repeated regex group, each line would hold engine state until the match
    ended, about 200 bytes a line."""
    end = _BLANKS_RE.match(text, pos).end()
    if not text.startswith("#", end):
        return pos
    while text.startswith("#", end):
        newline = text.find("\n", end)
        if newline < 0:
            return len(text)
        end = _BLANKS_RE.match(text, newline + 1).end()
    return end


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    return line, pos - text.rfind("\n", 0, pos)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value  # a pname's value is (prefix, local)
        self.pos = pos


# The statement fast path reads the triple statements write_turtle emits
# and the subject-grouped layout of general RDF tools.  After blanks (and
# the comment lines _past_comments skips when a match fails), _STATEMENT_RE
# reads a statement's subject S and its first `V O`.  Then _ITEM_RE reads each `; V O` or `, O` after it, one
# match per item, until an item ends with the `.` that ends its line; a verb
# V is an IRI or `a`.  No regex repeats a group per item, so a long item
# list holds no engine state per item.  It accepts only statements the
# general reader reads as the same triples without error: pnames have no
# '.' in the local part (and _fast_term declines a bad '%'), IRIs are
# absolute and free of _BAD_IRI_CHARS, strings hold no escape, and
# whitespace separates subject, verb and object.
_FAST_IRIREF = r'<[A-Za-z][A-Za-z0-9+.\-]*:[^\x00-\x20<>"{}|^`\\]*>'
_FAST_PNAME = r"(?:[A-Za-z][A-Za-z0-9_\-]*)?:[A-Za-z0-9_%\-]*"
_FAST_IRI = rf"(?:{_FAST_PNAME}|{_FAST_IRIREF})"
_FAST_LITERAL = rf'"[^"\\\n]*"(?:\^\^{_FAST_IRI}|@[A-Za-z][A-Za-z0-9\-]*)?'
_FAST_VERB = rf"{_FAST_IRI}|a"
_FAST_OBJECT = rf"{_FAST_IRI}|{_FAST_LITERAL}"
_END = r"\.[ \t\r]*(?:\n|\Z)"
# a `V O` item's object, with the statement's end when it follows; O must
# end where the general reader's token ends (`ex:o.x` is one name there), as
# its pair is added at once
_FAST_ITEM_OBJECT = rf"({_FAST_OBJECT})(?=[ \t\r\n;,]|{_END})[ \t\r\n]*({_END})?"
_ITEM_RE = re.compile(rf"(?:;[ \t\r\n]*({_FAST_VERB})[ \t\r\n]+|,[ \t\r\n]*){_FAST_ITEM_OBJECT}")
_STATEMENT_RE = re.compile(rf"[ \t\r\n]*({_FAST_IRI})[ \t\r\n]+({_FAST_VERB})[ \t\r\n]+{_FAST_ITEM_OBJECT}")


class _TurtleParser:
    def __init__(self, text: str, keep: Callable[[Iri], bool] | None = None):
        from .triple_query import TripleStore

        self.text = text
        self.pos = 0  # where the general reader reads its next token
        self.prefixes: dict[str, str] = {}
        self.terms: dict[str, Term] = {"a": RDF_TYPE}  # fast-path token -> term, while prefixes hold
        self.store = TripleStore()
        self._intern = _Memo(Iri).__getitem__
        # predicate -> its pair set in the store, or None when keep drops it
        partition = self.store._partition  # a closure over self would make a cycle
        self.partition = _Memo(lambda p: partition(p) if keep is None or keep(p) else None)

    def _error(self, message, pos, cls=TurtleSyntaxError):
        raise cls(message, *_line_col(self.text, pos))

    def _bind(self, prefix: str, namespace: str):
        self.prefixes[prefix] = namespace
        self.terms = {"a": RDF_TYPE}

    def _unescape(self, body: str, start: int) -> str:
        """body's escapes, checked in order, then decoded by the codec for
        Python's escapes, which match Turtle's once checked; a list of pieces
        would hold a pointer per escape."""
        for escape in _ESCAPE_RUN_RE.finditer(body):
            i = escape.start()
            esc = body[i + 1]
            if esc == "u" or esc == "U":
                width = 4 if esc == "u" else 8
                digits = body[i + 2 : i + 2 + width]
                if len(digits) != width or any(d not in _HEX for d in digits):
                    self._error(f"bad \\{esc} escape", start + i)
                code = int(digits, 16)
                if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                    self._error(f"\\{esc}{digits} is not a Unicode scalar value", start + i)
            elif esc not in _ESCAPES:
                self._error(f"unknown string escape \\{esc}", start + i)
        return body.encode("latin-1", "backslashreplace").decode("unicode_escape")

    def _read(self) -> _Token:
        """The token after the whitespace and comments at self.pos; self.pos
        moves past it."""
        text = self.text
        m = _TOKEN_RE.match(text, self.pos)
        kind = m.lastgroup
        if kind is None:
            start = m.end()
            if text.startswith("#", start):
                self.pos = _past_comments(text, start)
                return self._read()
            for opening, message, cls in _UNMATCHED:
                if text.startswith(opening, start):
                    self._error(message, start, cls)
            self._error(f"unexpected character {text[start]!r}", start)
        start, end = m.start(kind), m.end()
        if kind == _STRING:
            # one match per escape: a repeated regex group would keep state per escape
            while (escape := _ESCAPE_RUN_RE.match(text, end)) is not None:
                end = escape.end()
            if not text.startswith('"', end):
                self._error("unterminated string literal", start)
            self.pos = end + 1
            value = text[start + 1 : end]
            return _Token(kind, self._unescape(value, start + 1) if "\\" in value else value, start)
        value = m[kind]
        self.pos = end
        if kind == _PNAME or kind == _WORD:
            # a trailing dot terminates the statement, not the name
            if value.endswith("."):
                stripped = value.rstrip(".")
                self.pos -= len(value) - len(stripped)
                value = stripped
            if kind == _PNAME:
                if "%" in value and (bad := BAD_PERCENT_RE.search(value)) is not None:
                    self._error("bad percent escape in local name", start + bad.start())
                prefix, _, local = value.partition(":")
                value = (prefix, local)
        elif kind == _IRIREF:
            value = value[1:-1]
            bad = _BAD_IRI_CHARS.search(value)
            if bad is not None:
                pos = start + 1 + bad.start()
                if bad.group(0) == "\\":
                    self._error("escape sequences in IRIs are not supported", pos)
                self._error(f"character {bad.group(0)!r} is illegal inside an IRI", pos)
        elif kind == _ATWORD:
            value = value[1:]
        return _Token(kind, value, start)

    def _next(self) -> _Token:
        """The lookahead token; the token after it becomes the lookahead."""
        token = self.lookahead
        if token.kind != _EOF:
            self.lookahead = self._read()
        return token

    def _expect_punct(self, value):
        token = self._next()
        if token.kind != _PUNCT or token.value != value:
            self._error(f"expected {value!r}", token.pos)

    def parse(self) -> "TripleStore":
        """The fast path reads statements until it declines one; the general
        reader reads that one, and the fast path goes on at the token after it."""
        pos = 0
        while True:
            self.pos = self._fast_statements(pos)
            token = self.lookahead = self._read()
            if token.kind == _EOF:
                return self.store
            if token.kind == _ATWORD:
                if token.value.lower() == "prefix":
                    self._next()
                    self._directive(needs_dot=True)
                elif token.value.lower() == "base":
                    self._error("@base directive", token.pos, UnsupportedConstructError)
                else:
                    self._error(f"unexpected @{token.value}", token.pos)
            elif token.kind == _WORD and token.value.lower() == "prefix":
                self._next()
                self._directive(needs_dot=False)
            elif token.kind == _WORD and token.value.lower() == "base":
                self._error("BASE directive", token.pos, UnsupportedConstructError)
            else:
                self._triples()
            pos = self.lookahead.pos

    def _fast_statements(self, pos: int) -> int:
        """Add the pairs of the statements from pos on that the fast path reads;
        return the offset of the first one it declines, or the text's end.  It
        never raises.  The general reader reads a statement declined midway
        from its start, and adds again, as no-ops, the pairs added here."""
        text = self.text
        match, item = _STATEMENT_RE.match, _ITEM_RE.match
        partition, cook, terms = self.partition, self._fast_term, self.terms
        while True:
            m = match(text, pos)
            if m is None:
                resume = _past_comments(text, pos)
                if resume == pos:
                    return pos
                pos = resume
                continue
            s, p, o, last = m.groups()
            subject = terms.get(s) or cook(s)
            if subject is None:
                return pos
            while True:
                if p is not None:
                    predicate = terms.get(p) or cook(p)
                    if predicate is None:
                        return pos
                    pairs = partition[predicate]
                obj = terms.get(o) or cook(o)
                if obj is None:
                    return pos
                if pairs is not None:
                    pairs[subject, obj] = None
                if last is not None:
                    break
                m = item(text, m.end())
                if m is None:
                    return pos
                p, o, last = m.groups()
            pos = m.end()

    def _fast_term(self, token: str) -> Term | None:
        """Term for a token a fast-path regex matched, or None when it names an
        unknown prefix or holds a bad percent escape (the general reader then
        reports it)."""
        if token[0] == "<":
            term = self._intern(token[1:-1])
        elif token[0] == '"':
            end = token.index('"', 1)
            suffix = token[end + 1 :]
            if suffix.startswith("^^"):
                datatype = self._fast_term(suffix[2:])
                if datatype is None:
                    return None
                term = TypedLiteral(token[1:end], datatype)
            else:
                term = PlainLiteral(token[1:end], suffix[1:] or None)
        else:
            prefix, _, local = token.partition(":")
            namespace = self.prefixes.get(prefix)
            if namespace is None or "%" in local and BAD_PERCENT_RE.search(local):
                return None
            term = self._intern(namespace + local)
        self.terms[token] = term
        return term

    def _directive(self, needs_dot: bool):
        name = self._next()
        if name.kind != _PNAME or name.value[1] != "":
            self._error("expected a prefix name ending in ':'", name.pos)
        iri = self._next()
        if iri.kind != _IRIREF:
            self._error("expected an IRI", iri.pos)
        self._check_absolute(iri)
        self._bind(name.value[0], iri.value)
        if needs_dot:
            self._expect_punct(".")

    def _check_absolute(self, token):
        if not _ABSOLUTE_IRI_RE.match(token.value):
            self._error(f"relative IRI {token.value!r} (no base support)", token.pos)

    def _iri(self, role: str) -> Iri:
        token = self._next()
        if token.kind == _IRIREF:
            self._check_absolute(token)
            return self._intern(token.value)
        if token.kind == _PNAME:
            prefix, local = token.value
            if prefix not in self.prefixes:
                self._error(f"unknown prefix {prefix + ':'!r}", token.pos)
            return self._intern(self.prefixes[prefix] + local)
        self._error(f"expected an IRI as {role}", token.pos)

    def _verb(self) -> Iri:
        token = self.lookahead
        if token.kind == _WORD and token.value == "a":
            self._next()
            return RDF_TYPE
        return self._iri("predicate")

    def _object(self) -> Term:
        token = self.lookahead
        if token.kind in (_IRIREF, _PNAME):
            return self._iri("object")
        if token.kind == _STRING:
            self._next()
            nxt = self.lookahead
            if nxt.kind == _ATWORD:
                self._next()
                return PlainLiteral(token.value, lang=nxt.value)
            if nxt.kind == _PUNCT and nxt.value == "^^":
                self._next()
                return TypedLiteral(token.value, self._iri("datatype"))
            return PlainLiteral(token.value)
        if token.kind == _NUMBER:
            self._next()
            lexeme = token.value
            if "e" in lexeme or "E" in lexeme:
                return TypedLiteral(lexeme, XSD_DOUBLE)
            if "." in lexeme:
                return TypedLiteral(lexeme, XSD_DECIMAL)
            return TypedLiteral(lexeme, XSD_INTEGER)
        if token.kind == _WORD and token.value in ("true", "false"):
            self._next()
            return TypedLiteral(token.value, XSD_BOOLEAN)
        self._error("expected an IRI or literal object", token.pos)

    def _triples(self):
        subject = self._iri("subject")
        while True:
            pairs = self.partition[self._verb()]
            while True:
                obj = self._object()
                if pairs is not None:
                    pairs[subject, obj] = None
                nxt = self.lookahead
                if nxt.kind == _PUNCT and nxt.value == ",":
                    self._next()
                    continue
                break
            nxt = self._next()
            if nxt.kind == _PUNCT and nxt.value == ";":
                # tolerate trailing ';' before the final dot
                if self.lookahead.kind == _PUNCT and self.lookahead.value == ".":
                    self._next()
                    return
                continue
            if nxt.kind == _PUNCT and nxt.value == ".":
                return
            self._error("expected ';', ',' or '.'", nxt.pos)


def parse_turtle(text: str, keep: Callable[[Iri], bool] | None = None) -> "TripleStore":
    """Parse the supported Turtle subset into a triple store.

    With keep, the store holds only the triples whose predicate keep(predicate)
    is true for, in the order a full parse inserts them; keep is called once
    per distinct predicate.  Every statement is still read, so errors do not
    depend on keep.

    Raises TurtleSyntaxError (with line/column) on malformed input and
    UnsupportedConstructError for syntax outside the subset.
    """
    return _TurtleParser(text, keep).parse()
