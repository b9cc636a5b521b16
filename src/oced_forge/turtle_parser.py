"""The reader of the Turtle subset turtle_io writes: parse_turtle.  It is a
module of its own so that convert, which only writes, never loads it or
compiles its regexes; turtle_io forwards parse_turtle here.

The parser supports prefix declarations, IRIs, prefixed names, plain / typed
/ language-tagged literals, numeric and boolean shorthand, the ';' and ','
abbreviations, and 'a' for rdf:type.  Blank nodes, collections, long
strings, and @base are rejected as unsupported constructs.  An IRI is
absolute and holds no control character, space or any of <>"{}|^`\\, and
no escape sequence.  The shapes of an IRIREF, its scheme and a language tag
(RDF 1.1 Turtle section 6.5) are terms', from which the fast path, the
general reader and the writer each build their patterns, so what one
writes the others read.  The general reader takes the name after an '@' as
one run and checks a tag against LANGTAG, so a bad tag is an error naming
it.

Parsing picks a reader per statement.  A statement fast path reads the
triple statements write_turtle emits and the subject-grouped shape of
general RDF tools, one regex match for a statement's subject and first
`V O` and one per further item: after blank lines and whole-line comments
(skipped by one _COMMENTS_RE match), a statement of prefixed names,
absolute IRIs, strings without escapes, numbers and booleans, with `a`,
`;` and `,` abbreviations, ending its line.  Its regexes match each
token's outline, and one memo (_FastTerms) cooks each distinct token once
and checks there what the outline leaves out.  It declines any other
statement (directives, escaped strings, comments inside a statement,
unknown prefixes, relative IRIs) without raising.  The general reader, one
token regex at `pos` with one token of lookahead, reads that one
statement, and the fast path resumes at the token after it; it reads
every directive, which in a file convert writes are the five header lines
only.  Its tokens carry their grammar's kinds: a punctuation token ('.',
';', ',' or '^^', each a terminal of its own) has its text as its kind, so
every token is tested by its kind alone, and one dispatch on the
lower-cased keyword of a WORD or @word token reads the five directive
forms (@prefix, @base, any other @word, PREFIX, BASE).  The fast path
accepts only statements the general reader reads as the same triples
without error, so the triples, their order and every error message, line
and column are those of the general reader alone.

Each token shape is one regex, and every repeated group in it is
possessive (`*+`, `++`, Python 3.11): the engine keeps no state per repeat
and never retries one, so a run of comment lines or escapes, however long,
is read in memory bounded by its size.

Both readers add each (subject, object) pair straight to its predicate's
partition in the store (see triple_query) and build no Triple.  One memo
maps each predicate to its partition, or to None when parse_turtle's keep
rule, a function of the predicate, drops it; the kept pairs go in the
order a full parse adds them.  Both readers still read and cook every
statement, so every error keeps its class, message, line and column.
"""

import re
from collections.abc import Callable

from .errors import TurtleSyntaxError, UnsupportedConstructError
from .terms import (
    _BAD_IRI_CHARS,
    _IRI_ILLEGAL,
    _IRI_SCHEME,
    _LANGTAG,
    BAD_PERCENT_RE,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    Iri,
    PlainLiteral,
    Term,
    TypedLiteral,
    _Memo,
)
from .triple_query import TripleStore

_starts_with_scheme = re.compile(_IRI_SCHEME).match  # what makes an IRIREF absolute
_is_langtag = re.compile(_LANGTAG).fullmatch

_IRIREF, _PNAME, _STRING, _NUMBER, _WORD, _ATWORD = "iriref", "pname", "string", "number", "word", "atword"
_EOF = "eof"

_HEX = "0123456789abcdefABCDEF"
# RDF 1.1 Turtle's DOUBLE, DECIMAL and INTEGER (section 6.5), longest
# first: the first alternative that matches is taken, so `5.e3` is one
# DOUBLE, while `5.` before a blank is INTEGER `5` and the statement's `.`
_EXPONENT = r"[eE][+-]?[0-9]+"
_NUMBER_SHAPE = rf"[+-]?(?:[0-9]+\.[0-9]*{_EXPONENT}|\.?[0-9]+{_EXPONENT}|[0-9]*\.[0-9]+|[0-9]+)"
_new = tuple.__new__  # builds a term tuple without its class's Python __new__

# One match skips blanks and comments, then reads one token; the named
# group that matched is the token's kind, except that a punct token takes
# its text ('.', ';', ',' or '^^') as its kind.  The shapes are those of RDF
# 1.1 Turtle section 6.5, cut to the supported subset (numbers are ASCII
# digits).  pname is tried before word, which matches its leading letters;
# both end before a trailing '.', which ends the statement.  A string token
# runs to its closing quote, escapes included, and a `"""` matches no kind;
# a '.' before a digit starts a number.  When no kind fits, the empty last
# alternative matches and _UNMATCHED names the error.  Every repeated group
# is possessive, so the engine keeps no state per comment line or escape,
# and every other repeat is of one character class.  An atword is a
# directive keyword or a language tag, which _object checks.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]++|#[^\n]*+)*+"
    r"(?:(?P<pname>(?:[A-Za-z][A-Za-z0-9_.\-]*)?:[A-Za-z0-9_.%\-]*(?<!\.))"
    r"|(?P<punct>[;,]|\.(?!\d)|\^\^)"
    r'|(?P<string>"(?!"")(?:[^"\\\n]++|\\.)*+")'
    r"|(?P<word>[A-Za-z][A-Za-z0-9_.\-]*(?<!\.))"
    r"|(?P<iriref><[^>\n]*>)"
    rf"|(?P<number>{_NUMBER_SHAPE})"
    r"|(?P<atword>@[A-Za-z][A-Za-z0-9\-]*)"
    r"|(?P<eof>\Z)"
    r"|)"
)
# an escape in a string's body
_ESCAPE_RE = re.compile(r"\\.")
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

# blanks and then at least one whole comment line, as the fast path skips them
_COMMENTS_RE = re.compile(r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)++")


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
# the comment lines _COMMENTS_RE skips when a match fails), _STATEMENT_RE
# reads a statement's subject S and its first `V O`.  Then _ITEM_RE reads
# each `; V O` or `, O` after it, one match per item, until an item ends
# with the `.` that ends its line; a verb V is an IRI or `a`.  One match
# per item, not a repeated group, keeps each match short; _STATEMENT_RE
# skips plain blanks itself, not comments, as a skip group would run once
# per statement.  The regexes check a token's outline only, each part a
# run of one character class: a pname is `prefix:local` with no '.' in
# either part, an IRIREF a run free of _IRI_ILLEGAL between '<' and '>', a
# string holds no escape, and an object may also be a number or `true` /
# `false`.  An object must end where the general reader's token ends
# (`ex:o.x` is one name there), so after it and its blanks come `;`, `,` or
# the statement's end.  _FastTerms checks the rest once per distinct token, declining a
# token whose prefix is unbound, whose local name holds a bad '%' or whose
# IRIREF has no scheme.  A prefix the general reader binds starts with a
# letter (or is empty), so the unbound-prefix check also declines `1a:` or
# `_:`.  So the fast path accepts only statements the general reader reads
# as the same triples without error.
_FAST_PNAME = r"[A-Za-z0-9_\-]*:[A-Za-z0-9_%\-]*"
_FAST_IRI = rf"(?:{_FAST_PNAME}|<[^{_IRI_ILLEGAL}]*>)"
_FAST_LITERAL = rf'"[^"\\\n]*"(?:\^\^{_FAST_IRI}|@{_LANGTAG})?'
_FAST_VERB = rf"{_FAST_IRI}|a"
_FAST_OBJECT = rf"{_FAST_IRI}|{_FAST_LITERAL}|{_NUMBER_SHAPE}|true|false"
_END = r"\.[ \t\r]*(?:\n|\Z)"
# a `V O` item's object, then the statement's end or the next item's ; or ,
_FAST_ITEM_OBJECT = rf"({_FAST_OBJECT})[ \t\r\n]*(?:({_END})|(?=[;,]))"
_ITEM_RE = re.compile(rf"(?:;[ \t\r\n]*({_FAST_VERB})[ \t\r\n]+|,[ \t\r\n]*){_FAST_ITEM_OBJECT}")
_STATEMENT_RE = re.compile(rf"[ \t\r\n]*({_FAST_IRI})[ \t\r\n]+({_FAST_VERB})[ \t\r\n]+{_FAST_ITEM_OBJECT}")


def _shorthand(lexeme: str) -> TypedLiteral:
    """The literal a number or `true` / `false` token stands for: a number
    with an exponent is a DOUBLE (`5.e3` and `.5e3` too), else one with a
    '.' a DECIMAL (`.5` too)."""
    if lexeme == "true" or lexeme == "false":
        datatype = XSD_BOOLEAN
    elif "e" in lexeme or "E" in lexeme:
        datatype = XSD_DOUBLE
    elif "." in lexeme:
        datatype = XSD_DECIMAL
    else:
        datatype = XSD_INTEGER
    return _new(TypedLiteral, (lexeme, datatype))


class _FastTerms(dict):
    """Fast-path token -> its term, cooked on the first lookup, or None for
    a token the fast path declines (the general reader then reports it).
    It holds the bound prefixes and the IRI intern, not the parser, so it
    makes no reference cycle, and is valid while the prefixes hold."""

    def __init__(self, prefixes: dict[str, str], intern: Callable[[str], Iri]):
        super().__init__(a=RDF_TYPE)
        self.prefixes = prefixes
        self.intern = intern

    def __missing__(self, token: str) -> Term | None:
        first = token[0]
        if first == "<":
            iri = token[1:-1]
            term = self.intern(iri) if _starts_with_scheme(iri) else None
        elif first == '"':
            end = token.index('"', 1)
            suffix = token[end + 1 :]
            if suffix.startswith("^^"):
                datatype = self[suffix[2:]]
                term = None if datatype is None else _new(TypedLiteral, (token[1:end], datatype))
            else:
                term = _new(PlainLiteral, (token[1:end], suffix[1:] or None))
        elif ":" in token:
            prefix, _, local = token.partition(":")
            namespace = self.prefixes.get(prefix)
            if namespace is None or "%" in local and BAD_PERCENT_RE.search(local):
                term = None
            else:
                term = self.intern(namespace + local)
        else:
            term = _shorthand(token)
        self[token] = term
        return term


class _TurtleParser:
    def __init__(self, text: str, keep: Callable[[Iri], bool] | None = None):
        self.text = text
        self.pos = 0  # where the general reader reads its next token
        self.prefixes: dict[str, str] = {}
        self.store = TripleStore()
        self._intern = _Memo(lambda value: _new(Iri, (value,))).__getitem__
        self.terms = _FastTerms(self.prefixes, self._intern)
        # predicate -> its pair set in the store, or None when keep drops it
        partition = self.store._partition  # a closure over self would make a cycle
        self.partition = _Memo(lambda p: partition(p) if keep is None or keep(p) else None)

    def _error(self, message, pos, cls=TurtleSyntaxError):
        raise cls(message, *_line_col(self.text, pos))

    def _bind(self, prefix: str, namespace: str):
        self.prefixes[prefix] = namespace
        self.terms = _FastTerms(self.prefixes, self._intern)

    def _unescape(self, body: str, start: int) -> str:
        """body's escapes, checked in order, then decoded by the codec for
        Python's escapes, which match Turtle's once checked; a list of pieces
        would hold a pointer per escape."""
        for escape in _ESCAPE_RE.finditer(body):
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
            for opening, message, cls in _UNMATCHED:
                if text.startswith(opening, start):
                    self._error(message, start, cls)
            self._error(f"unexpected character {text[start]!r}", start)
        start, value = m.start(kind), m[kind]
        self.pos = m.end()
        if kind == _STRING:
            value = value[1:-1]
            if "\\" in value:
                value = self._unescape(value, start + 1)
        elif kind == _PNAME:
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
        elif kind == "punct":
            kind = value
        return _Token(kind, value, start)

    def _next(self) -> _Token:
        """The lookahead token; the token after it becomes the lookahead."""
        token = self.lookahead
        if token.kind != _EOF:
            self.lookahead = self._read()
        return token

    def parse(self) -> TripleStore:
        """The fast path reads statements until it declines one; the general
        reader reads that one, and the fast path goes on at the token after it."""
        pos = 0
        while True:
            self.pos = self._fast_statements(pos)
            token = self.lookahead = self._read()
            if token.kind == _EOF:
                return self.store
            # a directive keyword is read in any case: @prefix, @base and any
            # other @word, or the SPARQL-style PREFIX and BASE
            at = token.kind == _ATWORD
            keyword = token.value.lower() if at or token.kind == _WORD else None
            if keyword == "prefix":
                self._next()
                self._directive(needs_dot=at)
            elif keyword == "base":
                self._error(f"{'@base' if at else 'BASE'} directive", token.pos, UnsupportedConstructError)
            elif at:
                self._error(f"unexpected @{token.value}", token.pos)
            else:
                self._triples()
            pos = self.lookahead.pos

    def _fast_statements(self, pos: int) -> int:
        """Add the pairs of the statements from pos on that the fast path reads;
        return the offset of the first one it declines, or the text's end.  It
        never raises.  The general reader reads a statement declined midway
        from its start, and adds again, as no-ops, the pairs added here."""
        text = self.text
        match, item, skip = _STATEMENT_RE.match, _ITEM_RE.match, _COMMENTS_RE.match
        partition, terms = self.partition, self.terms
        while True:
            m = match(text, pos)
            if m is None:
                m = skip(text, pos)
                if m is None:
                    return pos
                pos = m.end()
                continue
            s, p, o, last = m.groups()
            subject = terms[s]
            if subject is None:
                return pos
            while True:
                if p is not None:
                    predicate = terms[p]
                    if predicate is None:
                        return pos
                    pairs = partition[predicate]
                obj = terms[o]
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

    def _directive(self, needs_dot: bool):
        name = self._next()
        if name.kind != _PNAME or name.value[1] != "":
            self._error("expected a prefix name ending in ':'", name.pos)
        iri = self._next()
        if iri.kind != _IRIREF:
            self._error("expected an IRI", iri.pos)
        self._bind(name.value[0], self._absolute(iri))
        if needs_dot and (dot := self._next()).kind != ".":
            self._error("expected '.'", dot.pos)

    def _absolute(self, token: _Token) -> str:
        """An IRIREF token's text, which must start with a scheme."""
        if not _starts_with_scheme(token.value):
            self._error(f"relative IRI {token.value!r} (no base support)", token.pos)
        return token.value

    def _iri(self, role: str) -> Iri:
        token = self._next()
        if token.kind == _IRIREF:
            return self._intern(self._absolute(token))
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
                if not _is_langtag(nxt.value):
                    self._error(f"language tag {nxt.value!r} is not [A-Za-z]+(-[A-Za-z0-9]+)*", nxt.pos)
                return PlainLiteral(token.value, lang=nxt.value)
            if nxt.kind == "^^":
                self._next()
                return TypedLiteral(token.value, self._iri("datatype"))
            return PlainLiteral(token.value)
        if token.kind == _NUMBER or token.kind == _WORD and token.value in ("true", "false"):
            self._next()
            return _shorthand(token.value)
        self._error("expected an IRI or literal object", token.pos)

    def _triples(self):
        subject = self._iri("subject")
        while True:
            pairs = self.partition[self._verb()]
            while True:
                obj = self._object()
                if pairs is not None:
                    pairs[subject, obj] = None
                if self.lookahead.kind != ",":
                    break
                self._next()
            nxt = self._next()
            if nxt.kind == ";":
                # tolerate trailing ';' before the final dot
                if self.lookahead.kind == ".":
                    self._next()
                    return
                continue
            if nxt.kind == ".":
                return
            self._error("expected ';', ',' or '.'", nxt.pos)


def parse_turtle(text: str, keep: Callable[[Iri], bool] | None = None) -> TripleStore:
    """Parse the supported Turtle subset into a triple store.

    With keep, the store holds only the triples whose predicate keep(predicate)
    is true for, in the order a full parse inserts them; keep is called once
    per distinct predicate.  Every statement is still read, so errors do not
    depend on keep.

    Raises TurtleSyntaxError (with line/column) on malformed input and
    UnsupportedConstructError for syntax outside the subset.
    """
    return _TurtleParser(text, keep).parse()
