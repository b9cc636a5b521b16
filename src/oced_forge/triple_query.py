"""Predicate-partitioned in-memory triple store with basic-graph-pattern matching.

Var and TriplePattern are plain classes compared by value (no dataclass,
so loading a store imports no dataclasses); a Var never equals a term.

The store is its predicate partitions: one dict from each predicate to an
insertion-ordered set of its (subject, object) pairs, with set semantics.
A pattern's predicate is an IRI, so every pattern reads exactly one
partition, and pairs(predicate) hands a partition to callers that need no
bindings.  Iteration yields Triples predicate-major: predicates in
first-seen order, each predicate's triples in insertion order.  No order
anywhere is hash order, so query results are deterministic across
processes.

The query language is what the analyses ask: a BGP joins its patterns in
the order written, and match_optional left-joins each OPTIONAL group onto
the required block's solutions.  A group joins on variables the required
patterns bind, never on one that only an earlier group binds.

Inside the store a solution is a row: a tuple of terms aligned to a tuple of
variable names, with None where an OPTIONAL group left a variable unbound
(no term is None).  A pattern is read by one row scan, which applies its
constants and repeated variable.  Each join step is a hash join: the
pattern or group is scanned once, unsubstituted, its rows are keyed on the
variables already bound, and a row is extended by tuple concatenation.
match_pattern, match_bgp and match_optional build binding dicts once, from
the final rows, for library callers; an unbound variable is an absent key.
The analyses and store_to_dot read the rows of _bgp and _optional_rows and
build no dict, but for one match_pattern read of the EventObject nodes.

There are no FILTER expressions: callers decode the literals they compare
(datetime_value) and compare the values themselves.
"""

from collections import defaultdict
from collections.abc import KeysView
from datetime import datetime
from operator import itemgetter

from .terms import Iri, Term, Triple, TypedLiteral, XSD_DATETIME
from .timeutil import has_utc_instant, parse_instant


class Var:
    """A query variable.  Not a named tuple like the terms, so a Var never
    equals a term: Var("x") != Iri("x")."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return self.name == other.name if other.__class__ is Var else NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return f"?{self.name}"


PatternTerm = Term | Var


class TriplePattern:
    """A triple whose subject and object may be variables; its predicate is
    an IRI (TypeError otherwise)."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: PatternTerm, predicate: Iri, object: PatternTerm):
        if not isinstance(predicate, Iri):
            raise TypeError(f"pattern predicate must be an IRI, got {predicate!r}")
        for field, value in zip(self.__slots__, (subject, predicate, object)):
            super().__setattr__(field, value)

    __setattr__ = Var.__setattr__

    def __eq__(self, other):
        return self.positions() == other.positions() if other.__class__ is TriplePattern else NotImplemented

    def __hash__(self):
        return hash(self.positions())

    def __repr__(self):
        return f"TriplePattern(subject={self.subject!r}, predicate={self.predicate!r}, object={self.object!r})"

    def positions(self):
        return (self.subject, self.predicate, self.object)

    def variables(self) -> set[str]:
        return {p.name for p in self.positions() if isinstance(p, Var)}


BindingSet = dict[str, Term]
# variable names, and one row of terms per solution (see the module docstring)
Rows = tuple[tuple[str, ...], list[tuple]]


def datetime_value(term: Term) -> datetime | None:
    """Instant of an xsd:dateTime literal, or None when term is not one or
    has no UTC instant in datetime's years 1..9999 (has_utc_instant, the
    transform's rule)."""
    if isinstance(term, TypedLiteral) and term.datatype == XSD_DATETIME:
        try:
            instant = parse_instant(term.lexical)
        except ValueError:
            return None
        return instant if has_utc_instant(instant) else None
    return None


class TripleStore:
    def __init__(self, triples=()):
        # predicate -> its (subject, object) pairs: an insertion-ordered set
        self._partitions: defaultdict[Iri, dict[tuple[Term, Term], None]] = defaultdict(dict)
        self._frozen = False
        for t in triples:
            self.insert(t)

    def __len__(self):
        return sum(map(len, self._partitions.values()))

    def __iter__(self):
        for predicate, pairs in self._partitions.items():
            for subject, obj in pairs:
                yield Triple(subject, predicate, obj)

    def __contains__(self, triple: Triple):
        subject, predicate, obj = triple
        return (subject, obj) in self._partitions.get(predicate, ())

    def insert(self, triple: Triple) -> "TripleStore":
        """Add a triple; duplicates are ignored (set semantics).  A subject or
        predicate that is not an IRI raises TypeError, as Triple does."""
        if self._frozen:
            raise RuntimeError("store is frozen")
        subject, predicate, obj = Triple(*triple)
        self._partition(predicate)[subject, obj] = None
        return self

    def _partition(self, predicate: Iri) -> dict[tuple[Term, Term], None]:
        """The predicate's pair set, created empty when new; the Turtle
        reader adds (subject, object) keys to it, skipping insert's checks."""
        return self._partitions[predicate]

    def freeze(self) -> "TripleStore":
        """Make the store immutable; analyses expect a frozen store."""
        self._frozen = True
        return self

    def triples(self):
        return list(self)

    def predicates(self) -> list[Iri]:
        """The store's predicates, in first-seen order."""
        return list(self._partitions)

    def pairs(self, predicate: Term) -> KeysView[tuple[Term, Term]]:
        """The (subject, object) pairs of the predicate's triples, in
        insertion order."""
        return self._partitions.get(predicate, {}).keys()

    # -- pattern matching ---------------------------------------------------

    def _scan(self, pattern: TriplePattern) -> Rows:
        """The pattern's variables in first-seen order, and one row of their
        values per matching triple: the predicate's pairs, filtered by the
        pattern's constants and repeated variable, so `?s P ?o` is the pairs
        themselves."""
        subject, predicate, obj = pattern.positions()
        rows = self.pairs(predicate)
        first: dict[str, int] = {}
        for column, term in enumerate((subject, obj)):
            if not isinstance(term, Var):
                rows = [row for row in rows if row[column] == term]
            elif first.setdefault(term.name, column) != column:
                rows = [row for row in rows if row[0] == row[1]]
        columns = tuple(first.values())
        if columns != (0, 1):
            rows = map(_columns(columns), rows)
        return tuple(first), list(rows)

    def match_pattern(self, pattern: TriplePattern) -> list[BindingSet]:
        """One binding set per matching triple; equals an exhaustive scan."""
        names, rows = self._scan(pattern)
        return [dict(zip(names, row)) for row in rows]

    def match_bgp(self, patterns: list[TriplePattern]) -> list[BindingSet]:
        """Natural join of the patterns' matches, in the order written."""
        names, rows = self._bgp(patterns)
        return [dict(zip(names, row)) for row in rows]

    def match_optional(
        self,
        required: list[TriplePattern],
        optional_groups: list[list[TriplePattern]],
    ) -> list[BindingSet]:
        """Left-outer-join semantics: each solution of the required block is
        extended by every compatible match of each optional group, or kept
        as-is when a group has no compatible match.

        A group may share with earlier groups only variables that the
        required patterns bind; ValueError otherwise."""
        required_names = {name for pattern in required for name in pattern.variables()}
        earlier: set[str] = set()
        for group in optional_groups:
            variables = {name for pattern in group for name in pattern.variables()}
            shared = sorted((variables & earlier) - required_names)
            if shared:
                raise ValueError(
                    f"OPTIONAL group {group!r} joins on ?{', ?'.join(shared)}, which only an earlier group binds"
                )
            earlier |= variables
        names, rows = self._optional_rows(required, optional_groups)
        return [{name: term for name, term in zip(names, row) if term is not None} for row in rows]

    def _optional_rows(self, required, optional_groups) -> Rows:
        """match_optional's solutions as rows, its groups unchecked."""
        names, rows = self._bgp(required)
        for group in optional_groups:
            names, rows = self._join(names, rows, group, optional=True)
        return names, rows

    def _bgp(self, patterns) -> Rows:
        """match_bgp's solutions as rows; the names are every pattern's
        variables even when a join leaves no row (a join of no rows scans
        nothing)."""
        names, rows = (), [()]
        for pattern in patterns:
            names, rows = self._join(names, rows, [pattern], optional=False)
        return names, rows

    def _join(self, names, rows, group: list[TriplePattern], optional: bool) -> Rows:
        """Extend each row, in order, by every compatible match of the group;
        an optional group keeps a row it has no match for, its new variables
        unbound (None).

        The group is scanned once, unsubstituted, and its matches are keyed
        on the variables the rows already bind, so extending a row is one
        dict lookup and a tuple concatenation per match.  Every row binds
        every such variable: match_optional lets a group share only
        required ones."""
        variables = dict.fromkeys(
            term.name for pattern in group for term in pattern.positions() if isinstance(term, Var)
        )
        keyed = [name for name in variables if name in names]
        new = tuple(name for name in variables if name not in names)
        if not rows:
            return names + new, rows
        table = self._matches(group, keyed, new)
        row_key, pad = _key([names.index(name) for name in keyed]), (None,) * len(new)
        extended: list[tuple] = []
        for row in rows:
            matches = table.get(row_key(row))
            if matches:
                for match in matches:
                    extended.append(row + match)
            elif optional:
                extended.append(row + pad)
        return names + new, extended

    def _matches(self, group: list[TriplePattern], keyed: list[str], carried: tuple[str, ...]):
        """The group's matches, as their values for carried, listed in match
        order under their values for keyed."""
        names, rows = self._scan(group[0]) if len(group) == 1 else self._bgp(group)
        key = _key([names.index(name) for name in keyed])
        value = _columns([names.index(name) for name in carried])
        table: defaultdict = defaultdict(list)
        for row in rows:
            table[key(row)].append(value(row))
        return table


def _no_columns(row):
    return ()


def _key(columns):
    """Row -> its values at columns; the bare term for one column."""
    return itemgetter(*columns) if columns else _no_columns


def _columns(columns):
    """Row -> the tuple of its values at columns."""
    if len(columns) == 1:
        (column,) = columns
        return lambda row: (row[column],)
    return _key(columns)
