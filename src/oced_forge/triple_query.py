"""Indexed in-memory triple store with basic-graph-pattern matching.

The store has set semantics: one insertion-ordered set of triples, and one
predicate index that lists each triple once, in insertion order.  A pattern
with a constant predicate reads that predicate's triples; any other pattern
reads every triple.  Iteration order everywhere is insertion order, never
hash order, so query results are deterministic across processes.

BGP evaluation joins patterns most-selective-first: at each step the
remaining pattern with the cheapest index estimate (given the variables
already bound) is joined next.  OPTIONAL evaluation left-joins each optional
group onto the required block's solutions.

Inside the store a solution is a row: a tuple of terms aligned to a tuple of
variable names, with None where an OPTIONAL group left a variable unbound
(no term is None).  A pattern is read by one row scan, which applies its
constants and repeated variables.  Both join steps are hash joins planned
once per binding shape (which of the step's variables a row already binds):
the pattern or group is scanned once, unsubstituted, its rows are keyed on
those variables, and a row is extended by tuple concatenation.
match_pattern, match_bgp and match_optional build binding dicts once, from
the final rows; an unbound variable is an absent key.

There are no FILTER expressions: callers decode the literals they compare
(datetime_value) and compare the values themselves.
"""

from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter

from .terms import Term, Triple, TypedLiteral, XSD_DATETIME
from .timeutil import parse_instant


# a dataclass, not a named tuple like the terms: a Var never equals a term
@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


PatternTerm = Term | Var


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def positions(self):
        return (self.subject, self.predicate, self.object)

    def variables(self) -> set[str]:
        return {p.name for p in self.positions() if isinstance(p, Var)}


BindingSet = dict[str, Term]
# variable names, and one row of terms per solution (see the module docstring)
Rows = tuple[tuple[str, ...], list[tuple]]


def datetime_value(term: Term) -> datetime | None:
    """Instant of an xsd:dateTime literal, or None when term is not one or
    has no UTC instant in datetime's years 1..9999 (the transform's rule)."""
    if isinstance(term, TypedLiteral) and term.datatype == XSD_DATETIME:
        try:
            instant = parse_instant(term.lexical)
            instant.astimezone(timezone.utc)
        except (ValueError, OverflowError):
            return None
        return instant
    return None


class TripleStore:
    def __init__(self, triples=()):
        self._triples: dict[Triple, None] = {}  # an insertion-ordered set
        self._by_p: defaultdict[Term, list[Triple]] = defaultdict(list)
        self._frozen = False
        for t in triples:
            self.insert(t)

    def __len__(self):
        return len(self._triples)

    def __iter__(self):
        return iter(self._triples)

    def __contains__(self, triple: Triple):
        return triple in self._triples

    def insert(self, triple: Triple) -> "TripleStore":
        """Add a triple; duplicates are ignored (set semantics)."""
        if self._frozen:
            raise RuntimeError("store is frozen")
        if triple in self._triples:
            return self
        self._triples[triple] = None
        self._by_p[triple.predicate].append(triple)
        return self

    def freeze(self) -> "TripleStore":
        """Make the store immutable; analyses expect a frozen store."""
        self._frozen = True
        return self

    def triples(self):
        return list(self._triples)

    # -- pattern matching ---------------------------------------------------

    def _candidates(self, pattern: TriplePattern):
        """The predicate's triples for a constant predicate, else every triple."""
        if isinstance(pattern.predicate, Var):
            return self._triples
        return self._by_p.get(pattern.predicate, ())

    def _scan(self, pattern: TriplePattern) -> Rows:
        """The pattern's variables in first-seen order, and one row of their
        values per matching triple, in candidate order."""
        names: list[str] = []
        columns: list[int] = []
        constants: list[int] = []
        repeats: list[tuple[int, int]] = []
        for position, term in enumerate(pattern.positions()):
            if isinstance(term, Var):
                if term.name in names:
                    repeats.append((position, columns[names.index(term.name)]))
                else:
                    names.append(term.name)
                    columns.append(position)
            elif position != 1:  # a constant predicate is the index key
                constants.append(position)
        triples = self._candidates(pattern)
        if constants:
            get = itemgetter(*constants)
            want = get(pattern.positions())
            triples = [triple for triple in triples if get(triple) == want]
        for position, first in repeats:
            triples = [triple for triple in triples if triple[position] == triple[first]]
        return tuple(names), list(map(_columns(columns), triples))

    def match_pattern(self, pattern: TriplePattern) -> list[BindingSet]:
        """One binding set per matching triple; equals an exhaustive scan."""
        names, rows = self._scan(pattern)
        return [dict(zip(names, row)) for row in rows]

    def _estimate(self, pattern: TriplePattern, bound: set[str]) -> float:
        """Cardinality estimate used for join ordering; deterministic."""
        n_bound = sum(isinstance(t, Var) and t.name in bound for t in pattern.positions())
        base = len(self._candidates(pattern))
        # variables already bound by earlier patterns act as constants at
        # evaluation time; discount them
        return base / (10.0**n_bound)

    def _plan(self, patterns):
        remaining = list(enumerate(patterns))
        bound: set[str] = set()
        ordered = []
        while remaining:
            index, pattern = min(
                remaining, key=lambda item: (self._estimate(item[1], bound), item[0])
            )
            remaining = [item for item in remaining if item[0] != index]
            ordered.append(pattern)
            bound |= pattern.variables()
        return ordered

    def match_bgp(self, patterns: list[TriplePattern]) -> list[BindingSet]:
        """Natural join of the patterns' matches (deterministic order)."""
        names, rows = self._bgp(patterns)
        return [dict(zip(names, row)) for row in rows]

    def match_optional(
        self,
        required: list[TriplePattern],
        optional_groups: list[list[TriplePattern]],
    ) -> list[BindingSet]:
        """Left-outer-join semantics: each solution of the required block is
        extended by every compatible match of each optional group, or kept
        as-is when a group has no compatible match."""
        names, rows = self._bgp(required)
        for group in optional_groups:
            names, rows = self._join(names, rows, group, optional=True)
        return [{name: term for name, term in zip(names, row) if term is not None} for row in rows]

    def _bgp(self, patterns) -> Rows:
        """match_bgp's solutions as rows."""
        names, rows = (), [()]
        for pattern in self._plan(list(patterns)):
            names, rows = self._join(names, rows, [pattern], optional=False)
            if not rows:
                break
        return names, rows

    def _join(self, names, rows, group: list[TriplePattern], optional: bool) -> Rows:
        """Extend each row, in order, by every compatible match of the group;
        an optional group keeps a row it has no match for, its new variables
        unbound (None).

        Rows are split by which of the group's variables they bind (their
        shape).  Per shape the group is scanned once, unsubstituted, and its
        matches are keyed on the values of those variables, so extending a
        row is one dict lookup and a tuple concatenation.  Most rows bind
        every join variable; a row that an earlier OPTIONAL group left
        unbound in one has its None slots filled from the match.  A
        one-pattern group extends each row by its matching triples in
        insertion order."""
        variables = dict.fromkeys(
            term.name for pattern in group for term in pattern.positions() if isinstance(term, Var)
        )
        new = tuple(name for name in variables if name not in names)
        slots = tuple(names.index(name) for name in variables if name in names)
        pad = (None,) * len(new)
        row_key, single = _key(slots), len(slots) == 1
        tables = {}  # bound slots -> (unbound slots, matches by key)
        extended: list[tuple] = []
        for row in rows:
            key, bound = row_key(row), slots
            if (key is None) if single else (None in key):  # an OPTIONAL group left one unbound
                bound = tuple(slot for slot in slots if row[slot] is not None)
                key = _key(bound)(row)
            entry = tables.get(bound)
            if entry is None:
                free = tuple(slot for slot in slots if slot not in bound)
                keyed = [names[slot] for slot in bound]
                carried = [names[slot] for slot in free] + list(new)
                entry = tables[bound] = free, self._matches(group, keyed, carried)
            free, table = entry
            matches = table.get(key)
            if not matches:
                if optional:
                    extended.append(row + pad)
            elif not free:
                for match in matches:
                    extended.append(row + match)
            else:
                for match in matches:
                    filled = list(row)
                    for slot, term in zip(free, match):
                        filled[slot] = term
                    extended.append(tuple(filled) + match[len(free):])
        return names + new, extended

    def _matches(self, group: list[TriplePattern], keyed: list[str], carried: list[str]):
        """The group's matches, as their values for carried, listed in match
        order under their values for keyed."""
        names, rows = self._scan(group[0]) if len(group) == 1 else self._bgp(group)
        table: defaultdict = defaultdict(list)
        if rows:  # a group BGP that ends early has not bound all its names
            key = _key([names.index(name) for name in keyed])
            value = _columns([names.index(name) for name in carried])
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
