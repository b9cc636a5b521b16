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

The query language is what the analyses ask: a required block of patterns
joined in the order written, then OPTIONAL groups, each left-joined onto
the solutions so far (SPARQL's Join, then LeftJoin).  A group joins on
variables the required patterns bind, never on one that only an earlier
group binds.  Every query, match_pattern's one pattern included, runs
through one row join, _solutions, which makes that check.

Inside the store a solution is a row: a tuple of terms aligned to a tuple
of variable names, with None where an OPTIONAL group left a variable
unbound (no term is None).  A pattern is read by one row scan, which
applies its constants and repeated variable.  The required block starts
from its first pattern's rows; each later join step is a hash join: the
pattern or group is scanned once, unsubstituted, its rows are keyed on the
variables already bound, and a row is extended by tuple concatenation.
When each key has one match, as in every join the analyses and store_to_dot
run, the rows are extended by C loops with no Python code per row: an
OPTIONAL group adds table.get(key, pad) to each row, and a required step
compresses the rows to those whose key the table holds and adds their
match.  A key with several matches keeps a list of them; the rows and their
order are the same either way.  Rows and keys are projected with
itemgetter, never a Python function per row.  match_pattern, match_bgp and
match_optional build binding dicts once, from the final rows, for library
callers; an unbound variable is an absent key.  select projects the rows
onto the variables it is asked for and builds no dict; the analyses and
store_to_dot read their solutions through it, so the row layout is known to
this module only.

There are no FILTER expressions: callers decode the literals they compare
(the analyses key time literals with timeutil.utc_key) and compare the
values themselves.
"""

from collections import defaultdict
from collections.abc import Iterator, KeysView, Sequence
from itertools import compress, repeat
from operator import add, itemgetter

from .terms import Iri, Term, Triple


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
            rows = _project(rows, columns)
        return tuple(first), list(rows)

    def match_pattern(self, pattern: TriplePattern) -> list[BindingSet]:
        """One binding set per matching triple; equals an exhaustive scan."""
        return _binding_sets(self._solutions([pattern]))

    def match_bgp(self, patterns: list[TriplePattern]) -> list[BindingSet]:
        """Natural join of the patterns' matches, in the order written."""
        return _binding_sets(self._solutions(patterns))

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
        return _binding_sets(self._solutions(required, optional_groups))

    def select(
        self,
        names: Sequence[str],
        required: list[TriplePattern],
        optional_groups: Sequence[list[TriplePattern]] = (),
    ) -> Iterator[tuple]:
        """match_optional's solutions as tuples: the named variables' terms,
        in the order named, None where an OPTIONAL group left one unbound.
        The query runs, and raises, at the call."""
        columns, rows = self._solutions(required, optional_groups)
        return _project(rows, [columns.index(name) for name in names])

    def _solutions(self, required, optional_groups=()) -> Rows:
        """The solutions of the required block, each group left-joined on in
        turn, as rows; the names are every variable of the query even when a
        join leaves no row (a join of no rows scans nothing).  ValueError for
        a group that shares a variable only an earlier group binds."""
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
        names, rows = self._scan(required[0]) if required else ((), [()])
        for pattern in required[1:]:
            names, rows = self._join(names, rows, [pattern], optional=False)
        for group in optional_groups:
            names, rows = self._join(names, rows, group, optional=True)
        return names, rows

    def _join(self, names, rows, group: list[TriplePattern], optional: bool) -> Rows:
        """Extend each row, in order, by every compatible match of the group;
        an optional group keeps a row it has no match for, its new variables
        unbound (None).

        The group is scanned once, unsubstituted, and its matches' new
        values are keyed on the variables the rows already bind: one value
        per key when each key has one match (extended by C loops, see the
        module docstring), else a list per key in match order.  Every row
        binds every keyed variable: _solutions lets a group share only
        required ones."""
        variables = dict.fromkeys(
            term.name for pattern in group for term in pattern.positions() if isinstance(term, Var)
        )
        keyed = [name for name in variables if name in names]
        new = tuple(name for name in variables if name not in names)
        if not rows:
            return names + new, rows
        group_names, matches = self._solutions(group)
        match_key = [group_names.index(name) for name in keyed]
        values = list(_project(matches, [group_names.index(name) for name in new]))
        table = dict(zip(_keys(matches, match_key), values))
        keys = list(_keys(rows, [names.index(name) for name in keyed]))
        pad = (None,) * len(new)
        if len(table) == len(matches):  # one match per key
            if optional:
                return names + new, list(map(add, rows, map(table.get, keys, repeat(pad))))
            found = list(map(table.__contains__, keys))
            rows = compress(rows, found)
            if new:
                rows = map(add, rows, map(table.__getitem__, compress(keys, found)))
            return names + new, list(rows)
        lists: defaultdict = defaultdict(list)
        for key, value in zip(_keys(matches, match_key), values):
            lists[key].append(value)
        extended: list[tuple] = []
        for row, key in zip(rows, keys):
            found = lists.get(key)
            if found:
                for value in found:
                    extended.append(row + value)
            elif optional:
                extended.append(row + pad)
        return names + new, extended


def _binding_sets(solutions: Rows) -> list[BindingSet]:
    """One dict per row; a variable the row leaves unbound is an absent key."""
    names, rows = solutions
    return [{name: term for name, term in zip(names, row) if term is not None} for row in rows]


def _keys(rows, columns):
    """Each row's join key: its values at columns, the bare term for one
    column, () for none."""
    return map(itemgetter(*columns), rows) if columns else repeat((), len(rows))


def _project(rows, columns):
    """Each row's values at columns, as a tuple, by C callables only (no
    Python call per row)."""
    if len(columns) == 1:
        return zip(map(itemgetter(*columns), rows))
    return _keys(rows, columns)
