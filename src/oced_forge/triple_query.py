"""Indexed in-memory triple store with basic-graph-pattern matching.

The store has set semantics: one insertion-ordered set of triples, and one
predicate index that lists each triple once, in insertion order.  A pattern
with a constant predicate reads that predicate's triples; any other pattern
reads every triple.  Iteration order everywhere is insertion order, never
hash order, so query results are deterministic across processes.

BGP evaluation joins patterns most-selective-first: at each step the
remaining pattern with the cheapest index estimate (given the variables
already bound) is joined next.  OPTIONAL evaluation left-joins each optional
group onto the required block's solutions.  Both join steps are hash joins
planned once per binding shape (which of the step's variables a solution
already binds): the pattern or group is matched once, unsubstituted, and its
matches are joined onto the solutions on those variables.

There are no FILTER expressions: callers decode the literals they compare
(datetime_value) and compare the values themselves.
"""

from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime

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


def datetime_value(term: Term) -> datetime | None:
    """Instant of an xsd:dateTime literal, or None when term is not one."""
    if isinstance(term, TypedLiteral) and term.datatype == XSD_DATETIME:
        try:
            return parse_instant(term.lexical)
        except ValueError:
            return None
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

    def match_pattern(self, pattern: TriplePattern) -> list[BindingSet]:
        """One binding set per matching triple; equals an exhaustive scan."""
        out: list[BindingSet] = []
        for triple in self._candidates(pattern):
            binding: BindingSet = {}
            ok = True
            for want, got in zip(pattern.positions(), triple):
                if isinstance(want, Var):
                    if want.name in binding and binding[want.name] != got:
                        ok = False
                        break
                    binding[want.name] = got
                elif want != got:
                    ok = False
                    break
            if ok:
                out.append(binding)
        return out

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
        solutions: list[BindingSet] = [{}]
        for pattern in self._plan(list(patterns)):
            solutions = self._join(solutions, [pattern], optional=False)
            if not solutions:
                break
        return solutions

    def match_optional(
        self,
        required: list[TriplePattern],
        optional_groups: list[list[TriplePattern]],
    ) -> list[BindingSet]:
        """Left-outer-join semantics: each solution of the required block is
        extended by every compatible match of each optional group, or kept
        as-is when a group has no compatible match."""
        solutions = self.match_bgp(required)
        for group in optional_groups:
            solutions = self._join(solutions, group, optional=True)
        return solutions

    def _join(self, solutions: list[BindingSet], group: list[TriplePattern], optional: bool):
        """Extend each solution, in order, by every compatible match of the
        group; an optional group keeps a solution it has no match for.

        Solutions are split by which of the group's variables they bind
        (their shape).  Per shape the group is matched once, unsubstituted,
        and its matches are bucketed by the values of those variables, so
        extending a solution is one dict lookup.  A one-pattern group
        extends each solution by its matching triples in insertion order."""
        names = sorted({name for pattern in group for name in pattern.variables()})
        tables = {}
        extended: list[BindingSet] = []
        for solution in solutions:
            shape = tuple(name for name in names if name in solution)
            table = tables.get(shape)
            if table is None:
                table = tables[shape] = self._buckets(group, shape)
            matches = table.get(tuple(solution[name] for name in shape), ())
            for match in matches:
                merged = dict(solution)
                merged.update(match)
                extended.append(merged)
            if optional and not matches:
                extended.append(solution)
        return extended

    def _buckets(self, group: list[TriplePattern], shape: tuple[str, ...]):
        """The group's matches keyed by their values for the shape's variables."""
        buckets: defaultdict[tuple[Term, ...], list[BindingSet]] = defaultdict(list)
        matches = self.match_pattern(group[0]) if len(group) == 1 else self.match_bgp(group)
        for match in matches:
            buckets[tuple(match[name] for name in shape)].append(match)
        return buckets
