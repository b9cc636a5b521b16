import random
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest

from oced_forge import (
    Iri,
    PlainLiteral,
    Triple,
    TriplePattern,
    TripleStore,
    TypedLiteral,
    Var,
    detect_ping_pong,
    graph_to_triples,
)
from oced_forge.oced_model import OcedEvent, OcedGraph, OcedObject
from oced_forge.triple_query import datetime_value
from oced_forge.terms import EX, EXT, OCEDO, XSD, XSD_INTEGER

from oracles import BASE_TIME, as_bag, build_handoff_graph, nested_loop_bgp, nested_loop_optional

DT = Iri(XSD + "dateTime")


def iri(name):
    return Iri("http://t/" + name)


def t(s, p, o):
    return Triple(iri(s), iri(p), o if not isinstance(o, str) else iri(o))


class TestInsert:
    def test_insert_one(self):
        store = TripleStore()
        store.insert(t("a", "p", "b"))
        assert len(store) == 1

    def test_insert_is_idempotent(self):
        store = TripleStore()
        store.insert(t("a", "p", "b"))
        store.insert(t("a", "p", "b"))
        assert len(store) == 1

    def test_two_distinct(self):
        store = TripleStore([t("a", "p", "b"), t("a", "p", "c")])
        assert len(store) == 2

    def test_frozen_store_rejects_insert(self):
        store = TripleStore([t("a", "p", "b")]).freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            store.insert(t("a", "p", "c"))

    def test_duplicate_insert_never_changes_results(self):
        store = TripleStore([t("a", "p", "b"), t("b", "p", "c")])
        pattern = TriplePattern(Var("s"), iri("p"), Var("o"))
        before = store.match_pattern(pattern)
        store.insert(t("a", "p", "b"))
        assert store.match_pattern(pattern) == before

    def test_duplicate_insert_leaves_one_entry_per_index(self):
        store = TripleStore([t("a", "p", "b"), t("b", "q", "c")])
        store.insert(t("a", "p", "b"))
        assert len(store) == 2
        # the whole set (variable predicate), then the predicate index with
        # a variable and with a constant object
        for shape, binding in (
            (TriplePattern(iri("a"), Var("p"), Var("o")), {"p": iri("p"), "o": iri("b")}),
            (TriplePattern(Var("s"), iri("p"), Var("o")), {"s": iri("a"), "o": iri("b")}),
            (TriplePattern(Var("s"), iri("p"), iri("b")), {"s": iri("a")}),
        ):
            assert store.match_pattern(shape) == [binding]


class TestTerms:
    def test_kinds_never_compare_equal(self):
        terms = [Iri("x"), PlainLiteral("x"), PlainLiteral("x", "en"), TypedLiteral("x", XSD_INTEGER)]
        for i, a in enumerate(terms):
            for b in terms[i + 1 :]:
                assert a != b
        assert len(dict.fromkeys(terms)) == len(terms)
        assert Var("x") != Iri("x")

    def test_patterns_compare_by_value_and_are_immutable(self):
        pattern = TriplePattern(Var("s"), iri("p"), Var("o"))
        same = TriplePattern(Var("s"), iri("p"), Var("o"))
        assert pattern == same and hash(pattern) == hash(same) and len({pattern, same}) == 1
        assert pattern != TriplePattern(Var("s"), iri("p"), Var("x"))
        assert TriplePattern(iri("s"), iri("p"), iri("o")) != t("s", "p", "o")
        assert repr(pattern) == "TriplePattern(subject=?s, predicate=Iri('http://t/p'), object=?o)"
        for value, field in ((Var("s"), "name"), (pattern, "subject")):
            with pytest.raises(AttributeError):
                setattr(value, field, Var("x"))

    def test_scan_applies_constants_and_repeated_variables(self):
        store = TripleStore([t("a", "p", "a"), t("a", "p", "b"), t("b", "q", "b"), t("b", "p", "b")])
        # on a partition's (subject, object) columns
        assert store.match_pattern(TriplePattern(Var("x"), iri("p"), Var("x"))) == [{"x": iri("a")}, {"x": iri("b")}]
        assert store.match_pattern(TriplePattern(iri("b"), iri("p"), Var("o"))) == [{"o": iri("b")}]
        assert store.match_pattern(TriplePattern(iri("b"), iri("p"), iri("b"))) == [{}]
        assert store.match_pattern(TriplePattern(Var("s"), iri("r"), Var("o"))) == []
        # on every partition's (subject, predicate, object) columns, predicate-major
        assert store.match_pattern(TriplePattern(iri("a"), Var("p"), Var("o"))) == [
            {"p": iri("p"), "o": iri("a")},
            {"p": iri("p"), "o": iri("b")},
        ]
        assert store.match_pattern(TriplePattern(Var("x"), Var("p"), Var("x"))) == [
            {"x": iri("a"), "p": iri("p")},
            {"x": iri("b"), "p": iri("p")},
            {"x": iri("b"), "p": iri("q")},
        ]

    def test_the_store_is_its_predicate_partitions(self):
        store = TripleStore([t("a", "p", "a"), t("a", "q", "b"), t("b", "p", "b"), t("a", "p", "a")])
        assert list(store.pairs(iri("p"))) == [(iri("a"), iri("a")), (iri("b"), iri("b"))]
        assert list(store.pairs(iri("r"))) == []
        assert store.predicates() == [iri("p"), iri("q")]
        # predicates in first-seen order, each one's triples in insertion order
        assert store.triples() == list(store) == [t("a", "p", "a"), t("b", "p", "b"), t("a", "q", "b")]
        assert len(store) == 3
        assert t("a", "q", "b") in store and (iri("a"), iri("q"), iri("b")) in store
        assert t("b", "q", "a") not in store and t("a", "r", "b") not in store

    @pytest.mark.parametrize("role", ["subject", "predicate"])
    def test_triple_rejects_literal_subject_or_predicate(self, role):
        parts = {"subject": iri("s"), "predicate": iri("p"), "object": iri("o"), role: PlainLiteral("x")}
        with pytest.raises(TypeError) as excinfo:
            Triple(**parts)
        assert str(excinfo.value) == f"triple {role} must be an IRI, got PlainLiteral('x')"

    @pytest.mark.parametrize("role", ["subject", "predicate"])
    def test_replace_keeps_the_iri_checks(self, role):
        with pytest.raises(TypeError, match=f"triple {role} must be an IRI"):
            Triple(iri("s"), iri("p"), iri("o"))._replace(**{role: PlainLiteral("x")})

    def test_reprs(self):
        assert repr(Iri("x")) == "Iri('x')"
        assert repr(PlainLiteral("x")) == "PlainLiteral('x')"
        assert repr(PlainLiteral("x", "en")) == "PlainLiteral('x', lang='en')"
        assert repr(TypedLiteral("1", XSD_INTEGER)) == f"TypedLiteral('1', '{XSD}integer')"
        assert repr(Triple(Iri("s"), Iri("p"), PlainLiteral("o"))) == (
            "Triple(subject=Iri('s'), predicate=Iri('p'), object=PlainLiteral('o'))"
        )


class TestMatchPattern:
    def test_counting(self):
        store = TripleStore([t("a", "p", "x"), t("b", "p", "y"), t("c", "p", "z"), t("a", "q", "x")])
        assert len(store.match_pattern(TriplePattern(Var("s"), iri("p"), Var("o")))) == 3

    def test_all_constant_membership(self):
        store = TripleStore([t("a", "p", "x")])
        hit = store.match_pattern(TriplePattern(iri("a"), iri("p"), iri("x")))
        miss = store.match_pattern(TriplePattern(iri("a"), iri("p"), iri("y")))
        assert hit == [{}]
        assert miss == []

    def test_repeated_variable_forces_equality(self):
        store = TripleStore([t("a", "p", "a"), t("a", "p", "b")])
        matches = store.match_pattern(TriplePattern(Var("x"), iri("p"), Var("x")))
        assert matches == [{"x": iri("a")}]

    def test_matches_equal_full_scan_for_every_shape(self):
        rng = random.Random(3)
        names = ["a", "b", "c", "d"]
        store = TripleStore()
        triples = []
        for _ in range(40):
            triple = t(rng.choice(names), rng.choice(["p", "q"]), rng.choice(names))
            store.insert(triple)
            if triple not in triples:
                triples.append(triple)
        for s in [Var("s"), iri("a")]:
            for p in [Var("p"), iri("p")]:
                for o in [Var("o"), iri("b"), PlainLiteral("nope")]:
                    pattern = TriplePattern(s, p, o)
                    assert as_bag(store.match_pattern(pattern)) == as_bag(
                        nested_loop_bgp(triples, [pattern])
                    )


class TestMatchBgp:
    def _event_store(self):
        graph = OcedGraph()
        graph.add_object(OcedObject(id="case_1", object_type="case"))
        graph.add_object(OcedObject(id="team_A", object_type="support_team"))
        graph.add_event(
            OcedEvent(
                id="e1",
                event_type="Accepted",
                observed_at=datetime(2012, 1, 1, 9, 0, tzinfo=timezone.utc),
            )
        )
        graph.relate_event_object("e1", "case_1", "event_case")
        graph.relate_event_object("e1", "team_A", "handled_by_support_team")
        return graph_to_triples(graph)

    def test_query_block_on_one_event_fixture(self):
        store = self._event_store()
        event = Var("event")
        patterns = [
            TriplePattern(event, Iri(EXT + "event_case"), Var("case")),
            TriplePattern(event, Iri(OCEDO + "observed_at"), Var("time")),
            TriplePattern(event, Iri(EXT + "handled_by_support_team"), Var("team")),
        ]
        solutions = store.match_bgp(patterns)
        assert as_bag(solutions) == as_bag(nested_loop_bgp(store.triples(), patterns))
        assert len(solutions) == 1
        (sol,) = solutions
        assert sol["event"] == Iri(EX + "e1")
        assert sol["case"] == Iri(EX + "case_1")
        assert sol["team"] == Iri(EX + "team_A")
        assert sol["time"] == TypedLiteral("2012-01-01T09:00:00.000Z", DT)

    def test_disjoint_patterns_multiply(self):
        store = TripleStore([t("a", "p", "x"), t("b", "p", "y"), t("c", "q", "z")])
        patterns = [
            TriplePattern(Var("s1"), iri("p"), Var("o1")),
            TriplePattern(Var("s2"), iri("q"), Var("o2")),
        ]
        assert len(store.match_bgp(patterns)) == 2 * 1

    def test_unsatisfiable_pattern_empties_result(self):
        store = TripleStore([t("a", "p", "x")])
        patterns = [
            TriplePattern(Var("s"), iri("p"), Var("o")),
            TriplePattern(Var("s"), iri("missing"), Var("y")),
        ]
        assert store.match_bgp(patterns) == []

    def test_empty_bgp_yields_single_empty_solution(self):
        assert TripleStore().match_bgp([]) == [{}]

    def test_random_bgps_equal_nested_loop_oracle(self):
        rng = random.Random(17)
        for _ in range(150):
            names = [f"n{i}" for i in range(rng.randint(2, 8))]
            predicates = [f"p{i}" for i in range(rng.randint(1, 3))]
            triples = []
            store = TripleStore()
            for _ in range(rng.randint(1, 60)):
                triple = t(rng.choice(names), rng.choice(predicates), rng.choice(names))
                if triple not in triples:
                    triples.append(triple)
                store.insert(triple)
            variables = [Var(v) for v in "xyz"]

            def position():
                roll = rng.random()
                if roll < 0.45:
                    return rng.choice(variables)
                if roll < 0.85:
                    return iri(rng.choice(names))
                return iri(rng.choice(predicates))

            patterns = [
                TriplePattern(position(), rng.choice([iri(rng.choice(predicates)), rng.choice(variables)]), position())
                for _ in range(rng.randint(1, 4))
            ]
            expected = nested_loop_bgp(triples, patterns, limit=50_000)
            if expected is None:
                continue
            assert as_bag(store.match_bgp(patterns)) == as_bag(expected)


class TestMatchOptional:
    def _store(self):
        return TripleStore(
            [
                t("e1", "event_case", "c1"),
                t("e2", "event_case", "c2"),
                Triple(iri("e1"), iri("classifier"), PlainLiteral("x")),
            ]
        )

    def test_solution_kept_without_optional_binding(self):
        store = self._store()
        solutions = store.match_optional(
            required=[TriplePattern(Var("e"), iri("event_case"), Var("c"))],
            optional_groups=[[TriplePattern(Var("e"), iri("classifier"), Var("k"))]],
        )
        by_event = {sol["e"].value: sol for sol in solutions}
        assert len(solutions) == 2
        assert by_event["http://t/e1"]["k"] == PlainLiteral("x")
        assert "k" not in by_event["http://t/e2"]

    def test_incompatible_optional_keeps_base_solution(self):
        store = self._store()
        solutions = store.match_optional(
            required=[TriplePattern(iri("e2"), iri("event_case"), Var("c"))],
            optional_groups=[[TriplePattern(iri("e2"), iri("classifier"), Var("k"))]],
        )
        assert solutions == [{"c": iri("c2")}]

    def test_multiple_optional_matches_extend_to_multiple_solutions(self):
        store = self._store()
        store.insert(Triple(iri("e1"), iri("classifier"), PlainLiteral("y")))
        solutions = store.match_optional(
            required=[TriplePattern(iri("e1"), iri("event_case"), Var("c"))],
            optional_groups=[[TriplePattern(iri("e1"), iri("classifier"), Var("k"))]],
        )
        assert {sol["k"].value for sol in solutions} == {"x", "y"}

    def test_later_group_fills_a_variable_an_earlier_group_left_unbound(self):
        # ?k is bound by the classifier group for e0, e2 and e4 only; the label
        # group joins the others on ?c alone and fills their ?k, and the weight
        # group fills both ?k and ?w for the one row still without a ?k
        triples = (
            [t(f"e{i}", "event_case", f"c{i % 3}") for i in range(6)]
            + [t(f"e{i}", "classifier", f"k{i}") for i in (0, 2, 4)]
            + [t("c0", "label", "k0"), t("c0", "label", "k1"), t("c1", "label", "k2")]
            + [t("k0", "weight", "w0"), t("k2", "weight", "w1"), t("k4", "weight", "w2"), t("k9", "weight", "w3")]
        )
        store = TripleStore(triples)
        e, c, k = Var("e"), Var("c"), Var("k")
        required = [TriplePattern(e, iri("event_case"), c)]
        groups = [
            [TriplePattern(e, iri("classifier"), k)],
            [TriplePattern(c, iri("label"), k)],
            [TriplePattern(k, iri("weight"), Var("w"))],
        ]
        solutions = store.match_optional(required, groups)
        assert solutions == _per_solution_optional(store, required, groups)
        assert as_bag(solutions) == as_bag(nested_loop_optional(triples, required, groups))
        by_event = Counter(sol["e"] for sol in solutions)
        assert by_event[iri("e1")] == 1 and by_event[iri("e3")] == 2 and by_event[iri("e5")] == 4
        assert [sol["k"] for sol in solutions if sol["e"] == iri("e1")] == [iri("k2")]
        assert len(solutions) == 10

    def test_random_optional_equals_left_outer_join_oracle(self):
        features = Counter()
        rng = random.Random(29)
        for _ in range(400):
            store, triples, required, groups = _random_optional_query(rng)
            expected = nested_loop_optional(triples, required, groups, limit=20_000)
            if expected is None:
                continue
            features["checked"] += 1
            features.update(_optional_features(triples, required, groups))
            actual = store.match_optional(required, groups)
            assert as_bag(actual) == as_bag(expected)
            for patterns in (required, *groups):  # a BGP keeps its order exactly
                assert store.match_bgp(patterns) == _per_solution_bgp(store, patterns)
            if all(len(group) == 1 for group in groups):
                features["order checked"] += 1
                assert actual == _per_solution_optional(store, required, groups)
        assert features["checked"] >= 300
        for feature in (
            "order checked",
            "empty required",
            "multi-pattern group",
            "constant-only group",
            "repeated variable",
            "mixed shapes",
        ):
            assert features[feature] >= 20, (feature, features)


class TestJoinSteps:
    """Each join step scans its pattern or group once per binding shape,
    however many solutions it extends."""

    def _counted(self, monkeypatch):
        calls = []
        scan = TripleStore._scan

        def counted(store, pattern):
            calls.append(pattern)
            return scan(store, pattern)

        monkeypatch.setattr(TripleStore, "_scan", counted)
        return calls

    def test_bgp_matches_each_pattern_once(self, monkeypatch):
        # every other event has no team, so after the first step each later
        # pattern has twice as many matches as there are solutions
        handoffs = [
            (f"case_{i % 5}", f"team_{i % 3}" if i % 2 else None, BASE_TIME + timedelta(minutes=i))
            for i in range(50)
        ]
        store = graph_to_triples(build_handoff_graph(handoffs)).freeze()
        calls = self._counted(monkeypatch)
        # the 25 team-handled events fall in all five cases
        assert len(detect_ping_pong(store)) == 5
        assert len(calls) == 3

    def test_optional_group_matches_once_per_shape(self, monkeypatch):
        triples = (
            [t(f"e{i}", "event_case", f"c{i % 4}") for i in range(40)]
            + [t(f"e{i}", "classifier", f"k{i}") for i in range(0, 40, 2)]
            + [t(f"k{i}", "label", PlainLiteral(str(i))) for i in range(60)]
        )
        store = TripleStore(triples)
        required = [TriplePattern(Var("e"), iri("event_case"), Var("c"))]
        # half the solutions bind ?k before the last group, half do not
        groups = [
            [TriplePattern(Var("e"), iri("classifier"), Var("k"))],
            [TriplePattern(Var("k"), iri("label"), Var("v"))],
        ]
        calls = self._counted(monkeypatch)
        solutions = store.match_optional(required, groups)
        assert len(calls) == 4
        assert len(solutions) == 20 + 20 * 60
        assert as_bag(solutions) == as_bag(nested_loop_optional(triples, required, groups))


_OPTIONAL_VARIABLES = [Var(v) for v in "wxyz"]


def _random_optional_query(rng):
    """A small store, its triples in insertion order, and a random required
    block with optional groups; a third of the queries chain each group onto
    a variable only the previous group binds."""
    names = [f"n{i}" for i in range(rng.randint(2, 6))]
    predicates = [f"p{i}" for i in range(rng.randint(1, 3))]
    store, triples = TripleStore(), []
    for _ in range(rng.randint(0, 40)):
        obj = PlainLiteral(rng.choice(names)) if rng.random() < 0.15 else rng.choice(names)
        triple = t(rng.choice(names), rng.choice(predicates), obj)
        if triple not in store:
            triples.append(triple)
        store.insert(triple)

    def constant(pool):
        return iri(rng.choice(pool))

    def position():
        return rng.choice(_OPTIONAL_VARIABLES) if rng.random() < 0.55 else constant(names)

    def pattern():
        roll = rng.random()
        if roll < 0.15:
            return TriplePattern(constant(names), constant(predicates), constant(names))
        if roll < 0.3:
            var = rng.choice(_OPTIONAL_VARIABLES)
            return TriplePattern(var, rng.choice([var, constant(predicates)]), var)
        predicate = rng.choice(_OPTIONAL_VARIABLES) if rng.random() < 0.2 else constant(predicates)
        return TriplePattern(position(), predicate, position())

    if rng.random() < 1 / 3:
        w, x, y, z = _OPTIONAL_VARIABLES
        required = [TriplePattern(w, constant(predicates), x)]
        groups = [
            [TriplePattern(x, constant(predicates), y)],
            [TriplePattern(y, constant(predicates), z)],
            [TriplePattern(z, constant(predicates), w), pattern()][: rng.randint(1, 2)],
        ]
        return store, triples, required, groups
    required = [pattern() for _ in range(rng.choice([0, 1, 1, 2]))]
    groups = [[pattern() for _ in range(rng.choice([1, 1, 2, 3]))] for _ in range(rng.randint(1, 3))]
    return store, triples, required, groups


def _optional_features(triples, required, groups):
    found = set()
    if not required:
        found.add("empty required")
    for k, group in enumerate(groups):
        if len(group) > 1:
            found.add("multi-pattern group")
        if not any(p.variables() for p in group):
            found.add("constant-only group")
        if any(len(p.variables()) < sum(isinstance(x, Var) for x in p.positions()) for p in group):
            found.add("repeated variable")
        names = set().union(*(p.variables() for p in group))
        before = nested_loop_optional(triples, required, groups[:k])
        if len({frozenset(names & sol.keys()) for sol in before}) > 1:
            found.add("mixed shapes")
    return found


def _substituted(pattern, solution):
    return TriplePattern(*(solution.get(x.name, x) if isinstance(x, Var) else x for x in pattern.positions()))


def _per_solution_bgp(store, patterns):
    """match_bgp as first written: each planned pattern matched once for
    every solution with the solution's bindings substituted."""
    solutions = [{}]
    for pattern in store._plan(list(patterns)):
        solutions = [
            {**solution, **match}
            for solution in solutions
            for match in store.match_pattern(_substituted(pattern, solution))
        ]
    return solutions


def _per_solution_optional(store, required, groups):
    """match_optional as first written: each group planned and matched once
    for every solution with the solution's bindings substituted."""
    solutions = _per_solution_bgp(store, required)
    for group in groups:
        extended = []
        for solution in solutions:
            matches = _per_solution_bgp(store, [_substituted(p, solution) for p in group])
            extended.extend({**solution, **match} for match in matches)
            if not matches:
                extended.append(solution)
        solutions = extended
    return solutions


class TestDatetimeValue:
    def test_datetime_ordering(self):
        early = datetime_value(TypedLiteral("2012-01-01T10:00:00.000Z", DT))
        late = datetime_value(TypedLiteral("2012-01-01T11:00:00.000Z", DT))
        assert early < late

    def test_same_instant_different_zones_equal(self):
        a = datetime_value(TypedLiteral("2012-01-01T10:00:00.000+01:00", DT))
        b = datetime_value(TypedLiteral("2012-01-01T09:00:00.000Z", DT))
        assert a == b == datetime(2012, 1, 1, 9, tzinfo=timezone.utc)

    def test_string_literals_are_not_datetimes(self):
        lexical = "2012-01-01T10:00:00.000Z"
        assert datetime_value(PlainLiteral(lexical)) is None
        assert datetime_value(TypedLiteral(lexical, Iri(XSD + "string"))) is None

    def test_iri_is_not_a_datetime(self):
        assert datetime_value(iri("2012-01-01T10:00:00.000Z")) is None

    def test_malformed_datetime_is_none(self):
        for lexical in ("not a date", "2012-01-01T10:00:00.000", "2012-13-01T10:00:00.000Z"):
            assert datetime_value(TypedLiteral(lexical, DT)) is None, lexical

    @pytest.mark.parametrize(
        "lexical", ["0001-01-01T00:30:00.000+01:00", "9999-12-31T23:30:00.000-01:00"]
    )
    def test_instant_outside_years_1_to_9999_in_utc_is_none(self, lexical):
        assert datetime_value(TypedLiteral(lexical, DT)) is None

    def test_extreme_instants_inside_the_range_keep_sub_millisecond_order(self):
        first = datetime_value(TypedLiteral("0001-01-01T00:30:00.0001+00:30", DT))
        second = datetime_value(TypedLiteral("0001-01-01T00:00:00.0002Z", DT))
        last = datetime_value(TypedLiteral("9999-12-31T23:59:59.9999999Z", DT))
        assert first < second < last
        assert last.microsecond == 999999
