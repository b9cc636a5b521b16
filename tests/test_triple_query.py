import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from functools import partial

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
        # the predicate's partition with a constant subject, with none, and
        # with a constant object
        for shape, binding in (
            (TriplePattern(iri("a"), iri("p"), Var("o")), {"o": iri("b")}),
            (TriplePattern(Var("s"), iri("p"), Var("o")), {"s": iri("a"), "o": iri("b")}),
            (TriplePattern(Var("s"), iri("p"), iri("b")), {"s": iri("a")}),
        ):
            assert store.match_pattern(shape) == [binding]

    @pytest.mark.parametrize("role", ["subject", "predicate"])
    def test_insert_rejects_literal_subject_or_predicate(self, role):
        store = TripleStore([t("a", "p", "b")])
        parts = {"subject": iri("s"), "predicate": iri("p"), "object": iri("o"), role: PlainLiteral("x")}
        with pytest.raises(TypeError, match=f"triple {role} must be an IRI"):
            store.insert(tuple(parts.values()))
        with pytest.raises(TypeError, match=f"triple {role} must be an IRI"):
            TripleStore([tuple(parts.values())])
        # nothing was stored, so the store still iterates as Triples
        assert list(store) == [t("a", "p", "b")]
        assert tuple(parts.values()) not in store


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
        # on the predicate's partition, its (subject, object) columns
        assert store.match_pattern(TriplePattern(Var("x"), iri("p"), Var("x"))) == [{"x": iri("a")}, {"x": iri("b")}]
        assert store.match_pattern(TriplePattern(Var("x"), iri("q"), Var("x"))) == [{"x": iri("b")}]
        assert store.match_pattern(TriplePattern(Var("s"), iri("p"), iri("b"))) == [{"s": iri("a")}, {"s": iri("b")}]
        assert store.match_pattern(TriplePattern(iri("b"), iri("p"), Var("o"))) == [{"o": iri("b")}]
        assert store.match_pattern(TriplePattern(iri("b"), iri("p"), iri("b"))) == [{}]
        assert store.match_pattern(TriplePattern(Var("s"), iri("r"), Var("o"))) == []

    @pytest.mark.parametrize("predicate", [Var("p"), PlainLiteral("p"), TypedLiteral("1", XSD_INTEGER)])
    def test_pattern_predicate_must_be_an_iri(self, predicate):
        with pytest.raises(TypeError) as excinfo:
            TriplePattern(Var("s"), predicate, Var("o"))
        assert str(excinfo.value) == f"pattern predicate must be an IRI, got {predicate!r}"

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
            for p in [iri("p"), iri("q"), iri("r")]:
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
                TriplePattern(position(), iri(rng.choice(predicates)), position())
                for _ in range(rng.randint(1, 4))
            ]
            expected = nested_loop_bgp(triples, patterns, limit=50_000)
            if expected is None:
                continue
            solutions = store.match_bgp(patterns)
            assert as_bag(solutions) == as_bag(expected)
            assert solutions == _per_solution_bgp(store, patterns)


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

    _TRIPLES = (
        [t(f"e{i}", "event_case", f"c{i % 3}") for i in range(6)]
        + [t(f"e{i}", "classifier", f"k{i}") for i in (0, 2, 4)]
        + [t("c0", "label", "k0"), t("c0", "label", "k1"), t("c1", "label", "k2")]
        + [t("k0", "weight", "w0"), t("k2", "weight", "w1"), t("k4", "weight", "w2"), t("k9", "weight", "w3")]
    )

    def test_group_joined_on_a_variable_only_an_earlier_group_binds_is_rejected(self):
        store = TripleStore(self._TRIPLES)
        e, c, k = Var("e"), Var("c"), Var("k")
        required = [TriplePattern(e, iri("event_case"), c)]
        for later in (
            [TriplePattern(c, iri("label"), k)],
            [TriplePattern(k, iri("weight"), Var("w"))],
            [TriplePattern(c, iri("label"), Var("l")), TriplePattern(k, iri("weight"), Var("l"))],
        ):
            groups = [[TriplePattern(e, iri("classifier"), k)], later]
            # match_optional, the row join and select, which the analyses read, all check it
            for query in (store.match_optional, store._solutions, partial(store.select, ())):
                with pytest.raises(ValueError, match=r"joins on \?k, which only an earlier group binds"):
                    query(required, groups)
        # a variable the required patterns bind joins however many groups share it
        required.append(TriplePattern(e, iri("classifier"), k))
        groups = [[TriplePattern(c, iri("label"), k)], [TriplePattern(c, iri("label"), Var("l"))]]
        solutions = store.match_optional(required, groups)
        assert solutions == _per_solution_optional(store, required, groups)
        assert as_bag(solutions) == as_bag(nested_loop_optional(list(self._TRIPLES), required, groups))
        assert len(solutions) == 4

    def test_groups_join_on_required_variables_even_when_the_required_block_ends_early(self):
        # ?k is a required variable: the block stops at its empty first
        # pattern, before binding ?k, and the groups still may share it
        store = TripleStore(self._TRIPLES)
        required = [
            TriplePattern(Var("e"), iri("missing"), Var("c")),
            TriplePattern(Var("c"), iri("label"), Var("k")),
        ]
        groups = [[TriplePattern(Var("k"), iri("weight"), Var("w"))], [TriplePattern(Var("k"), iri("label"), Var("v"))]]
        assert store.match_optional(required, groups) == []

    def test_groups_extend_each_solution_on_required_variables(self):
        # the classifier group binds ?k for e0, e2 and e4 only; the label group
        # joins on ?c, and so does the last group, which joins on ?m inside itself
        store = TripleStore(self._TRIPLES)
        e, c, k = Var("e"), Var("c"), Var("k")
        required = [TriplePattern(e, iri("event_case"), c)]
        groups = [
            [TriplePattern(e, iri("classifier"), k)],
            [TriplePattern(c, iri("label"), Var("l"))],
            [TriplePattern(c, iri("label"), Var("m")), TriplePattern(Var("m"), iri("weight"), Var("w"))],
        ]
        solutions = store.match_optional(required, groups)
        assert solutions == _per_solution_optional(store, required, groups)
        assert as_bag(solutions) == as_bag(nested_loop_optional(list(self._TRIPLES), required, groups))
        by_event = Counter(sol["e"] for sol in solutions)
        assert by_event[iri("e0")] == 2 and by_event[iri("e1")] == 1 and by_event[iri("e2")] == 1
        assert [(sol["l"], sol["w"]) for sol in solutions if sol["e"] == iri("e3")] == [
            (iri("k0"), iri("w0")),
            (iri("k1"), iri("w0")),
        ]
        assert solutions[-1] == {"e": iri("e5"), "c": iri("c2")}
        assert len(solutions) == 8

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
                features.update(_join_step_kinds(store, required, groups))
                assert actual == _per_solution_optional(store, required, groups)
        assert features["checked"] >= 300
        for feature in (
            "order checked",
            "empty required",
            "multi-pattern group",
            "constant-only group",
            "repeated variable",
            "joined on a required variable",
            # both join tables, on order-checked queries
            "required step, one match per key",
            "required step, several matches per key",
            "optional step, one match per key",
            "optional step, several matches per key",
        ):
            assert features[feature] >= 20, (feature, features)
        # groups join on required variables only, so every solution before a
        # group binds the same ones of its variables
        assert features["mixed shapes"] == 0

    def test_rows_as_dicts_equal_match_optional(self):
        """The analyses read the rows of the one row join, through select.
        On the random queries of the oracle test, the rows turned into dicts
        are match_optional's list exactly, and the names are every variable
        of the query once, also when the required block has no solution
        before its last pattern."""
        ended_early = 0
        rng = random.Random(29)
        for _ in range(400):
            store, _, required, groups = _random_optional_query(rng)
            names, rows = store._solutions(required, groups)
            dicts = [{name: term for name, term in zip(names, row) if term is not None} for row in rows]
            assert dicts == store.match_optional(required, groups)
            assert all(len(row) == len(names) for row in rows)
            # select hands out the rows projected in the order named
            assert list(store.select(names[::-1], required, groups)) == [row[::-1] for row in rows]
            patterns = [*required, *(pattern for group in groups for pattern in group)]
            assert sorted(names) == sorted(set().union(*(pattern.variables() for pattern in patterns)))
            ended_early += any(not store.match_bgp(required[:k]) for k in range(1, len(required)))
        assert ended_early >= 20


class TestJoinSteps:
    """Each join step scans its pattern or group once, however many
    solutions it extends."""

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

    def test_optional_group_matches_once(self, monkeypatch):
        triples = (
            [t(f"e{i}", "event_case", f"c{i % 4}") for i in range(40)]
            + [t(f"e{i}", "classifier", f"k{i}") for i in range(0, 40, 2)]
            + [t(f"c{i % 3}", "label", PlainLiteral(str(i))) for i in range(60)]
        )
        store = TripleStore(triples)
        required = [TriplePattern(Var("e"), iri("event_case"), Var("c"))]
        # half the solutions get a ?k from the first group, and the solutions
        # of three of the four cases get 20 labels each from the second
        groups = [
            [TriplePattern(Var("e"), iri("classifier"), Var("k"))],
            [TriplePattern(Var("c"), iri("label"), Var("v"))],
        ]
        calls = self._counted(monkeypatch)
        solutions = store.match_optional(required, groups)
        assert len(calls) == 3
        assert len(solutions) == 30 * 20 + 10
        assert as_bag(solutions) == as_bag(nested_loop_optional(triples, required, groups))


class TestJoinTables:
    """A join step whose group has one match per key extends the rows by C
    loops alone; a key with several matches lists them.  Both give the rows
    of a per-solution join, in its order."""

    _TRIPLES = (
        [t(f"e{i}", "event_case", f"c{i % 2}") for i in range(4)]
        + [t(f"e{i}", "a", "C") for i in (0, 2, 3)]
        + [t("e1", "a", "D")]
        + [t(f"e{i}", "classifier", f"k{i}") for i in (3, 1)]
        + [t("c0", "label", "l0")]
    )

    def _solutions(self, required, groups=(), extra=()):
        """The solutions, checked against both oracles, as sorted (name,
        local name) pairs."""
        triples = [*self._TRIPLES, *extra]
        store = TripleStore(triples)
        solutions = store.match_optional(required, list(groups))
        assert solutions == _per_solution_optional(store, required, groups)
        assert as_bag(solutions) == as_bag(nested_loop_optional(triples, required, groups))
        local = len("http://t/")
        return [tuple(sorted((name, term.value[local:]) for name, term in sol.items())) for sol in solutions]

    def test_optional_predicate_with_two_objects_for_one_key_keeps_their_order(self):
        e = Var("e")
        solutions = self._solutions(
            [TriplePattern(e, iri("event_case"), Var("c"))],
            [[TriplePattern(e, iri("classifier"), Var("k"))]],
            extra=[t("e1", "classifier", "k0")],
        )
        assert [dict(sol).get("k") for sol in solutions] == [None, "k1", "k0", None, "k3"]

    def test_required_type_step_drops_rows_with_no_match(self):
        e = Var("e")
        cases = TriplePattern(e, iri("event_case"), Var("c"))
        solutions = self._solutions([cases, TriplePattern(e, iri("a"), iri("C"))])
        assert [dict(sol)["e"] for sol in solutions] == ["e0", "e2", "e3"]
        # a required step that binds a new variable keeps the match beside its row
        solutions = self._solutions([cases, TriplePattern(e, iri("classifier"), Var("k"))])
        assert solutions == [(("c", "c1"), ("e", "e1"), ("k", "k1")), (("c", "c1"), ("e", "e3"), ("k", "k3"))]

    @pytest.mark.parametrize("labels", [1, 3])
    def test_group_sharing_no_variable_extends_every_row(self, labels):
        extra = [t("c1", "label", f"l{i}") for i in range(1, labels)]
        required = [TriplePattern(Var("e"), iri("event_case"), Var("c"))]
        group = [TriplePattern(Var("x"), iri("label"), Var("l"))]
        optional = self._solutions(required, [group], extra)
        assert len(optional) == 4 * labels
        assert [dict(sol)["l"] for sol in optional[:labels]] == [f"l{i}" for i in range(labels)]
        assert self._solutions([*required, *group], extra=extra) == optional
        # a group with no match at all leaves every row unbound
        missing = [TriplePattern(Var("x"), iri("missing"), Var("l"))]
        assert self._solutions(required, [missing]) == self._solutions(required)


_OPTIONAL_VARIABLES = [Var(v) for v in "wxyz"]


def _random_optional_query(rng):
    """A small store, its triples in insertion order, and a random required
    block with optional groups.  A group shares with earlier groups only the
    required block's variables; its others are its own.  A third of the
    queries have the EventObject block's shape: required patterns on one
    subject, then one-pattern groups, each on one of their variables."""
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

    def pattern(variables):
        def position():
            return rng.choice(variables) if rng.random() < 0.55 else constant(names)

        roll = rng.random()
        if roll < 0.15:
            return TriplePattern(constant(names), constant(predicates), constant(names))
        if roll < 0.3:
            var = rng.choice(variables)
            return TriplePattern(var, constant(predicates), var)
        return TriplePattern(position(), constant(predicates), position())

    if rng.random() < 1 / 3:
        w, x, y, _ = _OPTIONAL_VARIABLES
        required = [TriplePattern(w, constant(predicates), x), TriplePattern(w, constant(predicates), y)]
        groups = [
            [TriplePattern(rng.choice((w, x, y)), constant(predicates), Var(f"g{k}"))]
            for k in range(rng.randint(1, 4))
        ]
        return store, triples, required, groups
    required = [pattern(_OPTIONAL_VARIABLES) for _ in range(rng.choice([0, 1, 1, 2]))]
    bound = sorted({name for p in required for name in p.variables()})
    groups = []
    for k in range(rng.randint(1, 3)):
        variables = [Var(name) for name in bound] + [Var(f"g{k}{v}") for v in "ab"]
        groups.append([pattern(variables) for _ in range(rng.choice([1, 1, 2, 3]))])
    return store, triples, required, groups


def _optional_features(triples, required, groups):
    found = set()
    if not required:
        found.add("empty required")
    required_names = set().union(*(p.variables() for p in required))
    for k, group in enumerate(groups):
        if len(group) > 1:
            found.add("multi-pattern group")
        if not any(p.variables() for p in group):
            found.add("constant-only group")
        if any(len(p.variables()) < sum(isinstance(x, Var) for x in p.positions()) for p in group):
            found.add("repeated variable")
        names = set().union(*(p.variables() for p in group))
        if names & required_names:
            found.add("joined on a required variable")
        before = nested_loop_optional(triples, required, groups[:k])
        if len({frozenset(names & sol.keys()) for sol in before}) > 1:
            found.add("mixed shapes")
    return found


def _join_step_kinds(store, required, groups):
    """The join table of each step of the query that has rows to extend:
    one match per key of the variables the rows bind, or several."""
    steps = [("required", required[:k], [], [required[k]]) for k in range(1, len(required))]
    steps += [("optional", required, groups[:k], group) for k, group in enumerate(groups)]
    kinds = []
    for kind, block, earlier, group in steps:
        if not store.match_optional(block, earlier):
            continue  # no rows: the step scans nothing
        bound = set().union(*(p.variables() for p in [*block, *(p for g in earlier for p in g)]))
        keyed = sorted(bound & set().union(*(p.variables() for p in group)))
        keys = [tuple(match[name] for name in keyed) for match in store.match_bgp(group)]
        kinds.append(f"{kind} step, {'several matches' if len(set(keys)) < len(keys) else 'one match'} per key")
    return kinds


def _substituted(pattern, solution):
    return TriplePattern(*(solution.get(x.name, x) if isinstance(x, Var) else x for x in pattern.positions()))


def _per_solution_bgp(store, patterns):
    """match_bgp as first written: each pattern, in the order written,
    matched once for every solution with the solution's bindings
    substituted."""
    solutions = [{}]
    for pattern in patterns:
        solutions = [
            {**solution, **match}
            for solution in solutions
            for match in store.match_pattern(_substituted(pattern, solution))
        ]
    return solutions


def _per_solution_optional(store, required, groups):
    """match_optional as first written: each group matched once for every
    solution with the solution's bindings substituted."""
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
