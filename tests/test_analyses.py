import logging
import random
from datetime import datetime, timedelta, timezone
from itertools import permutations

from oced_forge import (
    Iri,
    PlainLiteral,
    Triple,
    TripleStore,
    TypedLiteral,
    detect_ping_pong,
    enumerate_event_objects,
    graph_to_triples,
    store_to_dot,
    team_involvement,
)
from oced_forge import analyses, triple_query
from oced_forge.analyses import (
    EVENT_OBJECT_COLUMNS,
    PING_PONG_COLUMNS,
    TEAM_COLUMNS,
    EventObjectRow,
    PingPongRow,
    TeamInvolvement,
    records,
    records_to_csv,
    records_to_jsonl,
)
from oced_forge.terms import EX, EXT, OBSERVED_AT, OCEDO, RDF, XSD
from oced_forge.timeutil import format_utc_millis

from oracles import (
    BASE_TIME,
    brute_force_ping_pong,
    brute_force_witnesses,
    build_handoff_graph,
    random_handoff_graph,
    random_oced_graph,
)


def ts(minutes: int) -> datetime:
    return BASE_TIME + timedelta(minutes=minutes)


def store_for(handoffs) -> TripleStore:
    return graph_to_triples(build_handoff_graph(handoffs)).freeze()


def with_time_lexicals(store: TripleStore, lexicals: dict[str, str]) -> TripleStore:
    """Copy of store whose events named in lexicals observe those xsd:dateTime strings."""
    out = TripleStore()
    for triple in store.triples():
        name = triple.subject.value.rsplit("/", 1)[1]
        if triple.predicate == OBSERVED_AT and name in lexicals:
            literal = TypedLiteral(lexicals[name], Iri(XSD + "dateTime"))
            triple = Triple(triple.subject, triple.predicate, literal)
        out.insert(triple)
    return out.freeze()


class TestDetectPingPong:
    def test_paper_pattern_a_b_a(self):
        store = store_for([("c1", "A", ts(1)), ("c1", "B", ts(2)), ("c1", "A", ts(3))])
        (row,) = detect_ping_pong(store)
        assert row.has_ping_pong is True
        assert row.min_time == ts(1)
        assert row.max_time == ts(3)

    def test_two_events_cannot_ping_pong(self):
        store = store_for([("c1", "A", ts(1)), ("c1", "B", ts(2))])
        (row,) = detect_ping_pong(store)
        assert row.has_ping_pong is False

    def test_equal_timestamps_never_witness(self):
        store = store_for([("c1", "A", ts(1)), ("c1", "B", ts(1)), ("c1", "A", ts(1))])
        (row,) = detect_ping_pong(store)
        assert row.has_ping_pong is False

    def test_intermediate_events_allowed(self):
        handoffs = [
            ("c1", "A", ts(1)),
            ("c1", "C", ts(2)),
            ("c1", "B", ts(3)),
            ("c1", "A", ts(4)),
        ]
        (row,) = detect_ping_pong(store_for(handoffs))
        expected, _, _ = brute_force_ping_pong([(team, time) for _, team, time in handoffs])
        assert expected is True
        assert row.has_ping_pong is True

    def test_single_team_never_ping_pongs(self):
        store = store_for([("c1", "A", ts(i)) for i in range(5)])
        (row,) = detect_ping_pong(store)
        assert row.has_ping_pong is False

    def test_output_ordered_by_flag_then_case(self):
        store = store_for(
            [
                ("c_z", "A", ts(1)),
                ("c_a", "A", ts(1)),
                ("c_a", "B", ts(2)),
                ("c_a", "A", ts(3)),
                ("c_m", "A", ts(1)),
            ]
        )
        rows = detect_ping_pong(store)
        assert [(r.case.rsplit("/", 1)[1], r.has_ping_pong) for r in rows] == [
            ("c_m", False),
            ("c_z", False),
            ("c_a", True),
        ]

    def test_events_without_team_or_time_are_ignored(self):
        # second event has no team relation: not a qualifying event
        store = store_for([("c1", "A", ts(5)), ("c1", None, ts(1))])
        (row,) = detect_ping_pong(store)
        assert row.min_time == ts(5)

    def test_case_without_qualifying_events_absent(self):
        store = store_for([("c1", None, ts(1))])
        assert detect_ping_pong(store) == []

    def test_empty_store(self):
        assert detect_ping_pong(TripleStore().freeze()) == []

    def test_times_compared_as_instants_across_zones(self):
        # as strings 10:00Z < 10:30+01:00 < 10:45Z; as instants B (09:30Z) comes first
        store = with_time_lexicals(
            store_for([("c1", "A", ts(1)), ("c1", "B", ts(2)), ("c1", "A", ts(3))]),
            {
                "e1": "2012-01-01T10:00:00.000Z",
                "e2": "2012-01-01T10:30:00.000+01:00",
                "e3": "2012-01-01T10:45:00.000Z",
            },
        )
        (row,) = detect_ping_pong(store)
        assert row.has_ping_pong is False
        assert row.min_time == datetime(2012, 1, 1, 9, 30, tzinfo=timezone.utc)
        assert row.max_time == datetime(2012, 1, 1, 10, 45, tzinfo=timezone.utc)

    def test_malformed_time_literal_is_ignored(self):
        store = with_time_lexicals(
            store_for([("c1", "A", ts(1)), ("c1", "B", ts(2)), ("c1", "A", ts(3))]),
            {"e2": "not a date"},
        )
        (row,) = detect_ping_pong(store)
        assert row.has_ping_pong is False
        assert (row.min_time, row.max_time) == (ts(1), ts(3))
        assert team_involvement(store) == []

    def test_rows_independent_of_triple_insertion_order(self):
        rng = random.Random(77)
        for _ in range(40):
            graph, _ = random_handoff_graph(rng, max_cases=5, max_events=8, max_teams=3)
            store = graph_to_triples(graph).freeze()
            shuffled = list(store.triples())
            rng.shuffle(shuffled)
            reordered = TripleStore(shuffled).freeze()
            assert detect_ping_pong(reordered) == detect_ping_pong(store)
            assert team_involvement(reordered) == team_involvement(store)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(150):
            graph, records = random_handoff_graph(rng)
            result = {row.case: row for row in detect_ping_pong(graph_to_triples(graph).freeze())}
            assert set(result) == set(records)
            for case, rows in records.items():
                has, lo, hi = brute_force_ping_pong(rows)
                assert result[case].has_ping_pong == has, case
                assert result[case].min_time == lo
                assert result[case].max_time == hi

    def test_adding_events_never_clears_ping_pong(self):
        rng = random.Random(31)
        for _ in range(60):
            graph, records = random_handoff_graph(rng, max_cases=3, max_events=8, max_teams=3)
            before = {
                r.case: r.has_ping_pong
                for r in detect_ping_pong(graph_to_triples(graph).freeze())
            }
            handoffs = [
                (case.rsplit("/", 1)[1], team.rsplit("/", 1)[1], time)
                for case, rows in records.items()
                for team, time in rows
            ]
            case = rng.choice(sorted(records))
            handoffs.append(
                (case.rsplit("/", 1)[1], f"team_{rng.choice('ABC')}", ts(rng.randint(0, 20)))
            )
            after = {
                r.case: r.has_ping_pong
                for r in detect_ping_pong(graph_to_triples(build_handoff_graph(handoffs)).freeze())
            }
            for key, flag in before.items():
                if flag:
                    assert after[key] is True


class TestTeamInvolvement:
    def test_single_bounce_counts_both_teams_once(self):
        store = store_for([("c1", "A", ts(1)), ("c1", "B", ts(2)), ("c1", "A", ts(3))])
        rows = team_involvement(store)
        assert [(r.team.rsplit("/", 1)[1], r.cases_involved, r.witness_count) for r in rows] == [
            ("A", 1, 1),
            ("B", 1, 1),
        ]

    def test_no_ping_pong_is_empty(self):
        store = store_for([("c1", "A", ts(1)), ("c1", "B", ts(2))])
        assert team_involvement(store) == []

    def test_two_case_ranking(self):
        handoffs = [
            ("c1", "A", ts(1)),
            ("c1", "B", ts(2)),
            ("c1", "A", ts(3)),
            ("c2", "A", ts(1)),
            ("c2", "B", ts(2)),
            ("c2", "A", ts(3)),
            ("c2", "C", ts(4)),
            ("c2", "A", ts(5)),
        ]
        rows = team_involvement(store_for(handoffs))
        assert [(r.team.rsplit("/", 1)[1], r.cases_involved, r.witness_count) for r in rows] == [
            ("A", 2, 5),
            ("B", 2, 3),
            ("C", 1, 2),
        ]
        # cross-check the frozen numbers against the exhaustive oracle
        per_case = {"c1": handoffs[:3], "c2": handoffs[3:]}
        expected_witnesses: dict[str, int] = {}
        for case_rows in per_case.values():
            for team, count in brute_force_witnesses(
                [(team, time) for _, team, time in case_rows]
            ).items():
                expected_witnesses[team] = expected_witnesses.get(team, 0) + count
        assert {r.team.rsplit("/", 1)[1]: r.witness_count for r in rows} == expected_witnesses

    def test_matches_witness_oracle_on_random_graphs(self):
        rng = random.Random(77)
        for _ in range(60):
            graph, records = random_handoff_graph(rng, max_cases=6, max_events=10)
            rows = team_involvement(graph_to_triples(graph).freeze())
            expected_cases: dict[str, int] = {}
            expected_witnesses: dict[str, int] = {}
            for case_rows in records.values():
                counts = brute_force_witnesses(case_rows)
                for team, count in counts.items():
                    expected_cases[team] = expected_cases.get(team, 0) + 1
                    expected_witnesses[team] = expected_witnesses.get(team, 0) + count
            assert {r.team: r.cases_involved for r in rows} == expected_cases
            assert {r.team: r.witness_count for r in rows} == expected_witnesses
            assert rows == sorted(rows, key=lambda r: (-r.cases_involved, r.team))

    def test_invariant_cases_never_exceed_witnesses(self):
        rng = random.Random(5)
        for _ in range(40):
            graph, _ = random_handoff_graph(rng, max_cases=5, max_events=8)
            for row in team_involvement(graph_to_triples(graph).freeze()):
                assert row.cases_involved <= row.witness_count


def _eo_node(store, node, event=None, obj=None, classifier=None):
    n = Iri(EX + node)
    store.insert(Triple(n, Iri(RDF + "type"), Iri(EXT + "EventObject")))
    if event:
        store.insert(Triple(n, Iri(EXT + "event"), Iri(EX + event)))
    if obj:
        store.insert(Triple(n, Iri(EXT + "object"), Iri(EX + obj)))
    if classifier:
        store.insert(Triple(n, Iri(EXT + "classifier"), PlainLiteral(classifier)))
    return n


class TestEnumerateEventObjects:
    def test_fixture_row_fields(self):
        store = graph_to_triples(build_handoff_graph([("c1", None, ts(0))])).freeze()
        (row,) = enumerate_event_objects(store)
        assert row.event == EX + "e1"
        assert row.object == EX + "c1"
        assert row.classifier == "event_case"
        assert row.time == ts(0)
        assert row.event_type == "handover"
        assert row.object_type == "case"

    def test_each_time_literal_is_decoded_once(self, monkeypatch):
        """Every event has three ext:EventObject nodes, so three rows share its
        time literal; each distinct literal is parsed once, and the rows keep
        every field."""
        times = {
            "e0": ("2012-01-01T00:00:00.000Z", datetime(2012, 1, 1, tzinfo=timezone.utc)),
            # e0's instant written another way: a distinct literal, decoded on its own
            "e1": ("2012-01-01T01:00:00.000+01:00", datetime(2012, 1, 1, tzinfo=timezone.utc)),
            "e2": ("2012-01-02T00:00:00.500Z", datetime(2012, 1, 2, 0, 0, 0, 500000, tzinfo=timezone.utc)),
            "e3": ("not a time", None),
            "e4": (None, None),
        }
        store = TripleStore()
        expected = []
        for event, (lexical, instant) in times.items():
            if lexical is not None:
                store.insert(Triple(Iri(EX + event), OBSERVED_AT, TypedLiteral(lexical, Iri(XSD + "dateTime"))))
            store.insert(Triple(Iri(EX + event), Iri(EXT + "event_type"), PlainLiteral("handover")))
            for k in range(3):
                obj = f"{event}_o{k}"
                _eo_node(store, f"{event}_n{k}", event=event, obj=obj, classifier=f"q{k}")
                store.insert(Triple(Iri(EX + obj), Iri(EXT + "object_type"), PlainLiteral("team")))
                expected.append(EventObjectRow(EX + event, EX + obj, f"q{k}", "handover", instant, "team"))
        parsed = []
        parse_instant = triple_query.parse_instant

        def counted(text):
            parsed.append(text)
            return parse_instant(text)

        monkeypatch.setattr(triple_query, "parse_instant", counted)
        rows = enumerate_event_objects(store.freeze())
        assert sorted(parsed) == sorted(lexical for lexical, _ in times.values() if lexical is not None)
        assert rows == expected

    def test_empty_store(self):
        assert enumerate_event_objects(TripleStore().freeze()) == []

    def test_all_optional_fields_absent_row_retained(self):
        store = TripleStore()
        _eo_node(store, "n1", event="e1", obj="o1")
        (row,) = enumerate_event_objects(store.freeze())
        assert row.event == EX + "e1"
        assert row.object == EX + "o1"
        assert row.classifier is None
        assert row.event_type is None
        assert row.time is None
        assert row.object_type is None

    def test_each_optional_field_independently_present(self):
        store = TripleStore()
        _eo_node(store, "n1", event="e1", obj="o1", classifier="linked")
        store.insert(Triple(Iri(EX + "e1"), Iri(EXT + "event_type"), PlainLiteral("Accepted")))
        _eo_node(store, "n2", event="e2", obj="o2")
        store.insert(
            Triple(
                Iri(EX + "e2"),
                Iri(OCEDO + "observed_at"),
                TypedLiteral("2012-01-01T00:00:00.000Z", Iri(XSD + "dateTime")),
            )
        )
        _eo_node(store, "n3", event="e3", obj="o3")
        store.insert(Triple(Iri(EX + "o3"), Iri(EXT + "object_type"), PlainLiteral("case")))
        rows = {row.event: row for row in enumerate_event_objects(store.freeze())}
        assert len(rows) == 3
        assert rows[EX + "e1"].classifier == "linked"
        assert rows[EX + "e1"].event_type == "Accepted"
        assert rows[EX + "e1"].time is None
        assert rows[EX + "e2"].time == datetime(2012, 1, 1, tzinfo=timezone.utc)
        assert rows[EX + "e2"].classifier is None
        assert rows[EX + "e3"].object_type == "case"

    def test_malformed_node_skipped_with_warning(self, caplog):
        store = TripleStore()
        _eo_node(store, "good", event="e1", obj="o1")
        _eo_node(store, "broken", event="e2")  # no ext:object
        with caplog.at_level(logging.WARNING):
            rows = enumerate_event_objects(store.freeze())
        assert len(rows) == 1
        assert any("broken" in record.message for record in caplog.records)

    @staticmethod
    def _warnings_and_pattern_calls(lacking_object: int, monkeypatch, caplog):
        store = TripleStore()
        _eo_node(store, "good", event="e0", obj="o0")
        _eo_node(store, "no_event", obj="o1")
        for i in range(lacking_object):
            _eo_node(store, f"no_object{i}", event=f"e{i + 2}")
        calls = []
        match_pattern = TripleStore.match_pattern

        def counted(self, pattern):
            calls.append(pattern)
            return match_pattern(self, pattern)

        monkeypatch.setattr(TripleStore, "match_pattern", counted)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            rows = enumerate_event_objects(store.freeze())
        assert [row.event for row in rows] == [EX + "e0"]
        return [record.getMessage() for record in caplog.records], len(calls)

    def test_skipped_nodes_cost_no_lookup_each(self, monkeypatch, caplog):
        """Telling a node without ext:event from one without ext:object takes
        the same number of pattern matches for 1 such node as for 200, and the
        warnings keep the nodes' insertion order."""
        results = {
            n: self._warnings_and_pattern_calls(n, monkeypatch, caplog) for n in (1, 200)
        }
        for n, (messages, _) in results.items():
            assert messages == [f"EventObject {EX}no_event lacks ext:event; skipped"] + [
                f"EventObject {EX}no_object{i} lacks ext:object; skipped" for i in range(n)
            ]
        assert results[1][1] == results[200][1]

    def test_row_count_equals_well_formed_node_count(self):
        rng = random.Random(11)
        store = TripleStore()
        expected = 0
        for i in range(30):
            complete = rng.random() < 0.7
            _eo_node(
                store,
                f"n{i}",
                event=f"e{i}" if complete or rng.random() < 0.5 else None,
                obj=f"o{i}" if complete else None,
                classifier="c" if rng.random() < 0.5 else None,
            )
            if complete:
                expected += 1
        assert len(enumerate_event_objects(store.freeze())) == expected


def test_pattern_order_decides_no_output(monkeypatch):
    """Joins run in the order written, so the order of an analysis's
    patterns decides only its speed: every permutation of TEAM_TIMES and of
    the EventObject block gives the same records and DOT bytes.  Each store
    holds its triples shuffled, so its partitions list subjects in different
    orders and each join order yields the solutions in a different order."""
    rng = random.Random(23)
    graphs = [random_handoff_graph(rng, max_cases=8)[0] for _ in range(10)]
    graphs += [random_oced_graph(rng) for _ in range(30)]
    stores = []
    for graph in graphs:
        triples = graph_to_triples(graph).triples()
        stores.append(TripleStore(rng.sample(triples, len(triples))).freeze())

    def outputs(store):
        return (
            records(detect_ping_pong(store)),
            records(team_involvement(store)),
            records(enumerate_event_objects(store)),
            store_to_dot(store),
        )

    expected = [outputs(store) for store in stores]
    assert any(out[0] for out in expected) and any(out[1] for out in expected)
    assert any(out[2] for out in expected)
    for team_times in permutations(analyses.TEAM_TIMES):
        for event_object in permutations(analyses._EVENT_OBJECT):
            monkeypatch.setattr(analyses, "TEAM_TIMES", list(team_times))
            monkeypatch.setattr(analyses, "_EVENT_OBJECT", list(event_object))
            assert [outputs(store) for store in stores] == expected, (team_times, event_object)


class TestRecords:
    def test_row_fields_are_the_output_columns(self):
        assert PING_PONG_COLUMNS == PingPongRow._fields == ("case", "has_ping_pong", "min_time", "max_time")
        assert TEAM_COLUMNS == TeamInvolvement._fields == ("team", "cases_involved", "witness_count")
        assert EVENT_OBJECT_COLUMNS == EventObjectRow._fields == (
            "event", "object", "classifier", "event_type", "time", "object_type",
        )

    def test_rows_compare_as_tuples(self):
        assert TeamInvolvement("t", 2, 5) == ("t", 2, 5)
        assert EventObjectRow("e", "o") == ("e", "o", None, None, None, None)

    def test_each_distinct_instant_is_formatted_once(self, monkeypatch):
        formatted = []

        def counting(instant):
            formatted.append(instant)
            return format_utc_millis(instant)

        monkeypatch.setattr(analyses, "format_utc_millis", counting)
        same_instant = ts(0).astimezone(timezone(timedelta(hours=1)))
        rows = [PingPongRow("c1", True, ts(0), ts(5)), PingPongRow("c2", False, same_instant, ts(5))]
        assert records(rows) == [
            ("c1", True, "2012-01-01T00:00:00.000Z", "2012-01-01T00:05:00.000Z"),
            ("c2", False, "2012-01-01T00:00:00.000Z", "2012-01-01T00:05:00.000Z"),
        ]
        assert len(formatted) == 2
        row = EventObjectRow("e", "o", time=ts(5))
        assert records([row]) == [("e", "o", None, None, "2012-01-01T00:05:00.000Z", None)]
        assert records([]) == []

    def test_csv_and_jsonl_write_cells_in_column_order(self):
        cells = records([EventObjectRow("e1", "o1", "q,x", None, ts(0), 'typ"e')])
        assert records_to_csv(cells, EVENT_OBJECT_COLUMNS) == (
            "event,object,classifier,event_type,time,object_type\r\n"
            'e1,o1,"q,x",,2012-01-01T00:00:00.000Z,"typ""e"\r\n'
        )
        assert records_to_jsonl(cells, EVENT_OBJECT_COLUMNS) == (
            '{"event": "e1", "object": "o1", "classifier": "q,x", "event_type": null, '
            '"time": "2012-01-01T00:00:00.000Z", "object_type": "typ\\"e"}\n'
        )
