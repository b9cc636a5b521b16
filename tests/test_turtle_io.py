import random
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from oced_forge import (
    Iri,
    OcedEvent,
    OcedGraph,
    OcedObject,
    PlainLiteral,
    SerializationError,
    Triple,
    TurtleSyntaxError,
    TypedLiteral,
    TypedValue,
    UnsupportedConstructError,
    escape_id,
    graph_to_triples,
    graph_to_turtle,
    load_mapping_config,
    parse_turtle,
    parse_xes,
    transform_log,
    write_turtle,
)
from oced_forge.cli import main
from oced_forge.terms import EX, EXT, OCEDO, RDF, XSD
from oced_forge.triple_query import TripleStore
from oced_forge.turtle_io import _TurtleParser

from conftest import BPIC_STYLE_XES
from oracles import random_oced_graph

GOLDEN = Path(__file__).resolve().parent / "golden"

T0 = datetime(2012, 1, 1, 10, 0, tzinfo=timezone(timedelta(hours=1)))


def one_event_graph() -> OcedGraph:
    graph = OcedGraph()
    graph.add_event(OcedEvent(id="e1", event_type="Accepted", observed_at=T0))
    graph.add_object(OcedObject(id="case_1", object_type="case"))
    graph.relate_event_object("e1", "case_1", "event_case")
    return graph


class TestGraphToTriples:
    def test_observed_at_triple_normalized_to_utc(self):
        store = graph_to_triples(one_event_graph())
        expected = Triple(
            Iri(EX + "e1"),
            Iri(OCEDO + "observed_at"),
            TypedLiteral("2012-01-01T09:00:00.000Z", Iri(XSD + "dateTime")),
        )
        assert expected in store

    def test_dual_emission_of_event_object_relation(self):
        store = graph_to_triples(one_event_graph())
        node = Iri(EX + "eo_1")
        assert Triple(node, Iri(RDF + "type"), Iri(EXT + "EventObject")) in store
        assert Triple(node, Iri(EXT + "event"), Iri(EX + "e1")) in store
        assert Triple(node, Iri(EXT + "object"), Iri(EX + "case_1")) in store
        assert Triple(node, Iri(EXT + "classifier"), PlainLiteral("event_case")) in store
        # the query's direct predicate form
        assert Triple(Iri(EX + "e1"), Iri(EXT + "event_case"), Iri(EX + "case_1")) in store

    def test_one_event_fixture_complete_inventory(self):
        store = graph_to_triples(one_event_graph())
        assert len(store) == 10

    def test_unqualified_relation_has_no_classifier_or_direct_triple(self):
        graph = OcedGraph()
        graph.add_event(OcedEvent(id="e1", event_type="t", observed_at=T0))
        graph.add_object(OcedObject(id="o1", object_type="case"))
        graph.relate_event_object("e1", "o1", None)
        store = graph_to_triples(graph)
        predicates = {t.predicate.value for t in store.triples()}
        assert EXT + "classifier" not in predicates
        assert len(store) == 8

    def test_empty_graph_zero_triples(self):
        assert len(graph_to_triples(OcedGraph())) == 0

    def test_attribute_kinds(self):
        graph = OcedGraph()
        graph.add_event(
            OcedEvent(
                id="e1",
                event_type="t",
                observed_at=T0,
                attributes={
                    "impact": TypedValue("string", "Medium"),
                    "count": TypedValue("int", 7),
                    "ratio": TypedValue("float", 0.5),
                    "open": TypedValue("boolean", True),
                    "seen": TypedValue("date", T0),
                },
            )
        )
        store = graph_to_triples(graph)
        subject = Iri(EX + "e1")
        assert Triple(subject, Iri(EXT + "impact"), PlainLiteral("Medium")) in store
        assert Triple(subject, Iri(EXT + "count"), TypedLiteral("7", Iri(XSD + "integer"))) in store
        assert Triple(subject, Iri(EXT + "ratio"), TypedLiteral("0.5", Iri(XSD + "double"))) in store
        assert Triple(subject, Iri(EXT + "open"), TypedLiteral("true", Iri(XSD + "boolean"))) in store
        assert (
            Triple(
                subject,
                Iri(EXT + "seen"),
                TypedLiteral("2012-01-01T09:00:00.000Z", Iri(XSD + "dateTime")),
            )
            in store
        )

    def test_object_object_relation_single_triple(self):
        graph = OcedGraph()
        graph.add_object(OcedObject(id="c1", object_type="case"))
        graph.add_object(OcedObject(id="t1", object_type="support_team"))
        graph.relate_objects("c1", "t1", "involves_team")
        store = graph_to_triples(graph)
        assert Triple(Iri(EX + "c1"), Iri(EXT + "involves_team"), Iri(EX + "t1")) in store

    def test_id_shared_across_namespaces_is_a_serialization_error(self):
        graph = OcedGraph()
        graph.add_event(OcedEvent(id="shared", event_type="t", observed_at=T0))
        graph.add_object(OcedObject(id="shared", object_type="case"))
        with pytest.raises(SerializationError, match="shared"):
            graph_to_triples(graph)

    def test_event_id_equal_to_a_relation_id_is_a_serialization_error(self):
        graph = OcedGraph()
        graph.add_event(OcedEvent(id="eo_1", event_type="t", observed_at=T0))
        graph.add_object(OcedObject(id="case_1", object_type="case"))
        assert graph.relate_event_object("eo_1", "case_1").id == "eo_1"
        message = "id 'eo_1' is used as both event and relation; ids share one IRI namespace in Turtle output"
        for render in (graph_to_triples, graph_to_turtle):
            with pytest.raises(SerializationError) as raised:
                render(graph)
            assert str(raised.value) == message

    def test_an_earlier_serialization_error_wins_over_an_id_collision(self):
        graph = OcedGraph()
        graph.add_event(
            OcedEvent(id="shared", event_type="t", observed_at=T0, attributes={"": TypedValue("string", "x")})
        )
        graph.add_object(OcedObject(id="shared", object_type="case"))
        for render in (graph_to_triples, graph_to_turtle):
            with pytest.raises(SerializationError, match="cannot mint an IRI from an empty name"):
                render(graph)


class TestGraphToTurtle:
    """graph_to_turtle renders a graph without a store; write_turtle over
    graph_to_triples is its reference, text and triple count."""

    @staticmethod
    def assert_same_as_store_path(graph):
        store = graph_to_triples(graph)
        assert graph_to_turtle(graph) == (write_turtle(store), len(store))

    def test_acceptance_seed_graphs(self):
        rng = random.Random(4040)
        for _ in range(200):
            self.assert_same_as_store_path(random_oced_graph(rng))

    def test_empty_graph(self):
        self.assert_same_as_store_path(OcedGraph())

    def test_converted_fixture_and_hostile_logs(self):
        hostile = load_mapping_config(str(GOLDEN / "hostile.config.json"))
        for data, config in (
            (BPIC_STYLE_XES.encode(), None),
            ((GOLDEN / "hostile.xes").read_bytes(), hostile),
        ):
            graph, _ = transform_log(parse_xes(data), config)
            self.assert_same_as_store_path(graph)

    def test_passthrough_event_type_is_written_once(self):
        graph = OcedGraph()
        graph.add_event(
            OcedEvent(
                id="e1",
                event_type="Accepted",
                observed_at=T0,
                attributes={"event_type": TypedValue("string", "Accepted")},
            )
        )
        text, count = graph_to_turtle(graph)
        assert text.count('ex:e1 ext:event_type "Accepted" .') == 1
        assert count == 3
        self.assert_same_as_store_path(graph)

    def test_literals_and_ids_needing_escapes(self):
        odd = 'q"b\\n\nt\tr\r é 日本 😀'
        graph = OcedGraph()
        graph.add_event(
            OcedEvent(
                id="e1",
                event_type=odd,
                observed_at=T0,
                attributes={odd: TypedValue("string", odd), "k": TypedValue("id", odd)},
            )
        )
        graph.add_object(OcedObject(id=escape_id("case " + odd), object_type=odd))
        graph.relate_event_object("e1", escape_id("case " + odd), odd)
        text, _ = graph_to_turtle(graph)
        assert '"q\\"b\\\\n\\nt\\tr\\r é 日本 😀"' in text
        self.assert_same_as_store_path(graph)

    def test_trace_named_like_an_event_id_raises_the_same_error(self, tmp_path, capsys):
        data = BPIC_STYLE_XES.replace('value="1-364285768"', 'value="e1"').encode()
        graph, _ = transform_log(parse_xes(data))
        message = "id 'e1' is used as both event and object; ids share one IRI namespace in Turtle output"
        for render in (graph_to_triples, graph_to_turtle):
            with pytest.raises(SerializationError) as raised:
                render(graph)
            assert str(raised.value) == message
        xes = tmp_path / "e1.xes"
        xes.write_bytes(data)
        assert main(["convert", str(xes)]) == 2
        assert capsys.readouterr().err == f"oced-forge: {message}\n"


class TestWriteTurtle:
    def test_empty_store_is_exactly_the_prefix_header(self):
        lines = write_turtle(TripleStore()).splitlines()
        assert lines == [
            "@prefix ocedo: <https://w3id.org/ocedo/core#> .",
            "@prefix ext: <https://w3id.org/ocedo/ext#> .",
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
            "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
            "@prefix ex: <http://example.org/oced/> .",
        ]

    def test_single_triple_line(self):
        store = TripleStore([Triple(Iri(EX + "e1"), Iri(EXT + "event_case"), Iri(EX + "c1"))])
        body = write_turtle(store).splitlines()[6:]
        assert body == ["ex:e1 ext:event_case ex:c1 ."]

    def test_insertion_order_does_not_change_output(self):
        t1 = Triple(Iri(EX + "b"), Iri(EXT + "p"), PlainLiteral("1"))
        t2 = Triple(Iri(EX + "a"), Iri(EXT + "p"), PlainLiteral("2"))
        assert write_turtle(TripleStore([t1, t2])) == write_turtle(TripleStore([t2, t1]))

    def test_unprefixable_iri_uses_angle_brackets(self):
        store = TripleStore(
            [Triple(Iri("http://other.example/x"), Iri(EXT + "p"), PlainLiteral("v"))]
        )
        assert "<http://other.example/x> ext:p" in write_turtle(store)

    def test_percent_escaped_local_names_stay_prefixed(self):
        store = TripleStore(
            [Triple(Iri(EX + "e1"), Iri(RDF + "type"), Iri(EXT + "Accepted%2BIn%20Progress"))]
        )
        assert "ext:Accepted%2BIn%20Progress" in write_turtle(store)


class TestParseTurtle:
    def test_a_expands_to_rdf_type(self):
        doc = "@prefix ex: <http://example.org/oced/> .\n@prefix ext: <https://w3id.org/ocedo/ext#> .\nex:e1 a ext:EventObject ."
        store = parse_turtle(doc)
        assert store.triples() == [
            Triple(Iri(EX + "e1"), Iri(RDF + "type"), Iri(EXT + "EventObject"))
        ]

    def test_semicolon_and_comma_abbreviations(self):
        doc = (
            "@prefix ex: <http://e.org/> .\n"
            'ex:s ex:p ex:o1 , ex:o2 ;\n     ex:q "lit" .'
        )
        store = parse_turtle(doc)
        assert len(store) == 3

    def test_blank_node_unsupported(self):
        with pytest.raises(UnsupportedConstructError, match="blank node"):
            parse_turtle("@prefix ex: <http://e/> .\nex:a ex:b [ ex:c ex:d ] .")

    def test_collection_unsupported(self):
        with pytest.raises(UnsupportedConstructError, match="collection"):
            parse_turtle("@prefix ex: <http://e/> .\nex:a ex:b ( ex:c ) .")

    def test_base_unsupported(self):
        with pytest.raises(UnsupportedConstructError, match="base"):
            parse_turtle("@base <http://e/> .")

    def test_long_string_unsupported(self):
        with pytest.raises(UnsupportedConstructError, match="long string"):
            parse_turtle('@prefix ex: <http://e/> .\nex:a ex:b """x""" .')

    def test_unknown_prefix_reports_position(self):
        with pytest.raises(TurtleSyntaxError, match="unknown prefix") as info:
            parse_turtle("nope:a nope:b nope:c .")
        assert info.value.line == 1

    def test_syntax_error_has_line_and_column(self):
        with pytest.raises(TurtleSyntaxError) as info:
            parse_turtle('@prefix ex: <http://e/> .\nex:s ex:p "unterminated .')
        assert info.value.line == 2

    def test_relative_iri_rejected(self):
        with pytest.raises(TurtleSyntaxError, match="relative"):
            parse_turtle("<rel> <http://e/p> <http://e/o> .")

    def test_literal_escapes(self):
        doc = '@prefix ex: <http://e/> .\nex:s ex:p "a\\"b\\\\c\\nd\\te" .'
        (triple,) = parse_turtle(doc).triples()
        assert triple.object == PlainLiteral('a"b\\c\nd\te')

    def test_typed_and_lang_literals(self):
        doc = (
            "@prefix ex: <http://e/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            'ex:s ex:p "2012-01-01T00:00:00.000Z"^^xsd:dateTime ; ex:q "hi"@en .'
        )
        store = parse_turtle(doc)
        objects = {t.object for t in store.triples()}
        assert TypedLiteral("2012-01-01T00:00:00.000Z", Iri(XSD + "dateTime")) in objects
        assert PlainLiteral("hi", lang="en") in objects

    def test_comments_ignored(self):
        doc = "# header\n@prefix ex: <http://e/> . # trailing\nex:s ex:p ex:o . # done"
        assert len(parse_turtle(doc)) == 1

    def test_sparql_style_prefix(self):
        doc = "PREFIX ex: <http://e/>\nex:s ex:p ex:o ."
        assert len(parse_turtle(doc)) == 1


class TestRoundTrip:
    def test_one_event_fixture(self):
        store = graph_to_triples(one_event_graph())
        again = parse_turtle(write_turtle(store))
        assert set(again.triples()) == set(store.triples())
        assert len(again) == len(store)

    def test_random_graphs(self):
        rng = random.Random(42)
        for _ in range(60):
            store = graph_to_triples(random_oced_graph(rng))
            again = parse_turtle(write_turtle(store))
            assert set(again.triples()) == set(store.triples())
            assert len(again) == len(store)

    def test_write_is_stable_under_reparse(self):
        rng = random.Random(5)
        store = graph_to_triples(random_oced_graph(rng))
        text = write_turtle(store)
        assert write_turtle(parse_turtle(text)) == text

    def test_all_datetime_lexicals_are_utc_with_millis(self):
        import re

        rng = random.Random(23)
        pattern = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z$")
        for _ in range(30):
            store = graph_to_triples(random_oced_graph(rng))
            for triple in store.triples():
                obj = triple.object
                if isinstance(obj, TypedLiteral) and obj.datatype.value.endswith("dateTime"):
                    assert pattern.match(obj.lexical), obj.lexical


# A SPARQL-style PREFIX line is outside the statement fast path, so
# prepending one makes the general reader read the whole document.
GENERAL = "PREFIX g: <http://g.example/>\n"

SYNTAX, UNSUPPORTED = TurtleSyntaxError, UnsupportedConstructError


def outcome(doc: str):
    """Triples in insertion order, or the error's class, message, line and column."""
    try:
        return list(parse_turtle(doc))
    except TurtleSyntaxError as exc:
        return type(exc), str(exc).rsplit(" (line ", 1)[0], exc.line, exc.column


@pytest.fixture
def group_turtle(monkeypatch):
    """bench/grouped.py's canonical-to-subject-grouped rewriter, read-only."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from grouped import group_turtle

    return group_turtle


class TestFastPath:
    def test_same_triples_in_same_order_as_general_path_200_graphs(self):
        rng = random.Random(4040)
        for _ in range(200):
            text = write_turtle(graph_to_triples(random_oced_graph(rng)))
            assert list(parse_turtle(text)) == list(parse_turtle(GENERAL + text))

    def test_canonical_line_shapes_read_by_fast_path(self):
        doc = (
            "@prefix ex: <http://example.org/oced/> .\n"
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            "\n"
            "<http://other.example/x?a=1#f> ex:p <urn:isbn:123> .\n"
            "ex:Accepted%2BIn%20Progress ex:p ex:-a_1 .\n"
            'ex:s ex:p "q\\"uote \\\\ back\\nline\\ttab \\u00e9" .\n'
            'ex:s ex:p "hallo"@de-AT .\n'
            'ex:s ex:p "7"^^xsd:integer .\n'
            'ex:s ex:p "7"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            'ex:s ex:p "" .\n'
            "ex:s\tex:p   ex:o.\r\n"
            "@prefix ex: <http://redefined.example/> .\n"
            "@prefix : <http://empty.example/> .\n"
            "ex:s ex:p ex:o .\n"
            ":s ex:p ex:o ."
        )
        assert _TurtleParser(doc)._fast_statements() == len(doc)
        triples = list(parse_turtle(doc))
        assert triples == list(parse_turtle(GENERAL + doc))
        assert Triple(Iri(EX + "s"), Iri(EX + "p"), PlainLiteral('q"uote \\ back\nline\ttab \u00e9')) in triples
        assert Triple(Iri(EX + "s"), Iri(EX + "p"), PlainLiteral("hallo", lang="de-AT")) in triples
        p, o = Iri("http://redefined.example/p"), Iri("http://redefined.example/o")
        assert triples[-2:] == [
            Triple(Iri("http://redefined.example/s"), p, o),
            Triple(Iri("http://empty.example/s"), p, o),
        ]

    @pytest.mark.parametrize(
        "line, column",
        [
            ('ex:s ex:p "unterminated .', 11),
            ("ex:s nope:p ex:o .", 6),
            ("ex:s ex:p <rel> .", 11),
            ('ex:s ex:p "bad\\q" .', 15),
            ("ex:s ex:p [ ] .", 11),
            ("ex:s ex:p ex:o", 15),
            ("ex:s ex:p ex:o .5", 16),
        ],
    )
    def test_error_after_1000_canonical_lines_keeps_class_line_and_column(self, line, column):
        good = "".join(f"ex:s{i} ext:p ex:o{i} .\n" for i in range(1000))
        doc = write_turtle(TripleStore()) + "\n" + good + line
        fast, general = outcome(doc), outcome(GENERAL + doc)
        assert fast[2:] == (1007, column)
        assert fast == (general[0], general[1], general[2] - 1, general[3])

    def test_general_path_continues_after_hand_over(self):
        doc = (
            "@prefix ex: <http://e/> .\n"
            "ex:a ex:p ex:b .\n"
            'ex:a ex:p "\\U0001F600" ; a ex:T .\n'
            "ex:c ex:p ex:d .\n"
        )
        triples = list(parse_turtle(doc))
        assert triples == list(parse_turtle(GENERAL + doc))
        assert len(triples) == 4

    @pytest.mark.parametrize(
        "escape", ["\\U00110000", "\\UFFFFFFFF", "\\uD800", "\\uDFFF", "\\U0000DBFF"]
    )
    def test_escape_outside_unicode_scalar_values_is_a_syntax_error(self, escape):
        doc = '@prefix ex: <http://e/> .\nex:s ex:p ex:o .\nex:s ex:p "ab' + escape + '" .\n'
        fast, general = outcome(doc), outcome(GENERAL + doc)
        assert fast == (TurtleSyntaxError, f"{escape} is not a Unicode scalar value", 3, 14)
        assert fast == (general[0], general[1], general[2] - 1, general[3])

    @pytest.mark.parametrize(
        "escape, char", [("\\uD7FF", "\ud7ff"), ("\\uE000", "\ue000"), ("\\U0010FFFF", "\U0010ffff")]
    )
    def test_escapes_next_to_the_excluded_ranges_are_read(self, escape, char):
        doc = '@prefix ex: <http://e/> .\nex:s ex:p "' + escape + '" .\n'
        assert outcome(doc) == outcome(GENERAL + doc) == [
            Triple(Iri("http://e/s"), Iri("http://e/p"), PlainLiteral(char))
        ]

    @pytest.mark.parametrize(
        "line", ['zz:s ex:p "\\uD800" .', 'ex:s zz:p "\\uD800" .', 'ex:s ex:p "\\uD800"^^zz:t .']
    )
    def test_unknown_prefix_and_bad_escape_on_one_line_fail_as_on_general_path(self, line):
        doc = "@prefix ex: <http://e/> .\nex:s ex:p ex:o .\n" + line + "\n"
        fast, general = outcome(doc), outcome(GENERAL + doc)
        assert fast[2] == 3
        assert fast == (general[0], general[1], general[2] - 1, general[3])

    def test_grouped_layout_same_triples_in_same_order_200_graphs(self, group_turtle):
        rng = random.Random(4141)
        for _ in range(200):
            canonical = write_turtle(graph_to_triples(random_oced_graph(rng)))
            doc = group_turtle(canonical)
            assert _TurtleParser(doc)._fast_statements() == len(doc)
            triples = list(parse_turtle(doc))
            assert triples == list(parse_turtle(GENERAL + doc)) == list(parse_turtle(canonical))

    @pytest.mark.parametrize(
        "tail, expected",
        [
            ("ex:s ext:p ex:o ;\n    zz:p ex:o .\n", (SYNTAX, "unknown prefix 'zz:'", 2, 5)),
            ('ex:s ext:p ex:o ,\n    zz:o ,\n    "\\uD800" .\n', (SYNTAX, "unknown prefix 'zz:'", 2, 5)),
            ('ex:s ext:p ex:o ,\n    "\\uD800" ,\n    zz:o .\n', (SYNTAX, "\\uD800 is not a Unicode scalar value", 2, 6)),
            ("ex:s ext:p ex:o ;\n    .\n", 3001),
            ("ex:s ab ex:o .\n", (SYNTAX, "expected an IRI as predicate", 1, 6)),
            ("ex:s ext:p ex:o ; # ext:q ex:r .\n", (SYNTAX, "expected an IRI as predicate", 2, 1)),
            ("ex:s ext:p # c\n    ex:o .\n", 3001),
            ("ex:s ext:p ex:o .5\n", (SYNTAX, "unexpected character '.'", 1, 17)),
            ("ex:s ext:p [ ] .\n", (UNSUPPORTED, "blank node", 1, 12)),
            ("ex:s ext:p ex:o ;" + " " * 200_000 + "$ .\n", (SYNTAX, "unexpected character '$'", 1, 200_018)),
            ("ex:s ext:p ex:o" + " " * 200_000 + "$ .\n", (SYNTAX, "unexpected character '$'", 1, 200_016)),
            (" " * 200_000 + "ex:s ext:p [ ] .\n", (UNSUPPORTED, "blank node", 1, 200_012)),
        ],
        ids=[
            "unknown-prefix-in-semicolon-item",
            "unknown-prefix-before-bad-escape",
            "unknown-prefix-after-bad-escape",
            "trailing-semicolon",
            "verb-ab",
            "comment-eats-statement-end",
            "comment-inside-statement",
            "dot-before-digit",
            "blank-node",
            "blanks-after-semicolon",
            "blanks-after-object",
            "blanks-before-statement",
        ],
    )
    def test_error_after_1000_grouped_statements_keeps_class_line_and_column(self, tail, expected):
        good = "".join(f'ex:s{i} a ext:T ;\n    ext:p ex:o{i} ,\n        "v{i}" .\n' for i in range(1000))
        doc = write_turtle(TripleStore()) + "\n# grouped\n" + good + tail
        try:
            handed_over = _TurtleParser(doc)._fast_statements()
        except TurtleSyntaxError:
            handed_over = None  # the fast path raised the error itself
        assert handed_over in (None, len(doc) - len(tail))
        fast, general = outcome(doc), outcome(GENERAL + doc)
        if isinstance(expected, int):
            assert len(fast) == expected
            assert fast == general
        else:
            # 7 header lines and 3,000 statement lines come before the tail
            assert fast == (*expected[:2], 3007 + expected[2], expected[3])
            assert fast == (general[0], general[1], general[2] - 1, general[3])


def _one(lexical, datatype):
    return [Triple(Iri("http://e/s"), Iri("http://e/p"), TypedLiteral(lexical, Iri(XSD + datatype)))]


class TestGeneralReader:
    """Each branch of the general reader, read after a leading PREFIX line."""

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("ex:s ex:p 5 .", _one("5", "integer")),
            ("ex:s ex:p -2.5 .", _one("-2.5", "decimal")),
            ("ex:s ex:p 1e3 .", _one("1e3", "double")),
            ("ex:s ex:p true .", _one("true", "boolean")),
            ("ex:s ex:p <http://e/o .", (SYNTAX, "unterminated IRI", 3, 11)),
            ("ex:s ex:p <http://e/a\\u0041> .", (SYNTAX, "escape sequences in IRIs are not supported", 3, 22)),
            ("ex:s ex:p <http://e/a{b> .", (SYNTAX, "character '{' is illegal inside an IRI", 3, 22)),
            # control characters too, as in IRIREF and the writer's rule
            ("ex:s ex:p <http://e/a\tb> .", (SYNTAX, "character '\\t' is illegal inside an IRI", 3, 22)),
            ("ex:s ex:p <http://e/a\x01b> .", (SYNTAX, "character '\\x01' is illegal inside an IRI", 3, 22)),
            ("ex:s ex:p 'x' .", (UNSUPPORTED, "single-quoted literal", 3, 11)),
            ("_:b ex:p ex:o .", (UNSUPPORTED, "blank node label", 3, 1)),
            ("ex:s ex:p @ .", (SYNTAX, "expected a name after '@'", 3, 11)),
            ('ex:s ex:p "x"^ex:t .', (SYNTAX, "expected '^^'", 3, 14)),
            ("ex:s ex:p ex:o%4 .", (SYNTAX, "bad percent escape in local name", 3, 15)),
            ("ex:s ex:p $ .", (SYNTAX, "unexpected character '$'", 3, 11)),
            ("@foo ex:s .", (SYNTAX, "unexpected @foo", 3, 1)),
            ("BASE <http://e/> .", (UNSUPPORTED, "BASE directive", 3, 1)),
            ("@prefix x <http://e/> .", (SYNTAX, "expected a prefix name ending in ':'", 3, 9)),
            ("@prefix x: y .", (SYNTAX, "expected an IRI", 3, 12)),
            ("@prefix x: <http://e/>", (SYNTAX, "expected '.'", 3, 23)),
            ("ex:s ex:p ; .", (SYNTAX, "expected an IRI or literal object", 3, 11)),
            ("ex:s ex:p ex:o ; .", [Triple(Iri("http://e/s"), Iri("http://e/p"), Iri("http://e/o"))]),
            # numbers are ASCII digits, as in the Turtle INTEGER/DECIMAL/DOUBLE productions
            ("ex:s ex:p ² .", (SYNTAX, "unexpected character '²'", 3, 11)),
            ("ex:s ex:p ٣ .", (SYNTAX, "unexpected character '٣'", 3, 11)),
        ],
    )
    def test_branch_outcome(self, body, expected):
        assert outcome(GENERAL + "@prefix ex: <http://e/> .\n" + body) == expected

    def test_long_run_of_blanks_is_skipped_in_bounded_memory(self):
        doc = GENERAL + " " * 2_000_000 + "²"
        tracemalloc.start()
        try:
            result = outcome(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (SYNTAX, "unexpected character '²'", 2, 2_000_001)
        assert peak < 1_000_000  # one repeat per blank held about 150 bytes each
