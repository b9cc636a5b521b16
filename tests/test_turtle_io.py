import random
import re
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
    XesStructureError,
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
from oced_forge.terms import EX, EXT, OCEDO, PREFIXES, RDF, XSD
from oced_forge.triple_query import TripleStore
from oced_forge.turtle_io import _TurtleParser
from oced_forge.xes_parser import MAX_OPEN_ELEMENTS

from conftest import BPIC_STYLE_XES, turtle_text
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
                    "high": TypedValue("float", float("inf")),
                    "low": TypedValue("float", float("-inf")),
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
        assert Triple(subject, Iri(EXT + "high"), TypedLiteral("INF", Iri(XSD + "double"))) in store
        assert Triple(subject, Iri(EXT + "low"), TypedLiteral("-INF", Iri(XSD + "double"))) in store
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
        for render in (graph_to_triples, turtle_text):
            with pytest.raises(SerializationError) as raised:
                render(graph)
            assert str(raised.value) == message

    def test_an_earlier_serialization_error_wins_over_an_id_collision(self):
        graph = OcedGraph()
        graph.add_event(
            OcedEvent(id="shared", event_type="t", observed_at=T0, attributes={"": TypedValue("string", "x")})
        )
        graph.add_object(OcedObject(id="shared", object_type="case"))
        for render in (graph_to_triples, turtle_text):
            with pytest.raises(SerializationError, match="cannot mint an IRI from an empty name"):
                render(graph)


class TestGraphToTurtle:
    """graph_to_turtle renders a graph without a store; write_turtle over
    graph_to_triples is its reference, text and triple count."""

    @staticmethod
    def assert_same_as_store_path(graph):
        store = graph_to_triples(graph)
        assert turtle_text(graph) == (write_turtle(store), len(store))

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
        text, count = turtle_text(graph)
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
        text, _ = turtle_text(graph)
        assert '"q\\"b\\\\n\\nt\\tr\\r é 日本 😀"' in text
        self.assert_same_as_store_path(graph)

    def test_trace_named_like_an_event_id_raises_the_same_error(self, tmp_path, capsys):
        data = BPIC_STYLE_XES.replace('value="1-364285768"', 'value="e1"').encode()
        graph, _ = transform_log(parse_xes(data))
        message = "id 'e1' is used as both event and object; ids share one IRI namespace in Turtle output"
        for render in (graph_to_triples, turtle_text):
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

    def test_iri_holding_a_space_is_a_serialization_error(self):
        store = TripleStore([Triple(Iri("http://other.example/a b"), Iri(EXT + "p"), PlainLiteral("v"))])
        with pytest.raises(SerializationError, match="illegal in Turtle"):
            write_turtle(store)

    @pytest.mark.parametrize("lang", ["en us", "en\n", "1en", "-en", "en_US", "é"])
    def test_language_tag_the_readers_reject_is_a_serialization_error(self, lang):
        store = TripleStore([Triple(Iri(EX + "s"), Iri(EXT + "p"), PlainLiteral("x", lang))])
        with pytest.raises(SerializationError, match="language tag"):
            write_turtle(store)

    @pytest.mark.parametrize("lang", ["en", "en-US", "x-1-a", "Z"])
    def test_valid_language_tag_round_trips(self, lang):
        triple = Triple(Iri(EX + "s"), Iri(EXT + "p"), PlainLiteral("x", lang))
        text = write_turtle(TripleStore([triple]))
        assert f'"x"@{lang} .' in text
        assert list(parse_turtle(text)) == [triple]


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


# A SPARQL-style PREFIX line, which only the general reader reads.  The
# documents that general_outcome reads start with one, so that their lines
# and columns are those of the documents the fast path reads, plus one line.
GENERAL = "PREFIX g: <http://g.example/>\n"

SYNTAX, UNSUPPORTED = TurtleSyntaxError, UnsupportedConstructError


def outcome(doc: str, keep=None):
    """Triples in insertion order, or the error's class, message, line and column."""
    try:
        return list(parse_turtle(doc, keep))
    except TurtleSyntaxError as exc:
        return type(exc), str(exc).rsplit(" (line ", 1)[0], exc.line, exc.column


def general_outcome(doc: str, keep=None):
    """outcome(doc) with the fast path declining every statement, so that the
    general reader reads them all."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_TurtleParser, "_fast_statements", lambda self, pos: pos)
        return outcome(doc, keep)


def declined(doc: str) -> list[str]:
    """The statements of doc that the fast path declines, so that the general
    reader reads them, without the blanks around them."""
    spans, fast = [], _TurtleParser._fast_statements

    def recording(self, pos):
        spans.append((pos, fast(self, pos)))
        return spans[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_TurtleParser, "_fast_statements", recording)
        outcome(doc)
    return [doc[stop:resume].strip() for (_, stop), (resume, _) in zip(spans, spans[1:])]


@pytest.fixture
def group_turtle(monkeypatch):
    """bench/grouped.py's canonical-to-subject-grouped rewriter, read-only."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from grouped import group_turtle

    return group_turtle


CANONICAL_TAILS = [
    ('ex:s ex:p "unterminated .', 11),
    ("ex:s nope:p ex:o .", 6),
    ("ex:s ex:p <rel> .", 11),
    ('ex:s ex:p "bad\\q" .', 15),
    ("ex:s ex:p [ ] .", 11),
    ("ex:s ex:p ex:o", 15),
    ("ex:s ex:p ex:o .5", 16),
]
GROUPED_TAILS = [
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
]
GROUPED_TAIL_IDS = [
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
]


def canonical_doc(tail: str) -> str:
    good = "".join(f"ex:s{i} ext:p ex:o{i} .\n" for i in range(1000))
    return write_turtle(TripleStore()) + "\n" + good + tail


def grouped_doc(tail: str) -> str:
    good = "".join(f'ex:s{i} a ext:T ;\n    ext:p ex:o{i} ,\n        "v{i}" .\n' for i in range(1000))
    return write_turtle(TripleStore()) + "\n# grouped\n" + good + tail


class TestFastPath:
    def test_same_triples_in_same_order_as_general_path_200_graphs(self):
        rng = random.Random(4040)
        for _ in range(200):
            text = write_turtle(graph_to_triples(random_oced_graph(rng)))
            assert list(parse_turtle(text)) == general_outcome(GENERAL + text)

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
        assert declined(doc) == ['ex:s ex:p "q\\"uote \\\\ back\\nline\\ttab \\u00e9" .']
        triples = list(parse_turtle(doc))
        assert triples == general_outcome(GENERAL + doc)
        assert Triple(Iri(EX + "s"), Iri(EX + "p"), PlainLiteral('q"uote \\ back\nline\ttab \u00e9')) in triples
        assert Triple(Iri(EX + "s"), Iri(EX + "p"), PlainLiteral("hallo", lang="de-AT")) in triples
        p, o = Iri("http://redefined.example/p"), Iri("http://redefined.example/o")
        assert triples[-2:] == [
            Triple(Iri("http://redefined.example/s"), p, o),
            Triple(Iri("http://empty.example/s"), p, o),
        ]

    @pytest.mark.parametrize(
        "line",
        [
            "ex:s ex:p ex:o.x .",
            "ex:s ex:p ex:a , ex:b.c .",
            'ex:s ex:p "1"^^ex:d.v .',
            "ex:s ex:p ex:a ; ex:q ex:b.c .",
        ],
    )
    def test_local_name_with_an_inner_dot_is_one_term(self, line):
        doc = "@prefix ex: <http://e/> .\n" + line + "\n"
        triples = outcome(doc)
        assert triples == general_outcome(GENERAL + doc)
        assert len(triples) == 1 + line.count(",") + line.count(";")

    @pytest.mark.parametrize("line, column", CANONICAL_TAILS)
    def test_error_after_1000_canonical_lines_keeps_class_line_and_column(self, line, column):
        doc = canonical_doc(line)
        fast, general = outcome(doc), general_outcome(GENERAL + doc)
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
        assert triples == general_outcome(GENERAL + doc)
        assert len(triples) == 4

    @pytest.mark.parametrize(
        "escape", ["\\U00110000", "\\UFFFFFFFF", "\\uD800", "\\uDFFF", "\\U0000DBFF"]
    )
    def test_escape_outside_unicode_scalar_values_is_a_syntax_error(self, escape):
        doc = '@prefix ex: <http://e/> .\nex:s ex:p ex:o .\nex:s ex:p "ab' + escape + '" .\n'
        fast, general = outcome(doc), general_outcome(GENERAL + doc)
        assert fast == (TurtleSyntaxError, f"{escape} is not a Unicode scalar value", 3, 14)
        assert fast == (general[0], general[1], general[2] - 1, general[3])

    @pytest.mark.parametrize(
        "escape, char", [("\\uD7FF", "\ud7ff"), ("\\uE000", "\ue000"), ("\\U0010FFFF", "\U0010ffff")]
    )
    def test_escapes_next_to_the_excluded_ranges_are_read(self, escape, char):
        doc = '@prefix ex: <http://e/> .\nex:s ex:p "' + escape + '" .\n'
        assert outcome(doc) == general_outcome(GENERAL + doc) == [
            Triple(Iri("http://e/s"), Iri("http://e/p"), PlainLiteral(char))
        ]

    @pytest.mark.parametrize(
        "line", ['zz:s ex:p "\\uD800" .', 'ex:s zz:p "\\uD800" .', 'ex:s ex:p "\\uD800"^^zz:t .']
    )
    def test_unknown_prefix_and_bad_escape_on_one_line_fail_as_on_general_path(self, line):
        doc = "@prefix ex: <http://e/> .\nex:s ex:p ex:o .\n" + line + "\n"
        fast, general = outcome(doc), general_outcome(GENERAL + doc)
        assert fast[2] == 3
        assert fast == (general[0], general[1], general[2] - 1, general[3])

    def test_grouped_layout_same_triples_in_same_order_200_graphs(self, group_turtle):
        rng = random.Random(4141)
        for _ in range(200):
            canonical = write_turtle(graph_to_triples(random_oced_graph(rng)))
            doc = group_turtle(canonical)
            # the general reader reads only statements with an escaped string
            assert all("\\" in statement for statement in declined(doc))
            triples = list(parse_turtle(doc))
            assert triples == general_outcome(GENERAL + doc) == list(parse_turtle(canonical))

    @pytest.mark.parametrize("tail, expected", GROUPED_TAILS, ids=GROUPED_TAIL_IDS)
    def test_error_after_1000_grouped_statements_keeps_class_line_and_column(self, tail, expected):
        doc = grouped_doc(tail)
        # the fast path raises nothing: it declines the tail, which the general reader reads
        assert _TurtleParser(doc)._fast_statements(0) == len(doc) - len(tail)
        fast, general = outcome(doc), general_outcome(GENERAL + doc)
        if isinstance(expected, int):
            assert len(fast) == expected
            assert fast == general
        else:
            # 7 header lines and 3,000 statement lines come before the tail
            assert fast == (*expected[:2], 3007 + expected[2], expected[3])
            assert fast == (general[0], general[1], general[2] - 1, general[3])

    def test_declined_statements_read_one_at_a_time_200_graphs(self, group_turtle):
        rng = random.Random(4343)
        tails = [(tail, expected) for tail, expected in GROUPED_TAILS if not isinstance(expected, int)]
        declines = 0
        for _ in range(200):
            canonical = write_turtle(graph_to_triples(random_oced_graph(rng)))
            triples = list(parse_turtle(canonical))
            for doc in (_declined_forms(canonical, rng), _declined_forms(group_turtle(canonical), rng)):
                assert outcome(doc) == general_outcome(doc) == triples
                declines += len(declined(doc))
                tail, expected = rng.choice(tails)
                with_tail = doc + tail
                assert outcome(with_tail) == general_outcome(with_tail)
                assert outcome(with_tail) == (*expected[:2], doc.count("\n") + expected[2], expected[3])
        assert declines > 4000


_LITERAL = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def _declined_forms(text: str, rng: random.Random) -> str:
    """text, with some of its statements written in a form the fast path
    declines that means the same triples: a string's first character as a
    \\u escape, a comment inside the statement, a trailing ';', or a PREFIX
    line before it that binds a namespace to the IRI it has."""
    out, statement = [], ""
    for line in text.splitlines(keepends=True):
        if not statement and (line.startswith(("@prefix", "#")) or not line.strip()):
            out.append(line)
            continue
        statement += line
        if not line.endswith(" .\n"):
            continue
        literal = _LITERAL.search(statement)
        form = rng.choice(["escape", "comment", "semicolon", "prefix", "as-is", "as-is"])
        if form == "escape" and literal is not None and literal[1][:1] not in ("", "\\"):
            char = literal[1][0]
            escape = f"\\u{ord(char):04X}" if ord(char) <= 0xFFFF else f"\\U{ord(char):08X}"
            statement = statement[: literal.start(1)] + escape + statement[literal.start(1) + 1 :]
        elif form == "comment":
            statement = statement.replace(" ", " # inside\n    ", 1)
        elif form == "semicolon":
            statement = statement[:-3] + " ;\n    .\n"
        elif form == "prefix":
            statement = "PREFIX {}: <{}>\n".format(*rng.choice(PREFIXES)) + statement
        out.append(statement)
        statement = ""
    return "".join(out)


def _one(lexical, datatype):
    return [Triple(Iri("http://e/s"), Iri("http://e/p"), TypedLiteral(lexical, Iri(XSD + datatype)))]


class TestGeneralReader:
    """Each branch of the general reader, reading every statement."""

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
        assert general_outcome(GENERAL + "@prefix ex: <http://e/> .\n" + body) == expected

    @pytest.mark.parametrize(
        "header, body, expected",
        [
            ("@prefix ex: <http://e/> .\n", "ex:s ex:p ex:o .\n", [Triple(Iri("http://e/s"), Iri("http://e/p"), Iri("http://e/o"))]),
            (
                "@prefix ex: <http://e/> .\n  # a\n\n\t# b\r\n",
                "ex:s ex:p ex:o .\n# last line, no newline",
                [Triple(Iri("http://e/s"), Iri("http://e/p"), Iri("http://e/o"))],
            ),
            (GENERAL + "@prefix ex: <http://e/> .\n", "ex:s ex:p $ .\n", (SYNTAX, "unexpected character '$'", 50_003, 11)),
        ],
        ids=["fast-path", "fast-path-blanks-between", "general-reader"],
    )
    def test_run_of_comment_lines_is_skipped_in_bounded_memory(self, header, body, expected):
        doc = header + "#\n" * 50_000 + body
        read = general_outcome if doc.startswith(GENERAL) else outcome
        if read is outcome:
            assert _TurtleParser(doc)._fast_statements(0) == len(doc)
        tracemalloc.start()
        try:
            result = read(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak < len(doc)  # one regex repeat per comment line held about 200 bytes each


_MB2 = 2_000_000
_EX = "@prefix ex: <http://e/> .\n"


def _s_p(obj) -> list[Triple]:
    return [Triple(Iri("http://e/s"), Iri("http://e/p"), obj)]


def _nested_xes(open_tag: str, close_tag: str) -> bytes:
    depth = _MB2 // (len(open_tag) + len(close_tag))
    return f'<log xes.version="1.0"><trace><event>{open_tag * depth}{close_tag * depth}</event></trace></log>'.encode()


class _ShortRuns:
    """A text stream that keeps what is written with each run of Q, J or %20
    shortened to its first one and an ellipsis."""

    def __init__(self):
        self.parts = []

    def write(self, text: str):
        self.parts.append(re.sub("(Q)Q*|(J)J*|(%20)[%20]*", lambda run: run[run.lastindex] + "…", text))


def _convert_outcome(data: bytes):
    """What convert writes for XES data (triple count, and text as _ShortRuns
    keeps it), or the XES structure error's class and message."""
    try:
        graph, _ = transform_log(parse_xes(data))
    except XesStructureError as exc:
        return type(exc), str(exc)
    out = _ShortRuns()
    return graph_to_turtle(graph, out), "".join(out.parts)


def _shape(name, document, expected, bound=5):
    """bound: the peak allowed, in multiples of the input's size"""
    return pytest.param(document, expected, bound, id=name)


_DEPTH_ERROR = (XesStructureError, f"more than {MAX_OPEN_ELEMENTS} elements open at once")


def _big_ids_xes(case_id: str = "Q" * _MB2, group: str = "J" * _MB2) -> bytes:
    """A trace id and an org:group value, by default of Qs and of Js, 2 MB each."""
    return (
        f'<log xes.version="1.0"><trace><string key="concept:name" value="{case_id}"/><event>'
        '<string key="concept:name" value="A"/><date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/>'
        f'<string key="org:group" value="{group}"/></event></trace></log>'
    ).encode()


_BIG_IDS_TURTLE = "".join(f"@prefix {prefix}: <{namespace}> .\n" for prefix, namespace in PREFIXES) + """
ex:Q… ext:involves_team ex:support_team_J… .
ex:Q… ext:object_type "case" .
ex:Q… rdf:type ext:case .
ex:e1 ext:event_case ex:Q… .
ex:e1 ext:event_type "A" .
ex:e1 ext:handled_by_support_team ex:support_team_J… .
ex:e1 ocedo:observed_at "2012-01-01T00:00:00.000Z"^^xsd:dateTime .
ex:e1 rdf:type ext:A .
ex:eo_1 ext:classifier "event_case" .
ex:eo_1 ext:event ex:e1 .
ex:eo_1 ext:object ex:Q… .
ex:eo_1 rdf:type ext:EventObject .
ex:eo_2 ext:classifier "handled_by_support_team" .
ex:eo_2 ext:event ex:e1 .
ex:eo_2 ext:object ex:support_team_J… .
ex:eo_2 rdf:type ext:EventObject .
ex:support_team_J… ext:object_type "support_team" .
ex:support_team_J… rdf:type ext:support_team .
"""

_ESCAPES = f'ex:s ex:p "{chr(92) * 2 * (_MB2 // 20)}" .\n'
_PERCENT_NAME = f"ex:s ex:p ex:{'%41' * (_MB2 // 3)} .\n"

# each builds a document of about 2 MB, except that an escape run is 0.2 MB
# (each escape is one match of its own), and gives the expected outcome; a
# shape whose outcome holds no copy of its text may peak at half its size.
# A shape whose document starts with GENERAL is read by the general reader.
HOSTILE_SHAPES = [
    _shape("blanks", lambda: GENERAL + " " * _MB2 + "²", (SYNTAX, "unexpected character '²'", 2, _MB2 + 1), 0.5),
    _shape(
        "item-list", lambda: _EX + "ex:s ex:p ex:o" + " , ex:o" * (_MB2 // 7) + " .\n", _s_p(Iri("http://e/o")), 0.5
    ),
    _shape("literal-fast-path", lambda: _EX + f'ex:s ex:p "{"x" * _MB2}" .\n', _s_p(PlainLiteral("x" * _MB2))),
    _shape(
        "literal-general-reader",
        lambda: GENERAL + _EX + f'ex:s ex:p "{"x" * _MB2}" .\n',
        _s_p(PlainLiteral("x" * _MB2)),
    ),
    _shape(
        "unterminated-literal",
        lambda: _EX + f'ex:s ex:p "{"x" * _MB2} .\n',
        (SYNTAX, "unterminated string literal", 2, 11),
        0.5,
    ),
    _shape("iri", lambda: _EX + f"ex:s ex:p <http://e/{'i' * _MB2}> .\n", _s_p(Iri("http://e/" + "i" * _MB2))),
    _shape("prefixed-name", lambda: _EX + f"ex:s ex:p ex:{'n' * _MB2} .\n", _s_p(Iri("http://e/" + "n" * _MB2))),
    _shape(
        "prefixed-name-general-reader",
        lambda: GENERAL + _EX + f"ex:s ex:p ex:{'n' * _MB2} .\n",
        _s_p(Iri("http://e/" + "n" * _MB2)),
    ),
    _shape("percent-name-fast-path", lambda: _EX + _PERCENT_NAME, _s_p(Iri("http://e/" + "%41" * (_MB2 // 3)))),
    _shape(
        "percent-name-general-reader",
        lambda: GENERAL + _EX + _PERCENT_NAME,
        _s_p(Iri("http://e/" + "%41" * (_MB2 // 3))),
    ),
    _shape(
        "prefix-redefinitions", lambda: _EX * (_MB2 // len(_EX)) + "ex:s ex:p ex:o .\n", _s_p(Iri("http://e/o")), 0.5
    ),
    _shape("xes-nested-attributes", lambda: _nested_xes('<string key="k" value="v">', "</string>"), _DEPTH_ERROR),
    _shape("escapes-fast-path", lambda: _EX + _ESCAPES, _s_p(PlainLiteral(chr(92) * (_MB2 // 20)))),
    _shape("escapes-general-reader", lambda: GENERAL + _EX + _ESCAPES, _s_p(PlainLiteral(chr(92) * (_MB2 // 20)))),
    _shape("xes-nested-unknown-elements", lambda: _nested_xes("<a>", "</a>"), _DEPTH_ERROR),
    # each id is in five rows, each row one string, and the write joins them
    # once more: 2 MB ids cost a dozen copies, not one state per character
    _shape("xes-big-ids-converted", _big_ids_xes, (18, _BIG_IDS_TURTLE), 20),
    # a trace id of 2 MB of spaces: escape_id makes a 6 MB id, whose rows
    # and their join cost a dozen copies of it
    _shape(
        "xes-big-unsafe-ids-converted",
        lambda: _big_ids_xes(" " * _MB2, "J"),
        (18, _BIG_IDS_TURTLE.replace("ex:Q…", "ex:%20…")),
        45,
    ),
]


@pytest.mark.parametrize("document, expected, bound", HOSTILE_SHAPES)
def test_hostile_shape_is_read_in_bounded_memory(document, expected, bound):
    """Each shape's outcome, at a tracemalloc peak under a small multiple of
    its size: no regex repeat keeps engine state per blank, item or character."""
    doc = document()
    if isinstance(doc, bytes):
        read = _convert_outcome
    else:
        read = general_outcome if doc.startswith(GENERAL) else outcome
    tracemalloc.start()
    try:
        result = read(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak < bound * len(doc), f"{peak / len(doc):.1f} times the input"


# keep rules: none kept, the ext:p triples kept, all kept
KEEPS = {"none": lambda p: False, "ext-p": lambda p: p.value == EXT + "p", "all": lambda p: True}


class TestKeepRule:
    @pytest.mark.parametrize("keep", KEEPS.values(), ids=KEEPS.keys())
    def test_kept_triples_are_the_full_parse_filtered_200_graphs(self, keep, group_turtle):
        rng = random.Random(4242)
        for _ in range(200):
            canonical = write_turtle(graph_to_triples(random_oced_graph(rng)))
            for doc in (canonical, group_turtle(canonical), GENERAL + canonical):
                assert outcome(doc, keep) == [t for t in parse_turtle(doc) if keep(t.predicate)]
            full = general_outcome(GENERAL + canonical)
            assert general_outcome(GENERAL + canonical, keep) == [t for t in full if keep(t.predicate)]

    @pytest.mark.parametrize("keep", KEEPS.values(), ids=KEEPS.keys())
    @pytest.mark.parametrize(
        "doc_of, tails", [(canonical_doc, CANONICAL_TAILS), (grouped_doc, GROUPED_TAILS)], ids=["canonical", "grouped"]
    )
    def test_error_tails_do_not_depend_on_the_keep_rule(self, doc_of, tails, keep):
        for tail, _ in tails:
            for read, doc in ((outcome, doc_of(tail)), (general_outcome, GENERAL + doc_of(tail))):
                full = read(doc)
                if isinstance(full, list):
                    assert read(doc, keep) == [t for t in full if keep(t.predicate)]
                else:
                    assert read(doc, keep) == full
