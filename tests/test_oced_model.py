import random
import tracemalloc
from datetime import datetime, timezone

import pytest

from oced_forge import (
    GraphIntegrityError,
    OcedEvent,
    OcedGraph,
    OcedObject,
    escape_id,
    unescape_id,
)
from oced_forge.timeutil import format_offset_millis, to_utc_millis

T0 = datetime(2012, 1, 1, 9, 0, tzinfo=timezone.utc)


def make_event(event_id, event_type="Accepted", when=T0):
    return OcedEvent(id=event_id, event_type=event_type, observed_at=when)


class TestEscaping:
    def test_known_values(self):
        assert escape_id("V3_2") == "V3_2"
        assert escape_id("V3 2/a+b") == "V3%202%2Fa%2Bb"
        assert escape_id("org:group") == "org%3Agroup"

    def test_round_trip(self):
        for raw in ["plain", "with space", "tab\there", "新值", "a+b:c", "%", "1-364285768"]:
            assert unescape_id(escape_id(raw)) == raw

    def test_round_trip_random_unicode(self):
        rng = random.Random(7)
        alphabet = "abz019_-:/ +%\"'\\\n\täöü中"
        for _ in range(200):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            assert unescape_id(escape_id(raw)) == raw

    def test_lone_surrogate_cannot_be_escaped(self):
        with pytest.raises(UnicodeEncodeError):
            escape_id("a\udc80")

    @pytest.mark.parametrize("escaped", ["q%4", "%", "a%G0", "%%41", "%FF", "%C3", "%C3x"])
    def test_malformed_escape_raises_value_error(self, escaped):
        with pytest.raises(ValueError):
            unescape_id(escaped)

    @pytest.mark.parametrize(
        "code, text",
        [(escape_id, " " * 200_000), (escape_id, "a" * 2_000_000), (escape_id, "é" * 200_000),
         (escape_id, "".join(map(chr, range(0x4E00, 0x9FA6)))),
         (unescape_id, "%20" * 700_000), (unescape_id, "%C3%A9" * 350_000)],
        ids=["escape-spaces", "escape-letters", "escape-non-ascii", "escape-distinct-non-ascii",
             "unescape-spaces", "unescape-non-ascii"],
    )
    def test_peak_is_a_small_multiple_of_the_longer_text(self, code, text):
        """No list entry per character, no table entry kept per non-ASCII
        character, no regex engine state per escape."""
        tracemalloc.start()
        try:
            out = code(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        inverse = unescape_id if code is escape_id else escape_id
        assert inverse(out) == text
        assert peak < 2 * max(len(text), len(out.encode("utf-8")))


class TestEntities:
    def test_invalid_id_rejected(self):
        with pytest.raises(ValueError, match="escape_id"):
            make_event("has space")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            make_event("")

    def test_empty_event_type_rejected(self):
        with pytest.raises(ValueError, match="event type"):
            OcedEvent(id="e1", event_type="", observed_at=T0)

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError, match="observed_at"):
            OcedEvent(id="e1", event_type="t", observed_at=datetime(2012, 1, 1))

    @pytest.mark.parametrize("convert", [to_utc_millis, format_offset_millis])
    def test_timeutil_rejects_a_naive_datetime(self, convert):
        with pytest.raises(ValueError, match="naive datetime"):
            convert(datetime(2012, 1, 1))

    def test_observed_at_normalized_to_utc_millis(self):
        event = OcedEvent(
            id="e1",
            event_type="t",
            observed_at=datetime(2012, 1, 1, 10, 0, 0, 123999, tzinfo=timezone.utc),
        )
        assert event.observed_at.microsecond == 123000

    def test_empty_object_type_rejected(self):
        with pytest.raises(ValueError, match="object type"):
            OcedObject(id="o1", object_type="")


class TestAddEvent:
    def test_add_to_empty_graph(self):
        graph = OcedGraph()
        graph.add_event(make_event("e1"))
        assert len(graph.events) == 1

    def test_duplicate_id_rejected(self):
        graph = OcedGraph()
        graph.add_event(make_event("e1"))
        with pytest.raises(GraphIntegrityError, match="e1"):
            graph.add_event(make_event("e1"))

    def test_three_events_counted(self):
        graph = OcedGraph()
        for i in range(3):
            graph.add_event(make_event(f"e{i}"))
        assert len(graph.events) == 3


class TestAddObject:
    def test_add_case_object(self):
        graph = OcedGraph()
        graph.add_object(OcedObject(id="c1", object_type="case"))
        assert len(graph.objects) == 1

    def test_duplicate_rejected(self):
        graph = OcedGraph()
        graph.add_object(OcedObject(id="c1", object_type="case"))
        with pytest.raises(GraphIntegrityError, match="c1"):
            graph.add_object(OcedObject(id="c1", object_type="case"))

    def test_event_and_object_namespaces_are_distinct(self):
        graph = OcedGraph()
        graph.add_event(make_event("x1"))
        graph.add_object(OcedObject(id="x1", object_type="case"))
        assert (len(graph.events), len(graph.objects)) == (1, 1)


class TestRelateEventObject:
    def _graph(self):
        graph = OcedGraph()
        graph.add_event(make_event("e1"))
        graph.add_object(OcedObject(id="o1", object_type="case"))
        return graph

    def test_relate_with_qualifier(self):
        graph = self._graph()
        relation = graph.relate_event_object("e1", "o1", "event_case")
        assert relation.id == "eo_1"
        assert len(graph.event_object_relations) == 1

    def test_dangling_object_rejected(self):
        graph = self._graph()
        with pytest.raises(GraphIntegrityError, match="missing"):
            graph.relate_event_object("e1", "missing")

    def test_dangling_event_rejected(self):
        graph = self._graph()
        with pytest.raises(GraphIntegrityError, match="ghost"):
            graph.relate_event_object("ghost", "o1")

    def test_duplicate_relation_rejected(self):
        graph = self._graph()
        graph.relate_event_object("e1", "o1", "event_case")
        with pytest.raises(GraphIntegrityError, match="duplicate"):
            graph.relate_event_object("e1", "o1", "event_case")

    def test_empty_qualifier_rejected(self):
        graph = self._graph()
        with pytest.raises(GraphIntegrityError, match="None or non-empty"):
            graph.relate_event_object("e1", "o1", "")

    def test_same_pair_different_qualifier_allowed(self):
        graph = self._graph()
        graph.relate_event_object("e1", "o1", "event_case")
        graph.relate_event_object("e1", "o1", "touched")
        assert len(graph.event_object_relations) == 2


class TestRelateObjects:
    def _graph(self):
        graph = OcedGraph()
        graph.add_object(OcedObject(id="c1", object_type="case"))
        graph.add_object(OcedObject(id="t1", object_type="support_team"))
        return graph

    def test_case_involves_team(self):
        graph = self._graph()
        relation = graph.relate_objects("c1", "t1", "involves_team")
        assert relation.id == "oo_1"
        assert len(graph.object_object_relations) == 1

    def test_self_relation_rejected_by_default(self):
        graph = self._graph()
        with pytest.raises(GraphIntegrityError, match="self-relation"):
            graph.relate_objects("c1", "c1", "loop")

    def test_dangling_source_rejected(self):
        graph = self._graph()
        with pytest.raises(GraphIntegrityError, match="'nowhere' is not a known object"):
            graph.relate_objects("nowhere", "t1", "involves_team")

    def test_dangling_target_rejected(self):
        graph = self._graph()
        with pytest.raises(GraphIntegrityError, match="nowhere"):
            graph.relate_objects("c1", "nowhere", "involves_team")

    def test_qualifier_mandatory(self):
        graph = self._graph()
        with pytest.raises(GraphIntegrityError, match="qualifier"):
            graph.relate_objects("c1", "t1", "")


class TestStats:
    def test_counts_equal_exhaustive_recount_after_random_mutations(self):
        rng = random.Random(13)
        graph = OcedGraph()
        for step in range(300):
            action = rng.random()
            try:
                if action < 0.3:
                    graph.add_event(make_event(f"e{rng.randint(0, 60)}", rng.choice("ABC")))
                elif action < 0.6:
                    graph.add_object(
                        OcedObject(id=f"o{rng.randint(0, 60)}", object_type=rng.choice("XY"))
                    )
                elif action < 0.85 and graph.events and graph.objects:
                    graph.relate_event_object(
                        rng.choice(list(graph.events)),
                        rng.choice(list(graph.objects)),
                        rng.choice(["q1", "q2", None]),
                    )
                elif len(graph.objects) >= 2:
                    source, target = rng.sample(list(graph.objects), 2)
                    graph.relate_objects(source, target, "rel")
            except GraphIntegrityError:
                pass  # rejected mutations must leave the graph intact
            # referential integrity after every step
            for relation in graph.event_object_relations:
                assert relation.event in graph.events
                assert relation.object in graph.objects
            for relation in graph.object_object_relations:
                assert relation.source in graph.objects
                assert relation.target in graph.objects
        # accepted relations are distinct and numbered in insertion order
        eo = graph.event_object_relations
        assert len({(r.event, r.object, r.qualifier) for r in eo}) == len(eo)
        assert [r.id for r in eo] == [f"eo_{i}" for i in range(1, len(eo) + 1)]
        oo = graph.object_object_relations
        assert [r.id for r in oo] == [f"oo_{i}" for i in range(1, len(oo) + 1)]
