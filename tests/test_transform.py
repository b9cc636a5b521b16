import json
import random

import pytest

from oced_forge import (
    ConfigError,
    MappingConfig,
    ObjectRule,
    default_bpic2013_config,
    derive_event_type,
    graph_to_triples,
    load_mapping_config,
    parse_xes,
    transform_log,
    write_turtle,
)
from oced_forge.oced_model import TypedValue
from oced_forge.terms import XSD_DATETIME, TypedLiteral
from oced_forge.analyses import _time_key
from oced_forge.timeutil import format_utc_millis, has_utc_instant, parse_instant

from oracles import random_xes

THREE_EVENTS_ONE_TEAM = b"""<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="case_1"/>
    <event>
      <string key="concept:name" value="Accepted"/>
      <date key="time:timestamp" value="2012-01-01T09:00:00.000Z"/>
      <string key="org:group" value="V3_2"/>
    </event>
    <event>
      <string key="concept:name" value="Queued"/>
      <date key="time:timestamp" value="2012-01-01T10:00:00.000Z"/>
      <string key="org:group" value="V3_2"/>
    </event>
    <event>
      <string key="concept:name" value="Completed"/>
      <date key="time:timestamp" value="2012-01-01T11:00:00.000Z"/>
      <string key="org:group" value="V3_2"/>
    </event>
  </trace>
</log>"""


def string_event(**attrs) -> dict[str, TypedValue]:
    return {k: TypedValue("string", v) for k, v in attrs.items()}


class TestDefaultConfig:
    def test_case_qualifier_matches_query_predicate(self):
        assert default_bpic2013_config().case_eo_qualifier == "event_case"

    def test_team_rule_matches_query_predicate(self):
        (rule,) = default_bpic2013_config().object_rules
        assert rule.xes_key == "org:group"
        assert rule.object_type == "support_team"
        assert rule.eo_qualifier == "handled_by_support_team"
        assert rule.oo_qualifier == "involves_team"

    def test_timestamp_key(self):
        assert default_bpic2013_config().timestamp_key == "time:timestamp"

    def test_event_type_keys(self):
        assert default_bpic2013_config().event_type_keys == [
            "concept:name",
            "lifecycle:transition",
        ]


class TestDeriveEventType:
    def test_both_keys_present(self):
        event = string_event(**{"concept:name": "Accepted", "lifecycle:transition": "In Progress"})
        assert derive_event_type(event, default_bpic2013_config()) == "Accepted+In Progress"

    def test_all_keys_absent(self):
        assert derive_event_type(string_event(), default_bpic2013_config()) == "unknown"

    def test_single_key_present(self):
        event = string_event(**{"concept:name": "Queued"})
        assert derive_event_type(event, default_bpic2013_config()) == "Queued"

    def test_boolean_and_float_values_as_xes_text(self):
        event = {"concept:name": TypedValue("boolean", False), "lifecycle:transition": TypedValue("float", 0.1)}
        assert derive_event_type(event, default_bpic2013_config()) == "false+0.1"


class TestTransform:
    def test_hand_enumerated_example(self):
        graph, report = transform_log(parse_xes(THREE_EVENTS_ONE_TEAM))
        assert len(graph.events) == 3
        assert len(graph.objects) == 2
        assert set(graph.objects) == {"case_1", "support_team_V3_2"}
        case_rels = [r for r in graph.event_object_relations if r.qualifier == "event_case"]
        team_rels = [
            r for r in graph.event_object_relations if r.qualifier == "handled_by_support_team"
        ]
        assert len(case_rels) == 3
        assert len(team_rels) == 3
        assert len(graph.object_object_relations) == 1
        oo = graph.object_object_relations[0]
        assert (oo.source, oo.target, oo.qualifier) == ("case_1", "support_team_V3_2", "involves_team")
        assert report.events_emitted == 3
        assert report.objects_emitted == 2
        assert report.events_skipped == []

    def test_empty_log(self):
        graph, report = transform_log(parse_xes(b'<log xes.version="1.0"/>'))
        assert len(graph.events) == 0
        assert len(graph.objects) == 0
        assert report.events_emitted == 0
        assert report.objects_emitted == 0

    def test_missing_timestamp_skipped_with_reason(self):
        doc = b"""<log xes.version="1.0"><trace>
          <string key="concept:name" value="c"/>
          <event><string key="concept:name" value="NoStamp"/></event>
        </trace></log>"""
        graph, report = transform_log(parse_xes(doc))
        assert report.events_emitted == 0
        assert len(report.events_skipped) == 1
        skipped = report.events_skipped[0]
        assert (skipped.trace_index, skipped.event_index, skipped.reason) == (0, 0, "missing timestamp")

    def test_non_date_timestamp_skipped(self):
        doc = b"""<log xes.version="1.0"><trace>
          <event><string key="time:timestamp" value="2012-01-01"/></event>
        </trace></log>"""
        _, report = transform_log(parse_xes(doc))
        assert report.events_skipped[0].reason == "timestamp not a date"

    def test_timestamp_out_of_range_skipped_keeps_numbering(self):
        doc = b"""<log xes.version="1.0"><trace>
          <event><date key="time:timestamp" value="9999-12-31T23:59:59.000-05:00"/></event>
          <event><date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event>
        </trace></log>"""
        graph, report = transform_log(parse_xes(doc))
        assert [(s.trace_index, s.event_index, s.reason) for s in report.events_skipped] == [
            (0, 0, "timestamp out of range")
        ]
        assert list(graph.events) == ["e2"]
        assert report.events_emitted == 1

    @pytest.mark.parametrize(
        "text, in_range",
        [
            ("0001-01-01T00:30:00+01:00", False),
            ("0001-01-01T01:00:00+01:00", True),
            ("9999-12-31T23:30:00-01:00", False),
            ("9999-12-31T22:59:59-01:00", True),
            ("0001-01-01T13:59:59+14:00", False),
            ("0001-01-01T14:00:00+14:00", True),
            ("9999-12-31T10:00:00-14:00", False),
            ("9999-12-31T09:59:59-14:00", True),
        ],
    )
    def test_utc_range_edge_decided_alike_by_transform_and_analyses(self, text, in_range):
        """One rule, has_utc_instant, decides whether an instant has a UTC time
        in years 1..9999: the transform skips its event, the analyses drop its
        literal."""
        assert has_utc_instant(parse_instant(text)) is in_range
        doc = f'<log><trace><event><date key="time:timestamp" value="{text}"/></event></trace></log>'
        _, report = transform_log(parse_xes(doc.encode()))
        assert report.events_emitted == in_range
        assert [s.reason for s in report.events_skipped] == ([] if in_range else ["timestamp out of range"])
        key = _time_key(TypedLiteral(text, XSD_DATETIME))
        assert (key is not None) is in_range
        assert key is None or key[:23] + "Z" == format_utc_millis(parse_instant(text))

    def test_passthrough_date_out_of_range_left_out_with_warning(self):
        doc = b"""<log xes.version="1.0"><trace>
          <event>
            <date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/>
            <date key="seen" value="9999-12-31T23:59:59.000-05:00"/>
          </event>
          <event>
            <date key="time:timestamp" value="2012-01-02T00:00:00.000Z"/>
            <date key="seen" value="2012-01-01T00:00:00.000-05:00"/>
          </event>
        </trace></log>"""
        graph, report = transform_log(parse_xes(doc), MappingConfig(attribute_passthrough=["seen"]))
        assert list(graph.events) == ["e1", "e2"]
        assert graph.events["e1"].attributes == {}
        assert "seen" in graph.events["e2"].attributes
        assert report.events_skipped == []
        assert report.warnings == [
            "trace 0 event 0: date attribute 'seen' has no UTC instant in years 1..9999; "
            "attribute left out"
        ]
        assert "ext:seen" in write_turtle(graph_to_triples(graph))

    def test_case_id_fallback_is_trace_index(self):
        doc = b"""<log xes.version="1.0">
          <trace><event><date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace>
        </log>"""
        graph, _ = transform_log(parse_xes(doc))
        assert "trace_0" in graph.objects

    def test_every_event_has_exactly_one_case_relation(self, bpic_xes_bytes):
        graph, _ = transform_log(parse_xes(bpic_xes_bytes))
        per_event = {event_id: 0 for event_id in graph.events}
        for relation in graph.event_object_relations:
            if relation.qualifier == "event_case":
                per_event[relation.event] += 1
        assert all(count == 1 for count in per_event.values())

    def test_bpic_fixture_counts(self, bpic_xes_bytes):
        graph, report = transform_log(parse_xes(bpic_xes_bytes))
        # 7 events in the source, one lacks a timestamp
        assert report.events_emitted == 6
        assert len(report.events_skipped) == 1
        # 3 cases + teams {V3_2, V5_3, V2}
        assert len(graph.objects) == 6
        assert len(graph.object_object_relations) == 4

    def test_passthrough_attributes_copied(self, bpic_xes_bytes):
        config = MappingConfig(attribute_passthrough=["org:resource", "impact"])
        graph, _ = transform_log(parse_xes(bpic_xes_bytes), config)
        first = graph.events["e1"]
        assert first.attributes["org:resource"].value == "Frederic"
        assert first.attributes["impact"].value == "Medium"
        # absent keys are simply not copied
        assert "impact" not in graph.events["e4"].attributes

    def test_duplicate_case_ids_merge_with_warning(self):
        doc = b"""<log xes.version="1.0">
          <trace><string key="concept:name" value="dup"/>
            <event><date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace>
          <trace><string key="concept:name" value="dup"/>
            <event><date key="time:timestamp" value="2012-01-02T00:00:00.000Z"/></event></trace>
        </log>"""
        graph, report = transform_log(parse_xes(doc))
        assert list(graph.objects) == ["dup"]
        assert len(report.warnings) == 1
        case_rels = [r for r in graph.event_object_relations if r.qualifier == "event_case"]
        assert {r.object for r in case_rels} == {"dup"}

    def test_object_sharing_equals_distinct_values(self):
        rng = random.Random(99)
        for _ in range(25):
            xml, total, retained, distinct_groups = random_xes(rng)
            graph, report = transform_log(parse_xes(xml.encode("utf-8")))
            assert report.events_emitted == retained
            assert report.events_emitted + len(report.events_skipped) == total
            teams = [o for o in graph.objects.values() if o.object_type == "support_team"]
            assert len(teams) == distinct_groups

    def test_determinism_same_input_same_turtle(self, bpic_xes_bytes):
        outputs = set()
        for _ in range(2):
            graph, _ = transform_log(parse_xes(bpic_xes_bytes))
            outputs.add(write_turtle(graph_to_triples(graph)))
        assert len(outputs) == 1

    @staticmethod
    def _two_rule_log(first: str, second: str) -> bytes:
        return f"""<log xes.version="1.0"><trace><string key="concept:name" value="c"/><event>
          <date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/>
          <string key="k1" value="{first}"/><string key="k2" value="{second}"/>
        </event></trace></log>""".encode()

    def test_rules_minting_one_id_for_two_object_types_skip_the_second(self):
        # object type a_b with value c and object type a with value b_c both give a_b_c
        config = MappingConfig(object_rules=[ObjectRule("k1", "a_b", "q1"), ObjectRule("k2", "a", "q2")])
        graph, report = transform_log(parse_xes(self._two_rule_log("c", "b_c")), config)
        assert graph.objects["a_b_c"].object_type == "a_b"
        assert report.warnings == [
            "trace 0 event 0: id 'a_b_c' already names a 'a_b' object; rule for 'k2' skipped"
        ]
        assert [(r.object, r.qualifier) for r in graph.event_object_relations] == [("c", "event_case"), ("a_b_c", "q1")]

    def test_rules_minting_one_id_of_one_type_with_one_qualifier_relate_once(self):
        config = MappingConfig(object_rules=[ObjectRule("k1", "team", "q"), ObjectRule("k2", "team", "q")])
        graph, report = transform_log(parse_xes(self._two_rule_log("x", "x")), config)
        assert list(graph.objects) == ["c", "team_x"]
        assert report.warnings == [
            "trace 0 event 0: duplicate event-object relation ('e1', 'team_x', 'q')"
        ]
        assert [(r.object, r.qualifier) for r in graph.event_object_relations] == [("c", "event_case"), ("team_x", "q")]

    def test_ids_are_escaped(self):
        doc = b"""<log xes.version="1.0"><trace>
          <string key="concept:name" value="case 1/a"/>
          <event>
            <date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/>
            <string key="org:group" value="team one"/>
          </event>
        </trace></log>"""
        graph, _ = transform_log(parse_xes(doc))
        assert "case%201%2Fa" in graph.objects
        assert "support_team_team%20one" in graph.objects


class TestConfigValidation:
    def test_duplicate_rule_keys_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            MappingConfig(
                object_rules=[
                    ObjectRule("org:group", "a", "qa"),
                    ObjectRule("org:group", "b", "qb"),
                ]
            )

    def test_timestamp_key_cannot_be_a_rule(self):
        with pytest.raises(ConfigError, match="timestamp"):
            MappingConfig(object_rules=[ObjectRule("time:timestamp", "t", "q")])

    def test_empty_case_type_rejected(self):
        with pytest.raises(ConfigError):
            MappingConfig(case_object_type="")

    def test_empty_oo_qualifier_rejected_and_null_asks_for_no_relation(self):
        with pytest.raises(ConfigError, match="incomplete object rule"):
            MappingConfig(object_rules=[ObjectRule("org:group", "team", "q", "")])
        assert MappingConfig(object_rules=[ObjectRule("org:group", "team", "q", None)]).validate() is None

    @pytest.mark.parametrize("name", ["event", "object", "classifier", "event_type", "object_type"])
    @pytest.mark.parametrize(
        "field, config",
        [
            ("case_eo_qualifier", lambda q: MappingConfig(case_eo_qualifier=q)),
            ("object_rules[0].eo_qualifier", lambda q: MappingConfig(object_rules=[ObjectRule("k", "t", q)])),
            (
                "object_rules[1].oo_qualifier",
                lambda q: MappingConfig(object_rules=[ObjectRule("k", "t", "q"), ObjectRule("k2", "t", "q2", q)]),
            ),
        ],
        ids=["case", "eo", "oo"],
    )
    def test_qualifier_named_like_a_fixed_ext_predicate_rejected(self, name, field, config):
        """A qualifier is written as ext:<name>, so one of these names would
        add triples to a fixed predicate and change what the queries count."""
        with pytest.raises(ConfigError) as caught:
            config(name)
        assert str(caught.value) == f"{field} {name!r} names a fixed ext: predicate"

    @pytest.mark.parametrize("name", ["Event", "event_case", "EventObject", "events", "observed_at", "object type"])
    def test_qualifier_near_a_fixed_name_accepted(self, name):
        config = MappingConfig(case_eo_qualifier=name, object_rules=[ObjectRule("k", "t", name, name)])
        assert config.validate() is None


class TestConfigFile:
    def test_round_trip_through_json(self, tmp_path):
        config = MappingConfig(
            case_object_type="incident",
            object_rules=[ObjectRule("org:role", "role", "performed_by", None)],
            attribute_passthrough=["impact"],
        )
        path = tmp_path / "mapping.json"
        path.write_text(
            json.dumps(
                {
                    "config_version": 1,
                    "case_object_type": "incident",
                    "object_rules": [
                        {
                            "xes_key": "org:role",
                            "object_type": "role",
                            "eo_qualifier": "performed_by",
                            "oo_qualifier": None,
                        }
                    ],
                    "attribute_passthrough": ["impact"],
                }
            )
        )
        assert load_mapping_config(str(path)) == config

    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"config_version": 1, "case_object_type": "incident"}))
        config = load_mapping_config(str(path))
        assert config.case_object_type == "incident"
        assert config.case_eo_qualifier == "event_case"

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"config_version": 2}))
        with pytest.raises(ConfigError, match="config_version"):
            load_mapping_config(str(path))

    @pytest.mark.parametrize("version, shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'")])
    def test_version_that_only_equals_1_rejected(self, version, shown, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"config_version": version}))
        with pytest.raises(ConfigError) as caught:
            load_mapping_config(str(path))
        assert str(caught.value) == f"{path}: config_version must be 1, got {shown}"

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"case_object_type": "x"}))
        with pytest.raises(ConfigError, match="config_version"):
            load_mapping_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps({"config_version": 1, "case_objct_type": "typo"}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_mapping_config(str(path))

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], "top level must be a JSON object"),
            ({"config_version": 1, "object_rules": ["k"]}, r"object_rules\[0\] must be an object"),
            (
                {"config_version": 1, "object_rules": [{"xes_key": "k", "object_type": "t", "eo_qualifier": "q", "x": 1}]},
                r"object_rules\[0\] has unknown keys \['x'\]",
            ),
            (
                {"config_version": 1, "object_rules": [{"xes_key": "k", "object_type": "t"}]},
                r"object_rules\[0\]: .*eo_qualifier",
            ),
        ],
        ids=["top-level-not-an-object", "rule-not-an-object", "unknown-rule-key", "missing-rule-key"],
    )
    def test_config_of_the_wrong_shape_rejected(self, tmp_path, data, message):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=message):
            load_mapping_config(str(path))

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_mapping_config(str(path))
