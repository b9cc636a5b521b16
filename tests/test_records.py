"""The contract of the package's record types: how each is built, read,
compared, hashed and shown, and what each checks.  ConfigError messages
embed a record's repr, so its text is part of the CLI's output."""

import json
from datetime import datetime, timedelta, timezone

import pytest

from oced_forge import (
    ConfigError,
    MappingConfig,
    ObjectRule,
    OcedEvent,
    OcedObject,
    TransformReport,
    TypedValue,
    XesLog,
    XesTrace,
    load_mapping_config,
)
from oced_forge.oced_model import EventObjectRelation, ObjectObjectRelation
from oced_forge.transform import SkippedEvent

T0 = datetime(2012, 1, 1, 9, 0, tzinfo=timezone.utc)
T0_REPR = "datetime.datetime(2012, 1, 1, 9, 0, tzinfo=datetime.timezone.utc)"
TEAM_RULE = ObjectRule("org:group", "support_team", "handled_by_support_team", "involves_team")

# (record built positionally, the same built by keyword, a record that differs, its repr)
FROZEN = {
    "TypedValue": (
        TypedValue("int", 1),
        TypedValue(kind="int", value=1),
        TypedValue("int", 2),
        "TypedValue(kind='int', value=1)",
    ),
    "OcedEvent": (
        OcedEvent("e1", "A", T0, {"k": TypedValue("string", "v")}),
        OcedEvent(id="e1", event_type="A", observed_at=T0, attributes={"k": TypedValue("string", "v")}),
        OcedEvent("e1", "A", T0),
        f"OcedEvent(id='e1', event_type='A', observed_at={T0_REPR}, "
        "attributes={'k': TypedValue(kind='string', value='v')})",
    ),
    "OcedObject": (
        OcedObject("o1", "case"),
        OcedObject(id="o1", object_type="case"),
        OcedObject("o1", "team"),
        "OcedObject(id='o1', object_type='case')",
    ),
    "EventObjectRelation": (
        EventObjectRelation("eo_1", "e1", "o1"),
        EventObjectRelation(id="eo_1", event="e1", object="o1", qualifier=None),
        EventObjectRelation("eo_1", "e1", "o1", "q"),
        "EventObjectRelation(id='eo_1', event='e1', object='o1', qualifier=None)",
    ),
    "ObjectObjectRelation": (
        ObjectObjectRelation("oo_1", "c1", "t1", "q"),
        ObjectObjectRelation(id="oo_1", source="c1", target="t1", qualifier="q"),
        ObjectObjectRelation("oo_1", "t1", "c1", "q"),
        "ObjectObjectRelation(id='oo_1', source='c1', target='t1', qualifier='q')",
    ),
    "XesTrace": (
        XesTrace({"k": TypedValue("id", "x")}, ({},)),
        XesTrace(attributes={"k": TypedValue("id", "x")}, events=({},)),
        XesTrace({}, ({},)),
        "XesTrace(attributes={'k': TypedValue(kind='id', value='x')}, events=({},))",
    ),
    "XesLog": (
        XesLog((XesTrace({}, ()),)),
        XesLog(traces=(XesTrace({}, ()),), warnings=()),
        XesLog(()),
        "XesLog(traces=(XesTrace(attributes={}, events=()),), warnings=())",
    ),
    "ObjectRule": (
        ObjectRule("k", "t", "q"),
        ObjectRule(xes_key="k", object_type="t", eo_qualifier="q", oo_qualifier=None),
        ObjectRule("k", "t", "q", "oo"),
        "ObjectRule(xes_key='k', object_type='t', eo_qualifier='q', oo_qualifier=None)",
    ),
    "SkippedEvent": (
        SkippedEvent(0, 2, "missing timestamp"),
        SkippedEvent(trace_index=0, event_index=2, reason="missing timestamp"),
        SkippedEvent(0, 3, "missing timestamp"),
        "SkippedEvent(trace_index=0, event_index=2, reason='missing timestamp')",
    ),
}
# the frozen records whose fields are all hashable
HASHABLE = {"TypedValue", "OcedObject", "EventObjectRelation", "ObjectObjectRelation", "ObjectRule", "SkippedEvent"}


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_is_built_either_way_and_compared_by_value(name):
    positional, keyword, other, text = FROZEN[name]
    assert positional == keyword
    assert not positional != keyword
    assert positional != other
    assert not positional == other
    assert repr(positional) == str(positional) == text
    if name in HASHABLE:
        assert hash(positional) == hash(keyword)
        assert len({positional, keyword, other}) == 2
    else:  # a dict field makes the record unhashable
        with pytest.raises(TypeError):
            hash(positional)


# each frozen record's fields, in order
FIELDS = {
    "TypedValue": ("kind", "value"),
    "OcedEvent": ("id", "event_type", "observed_at", "attributes"),
    "OcedObject": ("id", "object_type"),
    "EventObjectRelation": ("id", "event", "object", "qualifier"),
    "ObjectObjectRelation": ("id", "source", "target", "qualifier"),
    "XesTrace": ("attributes", "events"),
    "XesLog": ("traces", "warnings"),
    "ObjectRule": ("xes_key", "object_type", "eo_qualifier", "oo_qualifier"),
    "SkippedEvent": ("trace_index", "event_index", "reason"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_has_its_fields_in_order_and_refuses_to_change(name):
    record, _, _, text = FROZEN[name]
    fields = FIELDS[name]
    assert text == f"{name}({', '.join(f'{field}={getattr(record, field)!r}' for field in fields)})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


class TestOcedEntities:
    def test_an_event_gets_a_new_empty_attribute_dict_by_default(self):
        first, second = OcedEvent("e1", "A", T0), OcedEvent("e2", "A", T0)
        assert first.attributes == {} and first.attributes is not second.attributes

    def test_observed_at_is_normalised_to_utc_milliseconds(self):
        plus_one = timezone(timedelta(hours=1))
        event = OcedEvent("e1", "A", datetime(2012, 1, 1, 10, 0, 0, 123999, tzinfo=plus_one))
        assert event.observed_at == T0.replace(microsecond=123000)
        assert event.observed_at.tzinfo is timezone.utc
        assert repr(event.observed_at) == "datetime.datetime(2012, 1, 1, 9, 0, 0, 123000, tzinfo=datetime.timezone.utc)"
        assert event == OcedEvent("e1", "A", T0.replace(microsecond=123456))

    @pytest.mark.parametrize(
        "args, message",
        [
            (("", "A", T0), "event id must be a non-empty string"),
            ((7, "A", T0), "event id must be a non-empty string"),
            (
                ("e 1", "A", T0),
                "event id 'e 1' contains characters outside the escaped id alphabet; apply escape_id() first",
            ),
            (("e1", "", T0), "event 'e1' has an empty event type"),
            (("e1", "A", datetime(2012, 1, 1)), "event 'e1' needs an aware observed_at timestamp"),
            (("e1", "A", "2012-01-01T09:00:00Z"), "event 'e1' needs an aware observed_at timestamp"),
        ],
    )
    def test_an_event_checks_its_fields(self, args, message):
        with pytest.raises(ValueError) as caught:
            OcedEvent(*args)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "args, message",
        [
            (("", "case"), "object id must be a non-empty string"),
            (
                ("o%2", "case"),
                "object id 'o%2' contains characters outside the escaped id alphabet; apply escape_id() first",
            ),
            (("o1", ""), "object 'o1' has an empty object type"),
        ],
    )
    def test_an_object_checks_its_fields(self, args, message):
        with pytest.raises(ValueError) as caught:
            OcedObject(*args)
        assert str(caught.value) == message


class TestXesLog:
    def test_equality_ignores_warnings(self):
        traces = (XesTrace({}, ({"k": TypedValue("int", 1)},)),)
        warned, quiet = XesLog(traces, ("skipped unknown element <x>",)), XesLog(traces)
        assert warned == quiet
        assert not warned != quiet
        assert warned.warnings == ("skipped unknown element <x>",) and quiet.warnings == ()
        assert XesLog(()) != quiet
        assert hash(XesLog((), ("w",))) == hash(XesLog(()))

    def test_event_count(self):
        assert XesLog((XesTrace({}, ({}, {})), XesTrace({}, ({},)))).event_count == 3
        assert XesLog(()).event_count == 0


MAPPING_REPR = (
    "MappingConfig(case_object_type='case', case_id_key='concept:name', "
    "event_type_keys=['concept:name', 'lifecycle:transition'], timestamp_key='time:timestamp', "
    "object_rules=[ObjectRule(xes_key='org:group', object_type='support_team', "
    "eo_qualifier='handled_by_support_team', oo_qualifier='involves_team')], "
    "case_eo_qualifier='event_case', attribute_passthrough=[])"
)


class TestMappingConfig:
    def test_defaults(self):
        config = MappingConfig()
        assert config.case_object_type == "case"
        assert config.case_id_key == "concept:name"
        assert config.event_type_keys == ["concept:name", "lifecycle:transition"]
        assert config.timestamp_key == "time:timestamp"
        assert config.object_rules == [TEAM_RULE]
        assert config.case_eo_qualifier == "event_case"
        assert config.attribute_passthrough == []
        assert repr(config) == str(config) == MAPPING_REPR

    def test_each_config_gets_new_default_lists(self):
        first, second = MappingConfig(), MappingConfig()
        first.event_type_keys.append("org:role")
        first.object_rules.clear()
        first.attribute_passthrough.append("impact")
        assert second == MappingConfig() != first
        assert repr(MappingConfig()) == MAPPING_REPR

    def test_positional_and_keyword_construction(self):
        rules = [ObjectRule("org:role", "role", "performed_by")]
        positional = MappingConfig("incident", "id", ["a"], "ts", rules, "in_case", ["impact"])
        keyword = MappingConfig(
            case_object_type="incident",
            case_id_key="id",
            event_type_keys=["a"],
            timestamp_key="ts",
            object_rules=rules,
            case_eo_qualifier="in_case",
            attribute_passthrough=["impact"],
        )
        assert positional == keyword
        assert not positional != keyword
        assert positional != MappingConfig()
        assert MappingConfig("incident") == MappingConfig(case_object_type="incident")

    def test_fields_can_be_set_and_the_config_is_unhashable(self):
        config = MappingConfig()
        config.case_object_type = "incident"
        assert config == MappingConfig(case_object_type="incident")
        with pytest.raises(TypeError):
            hash(config)

    def test_a_set_field_is_checked_by_validate(self):
        config = MappingConfig()
        config.event_type_keys = None
        with pytest.raises(ConfigError, match="event_type_keys must be a list of strings, got None"):
            config.validate()

    @pytest.mark.parametrize("name", ["event_type_keys", "attribute_passthrough"])
    def test_an_explicit_none_list_is_rejected_not_defaulted(self, name):
        with pytest.raises(ConfigError) as caught:
            MappingConfig(**{name: None})
        assert str(caught.value) == f"{name} must be a list of strings, got None"

    def test_an_explicit_none_rule_list_is_rejected(self):
        with pytest.raises(ConfigError) as caught:
            MappingConfig(object_rules=None)
        assert str(caught.value) == "object_rules must be a list, got None"

    def test_a_rule_error_shows_the_rule(self):
        with pytest.raises(ConfigError) as caught:
            MappingConfig(object_rules=[ObjectRule("k", 5, "q")])
        assert str(caught.value) == (
            "object rule fields must be strings (oo_qualifier may be null): "
            "ObjectRule(xes_key='k', object_type=5, eo_qualifier='q', oo_qualifier=None)"
        )
        with pytest.raises(ConfigError) as caught:
            MappingConfig(object_rules=[ObjectRule("", "t", "q")])
        assert str(caught.value) == (
            "incomplete object rule: ObjectRule(xes_key='', object_type='t', eo_qualifier='q', oo_qualifier=None)"
        )


class TestTransformReport:
    def test_defaults_and_new_lists(self):
        first, second = TransformReport(), TransformReport()
        assert (first.events_emitted, first.objects_emitted, first.events_skipped, first.warnings) == (0, 0, [], [])
        assert first.events_skipped is not second.events_skipped and first.warnings is not second.warnings
        assert repr(first) == "TransformReport(events_emitted=0, objects_emitted=0, events_skipped=[], warnings=[])"

    def test_construction_equality_and_mutation(self):
        skipped = [SkippedEvent(0, 1, "missing timestamp")]
        positional = TransformReport(2, 3, skipped, ["w"])
        keyword = TransformReport(events_emitted=2, objects_emitted=3, events_skipped=skipped, warnings=["w"])
        assert positional == keyword and not positional != keyword
        assert repr(positional) == (
            "TransformReport(events_emitted=2, objects_emitted=3, events_skipped=[SkippedEvent(trace_index=0, "
            "event_index=1, reason='missing timestamp')], warnings=['w'])"
        )
        report = TransformReport()
        report.events_emitted += 2
        report.objects_emitted = 3
        report.events_skipped.extend(skipped)
        report.warnings.append("w")
        assert report == positional
        assert report != TransformReport()
        with pytest.raises(TypeError):
            hash(report)


@pytest.mark.parametrize(
    "rule, missing",
    [
        ({"xes_key": "k", "object_type": "t"}, "1 required positional argument: 'eo_qualifier'"),
        ({"xes_key": "k"}, "2 required positional arguments: 'object_type' and 'eo_qualifier'"),
        ({}, "3 required positional arguments: 'xes_key', 'object_type', and 'eo_qualifier'"),
    ],
)
def test_a_rule_missing_a_key_keeps_its_message(rule, missing, tmp_path):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps({"config_version": 1, "object_rules": [{"oo_qualifier": None, **rule}]}))
    with pytest.raises(ConfigError) as caught:
        load_mapping_config(str(path))
    assert str(caught.value) == f"{path}: object_rules[0]: ObjectRule.__init__() missing {missing}"
