"""XES-to-OCED transformation driven by a declarative mapping configuration.

The default configuration reproduces the BPIC 2013 conversion: one "case"
object per trace, one OCED event per timestamped XES event linked to its
case via the "event_case" qualifier, and a shared "support_team" object per
distinct org:group value linked via "handled_by_support_team", with a
case-to-team "involves_team" relation.

Configurations are loadable from JSON files carrying config_version 1; see
README for the schema.
"""

from types import SimpleNamespace
from typing import NamedTuple

from .errors import ConfigError, GraphIntegrityError, warn
from .oced_model import OcedEvent, OcedGraph, OcedObject, TypedValue
from .terms import EXT, EXT_FIXED_PREDICATES, Iri, escape_id
from .timeutil import has_utc_instant, to_utc_millis
from .xes_parser import XesLog, _attribute_text

CONFIG_VERSION = 1


def _is_text(value) -> bool:
    """A string that encodes as UTF-8: JSON escapes can spell lone surrogates."""
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class ObjectRule(NamedTuple):
    """Turn an event attribute into a shared object plus a qualified
    event-object relation; oo_qualifier additionally links case to object."""

    xes_key: str
    object_type: str
    eo_qualifier: str
    oo_qualifier: str | None = None


_TEAM_RULE = ObjectRule("org:group", "support_team", "handled_by_support_team", "involves_team")
_DEFAULT = object()  # a list field left out: it gets a new default list


class MappingConfig(SimpleNamespace):
    """Each field left out takes its BPIC 2013 default; a config is
    validated when built, compared by value, and unhashable."""

    def __init__(
        self,
        case_object_type: str = "case",
        case_id_key: str = "concept:name",
        event_type_keys: list[str] = _DEFAULT,
        timestamp_key: str = "time:timestamp",
        object_rules: list[ObjectRule] = _DEFAULT,
        case_eo_qualifier: str = "event_case",
        attribute_passthrough: list[str] = _DEFAULT,
    ):
        super().__init__(
            case_object_type=case_object_type,
            case_id_key=case_id_key,
            event_type_keys=(
                ["concept:name", "lifecycle:transition"] if event_type_keys is _DEFAULT else event_type_keys
            ),
            timestamp_key=timestamp_key,
            object_rules=[_TEAM_RULE] if object_rules is _DEFAULT else object_rules,
            case_eo_qualifier=case_eo_qualifier,
            attribute_passthrough=[] if attribute_passthrough is _DEFAULT else attribute_passthrough,
        )
        self.validate()

    def validate(self):
        for name in ("case_object_type", "case_id_key", "timestamp_key", "case_eo_qualifier"):
            value = getattr(self, name)
            if not _is_text(value):
                raise ConfigError(f"{name} must be a string, got {value!r}")
            if not value:
                raise ConfigError(f"{name} must be non-empty")
        for name in ("event_type_keys", "attribute_passthrough"):
            value = getattr(self, name)
            if not isinstance(value, list) or not all(_is_text(key) for key in value):
                raise ConfigError(f"{name} must be a list of strings, got {value!r}")
        if not isinstance(self.object_rules, list):
            raise ConfigError(f"object_rules must be a list, got {self.object_rules!r}")
        for rule in self.object_rules:
            if not (
                isinstance(rule, ObjectRule)
                and all(_is_text(v) for v in (rule.xes_key, rule.object_type, rule.eo_qualifier))
                and (rule.oo_qualifier is None or _is_text(rule.oo_qualifier))
            ):
                raise ConfigError(f"object rule fields must be strings (oo_qualifier may be null): {rule!r}")
        keys = [rule.xes_key for rule in self.object_rules]
        if len(set(keys)) != len(keys):
            raise ConfigError("object_rules xes_keys must be distinct")
        if self.timestamp_key in keys:
            raise ConfigError(f"timestamp key {self.timestamp_key!r} cannot also be an object rule")
        # each qualifier is written as the predicate ext:<escaped name>
        qualifiers = {"case_eo_qualifier": self.case_eo_qualifier}
        for i, rule in enumerate(self.object_rules):
            if not (rule.xes_key and rule.object_type and rule.eo_qualifier) or rule.oo_qualifier == "":
                raise ConfigError(f"incomplete object rule: {rule}")
            qualifiers[f"object_rules[{i}].eo_qualifier"] = rule.eo_qualifier
            qualifiers[f"object_rules[{i}].oo_qualifier"] = rule.oo_qualifier
        for name, value in qualifiers.items():
            if value is not None and Iri(EXT + escape_id(value)) in EXT_FIXED_PREDICATES:
                raise ConfigError(f"{name} {value!r} names a fixed ext: predicate")


class SkippedEvent(NamedTuple):
    trace_index: int
    event_index: int
    reason: str


class TransformReport(SimpleNamespace):
    def __init__(self, events_emitted=0, objects_emitted=0, events_skipped=_DEFAULT, warnings=_DEFAULT):
        super().__init__(
            events_emitted=events_emitted,
            objects_emitted=objects_emitted,
            events_skipped=[] if events_skipped is _DEFAULT else events_skipped,
            warnings=[] if warnings is _DEFAULT else warnings,
        )


def default_bpic2013_config() -> MappingConfig:
    """The configuration whose Turtle output carries the event_case,
    handled_by_support_team, and observed_at predicates the BPIC 2013
    ping-pong query expects."""
    return MappingConfig()


def load_mapping_config(path: str) -> MappingConfig:
    """Load a MappingConfig from a JSON file (config_version 1).

    Absent keys fall back to the BPIC 2013 defaults; unknown keys are
    rejected so typos do not silently map to defaults.
    """
    import json  # only a config file is JSON

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"{path}: JSON nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    version = data.pop("config_version", None)
    if version.__class__ is not int or version != CONFIG_VERSION:  # not True, not 1.0
        raise ConfigError(f"{path}: config_version must be {CONFIG_VERSION}, got {version!r}")
    fields = vars(default_bpic2013_config())  # a config's fields are its attributes
    unknown = [k for k in data if k not in fields]
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    rules = data.get("object_rules")  # null stays, for validate() to reject
    if isinstance(rules, list):
        parsed_rules = []
        for i, raw in enumerate(rules):
            if not isinstance(raw, dict):
                raise ConfigError(f"{path}: object_rules[{i}] must be an object")
            extra = set(raw) - set(ObjectRule._fields)
            if extra:
                raise ConfigError(f"{path}: object_rules[{i}] has unknown keys {sorted(extra)}")
            try:
                parsed_rules.append(ObjectRule(**raw))
            except TypeError as exc:  # a required key left out, named as ObjectRule.__init__() names it
                message = str(exc).replace("ObjectRule.__new__()", "ObjectRule.__init__()")
                raise ConfigError(f"{path}: object_rules[{i}]: {message}") from exc
        data["object_rules"] = parsed_rules
    return MappingConfig(**data)


def derive_event_type(event: dict[str, TypedValue], config: MappingConfig) -> str:
    """Join the values at event_type_keys with '+', skipping absent keys;
    'unknown' when that gives the empty string (every key absent, or the
    only value present empty)."""
    attrs = (event.get(key) for key in config.event_type_keys)
    return "+".join(_attribute_text(attr) for attr in attrs if attr is not None) or "unknown"


def trace_case_ids(log_: XesLog, config: MappingConfig) -> list[tuple[str, str]]:
    """Each trace's case id, as (raw, escaped): the value at case_id_key, or
    trace_<index> when the trace lacks it or its value is empty.  Traces whose
    escaped ids are equal are one case."""
    ids = []
    for ti, trace in enumerate(log_.traces):
        attr = trace.attributes.get(config.case_id_key)
        raw = (_attribute_text(attr) if attr is not None else "") or f"trace_{ti}"
        ids.append((raw, escape_id(raw)))
    return ids


def transform_log(log_: XesLog, config: MappingConfig | None = None) -> tuple[OcedGraph, TransformReport]:
    """Build an OcedGraph from a parsed XES log.

    Never raises for data problems: events without a parseable timestamp, or
    whose timestamp has no UTC instant in years 1..9999, are skipped into the
    report; a passthrough date attribute without such an instant is left out
    of its event with a warning; duplicate case ids reuse the existing case
    object with a warning.
    """
    config = config or default_bpic2013_config()
    config.validate()
    graph = OcedGraph()
    report = TransformReport()

    case_ids: list[str] = []
    for ti, (raw, case_id) in enumerate(trace_case_ids(log_, config)):
        if case_id in graph.objects:
            report.warnings.append(
                f"trace {ti}: case id {raw!r} already seen; events merged into one case"
            )
        else:
            graph.add_object(OcedObject(id=case_id, object_type=config.case_object_type))
            report.objects_emitted += 1
        case_ids.append(case_id)

    rule_oo_seen: set[tuple[str, str]] = set()
    # per rule, the object id of each distinct value text, escaped once
    rule_ids: list[dict[str, str]] = [{} for _ in config.object_rules]
    ordinal = 0
    for ti, trace in enumerate(log_.traces):
        case_id = case_ids[ti]
        for ei, event in enumerate(trace.events):
            ordinal += 1
            ts = event.get(config.timestamp_key)
            if ts is None:
                report.events_skipped.append(SkippedEvent(ti, ei, "missing timestamp"))
                continue
            if ts.kind != "date":
                report.events_skipped.append(SkippedEvent(ti, ei, "timestamp not a date"))
                continue
            try:
                observed_at = to_utc_millis(ts.value)  # normalized once: OcedEvent keeps it as it is
            except OverflowError:
                report.events_skipped.append(SkippedEvent(ti, ei, "timestamp out of range"))
                continue
            attributes = {}
            dates_out_of_range = []
            for key in config.attribute_passthrough:
                attr = event.get(key)
                if attr is None:
                    continue
                if attr.kind == "date" and not has_utc_instant(attr.value):
                    dates_out_of_range.append(key)
                    continue
                attributes[key] = attr
            oced_event = OcedEvent(f"e{ordinal}", derive_event_type(event, config), observed_at, attributes)
            for key in dates_out_of_range:
                report.warnings.append(
                    f"trace {ti} event {ei}: date attribute {key!r} has no UTC instant "
                    f"in years 1..9999; attribute left out"
                )
            graph.add_event(oced_event)
            report.events_emitted += 1
            graph.relate_event_object(oced_event.id, case_id, config.case_eo_qualifier)

            for rule, ids in zip(config.object_rules, rule_ids):
                attr = event.get(rule.xes_key)
                if attr is None:
                    continue
                value_text = _attribute_text(attr)
                object_id = ids.get(value_text)
                if object_id is None:
                    object_id = ids[value_text] = f"{escape_id(rule.object_type)}_{escape_id(value_text)}"
                existing = graph.objects.get(object_id)
                if existing is None:
                    graph.add_object(OcedObject(id=object_id, object_type=rule.object_type))
                    report.objects_emitted += 1
                elif existing.object_type != rule.object_type:
                    report.warnings.append(
                        f"trace {ti} event {ei}: id {object_id!r} already names a "
                        f"{existing.object_type!r} object; rule for {rule.xes_key!r} skipped"
                    )
                    continue
                try:
                    graph.relate_event_object(oced_event.id, object_id, rule.eo_qualifier)
                except GraphIntegrityError as exc:
                    report.warnings.append(f"trace {ti} event {ei}: {exc}")
                    continue
                if (
                    rule.oo_qualifier
                    and object_id != case_id
                    and (case_id, object_id) not in rule_oo_seen
                ):
                    rule_oo_seen.add((case_id, object_id))
                    graph.relate_objects(case_id, object_id, rule.oo_qualifier)

    for warning in report.warnings:
        warn(__name__, "%s", warning)
    return graph, report
