"""XES-to-OCED transformation driven by a declarative mapping configuration.

The default configuration reproduces the BPIC 2013 conversion: one "case"
object per trace, one OCED event per timestamped XES event linked to its
case via the "event_case" qualifier, and a shared "support_team" object per
distinct org:group value linked via "handled_by_support_team", with a
case-to-team "involves_team" relation.

Configurations are loadable from JSON files carrying config_version 1; see
README for the schema.
"""

import json
import logging
from dataclasses import dataclass, field
from datetime import datetime

from .errors import ConfigError, GraphIntegrityError
from .oced_model import OcedEvent, OcedGraph, OcedObject, TypedValue, escape_id
from .timeutil import to_utc_millis
from .xes_parser import XesLog, _attribute_text

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class ObjectRule:
    """Turn an event attribute into a shared object plus a qualified
    event-object relation; oo_qualifier additionally links case to object."""

    xes_key: str
    object_type: str
    eo_qualifier: str
    oo_qualifier: str | None = None


@dataclass
class MappingConfig:
    case_object_type: str = "case"
    case_id_key: str = "concept:name"
    event_type_keys: list[str] = field(
        default_factory=lambda: ["concept:name", "lifecycle:transition"]
    )
    timestamp_key: str = "time:timestamp"
    object_rules: list[ObjectRule] = field(
        default_factory=lambda: [
            ObjectRule(
                xes_key="org:group",
                object_type="support_team",
                eo_qualifier="handled_by_support_team",
                oo_qualifier="involves_team",
            )
        ]
    )
    case_eo_qualifier: str = "event_case"
    attribute_passthrough: list[str] = field(default_factory=list)

    def __post_init__(self):
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
                raise ConfigError(
                    f"object rule fields must be strings (oo_qualifier may be null): {rule!r}"
                )
        keys = [rule.xes_key for rule in self.object_rules]
        if len(set(keys)) != len(keys):
            raise ConfigError("object_rules xes_keys must be distinct")
        if self.timestamp_key in keys:
            raise ConfigError(f"timestamp key {self.timestamp_key!r} cannot also be an object rule")
        for rule in self.object_rules:
            if not (rule.xes_key and rule.object_type and rule.eo_qualifier):
                raise ConfigError(f"incomplete object rule: {rule}")


@dataclass(frozen=True)
class SkippedEvent:
    trace_index: int
    event_index: int
    reason: str


@dataclass
class TransformReport:
    events_emitted: int = 0
    objects_emitted: int = 0
    events_skipped: list[SkippedEvent] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


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
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"{path}: config_version must be {CONFIG_VERSION}, got {version!r}"
        )
    known = {f: True for f in MappingConfig.__dataclass_fields__}
    unknown = [k for k in data if k not in known]
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    rules = data.pop("object_rules", None)
    kwargs = dict(data)
    if isinstance(rules, list):
        parsed_rules = []
        for i, raw in enumerate(rules):
            if not isinstance(raw, dict):
                raise ConfigError(f"{path}: object_rules[{i}] must be an object")
            extra = set(raw) - {"xes_key", "object_type", "eo_qualifier", "oo_qualifier"}
            if extra:
                raise ConfigError(f"{path}: object_rules[{i}] has unknown keys {sorted(extra)}")
            try:
                parsed_rules.append(ObjectRule(**raw))
            except TypeError as exc:
                raise ConfigError(f"{path}: object_rules[{i}]: {exc}") from exc
        kwargs["object_rules"] = parsed_rules
    elif rules is not None:
        kwargs["object_rules"] = rules  # not a list: validate() rejects it
    try:
        return MappingConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def derive_event_type(event: dict[str, TypedValue], config: MappingConfig) -> str:
    """Join the values at event_type_keys with '+', skipping absent keys;
    'unknown' when that gives the empty string (every key absent, or the
    only value present empty)."""
    parts = []
    for key in config.event_type_keys:
        attr = event.get(key)
        if attr is not None:
            parts.append(_attribute_text(attr))
    return "+".join(parts) or "unknown"


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


def _has_utc_instant(value: datetime) -> bool:
    try:
        to_utc_millis(value)
    except OverflowError:  # the instant in UTC falls outside datetime's years 1..9999
        return False
    return True


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
            if not _has_utc_instant(ts.value):
                report.events_skipped.append(SkippedEvent(ti, ei, "timestamp out of range"))
                continue
            attributes = {}
            dates_out_of_range = []
            for key in config.attribute_passthrough:
                attr = event.get(key)
                if attr is None:
                    continue
                if attr.kind == "date" and not _has_utc_instant(attr.value):
                    dates_out_of_range.append(key)
                    continue
                attributes[key] = attr
            oced_event = OcedEvent(
                id=f"e{ordinal}",
                event_type=derive_event_type(event, config),
                observed_at=ts.value,
                attributes=attributes,
            )
            for key in dates_out_of_range:
                report.warnings.append(
                    f"trace {ti} event {ei}: date attribute {key!r} has no UTC instant "
                    f"in years 1..9999; attribute left out"
                )
            graph.add_event(oced_event)
            report.events_emitted += 1
            graph.relate_event_object(oced_event.id, case_id, config.case_eo_qualifier)

            for rule in config.object_rules:
                attr = event.get(rule.xes_key)
                if attr is None:
                    continue
                value_text = _attribute_text(attr)
                object_id = f"{escape_id(rule.object_type)}_{escape_id(value_text)}"
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
        log.warning("%s", warning)
    return graph, report
