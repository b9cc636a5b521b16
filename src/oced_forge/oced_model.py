"""Object-centric event data graph: typed events and objects joined by
qualified event-object and object-object relations.

Entity ids live in two independent namespaces (events vs objects) and must
be IRI-safe: anything outside [A-Za-z0-9_-] is percent-encoded via
`escape_id` before an id is handed to the graph, which checks each id with
`terms.is_escaped_id`.  Relation ids are minted by the graph itself as
eo_<n> / oo_<n> in insertion order so serialization is reproducible.
"""

from dataclasses import dataclass, field
from datetime import datetime

from .errors import GraphIntegrityError
from .terms import is_escaped_id
from .terms import escape_id, unescape_id  # noqa: F401  (part of this module's API)
from .timeutil import to_utc_millis


def _check_id(value: str, what: str):
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} id must be a non-empty string")
    if not is_escaped_id(value):
        raise ValueError(
            f"{what} id {value!r} contains characters outside the escaped id alphabet; "
            f"apply escape_id() first"
        )


@dataclass(frozen=True, slots=True)
class TypedValue:
    """Attribute value with its XES kind tag (string, date, int, float,
    boolean, or id).  Dates are aware datetimes."""

    kind: str
    value: object


@dataclass(frozen=True)
class OcedEvent:
    id: str
    event_type: str
    observed_at: datetime
    attributes: dict[str, TypedValue] = field(default_factory=dict)

    def __post_init__(self):
        _check_id(self.id, "event")
        if not self.event_type:
            raise ValueError(f"event {self.id!r} has an empty event type")
        if not isinstance(self.observed_at, datetime) or self.observed_at.tzinfo is None:
            raise ValueError(f"event {self.id!r} needs an aware observed_at timestamp")
        object.__setattr__(self, "observed_at", to_utc_millis(self.observed_at))


@dataclass(frozen=True)
class OcedObject:
    id: str
    object_type: str

    def __post_init__(self):
        _check_id(self.id, "object")
        if not self.object_type:
            raise ValueError(f"object {self.id!r} has an empty object type")


@dataclass(frozen=True)
class EventObjectRelation:
    id: str
    event: str
    object: str
    qualifier: str | None = None


@dataclass(frozen=True)
class ObjectObjectRelation:
    id: str
    source: str
    target: str
    qualifier: str


class OcedGraph:
    """Mutable builder for an OCED graph; treat as immutable once built.

    Every mutation preserves referential integrity: relations can only be
    added between entities that already exist, duplicate ids are rejected,
    and duplicate (event, object, qualifier) relations are rejected.
    """

    def __init__(self):
        self.events: dict[str, OcedEvent] = {}
        self.objects: dict[str, OcedObject] = {}
        self.event_object_relations: list[EventObjectRelation] = []
        self.object_object_relations: list[ObjectObjectRelation] = []
        self._eo_seen: set[tuple[str, str, str | None]] = set()

    def add_event(self, event: OcedEvent) -> OcedEvent:
        if event.id in self.events:
            raise GraphIntegrityError(f"duplicate event id {event.id!r}")
        self.events[event.id] = event
        return event

    def add_object(self, obj: OcedObject) -> OcedObject:
        if obj.id in self.objects:
            raise GraphIntegrityError(f"duplicate object id {obj.id!r}")
        self.objects[obj.id] = obj
        return obj

    def relate_event_object(
        self, event_id: str, object_id: str, qualifier: str | None = None
    ) -> EventObjectRelation:
        if event_id not in self.events:
            raise GraphIntegrityError(f"relation endpoint {event_id!r} is not a known event")
        if object_id not in self.objects:
            raise GraphIntegrityError(f"relation endpoint {object_id!r} is not a known object")
        if qualifier is not None and not qualifier:
            raise GraphIntegrityError("event-object qualifier must be None or non-empty")
        key = (event_id, object_id, qualifier)
        if key in self._eo_seen:
            raise GraphIntegrityError(
                f"duplicate event-object relation ({event_id!r}, {object_id!r}, {qualifier!r})"
            )
        relation = EventObjectRelation(
            id=f"eo_{len(self.event_object_relations) + 1}",
            event=event_id,
            object=object_id,
            qualifier=qualifier,
        )
        self._eo_seen.add(key)
        self.event_object_relations.append(relation)
        return relation

    def relate_objects(
        self, source_id: str, target_id: str, qualifier: str
    ) -> ObjectObjectRelation:
        if source_id not in self.objects:
            raise GraphIntegrityError(f"relation endpoint {source_id!r} is not a known object")
        if target_id not in self.objects:
            raise GraphIntegrityError(f"relation endpoint {target_id!r} is not a known object")
        if not qualifier:
            raise GraphIntegrityError("object-object relations require a qualifier")
        if source_id == target_id:
            raise GraphIntegrityError(f"self-relation on object {source_id!r} rejected")
        relation = ObjectObjectRelation(
            id=f"oo_{len(self.object_object_relations) + 1}",
            source=source_id,
            target=target_id,
            qualifier=qualifier,
        )
        self.object_object_relations.append(relation)
        return relation
